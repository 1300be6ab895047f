"""Dataset container for the three interaction types of Section II-A.

A :class:`GroupRecommendationDataset` holds the observed user-item
interactions ``R^U``, group-item interactions ``R^G``, the social
network ``R^S`` and the member list of every group — everything the
task definition's *Input* requires, in sparse edge-list form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np


@dataclass
class GroupRecommendationDataset:
    """Sparse container for users, items, groups and their interactions.

    Attributes
    ----------
    num_users, num_items, num_groups:
        Entity counts; ids are dense ``0..n-1`` integers.
    user_item:
        Edge array of shape (E_u, 2) with columns (user, item).
    group_item:
        Edge array of shape (E_g, 2) with columns (group, item).
    social:
        Undirected edge array of shape (E_s, 2); stored once per pair.
    group_members:
        ``group_members[t]`` is the integer array of user ids in group t.
    name:
        Human-readable label (e.g. ``"yelp-like"``).
    """

    num_users: int
    num_items: int
    num_groups: int
    user_item: np.ndarray
    group_item: np.ndarray
    social: np.ndarray
    group_members: List[np.ndarray]
    name: str = "dataset"
    _user_items_cache: Optional[List[Set[int]]] = field(
        default=None, repr=False, compare=False
    )
    _group_items_cache: Optional[List[Set[int]]] = field(
        default=None, repr=False, compare=False
    )
    _friends_cache: Optional[List[np.ndarray]] = field(
        default=None, repr=False, compare=False
    )
    _friend_set_cache: Optional[List[Set[int]]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.user_item = _as_edges(self.user_item)
        self.group_item = _as_edges(self.group_item)
        self.social = _as_edges(self.social)
        self.group_members = [np.asarray(m, dtype=np.int64) for m in self.group_members]
        self.validate()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check id ranges and structural invariants; raise on violation."""
        if len(self.group_members) != self.num_groups:
            raise ValueError(
                f"expected {self.num_groups} member lists, got {len(self.group_members)}"
            )
        _check_range(self.user_item[:, 0], self.num_users, "user id in user_item")
        _check_range(self.user_item[:, 1], self.num_items, "item id in user_item")
        _check_range(self.group_item[:, 0], self.num_groups, "group id in group_item")
        _check_range(self.group_item[:, 1], self.num_items, "item id in group_item")
        _check_range(self.social[:, 0], self.num_users, "user id in social")
        _check_range(self.social[:, 1], self.num_users, "user id in social")
        if self.social.size and np.any(self.social[:, 0] == self.social[:, 1]):
            raise ValueError("social network contains self-loops")
        for group_id, members in enumerate(self.group_members):
            if members.size < 1:
                raise ValueError(f"group {group_id} has no members")
            if members.size != np.unique(members).size:
                raise ValueError(f"group {group_id} has duplicate members")
            _check_range(members, self.num_users, f"member of group {group_id}")

    # ------------------------------------------------------------------
    # Derived adjacency views (cached)
    # ------------------------------------------------------------------

    def user_items(self) -> List[Set[int]]:
        """Per-user set of interacted items."""
        if self._user_items_cache is None:
            sets: List[Set[int]] = [set() for __ in range(self.num_users)]
            for user, item in self.user_item:
                sets[user].add(int(item))
            self._user_items_cache = sets
        return self._user_items_cache

    def group_items(self) -> List[Set[int]]:
        """Per-group set of interacted items."""
        if self._group_items_cache is None:
            sets: List[Set[int]] = [set() for __ in range(self.num_groups)]
            for group, item in self.group_item:
                sets[group].add(int(item))
            self._group_items_cache = sets
        return self._group_items_cache

    def friends(self) -> List[np.ndarray]:
        """Per-user sorted array of direct social neighbours."""
        if self._friends_cache is None:
            lists: List[List[int]] = [[] for __ in range(self.num_users)]
            for left, right in self.social:
                lists[left].append(int(right))
                lists[right].append(int(left))
            self._friends_cache = [
                np.array(sorted(set(neighbours)), dtype=np.int64) for neighbours in lists
            ]
        return self._friends_cache

    def friend_set(self) -> List[Set[int]]:
        """Per-user set of direct social neighbours."""
        if self._friend_set_cache is None:
            self._friend_set_cache = [
                set(neighbours.tolist()) for neighbours in self.friends()
            ]
        return self._friend_set_cache

    def item_popularity(self) -> np.ndarray:
        """Interaction count per item over user-item edges."""
        counts = np.zeros(self.num_items, dtype=np.int64)
        np.add.at(counts, self.user_item[:, 1], 1)
        return counts

    # ------------------------------------------------------------------
    # Mutation-free derivation
    # ------------------------------------------------------------------

    def with_interactions(
        self,
        user_item: np.ndarray,
        group_item: np.ndarray,
        name: Optional[str] = None,
    ) -> "GroupRecommendationDataset":
        """Clone with replaced interaction edges (used by the splitter)."""
        return GroupRecommendationDataset(
            num_users=self.num_users,
            num_items=self.num_items,
            num_groups=self.num_groups,
            user_item=user_item,
            group_item=group_item,
            social=self.social,
            group_members=self.group_members,
            name=name or self.name,
        )

    def group_sizes(self) -> np.ndarray:
        return np.array([members.size for members in self.group_members])


def _as_edges(edges: Sequence[Tuple[int, int]]) -> np.ndarray:
    array = np.asarray(edges, dtype=np.int64)
    if array.size == 0:
        return array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError(f"edge array must have shape (E, 2), got {array.shape}")
    return array


def _check_range(values: np.ndarray, upper: int, label: str) -> None:
    if values.size == 0:
        return
    if values.min() < 0 or values.max() >= upper:
        raise ValueError(f"{label} out of range [0, {upper})")
