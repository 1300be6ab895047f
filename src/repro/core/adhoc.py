"""Serving-time recommendation for ad-hoc member lists.

Occasional groups form at serving time — a set of user ids that never
appears in the training data.  This module builds the padded batch
structures (members, mask, social adjacency) for such a member list on
the fly, so a trained :class:`~repro.core.groupsa.GroupSA` can score it
exactly like a dataset group.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.groupsa import GroupSA
from repro.data.dataset import GroupRecommendationDataset
from repro.data.loaders import GroupBatch


def build_adhoc_batch(
    member_lists: Sequence[Sequence[int]],
    friend_sets: List[Set[int]],
) -> GroupBatch:
    """Assemble a :class:`GroupBatch` for ad-hoc member lists.

    ``friend_sets`` is the social network view (one set of neighbour
    ids per user, e.g. ``dataset.friend_set()``); the adjacency block
    is derived from it just like the training batcher does.
    """
    if not member_lists:
        raise ValueError("need at least one member list")
    rows = [np.unique(np.asarray(m, dtype=np.int64)) for m in member_lists]
    for row in rows:
        if row.size == 0:
            raise ValueError("ad-hoc groups must have at least one member")
    length = max(row.size for row in rows)
    count = len(rows)
    members = np.zeros((count, length), dtype=np.int64)
    mask = np.zeros((count, length), dtype=bool)
    adjacency = np.zeros((count, length, length), dtype=bool)
    for index, row in enumerate(rows):
        size = row.size
        members[index, :size] = row
        mask[index, :size] = True
        for a in range(size):
            friends = friend_sets[int(row[a])]
            for b in range(a + 1, size):
                if int(row[b]) in friends:
                    adjacency[index, a, b] = True
                    adjacency[index, b, a] = True
    return GroupBatch(
        group_ids=np.full(count, -1, dtype=np.int64),
        members=members,
        mask=mask,
        adjacency=adjacency,
    )


class AdhocGroupRecommender:
    """Score and rank items for serving-time groups.

    Wraps a trained model plus the social view of the world it was
    trained on.  Typical use::

        recommender = AdhocGroupRecommender(model, dataset)
        top = recommender.recommend([12, 57, 301], k=5)

    ``recommend*`` and :meth:`canonical_members` serve no request: with
    :func:`repro.evaluation.ranking.top_k_scored` they are the
    independent reference of ``tests/integration/test_scoring_modes.py``,
    the benchmark harness's ``Oracle`` and ``examples/adhoc_serving.py``,
    kept apart from :mod:`repro.engine.scorer`'s ``rank`` and
    ``canonical_members`` on purpose so the oracle never shares a bug
    with the serving path.
    """

    def __init__(self, model: GroupSA, dataset: GroupRecommendationDataset) -> None:
        self.model = model
        self.dataset = dataset
        self._friend_sets = dataset.friend_set()
        self._user_items = dataset.user_items()

    def batch(self, members: Sequence[int]) -> GroupBatch:
        """The one-row batch of an ad-hoc group (canonical member order)."""
        return build_adhoc_batch([members], self._friend_sets)

    def score(self, members: Sequence[int], item_ids: np.ndarray) -> np.ndarray:
        """r^G scores of one ad-hoc group for the given items."""
        return self.model.score_group_items(self.batch(members), item_ids)

    def recommend_scored(
        self,
        members: Sequence[int],
        k: int = 10,
        exclude_member_history: bool = True,
        batch: Optional[GroupBatch] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-K item ids for an ad-hoc group, best first, and their scores
        (the reference list; see the class docstring).

        ``batch``: :meth:`batch` of ``members``, when already built.
        """
        from repro.evaluation.ranking import top_k_scored  # late: engine imports us

        if batch is None:
            batch = self.batch(members)
        exclude: Set[int] = set()
        if exclude_member_history:
            exclude = exclude.union(*(self._user_items[int(m)] for m in members))

        def scorer(__, items):
            return self.model.score_group_items(batch, items)

        return top_k_scored(scorer, -1, self.dataset.num_items, k, exclude)

    def recommend(
        self,
        members: Sequence[int],
        k: int = 10,
        exclude_member_history: bool = True,
        batch: Optional[GroupBatch] = None,
    ) -> np.ndarray:
        """The item ids of :meth:`recommend_scored`."""
        return self.recommend_scored(members, k, exclude_member_history, batch)[0]

    @staticmethod
    def canonical_members(members: Sequence[int]) -> np.ndarray:
        """Deduplicated, ascending member ids — the batch member order.

        :func:`build_adhoc_batch` lays members out via ``np.unique``;
        any per-member output (e.g. :meth:`voting_weights`) follows
        this order, so callers should pair against it explicitly.  The
        reference twin of :func:`repro.engine.scorer.canonical_members`
        (see the class docstring), not merged with it.
        """
        return np.unique(np.asarray(members, dtype=np.int64))

    def voting_weights(self, members: Sequence[int], item_id: int) -> np.ndarray:
        """Member gamma weights (Eq. 10) for one target item.

        Returned in :meth:`canonical_members` order (one weight per
        unique member; duplicates in ``members`` collapse).
        """
        gamma = self.model.member_attention(self.batch(members), np.array([item_id]))
        return gamma[0][: self.canonical_members(members).size]
