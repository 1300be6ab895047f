"""GroupSA: the paper's full model (Fig. 1).

Three components around shared user/item embeddings:

- :class:`~repro.core.voting.VotingNetwork` + group aggregation — the
  latent voting mechanism over group members (Section II-C);
- :class:`~repro.core.user_modeling.UserModeling` — item/social
  aggregation enhancing user representations (Section II-D);
- two :class:`~repro.core.prediction.PredictionTower` scorers for the
  group-item and user-item ranking tasks (Section II-E).

The embeddings ``emb^U``/``emb^V`` are shared between the two tasks;
that is the bridge the joint two-stage training exploits.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.autograd import dtype_policy, inference_mode, no_grad
from repro.autograd.tensor import Tensor, stack
from repro.core.config import GroupSAConfig
from repro.core.prediction import PredictionTower
from repro.core.user_modeling import UserModeling
from repro.core.voting import GroupAggregation, VotingNetwork
from repro.data.loaders import GroupBatch, TopNeighbours
from repro.nn import Embedding, Module
from repro.utils import RngLike, ensure_rng


class GroupSA(Module):
    """Group Self-Attention recommender.

    Parameters
    ----------
    num_users, num_items:
        Entity counts of the dataset.
    config:
        Hyper-parameters and component switches.
    top_neighbours:
        Top-H TF-IDF tables from the *training* split; required when
        user modeling is enabled (set later via
        :meth:`set_top_neighbours` if more convenient).
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        config: GroupSAConfig,
        top_neighbours: Optional[TopNeighbours] = None,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        generator = ensure_rng(config.seed if rng is None else rng)
        self.config = config
        self.num_users = num_users
        self.num_items = num_items

        # All parameter tables are created under the configured dtype
        # policy; a given seed yields the same weights (up to the final
        # cast) regardless of the dtype chosen.
        with dtype_policy(config.dtype):
            # Shared embeddings bridging the user-item and group-item spaces.
            self.user_embedding = Embedding(
                num_users, config.embedding_dim, rng=generator
            )
            self.item_embedding = Embedding(
                num_items, config.embedding_dim, rng=generator
            )

            self.voting = VotingNetwork(config, rng=generator)
            self.aggregation = GroupAggregation(config, rng=generator)
            self.group_tower = PredictionTower(
                config.embedding_dim,
                config.prediction_hidden,
                dropout=config.dropout,
                rng=generator,
            )
            self.user_tower = PredictionTower(
                config.embedding_dim,
                config.prediction_hidden,
                dropout=config.dropout,
                rng=generator,
            )

            self.user_modeling: Optional[UserModeling] = None
            if config.uses_user_modeling:
                self.user_modeling = UserModeling(
                    num_users, num_items, config, rng=generator
                )
        self._top_neighbours = top_neighbours

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    @property
    def top_neighbours(self) -> Optional[TopNeighbours]:
        return self._top_neighbours

    def set_top_neighbours(self, tables: TopNeighbours) -> None:
        """Attach the Top-H tables derived from the training split."""
        object.__setattr__(self, "_top_neighbours", tables)

    def _require_tables(self) -> TopNeighbours:
        if self._top_neighbours is None:
            raise RuntimeError(
                "user modeling is enabled but no TopNeighbours tables were set; "
                "call set_top_neighbours(tfidf_top_neighbours(train, top_h))"
            )
        return self._top_neighbours

    # ------------------------------------------------------------------
    # The two halves of each forward.  The *entity* halves (voting
    # rounds to Eq. 6; h_j, Eqs. 11-19) never see the candidate item;
    # the *item* halves (Eqs. 7-10, 20, 22, 23) start where it enters.
    # The differentiable forwards compose them row by row, the numpy
    # conveniences run the entity half once per distinct entity.
    # ------------------------------------------------------------------

    def _latent_user(self, emb_user: Tensor, user_ids: np.ndarray) -> Optional[Tensor]:
        """Entity half of r^R: h_j (Eq. 19); None when r^R is r^{R_1} alone."""
        if self.user_modeling is None or self.config.blend_weight == 0.0:
            return None
        return self.user_modeling(emb_user, user_ids, self._require_tables())

    def _embedding_score(self, emb_user: Tensor, item_ids: np.ndarray) -> Tensor:
        """Item half, embedding path: r^{R_1} of Eq. (22)."""
        return self.user_tower(emb_user, self.item_embedding(item_ids))

    def _blend(
        self,
        embedding_score: Tensor,
        latent_user: Optional[Tensor],
        item_ids: np.ndarray,
    ) -> Tuple[Tensor, Optional[Tensor]]:
        """Item half, latent path: r^{R_2} and the blend of Eq. (23)."""
        if latent_user is None:
            return embedding_score, None
        latent_item = self.user_modeling.item_factor(item_ids)
        latent_score = self.user_tower(latent_user, latent_item)
        weight = self.config.blend_weight
        if weight == 1.0:
            return latent_score, embedding_score
        blended = embedding_score * (1.0 - weight) + latent_score * weight
        return blended, embedding_score

    def _voted_members(
        self, members: np.ndarray, mask: np.ndarray, adjacency: np.ndarray
    ) -> Tensor:
        """Entity half of r^G: members after the voting rounds (to Eq. 6)."""
        voted, __ = self.voting(self.user_embedding(members), adjacency, mask)
        return voted

    def _group_item_half(
        self, voted: Tensor, mask: np.ndarray, item_ids: np.ndarray
    ) -> Tuple[Tensor, Tensor]:
        """Item half of r^G: Eqs. (7)-(10) and the tower of Eq. (20)."""
        item_embeddings = self.item_embedding(item_ids)
        group_representation, gamma = self.aggregation(voted, item_embeddings, mask)
        return self.group_tower(group_representation, item_embeddings), gamma

    # ------------------------------------------------------------------
    # Differentiable forward passes
    # ------------------------------------------------------------------

    def user_scores(self, user_ids: np.ndarray, item_ids: np.ndarray) -> Tensor:
        """Blended user-item ranking score r^R of Eq. (23), of ``item_ids.shape``."""
        blended, __ = self.user_score_components(user_ids, item_ids)
        return blended

    def user_score_components(
        self, user_ids: np.ndarray, item_ids: np.ndarray
    ) -> Tuple[Tensor, Optional[Tensor]]:
        """Return (blended score r^R, embedding-path score r^{R_1}).

        ``item_ids`` is (B,) — one item per user row — or (B, C): C
        candidates per row, scored against one gather of ``emb^U`` and
        one h_j.  Both scores have ``item_ids.shape``.

        The second element is None when the model has no user-modeling
        component (the blend then *is* the embedding score).  Training
        uses it as an auxiliary target: with the paper's w^u = 0.9 the
        embedding path would otherwise receive only 10% of the ranking
        gradient, starving the shared embeddings the voting network
        feeds on.
        """
        user_ids = np.asarray(user_ids, dtype=np.int64)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        columns = _candidate_columns(item_ids, len(user_ids))
        emb_user = self.user_embedding(user_ids)
        # r^{R_1} before h_j: the dropout layers share one generator, so
        # the call order is part of the training trajectory.
        embedding_scores = [self._embedding_score(emb_user, items) for items in columns]
        latent_user = self._latent_user(emb_user, user_ids)
        blended, embedding = zip(
            *(
                self._blend(score, latent_user, items)
                for score, items in zip(embedding_scores, columns)
            )
        )
        return (
            _join_columns(blended, item_ids.ndim),
            None if latent_user is None else _join_columns(embedding, item_ids.ndim),
        )

    def group_scores(
        self, batch: GroupBatch, item_ids: np.ndarray
    ) -> Tensor:
        """Group-item ranking score r^G of Eq. (20), of ``item_ids.shape``."""
        scores, __ = self.group_forward(batch, item_ids)
        return scores

    def group_forward(
        self, batch: GroupBatch, item_ids: np.ndarray
    ) -> Tuple[Tensor, Tensor]:
        """Return (scores, member attention weights gamma).

        ``item_ids`` is (B,) or (B, C) — C candidates per group row
        after one run of the voting rounds; scores have
        ``item_ids.shape`` and gamma one more axis of length L.
        """
        item_ids = np.asarray(item_ids, dtype=np.int64)
        columns = _candidate_columns(item_ids, len(batch))
        voted = self._voted_members(batch.members, batch.mask, batch.adjacency)
        scores, gamma = zip(
            *(self._group_item_half(voted, batch.mask, items) for items in columns)
        )
        return _join_columns(scores, item_ids.ndim), _join_columns(gamma, item_ids.ndim)

    # ------------------------------------------------------------------
    # Numpy conveniences (evaluation: no_grad + inference_mode, chunked).
    # The entity half is the Tensor code above, once per distinct entity;
    # the item half is the modules' plain-numpy twins, once per run of
    # rows that share an entity.  Item rows still come through
    # Embedding.forward, so a lazy optimizer's pending rows are caught up.
    # ------------------------------------------------------------------

    def _user_run(
        self,
        emb_user: np.ndarray,
        latent_user: Optional[np.ndarray],
        item_ids: np.ndarray,
    ) -> np.ndarray:
        """Item half of r^R for one user: Eqs. (22)-(23) over (n,) items."""
        if latent_user is None:
            return self.user_tower.score_items(
                emb_user, self.item_embedding(item_ids).data
            )
        latent = self.user_tower.score_items(
            latent_user, self.user_modeling.item_factor(item_ids).data
        )
        weight = self.config.blend_weight
        if weight == 1.0:
            return latent
        embedding = self._user_run(emb_user, None, item_ids)
        return embedding * (1.0 - weight) + latent * weight

    def _group_run(
        self, voted: np.ndarray, mask: np.ndarray, item_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Item half of r^G for one group: Eqs. (7)-(10), (20) over (n,) items."""
        items = self.item_embedding(item_ids).data
        representation, gamma = self.aggregation.aggregate_items(voted, items, mask)
        return self.group_tower.score_items(representation, items), gamma

    def score_user_items(
        self, user_ids: np.ndarray, item_ids: np.ndarray, chunk: int = 4096
    ) -> np.ndarray:
        """Evaluate r^R for aligned (user, item) arrays: user modeling once
        per distinct user, the item half once per user over all its rows
        (at most ``chunk`` at a time), wherever they sit in the arrays."""
        user_ids = np.asarray(user_ids, dtype=np.int64)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        out = np.empty(user_ids.size, dtype=self.user_embedding.weight.data.dtype)
        if user_ids.size == 0:
            return out
        users, rows, counts = np.unique(
            user_ids, return_inverse=True, return_counts=True
        )
        order = np.argsort(rows, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(counts)))
        stacked = _never_alone(users)
        with no_grad(), inference_mode():
            emb_user = self.user_embedding(stacked)
            latent_user = self._latent_user(emb_user, stacked)
            for index, (start, stop) in enumerate(zip(bounds, bounds[1:])):
                for low in range(start, stop, chunk):
                    where = order[low : min(low + chunk, stop)]
                    out[where] = self._user_run(
                        emb_user.data[index],
                        None if latent_user is None else latent_user.data[index],
                        item_ids[where],
                    )
        return out

    def _group_runs(
        self, batch: GroupBatch, item_ids: np.ndarray, chunk: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(scores (n,), gamma (n, L)) of a batch aligned with ``item_ids``
        or of one row against every item, evaluated run by run."""
        item_ids = np.asarray(item_ids, dtype=np.int64)
        members, mask, adjacency = batch.members, batch.mask, batch.adjacency
        if len(members) not in (1, len(item_ids)):
            raise ValueError(
                f"{len(members)} batch rows for {len(item_ids)} items; need 1 or equal"
            )
        dtype = self.user_embedding.weight.data.dtype
        scores = np.empty(item_ids.size, dtype=dtype)
        gamma = np.empty((item_ids.size, members.shape[1]), dtype=dtype)
        if item_ids.size == 0:
            return scores, gamma
        head = np.ones(len(members), dtype=bool)
        head[1:] = (
            (members[1:] != members[:-1]).any(axis=1)
            | (mask[1:] != mask[:-1]).any(axis=1)
            | (adjacency[1:] != adjacency[:-1]).any(axis=(1, 2))
        )
        heads = np.flatnonzero(head)
        bounds = np.append(heads, item_ids.size)
        picked = _never_alone(heads)
        with no_grad(), inference_mode():
            voted = self._voted_members(
                members[picked], mask[picked], adjacency[picked]
            ).data
            for index, (start, stop) in enumerate(zip(bounds, bounds[1:])):
                for low in range(start, stop, chunk):
                    rows = slice(low, min(low + chunk, stop))
                    scores[rows], gamma[rows] = self._group_run(
                        voted[index], mask[heads[index]], item_ids[rows]
                    )
        return scores, gamma

    def score_group_items(
        self, batch: GroupBatch, item_ids: np.ndarray, chunk: int = 1024
    ) -> np.ndarray:
        """Evaluate r^G for a batch aligned with ``item_ids``, or of one
        row scored against every item (numpy's broadcasting rule).

        The voting network and the item half run once per run of
        identical consecutive rows; a duplicate further apart is merely
        evaluated again.
        """
        return self._group_runs(batch, item_ids, chunk)[0]

    def member_attention(
        self, batch: GroupBatch, item_ids: np.ndarray
    ) -> np.ndarray:
        """The gamma weights of Eq. (10) — the case study's Table IV."""
        return self._group_runs(batch, item_ids, chunk=1024)[1]


def _candidate_columns(item_ids: np.ndarray, rows: int) -> Tuple[np.ndarray, ...]:
    """The C columns of (B, C) candidate ids; (B,) ids are their own one."""
    if item_ids.ndim not in (1, 2) or len(item_ids) != rows:
        raise ValueError(
            f"item_ids of shape {item_ids.shape} for {rows} entity rows; "
            f"need ({rows},) or ({rows}, C)"
        )
    return (item_ids,) if item_ids.ndim == 1 else tuple(item_ids.T)


def _join_columns(columns: Sequence[Tensor], ndim: int) -> Tensor:
    """Per-column results back in the rank the candidate ids came in."""
    return columns[0] if ndim == 1 else stack(columns, axis=1)


def _never_alone(ids: np.ndarray) -> np.ndarray:
    """Double a single id: numpy hands ``(1, d) @ (d, h)`` to a matrix-vector
    kernel whose last bits differ from the gemm every taller stack gets, so
    a lone entity's scores would depend on what else shares its call."""
    return np.repeat(ids, 2) if ids.size == 1 else ids
