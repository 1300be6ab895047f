"""The inference engine: batched Top-K serving over a trained GroupSA.

Sits between the model and :class:`repro.serving.RecommendationService`.
Three request kinds flow through one micro-batch queue:

- ``user`` — answered from the precomputed score-matrix cache
  (Section II-F fast path): a row fetch, an exclusion mask and a
  partition;
- ``group`` — dataset groups; each request is its one batch row scored
  against its candidates (``score_group_items``'s one-row form);
- ``adhoc`` — serving-time member lists; the padded batch structure is
  LRU-cached per frozen member tuple, scoring is vectorized over the
  candidate items.

All stages record into a shared :class:`Telemetry`; snapshots expose
per-stage latency, cache hit rates and batch occupancy.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.adhoc import build_adhoc_batch
from repro.core.groupsa import GroupSA
from repro.data.dataset import GroupRecommendationDataset
from repro.data.loaders import GroupBatch, GroupBatcher
from repro.engine.ann import IVFIndex
from repro.engine.batching import MicroBatcher
from repro.engine.score_cache import LRUCache, ScoreCache
from repro.engine.telemetry import Telemetry
from repro.engine.topk import exclusion_mask, topk_indices
from repro.obs.spans import span

TopK = Tuple[np.ndarray, np.ndarray]  # (item ids, scores), best first
VersionedTopK = Tuple[np.ndarray, np.ndarray, int]  # + model_version served


#: Legal values for :attr:`EngineConfig.retrieval`.
RETRIEVAL_MODES = ("exhaustive", "ann")


@dataclass
class EngineConfig:
    """Knobs for the inference engine.

    Attributes
    ----------
    max_batch_size:
        Requests coalesced into one flush at most.
    flush_interval:
        Seconds the worker waits for stragglers after the first request
        of a batch; ``0.0`` drains greedily without sleeping.
    score_block_rows:
        Users per score-cache block (residency granularity).
    score_cache_budget_mb:
        Resident score-cache budget in MiB; ``None`` keeps the whole
        user×item matrix.
    adhoc_cache_size:
        LRU capacity for ad-hoc group structures (frozen member tuples).
    warm_on_start:
        Precompute the score cache when the engine is constructed.
    retrieval:
        ``"exhaustive"`` (default) scores the full catalog per request,
        bit-identical to the pre-ANN engine.  ``"ann"`` generates a
        candidate set from an :class:`~repro.engine.ann.IVFIndex` over
        the item-embedding table and exact-reranks only those — per
        request cost O(nlist·d + candidates) instead of O(items), and
        no O(users × items) score matrix is materialized.
    ann_nlist:
        Inverted lists in the IVF coarse quantizer (None = ~sqrt(items)).
    ann_nprobe:
        Lists probed per query; the recall/latency dial.
    ann_candidates:
        Candidate-set size handed to the exact reranker.
    ann_seed:
        K-means seed; same seed + table => identical index.
    """

    max_batch_size: int = 64
    flush_interval: float = 0.0
    score_block_rows: int = 256
    score_cache_budget_mb: Optional[float] = None
    adhoc_cache_size: int = 128
    warm_on_start: bool = False
    retrieval: str = "exhaustive"
    ann_nlist: Optional[int] = None
    ann_nprobe: int = 8
    ann_candidates: int = 256
    ann_seed: int = 0


@dataclass(frozen=True)
class _AdhocEntry:
    """Cached serving structures for one frozen member tuple."""

    batch: GroupBatch  # single-row padded batch
    exclude: frozenset  # union of member interaction histories


@dataclass(frozen=True)
class _EngineState:
    """Everything a batch needs that changes on a model hot-swap.

    The worker captures ``engine._state`` exactly once per batch, so a
    concurrent :meth:`InferenceEngine.swap_model` (one reference
    assignment) can never hand a batch a model from one version and a
    score cache or ANN index from another — the whole bundle is
    immutable and swapped atomically.
    """

    version: int
    model: GroupSA
    score_cache: ScoreCache
    ann_index: Optional[IVFIndex]


class InferenceEngine:
    """Request-oriented batched inference over a trained model.

    Synchronous callers use :meth:`topk_user` / :meth:`topk_group` /
    :meth:`topk_members`; concurrent callers can hold the returned
    futures from the ``submit_*`` variants so their requests coalesce
    into shared forward passes.
    """

    def __init__(
        self,
        model: GroupSA,
        dataset: GroupRecommendationDataset,
        config: Optional[EngineConfig] = None,
        telemetry: Optional[Telemetry] = None,
        autostart: bool = True,
        model_version: int = 0,
    ) -> None:
        self.dataset = dataset
        self.config = config or EngineConfig()
        self.telemetry = telemetry or Telemetry()
        if self.config.retrieval not in ("exhaustive", "ann"):
            raise ValueError(
                f"unknown retrieval mode '{self.config.retrieval}' "
                "(choose 'exhaustive' or 'ann')"
            )
        ann_index: Optional[IVFIndex] = None
        if self.config.retrieval == "ann":
            with self.telemetry.time("ann.build"):
                ann_index = IVFIndex(
                    model.item_embedding.weight.data,
                    nlist=self.config.ann_nlist,
                    nprobe=self.config.ann_nprobe,
                    seed=self.config.ann_seed,
                )
        self._state = _EngineState(
            version=int(model_version),
            model=model,
            score_cache=self._build_score_cache(model, int(model_version)),
            ann_index=ann_index,
        )
        self.telemetry.registry.gauge("engine.model_version").set(
            int(model_version)
        )
        self._user_items = dataset.user_items()
        self._group_items = dataset.group_items()
        self._friend_sets = dataset.friend_set()
        self._batcher = GroupBatcher(dataset)
        self._adhoc_entries = LRUCache(
            capacity=self.config.adhoc_cache_size,
            telemetry=self.telemetry,
            name="adhoc_cache",
        )
        self._adhoc_lock = threading.Lock()
        self._batcher_queue = MicroBatcher(
            self._execute,
            max_batch_size=self.config.max_batch_size,
            flush_interval=self.config.flush_interval,
            telemetry=self.telemetry,
            autostart=autostart,
        )
        if self.config.warm_on_start:
            self.warm()

    def _build_score_cache(self, model: GroupSA, version: int) -> ScoreCache:
        budget = self.config.score_cache_budget_mb
        return ScoreCache(
            model.score_user_items,
            num_users=self.dataset.num_users,
            num_items=self.dataset.num_items,
            block_rows=self.config.score_block_rows,
            memory_budget_bytes=None if budget is None else int(budget * 2**20),
            telemetry=self.telemetry,
            model_version=version,
        )

    # -- hot-swap state -------------------------------------------------

    @property
    def model(self) -> GroupSA:
        return self._state.model

    @property
    def score_cache(self) -> ScoreCache:
        return self._state.score_cache

    @property
    def ann_index(self) -> Optional[IVFIndex]:
        return self._state.ann_index

    @property
    def model_version(self) -> int:
        return self._state.version

    def swap_model(
        self,
        model: GroupSA,
        version: Optional[int] = None,
        ann_index: Optional[IVFIndex] = None,
    ) -> int:
        """Atomically route all future batches to ``model``.

        Builds the new serving bundle (fresh version-keyed score cache,
        and — in ANN mode — a rebuilt IVF index unless a prebuilt
        ``ann_index`` is supplied) and then publishes it as a single
        reference assignment.  In-flight batches captured the previous
        bundle and finish on it; no request is dropped or blocked.

        Returns the new version (``version`` or previous + 1); versions
        must be strictly increasing.
        """
        old = self._state
        version = old.version + 1 if version is None else int(version)
        if version <= old.version:
            raise ValueError(
                f"model_version must increase: {version} <= {old.version}"
            )
        with self.telemetry.time("engine.swap"):
            with span("engine.swap", version=version):
                if self.config.retrieval == "ann" and ann_index is None:
                    with span("engine.swap.ann_rebuild"):
                        with self.telemetry.time("ann.build"):
                            table = model.item_embedding.weight.data
                            ann_index = (
                                old.ann_index.rebuild(table)
                                if old.ann_index is not None
                                else IVFIndex(
                                    table,
                                    nlist=self.config.ann_nlist,
                                    nprobe=self.config.ann_nprobe,
                                    seed=self.config.ann_seed,
                                )
                            )
                elif self.config.retrieval != "ann":
                    ann_index = None
                with span("engine.swap.score_cache", version=version):
                    cache = self._build_score_cache(model, version)
                with span("engine.swap.publish", version=version):
                    self._state = _EngineState(
                        version=version,
                        model=model,
                        score_cache=cache,
                        ann_index=ann_index,
                    )
                # Eagerly free the superseded blocks — in-flight batches
                # holding the old bundle recompute on demand (same model,
                # same version key), so this only costs them latency.
                old.score_cache.invalidate_version(old.version)
        self.telemetry.increment("engine.swaps")
        self.telemetry.registry.gauge("engine.model_version").set(version)
        return version

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Start the worker (no-op when ``autostart`` already did)."""
        self._batcher_queue.start()

    def close(self) -> None:
        self._batcher_queue.close()

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def warm(self, users: Optional[np.ndarray] = None) -> None:
        """Materialize score-cache blocks ahead of traffic."""
        self.score_cache.warm(users)

    def telemetry_snapshot(self) -> dict:
        return self.telemetry.snapshot()

    # -- submission -----------------------------------------------------

    def submit_user(
        self, user: int, k: int = 10, versioned: bool = False
    ) -> "Future[TopK]":
        user = int(user)
        if not 0 <= user < self.dataset.num_users:
            raise IndexError(
                f"user {user} out of range [0, {self.dataset.num_users})"
            )
        self._check_k(k)
        self.telemetry.increment("requests.user")
        return self._batcher_queue.submit(("user", user, k, bool(versioned)))

    def submit_group(
        self, group: int, k: int = 10, versioned: bool = False
    ) -> "Future[TopK]":
        group = int(group)
        if not 0 <= group < self.dataset.num_groups:
            raise IndexError(
                f"group {group} out of range [0, {self.dataset.num_groups})"
            )
        self._check_k(k)
        self.telemetry.increment("requests.group")
        return self._batcher_queue.submit(("group", group, k, bool(versioned)))

    def submit_members(
        self, members: Sequence[int], k: int = 10, versioned: bool = False
    ) -> "Future[TopK]":
        if len(members) == 0:
            raise ValueError("members must be a non-empty sequence of user ids")
        for member in members:
            if not 0 <= int(member) < self.dataset.num_users:
                raise IndexError(
                    f"member {int(member)} out of range [0, {self.dataset.num_users})"
                )
        self._check_k(k)
        self.telemetry.increment("requests.adhoc")
        key = self.canonical_members(members)
        return self._batcher_queue.submit(("adhoc", key, k, bool(versioned)))

    def topk_user(self, user: int, k: int = 10) -> TopK:
        with self.telemetry.time("engine.request"):
            with span("engine.submit", kind="user", user=int(user), k=k):
                return self.submit_user(user, k).result()

    def topk_group(self, group: int, k: int = 10) -> TopK:
        with self.telemetry.time("engine.request"):
            with span("engine.submit", kind="group", group=int(group), k=k):
                return self.submit_group(group, k).result()

    def topk_members(self, members: Sequence[int], k: int = 10) -> TopK:
        with self.telemetry.time("engine.request"):
            with span(
                "engine.submit", kind="adhoc", member_count=len(members), k=k
            ):
                return self.submit_members(members, k).result()

    # Versioned variants: same lists, plus the model version the batch
    # actually executed against (captured atomically with the scores).

    def topk_user_versioned(self, user: int, k: int = 10) -> VersionedTopK:
        with self.telemetry.time("engine.request"):
            with span("engine.submit", kind="user", user=int(user), k=k):
                return self.submit_user(user, k, versioned=True).result()

    def topk_group_versioned(self, group: int, k: int = 10) -> VersionedTopK:
        with self.telemetry.time("engine.request"):
            with span("engine.submit", kind="group", group=int(group), k=k):
                return self.submit_group(group, k, versioned=True).result()

    def topk_members_versioned(
        self, members: Sequence[int], k: int = 10
    ) -> VersionedTopK:
        with self.telemetry.time("engine.request"):
            with span(
                "engine.submit", kind="adhoc", member_count=len(members), k=k
            ):
                return self.submit_members(members, k, versioned=True).result()

    @staticmethod
    def canonical_members(members: Sequence[int]) -> Tuple[int, ...]:
        """Frozen cache key: duplicates collapsed, ascending order.

        Matches the member ordering
        :func:`repro.core.adhoc.build_adhoc_batch` produces via
        ``np.unique``, so gamma weights align with this tuple.
        """
        return tuple(int(m) for m in np.unique(np.asarray(members, dtype=np.int64)))

    @staticmethod
    def _check_k(k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")

    # -- execution (worker thread) -------------------------------------

    def _execute(self, payloads: Sequence[tuple]) -> List[TopK]:
        # One atomic read: every request in this batch is answered by a
        # single consistent (model, cache, index, version) bundle, even
        # if swap_model() publishes a new one mid-batch.
        state = self._state
        results: List[Optional[TopK]] = [None] * len(payloads)
        by_kind: Dict[str, List[int]] = {"user": [], "group": [], "adhoc": []}
        for index, payload in enumerate(payloads):
            by_kind[payload[0]].append(index)
        if by_kind["user"]:
            with self.telemetry.time("engine.user_stage"):
                with span("engine.user_stage", requests=len(by_kind["user"])):
                    self._execute_users(state, payloads, by_kind["user"], results)
        if by_kind["group"]:
            with self.telemetry.time("engine.group_stage"):
                with span("engine.group_stage", requests=len(by_kind["group"])):
                    self._execute_groups(state, payloads, by_kind["group"], results)
        if by_kind["adhoc"]:
            with self.telemetry.time("engine.adhoc_stage"):
                with span("engine.adhoc_stage", requests=len(by_kind["adhoc"])):
                    self._execute_adhoc(state, payloads, by_kind["adhoc"], results)
        return [
            result + (state.version,) if payload[3] else result
            for payload, result in zip(payloads, results)
        ]  # type: ignore[return-value]

    # -- ANN candidate generation --------------------------------------

    @staticmethod
    def _user_query(state: _EngineState, user: int) -> np.ndarray:
        """ANN query vector for a user: their embedding row."""
        return np.asarray(
            state.model.user_embedding.weight.data[user], dtype=np.float64
        )

    @staticmethod
    def _members_query(state: _EngineState, members: Sequence[int]) -> np.ndarray:
        """ANN query for a member set: the mean member embedding — the
        Section II-F fast path collapsed into embedding space, so one
        item index serves group and ad-hoc traffic too."""
        rows = np.asarray(
            state.model.user_embedding.weight.data[
                np.asarray(members, dtype=np.int64)
            ],
            dtype=np.float64,
        )
        return rows.mean(axis=0)

    def _ann_candidates(
        self,
        state: _EngineState,
        query: np.ndarray,
        mask: Optional[np.ndarray],
        k: int,
    ) -> np.ndarray:
        """Candidate item ids (ascending) for one query, never excluded."""
        candidates = state.ann_index.candidates(
            query,
            self.config.ann_candidates,
            exclude_mask=mask,
            min_results=k,
        )
        self.telemetry.increment("ann.queries")
        self.telemetry.increment("ann.candidates", int(candidates.size))
        return candidates

    # -- per-kind stages ------------------------------------------------

    def _execute_users(
        self,
        state: _EngineState,
        payloads: Sequence[tuple],
        indices: List[int],
        results: List,
    ) -> None:
        if state.ann_index is not None:
            self._execute_users_ann(state, payloads, indices, results)
            return
        users = np.array([payloads[i][1] for i in indices], dtype=np.int64)
        rows = state.score_cache.scores_for_users(users)
        with span("topk", requests=len(indices)):
            for row, index in zip(rows, indices):
                __, user, k, __v = payloads[index]
                mask = exclusion_mask(self.dataset.num_items, self._user_items[user])
                items = topk_indices(row, k, mask)
                results[index] = (items, row[items])

    def _execute_users_ann(
        self,
        state: _EngineState,
        payloads: Sequence[tuple],
        indices: List[int],
        results: List,
    ) -> None:
        # Candidate generation per request, then one concatenated exact
        # scoring pass over every request's candidates.
        candidate_sets: List[np.ndarray] = []
        user_chunks: List[np.ndarray] = []
        with span("ann.candidates", requests=len(indices)):
            for index in indices:
                __, user, k, __v = payloads[index]
                mask = exclusion_mask(
                    self.dataset.num_items, self._user_items[user]
                )
                candidates = self._ann_candidates(
                    state, self._user_query(state, user), mask, k
                )
                candidate_sets.append(candidates)
                user_chunks.append(np.full(candidates.size, user, dtype=np.int64))
        users_flat = np.concatenate(user_chunks)
        items_flat = np.concatenate(candidate_sets)
        with span("forward", rows=int(items_flat.size), requests=len(indices)):
            scores_flat = state.model.score_user_items(users_flat, items_flat)
        with span("topk", requests=len(indices)):
            offset = 0
            for index, candidates in zip(indices, candidate_sets):
                __, __u, k, __v = payloads[index]
                scores = scores_flat[offset : offset + candidates.size]
                offset += candidates.size
                chosen = topk_indices(scores, k)
                results[index] = (candidates[chosen], scores[chosen])

    def _execute_groups(
        self,
        state: _EngineState,
        payloads: Sequence[tuple],
        indices: List[int],
        results: List,
    ) -> None:
        for index in indices:
            __, group, k, __v = payloads[index]
            results[index] = self._rank_one_row(
                state,
                self._batcher.batch([group]),
                self.dataset.group_members[group],
                self._group_items[group],
                k,
            )

    def _execute_adhoc(
        self,
        state: _EngineState,
        payloads: Sequence[tuple],
        indices: List[int],
        results: List,
    ) -> None:
        for index in indices:
            __, key, k, __v = payloads[index]
            with span("adhoc_cache.lookup", member_count=len(key)) as lookup:
                entry, cached = self._adhoc_entry(key)
                if lookup is not None:
                    lookup.set_attr("hit", cached)
            results[index] = self._rank_one_row(
                state, entry.batch, key, entry.exclude, k
            )

    def _rank_one_row(
        self,
        state: _EngineState,
        batch: GroupBatch,
        members: Sequence[int],
        exclude,
        k: int,
    ) -> TopK:
        """Top-K of a one-row batch (dataset group or ad-hoc) against its
        candidates: every unexcluded item, or the ANN index's."""
        mask = exclusion_mask(self.dataset.num_items, exclude)
        if state.ann_index is not None:
            candidates = self._ann_candidates(
                state, self._members_query(state, members), mask, k
            )
        elif mask is not None:
            candidates = np.nonzero(~mask)[0]
        else:
            candidates = np.arange(self.dataset.num_items, dtype=np.int64)
        with span(
            "forward", member_count=len(members), candidates=int(candidates.size)
        ):
            scores = state.model.score_group_items(batch, candidates)
        with span("topk"):
            chosen = topk_indices(scores, k)
        return candidates[chosen], scores[chosen]

    def _adhoc_entry(self, key: Tuple[int, ...]) -> Tuple[_AdhocEntry, bool]:
        """The cached entry for ``key`` plus whether it was a cache hit."""
        entry = self._adhoc_entries.get(key)
        if entry is not None:
            return entry, True
        with self._adhoc_lock:
            entry = self._adhoc_entries.peek(key)
            if entry is None:
                with self.telemetry.time("engine.adhoc_build"):
                    with span("engine.adhoc_build", member_count=len(key)):
                        batch = build_adhoc_batch([list(key)], self._friend_sets)
                        exclude: set = set()
                        for member in key:
                            exclude |= self._user_items[member]
                        entry = _AdhocEntry(batch=batch, exclude=frozenset(exclude))
                self._adhoc_entries.put(key, entry)
        return entry, False
