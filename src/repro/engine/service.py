"""The inference engine: batched Top-K serving over a trained GroupSA.

Sits between the model and :class:`repro.serving.RecommendationService`.
Ranking is the scoring core's (:mod:`repro.engine.scorer`, over the whole
catalog); the engine is the queue and the row cache around it.  Three
request kinds flow through one micro-batch queue:

- ``user`` — answered from the precomputed score-matrix cache
  (Section II-F fast path): a row fetch, an exclusion mask and a
  partition; in ANN mode the flush's requests share one scoring pass
  over their candidates instead;
- ``group`` — dataset groups; each request is its one batch row scored
  against its candidates (``score_group_items``'s one-row form);
- ``adhoc`` — serving-time member lists; the padded batch structure is
  the caller's or built per request, scoring is vectorized over the
  candidate items.

Every stage records into the engine's one
:class:`~repro.obs.metrics_registry.MetricsRegistry` (latencies under
``stage.<name>`` in seconds, counters, ``batch.occupancy``);
:func:`telemetry_snapshot` reads it as per-stage latency, cache hit
rates and batch occupancy.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.groupsa import GroupSA
from repro.engine.ann import IVFIndex
from repro.engine.batching import MicroBatcher
from repro.engine.score_cache import ScoreCache
from repro.engine.scorer import (
    RequestViews,
    Scorer,
    TopK,
    VersionedTopK,
    canonical_members,
    check_retrieval,
)
from repro.obs.metrics_registry import Histogram, MetricsRegistry
from repro.obs.spans import span

_STAGE = "stage."


def telemetry_snapshot(registry: MetricsRegistry) -> dict:
    """JSON-ready view of an engine registry: ``stages`` (latency
    summaries in ms), ``counters``, ``rates`` (a ``<name>.hit_rate`` per
    ``<name>.hit`` / ``.miss`` pair with traffic) and ``batches``."""
    stages = {
        name[len(_STAGE):]: {
            "count": histogram.count,
            "mean_ms": histogram.mean() * 1e3,
            "p50_ms": histogram.percentile(50) * 1e3,
            "p90_ms": histogram.percentile(90) * 1e3,
            "p99_ms": histogram.percentile(99) * 1e3,
            "max_ms": histogram.max * 1e3,
        }
        for name, histogram in registry.histograms().items()
        if name.startswith(_STAGE)
    }
    counters = {name: counter.value for name, counter in registry.counters().items()}
    rates = {}
    for name, hits in counters.items():
        if name.endswith(".hit"):
            base = name[: -len(".hit")]
            total = hits + counters.get(base + ".miss", 0)
            if total:
                rates[base + ".hit_rate"] = hits / total
    occupancy = registry.histograms().get("batch.occupancy") or Histogram("empty")
    return {
        "stages": stages,
        "counters": counters,
        "rates": rates,
        "batches": {
            "count": occupancy.count,
            "mean_occupancy": occupancy.mean(),
            "max_occupancy": occupancy.max,
        },
    }


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
        Users per score-cache block: the unit of residency and
        eviction.  A miss scores only the requested rows, not the
        block; ``warm`` fills whole blocks.
    score_cache_budget_mb:
        Resident score-cache budget in MiB; ``None`` keeps the whole
        user×item matrix.
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
    retrieval: str = "exhaustive"
    ann_nlist: Optional[int] = None
    ann_nprobe: int = 8
    ann_candidates: int = 256
    ann_seed: int = 0


@dataclass(frozen=True)
class _EngineState:
    """Everything a batch needs that changes on a model hot-swap.

    The worker captures ``engine._state`` exactly once per batch, so a
    concurrent :meth:`InferenceEngine.swap_model` (one reference
    assignment) can never hand a batch a model from one version and a
    score cache or ANN index from another — the whole bundle is
    immutable and swapped atomically (the scorer carries the model, the
    version and the index).
    """

    scorer: Scorer
    score_cache: ScoreCache


class InferenceEngine:
    """Request-oriented batched inference over a trained model.

    :meth:`submit` / :meth:`topk` take any request kind; the named
    ``submit_*`` / ``topk_*`` / ``topk_*_versioned`` methods forward to
    them.  Concurrent callers can hold the futures ``submit`` returns so
    their requests coalesce into shared forward passes.
    """

    def __init__(
        self,
        model: GroupSA,
        dataset,
        config: Optional[EngineConfig] = None,
        autostart: bool = True,
        model_version: int = 0,
    ) -> None:
        self.config = config or EngineConfig()
        self.registry = MetricsRegistry()
        check_retrieval(self.config.retrieval)
        self.views = RequestViews.of(dataset)
        ann_index: Optional[IVFIndex] = None
        if self.config.retrieval == "ann":
            start = time.perf_counter()
            ann_index = IVFIndex(
                model.item_embedding.weight.data,
                nlist=self.config.ann_nlist,
                nprobe=self.config.ann_nprobe,
                seed=self.config.ann_seed,
            )
            self.registry.histogram("stage.ann.build").observe(
                time.perf_counter() - start
            )
        self._state = self._build_state(model, int(model_version), ann_index)
        self.registry.gauge("engine.model_version").set(int(model_version))
        self._batcher_queue = MicroBatcher(
            self._execute,
            max_batch_size=self.config.max_batch_size,
            flush_interval=self.config.flush_interval,
            registry=self.registry,
            autostart=autostart,
        )

    def _build_state(
        self, model: GroupSA, version: int, ann_index: Optional[IVFIndex]
    ) -> _EngineState:
        """The serving bundle of ``model``: a size-checked scorer over
        the whole catalog and an empty score cache of its own."""
        scorer = Scorer(
            model,
            self.views,
            version,
            ann_index=ann_index,
            ann_candidates=self.config.ann_candidates,
            registry=self.registry,
        )
        budget = self.config.score_cache_budget_mb
        cache = ScoreCache(
            model.score_user_items,
            num_users=self.views.num_users,
            num_items=self.views.num_items,
            block_rows=self.config.score_block_rows,
            memory_budget_bytes=None if budget is None else int(budget * 2**20),
            registry=self.registry,
        )
        return _EngineState(scorer, cache)

    # -- hot-swap state -------------------------------------------------

    @property
    def model(self) -> GroupSA:
        return self._state.scorer.model

    @property
    def score_cache(self) -> ScoreCache:
        return self._state.score_cache

    @property
    def ann_index(self) -> Optional[IVFIndex]:
        return self._state.scorer.ann_index

    @property
    def model_version(self) -> int:
        return self._state.scorer.version

    def swap_model(self, model: GroupSA, version: Optional[int] = None) -> int:
        """Atomically route all future batches to ``model``.

        Builds the new serving bundle (fresh score cache and, in ANN
        mode, a rebuilt IVF index) and then publishes it as a single
        reference assignment.  In-flight batches captured the previous
        bundle and finish on it; no request is dropped or blocked.  A
        model whose table sizes do not match the dataset is rejected
        with ``ValueError`` and the previous bundle keeps serving.

        Returns the new version (``version`` or previous + 1); versions
        must be strictly increasing.
        """
        old = self._state
        version = old.scorer.version + 1 if version is None else int(version)
        if version <= old.scorer.version:
            raise ValueError(
                f"model_version must increase: {version} <= {old.scorer.version}"
            )
        start = time.perf_counter()
        try:
            with span("engine.swap", version=version):
                ann_index = None
                if self.config.retrieval == "ann":
                    with span("engine.swap.ann_rebuild"):
                        rebuild_start = time.perf_counter()
                        ann_index = old.scorer.ann_index.rebuild(
                            model.item_embedding.weight.data
                        )
                        self.registry.histogram("stage.ann.build").observe(
                            time.perf_counter() - rebuild_start
                        )
                with span("engine.swap.score_cache", version=version):
                    state = self._build_state(model, version, ann_index)
                with span("engine.swap.publish", version=version):
                    self._state = state
        finally:
            # A rejected model is timed too, but only a swap counts.
            self.registry.histogram("stage.engine.swap").observe(
                time.perf_counter() - start
            )
        self.registry.counter("engine.swaps").inc()
        self.registry.gauge("engine.model_version").set(version)
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
        """Fill every row of the score-cache blocks covering ``users``
        (default: all) ahead of traffic."""
        self.score_cache.warm(users)

    def telemetry_snapshot(self) -> dict:
        return telemetry_snapshot(self.registry)

    # -- submission -----------------------------------------------------

    def submit(
        self, kind: str, arg, k: int = 10, versioned: bool = False, adhoc=None
    ) -> "Future[TopK]":
        """Validate and queue one ``user`` / ``group`` / ``adhoc`` request;
        resolves to its :data:`TopK`, plus the version and the model that
        ranked it if ``versioned``.
        ``adhoc`` is :meth:`RequestViews.adhoc` of the members when the
        caller holds it; without it the batch is built at ranking time."""
        payload = self.views.check(kind, arg, k)
        self.registry.counter(f"requests.{kind}").inc()
        return self._batcher_queue.submit((kind, payload, k, bool(versioned), adhoc))

    def topk(self, kind: str, arg, k: int = 10, versioned: bool = False, adhoc=None):
        """:meth:`submit` and wait.  ``versioned`` appends the model
        version the batch actually executed against and that model
        (captured atomically with the scores)."""
        attrs = {"member_count": len(arg)} if kind == "adhoc" else {kind: int(arg)}
        start = time.perf_counter()
        try:
            with span("engine.submit", kind=kind, k=k, **attrs):
                return self.submit(kind, arg, k, versioned, adhoc).result()
        finally:
            self.registry.histogram("stage.engine.request").observe(
                time.perf_counter() - start
            )

    def submit_user(self, user: int, k: int = 10, versioned: bool = False):
        return self.submit("user", user, k, versioned)

    def submit_group(self, group: int, k: int = 10, versioned: bool = False):
        return self.submit("group", group, k, versioned)

    def submit_members(
        self, members: Sequence[int], k: int = 10, versioned: bool = False
    ):
        return self.submit("adhoc", members, k, versioned)

    def topk_user(self, user: int, k: int = 10) -> TopK:
        return self.topk("user", user, k)

    def topk_group(self, group: int, k: int = 10) -> TopK:
        return self.topk("group", group, k)

    def topk_members(self, members: Sequence[int], k: int = 10) -> TopK:
        return self.topk("adhoc", members, k)

    def topk_user_versioned(self, user: int, k: int = 10) -> VersionedTopK:
        return self.topk("user", user, k, versioned=True)[:3]

    def topk_group_versioned(self, group: int, k: int = 10) -> VersionedTopK:
        return self.topk("group", group, k, versioned=True)[:3]

    def topk_members_versioned(
        self, members: Sequence[int], k: int = 10
    ) -> VersionedTopK:
        return self.topk("adhoc", members, k, versioned=True)[:3]

    canonical_members = staticmethod(canonical_members)

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
        for kind, indices in by_kind.items():
            if not indices:
                continue
            start = time.perf_counter()
            with span(f"engine.{kind}_stage", requests=len(indices)):
                ranked = self._rank(state, kind, [payloads[i] for i in indices])
            self.registry.histogram(f"stage.engine.{kind}_stage").observe(
                time.perf_counter() - start
            )
            for index, result in zip(indices, ranked):
                results[index] = result
        served = (state.scorer.version, state.scorer.model)
        return [
            result + served if payload[3] else result
            for payload, result in zip(payloads, results)
        ]  # type: ignore[return-value]

    def _rank(
        self, state: _EngineState, kind: str, payloads: Sequence[tuple]
    ) -> List[TopK]:
        """One stage: the flush's requests of ``kind`` through the core."""
        scorer = state.scorer
        if kind != "user":
            return [
                scorer.rank(kind, arg, k, phase=span, adhoc=adhoc)
                for __, arg, k, __v, adhoc in payloads
            ]
        # One list: exhaustive requests with their cached rows (one fetch
        # for the flush), ANN requests to share one scoring pass.
        requests = [payload[1:3] for payload in payloads]
        rows = None
        if scorer.ann_index is None:
            rows = state.score_cache.scores_for_users(
                np.array([user for user, __ in requests], dtype=np.int64)
            )
        return scorer.rank_users(requests, rows=rows, phase=span)
