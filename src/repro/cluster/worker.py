"""Shard worker: one process, one or more item slices, the Top-K kernel.

A worker attaches the shared weight store (read-only memmap — no table
copy), loads the dataset for exclusion sets and group membership, and
answers scatter requests over a multiprocessing pipe.  Every request
kind reduces to the same loop the single-process engine runs — score a
set of candidate items, run :func:`repro.engine.topk.topk_indices` —
restricted to the items the worker's shards own.  Replies carry
*global* item ids, so the router's merge never touches the local index
space.

Because a shard's owned items are listed in ascending global order,
``topk_indices``'s tie-break (ascending position) is exactly ascending
global item id within the shard; a worker hosting several shards folds
them together with the same exact merge the router uses, so however
shards are assigned to workers the final list is bit-identical to a
single-process Top-K.

:class:`ShardScorer` holds the in-process scoring logic for one shard
and is used directly by tests; :func:`worker_main` is the process
entry point wrapping scorers in the pipe protocol and a per-worker
:class:`~repro.obs.metrics_registry.MetricsRegistry` whose lossless
snapshots the router merges fleet-wide.

Wire protocol (parent → worker, tuples)::

    ("score", req_id, kind, payload, k)   kind in {user, group, adhoc}
    ("score", req_id, kind, payload, k, trace_ctx)   traced variant
    ("swap", req_id, store_dir, model_version)
    ("metrics", req_id)
    ("ping", req_id)
    ("stop",)

and worker → parent::

    ("ok", req_id, global_item_ids, scores, model_version)
    ("ok", req_id, global_item_ids, scores, model_version, spans)
    ("swapped", req_id, worker_id, model_version)
    ("error", req_id, exception_type_name, message)
    ("metrics", req_id, registry_state)
    ("pong", req_id, worker_id)

Distributed tracing rides the two extended arities: when the router's
request runs under an installed :class:`~repro.obs.spans.Tracer`, the
score message carries a sixth element — the parent trace context
(trace id, span id, wall-clock send timestamp) — and the reply carries
the worker-side child spans (queue wait, per-shard candidate
generation / forward / Top-K kernel, merge contribution) serialized by
a :class:`~repro.obs.spans.RemoteSpanRecorder`.  With tracing off both
sides send exactly the pre-tracing 5-tuples, so the disabled path
pickles byte-identical messages (guarded by
``benchmarks/test_bench_cluster_trace.py``).

The ``swap`` op re-attaches the worker to a new versioned weight-store
directory and rebuilds its scorers (including per-shard IVF indexes)
against the new tables; requests arriving after the ``swapped`` reply
are served by the new model.  A swap failure leaves the old scorers
serving and reports ``error`` — the router then falls back to a
restart against the new store.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cluster.merge import merge_topk
from repro.cluster.plan import ShardPlan
from repro.cluster.weights import attach_shared_model
from repro.core.adhoc import build_adhoc_batch
from repro.data.io import load_dataset
from repro.data.loaders import GroupBatcher
from repro.engine.ann import IVFIndex, default_nlist
from repro.engine.topk import exclusion_mask, topk_indices
from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.spans import RemoteSpanRecorder

TopK = Tuple[np.ndarray, np.ndarray]  # (global item ids, scores), best first


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to boot, picklable for spawn.

    ``retrieval``/``ann_*`` mirror the single-process
    :class:`~repro.engine.service.EngineConfig` knobs; with
    ``retrieval="ann"`` each scorer builds an IVF index over *its own*
    item slice, so candidate generation shards along with scoring and
    the router's merge stays untouched.
    """

    worker_id: int
    shards: Tuple[int, ...]
    plan: ShardPlan
    store_dir: str
    dataset_path: str
    retrieval: str = "exhaustive"
    ann_nlist: Optional[int] = None
    ann_nprobe: int = 8
    ann_candidates: int = 256
    ann_seed: int = 0
    #: Version of the store at ``store_dir``; replies echo the version
    #: actually served so the router can stamp merged results.
    model_version: int = 0


class ShardScorer:
    """Scores one shard's item slice for user/group/ad-hoc requests.

    ``model`` and ``dataset`` are shared across a worker's scorers (and
    may be plain in-memory objects in tests — nothing here requires the
    mmap-backed store).

    With ``retrieval="ann"`` the scorer owns an
    :class:`~repro.engine.ann.IVFIndex` over just its item slice; ANN
    candidates come back as ascending local positions, which map
    through ``owned`` to ascending *global* ids — so the exact-rerank
    tie contract (descending score, ascending global id) survives both
    the shard boundary and the router's merge.
    """

    def __init__(
        self,
        shard: int,
        plan: ShardPlan,
        model,
        dataset,
        retrieval: str = "exhaustive",
        ann_nlist: Optional[int] = None,
        ann_nprobe: int = 8,
        ann_candidates: int = 256,
        ann_seed: int = 0,
    ) -> None:
        if dataset.num_items != plan.num_items:
            raise ValueError(
                f"plan covers {plan.num_items} items but the dataset "
                f"has {dataset.num_items}"
            )
        if retrieval not in ("exhaustive", "ann"):
            raise ValueError(
                f"unknown retrieval mode '{retrieval}' "
                "(choose 'exhaustive' or 'ann')"
            )
        self.shard = shard
        self.plan = plan
        self.model = model
        self.dataset = dataset
        #: Owned global item ids, ascending — local index i is owned[i].
        self.owned = plan.global_items(shard)
        self._user_items = dataset.user_items()
        self._group_items = dataset.group_items()
        self._friend_sets = dataset.friend_set()
        self._batcher = GroupBatcher(dataset)
        self.ann_candidates = int(ann_candidates)
        #: Per-request remote-span recorder; set for the duration of one
        #: traced ``score()`` call (workers serve requests one at a time).
        self._recorder: Optional[RemoteSpanRecorder] = None
        self.ann_index: Optional[IVFIndex] = None
        if retrieval == "ann" and self.owned.size > 0:
            # nlist is clamped to the slice: a small shard cannot host
            # more lists than items.
            nlist = default_nlist(self.owned.size) if ann_nlist is None else ann_nlist
            self.ann_index = IVFIndex(
                np.asarray(model.item_embedding.weight.data)[self.owned],
                nlist=min(int(nlist), self.owned.size),
                nprobe=ann_nprobe,
                seed=ann_seed,
            )

    def score(
        self, kind: str, payload, k: int, recorder: Optional[RemoteSpanRecorder] = None
    ) -> TopK:
        """Local Top-K (global ids) for one scatter request."""
        self._recorder = recorder
        try:
            if kind == "user":
                return self._score_user(int(payload), k)
            if kind == "group":
                return self._score_group(int(payload), k)
            if kind == "adhoc":
                return self._score_adhoc(tuple(int(m) for m in payload), k)
            raise ValueError(f"unknown request kind '{kind}'")
        finally:
            self._recorder = None

    # -- per-kind scoring ------------------------------------------------

    def _phase(self, name: str, **attrs):
        """Span context for one scoring phase; no-op when untraced."""
        recorder = self._recorder
        if recorder is None:
            return nullcontext()
        attrs.setdefault("shard", self.shard)
        return recorder.span(name, **attrs)

    def _local_mask(self, exclude) -> Optional[np.ndarray]:
        """This shard's slice of the global exclusion mask."""
        mask = exclusion_mask(self.dataset.num_items, exclude)
        return None if mask is None else mask[self.owned]

    def _user_query(self, user: int) -> np.ndarray:
        return np.asarray(
            self.model.user_embedding.weight.data[user], dtype=np.float64
        )

    def _members_query(self, members) -> np.ndarray:
        """Mean member embedding — the Section II-F group fast path."""
        return np.asarray(
            self.model.user_embedding.weight.data[
                np.asarray(members, dtype=np.int64)
            ],
            dtype=np.float64,
        ).mean(axis=0)

    def _score_user(self, user: int, k: int) -> TopK:
        if self.owned.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        if self.ann_index is not None:
            candidates = self._candidates(
                self._user_items[user], self._user_query(user), k
            )
            if candidates.size == 0:
                return np.empty(0, dtype=np.int64), np.empty(0)
            with self._phase("shard.forward", candidates=int(candidates.size)):
                scores = self.model.score_user_items(
                    np.full(candidates.size, user, dtype=np.int64), candidates
                )
            with self._phase("shard.topk"):
                chosen = topk_indices(scores, k)
            return candidates[chosen], scores[chosen]
        with self._phase("shard.forward", candidates=int(self.owned.size)):
            scores = self.model.score_user_items(
                np.full(self.owned.size, user, dtype=np.int64), self.owned
            )
        with self._phase("shard.topk"):
            chosen = topk_indices(
                scores, k, self._local_mask(self._user_items[user])
            )
        return self.owned[chosen], scores[chosen]

    def _score_group(self, group: int, k: int) -> TopK:
        query = None
        if self.ann_index is not None:
            query = self._members_query(self.dataset.group_members[group])
        candidates = self._candidates(self._group_items[group], query, k)
        if candidates.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        with self._phase("shard.forward", candidates=int(candidates.size)):
            scores = self.model.score_group_items(
                self._batcher.batch([group]), candidates
            )
        with self._phase("shard.topk"):
            chosen = topk_indices(scores, k)
        return candidates[chosen], scores[chosen]

    def _score_adhoc(self, members: Tuple[int, ...], k: int) -> TopK:
        single = build_adhoc_batch([list(members)], self._friend_sets)
        exclude: set = set()
        for member in members:
            exclude |= self._user_items[member]
        query = self._members_query(members) if self.ann_index is not None else None
        candidates = self._candidates(exclude, query, k)
        if candidates.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        with self._phase("shard.forward", candidates=int(candidates.size)):
            scores = self.model.score_group_items(single, candidates)
        with self._phase("shard.topk"):
            chosen = topk_indices(scores, k)
        return candidates[chosen], scores[chosen]

    def _candidates(
        self, exclude, query: Optional[np.ndarray] = None, k: int = 0
    ) -> np.ndarray:
        """Valid global candidate ids, ascending.

        Exhaustive: all owned items minus exclusions.  ANN: the index's
        candidate positions (ascending local), mapped through ``owned``
        — ascending local positions over an ascending ``owned`` array
        yield ascending global ids, preserving the rerank tie contract.
        """
        with self._phase("shard.candidates", ann=self.ann_index is not None):
            mask = self._local_mask(exclude)
            if self.ann_index is not None and query is not None:
                local = self.ann_index.candidates(
                    query, self.ann_candidates, exclude_mask=mask, min_results=k
                )
                return self.owned[local]
            if mask is None:
                return self.owned
            return self.owned[~mask]


def _build_scorers(spec: WorkerSpec, store_dir: str, dataset) -> list:
    """Attach ``store_dir`` and rebuild every shard scorer against it."""
    model = attach_shared_model(store_dir)
    return [
        ShardScorer(
            shard,
            spec.plan,
            model,
            dataset,
            retrieval=spec.retrieval,
            ann_nlist=spec.ann_nlist,
            ann_nprobe=spec.ann_nprobe,
            ann_candidates=spec.ann_candidates,
            ann_seed=spec.ann_seed,
        )
        for shard in spec.shards
    ]


def worker_main(conn, spec: WorkerSpec) -> None:
    """Process entry point: serve scatter requests until ``stop``/EOF."""
    registry = MetricsRegistry()
    try:
        dataset = load_dataset(spec.dataset_path)
        scorers = _build_scorers(spec, spec.store_dir, dataset)
        model_version = int(spec.model_version)
    except BaseException as error:  # boot failure: report, then bail
        try:
            conn.send(("error", -1, type(error).__name__, str(error)))
        finally:
            conn.close()
        return
    owned_items = sum(scorer.owned.size for scorer in scorers)
    registry.gauge("shard.items").set(float(owned_items))
    registry.gauge("shard.count").set(float(len(scorers)))
    registry.gauge("shard.model_version").set(float(model_version))
    latency = registry.histogram("shard.request")
    swap_latency = registry.histogram("shard.swap")
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            op = message[0]
            if op == "stop":
                break
            if op == "ping":
                conn.send(("pong", message[1], spec.worker_id))
                continue
            if op == "metrics":
                conn.send(("metrics", message[1], registry.state()))
                continue
            if op == "swap":
                __, req_id, store_dir, new_version = message
                start = time.perf_counter()
                try:
                    # Build against the new store first; the old scorers
                    # keep serving if anything goes wrong.
                    fresh = _build_scorers(spec, str(store_dir), dataset)
                except BaseException as error:
                    registry.counter("shard.swap_errors").inc()
                    conn.send(("error", req_id, type(error).__name__, str(error)))
                    continue
                scorers = fresh
                model_version = int(new_version)
                swap_latency.observe(time.perf_counter() - start)
                registry.counter("shard.swaps").inc()
                registry.gauge("shard.model_version").set(float(model_version))
                conn.send(("swapped", req_id, spec.worker_id, model_version))
                continue
            if op == "score":
                if len(message) > 5:
                    __, req_id, kind, payload, k, trace = message
                    recorder = RemoteSpanRecorder()
                    received = time.time()
                    sent = float(trace.get("sent_ts", received))
                    recorder.record(
                        "worker.queue_wait",
                        sent,
                        max(0.0, received - sent),
                        worker=spec.worker_id,
                        proc=f"worker-{spec.worker_id}",
                    )
                else:
                    __, req_id, kind, payload, k = message
                    recorder = None
                start = time.perf_counter()
                try:
                    if recorder is not None:
                        with recorder.span(
                            "worker.score",
                            worker=spec.worker_id,
                            kind=str(kind),
                            proc=f"worker-{spec.worker_id}",
                        ):
                            parts = []
                            for scorer in scorers:
                                with recorder.span("shard.score", shard=scorer.shard):
                                    parts.append(
                                        scorer.score(
                                            kind, payload, int(k), recorder=recorder
                                        )
                                    )
                            with recorder.span("worker.merge", parts=len(parts)):
                                items, scores = merge_topk(parts, int(k))
                    else:
                        parts = [
                            scorer.score(kind, payload, int(k)) for scorer in scorers
                        ]
                        items, scores = merge_topk(parts, int(k))
                except BaseException as error:
                    registry.counter("shard.errors").inc()
                    conn.send(("error", req_id, type(error).__name__, str(error)))
                    continue
                latency.observe(time.perf_counter() - start)
                registry.counter(f"shard.requests.{kind}").inc()
                if recorder is not None:
                    conn.send(
                        ("ok", req_id, items, scores, model_version, recorder.payload())
                    )
                else:
                    conn.send(("ok", req_id, items, scores, model_version))
                continue
            conn.send(("error", message[1] if len(message) > 1 else -1,
                       "ValueError", f"unknown op '{op}'"))
    finally:
        conn.close()
