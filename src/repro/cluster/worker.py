"""Shard worker: one process, one or more item slices, the Top-K kernel.

A worker attaches the shared weight store (read-only memmap — no table
copy), loads the dataset for exclusion sets and group membership, and
answers scatter requests over a multiprocessing pipe.  Every request
kind is the loop every serving mode runs — the scoring core of
:mod:`repro.engine.scorer`: candidates, model scores, Top-K —
restricted to the items the worker's shards own.  Replies carry
*global* item ids, so the router's merge never touches the local index
space.

The core breaks ties by ascending global item id within a slice; a
worker hosting several shards folds them together with the same exact
merge the router uses, so however shards are assigned to workers the
final list is bit-identical to a single-process Top-K.

:class:`ShardScorer` is the core bound to one shard's slice and is
used directly by tests; :func:`worker_main` is the process entry point
wrapping scorers in the pipe protocol and a per-worker
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
``tests/cluster/test_distributed_tracing.py::TestWireFormat``).

The ``swap`` op re-attaches the worker to a new versioned weight-store
directory and rebuilds its scorers (including per-shard IVF indexes)
against the new tables; requests arriving after the ``swapped`` reply
are served by the new model.  A swap failure leaves the old scorers
serving and reports ``error`` — the router then falls back to a
restart against the new store.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cluster.merge import merge_topk
from repro.cluster.plan import ShardPlan
from repro.cluster.weights import attach_shared_model
from repro.data.io import load_dataset
from repro.engine.ann import IVFIndex, default_nlist
from repro.engine.scorer import RequestViews, Scorer, TopK, check_retrieval, no_phase
from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.spans import RemoteSpanRecorder


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


class ShardScorer(Scorer):
    """The scoring core over one shard's item slice.

    ``model`` and ``dataset`` are shared across a worker's scorers (and
    may be plain in-memory objects in tests — nothing here requires the
    mmap-backed store); ``dataset`` may be the process's
    :class:`~repro.engine.scorer.RequestViews`, so the dataset-side
    state is built once however many scorers and versions use it.

    With ``retrieval="ann"`` the scorer owns an
    :class:`~repro.engine.ann.IVFIndex` over just its item slice, so the
    exact-rerank tie contract (descending score, ascending global id)
    survives both the shard boundary and the router's merge.
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
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if dataset.num_items != plan.num_items:
            raise ValueError(
                f"plan covers {plan.num_items} items but the dataset "
                f"has {dataset.num_items}"
            )
        check_retrieval(retrieval)
        self.shard = shard
        owned = plan.global_items(shard)
        ann_index = None
        if retrieval == "ann" and owned.size > 0:
            # nlist is clamped to the slice: a small shard cannot host
            # more lists than items.
            nlist = default_nlist(owned.size) if ann_nlist is None else ann_nlist
            ann_index = IVFIndex(
                np.asarray(model.item_embedding.weight.data)[owned],
                nlist=min(int(nlist), owned.size),
                nprobe=ann_nprobe,
                seed=ann_seed,
            )
        super().__init__(
            model,
            dataset,
            owned=owned,
            ann_index=ann_index,
            ann_candidates=ann_candidates,
            registry=registry,
        )

    def score(
        self, kind: str, payload, k: int, recorder: Optional[RemoteSpanRecorder] = None
    ) -> TopK:
        """Local Top-K (global ids) for one scatter request; a traced
        one records its phases as ``shard.``-prefixed remote spans."""
        if recorder is None:
            return self.rank(kind, payload, k)

        def phase(name: str, **attrs):
            return recorder.span("shard." + name, shard=self.shard, **attrs)

        return self.rank(kind, payload, k, phase)


def _build_scorers(
    spec: WorkerSpec, store_dir: str, views: RequestViews, registry: MetricsRegistry
) -> list:
    """Attach ``store_dir`` and rebuild every shard scorer against it."""
    model = attach_shared_model(store_dir)
    return [
        ShardScorer(
            shard,
            spec.plan,
            model,
            views,
            retrieval=spec.retrieval,
            ann_nlist=spec.ann_nlist,
            ann_nprobe=spec.ann_nprobe,
            ann_candidates=spec.ann_candidates,
            ann_seed=spec.ann_seed,
            registry=registry,
        )
        for shard in spec.shards
    ]


def worker_main(conn, spec: WorkerSpec) -> None:
    """Process entry point: serve scatter requests until ``stop``/EOF."""
    registry = MetricsRegistry()
    try:
        # Dataset-side state: once per process, shared by every slice
        # and every model version swapped in.
        views = RequestViews(load_dataset(spec.dataset_path))
        scorers = _build_scorers(spec, spec.store_dir, views, registry)
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
                    fresh = _build_scorers(spec, str(store_dir), views, registry)
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
                __, req_id, kind, payload, k, *trace = message
                recorder = None
                phase = no_phase
                if trace:
                    recorder = RemoteSpanRecorder()
                    phase = recorder.span
                    received = time.time()
                    sent = float(trace[0].get("sent_ts", received))
                    recorder.record(
                        "worker.queue_wait",
                        sent,
                        max(0.0, received - sent),
                        worker=spec.worker_id,
                        proc=f"worker-{spec.worker_id}",
                    )
                start = time.perf_counter()
                try:
                    with phase(
                        "worker.score",
                        worker=spec.worker_id,
                        kind=str(kind),
                        proc=f"worker-{spec.worker_id}",
                    ):
                        parts = []
                        for scorer in scorers:
                            with phase("shard.score", shard=scorer.shard):
                                parts.append(
                                    scorer.score(kind, payload, int(k), recorder)
                                )
                        with phase("worker.merge", parts=len(parts)):
                            items, scores = merge_topk(parts, int(k))
                except BaseException as error:
                    registry.counter("shard.errors").inc()
                    conn.send(("error", req_id, type(error).__name__, str(error)))
                    continue
                latency.observe(time.perf_counter() - start)
                registry.counter(f"shard.requests.{kind}").inc()
                # The reply has the request's arity: untraced, the
                # pre-tracing 5-tuple byte for byte.
                reply = ("ok", req_id, items, scores, model_version)
                conn.send(reply if recorder is None else reply + (recorder.payload(),))
                continue
            conn.send(("error", message[1] if len(message) > 1 else -1,
                       "ValueError", f"unknown op '{op}'"))
    finally:
        conn.close()
