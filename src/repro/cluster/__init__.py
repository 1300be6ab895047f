"""Sharded multi-process serving: scale Top-K past one process.

The single-process engine (:mod:`repro.engine`) tops out at one
process's memory (every embedding table resident) and one GIL's worth
of request handling.  This package shards the *item catalog* instead:

- :mod:`repro.cluster.plan` — :class:`ShardPlan`, the contiguous or
  modulo partition of item ids plus the global↔local index mapping;
- :mod:`repro.cluster.weights` — :class:`SharedWeightStore`, one
  mmap-backed on-disk copy of the model that every worker attaches
  read-only (``np.memmap``), so N workers share one set of tables;
- :mod:`repro.cluster.worker` — the shard worker process: runs the
  existing Top-K kernel over its item slices and answers scatter
  requests over a pipe, shipping back global-id candidates plus a
  lossless :class:`~repro.obs.metrics_registry.MetricsRegistry`
  snapshot;
- :mod:`repro.cluster.merge` — the exact cross-shard Top-K merge
  (descending score, ascending global item id);
- :mod:`repro.cluster.router` — :class:`ShardRouter`: scatter-gather
  with per-request worker restart-once recovery, fleet-exact metric
  aggregation, and results bit-identical to single-process serving.

Because user, group and ad-hoc traffic all reduce to the same
score-items-then-Top-K loop (the paper's Section II-F fast path), one
item-sharded scoring tier accelerates every request kind at once.
"""

from repro.cluster.merge import merge_topk
from repro.cluster.plan import ShardPlan
from repro.cluster.router import ClusterConfig, ClusterError, ShardRouter
from repro.cluster.weights import (
    SharedWeightStore,
    attach_shared_model,
    write_model_store,
)
from repro.cluster.worker import ShardScorer, WorkerSpec

__all__ = [
    "merge_topk",
    "ShardPlan",
    "ClusterConfig",
    "ClusterError",
    "ShardRouter",
    "SharedWeightStore",
    "attach_shared_model",
    "write_model_store",
    "ShardScorer",
    "WorkerSpec",
]
