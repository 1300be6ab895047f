"""Batched inference engine for production-style serving.

Layered between a trained :class:`~repro.core.groupsa.GroupSA` and the
:class:`~repro.serving.RecommendationService` surface:

- :mod:`repro.engine.score_cache` — blocked user×item score matrix
  (the Section II-F fast path) plus a generic LRU cache;
- :mod:`repro.engine.ann` — IVF approximate-nearest-neighbor candidate
  generation over item embeddings (``EngineConfig.retrieval="ann"``);
- :mod:`repro.engine.batching` — request micro-batching queue;
- :mod:`repro.engine.topk` — vectorized Top-K selection kernels;
- :mod:`repro.engine.scorer` — the scoring core (candidates, model
  scores, Top-K over an item slice) every serving mode ranks through;
- :mod:`repro.engine.service` — the engine tying the stages together;
  every stage records into the engine's
  :class:`~repro.obs.metrics_registry.MetricsRegistry`, and
  :func:`telemetry_snapshot` summarizes it.  Request tracing is
  :mod:`repro.obs.spans`.
"""

from repro.engine.ann import IVFIndex, default_nlist, recall_at_k
from repro.engine.batching import MicroBatcher
from repro.engine.score_cache import LRUCache, ScoreCache
from repro.engine.service import EngineConfig, InferenceEngine, telemetry_snapshot
from repro.engine.topk import batch_topk, exclusion_mask, topk_indices

__all__ = [
    "IVFIndex",
    "default_nlist",
    "recall_at_k",
    "MicroBatcher",
    "LRUCache",
    "ScoreCache",
    "EngineConfig",
    "InferenceEngine",
    "telemetry_snapshot",
    "batch_topk",
    "exclusion_mask",
    "topk_indices",
]
