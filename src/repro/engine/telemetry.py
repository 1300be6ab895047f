"""Serving telemetry: latency histograms, counters, batch occupancy.

Every engine stage records into a shared :class:`Telemetry` instance,
which exports a JSON-serializable snapshot — the observability surface
an operator would scrape.  All methods are thread-safe; the micro-batch
worker and request threads record concurrently.

Since PR 5 the storage is a
:class:`~repro.obs.metrics_registry.MetricsRegistry`: stage latencies
and batch occupancy live in fixed-log-bucket histograms (full history,
no reservoir bias — ``p50/p90/p99`` are exact to within one bucket's
relative error however much traffic flows), counters are plain
registry counters, and the same data additionally exports as
Prometheus text via :meth:`Telemetry.exposition`.  The ``snapshot()``
shape is unchanged from the reservoir era.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.obs.metrics_registry import Histogram, MetricsRegistry

#: Registry-name prefix for latency stages; occupancy gets its own name
#: so it never collides with a stage called "occupancy".
_STAGE_PREFIX = "stage."
_OCCUPANCY = "batch.occupancy"

#: Occupancy histogram layout: batch sizes are small integers, so a
#: fine grid from 1 up keeps every size in its own bucket.
_OCCUPANCY_LO = 0.5
_OCCUPANCY_HI = 1e5


def _stage_summary(histogram: Histogram) -> Dict[str, float]:
    to_ms = 1000.0
    return {
        "count": histogram.count,
        "mean_ms": histogram.mean() * to_ms,
        "p50_ms": histogram.percentile(50) * to_ms,
        "p90_ms": histogram.percentile(90) * to_ms,
        "p99_ms": histogram.percentile(99) * to_ms,
        "max_ms": histogram.max * to_ms,
    }


class Telemetry:
    """Thread-safe metrics sink for the inference engine.

    Three primitive kinds:

    - **latency stages** (``time`` / ``record_latency``): log-bucket
      histograms summarized as mean/p50/p90/p99/max milliseconds over
      the full history;
    - **counters** (``increment``): monotonically increasing integers;
      a ``<name>.hit`` / ``<name>.miss`` pair additionally yields a
      derived ``<name>.hit_rate`` in the snapshot;
    - **batch occupancy** (``record_batch``): sizes of flushed
      micro-batches, summarized as count/mean/max.

    The underlying :class:`MetricsRegistry` is exposed as
    :attr:`registry` (shareable with other components, mergeable
    across workers) and as Prometheus text via :meth:`exposition`.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry or MetricsRegistry()
        self._occupancy = self.registry.histogram(
            _OCCUPANCY, lo=_OCCUPANCY_LO, hi=_OCCUPANCY_HI
        )

    # -- recording ------------------------------------------------------

    @contextmanager
    def time(self, stage: str) -> Iterator[None]:
        """Context manager timing one occurrence of ``stage``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record_latency(stage, time.perf_counter() - start)

    def record_latency(self, stage: str, seconds: float) -> None:
        self.registry.histogram(_STAGE_PREFIX + stage).observe(seconds)

    def increment(self, counter: str, amount: int = 1) -> None:
        self.registry.counter(counter).inc(amount)

    def record_batch(self, size: int) -> None:
        self._occupancy.observe(float(size))

    # -- reading --------------------------------------------------------

    def counter(self, name: str) -> int:
        instrument = self.registry.counters().get(name)
        return instrument.value if instrument is not None else 0

    def snapshot(self) -> dict:
        """JSON-serializable view of everything recorded so far."""
        stages = {
            name[len(_STAGE_PREFIX):]: _stage_summary(histogram)
            for name, histogram in self.registry.histograms().items()
            if name.startswith(_STAGE_PREFIX)
        }
        counters = {
            name: instrument.value
            for name, instrument in self.registry.counters().items()
        }
        batch_summary = {
            "count": self._occupancy.count,
            "mean_occupancy": self._occupancy.mean(),
            "max_occupancy": self._occupancy.max,
        }
        derived: Dict[str, float] = {}
        for name in list(counters):
            if name.endswith(".hit"):
                base = name[: -len(".hit")]
                hits = counters[name]
                misses = counters.get(base + ".miss", 0)
                total = hits + misses
                if total:
                    derived[base + ".hit_rate"] = hits / total
        return {
            "stages": stages,
            "counters": counters,
            "rates": derived,
            "batches": batch_summary,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def exposition(self) -> str:
        """Prometheus text exposition of the underlying registry."""
        return self.registry.exposition()

    def report(self, meta: dict | None = None) -> dict:
        """The snapshot wrapped in the unified ``repro.obs`` envelope,
        so serving telemetry and training observability artifacts share
        one top-level JSON shape."""
        from repro.obs.report import make_report

        return make_report("serving_telemetry", self.snapshot(), meta=meta)
