"""Unified metrics registry: counters, gauges, log-bucket histograms.

The serving stack's metrics primitive.  :class:`Histogram` keeps
**fixed logarithmic buckets** instead of a bounded reservoir of recent
samples: every sample lands in a bucket whose bounds grow
geometrically, so

- the full history is retained (no samples silently dropped under
  load — ``count``/``sum``/``max``/``min`` are exact);
- quantiles are reproducible with a bounded *relative* error of one
  bucket's width (``relative_error``), independent of traffic volume;
- two histograms from different workers merge by adding bucket counts,
  so fleet-wide percentiles are exact in the same sense — impossible
  with reservoirs.

:class:`MetricsRegistry` is the thread-safe container: instruments are
created on first use, named lookups are stable, and the whole registry
exports three ways — a JSON payload, the ``repro.obs/v1`` report
envelope, and Prometheus-style text exposition for scrapers.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional, Tuple

#: Default bucket resolution: 20 buckets per decade of magnitude, i.e.
#: bucket bounds grow by 10^(1/20) ≈ 1.122 — quantiles carry at most
#: ~12.2% relative error.
DEFAULT_BUCKETS_PER_DECADE = 20

#: Default histogram range in native units (seconds for latencies):
#: 100 ns .. 1000 s; values outside land in under/overflow buckets
#: whose recorded max keeps ``max`` exact.
DEFAULT_LO = 1e-7
DEFAULT_HI = 1e3


class Counter:
    """Monotonically increasing integer, thread-safe."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """Last-write-wins float, thread-safe."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-log-bucket histogram: exact counts, bounded-error quantiles.

    Bucket ``i`` (``1 <= i <= n``) covers ``(lo·g^(i-1), lo·g^i]`` with
    ``g = 10^(1/buckets_per_decade)``; bucket ``0`` is the underflow
    bucket (``<= lo``) and the last bucket collects overflow
    (``> hi``).  Alongside each bucket's count the largest sample seen
    in it is kept, so a quantile query returns a *recorded* value: the
    nearest-rank bucket's max.  That value is exact when the rank
    bucket holds a single distinct sample and otherwise within
    ``relative_error`` of the true order statistic.
    """

    __slots__ = (
        "name",
        "lo",
        "hi",
        "buckets_per_decade",
        "_growth_log10",
        "_num_inner",
        "_lock",
        "_counts",
        "_bucket_max",
        "_count",
        "_sum",
        "_max",
        "_min",
    )

    def __init__(
        self,
        name: str,
        lo: float = DEFAULT_LO,
        hi: float = DEFAULT_HI,
        buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE,
    ) -> None:
        if not 0 < lo < hi:
            raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
        if buckets_per_decade < 1:
            raise ValueError(f"buckets_per_decade must be >= 1, got {buckets_per_decade}")
        self.name = name
        self.lo = float(lo)
        self.hi = float(hi)
        self.buckets_per_decade = buckets_per_decade
        self._growth_log10 = 1.0 / buckets_per_decade
        self._num_inner = int(math.ceil(math.log10(hi / lo) * buckets_per_decade))
        total = self._num_inner + 2  # + underflow + overflow
        self._lock = threading.Lock()
        self._counts: List[int] = [0] * total
        self._bucket_max: List[float] = [0.0] * total
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._min = math.inf

    # -- recording ------------------------------------------------------

    def _index(self, value: float) -> int:
        if value <= self.lo:
            return 0
        if value > self.hi:
            return len(self._counts) - 1
        # floor() edge: a value exactly on a bound belongs to the lower
        # bucket, hence the tiny epsilon pull-back.
        position = math.log10(value / self.lo) * self.buckets_per_decade
        index = int(math.ceil(position - 1e-9))
        return min(max(index, 1), self._num_inner)

    def observe(self, value: float) -> None:
        value = float(value)
        index = self._index(value)
        with self._lock:
            self._counts[index] += 1
            if value > self._bucket_max[index]:
                self._bucket_max[index] = value
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value
            if value < self._min:
                self._min = value

    # -- reading --------------------------------------------------------

    @property
    def relative_error(self) -> float:
        """Worst-case quantile relative error: one bucket's growth."""
        return 10.0 ** self._growth_log10 - 1.0

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def max(self) -> float:
        with self._lock:
            return self._max

    @property
    def min(self) -> float:
        with self._lock:
            return self._min if self._count else 0.0

    def mean(self) -> float:
        with self._lock:
            return (self._sum / self._count) if self._count else 0.0

    def upper_bound(self, index: int) -> float:
        """Upper bound of bucket ``index`` (inf for the overflow bucket)."""
        if index <= 0:
            return self.lo
        if index >= len(self._counts) - 1:
            return math.inf
        return self.lo * 10.0 ** (index * self._growth_log10)

    def percentile(self, q: float) -> float:
        """Nearest-rank quantile over the full recorded history.

        Returns the max recorded sample of the bucket containing the
        rank — a real observed value, within :attr:`relative_error` of
        the exact order statistic.
        """
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = min(
                self._count - 1,
                max(0, int(round(q / 100.0 * (self._count - 1)))),
            )
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if cumulative > rank:
                    return self._bucket_max[index]
            return self._max  # unreachable, counts always sum to _count

    def state(self) -> Dict:
        """Lossless, JSON-serializable snapshot of the full history.

        Round-trips through :meth:`from_state`, so a histogram can
        cross a process boundary (worker → router pipe) and still
        :meth:`merge` exactly — the cluster scatter-gather path relies
        on this.
        """
        with self._lock:
            return {
                "name": self.name,
                "lo": self.lo,
                "hi": self.hi,
                "buckets_per_decade": self.buckets_per_decade,
                "counts": list(self._counts),
                "bucket_max": list(self._bucket_max),
                "count": self._count,
                "sum": self._sum,
                "max": self._max,
                # inf is not JSON-representable; empty histograms carry None.
                "min": self._min if self._count else None,
            }

    @classmethod
    def from_state(cls, state: Dict) -> "Histogram":
        """Reconstruct a histogram from a :meth:`state` snapshot."""
        histogram = cls(
            state["name"],
            lo=state["lo"],
            hi=state["hi"],
            buckets_per_decade=state["buckets_per_decade"],
        )
        counts = [int(c) for c in state["counts"]]
        if len(counts) != len(histogram._counts):
            raise ValueError(
                f"bucket count mismatch for '{state['name']}': "
                f"{len(counts)} vs {len(histogram._counts)}"
            )
        histogram._counts = counts
        histogram._bucket_max = [float(m) for m in state["bucket_max"]]
        histogram._count = int(state["count"])
        histogram._sum = float(state["sum"])
        histogram._max = float(state["max"])
        minimum = state["min"]
        histogram._min = math.inf if minimum is None else float(minimum)
        return histogram

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s history into this histogram (same layout)."""
        if (
            other.lo != self.lo
            or other.hi != self.hi
            or other.buckets_per_decade != self.buckets_per_decade
        ):
            raise ValueError("cannot merge histograms with different bucket layouts")
        with other._lock:
            counts = list(other._counts)
            bucket_max = list(other._bucket_max)
            count, total = other._count, other._sum
            other_max, other_min = other._max, other._min
        with self._lock:
            for index, bucket_count in enumerate(counts):
                self._counts[index] += bucket_count
                if bucket_max[index] > self._bucket_max[index]:
                    self._bucket_max[index] = bucket_max[index]
            self._count += count
            self._sum += total
            if other_max > self._max:
                self._max = other_max
            if other_min < self._min:
                self._min = other_min

    def nonzero_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, count)`` for every populated bucket, ascending."""
        with self._lock:
            return [
                (self.upper_bound(index), count)
                for index, count in enumerate(self._counts)
                if count
            ]

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean(),
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "relative_error": self.relative_error,
        }


def _sanitize(name: str) -> str:
    """Prometheus metric name: [a-zA-Z_:][a-zA-Z0-9_:]*."""
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


class MetricsRegistry:
    """Thread-safe named collection of counters, gauges and histograms.

    Instruments are created on first access and shared afterwards::

        registry = MetricsRegistry()
        registry.counter("requests.user").inc()
        registry.histogram("engine.request").observe(0.0021)
        print(registry.exposition())
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._counters: "Dict[str, Counter]" = {}
        self._gauges: "Dict[str, Gauge]" = {}
        self._histograms: "Dict[str, Histogram]" = {}

    # -- instrument access ---------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(
        self,
        name: str,
        lo: float = DEFAULT_LO,
        hi: float = DEFAULT_HI,
        buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE,
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    name, lo=lo, hi=hi, buckets_per_decade=buckets_per_decade
                )
            return instrument

    def counters(self) -> Dict[str, Counter]:
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> Dict[str, Gauge]:
        with self._lock:
            return dict(self._gauges)

    def histograms(self) -> Dict[str, Histogram]:
        with self._lock:
            return dict(self._histograms)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another worker's registry into this one."""
        for name, counter in other.counters().items():
            self.counter(name).inc(counter.value)
        for name, gauge in other.gauges().items():
            self.gauge(name).set(gauge.value)
        for name, histogram in other.histograms().items():
            self.histogram(
                name,
                lo=histogram.lo,
                hi=histogram.hi,
                buckets_per_decade=histogram.buckets_per_decade,
            ).merge(histogram)

    def state(self) -> dict:
        """Lossless, JSON-serializable snapshot of every instrument.

        Unlike :meth:`payload` (a human-facing summary), this is the
        wire format for cross-process aggregation: a worker sends its
        registry state over a pipe, the receiver rebuilds it with
        :meth:`from_state` and folds it in with :meth:`merge` — exact
        counts, sums and bucket histories survive the hop.
        """
        return {
            "namespace": self.namespace,
            "counters": {n: c.value for n, c in self.counters().items()},
            "gauges": {n: g.value for n, g in self.gauges().items()},
            "histograms": {n: h.state() for n, h in self.histograms().items()},
        }

    @classmethod
    def from_state(cls, state: dict) -> "MetricsRegistry":
        """Reconstruct a registry from a :meth:`state` snapshot."""
        registry = cls(namespace=state.get("namespace", "repro"))
        for name, value in state.get("counters", {}).items():
            registry.counter(name).inc(int(value))
        for name, value in state.get("gauges", {}).items():
            registry.gauge(name).set(float(value))
        for name, histogram_state in state.get("histograms", {}).items():
            restored = Histogram.from_state(histogram_state)
            with registry._lock:
                registry._histograms[name] = restored
        return registry

    # -- export ---------------------------------------------------------

    def payload(self) -> dict:
        """JSON-serializable view of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters().items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges().items())},
            "histograms": {
                n: {
                    **h.summary(),
                    "buckets": [[ub, c] for ub, c in h.nonzero_buckets()],
                }
                for n, h in sorted(self.histograms().items())
            },
        }

    def report(self, meta: Optional[dict] = None) -> dict:
        """The payload wrapped in the ``repro.obs/v1`` envelope."""
        from repro.obs.report import make_report

        return make_report("metrics_registry", self.payload(), meta=meta)

    def exposition(self) -> str:
        """Prometheus text exposition (version 0.0.4 flavor).

        Histograms emit cumulative ``_bucket{le=...}`` series over the
        populated buckets plus ``+Inf``, ``_sum`` and ``_count``;
        counters gain the conventional ``_total`` suffix.
        """
        lines: List[str] = []
        prefix = _sanitize(self.namespace)
        for name, counter in sorted(self.counters().items()):
            metric = f"{prefix}_{_sanitize(name)}_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {counter.value}")
        for name, gauge in sorted(self.gauges().items()):
            metric = f"{prefix}_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {gauge.value}")
        for name, histogram in sorted(self.histograms().items()):
            metric = f"{prefix}_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for upper_bound, count in histogram.nonzero_buckets():
                if math.isinf(upper_bound):
                    # The trailing +Inf line below covers the overflow
                    # bucket; emitting it here too would duplicate the
                    # series (invalid Prometheus text format).
                    continue
                cumulative += count
                lines.append(f'{metric}_bucket{{le="{repr(upper_bound)}"}} {cumulative}')
            lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
            lines.append(f"{metric}_sum {histogram.sum}")
            lines.append(f"{metric}_count {histogram.count}")
        return "\n".join(lines) + "\n"


def merge_histograms(histograms: Iterable[Histogram], name: str = "merged") -> Histogram:
    """Merge several same-layout histograms into a fresh one."""
    iterator = iter(histograms)
    try:
        first = next(iterator)
    except StopIteration:
        return Histogram(name)
    merged = Histogram(
        name, lo=first.lo, hi=first.hi, buckets_per_decade=first.buckets_per_decade
    )
    merged.merge(first)
    for histogram in iterator:
        merged.merge(histogram)
    return merged
