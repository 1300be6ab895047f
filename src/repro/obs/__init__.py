"""repro.obs — the observability subsystem.

Measurement for the training and serving stacks:

- :class:`OpProfiler` — context-manager autograd op profiler (per-op
  wall time, bytes, FLOP estimates, module-scope attribution; zero
  overhead when inactive);
- :func:`write_chrome_trace` / :func:`format_top_table` — export a
  profile as a ``chrome://tracing`` timeline or a top-K text table;
- :class:`RunMetrics` — per-epoch JSONL training metrics (loss,
  accuracy, epoch wall time, gradient norm, update/param ratios, RSS
  high-water mark);
- :class:`GradientHealthMonitor` — NaN/Inf/vanishing gradient checks
  that raise or warn;
- :class:`Tracer` / :func:`span` — request-scoped serving trace spans
  with contextvars propagation, head + slow/error sampling, a JSONL
  span log and Chrome trace export (no-op when no tracer is
  installed);
- :class:`MetricsRegistry` — thread-safe counters, gauges and
  mergeable fixed-log-bucket histograms with Prometheus text
  exposition; the engine, router, shard workers, swapper and online
  trainer all record into one;
- :func:`make_report` — the unified JSON report envelope shared by
  profiles, run metrics and registries (:func:`make_serving_report`
  bundles the whole serving surface);
- :class:`RemoteSpanRecorder` / :func:`adopt_remote_spans` — the
  cross-process tracing bridge: workers record spans tracer-free, the
  router stitches them into the live trace (see docs/observability.md,
  "Distributed tracing").

CLI entry points: ``repro profile`` and ``repro train --metrics-out``.
"""

from repro.obs.grad_health import (
    GradientHealthError,
    GradientHealthMonitor,
    GradIssue,
)
from repro.obs.metrics_registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_histograms,
)
from repro.obs.profiler import (
    OpProfiler,
    OpStat,
    attach_scopes,
    get_active_profiler,
)
from repro.obs.report import (
    REPORT_SCHEMA,
    is_report,
    make_report,
    make_serving_report,
    write_report,
)
from repro.obs.run_metrics import (
    RECORD_SCHEMA,
    JsonlWriter,
    RunMetrics,
    rss_high_water_mb,
)
from repro.obs.spans import (
    REMOTE_SPAN_SCHEMA,
    SPAN_SCHEMA,
    RemoteSpanRecorder,
    Span,
    Tracer,
    adopt_remote_spans,
    current_span,
    get_active_tracer,
    span,
    trace_context,
    tracing_enabled,
)
from repro.obs.trace import (
    chrome_trace_events,
    format_top_table,
    span_chrome_events,
    stats_payload,
    write_chrome_trace,
    write_span_chrome_trace,
)

__all__ = [
    "OpProfiler",
    "OpStat",
    "attach_scopes",
    "get_active_profiler",
    "chrome_trace_events",
    "write_chrome_trace",
    "format_top_table",
    "stats_payload",
    "RunMetrics",
    "rss_high_water_mb",
    "RECORD_SCHEMA",
    "GradientHealthMonitor",
    "GradientHealthError",
    "GradIssue",
    "REPORT_SCHEMA",
    "make_report",
    "make_serving_report",
    "is_report",
    "write_report",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_histograms",
    "SPAN_SCHEMA",
    "REMOTE_SPAN_SCHEMA",
    "Span",
    "Tracer",
    "RemoteSpanRecorder",
    "adopt_remote_spans",
    "trace_context",
    "span",
    "current_span",
    "get_active_tracer",
    "tracing_enabled",
    "span_chrome_events",
    "write_span_chrome_trace",
    "JsonlWriter",
]
