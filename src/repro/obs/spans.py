"""Request-scoped tracing for the serving stack.

A :class:`Tracer` turns one Top-K request into a **span tree**: the
service entry point opens a root span, every instrumented stage below
it (engine submit, micro-batch wait, score-cache lookup, forward pass,
Top-K) opens a child, and parentage follows the call structure via
``contextvars`` — including across the micro-batch worker thread,
whose spans are re-parented onto the submitting request's context.

Sampling is head + always-sample: a head-sampling coin is flipped when
a trace starts, but every trace is buffered until its root finishes so
that **slow** requests (above a fixed ``slow_ms`` threshold and/or the
rolling p99 of root latencies) and **errored** requests are always
kept, whatever the coin said.  Kept traces stream to a JSONL span log
and can be exported as a ``chrome://tracing`` timeline
(:func:`repro.obs.trace.write_span_chrome_trace`).

Zero-overhead discipline: instrumentation call sites go through the
module-level :func:`span` / :func:`current_span` helpers, which check
one module-global (``_ACTIVE``) and return a shared no-op object when
no tracer is installed — no allocation, no lock, no contextvar access
on the disabled hot path (asserted by
``tests/obs/test_spans.py::TestDisabled``).

Usage::

    from repro.obs.spans import Tracer, span

    with Tracer(sample_rate=0.1, slow_ms=50.0, jsonl_path="spans.jsonl"):
        with span("service.recommend_for_group", group=3) as root:
            ...  # nested span(...) calls attach underneath
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.metrics_registry import Histogram

#: One JSON object per span line in the JSONL log.
SPAN_SCHEMA = "repro.obs/span/v1"

#: One remote-span payload entry travelling worker → router over a pipe.
REMOTE_SPAN_SCHEMA = "repro.obs/remote-span/v1"

#: The installed tracer; ``None`` is the module-level "disabled" flag
#: every hot-path helper checks first.
_ACTIVE: Optional["Tracer"] = None

_current_span: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_current_span", default=None
)


class Span:
    """One timed operation inside a trace."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_wall",
        "start",
        "duration",
        "attrs",
        "status",
        "error",
        "thread",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        attrs: Dict[str, Any],
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_wall = time.time()
        self.start = time.perf_counter()
        self.duration = 0.0
        self.attrs = attrs
        self.status = "ok"
        self.error: Optional[str] = None
        self.thread = threading.current_thread().name

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": SPAN_SCHEMA,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "ts": self.start_wall,
            "dur_ms": self.duration * 1000.0,
            "attrs": self.attrs,
            "status": self.status,
            "error": self.error,
            "thread": self.thread,
        }


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP = _NoopSpan()


def tracing_enabled() -> bool:
    """True while a :class:`Tracer` is installed."""
    return _ACTIVE is not None


def get_active_tracer() -> Optional["Tracer"]:
    return _ACTIVE


def span(name: str, **attrs: Any):
    """Context manager for one span; a shared no-op when tracing is off.

    Yields the live :class:`Span` (so callers can ``set_attr``) or
    ``None`` when disabled.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NOOP
    return _SpanContext(tracer, name, attrs)


def current_span() -> Optional[Span]:
    """The innermost live span on this thread's context, if any."""
    if _ACTIVE is None:
        return None
    return _current_span.get()


def capture_context() -> Optional[Span]:
    """Snapshot the current span for cross-thread hand-off (submit side)."""
    if _ACTIVE is None:
        return None
    return _current_span.get()


@contextmanager
def use_span(parent: Optional[Span]) -> Iterator[Optional[Span]]:
    """Re-parent this thread's context onto a captured span (worker side)."""
    if _ACTIVE is None or parent is None:
        yield None
        return
    token = _current_span.set(parent)
    try:
        yield parent
    finally:
        _current_span.reset(token)


def record_span(
    name: str,
    parent: Optional[Span],
    start: float,
    duration: float,
    **attrs: Any,
) -> None:
    """Record an already-finished span under ``parent``.

    For phases measured with explicit ``perf_counter`` timestamps —
    e.g. micro-batch queue wait, whose start happened on the submitting
    thread and whose end is observed on the worker.
    """
    tracer = _ACTIVE
    if tracer is None or parent is None:
        return
    tracer._record_completed(name, parent, start, duration, attrs)


class RemoteSpanRecorder:
    """Collects spans inside a worker *process* for later stitching.

    A shard worker has no :class:`Tracer` — tracing is driven entirely
    by the request: when a scatter message carries trace context, the
    worker builds one of these, wraps its phases in
    :meth:`span` / :meth:`record`, and ships :meth:`payload` back with
    the reply.  The router turns the payload into real spans of the
    caller's trace via :func:`adopt_remote_spans`.

    Parent linkage uses small integer ids local to this recorder (the
    entry's list index); a single-threaded stack tracks the current
    parent, which matches the worker loop's strictly nested execution.
    Timestamps are ``time.time()`` wall clock — the only clock that is
    comparable across processes on one machine — plus durations from
    ``perf_counter``.
    """

    __slots__ = ("_entries", "_stack")

    def __init__(self) -> None:
        self._entries: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def span(self, name: str, **attrs: Any) -> "_RemoteSpanContext":
        return _RemoteSpanContext(self, name, attrs)

    def record(
        self, name: str, start_wall: float, duration: float, **attrs: Any
    ) -> None:
        """Record an already-finished phase (e.g. pipe/queue wait whose
        start was stamped by the sending process)."""
        self._entries.append(
            {
                "id": len(self._entries),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "ts": float(start_wall),
                "dur": float(duration),
                "attrs": attrs,
            }
        )

    def _enter(self, name: str, attrs: Dict[str, Any]) -> int:
        index = len(self._entries)
        self._entries.append(
            {
                "id": index,
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "ts": time.time(),
                "dur": 0.0,
                "attrs": attrs,
            }
        )
        self._stack.append(index)
        return index

    def _exit(self, index: int, duration: float, exc: Optional[BaseException]) -> None:
        self._stack.pop()
        entry = self._entries[index]
        entry["dur"] = duration
        if exc is not None:
            entry["attrs"] = {
                **entry["attrs"],
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
            }

    def payload(self) -> List[Dict[str, Any]]:
        """The picklable span list a reply carries back to the router."""
        return self._entries


class _RemoteSpanContext:
    __slots__ = ("_recorder", "_name", "_attrs", "_index", "_start")

    def __init__(
        self, recorder: RemoteSpanRecorder, name: str, attrs: Dict[str, Any]
    ) -> None:
        self._recorder = recorder
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_RemoteSpanContext":
        self._index = self._recorder._enter(self._name, self._attrs)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder._exit(
            self._index, time.perf_counter() - self._start, exc
        )
        return False

    def set_attr(self, key: str, value: Any) -> None:
        self._recorder._entries[self._index]["attrs"][key] = value


def trace_context() -> Optional[Dict[str, Any]]:
    """Wire-format trace context for a cross-process hop, or ``None``.

    ``None`` whenever tracing is off or no span is open — callers must
    then send the *unextended* message, so the disabled path pickles
    exactly the same bytes it did before tracing existed.
    """
    if _ACTIVE is None:
        return None
    parent = _current_span.get()
    if parent is None:
        return None
    return {
        "trace_id": parent.trace_id,
        "span_id": parent.span_id,
        "sent_ts": time.time(),
    }


def adopt_remote_spans(
    parent: Optional[Span], payload: Optional[List[Dict[str, Any]]]
) -> None:
    """Stitch a worker's :meth:`RemoteSpanRecorder.payload` into the
    caller's trace, re-parenting payload roots onto ``parent``.

    No-op when tracing is off, there is no parent, or the payload is
    empty — replies from an untraced request simply carry no payload.
    """
    tracer = _ACTIVE
    if tracer is None or parent is None or not payload:
        return
    tracer._adopt(parent, payload)


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_attrs", "_span", "_token")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        parent = _current_span.get()
        self._span = self._tracer._begin(self._name, parent, self._attrs)
        self._token = _current_span.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        _current_span.reset(self._token)
        self._tracer._end(self._span, exc)
        return False


class _TraceBuffer:
    """All spans of one in-flight trace plus its sampling state."""

    __slots__ = ("root", "spans", "head_sampled", "errored")

    def __init__(self, root: Span, head_sampled: bool) -> None:
        self.root = root
        self.spans: List[Span] = []
        self.head_sampled = head_sampled
        self.errored = False


class Tracer:
    """Produces, samples and exports request span trees.

    Parameters
    ----------
    sample_rate:
        Head-sampling probability in ``[0, 1]``; the coin is flipped
        when a trace's root span starts.
    slow_ms:
        Fixed always-sample latency threshold for root spans
        (milliseconds); ``None`` disables the fixed rule.
    auto_slow_quantile:
        Roots slower than this rolling quantile of past root latencies
        are always kept (the "why was *this* request slow?" rule).
        Takes effect after ``auto_slow_min_samples`` roots; ``None``
        disables.
    jsonl_path:
        When set, every kept trace's spans are appended to this file,
        one JSON object per line (``repro.obs/span/v1``), flushed per
        trace so a killed process keeps finished traces.
    max_active_traces:
        In-flight trace buffer cap; beyond it the oldest unfinished
        trace is dropped (counted in :meth:`summary`).
    max_finished_spans:
        Cap on spans retained in memory for programmatic export; the
        JSONL log is unaffected.
    seed:
        Seeds the head-sampling RNG for reproducible sampling in tests.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        slow_ms: Optional[float] = None,
        auto_slow_quantile: Optional[float] = 99.0,
        auto_slow_min_samples: int = 200,
        jsonl_path: Optional[str] = None,
        max_active_traces: int = 1024,
        max_finished_spans: int = 100_000,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        import random

        self.sample_rate = sample_rate
        self.slow_ms = slow_ms
        self.auto_slow_quantile = auto_slow_quantile
        self.auto_slow_min_samples = auto_slow_min_samples
        self.jsonl_path = jsonl_path
        self.max_active_traces = max_active_traces
        self.max_finished_spans = max_finished_spans
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._traces: "Dict[str, _TraceBuffer]" = {}
        self._finished: List[Span] = []
        self._root_latency = Histogram("trace.root_latency")
        self._jsonl_handle = None
        self._counts = {
            "traces_started": 0,
            "traces_kept": 0,
            "kept_head": 0,
            "kept_slow": 0,
            "kept_error": 0,
            "traces_dropped": 0,
            "active_evicted": 0,
            "spans_recorded": 0,
            "spans_dropped": 0,
            "orphan_spans": 0,
        }

    # -- lifecycle ------------------------------------------------------

    def install(self) -> "Tracer":
        """Make this the process-wide tracer (one at a time)."""
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a Tracer is already installed")
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = None
        self.flush()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        # Kept spans stay readable in memory; a later install() reopens
        # the span log in append mode.
        self.close()

    def flush(self) -> None:
        with self._lock:
            if self._jsonl_handle is not None:
                self._jsonl_handle.flush()

    def close(self) -> None:
        self.uninstall()
        with self._lock:
            if self._jsonl_handle is not None:
                self._jsonl_handle.close()
                self._jsonl_handle = None

    # -- span production (called via module helpers) --------------------

    @staticmethod
    def _new_id() -> str:
        return uuid.uuid4().hex[:16]

    def _begin(self, name: str, parent: Optional[Span], attrs: Dict[str, Any]) -> Span:
        if parent is None:
            trace_id = self._new_id()
        else:
            trace_id = parent.trace_id
        created = Span(
            trace_id=trace_id,
            span_id=self._new_id(),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            attrs=attrs,
        )
        if parent is None:
            head_sampled = self._rng.random() < self.sample_rate
            with self._lock:
                self._counts["traces_started"] += 1
                self._traces[trace_id] = _TraceBuffer(created, head_sampled)
                while len(self._traces) > self.max_active_traces:
                    evicted_id = next(iter(self._traces))
                    evicted = self._traces.pop(evicted_id)
                    self._counts["active_evicted"] += 1
                    self._counts["spans_dropped"] += len(evicted.spans) + 1
        return created

    def _end(self, finished: Span, exc: Optional[BaseException]) -> None:
        finished.duration = time.perf_counter() - finished.start
        if exc is not None:
            finished.status = "error"
            finished.error = f"{type(exc).__name__}: {exc}"
        self._store(finished)

    def _record_completed(
        self,
        name: str,
        parent: Span,
        start: float,
        duration: float,
        attrs: Dict[str, Any],
    ) -> None:
        completed = Span(
            trace_id=parent.trace_id,
            span_id=self._new_id(),
            parent_id=parent.span_id,
            name=name,
            attrs=attrs,
        )
        # Shift the wall-clock anchor back to the true start.
        completed.start_wall -= time.perf_counter() - start
        completed.start = start
        completed.duration = duration
        self._store(completed)

    def _adopt(self, parent: Span, payload: List[Dict[str, Any]]) -> None:
        """Materialize remote span entries as spans of ``parent``'s trace.

        Remote ids are remapped to fresh span ids (two workers may both
        number their spans 0..n); wall-clock starts are projected onto
        this process's ``perf_counter`` timeline so Chrome export and
        start-ordering keep working.  Recorders emit parents before
        children, so one forward pass resolves the id map.
        """
        now_perf = time.perf_counter()
        now_wall = time.time()
        id_map: Dict[int, str] = {}
        for entry in payload:
            attrs = dict(entry.get("attrs") or {})
            status = attrs.pop("status", "ok")
            error = attrs.pop("error", None)
            remote_parent = entry.get("parent")
            adopted = Span(
                trace_id=parent.trace_id,
                span_id=self._new_id(),
                parent_id=(
                    id_map[remote_parent]
                    if remote_parent is not None and remote_parent in id_map
                    else parent.span_id
                ),
                name=entry["name"],
                attrs=attrs,
            )
            adopted.start_wall = float(entry["ts"])
            adopted.start = now_perf - (now_wall - float(entry["ts"]))
            adopted.duration = float(entry["dur"])
            adopted.status = status
            adopted.error = error
            adopted.thread = str(attrs.get("proc", adopted.thread))
            id_map[int(entry["id"])] = adopted.span_id
            self._store(adopted)

    def _store(self, stored: Span) -> None:
        with self._lock:
            buffer = self._traces.get(stored.trace_id)
            if buffer is None:
                self._counts["orphan_spans"] += 1
                return
            buffer.spans.append(stored)
            self._counts["spans_recorded"] += 1
            if stored.status == "error":
                buffer.errored = True
            if stored is not buffer.root:
                return
            del self._traces[stored.trace_id]
            self._finish_trace(buffer)

    def _finish_trace(self, buffer: _TraceBuffer) -> None:
        # Called with the lock held; the root just ended.
        root = buffer.root
        duration_ms = root.duration * 1000.0
        slow = False
        if self.slow_ms is not None and duration_ms >= self.slow_ms:
            slow = True
        if (
            not slow
            and self.auto_slow_quantile is not None
            and self._root_latency.count >= self.auto_slow_min_samples
            and root.duration >= self._root_latency.percentile(self.auto_slow_quantile)
        ):
            slow = True
        self._root_latency.observe(root.duration)
        keep = buffer.head_sampled or buffer.errored or slow
        if not keep:
            self._counts["traces_dropped"] += 1
            self._counts["spans_dropped"] += len(buffer.spans)
            return
        reason = (
            "error" if buffer.errored else ("slow" if slow else "head")
        )
        root.attrs["sampled"] = reason
        self._counts["traces_kept"] += 1
        self._counts[f"kept_{reason}"] += 1
        ordered = sorted(buffer.spans, key=lambda item: item.start)
        room = self.max_finished_spans - len(self._finished)
        if room < len(ordered):
            self._counts["spans_dropped"] += len(ordered) - max(0, room)
        if room > 0:
            self._finished.extend(ordered[:room])
        if self.jsonl_path is not None:
            if self._jsonl_handle is None:
                self._jsonl_handle = open(self.jsonl_path, "a", encoding="utf-8")
            for item in ordered:
                self._jsonl_handle.write(json.dumps(item.as_dict()) + "\n")
            self._jsonl_handle.flush()

    # -- reading --------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        """Spans of every kept trace, in start order per trace."""
        with self._lock:
            return list(self._finished)

    def traces(self) -> Dict[str, List[Span]]:
        """Kept spans grouped by trace id."""
        grouped: Dict[str, List[Span]] = {}
        for item in self.finished_spans():
            grouped.setdefault(item.trace_id, []).append(item)
        return grouped

    def summary(self) -> dict:
        """Sampling decisions plus root-latency stats (JSON-ready)."""
        with self._lock:
            counts = dict(self._counts)
        latency = self._root_latency.summary()
        return {
            **counts,
            "sample_rate": self.sample_rate,
            "slow_ms": self.slow_ms,
            "root_latency_ms": {
                "count": latency["count"],
                "mean_ms": latency["mean"] * 1000.0,
                "p50_ms": latency["p50"] * 1000.0,
                "p99_ms": latency["p99"] * 1000.0,
                "max_ms": latency["max"] * 1000.0,
            },
        }

    def report(self, meta: Optional[dict] = None) -> dict:
        """Sampling summary in the ``repro.obs/v1`` envelope."""
        from repro.obs.report import make_report

        return make_report("span_log", self.summary(), meta=meta)
