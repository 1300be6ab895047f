"""Request micro-batching: coalesce concurrent requests into one pass.

Per-member scoring dominates group-serving cost (SIGR, AGREE), so the
win at serving time is amortization: requests that arrive together are
flushed together, and the handler turns each flush into a small number
of vectorized forward passes instead of one per request.

:class:`MicroBatcher` owns a ``queue.Queue`` and a single worker
thread.  ``submit`` returns a :class:`concurrent.futures.Future`; the
worker drains up to ``max_batch_size`` requests per flush, waiting at
most ``flush_interval`` seconds for stragglers once the first request
of a batch has arrived (``0`` = greedy: take whatever is queued, never
wait).
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.spans import capture_context, record_span, span, use_span

# Handler contract: payloads in, one result per payload, same order.
BatchHandler = Callable[[Sequence[Any]], Sequence[Any]]

_SHUTDOWN = object()


def _set_result_safe(future: Future, result: Any) -> None:
    """Resolve without racing close(): a future that was already failed
    at shutdown absorbs a late worker result instead of crashing the
    worker thread."""
    try:
        future.set_result(result)
    except InvalidStateError:
        pass


def _set_exception_safe(future: Future, error: BaseException) -> None:
    try:
        future.set_exception(error)
    except InvalidStateError:
        pass


@dataclass
class _Request:
    payload: Any
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)
    # Submitting thread's span, captured so worker-side spans re-parent
    # onto the request's trace (None when tracing is off).
    span: Any = field(default_factory=capture_context)


class MicroBatcher:
    """Coalesce submitted payloads into batched handler calls.

    Parameters
    ----------
    handler:
        Called on the worker thread with a list of payloads; must
        return one result per payload in order.  An exception fails
        every future in the flush.
    max_batch_size:
        Flush as soon as this many requests are pending.
    flush_interval:
        Seconds to wait for more requests after the first one of a
        batch arrives.  ``0.0`` means greedy draining: anything already
        queued joins the flush, but the worker never sleeps waiting.
    registry:
        Where flush counts, occupancy, queue wait and execute latency
        are recorded; a private :class:`MetricsRegistry` by default.
    autostart:
        Start the worker immediately.  Pass ``False`` to stage
        requests first (deterministic coalescing in tests) and call
        :meth:`start` later.
    """

    def __init__(
        self,
        handler: BatchHandler,
        max_batch_size: int = 64,
        flush_interval: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
        autostart: bool = True,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if flush_interval < 0:
            raise ValueError(f"flush_interval must be >= 0, got {flush_interval}")
        self.handler = handler
        self.max_batch_size = max_batch_size
        self.flush_interval = flush_interval
        self.registry = registry or MetricsRegistry()
        # Batch sizes are small integers: a fine grid from 1 up keeps
        # every size in its own bucket.
        self._occupancy = self.registry.histogram("batch.occupancy", lo=0.5, hi=1e5)
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._worker: Optional[threading.Thread] = None
        self._closed = False
        # The batch the worker is currently executing; close() fails
        # these futures when the worker never comes back.
        self._inflight: Optional[List[_Request]] = None
        if autostart:
            self.start()

    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._worker is not None:
            return
        self._worker = threading.Thread(
            target=self._run, name="microbatcher-worker", daemon=True
        )
        self._worker.start()

    def submit(self, payload: Any) -> "Future":
        """Enqueue one payload; resolve its result via the future."""
        if self._closed:
            raise RuntimeError("MicroBatcher is closed")
        request = _Request(payload)
        self._queue.put(request)
        return request.future

    def close(self, timeout: float = 5.0) -> None:
        """Drain outstanding requests, then stop the worker.

        A healthy worker finishes its current flush, drains what is
        queued and exits.  If the worker does not stop within
        ``timeout`` seconds (a wedged handler), every undrained future
        — the in-flight batch and everything still queued — is failed
        with ``RuntimeError`` so no caller blocks forever on
        ``future.result()``.  The wedged daemon thread itself is
        abandoned; if its handler ever returns, the already-failed
        futures absorb the late results harmlessly.
        """
        if self._closed:
            return
        self._closed = True
        if self._worker is None:
            return
        self._queue.put(_SHUTDOWN)
        self._worker.join(timeout=timeout)
        if self._worker.is_alive():
            error = RuntimeError(
                f"MicroBatcher worker did not stop within {timeout}s; "
                "request abandoned at shutdown"
            )
            inflight = self._inflight
            if inflight is not None:
                for request in inflight:
                    _set_exception_safe(request.future, error)
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is not _SHUTDOWN:
                    _set_exception_safe(item.future, error)
        self._worker = None

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _collect(self) -> Optional[List[_Request]]:
        """Block for the first request, then coalesce a batch."""
        first = self._queue.get()
        if first is _SHUTDOWN:
            return None
        batch = [first]
        deadline = time.perf_counter() + self.flush_interval
        while len(batch) < self.max_batch_size:
            remaining = deadline - time.perf_counter()
            try:
                if remaining > 0:
                    item = self._queue.get(timeout=remaining)
                else:
                    item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                # Keep the sentinel semantics: finish this flush, exit next.
                self._queue.put(_SHUTDOWN)
                break
            batch.append(item)
        return batch

    def _handle(self, batch: List[_Request], batch_parent: Any) -> Sequence[Any]:
        """Run the handler under the flush's span (no-op when untraced);
        its latency is recorded whether it returns or raises."""
        payloads = [r.payload for r in batch]
        start = time.perf_counter()
        try:
            if batch_parent is None:
                return self.handler(payloads)
            with use_span(batch_parent):
                with span("batch.execute", batch_size=len(batch)) as flush_span:
                    if flush_span is not None:
                        traces = {r.span.trace_id for r in batch if r.span is not None}
                        flush_span.set_attr("traces", sorted(traces))
                    return self.handler(payloads)
        finally:
            self.registry.histogram("stage.batch.execute").observe(
                time.perf_counter() - start
            )

    def _run(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            now = time.perf_counter()
            self._occupancy.observe(len(batch))
            self.registry.counter("batch.flushes").inc()
            self.registry.counter("batch.requests").inc(len(batch))
            queue_wait = self.registry.histogram("stage.batch.queue_wait")
            for request in batch:
                queue_wait.observe(now - request.enqueued_at)
            # Per-request queue-wait spans, parented onto each request's
            # captured trace context; the shared flush span is parented
            # onto the first traced request and carries the full trace
            # list so the other participants stay correlated.
            batch_parent = None
            for request in batch:
                if request.span is not None:
                    if batch_parent is None:
                        batch_parent = request.span
                    record_span(
                        "microbatch.wait",
                        request.span,
                        request.enqueued_at,
                        now - request.enqueued_at,
                    )
            self._inflight = batch
            try:
                results = self._handle(batch, batch_parent)
                if len(results) != len(batch):
                    raise RuntimeError(
                        f"handler returned {len(results)} results "
                        f"for {len(batch)} payloads"
                    )
            except Exception as error:  # noqa: BLE001 — forwarded to futures
                for request in batch:
                    _set_exception_safe(request.future, error)
                self._inflight = None
                continue
            for request, result in zip(batch, results):
                _set_result_safe(request.future, result)
            self._inflight = None
