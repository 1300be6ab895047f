"""Hot-swap serving: watch for published versions, swap without downtime.

:class:`ModelSwapper` closes the serve side of the loop: a background
thread polls the snapshot directory's ``LATEST`` pointer and, when a
newer version appears, loads the checkpoint **off the serving path**
and applies it through
:meth:`repro.serving.RecommendationService.apply_model` — which routes
to the engine's atomic bundle swap (immutable
``(model, score cache, ANN index, version)`` state captured once per
batch; in-flight requests finish on the old bundle) and/or the cluster
router's rolling per-worker re-attach.  No request is ever dropped,
failed, or served a half-swapped model.

Everything expensive — checkpoint load, IVF index rebuild, fresh
score cache — happens on the swapper thread; the serving threads only
ever observe one reference assignment.

Failure modes handled:

- **Pruned checkpoint**: keep-last-N may delete the file between the
  pointer read and the load; the swapper counts a miss and re-polls (a
  newer pointer necessarily exists).
- **Torn pointer**: ``LATEST.json`` is replaced atomically, so a read
  sees the old or the new pointer, never a mix.
- **Load failure**: logged as a metric, old version keeps serving.
- **Apply failure** (e.g. a model whose table sizes do not match the
  dataset): the service validates before it swaps anything, so the old
  version keeps serving; counted in ``swap.apply_failures``.  Either
  failure is final for that version (snapshot writes are atomic): it is
  counted once and skipped, unread, until ``LATEST`` names a newer one.

Metrics (ISSUE 8 instrumentation): ``swap.apply`` latency histogram,
``swap.model_version`` gauge, ``swap.staleness_seconds`` gauge (age of
the serving version's publish stamp — how far serving lags training),
and spans around the load/apply phases.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Union

from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.spans import span
from repro.online.snapshots import SnapshotInfo, read_latest
from repro.persistence import load_model

PathLike = Union[str, "object"]


class ModelSwapper:
    """Poll a snapshot directory; hot-swap a service onto new versions.

    ``service`` is any object with ``apply_model(model, version)`` —
    normally a :class:`~repro.serving.RecommendationService` (covering
    direct, engine and cluster modes).  Deterministic callers (tests,
    benchmarks) can skip the thread and call :meth:`check_once`.
    """

    def __init__(
        self,
        service,
        directory,
        poll_interval: float = 0.2,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {poll_interval}")
        self.service = service
        self.directory = directory
        self.poll_interval = float(poll_interval)
        self.registry = registry or MetricsRegistry()
        self.current: Optional[SnapshotInfo] = None
        #: The version that failed to load or apply, not to be retried.
        self._rejected: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._swap_latency = self.registry.histogram("swap.apply")

    # -- one poll --------------------------------------------------------

    def check_once(self) -> Optional[SnapshotInfo]:
        """Poll once; swap if a newer version is published.

        Returns the newly applied :class:`SnapshotInfo`, or ``None``
        when already current, nothing is published yet, or ``LATEST``
        still names the version that failed (the failure itself raises,
        once).  Updates the staleness gauge either way.
        """
        info = read_latest(self.directory)
        current = self._current_version()
        applied = None
        if (
            info is not None
            and (current is None or info.version > current)
            and info.version != self._rejected
        ):
            applied = self._apply(info)
        self._update_staleness()
        return applied

    def _current_version(self) -> Optional[int]:
        """Version currently serving: the last one this swapper applied,
        else whatever the service was constructed with."""
        if self.current is not None:
            return self.current.version
        return getattr(self.service, "model_version", None)

    def _apply(self, info: SnapshotInfo) -> Optional[SnapshotInfo]:
        started = time.perf_counter()
        with span("swap", version=info.version):
            try:
                with span("swap.load", version=info.version):
                    # The serving half only: the Adam moments a
                    # snapshot carries for resume are never read here.
                    model = load_model(info.path)
            except FileNotFoundError:
                # keep-last-N pruned it under us; a newer pointer exists.
                self.registry.counter("swap.pruned_misses").inc()
                return None
            except BaseException:
                self._rejected = info.version
                self.registry.counter("swap.load_failures").inc()
                raise
            try:
                with span("swap.apply", version=info.version):
                    self.service.apply_model(model, info.version)
            except BaseException:
                # e.g. a snapshot of the wrong size: rejected before
                # anything swapped, the old version keeps serving.
                self._rejected = info.version
                self.registry.counter("swap.apply_failures").inc()
                raise
        self.current = info
        self._swap_latency.observe(time.perf_counter() - started)
        self.registry.counter("swap.applied").inc()
        self.registry.gauge("swap.model_version").set(float(info.version))
        return info

    def _update_staleness(self) -> None:
        if self.current is not None:
            self.registry.gauge("swap.staleness_seconds").set(
                max(0.0, time.time() - self.current.published_at)
            )

    @property
    def staleness_seconds(self) -> Optional[float]:
        """Age of the serving version's publish stamp (None before any
        swap)."""
        if self.current is None:
            return None
        return max(0.0, time.time() - self.current.published_at)

    # -- background watcher ----------------------------------------------

    def start(self) -> "ModelSwapper":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._watch, name="repro-model-swapper", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout)
        self._thread = None

    def _watch(self) -> None:
        while not self._stop.is_set():
            try:
                self.check_once()
            except BaseException:
                # Serving must outlive a bad snapshot; the failure is
                # already counted in swap.load_failures / apply_failures.
                pass
            self._stop.wait(self.poll_interval)

    def __enter__(self) -> "ModelSwapper":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
