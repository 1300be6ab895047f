"""Scatter-gather router over a pool of shard worker processes.

:class:`ShardRouter` is the serving tier's front door: it validates a
request once, scatters it to every worker, gathers each worker's local
Top-K (global ids + scores) and exact-merges them under the engine's
tie-break contract (descending score, ascending global item id).  The
result is bit-identical to a single-process Top-K over the full
catalog — sharding is a deployment detail, not a semantics change.

Failure handling: a worker that times out, dies mid-request, or whose
pipe breaks is killed and restarted **once per request**
(``ClusterConfig.max_restarts_per_request``); the request is re-sent to
the fresh process.  A second failure fails the request with
:class:`ClusterError`.  Restarts are cheap because worker state is a
read-only view of the shared weight store — there is nothing to
recover.

Observability: the router keeps its own
:class:`~repro.obs.metrics_registry.MetricsRegistry` (request
latencies, per-kind counters, restarts) and :meth:`metrics` folds in
every worker's registry via the lossless histogram state/merge path,
so fleet-wide percentiles are exact, not averaged averages.

The router is thread-safe: concurrent callers demultiplex replies by
request id through per-worker mailboxes, so a slow request on one
thread never steals another thread's reply.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.cluster.merge import merge_topk
from repro.cluster.plan import ShardPlan
from repro.cluster.weights import (
    VersionedStoreGC,
    versioned_store_dir,
    write_model_store,
)
from repro.cluster.worker import WorkerSpec, worker_main
from repro.engine.scorer import (
    TopK,
    VersionedTopK,
    check_model_size,
    check_request,
    check_retrieval,
)
from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.spans import adopt_remote_spans, span, trace_context

#: Environment knobs pinned in worker processes so N workers do not
#: oversubscribe the machine with N full BLAS thread pools.
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ClusterError(RuntimeError):
    """A scatter request could not be completed (worker died twice,
    timed out after its restart, or reported an internal error)."""


@dataclass
class ClusterConfig:
    """Deployment shape and failure policy for a shard cluster.

    Attributes
    ----------
    num_workers:
        Worker processes to spawn.
    num_shards:
        Item-catalog shards; defaults to ``num_workers``.  May exceed
        it (shards are assigned round-robin), never be below it.
    strategy:
        :class:`~repro.cluster.plan.ShardPlan` partition strategy.
    keep_last_stores:
        Versioned weight-store directories retained after a hot-swap
        (older ones are garbage-collected once no worker is attached).
    request_timeout_s:
        Gather deadline per request before a worker is declared dead.
    max_restarts_per_request:
        Worker restarts a single request will tolerate before failing.
    start_method:
        ``multiprocessing`` start method; ``spawn`` keeps workers free
        of inherited thread/lock state (the parent runs thread pools).
    start_timeout_s:
        Readiness-ping deadline covering worker boot (imports, store
        attach, dataset load).
    worker_blas_threads:
        BLAS thread cap exported to each worker (None leaves the
        library default, which oversubscribes with many workers).
    retrieval:
        ``"exhaustive"`` (default; bit-identical to pre-ANN behavior)
        or ``"ann"`` — each worker builds an IVF index over its own
        item slice and scores only generated candidates.
    ann_nlist, ann_nprobe, ann_candidates, ann_seed:
        Per-worker :class:`~repro.engine.ann.IVFIndex` knobs (see
        :class:`~repro.engine.service.EngineConfig`); ``ann_nlist`` is
        clamped to each shard's slice size.
    """

    num_workers: int = 2
    num_shards: Optional[int] = None
    strategy: str = "contiguous"
    keep_last_stores: int = 2
    request_timeout_s: float = 30.0
    max_restarts_per_request: int = 1
    start_method: str = "spawn"
    start_timeout_s: float = 120.0
    worker_blas_threads: Optional[int] = 1
    retrieval: str = "exhaustive"
    ann_nlist: Optional[int] = None
    ann_nprobe: int = 8
    ann_candidates: int = 256
    ann_seed: int = 0

    def resolved_shards(self) -> int:
        shards = self.num_shards if self.num_shards is not None else self.num_workers
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        if shards < self.num_workers:
            raise ValueError(
                f"num_shards ({shards}) must be >= num_workers "
                f"({self.num_workers}); idle workers serve nothing"
            )
        return shards


class _WorkerDied(Exception):
    """Internal: a worker failed; carries the generation observed."""

    def __init__(self, reason: str, generation: int) -> None:
        super().__init__(reason)
        self.reason = reason
        self.generation = generation


class _WorkerHandle:
    """Process + pipe + reply mailbox for one worker, thread-safe.

    ``generation`` increments on every restart; requesters capture the
    generation at send time, so a handle restarted underneath a waiting
    thread surfaces as :class:`_WorkerDied` (and a stale requester can
    never restart a fresh process — :meth:`restart` is a no-op unless
    the generation still matches).
    """

    def __init__(self, spec: WorkerSpec, ctx) -> None:
        self.spec = spec
        self._ctx = ctx
        self._lock = threading.RLock()
        self.process = None
        self.conn = None
        self.generation = 0
        self.restarts = 0
        self._mailbox: dict = {}

    def start(self) -> None:
        with self._lock:
            parent_conn, child_conn = self._ctx.Pipe()
            self.process = self._ctx.Process(
                target=worker_main,
                args=(child_conn, self.spec),
                name=f"repro-shard-worker-{self.spec.worker_id}",
                daemon=True,
            )
            self.process.start()
            child_conn.close()
            self.conn = parent_conn
            self._mailbox.clear()

    def stop(self, timeout: float = 5.0) -> None:
        with self._lock:
            process, conn = self.process, self.conn
            self.process = None
            self.conn = None
            self._mailbox.clear()
        if conn is not None:
            with contextlib.suppress(OSError, ValueError):
                conn.send(("stop",))
        if process is not None:
            process.join(timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout)
            if process.is_alive():
                process.kill()
                process.join(timeout)
        if conn is not None:
            with contextlib.suppress(OSError):
                conn.close()

    def send(self, message: tuple) -> int:
        """Send ``message``; returns the generation it was sent under."""
        with self._lock:
            generation = self.generation
            if self.conn is None or self.process is None or not self.process.is_alive():
                raise _WorkerDied("worker process is not running", generation)
            try:
                self.conn.send(message)
            except (OSError, ValueError, BrokenPipeError) as error:
                raise _WorkerDied(f"send failed: {error}", generation) from error
            return generation

    def recv(self, req_id: int, generation: int, deadline: float) -> tuple:
        """Reply for ``req_id``, demultiplexing interleaved responses."""
        while True:
            with self._lock:
                if self.generation != generation:
                    raise _WorkerDied(
                        "worker restarted while awaiting reply", generation
                    )
                if req_id in self._mailbox:
                    return self._mailbox.pop(req_id)
                try:
                    # Short poll slice: the lock is held while polling,
                    # so this bounds how long a concurrent sender (or a
                    # requester whose reply already arrived) can be
                    # blocked behind one waiter.
                    if self.conn.poll(0.002):
                        reply = self.conn.recv()
                        if reply[1] == req_id:
                            return reply
                        if reply[0] == "error" and reply[1] == -1:
                            # Boot failure: addressed to nobody, fatal.
                            raise _WorkerDied(
                                f"worker boot failed: {reply[2]}: {reply[3]}",
                                generation,
                            )
                        self._mailbox[reply[1]] = reply
                        continue
                except (EOFError, OSError) as error:
                    raise _WorkerDied(f"pipe closed: {error}", generation) from error
            if time.monotonic() >= deadline:
                raise _WorkerDied(
                    f"timed out awaiting reply for request {req_id}", generation
                )

    def restart(self, generation: int) -> bool:
        """Kill and respawn if still at ``generation``; True if restarted."""
        with self._lock:
            if self.generation != generation:
                return False  # somebody already recovered this worker
            self.generation += 1
            self.restarts += 1
            process, conn = self.process, self.conn
            self.process = None
            self.conn = None
            self._mailbox.clear()
            if conn is not None:
                with contextlib.suppress(OSError):
                    conn.close()
            if process is not None:
                with contextlib.suppress(Exception):
                    process.kill()
                    process.join(5.0)
            self.start()
            return True

    def alive(self) -> bool:
        with self._lock:
            return self.process is not None and self.process.is_alive()


class ShardRouter:
    """Scatter user/group/ad-hoc Top-K requests across shard workers.

    Build with :meth:`launch` (writes the shared weight store, saves
    the dataset if needed, spawns and readiness-pings the pool)::

        router = ShardRouter.launch(model=model, dataset=dataset,
                                    config=ClusterConfig(num_workers=4))
        items, scores = router.topk_user(7, k=10)
        router.close()

    Also usable as a context manager.
    """

    def __init__(
        self,
        plan: ShardPlan,
        handles: List[_WorkerHandle],
        config: ClusterConfig,
        num_users: int,
        num_groups: int,
        registry: Optional[MetricsRegistry] = None,
        tmpdir: Optional[tempfile.TemporaryDirectory] = None,
        workdir: Optional[Union[str, Path]] = None,
        model_version: int = 0,
    ) -> None:
        self.plan = plan
        self.config = config
        self.num_users = num_users
        self.num_groups = num_groups
        self.registry = registry or MetricsRegistry()
        self._handles = handles
        self._ids = itertools.count()
        self._tmpdir = tmpdir
        self._workdir = None if workdir is None else Path(workdir)
        self._version = int(model_version)
        self._swap_lock = threading.Lock()
        self._gc = VersionedStoreGC(keep_last=config.keep_last_stores)
        for handle in handles:
            self._gc.confirm(handle.spec.worker_id, handle.spec.model_version)
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def launch(
        cls,
        model,
        dataset,
        config: Optional[ClusterConfig] = None,
        workdir: Optional[Union[str, Path]] = None,
        dataset_path: Optional[Union[str, Path]] = None,
    ) -> "ShardRouter":
        """Materialize the store, spawn the pool, wait for readiness.

        ``workdir`` (default: a self-cleaning temp directory) receives
        the weight store and, when ``dataset_path`` is not supplied, a
        saved copy of the dataset for workers to load.
        """
        import multiprocessing

        from repro.data.io import save_dataset

        config = config or ClusterConfig()
        check_retrieval(config.retrieval)
        num_shards = config.resolved_shards()
        plan = ShardPlan(dataset.num_items, num_shards, config.strategy)
        tmpdir = None
        if workdir is None:
            tmpdir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            workdir = tmpdir.name
        workdir = Path(workdir)
        store_dir = versioned_store_dir(workdir, 0)
        write_model_store(model, store_dir)
        if dataset_path is None:
            dataset_path = workdir / "dataset.npz"
            save_dataset(dataset, dataset_path)
        specs = [
            WorkerSpec(
                worker_id=worker,
                shards=tuple(range(worker, num_shards, config.num_workers)),
                plan=plan,
                store_dir=str(store_dir),
                dataset_path=str(dataset_path),
                retrieval=config.retrieval,
                ann_nlist=config.ann_nlist,
                ann_nprobe=config.ann_nprobe,
                ann_candidates=config.ann_candidates,
                ann_seed=config.ann_seed,
            )
            for worker in range(config.num_workers)
        ]
        ctx = multiprocessing.get_context(config.start_method)
        handles = [_WorkerHandle(spec, ctx) for spec in specs]
        router = cls(
            plan,
            handles,
            config,
            num_users=dataset.num_users,
            num_groups=dataset.num_groups,
            tmpdir=tmpdir,
            workdir=workdir,
        )
        router._gc.register(0, store_dir)
        saved_env = {name: os.environ.get(name) for name in _BLAS_ENV}
        try:
            if config.worker_blas_threads is not None:
                for name in _BLAS_ENV:
                    os.environ[name] = str(config.worker_blas_threads)
            for handle in handles:
                handle.start()
        finally:
            for name, value in saved_env.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
        try:
            router._ping_all(config.start_timeout_s)
        except BaseException:
            router.close()
            raise
        return router

    def close(self) -> None:
        """Stop every worker and release the scratch directory."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            handle.stop()
        if self._tmpdir is not None:
            with contextlib.suppress(OSError):
                self._tmpdir.cleanup()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def num_workers(self) -> int:
        return len(self._handles)

    @property
    def model_version(self) -> int:
        """Most recently published model version."""
        return self._version

    @property
    def worker_restarts(self) -> int:
        """Lifetime restarts across the pool."""
        return sum(handle.restarts for handle in self._handles)

    def workers_alive(self) -> int:
        return sum(1 for handle in self._handles if handle.alive())

    # -- request surface -------------------------------------------------

    def topk(self, kind: str, arg, k: int = 10) -> VersionedTopK:
        """Validate, scatter and merge one ``user`` / ``group`` / ``adhoc``
        request.  The third element is the *minimum* model version any
        contributing worker served — during a rolling swap the fleet is
        briefly mixed, and the oldest contributor bounds how stale the
        merged list can be.
        """
        payload = check_request(kind, arg, k, self.num_users, self.num_groups)
        return self._scatter(kind, payload, k)

    def topk_user_versioned(self, user: int, k: int = 10) -> VersionedTopK:
        return self.topk("user", user, k)

    def topk_group_versioned(self, group: int, k: int = 10) -> VersionedTopK:
        return self.topk("group", group, k)

    def topk_members_versioned(
        self, members: Sequence[int], k: int = 10
    ) -> VersionedTopK:
        return self.topk("adhoc", members, k)

    def topk_user(self, user: int, k: int = 10) -> TopK:
        return self.topk("user", user, k)[:2]

    def topk_group(self, group: int, k: int = 10) -> TopK:
        return self.topk("group", group, k)[:2]

    def topk_members(self, members: Sequence[int], k: int = 10) -> TopK:
        return self.topk("adhoc", members, k)[:2]

    # -- hot-swap ----------------------------------------------------------

    def swap_model(self, model, version: Optional[int] = None) -> int:
        """Roll the fleet onto ``model`` one worker at a time.

        Writes a new versioned weight store, then re-attaches each
        worker in turn (the others keep serving the old version, so the
        pool never goes dark).  A worker whose swap op fails is killed
        and restarted directly against the new store.  Old store
        directories are garbage-collected once outside the
        ``keep_last_stores`` window *and* no worker is attached.

        A model whose table sizes are not the fleet's is a ``ValueError``
        before anything is written: no worker could attach it, and the
        restart fallback would strand the fleet on it.

        Returns the new version; versions must be strictly increasing.
        """
        if self._closed:
            raise ClusterError("router is closed")
        if self._workdir is None:
            raise ClusterError(
                "router has no workdir to publish versioned stores into"
            )
        check_model_size(model, self.num_users, self.plan.num_items)
        with self._swap_lock:
            version = self._version + 1 if version is None else int(version)
            if version <= self._version:
                raise ValueError(
                    f"model_version must increase: {version} <= {self._version}"
                )
            start = time.perf_counter()
            with span("cluster.swap", version=int(version)):
                store_dir = versioned_store_dir(self._workdir, version)
                with span("cluster.swap.store_write", version=int(version)):
                    write_model_store(model, store_dir)
                self._gc.register(version, store_dir)
                for handle in self._handles:
                    with span(
                        "cluster.swap.worker",
                        worker=handle.spec.worker_id,
                        version=int(version),
                    ):
                        self._swap_worker(handle, store_dir, version)
                    self._gc.confirm(handle.spec.worker_id, version)
            self._version = version
            self.registry.counter("router.swaps").inc()
            self.registry.histogram("router.swap").observe(
                time.perf_counter() - start
            )
            self.registry.gauge("router.model_version").set(float(version))
            self._gc.collect()
        return version

    def _swap_worker(self, handle: _WorkerHandle, store_dir: Path, version: int) -> None:
        """Move one worker to ``store_dir``; restart it if the op fails."""
        deadline = time.monotonic() + (
            self.config.request_timeout_s + self.config.start_timeout_s
        )
        new_spec = dataclasses.replace(
            handle.spec, store_dir=str(store_dir), model_version=version
        )
        req_id = next(self._ids)
        try:
            generation = handle.send(("swap", req_id, str(store_dir), version))
            reply = handle.recv(req_id, generation, deadline)
            if reply[0] == "error":
                raise _WorkerDied(
                    f"swap failed: {reply[2]}: {reply[3]}", generation
                )
        except _WorkerDied as died:
            # Fall back to a restart straight onto the new store: spec
            # update first so the fresh process boots the new version.
            handle.spec = new_spec
            if handle.restart(died.generation):
                self.registry.counter("router.worker_restarts").inc()
            ping_id = next(self._ids)
            try:
                generation = handle.send(("ping", ping_id))
                reply = handle.recv(ping_id, generation, deadline)
            except _WorkerDied as died_again:
                raise ClusterError(
                    f"worker {handle.spec.worker_id} failed to re-attach to "
                    f"model version {version}: {died_again.reason}"
                ) from died_again
            if reply[0] == "error":
                raise ClusterError(
                    f"worker {handle.spec.worker_id} failed to boot on "
                    f"model version {version}: {reply[2]}: {reply[3]}"
                )
            return
        # Swap confirmed in-process: future restarts must boot the new
        # store, so the spec follows the confirm.
        handle.spec = new_spec

    # -- scatter-gather core ---------------------------------------------

    def _scatter(self, kind: str, payload, k: int) -> VersionedTopK:
        if self._closed:
            raise ClusterError("router is closed")
        # ``span`` is a shared no-op when tracing is off, and
        # ``trace_context()`` is then None, so the untraced path sends
        # the exact pre-tracing 5-tuple over the pipe.
        with span(
            "router.scatter", kind=kind, workers=len(self._handles)
        ) as scatter_span:
            return self._scatter_gather(kind, payload, k, scatter_span)

    def _scatter_gather(self, kind: str, payload, k: int, scatter_span) -> VersionedTopK:
        req_id = next(self._ids)
        context = trace_context()
        message = ("score", req_id, kind, payload, int(k))
        if context is not None:
            message = message + (context,)
        start = time.perf_counter()
        deadline = start + self.config.request_timeout_s
        # Phase 1: fan the request out so workers compute concurrently;
        # send failures are deferred to the gather phase's retry logic.
        sent: dict = {}
        for handle in self._handles:
            try:
                sent[handle] = handle.send(message)
            except _WorkerDied as died:
                sent[handle] = died
        # Phase 2: gather, restarting a failed worker at most
        # ``max_restarts_per_request`` times before giving up.
        parts = []
        versions: List[int] = []
        for handle in self._handles:
            state = sent[handle]
            attempts = 0
            while True:
                try:
                    if isinstance(state, _WorkerDied):
                        raise state
                    reply = handle.recv(req_id, state, deadline)
                    break
                except _WorkerDied as died:
                    if attempts >= self.config.max_restarts_per_request:
                        raise ClusterError(
                            f"worker {handle.spec.worker_id} (shards "
                            f"{list(handle.spec.shards)}) failed a {kind} "
                            f"request after {attempts} restart(s): {died.reason}"
                        ) from died
                    attempts += 1
                    if handle.restart(died.generation):
                        self.registry.counter("router.worker_restarts").inc()
                    # Fresh process: give the retry a boot-inclusive deadline.
                    deadline = time.monotonic() + (
                        self.config.request_timeout_s + self.config.start_timeout_s
                    )
                    try:
                        state = handle.send(message)
                    except _WorkerDied as died_again:
                        state = died_again
            if reply[0] == "error":
                raise ClusterError(
                    f"worker {handle.spec.worker_id} failed a {kind} "
                    f"request: {reply[2]}: {reply[3]}"
                )
            if scatter_span is not None and len(reply) > 5:
                adopt_remote_spans(scatter_span, reply[5])
            parts.append((reply[2], reply[3]))
            versions.append(int(reply[4]) if len(reply) > 4 else 0)
        with span("router.merge", parts=len(parts)):
            merged = merge_topk(parts, k)
        self.registry.counter(f"router.requests.{kind}").inc()
        self.registry.histogram("router.request").observe(
            time.perf_counter() - start
        )
        return merged + (min(versions),)

    # -- metrics ---------------------------------------------------------

    def metrics(self) -> MetricsRegistry:
        """Router metrics + every reachable worker's, exactly merged."""
        merged = MetricsRegistry()
        merged.merge(self.registry)
        for handle in self._handles:
            req_id = next(self._ids)
            try:
                generation = handle.send(("metrics", req_id))
                reply = handle.recv(
                    req_id,
                    generation,
                    time.monotonic() + self.config.request_timeout_s,
                )
            except _WorkerDied:
                merged.counter("router.metrics_gather_failures").inc()
                continue
            if reply[0] != "metrics":
                merged.counter("router.metrics_gather_failures").inc()
                continue
            merged.merge(MetricsRegistry.from_state(reply[2]))
        return merged

    def metrics_payload(self) -> dict:
        """JSON-friendly summary of the merged fleet metrics."""
        return self.metrics().payload()

    # -- readiness -------------------------------------------------------

    def _ping_all(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        for handle in self._handles:
            req_id = next(self._ids)
            try:
                generation = handle.send(("ping", req_id))
                reply = handle.recv(req_id, generation, deadline)
            except _WorkerDied as died:
                raise ClusterError(
                    f"worker {handle.spec.worker_id} failed to come up: "
                    f"{died.reason}"
                ) from died
            if reply[0] == "error":
                raise ClusterError(
                    f"worker {handle.spec.worker_id} failed to boot: "
                    f"{reply[2]}: {reply[3]}"
                )
