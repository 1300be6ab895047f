"""The six benchmark workloads, their shared fixture and their checks.

Load is a closed loop with one client: callers of this library each wait
for a reply.  ``--seed`` drives only the generated inputs (request
stream, member sets, event log, training split); world and model seeds
are fixed.  A timed window runs whole blocks of fixed composition until
``--seconds`` have passed, so the work content of a block repeats exactly
while the window length follows the flag.  Every timing is corrected for
the speed of the host at that moment (:class:`Yardstick`).
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import math
import statistics
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from layers import K, Layers, Trace, layer_values

from repro.cluster.router import ClusterConfig
from repro.core.adhoc import AdhocGroupRecommender
from repro.core.config import GroupSAConfig
from repro.data.loaders import GroupBatcher
from repro.data.presets import yelp_like_config
from repro.data.splits import split_interactions
from repro.data.synthetic import generate
from repro.engine.service import EngineConfig
from repro.online.events import EventLogReader, generate_events, write_event_log
from repro.online.snapshots import SnapshotPublisher
from repro.online.swap import ModelSwapper
from repro.online.trainer import OnlineTrainer
from repro.serving import Recommendation, RecommendationService
from repro.training.trainer import GroupSATrainer, TrainingConfig
from repro.training.two_stage import build_model

#: World scale (share of the Yelp entity counts) and catalog size per
#: workload.  The sizes are set by the run budget (README, "The driver's
#: contract"): 136 runs in 3420 s, each with three set-ups, so one
#: set-up must stay near two seconds.
SCALE, SMOKE_SCALE = 0.03, 0.004
ITEMS = {
    "serve_direct": 2000,
    "serve_engine": 2000,
    "serve_ann": 4000,
    "serve_cluster": 2000,
    "train_two_stage": 2000,
    "online_cycle": 1000,
}
SMOKE_ITEMS = 200

SETUP_REPEATS = 3
#: Yardstick samples before and after each set-up.
SETUP_YARDSTICKS = 8
WARMUP_REQUESTS = 10
#: Every 8th operation is checked for correctness (and, in a traced run,
#: replayed layer by layer), outside the timed span of the operation.
CHECK_EVERY = 8
#: One block of the request stream: 60 % user, 25 % group, 15 % ad-hoc.
BLOCK_MIX = (("user", 12), ("group", 5), ("adhoc", 3))
#: serve_engine and online_cycle draw user ids from the first score-cache
#: block, so a run pays a fixed number of block fills.
CACHED_USERS = EngineConfig().score_block_rows
RECALL_SAMPLE = (("user", 40), ("group", 12), ("adhoc", 12))
RECALL_SEED = 0
EVENTS_PER_CYCLE = 256
#: The requests of one online cycle after its first: 40 in all, 3 user : 1 group.
CYCLE_MIX = (("user", 29), ("group", 10))
SMOKE_CYCLE_MIX = (("user", 5), ("group", 2))
#: However slow the machine, a run times at least 240 requests.
MIN_CYCLES = 6


@dataclasses.dataclass
class Fixture:
    dataset: object
    split: object
    model: object
    batcher: GroupBatcher


def build_fixture(
    items: int,
    smoke: bool,
    trace: Optional[Trace] = None,
    pretrain: bool = True,
    split_seed: int = 0,
) -> Fixture:
    """World, split and model; with ``pretrain`` one user epoch plus two
    group epochs, so the tables are not init noise."""
    config = dataclasses.replace(
        yelp_like_config(scale=SMOKE_SCALE if smoke else SCALE), num_items=items
    )
    with trace.span("data.generate") if trace else nullcontext():
        dataset = generate(config).dataset
    split = split_interactions(dataset, rng=split_seed)
    model, batcher = build_model(split, GroupSAConfig())
    if pretrain:
        trainer = GroupSATrainer(model, split, batcher, TrainingConfig())
        trainer.train_user_task(epochs=1)
        trainer.train_group_task(epochs=2)
    return Fixture(dataset, split, model, batcher)


# ----------------------------------------------------------------------
# The yardstick and the timed window
# ----------------------------------------------------------------------


class Yardstick:
    """A fixed piece of work that uses none of the repo's code.

    The reference box slows by 10-70 % for seconds to minutes at a time,
    and CPU time rises with wall time, so it is the machine and not the
    program (README, "Host speed").  The yardstick is timed beside
    everything the benchmark times, and each timing is multiplied by
    ``REFERENCE_S`` over the yardstick's time then.  Half of it is
    single-threaded numpy on preallocated arrays (a gather out of a
    table larger than L2, element-wise maths, a reduction) and half is
    interpreter work.  It calls no BLAS and allocates nothing, so the
    state of a thread pool or of the allocator cannot move it.
    """

    #: Its time on the reference box undisturbed: corrected values read
    #: as times on that box in its fast state.
    REFERENCE_S = 0.62e-3
    SAMPLES = 4

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.table = rng.standard_normal((20000, 64))
        self.index = rng.integers(0, 20000, 1000)
        self.rows = np.empty((1000, 64))
        self.work = np.empty((1000, 64))
        self.column = np.empty((1000, 1))

    def once(self) -> float:
        """CPU time of the calling thread over one pass: threads of the
        program that still spin on the other core do not stretch it."""
        start = time.thread_time()
        np.take(self.table, self.index, axis=0, out=self.rows)
        np.exp(self.rows, out=self.work)
        np.multiply(self.work, self.rows, out=self.work)
        np.max(self.work, axis=1, keepdims=True, out=self.column)
        np.subtract(self.work, self.column, out=self.work)
        total = 0
        for index in range(8000):
            total += index % 7
        return time.thread_time() - start

    def speed(self, samples: int = SAMPLES) -> float:
        """Host speed now, 1.0 being the reference box undisturbed: the
        median of ``samples`` passes after one that warms the caches."""
        self.once()
        return self.REFERENCE_S / statistics.median(self.once() for __ in range(samples))


@dataclasses.dataclass
class Sample:
    """One timing: seconds per unit as measured, the stretch of the
    window it fell in, and the same seconds at reference speed (filled
    in when the window closes)."""

    kind: str
    raw: float
    units: int
    is_op: bool
    stretch: int
    value: float = 0.0


class Window:
    """Times operations of named kinds until ``seconds`` have passed.

    ``units`` is the work an operation counts for in the throughput (one
    per request, the optimizer steps of an epoch, nothing for a phase
    that only prepares requests); its latency sample is time per unit.
    After an operation, once :data:`STRETCH_S` have passed since the
    last time, the yardstick is timed: that ends a stretch.  When the
    window closes, every sample is corrected by the median host speed of
    the :data:`SMOOTH` stretches around its own.  With a trace, odd
    blocks are spanned and even blocks are not, so the same run yields
    the span overhead.
    """

    STRETCH_S = 0.25
    SMOOTH = 5

    def __init__(
        self,
        seconds: float,
        yardstick: Yardstick,
        trace: Optional[Trace] = None,
    ) -> None:
        self.seconds = seconds
        self.yardstick = yardstick
        self.trace = trace
        self.samples: List[Sample] = []
        self.speeds: List[float] = []
        self.spanned: Dict[Tuple[str, bool], List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.sampled = False
        self._block = 0
        self._closed = False
        self.elapsed = 0.0
        self.yardstick_s = 0.0  # time the yardstick has taken out of the window
        self._start = self._stretch = time.perf_counter()

    def next_block(self, more: bool = False) -> bool:
        """True while the window is open; call once per block.  ``more``
        keeps it open past its time (a workload's least sample count)."""
        open_ = self.progress() < 1.0 or more
        self._block += 1
        if not open_:
            self.elapsed = time.perf_counter() - self._start
            self._end_stretch()
            reach = self.SMOOTH // 2
            for sample in self.samples:
                around = self.speeds[max(0, sample.stretch - reach):sample.stretch + reach + 1]
                sample.value = sample.raw * statistics.median(around)
            self._closed = True
        return open_

    def progress(self) -> float:
        return (time.perf_counter() - self._start) / self.seconds

    def _end_stretch(self) -> None:
        start = time.perf_counter()
        self.speeds.append(self.yardstick.speed())
        self._stretch = time.perf_counter()
        self.yardstick_s += self._stretch - start

    def op(
        self,
        kind: str,
        call: Callable[[], object],
        units: int = 1,
        replay: Optional[Callable[[], None]] = None,
        always_sample: bool = False,
    ):
        """Run ``call`` as one timed operation; returns its result, or
        ``None`` when it raised (counted as a failure)."""
        index = self.attempted
        self.attempted += 1
        self.sampled = always_sample or index % CHECK_EVERY == 0
        spanned = self.trace is not None and self._block % 2 == 1
        result = None
        start = time.perf_counter()
        try:
            if spanned:
                with self.trace.span(kind, op=index) as record:
                    result = call()
            else:
                result = call()
        except Exception as error:  # a failed operation is a result, not a crash
            self.fail(f"{kind} {index}: {error!r}")
        end = time.perf_counter()
        self.samples.append(
            Sample(kind, (end - start) / max(units, 1), units, True, len(self.speeds))
        )
        self.spanned.setdefault((kind, spanned), []).append(end - start)
        if spanned and self.sampled and replay is not None:
            with self.trace.under(record["id"]):
                replay()
        if time.perf_counter() - self._stretch >= self.STRETCH_S:
            self._end_stretch()
        return result

    def record(self, kind: str, seconds: float) -> None:
        """A timing that spans several operations; corrected with them,
        and left out of the throughput."""
        self.samples.append(Sample(kind, seconds, 0, False, len(self.speeds)))

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)

    def span_overhead_share(self) -> float:
        """Spanned against unspanned time per operation, weighted by kind."""
        weighted = weight = 0.0
        for kind in {kind for kind, __ in self.spanned}:
            on = self.spanned.get((kind, True))
            off = self.spanned.get((kind, False))
            if on and off:
                total = sum(on) + sum(off)
                weighted += (statistics.mean(on) / statistics.mean(off) - 1.0) * total
                weight += total
        return weighted / weight if weight else 0.0

    # -- what the window measured ----------------------------------------

    def _chosen(self, keep: Callable[[Sample], bool]) -> List[Sample]:
        if not self._closed:
            raise RuntimeError("the window is still open")
        return [s for s in self.samples if keep(s)]

    def timing(self, kinds: Optional[Sequence[str]], quantile: float = 0.5) -> dict:
        """A quantile of the time per unit over the samples of ``kinds``
        (``None``: every operation that counts units), each weighted by
        its units, in ms; ``raw`` is the same uncorrected."""
        chosen = self._chosen(
            lambda s: s.kind in kinds if kinds is not None else s.units > 0
        )
        weights = [max(s.units, 1) for s in chosen]

        def at(values: List[float]) -> float:
            ordered = np.sort(np.repeat(values, weights))
            return float(ordered[math.ceil(quantile * ordered.size) - 1]) * 1e3

        return {
            "value": at([s.value for s in chosen]),
            "unit": "ms",
            "n": len(chosen),
            "raw": at([s.raw for s in chosen]),
        }

    def rate(self, kinds: Optional[Sequence[str]] = None) -> dict:
        """Units per second of the time spent in the operations of
        ``kinds`` (``None``: in every operation of the window)."""
        chosen = self._chosen(lambda s: s.is_op and (kinds is None or s.kind in kinds))
        units = sum(s.units for s in chosen)
        return {
            "value": units / sum(s.value * max(s.units, 1) for s in chosen),
            "unit": "1/s",
            "n": units,
            "raw": units / sum(s.raw * max(s.units, 1) for s in chosen),
        }

    def metrics(self) -> Dict[str, dict]:
        """The metrics every workload reports from its timed window."""
        return {
            "throughput_ops_s": self.rate(),
            "latency_p95_ms": self.timing(None, 0.95),
            "failed_share": self.failed_share(),
        }

    def failed_share(self) -> dict:
        return {"value": self.failed / self.attempted, "unit": "share", "n": self.attempted}


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def rank(scores: np.ndarray, exclude, k: int) -> np.ndarray:
    """The ranking contract, written out: unexcluded ids by descending
    score, ties by ascending id."""
    keep = np.ones(scores.size, dtype=bool)
    keep[list(exclude)] = False
    ids = np.nonzero(keep)[0]
    return ids[np.lexsort((ids, -scores[ids]))[:k]]


class Oracle:
    """Full-catalog scoring of one request through the model alone."""

    def __init__(self, fixture: Fixture) -> None:
        self.dataset, self.model = fixture.dataset, fixture.model
        self.items = np.arange(self.dataset.num_items, dtype=np.int64)
        self.user_items = self.dataset.user_items()
        self.group_items = self.dataset.group_items()
        self.batcher = GroupBatcher(self.dataset)
        self.adhoc = AdhocGroupRecommender(self.model, self.dataset)

    def excluded(self, kind: str, arg) -> set:
        if kind == "user":
            return self.user_items[arg]
        if kind == "group":
            return self.group_items[arg]
        return set().union(*(self.user_items[int(m)] for m in arg))

    def top(self, kind: str, arg, k: int = K) -> List[int]:
        n = self.items.size
        if kind == "user":
            scores = self.model.score_user_items(np.full(n, arg), self.items)
        elif kind == "group":
            scores = self.model.score_group_items(
                self.batcher.batch(np.full(n, arg)), self.items
            )
        else:
            scores = self.adhoc.score(list(arg), self.items)
        return rank(scores, self.excluded(kind, arg), k).tolist()


def same_list(got: Optional[Recommendation], items: Sequence[int], scores=None) -> bool:
    if got is None or got.items != list(items):
        return False
    return scores is None or bool(np.allclose(got.scores, scores, rtol=1e-9, atol=0.0))


def within_contract(got: Optional[Recommendation], excluded: set) -> bool:
    """What an approximate list must still satisfy: K distinct,
    unexcluded ids with scores in descending order."""
    if got is None or len(got.items) != K or len(set(got.items)) != K:
        return False
    if excluded.intersection(got.items):
        return False
    return all(a >= b for a, b in zip(got.scores, got.scores[1:]))


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------


class RequestStream:
    """Seeded request stream in blocks of fixed composition."""

    def __init__(self, dataset, seed, user_pool: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.dataset = dataset
        self.user_pool = min(user_pool, dataset.num_users)
        self.member_sets = [
            tuple(
                int(m)
                for m in self.rng.choice(
                    dataset.num_users, size=int(self.rng.integers(2, 7)), replace=False
                )
            )
            for __ in range(64)
        ]

    def draw(self, kind: str):
        if kind == "user":
            return int(self.rng.integers(0, self.user_pool))
        if kind == "group":
            return int(self.rng.integers(0, self.dataset.num_groups))
        return self.member_sets[int(self.rng.integers(0, len(self.member_sets)))]

    def block(self, mix=BLOCK_MIX) -> List[tuple]:
        kinds = [kind for kind, count in mix for __ in range(count)]
        self.rng.shuffle(kinds)
        return [(kind, self.draw(kind)) for kind in kinds]


def send(service: RecommendationService, kind: str, arg) -> Recommendation:
    if kind == "user":
        return service.recommend_for_user(arg, k=K)
    if kind == "group":
        return service.recommend_for_group(arg, k=K)
    return service.recommend_for_members(list(arg), k=K)


class Workload:
    """What the runner needs of a workload: ``setup`` (all of it is
    ``setup_s``), ``run`` (the timed window and its checks; leaves the
    window in ``self.win``) and ``close``."""

    def __init__(self, name: str, smoke: bool, seed: int, workdir: Path) -> None:
        self.name = name
        self.smoke, self.seed, self.workdir = smoke, seed, workdir
        self.items = SMOKE_ITEMS if smoke else ITEMS[name]
        self.service: Optional[RecommendationService] = None
        self.yardstick = Yardstick()

    def window(self, seconds: float, layers: Optional[Layers]) -> Window:
        return Window(seconds, self.yardstick, layers.tr if layers else None)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def probe_sample(self) -> tuple:
        """The fixed operations the per-layer suite is driven over."""
        stream = RequestStream(self.fx.dataset, 0, self.fx.dataset.num_users)
        return (
            [stream.draw("user") for __ in range(8)],
            [stream.draw("group") for __ in range(8)],
            [stream.draw("adhoc") for __ in range(4)],
        )


class ServeWorkload(Workload):
    """``RecommendationService`` in one serving mode under the 60/25/15 mix."""

    def __init__(self, name: str, smoke: bool, seed: int, workdir: Path) -> None:
        super().__init__(name, smoke, seed, workdir)
        self.mode = name.split("_", 1)[1]

    def setup(self, trace: Optional[Trace] = None) -> None:
        self.fx = build_fixture(self.items, self.smoke, trace)
        self.service = RecommendationService(model=self.fx.model, dataset=self.fx.dataset)
        if self.mode == "engine":
            engine = self.service.enable_engine(EngineConfig())
            engine.warm(np.arange(min(CACHED_USERS, self.fx.dataset.num_users)))
        elif self.mode == "ann":
            self.service.enable_engine(EngineConfig(retrieval="ann"))
        elif self.mode == "cluster":
            self.service.enable_cluster(
                ClusterConfig(num_workers=2, num_shards=2),
                workdir=self.workdir / f"cluster-{time.monotonic_ns()}",
            )

    def run(self, seconds: float, layers: Optional[Layers]) -> Dict[str, dict]:
        dataset = self.fx.dataset
        pool = CACHED_USERS if self.mode == "engine" else dataset.num_users
        stream = RequestStream(dataset, self.seed, pool)
        for kind, arg in stream.block()[:WARMUP_REQUESTS]:
            send(self.service, kind, arg)
        checks: List[tuple] = []
        win = self.window(seconds, layers)
        while win.next_block():
            for kind, arg in stream.block():
                got = win.op(
                    kind,
                    lambda: send(self.service, kind, arg),
                    replay=(lambda: layers.replay(self.mode, kind, arg)) if layers else None,
                )
                if win.sampled:
                    checks.append((kind, arg, got))
        self.win = win
        quality = self.verify(win, checks)
        return {
            **win.metrics(),
            **{f"{kind}_p50_ms": win.timing([kind]) for kind, __ in BLOCK_MIX},
            **quality,
        }

    def verify(self, win: Window, checks: List[tuple]) -> Dict[str, dict]:
        """Check every sampled response; mismatches count as failures."""
        oracle = Oracle(self.fx)
        if self.mode == "direct":
            for kind, arg, got in checks:
                if not same_list(got, oracle.top(kind, arg)):
                    win.fail(f"{kind} {arg}: list differs from the oracle")
            return {}
        reference = RecommendationService(model=self.fx.model, dataset=self.fx.dataset)
        if self.mode != "ann":
            for kind, arg, got in checks:
                want = send(reference, kind, arg)
                if not same_list(got, want.items, want.scores):
                    win.fail(f"{kind} {arg}: list differs from direct mode")
            return {}
        for kind, arg, got in checks:
            if not within_contract(got, oracle.excluded(kind, arg)):
                win.fail(f"{kind} {arg}: list breaks the ranking contract")
        # Recall against the model's own exhaustive list, not against
        # brute-force inner product (that is engine.ann.ip_recall_at_10).
        # The sample is the same in every run: recall belongs to the
        # world, the model and the index, all fixed, and across seeded
        # samples of 64 it ranged from 0.29 to 0.55, which would hide
        # any change under its bound of 0.01.
        stream = RequestStream(self.fx.dataset, RECALL_SEED, self.fx.dataset.num_users)
        recalls = []
        for kind, count in RECALL_SAMPLE:
            for __ in range(count if not self.smoke else 2):
                arg = stream.draw(kind)
                exact = send(reference, kind, arg).items
                recalls.append(len(set(send(self.service, kind, arg).items) & set(exact)) / K)
        return {
            "recall_at_10_mean": {"value": statistics.mean(recalls), "unit": "share", "n": len(recalls)},
            "recall_at_10_min": {"value": min(recalls), "unit": "share", "n": len(recalls)},
        }


# ----------------------------------------------------------------------
# Training workload
# ----------------------------------------------------------------------


class TrainWorkload(Workload):
    """User task for the first half of the window, then the group task,
    on a fresh model with the default ``TrainingConfig``.  An operation
    is one epoch; its latency sample is time per optimizer step."""

    def setup(self, trace: Optional[Trace] = None) -> None:
        self.fx = build_fixture(
            self.items, self.smoke, trace, pretrain=False, split_seed=self.seed
        )
        self.trainer = GroupSATrainer(
            self.fx.model, self.fx.split, self.fx.batcher, TrainingConfig()
        )

    def run(self, seconds: float, layers: Optional[Layers]) -> Dict[str, dict]:
        trainer, train = self.trainer, self.fx.split.train
        epoch_steps = {
            task: -(-len(getattr(train, f"{task}_item")) // trainer.config.batch_size)
            for task in ("user", "group")
        }
        losses: Dict[str, List[float]] = {"user": [], "group": []}
        win = self.window(seconds, layers)
        # Two epochs of each task at least, however short the window:
        # the loss check compares a last epoch with a first.
        while win.next_block(more=len(losses["group"]) < 2):
            first_stage = win.progress() < 0.5 or len(losses["user"]) < 2
            task = "user" if first_stage else "group"
            steps = epoch_steps[task]
            run_epoch = getattr(trainer, f"train_{task}_task")
            history = win.op(
                task,
                lambda: run_epoch(epochs=1),
                units=steps,
                replay=(lambda: layers.replay_steps(task, steps)) if layers else None,
            )
            if history is not None:
                losses[task].append(history.epochs[-1].loss)
        for task, series in losses.items():
            if not all(math.isfinite(loss) for loss in series):
                win.fail(f"{task} task: non-finite loss")
            elif series[-1] >= series[0]:
                win.fail(f"{task} task: final loss {series[-1]} not below first {series[0]}")
        self.win = win
        return {
            **win.metrics(),
            "train_user_steps_s": win.rate(["user"]),
            "train_group_steps_s": win.rate(["group"]),
        }


# ----------------------------------------------------------------------
# Online workload
# ----------------------------------------------------------------------


class OnlineWorkload(Workload):
    """Event -> published -> served cycles, synchronous and single-threaded:
    read events, train on them, publish, swap, then serve requests."""

    trainer: Optional[OnlineTrainer] = None

    def setup(self, trace: Optional[Trace] = None) -> None:
        self.fx = build_fixture(self.items, self.smoke, trace)
        self.snapshots = self.workdir / f"snapshots-{time.monotonic_ns()}"
        self.trainer = OnlineTrainer(
            copy.deepcopy(self.fx.model), self.fx.dataset, SnapshotPublisher(self.snapshots)
        )
        self.service = RecommendationService(
            model=self.fx.model, dataset=self.fx.dataset, model_version=0
        )
        self.service.enable_engine(EngineConfig())
        self.swapper = ModelSwapper(self.service, self.snapshots)
        self.published = {self.trainer.publish().version}
        self.swapper.check_once()

    def close(self) -> None:
        if self.trainer is not None:
            self.trainer.close()
            self.trainer = None
        super().close()

    def run(self, seconds: float, layers: Optional[Layers]) -> Dict[str, dict]:
        dataset = self.fx.dataset
        log = self.workdir / "events.jsonl"
        write_event_log(
            log,
            generate_events(dataset, EVENTS_PER_CYCLE * 8, rng=np.random.default_rng(self.seed)),
        )
        self.reader = EventLogReader(log)
        self.stream = RequestStream(dataset, self.seed + 1, CACHED_USERS)
        self.layers = layers
        self.cycle(self.window(seconds, None))  # warm-up cycle, not measured
        win = self.window(seconds, layers)
        cycles = 0
        while win.next_block(more=cycles < MIN_CYCLES and not self.smoke):
            self.cycle(win)
            cycles += 1
        self.win = win
        return {
            **win.metrics(),
            "user_p50_ms": win.timing(["user"]),
            "group_p50_ms": win.timing(["group"]),
            "staleness_p50_ms": win.timing(["staleness"]),
        }

    def cycle(self, win: Window) -> None:
        trainer, layers = self.trainer, self.layers
        offset = self.reader.offset
        started = time.perf_counter() - win.yardstick_s  # a clock the yardstick stops
        events = win.op(
            "read",
            lambda: self.reader.read_batch(EVENTS_PER_CYCLE),
            units=0,
            replay=lambda: layers.replay_online("read", (self.reader.path, offset, EVENTS_PER_CYCLE)),
            always_sample=True,
        )
        if not events or len(events) < EVENTS_PER_CYCLE:
            self.reader.seek(0)  # the log repeats; the load is what matters

        def ingest() -> None:
            for event in events or ():
                trainer.ingest(event)
            trainer.step_partial()

        win.op("ingest", ingest, units=0, always_sample=True,
               replay=lambda: layers.replay_online("ingest", events or ()))
        info = win.op("publish", trainer.publish, units=0, always_sample=True,
                      replay=lambda: layers.replay_online("publish", None))
        if info is not None:
            self.published.add(info.version)
        win.op("swap", self.swapper.check_once, units=0, always_sample=True,
               replay=lambda: layers.replay_online("swap", info.path))
        # A user request first (it pays the cache fill the swap left
        # behind), then the rest of the 3 : 1 mix in seeded order.
        requests = self.stream.block(CYCLE_MIX if not self.smoke else SMOKE_CYCLE_MIX)
        requests.insert(0, ("user", self.stream.draw("user")))
        for index, (kind, arg) in enumerate(requests):
            got = win.op(
                kind,
                lambda: send(self.service, kind, arg),
                replay=lambda: layers.replay("engine", kind, arg),
            )
            if index == 0:
                win.record("staleness", time.perf_counter() - win.yardstick_s - started)
                if got is not None and info is not None and got.model_version != info.version:
                    win.fail(f"first response after swap carries {got.model_version}, not {info.version}")
            if got is not None and got.model_version not in self.published:
                win.fail(f"response carries unpublished version {got.model_version}")


WORKLOADS = {
    "serve_direct": ServeWorkload,
    "serve_engine": ServeWorkload,
    "serve_ann": ServeWorkload,
    "serve_cluster": ServeWorkload,
    "train_two_stage": TrainWorkload,
    "online_cycle": OnlineWorkload,
}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, workdir: Path
) -> dict:
    """One whole run of one workload: set-up, timed window, checks.

    Untraced, it sets up :data:`SETUP_REPEATS` times and reports the
    median as ``setup_s`` with the end-to-end metrics.  Traced, it sets
    up once and reports the per-layer table instead.
    """
    workload = WORKLOADS[name](name, smoke, seed, workdir)
    tracer = Trace() if trace else None
    setups: List[Tuple[float, float]] = []  # seconds as measured, host speed around them
    layers = None
    try:
        for attempt in range(1 if trace else SETUP_REPEATS):
            if attempt:
                workload.close()
                gc.collect()
            before = workload.yardstick.speed(SETUP_YARDSTICKS)
            start = time.perf_counter()
            workload.setup(tracer)
            took = time.perf_counter() - start
            setups.append((took, (before + workload.yardstick.speed(SETUP_YARDSTICKS)) / 2))
        if trace:
            layers = Layers(workload.fx, workdir, tracer)
        metrics = workload.run(seconds, layers)
        win = workload.win
        if trace:
            coverage = tracer.coverage()
            values = layers.suite(*workload.probe_sample())
            values["obs.bench_trace.overhead_share"] = win.span_overhead_share()
            values["bench.probe_coverage"] = sum(
                row["covered_s"] for row in coverage.values()
            ) / sum(row["total_s"] for row in coverage.values())
            metrics = layer_values(tracer, values)
        else:
            coverage = None
            metrics["setup_s"] = {
                "value": statistics.median(took * speed for took, speed in setups),
                "unit": "s",
                "n": len(setups),
                "raw": statistics.median(took for took, __ in setups),
            }
    finally:
        if layers is not None:
            layers.close()
        workload.close()
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "seconds": seconds,
        "window_s": win.elapsed,
        "host_speed": statistics.median(win.speeds),
        "attempted": win.attempted,
        "failed": win.failed,
        "correct": win.failed == 0,
        "errors": win.errors,
        "metrics": metrics,
        "coverage": coverage,
        "spans": tracer.spans if tracer else None,
    }
