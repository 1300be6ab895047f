"""Streaming trainer: micro-batch BPR updates off an event log.

:class:`OnlineTrainer` closes the train side of the train→serve loop:
it consumes interaction events from an
:class:`~repro.online.events.EventLogReader`, buffers them per task,
and applies the *exact same* BPR steps offline training runs
(:meth:`GroupSATrainer._user_step` / ``_group_step``, under the
row-sparse gradient context) once a micro-batch fills.  Because the
steps, the negative sampler and the sampler's RNG are the offline
trainer's own, a replayed event log produces weights **bit-exact**
with an offline sparse-Adam run over the same batch sequence — there
is no separate "online math" to diverge.

Checkpointing contract (the reason resume is bit-exact): a snapshot
records the reader byte offset together with the *pending micro-batch
buffers* at publish time.  Every event at an offset below the recorded
one is therefore either already applied (in the weights + optimizer
moments) or sitting in the saved buffers; a resumed trainer seeks the
reader to the offset, restores buffers and RNG state, and the replay
continues as if the kill never happened.

Versions are assigned by the
:class:`~repro.online.snapshots.SnapshotPublisher` (monotone checkpoint
indices with a manifest-written-last ``LATEST`` pointer); the serving
side picks them up through :class:`~repro.online.swap.ModelSwapper`.

Note on negatives: the sampler rejects against the *static base
dataset's* interaction sets — streamed events do not grow the
rejection sets.  That keeps sampling deterministic given RNG state
(the bit-exact-resume contract) at the cost of occasionally sampling a
"negative" the stream has since observed, the standard implicit-
feedback approximation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.autograd.context import sparse_grads as sparse_grads_context
from repro.core.groupsa import GroupSA
from repro.data.dataset import GroupRecommendationDataset
from repro.data.loaders import GroupBatcher
from repro.data.splits import DataSplit
from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.run_metrics import JsonlWriter
from repro.obs.spans import span
from repro.online.events import EventLogReader, InteractionEvent
from repro.online.snapshots import SnapshotInfo, SnapshotPublisher
from repro.training.trainer import GroupSATrainer, TrainingConfig

_SCHEDULE_KEY = "online"

#: Schema tag on every per-replay-batch JSONL metrics record.
BATCH_SCHEMA = "repro.obs/online-batch/v1"


@dataclass
class OnlineTrainerConfig:
    """Streaming knobs (optimization knobs live in ``TrainingConfig``).

    Attributes
    ----------
    batch_size:
        Events per micro-batch; a task's buffer steps when it fills.
    publish_every_steps:
        Optimizer steps between snapshot publishes.
    """

    batch_size: int = 32
    publish_every_steps: int = 8


def _degenerate_split(dataset: GroupRecommendationDataset) -> DataSplit:
    """A DataSplit whose train view is the whole base dataset."""
    empty = np.empty((0, 2), dtype=np.int64)
    hollow = dataset.with_interactions(empty, empty, name=f"{dataset.name}-empty")
    return DataSplit(train=dataset, validation=hollow, test=hollow)


class OnlineTrainer:
    """Consume an event stream, step the model, publish versions."""

    def __init__(
        self,
        model: GroupSA,
        dataset: GroupRecommendationDataset,
        publisher: SnapshotPublisher,
        config: Optional[OnlineTrainerConfig] = None,
        training: Optional[TrainingConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        metrics_path: Optional[str] = None,
    ) -> None:
        self.config = config or OnlineTrainerConfig()
        if self.config.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.config.batch_size}"
            )
        if self.config.publish_every_steps < 1:
            raise ValueError(
                "publish_every_steps must be >= 1, "
                f"got {self.config.publish_every_steps}"
            )
        self.model = model
        self.dataset = dataset
        self.publisher = publisher
        self.registry = registry or MetricsRegistry()
        training = training or TrainingConfig(
            batch_size=self.config.batch_size, grad_clip=0.0
        )
        # The embedded offline trainer supplies the step functions, the
        # negative samplers, the optimizer and the resumable state_dict
        # -- streaming reuses offline math wholesale.
        self.trainer = GroupSATrainer(
            model, _degenerate_split(dataset), GroupBatcher(dataset), training
        )
        self._pending: Dict[str, List[Tuple[int, int]]] = {"user": [], "group": []}
        self._offset = 0
        self._steps = {"user": 0, "group": 0}
        self._events = 0
        self.model_version = 0
        self._step_latency = self.registry.histogram("online.step")
        self._publish_latency = self.registry.histogram("online.publish")
        #: Per-replay-batch JSONL sink (``repro.obs/online-batch/v1``);
        #: ``None`` disables the stream.
        self._batch_writer = None if metrics_path is None else JsonlWriter(metrics_path)
        self._replay_lag_bytes = 0

    # -- introspection ---------------------------------------------------

    @property
    def offset(self) -> int:
        """Reader byte offset covered by applied + pending events."""
        return self._offset

    @property
    def steps(self) -> int:
        return self._steps["user"] + self._steps["group"]

    @property
    def events_ingested(self) -> int:
        return self._events

    @property
    def pending_counts(self) -> Dict[str, int]:
        return {kind: len(buffer) for kind, buffer in self._pending.items()}

    # -- ingestion -------------------------------------------------------

    def ingest(self, event: InteractionEvent) -> bool:
        """Buffer one event; step its task if the micro-batch filled.

        Returns ``True`` when an optimizer step ran.
        """
        event.validate()
        limit = (
            self.dataset.num_users
            if event.kind == "user"
            else self.dataset.num_groups
        )
        if not 0 <= event.entity < limit:
            raise IndexError(
                f"{event.kind} {event.entity} out of range [0, {limit})"
            )
        if not 0 <= event.item < self.dataset.num_items:
            raise IndexError(
                f"item {event.item} out of range [0, {self.dataset.num_items})"
            )
        buffer = self._pending[event.kind]
        buffer.append((int(event.entity), int(event.item)))
        self._events += 1
        self.registry.counter(f"online.events.{event.kind}").inc()
        if len(buffer) >= self.config.batch_size:
            self._step(event.kind)
            return True
        return False

    def step_partial(self) -> int:
        """Force-step whatever is buffered (end-of-stream flush).

        Returns the number of optimizer steps taken.
        """
        taken = 0
        for kind in ("user", "group"):
            if self._pending[kind]:
                self._step(kind)
                taken += 1
        return taken

    def _step(self, kind: str) -> None:
        buffer = self._pending[kind]
        edges = np.asarray(buffer, dtype=np.int64)
        buffer.clear()
        entities = np.repeat(
            edges[:, 0], self.trainer.config.negatives_per_positive
        )
        positives = np.repeat(
            edges[:, 1], self.trainer.config.negatives_per_positive
        )
        sampler = (
            self.trainer.user_sampler if kind == "user" else self.trainer.group_sampler
        )
        negatives = sampler.sample_many(
            edges[:, 0], self.trainer.config.negatives_per_positive
        ).reshape(-1)
        step = self.trainer._user_step if kind == "user" else self.trainer._group_step
        started = time.perf_counter()
        with span("online.step", kind=kind, rows=int(entities.size)):
            with sparse_grads_context(self.trainer.config.sparse_grads):
                loss, accuracy = step(entities, positives, negatives)
        duration = time.perf_counter() - started
        self._step_latency.observe(duration)
        self._steps[kind] += 1
        self.registry.counter(f"online.steps.{kind}").inc()
        self.registry.gauge(f"online.loss.{kind}").set(float(loss))
        self.registry.gauge(f"online.accuracy.{kind}").set(float(accuracy))
        if self._batch_writer is not None:
            self._batch_writer.write(
                {
                    "schema": BATCH_SCHEMA,
                    "kind": kind,
                    "step": self.steps,
                    "offset": int(self._offset),
                    "loss": float(loss),
                    "accuracy": float(accuracy),
                    "events": int(edges.shape[0]),
                    "events_per_s": (
                        edges.shape[0] / duration if duration > 0 else None
                    ),
                    "duration_s": duration,
                    "replay_lag_bytes": int(self._replay_lag_bytes),
                    "ts": time.time(),
                }
            )

    # -- publishing ------------------------------------------------------

    def publish(self, metric: Optional[float] = None) -> SnapshotInfo:
        """Snapshot the current weights + streaming position as a version.

        Flushes lazily deferred sparse-optimizer rows first so the
        checkpoint holds dense-current weights, then records the reader
        offset and the pending buffers in the schedule payload.
        """
        started = time.perf_counter()
        with span("online.publish", offset=self._offset, steps=self.steps):
            self.trainer.optimizer.sync()
            schedule = {
                _SCHEDULE_KEY: {
                    "offset": int(self._offset),
                    "pending": {
                        kind: [[int(e), int(i)] for e, i in buffer]
                        for kind, buffer in self._pending.items()
                    },
                    "steps": dict(self._steps),
                    "events": int(self._events),
                }
            }
            info = self.publisher.publish(
                self.model,
                trainer_state=self.trainer.state_dict(),
                schedule=schedule,
                metric=metric,
            )
        self.model_version = info.version
        self._publish_latency.observe(time.perf_counter() - started)
        self.registry.counter("online.publishes").inc()
        self.registry.gauge("online.model_version").set(float(info.version))
        return info

    # -- the consume loop ------------------------------------------------

    def consume(
        self,
        reader: EventLogReader,
        max_events: Optional[int] = None,
        publish_final: bool = True,
    ) -> Dict[str, Any]:
        """Drain ``reader``, stepping and publishing as configured.

        Events are read one at a time and the trainer's offset is
        advanced to the reader's *before* ingestion — so at any publish
        point every event below the recorded offset is either applied
        or in the saved pending buffers, never lost and never double-
        applied on resume.  Stops at end-of-log (or ``max_events``);
        ``publish_final`` emits one last version covering the tail.
        """
        consumed = 0
        steps_at_publish = self.steps
        while max_events is None or consumed < max_events:
            batch = reader.read_batch(1)
            if not batch:
                break
            # Offset first: it now covers the event we are about to
            # ingest, and ingest() only ever moves the event into a
            # buffer or the weights -- both captured by publish().
            self._offset = reader.offset
            self._replay_lag_bytes = reader.lag_bytes()
            self.registry.gauge("online.replay_lag_bytes").set(
                float(self._replay_lag_bytes)
            )
            self.ingest(batch[0])
            consumed += 1
            if self.steps - steps_at_publish >= self.config.publish_every_steps:
                self.publish()
                steps_at_publish = self.steps
        if publish_final and (consumed > 0 or self.publisher.latest is None):
            self.publish()
        return {
            "events": consumed,
            "steps": self.steps,
            "pending": self.pending_counts,
            "offset": self._offset,
            "model_version": self.model_version,
        }

    def close(self) -> None:
        """Flush and close the per-batch metrics stream, if any."""
        if self._batch_writer is not None:
            self._batch_writer.close()

    # -- resume ----------------------------------------------------------

    def restore_latest(self) -> Optional[int]:
        """Restore weights, optimizer/RNG state, buffers and offset from
        the newest published snapshot.  Returns the reader offset to
        seek to, or ``None`` when nothing has been published yet."""
        try:
            __, state, info = self.publisher.load(model=self.model)
        except FileNotFoundError:
            return None
        if state is None or state.trainer is None:
            raise ValueError(
                f"snapshot {info.path} has no trainer state; it was not "
                "written by OnlineTrainer.publish"
            )
        self.trainer.load_state_dict(state.trainer)
        payload = (state.schedule or {}).get(_SCHEDULE_KEY)
        if payload is None:
            raise ValueError(
                f"snapshot {info.path} has no '{_SCHEDULE_KEY}' schedule "
                "payload; it was not written by OnlineTrainer.publish"
            )
        self._offset = int(payload["offset"])
        self._pending = {
            kind: [(int(e), int(i)) for e, i in pairs]
            for kind, pairs in payload["pending"].items()
        }
        self._steps = {k: int(v) for k, v in payload["steps"].items()}
        self._events = int(payload["events"])
        self.model_version = info.version
        self.registry.gauge("online.model_version").set(float(info.version))
        return self._offset
