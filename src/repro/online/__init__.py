"""Online learning: event log, streaming trainer, versioned hot-swap.

The train→serve loop (docs/online.md):

1. interactions append to a JSONL event log (:mod:`repro.online.events`);
2. :class:`OnlineTrainer` replays the log in micro-batches through the
   offline BPR steps and publishes versioned snapshots
   (:mod:`repro.online.trainer`, :mod:`repro.online.snapshots`);
3. :class:`ModelSwapper` watches the snapshot directory and hot-swaps a
   :class:`~repro.serving.RecommendationService` onto each new version
   without dropping a request (:mod:`repro.online.swap`).
"""

from repro.online.events import (
    EVENT_KINDS,
    EventLogReader,
    InteractionEvent,
    append_events,
    generate_events,
    read_events,
    write_event_log,
)
from repro.online.snapshots import (
    LATEST_NAME,
    SnapshotInfo,
    SnapshotPublisher,
    read_latest,
)
from repro.online.swap import ModelSwapper
from repro.online.trainer import OnlineTrainer, OnlineTrainerConfig

__all__ = [
    "EVENT_KINDS",
    "EventLogReader",
    "InteractionEvent",
    "LATEST_NAME",
    "ModelSwapper",
    "OnlineTrainer",
    "OnlineTrainerConfig",
    "SnapshotInfo",
    "SnapshotPublisher",
    "append_events",
    "generate_events",
    "read_events",
    "read_latest",
    "write_event_log",
]

