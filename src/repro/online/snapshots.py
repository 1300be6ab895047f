"""Versioned snapshot publishing with a manifest-written-last pointer.

The streaming trainer publishes model versions as numbered v2
checkpoints through the same atomic machinery offline training uses
(:class:`repro.training.checkpointing.CheckpointManager`: tmp + fsync +
``os.replace`` per archive, keep-last-N pruning).  On top of that sits
a single ``LATEST.json`` pointer, written *after* the checkpoint it
names — the manifest-written-last rule the shared weight store also
follows — so a consumer that can read the pointer can always load the
version it names (unless keep-last-N pruned it, which consumers treat
as "re-poll").

Crash window: dying between the checkpoint write and the pointer
replace leaves an orphan checkpoint newer than ``LATEST``.  The
publisher prunes such orphans at construction, so the version sequence
a resumed trainer emits is identical to the sequence an uninterrupted
run would have emitted — version numbering stays reproducible, which
the bit-exact resume test relies on.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.groupsa import GroupSA
from repro.persistence import TrainingState, atomic_write, load_checkpoint
from repro.training.checkpointing import BEST_CHECKPOINT_NAME, CheckpointManager

PathLike = Union[str, Path]

LATEST_NAME = "LATEST.json"

#: What ``atomic_write`` leaves for each file a publish replaces when
#: the process dies before its rename (``.<name>.<random>.tmp``).
_TEMPORARIES = (
    ".ckpt-*.npz.*.tmp",
    f".{BEST_CHECKPOINT_NAME}.*.tmp",
    f".{LATEST_NAME}.*.tmp",
)


@dataclass(frozen=True)
class SnapshotInfo:
    """What the ``LATEST`` pointer names."""

    version: int
    path: Path
    published_at: float  # unix seconds


def read_latest(directory: PathLike) -> Optional[SnapshotInfo]:
    """The current ``LATEST`` pointer, or ``None`` before first publish.

    The named checkpoint may have been pruned between the pointer read
    and a subsequent load — consumers must tolerate a missing file by
    re-polling (a newer pointer always exists in that case).
    """
    pointer = Path(directory) / LATEST_NAME
    try:
        payload = json.loads(pointer.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return SnapshotInfo(
        version=int(payload["version"]),
        path=Path(directory) / str(payload["filename"]),
        published_at=float(payload["published_at"]),
    )


class SnapshotPublisher:
    """Publish monotonically versioned model snapshots to a directory.

    ``version`` equals the checkpoint index the manager assigns, so the
    sequence is strictly increasing and survives restarts (the manager
    continues numbering from the directory contents).
    """

    def __init__(self, directory: PathLike, keep_last: int = 3) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._prune_orphans()
        self.manager = CheckpointManager(self.directory, keep_last=keep_last)

    def _prune_orphans(self) -> None:
        """Drop checkpoints newer than ``LATEST`` and the temporaries of
        an ``atomic_write`` killed mid-write (crash mid-publish)."""
        latest = read_latest(self.directory)
        floor = latest.version if latest is not None else 0
        for path in self.directory.glob("ckpt-*.npz"):
            stem = path.stem.split("-")[-1]
            if stem.isdigit() and int(stem) > floor:
                path.unlink(missing_ok=True)
        for pattern in _TEMPORARIES:
            for path in self.directory.glob(pattern):
                path.unlink(missing_ok=True)

    @property
    def latest(self) -> Optional[SnapshotInfo]:
        return read_latest(self.directory)

    @property
    def next_version(self) -> int:
        return self.manager.next_index

    def publish(
        self,
        model: GroupSA,
        trainer_state: Optional[Dict[str, Any]] = None,
        schedule: Optional[Dict[str, Any]] = None,
        metric: Optional[float] = None,
    ) -> SnapshotInfo:
        """Write the next versioned checkpoint, then move ``LATEST``.

        Ordering is the whole point: the checkpoint is fully on disk
        (atomically, via the v2 writer) *before* the pointer names it.
        """
        path = self.manager.save(
            model, trainer_state=trainer_state, schedule=schedule, metric=metric
        )
        version = int(path.stem.split("-")[-1])
        published_at = time.time()
        payload = {
            "version": version,
            "filename": path.name,
            "published_at": published_at,
        }
        atomic_write(
            self.directory / LATEST_NAME,
            lambda handle: json.dump(payload, handle, sort_keys=True),
            text=True,
        )
        return SnapshotInfo(version=version, path=path, published_at=published_at)

    def load(
        self, info: Optional[SnapshotInfo] = None, model: Optional[GroupSA] = None
    ) -> Tuple[GroupSA, Optional[TrainingState], SnapshotInfo]:
        """Load ``info`` (default: current ``LATEST``).

        Raises ``FileNotFoundError`` when nothing has been published, or
        when the named checkpoint was pruned (callers re-poll).
        """
        if info is None:
            info = read_latest(self.directory)
        if info is None:
            raise FileNotFoundError(f"no LATEST pointer in {self.directory}")
        loaded, state = load_checkpoint(info.path, model=model)
        return loaded, state, info
