"""Checkpoint retention and resume bookkeeping for long training runs.

:class:`CheckpointManager` owns a directory of numbered v2 checkpoints
(``ckpt-000042.npz``), applies a keep-last-N retention policy, and
mirrors the best checkpoint by a metric (lower-is-better by default,
matching the group-task loss) to ``best.npz``.  All archive writes go
through :func:`repro.persistence.save_checkpoint`, so a crash at any
point — including mid-write — leaves every previously written
checkpoint intact.

:class:`SchedulePosition` records where in the two-stage schedule
(Section II-E) a run is, with the granularity at which
:func:`repro.training.two_stage.fit_groupsa` checkpoints: after each
stage-1 user epoch, after the stage-boundary tower transfer, and after
each stage-2 group epoch (together with its interleaved user epoch).
"""

from __future__ import annotations

import re
import shutil
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.groupsa import GroupSA
from repro.persistence import (
    PathLike,
    TrainingState,
    atomic_write,
    checkpoint_metadata,
    load_checkpoint,
    save_checkpoint,
)

_CHECKPOINT_PATTERN = re.compile(r"^ckpt-(\d+)\.npz$")
BEST_CHECKPOINT_NAME = "best.npz"


@dataclass
class SchedulePosition:
    """Progress marker inside the two-stage training schedule."""

    user_epochs_done: int = 0
    #: Whether the stage-boundary group-tower initialization from the
    #: user tower has already been applied (must happen exactly once).
    tower_initialized: bool = False
    group_epochs_done: int = 0


class CheckpointManager:
    """Numbered checkpoints with keep-last-N and best-by-metric retention.

    Re-instantiating over an existing directory continues the numbering
    and the best-metric tracking, so retention survives process
    restarts.
    """

    def __init__(
        self,
        directory: PathLike,
        keep_last: int = 3,
        mode: str = "min",
    ) -> None:
        if keep_last < 1:
            raise ValueError("keep_last must be at least 1")
        if mode not in ("min", "max"):
            raise ValueError("mode must be 'min' or 'max'")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep_last = keep_last
        self.mode = mode
        existing = self._indexed_checkpoints()
        self._counter = existing[-1][0] if existing else 0
        self._best_value: Optional[float] = None
        best = self.best_path()
        if best is not None:
            # A mirror, never the only copy: unreadable means absent, and
            # the next improving save rewrites it.
            try:
                self._best_value = checkpoint_metadata(best).get("metric")
            except (OSError, EOFError, ValueError, zipfile.BadZipFile) as error:
                warnings.warn(
                    f"ignoring unreadable best-checkpoint mirror {best}: {error!r}",
                    RuntimeWarning,
                    stacklevel=2,
                )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _indexed_checkpoints(self) -> List[Tuple[int, Path]]:
        found = []
        for path in self.directory.iterdir():
            match = _CHECKPOINT_PATTERN.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return sorted(found)

    def checkpoints(self) -> List[Path]:
        """Retained numbered checkpoints, oldest first."""
        return [path for __, path in self._indexed_checkpoints()]

    def latest_path(self) -> Optional[Path]:
        existing = self.checkpoints()
        return existing[-1] if existing else None

    def best_path(self) -> Optional[Path]:
        path = self.directory / BEST_CHECKPOINT_NAME
        return path if path.exists() else None

    @property
    def best_value(self) -> Optional[float]:
        return self._best_value

    @property
    def next_index(self) -> int:
        """Index the next :meth:`save` will write (current counter + 1)."""
        return self._counter + 1

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def save(
        self,
        model: GroupSA,
        trainer_state: Optional[Dict[str, Any]] = None,
        schedule: Optional[Dict[str, Any]] = None,
        metric: Optional[float] = None,
    ) -> Path:
        """Write the next numbered checkpoint; prune per retention policy."""
        self._counter += 1
        path = self.directory / f"ckpt-{self._counter:06d}.npz"
        save_checkpoint(
            model,
            path,
            trainer_state=trainer_state,
            schedule=schedule,
            metric=metric,
        )
        if metric is not None and self._improves(float(metric)):
            self._best_value = float(metric)
            self._mirror_best(path)
        self._prune()
        return path

    def _improves(self, metric: float) -> bool:
        if self._best_value is None:
            return True
        if self.mode == "min":
            return metric < self._best_value
        return metric > self._best_value

    def _mirror_best(self, source: Path) -> None:
        with open(source, "rb") as archive:
            atomic_write(
                self.directory / BEST_CHECKPOINT_NAME,
                lambda handle: shutil.copyfileobj(archive, handle),
            )

    def _prune(self) -> None:
        existing = self.checkpoints()
        for path in existing[: -self.keep_last]:
            path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load_latest(
        self, model: Optional[GroupSA] = None
    ) -> Optional[Tuple[GroupSA, Optional[TrainingState]]]:
        """Load the newest checkpoint, or ``None`` when the directory is
        empty (a fresh run)."""
        latest = self.latest_path()
        if latest is None:
            return None
        return load_checkpoint(latest, model=model)
