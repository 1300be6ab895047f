"""Per-row lazy-update bookkeeping for sparse optimizer fast paths.

A dense optimizer step updates *every* row of *every* parameter — even
with a zero gradient, Adam's moments keep decaying and weight decay
keeps pulling, so untouched embedding rows drift on every step.  The
sparse fast paths defer that drift: a row is only brought up to date
("caught up") when something needs its true value — a forward gather, a
gradient update for the row, a checkpoint, or an explicit ``sync()``.

:class:`LazyRowState` tracks, per parameter:

- ``last`` — for each row, the global step count through which the row
  is current;
- ``ranges`` — the inclusive ``[start, end]`` global step ranges at
  which this parameter received *any* gradient.  Dense optimizers skip
  parameters whose gradient is ``None`` entirely (no decay, no weight
  decay), so only steps recorded here must ever be replayed.

The ranges stay tiny: consecutive gradient steps extend the last range
in place, so their count is bounded by the number of task switches, not
the number of steps.  ``sync()`` prunes them back to empty.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np


class LazyRowState:
    """Row-level "current through step N" bookkeeping for one parameter."""

    __slots__ = ("last", "ranges")

    def __init__(self, num_rows: int, anchor: int) -> None:
        #: Global step count through which each row's weight/moments are
        #: up to date.  ``anchor`` is the step at which lazy tracking
        #: began (every row was dense-current then).
        self.last = np.full(num_rows, anchor, dtype=np.int64)
        #: Inclusive ``[start, end]`` global steps with a gradient.
        self.ranges: List[List[int]] = []

    # ------------------------------------------------------------------
    # Gradient-step recording
    # ------------------------------------------------------------------

    def note_step(self, step: int) -> None:
        """Record that the parameter received a gradient at ``step``."""
        if self.ranges:
            last_range = self.ranges[-1]
            if last_range[1] >= step:
                return
            if last_range[1] == step - 1:
                last_range[1] = step
                return
        self.ranges.append([step, step])

    @property
    def latest_step(self) -> Optional[int]:
        """Newest recorded gradient step (None when nothing is pending)."""
        return self.ranges[-1][1] if self.ranges else None

    # ------------------------------------------------------------------
    # Replay helpers
    # ------------------------------------------------------------------

    def steps_between(self, after: int, upto: int) -> Iterator[int]:
        """Yield recorded gradient steps ``s`` with ``after < s <= upto``."""
        for start, end in self.ranges:
            if end <= after:
                continue
            if start > upto:
                break
            yield from range(max(start, after + 1), min(end, upto) + 1)

    def stale_rows(self, rows: Optional[np.ndarray], upto: int) -> np.ndarray:
        """Those of ``rows`` (None: of all rows) not current through
        ``upto``, most stale first — the order :meth:`walk` assumes."""
        if rows is None:
            rows = np.flatnonzero(self.last < upto)
        else:
            rows = rows[self.last[rows] < upto]
        return rows[np.argsort(self.last[rows], kind="stable")]

    def walk(self, stale: np.ndarray, upto: int) -> List[Tuple[int, int]]:
        """One pass that catches ``stale`` (sorted by :meth:`stale_rows`)
        up through ``upto``: ``(step, n)`` per recorded gradient step any
        of them missed, oldest first.  The rows that missed ``step`` are
        the prefix ``stale[:n]``, so every row still sees exactly the
        steps after its own ``last``, in order."""
        if stale.size == 0:
            return []
        lasts = self.last[stale]
        steps = list(self.steps_between(int(lasts[0]), upto))
        return list(zip(steps, np.searchsorted(lasts, steps, side="left").tolist()))

    # ------------------------------------------------------------------
    # Sync
    # ------------------------------------------------------------------

    def mark_synced(self, step: int) -> None:
        """All rows are current through ``step``; drop replayed history."""
        self.last[:] = step
        self.ranges.clear()
