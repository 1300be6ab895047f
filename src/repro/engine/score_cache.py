"""Precomputed score caches for the fast serving path.

Section II-F of the paper avoids the multi-layer voting forward pass by
scoring members individually with the user-item predictor.  That makes
the user×item score matrix *the* serving hot path: once it is resident,
a user Top-K request is a row fetch plus a partition, and a fast group
request is a fancy-index plus an aggregation.

:class:`ScoreCache` holds that matrix in row blocks and fills it lazily,
row by row: a miss scores the rows that were asked for, not the block
around them.  A memory budget caps how many blocks stay resident
(block-level LRU), so the cache degrades gracefully on worlds too large
to hold densely.

:class:`LRUCache` is the generic bounded map underneath.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional

import numpy as np

from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.spans import span

ScoreFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


class LRUCache:
    """Thread-safe least-recently-used map with a fixed capacity.

    ``get`` refreshes recency; ``put`` evicts the stalest entry once
    ``capacity`` is exceeded.  Hit/miss/eviction counts stream into
    ``registry`` (a private :class:`MetricsRegistry` by default) under
    ``<name>.hit`` / ``.miss`` / ``.evict``.
    """

    def __init__(
        self,
        capacity: int,
        registry: Optional[MetricsRegistry] = None,
        name: str = "lru",
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.registry = registry or MetricsRegistry()
        self._name = name

    def get(self, key: Hashable):
        value = self.touch(key)
        outcome = "miss" if value is None else "hit"
        self.registry.counter(f"{self._name}.{outcome}").inc()
        return value

    def touch(self, key: Hashable):
        """Lookup that refreshes recency without hit/miss counters."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
        return None

    def peek(self, key: Hashable):
        """Lookup without touching recency or hit/miss counters."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.registry.counter(f"{self._name}.evict").inc()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries


class _Block:
    """One resident row block, allocated unfilled.  A row is written once
    and ``filled`` marks it only after the write, so a reader that sees
    the mark sees the whole row."""

    __slots__ = ("rows", "filled")

    def __init__(self, num_rows: int, num_items: int) -> None:
        self.rows = np.empty((num_rows, num_items))
        self.filled = np.zeros(num_rows, dtype=bool)


class ScoreCache:
    """Blocked, budgeted user×item score matrix, filled row by row.

    A lookup scores only the requested rows that are not yet filled; a
    block is the unit of residency and eviction, not of scoring.

    Parameters
    ----------
    score_fn:
        Aligned pairwise scorer, e.g. ``model.score_user_items``.
    num_users, num_items:
        Matrix dimensions.
    block_rows:
        Users per block — the residency and eviction granularity.
    memory_budget_bytes:
        Cap on resident block bytes, counted as if every row were
        filled.  ``None`` keeps every block (the default — the dense
        matrix for these worlds is small).  When the budget is smaller
        than the matrix, least-recently-used blocks are dropped and
        their rows rescored on demand.
    registry:
        Where row hits/misses, block evictions and scoring-pass latency
        are recorded; a private :class:`MetricsRegistry` by default.
    """

    def __init__(
        self,
        score_fn: ScoreFn,
        num_users: int,
        num_items: int,
        block_rows: int = 256,
        memory_budget_bytes: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {block_rows}")
        self.score_fn = score_fn
        self.num_users = num_users
        self.num_items = num_items
        self.block_rows = min(block_rows, max(1, num_users))
        self.registry = registry or MetricsRegistry()
        block_bytes = self.block_rows * num_items * np.dtype(np.float64).itemsize
        if memory_budget_bytes is None:
            max_blocks = self.num_blocks
        else:
            max_blocks = max(1, memory_budget_bytes // max(1, block_bytes))
        self._blocks = LRUCache(
            capacity=max(1, min(max_blocks, self.num_blocks)),
            registry=self.registry,
            name="score_cache",
        )
        self._fill_lock = threading.Lock()

    @property
    def num_blocks(self) -> int:
        return (self.num_users + self.block_rows - 1) // self.block_rows

    @property
    def resident_blocks(self) -> int:
        return len(self._blocks)

    # ------------------------------------------------------------------

    def _score(self, users: np.ndarray, blocks: int) -> np.ndarray:
        """One scoring pass: the full rows of ``users``, in order."""
        items = np.arange(self.num_items, dtype=np.int64)
        rows = np.empty((users.size, self.num_items))
        with span("score_cache.block_compute", rows=int(users.size), blocks=blocks):
            began = time.perf_counter()
            # The scorer evaluates each user's row as one run whoever
            # else shares the call, so a cached row is bit-identical to a
            # direct full-row call.  Two calls of whole users: the id
            # arrays of one never outweigh the rows they fill.
            half = -(-users.size // 2)
            for low in range(0, users.size, half):
                part = users[low : low + half]
                rows[low : low + half] = self.score_fn(
                    np.repeat(part, self.num_items), np.tile(items, part.size)
                ).reshape(part.size, self.num_items)
            self.registry.histogram("stage.score_cache.block_compute").observe(
                time.perf_counter() - began
            )
        return rows

    def _fill(self, users: np.ndarray) -> Dict[int, _Block]:
        """Score the rows of ``users`` not yet filled, in one pass, and
        return the blocks covering ``users``.

        One fill at a time, and the filled marks are read again under
        the lock, so concurrent misses never score a row twice.  A pass
        that raises writes nothing and leaves no new block resident.
        """
        users = np.unique(users)
        block_ids = users // self.block_rows
        with self._fill_lock:
            blocks: Dict[int, _Block] = {}
            created = []
            pending = []
            for block_id in np.unique(block_ids).tolist():
                block = self._blocks.touch(block_id)
                if block is None:
                    start = block_id * self.block_rows
                    block = _Block(
                        min(self.block_rows, self.num_users - start), self.num_items
                    )
                    created.append(block_id)
                blocks[block_id] = block
                offsets = users[block_ids == block_id] - block_id * self.block_rows
                offsets = offsets[~block.filled[offsets]]
                if offsets.size:
                    pending.append((block_id, offsets))
            if pending:
                scored = self._score(
                    np.concatenate([b * self.block_rows + o for b, o in pending]),
                    len(pending),
                )
                low = 0
                for block_id, offsets in pending:
                    block = blocks[block_id]
                    block.rows[offsets] = scored[low : low + offsets.size]
                    block.filled[offsets] = True
                    low += offsets.size
            for block_id in created:
                self._blocks.put(block_id, blocks[block_id])
        return blocks

    # ------------------------------------------------------------------

    def scores_for_user(self, user: int) -> np.ndarray:
        """All item scores for one user (a matrix row, copied)."""
        return self.scores_for_users(np.array([user], dtype=np.int64))[0]

    def scores_for_users(self, users: np.ndarray) -> np.ndarray:
        """Rows for several users as an (n, num_items) matrix.

        The requested rows not yet filled are scored in one pass; a
        lookup whose rows are all filled never takes the fill lock.
        ``score_cache.hit`` / ``.miss`` count requested rows.
        """
        users = np.asarray(users, dtype=np.int64)
        if users.size == 0:
            return np.empty((0, self.num_items))
        if users.min() < 0 or users.max() >= self.num_users:
            raise IndexError(f"user ids out of range [0, {self.num_users})")
        with span("score_cache.lookup", rows=int(users.size)) as lookup:
            block_ids = users // self.block_rows
            offsets = users - block_ids * self.block_rows
            ids = np.unique(block_ids).tolist()
            # Which requested rows each block serves; one block, the
            # common case, serves them all.
            picks = (
                {ids[0]: slice(None)}
                if len(ids) == 1
                else {block_id: block_ids == block_id for block_id in ids}
            )
            blocks = {block_id: self._blocks.touch(block_id) for block_id in ids}
            hits = sum(
                int(np.count_nonzero(block.filled[offsets[picks[block_id]]]))
                for block_id, block in blocks.items()
                if block is not None
            )
            misses = users.size - hits
            self.registry.counter("score_cache.hit").inc(hits)
            self.registry.counter("score_cache.miss").inc(misses)
            if misses:
                blocks = self._fill(users)
            out = np.empty((users.size, self.num_items))
            for block_id, block in blocks.items():
                out[picks[block_id]] = block.rows[offsets[picks[block_id]]]
            if lookup is not None:
                lookup.set_attr("hit", misses == 0)
                lookup.set_attr("rows_missed", misses)
        return out

    def warm(self, users: Optional[np.ndarray] = None) -> None:
        """Fill every row of the blocks covering ``users`` (default: all),
        one scoring pass per block with rows still unfilled.  Counts
        neither hits nor misses.

        With a budget smaller than the matrix only the most recently
        warmed blocks stay resident.
        """
        if users is None:
            block_ids = range(self.num_blocks)
        else:
            block_ids = np.unique(np.asarray(users, dtype=np.int64) // self.block_rows)
        for block_id in block_ids:
            start = int(block_id) * self.block_rows
            self._fill(np.arange(start, min(start + self.block_rows, self.num_users)))
