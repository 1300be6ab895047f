"""Precomputed score caches for the fast serving path.

Section II-F of the paper avoids the multi-layer voting forward pass by
scoring members individually with the user-item predictor.  That makes
the user×item score matrix *the* serving hot path: once it is resident,
a user Top-K request is a row fetch plus a partition, and a fast group
request is a fancy-index plus an aggregation.

:class:`ScoreCache` materializes that matrix lazily in row blocks.  A
memory budget caps how many blocks stay resident (block-level LRU), so
the cache degrades gracefully on worlds too large to hold densely.

:class:`LRUCache` is the generic bounded map underneath.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Hashable, Optional

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
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.registry.counter(f"{self._name}.hit").inc()
                return self._entries[key]
        self.registry.counter(f"{self._name}.miss").inc()
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


class ScoreCache:
    """Blocked, budgeted user×item score matrix.

    Parameters
    ----------
    score_fn:
        Aligned pairwise scorer, e.g. ``model.score_user_items``.
    num_users, num_items:
        Matrix dimensions.
    block_rows:
        Users per block — the residency and eviction granularity.
    memory_budget_bytes:
        Cap on resident block bytes.  ``None`` keeps every block (the
        default — the dense matrix for these worlds is small).  When
        the budget is smaller than the matrix, least-recently-used
        blocks are dropped and recomputed on demand.
    registry:
        Where block hits/misses/evictions and block-compute latency are
        recorded; a private :class:`MetricsRegistry` by default.
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
        self._compute_lock = threading.Lock()

    @property
    def num_blocks(self) -> int:
        return (self.num_users + self.block_rows - 1) // self.block_rows

    @property
    def resident_blocks(self) -> int:
        return len(self._blocks)

    # ------------------------------------------------------------------

    def _block_id(self, user: int) -> int:
        return user // self.block_rows

    def _compute_block(self, block_id: int) -> np.ndarray:
        start = block_id * self.block_rows
        stop = min(start + self.block_rows, self.num_users)
        items = np.arange(self.num_items, dtype=np.int64)
        rows = np.empty((stop - start, self.num_items))
        with span("score_cache.block_compute", block=block_id, rows=stop - start):
            began = time.perf_counter()
            # The scorer evaluates each user's rows as one run whoever
            # else shares the call, so a cached row is bit-identical to a
            # direct full-row call.  Two calls of whole users: the id
            # arrays of one never outweigh the block they fill.
            half = -(-len(rows) // 2)
            for low in range(0, len(rows), half):
                users = np.arange(start + low, min(start + low + half, stop))
                rows[low : low + half] = self.score_fn(
                    np.repeat(users, self.num_items), np.tile(items, users.size)
                ).reshape(users.size, self.num_items)
            self.registry.histogram("stage.score_cache.block_compute").observe(
                time.perf_counter() - began
            )
        return rows

    def _get_block(self, block_id: int) -> np.ndarray:
        block = self._blocks.get(block_id)
        if block is not None:
            return block
        # One computation at a time: concurrent misses for the same
        # block would otherwise duplicate an expensive forward pass.
        with self._compute_lock:
            block = self._blocks.peek(block_id)
            if block is None:
                block = self._compute_block(block_id)
                self._blocks.put(block_id, block)
        return block

    # ------------------------------------------------------------------

    def scores_for_user(self, user: int) -> np.ndarray:
        """All item scores for one user (a matrix row, copied)."""
        if not 0 <= user < self.num_users:
            raise IndexError(f"user {user} out of range [0, {self.num_users})")
        block = self._get_block(self._block_id(user))
        return block[user - self._block_id(user) * self.block_rows].copy()

    def scores_for_users(self, users: np.ndarray) -> np.ndarray:
        """Rows for several users as an (n, num_items) matrix."""
        users = np.asarray(users, dtype=np.int64)
        if users.size == 0:
            return np.empty((0, self.num_items))
        if users.min() < 0 or users.max() >= self.num_users:
            raise IndexError(f"user ids out of range [0, {self.num_users})")
        with span("score_cache.lookup", rows=int(users.size)) as lookup:
            out = np.empty((users.size, self.num_items))
            misses = 0
            for block_id in np.unique(users // self.block_rows):
                if lookup is not None and self._blocks.peek(int(block_id)) is None:
                    misses += 1
                block = self._get_block(int(block_id))
                rows = np.nonzero(users // self.block_rows == block_id)[0]
                out[rows] = block[users[rows] - int(block_id) * self.block_rows]
            if lookup is not None:
                lookup.set_attr("hit", misses == 0)
                lookup.set_attr("blocks_missed", misses)
        return out

    def warm(self, users: Optional[np.ndarray] = None) -> None:
        """Materialize the blocks covering ``users`` (default: all).

        With a budget smaller than the matrix only the most recently
        warmed blocks stay resident.
        """
        if users is None:
            block_ids = range(self.num_blocks)
        else:
            users = np.asarray(users, dtype=np.int64)
            block_ids = (int(b) for b in np.unique(users // self.block_rows))
        for block_id in block_ids:
            self._get_block(block_id)
