"""Score cache: exact equality with direct scoring, LRU residency."""

import numpy as np
import pytest

from repro.engine.score_cache import LRUCache, ScoreCache
from repro.obs.metrics_registry import MetricsRegistry


def toy_scorer(users, items):
    """Cheap deterministic stand-in for ``model.score_user_items``."""
    return (users * 31 + items * 7) % 13 + 0.5 * users


class TestLRUCache:
    def test_get_put_and_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3

    def test_get_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "b" is now stalest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_peek_does_not_refresh(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.peek("a")  # "a" stays stalest
        cache.put("c", 3)
        assert cache.get("a") is None
        assert cache.get("b") == 2

    def test_telemetry_counters(self):
        registry = MetricsRegistry()
        cache = LRUCache(capacity=1, registry=registry, name="x")
        cache.get("missing")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)  # evicts
        assert registry.counter("x.hit").value == 1
        assert registry.counter("x.miss").value == 1
        assert registry.counter("x.evict").value == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            LRUCache(capacity=0)

    def test_standalone_caches_count_privately(self):
        first, second = LRUCache(capacity=1), LRUCache(capacity=1)
        first.get("missing")
        assert first.registry is not second.registry
        assert first.registry.counter("lru.miss").value == 1
        assert second.registry.counters() == {}


class TestScoreCacheRegistry:
    def test_blocks_count_into_the_cache_registry(self):
        cache = ScoreCache(toy_scorer, num_users=10, num_items=7, block_rows=5)
        assert cache._blocks.registry is cache.registry
        cache.scores_for_user(0)
        cache.scores_for_user(1)
        assert cache.registry.counter("score_cache.miss").value == 1
        assert cache.registry.counter("score_cache.hit").value == 1
        assert ScoreCache(toy_scorer, 10, 7).registry is not cache.registry

    @pytest.mark.parametrize("block_rows, blocks", [(1, 10), (4, 3), (10, 1)])
    def test_one_compute_sample_per_materialized_block(self, block_rows, blocks):
        registry = MetricsRegistry()
        cache = ScoreCache(
            toy_scorer, num_users=10, num_items=7, block_rows=block_rows,
            registry=registry,
        )
        cache.warm()
        cache.warm()  # every block resident: no recompute
        assert registry.histogram("stage.score_cache.block_compute").count == blocks
        assert registry.counter("score_cache.miss").value == blocks

    def test_failed_compute_records_no_latency_and_caches_nothing(self):
        calls = []

        def flaky(users, items):
            calls.append(users.size)
            if len(calls) == 1:
                raise RuntimeError("scorer down")
            return toy_scorer(users, items)

        registry = MetricsRegistry()
        cache = ScoreCache(flaky, num_users=4, num_items=3, block_rows=4, registry=registry)
        with pytest.raises(RuntimeError, match="scorer down"):
            cache.scores_for_user(0)
        assert cache.resident_blocks == 0
        assert "stage.score_cache.block_compute" not in registry.histograms()
        assert np.array_equal(
            cache.scores_for_user(0), toy_scorer(np.zeros(3, np.int64), np.arange(3))
        )
        assert registry.histogram("stage.score_cache.block_compute").count == 1
        assert registry.counter("score_cache.miss").value == 2


class TestScoreCacheBlocks:
    def test_rows_match_direct_scoring_exactly(self):
        cache = ScoreCache(toy_scorer, num_users=10, num_items=7, block_rows=3)
        items = np.arange(7, dtype=np.int64)
        for user in range(10):
            direct = toy_scorer(np.full(7, user, dtype=np.int64), items)
            assert np.array_equal(cache.scores_for_user(user), direct)

    def test_matrix_fetch_matches_rows(self):
        cache = ScoreCache(toy_scorer, num_users=10, num_items=7, block_rows=4)
        users = np.array([9, 0, 5, 0], dtype=np.int64)
        matrix = cache.scores_for_users(users)
        assert matrix.shape == (4, 7)
        for row, user in zip(matrix, users):
            assert np.array_equal(row, cache.scores_for_user(int(user)))

    def test_lazy_materialization_hit_miss(self):
        registry = MetricsRegistry()
        cache = ScoreCache(
            toy_scorer, num_users=10, num_items=7, block_rows=5, registry=registry
        )
        assert cache.resident_blocks == 0
        cache.scores_for_user(0)  # miss: materializes block 0
        cache.scores_for_user(1)  # hit: same block
        cache.scores_for_user(7)  # miss: block 1
        assert cache.resident_blocks == 2
        assert registry.counter("score_cache.miss").value == 2
        assert registry.counter("score_cache.hit").value == 1

    def test_budget_evicts_and_recomputes(self):
        registry = MetricsRegistry()
        # One block = 5 rows * 7 items * 8 bytes = 280 bytes; budget of
        # 300 keeps exactly one block resident.
        cache = ScoreCache(
            toy_scorer,
            num_users=10,
            num_items=7,
            block_rows=5,
            memory_budget_bytes=300,
            registry=registry,
        )
        row_0 = cache.scores_for_user(0)
        cache.scores_for_user(7)  # evicts block 0
        assert cache.resident_blocks == 1
        assert registry.counter("score_cache.evict").value == 1
        # Recomputed block is identical.
        assert np.array_equal(cache.scores_for_user(0), row_0)
        assert registry.counter("score_cache.miss").value == 3

    def test_warm_all_and_subset(self):
        cache = ScoreCache(toy_scorer, num_users=10, num_items=7, block_rows=4)
        cache.warm(np.array([0, 9]))
        assert cache.resident_blocks == 2
        cache.warm()
        assert cache.resident_blocks == cache.num_blocks == 3

    def test_out_of_range_user(self):
        cache = ScoreCache(toy_scorer, num_users=4, num_items=3)
        with pytest.raises(IndexError):
            cache.scores_for_user(4)
        with pytest.raises(IndexError):
            cache.scores_for_users(np.array([0, 7]))

    def test_rejects_bad_block_rows(self):
        with pytest.raises(ValueError, match="block_rows"):
            ScoreCache(toy_scorer, num_users=4, num_items=3, block_rows=0)


class TestScoreCacheAgainstModel:
    """The contract the engine relies on: cache rows are bit-identical
    to the canonical direct full-row scoring call on a real model."""

    def test_exact_equality_with_trained_model(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        train = tiny_split.train
        cache = ScoreCache(
            model.score_user_items,
            num_users=train.num_users,
            num_items=train.num_items,
            block_rows=16,
        )
        items = np.arange(train.num_items, dtype=np.int64)
        for user in (0, 1, 15, 16, train.num_users - 1):
            direct = model.score_user_items(
                np.full(train.num_items, user, dtype=np.int64), items
            )
            assert np.array_equal(cache.scores_for_user(user), direct)
