"""Score cache: exact equality with direct scoring, LRU residency."""

import copy
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig
from repro.engine.score_cache import LRUCache, ScoreCache
from repro.obs.metrics_registry import MetricsRegistry
from repro.serving import RecommendationService


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
        cache.scores_for_user(0)  # the row is filled: a hit
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
        cache.warm()  # every row filled: no rescoring
        assert registry.histogram("stage.score_cache.block_compute").count == blocks
        # warm fills ahead of traffic: it counts neither hits nor misses.
        assert registry.counter("score_cache.miss").value == 0
        assert registry.counter("score_cache.hit").value == 0
        cache.scores_for_users(np.arange(10))
        assert registry.counter("score_cache.hit").value == 10
        assert registry.histogram("stage.score_cache.block_compute").count == blocks

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
        cache.scores_for_user(0)  # miss: allocates block 0, scores row 0
        cache.scores_for_user(1)  # miss: same block, but row 1 is unfilled
        cache.scores_for_user(7)  # miss: allocates block 1
        assert cache.resident_blocks == 2
        assert registry.counter("score_cache.miss").value == 3
        assert registry.counter("score_cache.hit").value == 0
        cache.scores_for_user(1)  # hit: row 1 is filled now
        assert registry.counter("score_cache.hit").value == 1
        assert registry.histogram("stage.score_cache.block_compute").count == 3

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


def model_rows(model, num_users, num_items):
    """Every user's direct full-row scoring call, the reference rows."""
    items = np.arange(num_items, dtype=np.int64)
    return np.stack(
        [
            model.score_user_items(np.full(num_items, user, dtype=np.int64), items)
            for user in range(num_users)
        ]
    )


class TestRowFillsAgainstModel:
    """A miss scores the requested rows only; in whatever order rows are
    filled, each equals the model's direct full-row call bit for bit."""

    BLOCK = 16

    @pytest.fixture(scope="class")
    def world(self, trained_tiny_model, tiny_split):
        model = trained_tiny_model[0]
        train = tiny_split.train
        return model, model_rows(model, train.num_users, train.num_items)

    def watched_cache(self, model, reference, budget_blocks=None):
        """A cache over ``model`` whose scorer checks that no row it is
        asked for is already filled in a resident block, and records the
        users of every call."""
        num_users, num_items = reference.shape
        calls = []

        def score_fn(users, items):
            ids = users[::num_items]
            assert np.array_equal(users, np.repeat(ids, num_items))
            assert np.unique(ids).size == ids.size
            for user in ids.tolist():
                block = cache._blocks.peek(user // self.BLOCK)
                assert block is None or not block.filled[user % self.BLOCK]
            calls.append(ids)
            return model.score_user_items(users, items)

        budget = None
        if budget_blocks is not None:
            budget = budget_blocks * self.BLOCK * num_items * 8
        cache = ScoreCache(
            score_fn, num_users, num_items, block_rows=self.BLOCK,
            memory_budget_bytes=budget,
        )
        return cache, calls

    ID = st.integers(0, 10**6)  # taken modulo the user count

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("users"), st.lists(ID, min_size=1, max_size=10)),
                st.tuples(st.just("user"), ID),
                st.tuples(st.just("warm"), st.none() | st.lists(ID, max_size=3)),
            ),
            min_size=1,
            max_size=12,
        ),
        one_block=st.booleans(),
    )
    def test_any_interleaving_is_exact(self, world, ops, one_block):
        model, reference = world
        num_users = reference.shape[0]
        cache, calls = self.watched_cache(model, reference, 1 if one_block else None)
        for kind, arg in ops:
            if kind == "users":
                users = np.array(arg, dtype=np.int64) % num_users
                assert np.array_equal(cache.scores_for_users(users), reference[users])
            elif kind == "user":
                user = arg % num_users
                assert np.array_equal(cache.scores_for_user(user), reference[user])
            else:
                cache.warm(None if arg is None else np.array(arg, np.int64) % num_users)
            if one_block:
                assert cache.resident_blocks <= 1
        if not one_block:
            # Nothing is ever evicted, so no row is ever scored twice.
            scored = np.concatenate(calls) if calls else np.empty(0, np.int64)
            assert np.unique(scored).size == scored.size

    def test_a_miss_scores_only_the_requested_rows(self, world):
        model, reference = world
        cache, calls = self.watched_cache(model, reference)
        users = np.array([3, 40, 3, 17, 40], dtype=np.int64)
        assert np.array_equal(cache.scores_for_users(users), reference[users])
        # One pass over the three distinct rows, across three blocks.
        assert sorted(np.concatenate(calls).tolist()) == [3, 17, 40]
        assert cache.registry.counter("score_cache.miss").value == 5
        assert cache.registry.histogram("stage.score_cache.block_compute").count == 1
        cache.warm(np.array([3]))  # the rest of block 0, one pass
        assert sorted(np.concatenate(calls[-2:]).tolist()) == [
            user for user in range(self.BLOCK) if user != 3
        ]
        assert cache.registry.histogram("stage.score_cache.block_compute").count == 2

    @pytest.mark.parametrize("failing_call", [0, 1])
    def test_failed_fill_into_a_resident_block(self, world, failing_call):
        """The second fill into block 0 raises in one of its two calls:
        the row filled earlier stays, no new row is marked filled, no
        latency is recorded, and the retry is bit-identical."""
        model, reference = world
        calls = []

        def flaky(users, items):
            calls.append(users)
            if fail.is_set() and len(calls) == 2 + failing_call:
                raise RuntimeError("scorer down")
            return model.score_user_items(users, items)

        fail = threading.Event()
        registry = MetricsRegistry()
        num_users, num_items = reference.shape
        cache = ScoreCache(
            flaky, num_users, num_items, block_rows=self.BLOCK, registry=registry
        )
        assert np.array_equal(cache.scores_for_user(0), reference[0])
        fail.set()
        with pytest.raises(RuntimeError, match="scorer down"):
            cache.scores_for_users(np.array([1, 2]))
        fail.clear()
        assert cache.resident_blocks == 1
        assert registry.histogram("stage.score_cache.block_compute").count == 1
        misses = registry.counter("score_cache.miss").value
        hits = registry.counter("score_cache.hit").value
        assert np.array_equal(cache.scores_for_user(0), reference[0])
        assert registry.counter("score_cache.hit").value == hits + 1
        retried = cache.scores_for_users(np.array([1, 2]))
        assert np.array_equal(retried, reference[[1, 2]])
        assert registry.counter("score_cache.miss").value == misses + 2
        assert registry.histogram("stage.score_cache.block_compute").count == 2

    def test_failed_fill_leaves_no_new_block_resident(self, world):
        model, reference = world

        def flaky(users, items):
            if np.any(users >= self.BLOCK):
                raise RuntimeError("scorer down")
            return model.score_user_items(users, items)

        num_users, num_items = reference.shape
        cache = ScoreCache(flaky, num_users, num_items, block_rows=self.BLOCK)
        cache.scores_for_user(0)
        with pytest.raises(RuntimeError, match="scorer down"):
            cache.scores_for_users(np.array([1, self.BLOCK]))
        assert cache.resident_blocks == 1
        with pytest.raises(RuntimeError, match="scorer down"):
            cache.warm(np.array([self.BLOCK]))
        assert cache.resident_blocks == 1

    def test_warm_beside_the_engine_worker_scores_each_row_once(
        self, trained_tiny_model, tiny_split
    ):
        """``warm()`` on one thread while the engine worker fills rows of
        the same block for user requests: every row is scored once and
        every list equals direct mode's."""
        model = trained_tiny_model[0]
        train = tiny_split.train
        served = copy.deepcopy(model)
        scored = []
        score = served.score_user_items

        def slow_counting(users, items):
            scored.append(users[:: train.num_items])
            time.sleep(0.002)  # widen the window in which fills overlap
            return score(users, items)

        served.score_user_items = slow_counting
        direct = RecommendationService(model=model, dataset=train)
        backed = RecommendationService(model=served, dataset=train)
        engine = backed.enable_engine(EngineConfig(max_batch_size=4))
        users = np.random.default_rng(3).permutation(train.num_users)[:40].tolist()
        start = threading.Barrier(2)

        def warm():
            start.wait()
            engine.warm()

        try:
            thread = threading.Thread(target=warm)
            thread.start()
            start.wait()
            lists = [backed.recommend_for_user(user, k=5).items for user in users]
            thread.join()
        finally:
            backed.close()
        for user, items in zip(users, lists):
            assert items == direct.recommend_for_user(user, k=5).items
        scored = np.concatenate(scored)
        assert sorted(scored.tolist()) == list(range(train.num_users))
