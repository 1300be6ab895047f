"""The inference engine's request surface and telemetry.

That engine-backed serving returns the direct path's lists is the
differential test's (``tests/integration/test_scoring_modes.py``); here
are staged futures, validation, the bundle swap and the telemetry
snapshot.
"""

import copy
import gc
import weakref

import numpy as np
import pytest

from repro.engine import EngineConfig, InferenceEngine
from repro.engine.scorer import RequestViews
from repro.evaluation.ranking import top_k_scored
from repro.persistence import save_model
from repro.serving import RecommendationService


@pytest.fixture(scope="module")
def checkpoint(trained_tiny_model, tmp_path_factory):
    model, __, __h = trained_tiny_model
    path = tmp_path_factory.mktemp("engine") / "model.npz"
    save_model(model, path)
    return path


@pytest.fixture(scope="module")
def direct_service(checkpoint, tiny_split):
    return RecommendationService.from_checkpoint(checkpoint, tiny_split.train)


@pytest.fixture(scope="module")
def engine_service(checkpoint, tiny_split):
    service = RecommendationService.from_checkpoint(
        checkpoint, tiny_split.train, use_engine=True
    )
    yield service
    service.close()


class TestEngineRequests:
    def test_concurrent_mixed_futures(self, direct_service, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        with InferenceEngine(model, tiny_split.train, autostart=False) as engine:
            user_futures = [engine.submit_user(u, k=4) for u in range(6)]
            group_futures = [engine.submit_group(g, k=4) for g in range(4)]
            adhoc_future = engine.submit_members([2, 4, 6], k=4)
            engine.start()
            for user, future in enumerate(user_futures):
                items, __s = future.result(timeout=30)
                assert items.tolist() == direct_service.recommend_for_user(user, k=4).items
            for group, future in enumerate(group_futures):
                items, __s = future.result(timeout=30)
                assert items.tolist() == direct_service.recommend_for_group(group, k=4).items
            items, __s = adhoc_future.result(timeout=30)
            assert items.tolist() == direct_service.recommend_for_members([2, 4, 6], k=4).items
            # Staged submissions coalesced into shared flushes.
            snapshot = engine.telemetry_snapshot()
            assert snapshot["batches"]["mean_occupancy"] > 1.0

    def test_validation(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        with InferenceEngine(model, tiny_split.train) as engine:
            with pytest.raises(IndexError):
                engine.submit_user(10**6)
            with pytest.raises(IndexError):
                engine.submit_group(10**6)
            with pytest.raises(IndexError):
                engine.submit_members([0, 10**6])
            with pytest.raises(ValueError, match="non-empty"):
                engine.submit_members([])
            with pytest.raises(ValueError, match="k must be"):
                engine.submit_user(0, k=0)

    def test_canonical_members(self):
        assert InferenceEngine.canonical_members([5, 1, 5, 3]) == (1, 3, 5)

    def test_bare_topk_members_builds_its_own_batch(
        self, direct_service, trained_tiny_model, tiny_split
    ):
        model, __, __h = trained_tiny_model
        with InferenceEngine(model, tiny_split.train) as engine:
            for members in ([2, 4, 6], [6, 2, 2, 4, 6], [9]):
                items, __s = engine.topk_members(members, k=5)
                want = direct_service.recommend_for_members(members, k=5).items
                assert items.tolist() == want

    def test_service_builds_the_adhoc_batch_once(self, engine_service, monkeypatch):
        calls = []
        build = RequestViews.adhoc

        def counting(self, members):
            calls.append(tuple(members))
            return build(self, members)

        monkeypatch.setattr(RequestViews, "adhoc", counting)
        for members in ([3, 1, 3], [1, 3], [7, 8, 9]):  # no request is a "hit"
            calls.clear()
            engine_service.recommend_for_members(members, k=3)
            assert calls == [tuple(sorted(set(members)))]


@pytest.fixture
def successor(trained_tiny_model):
    """A model that ranks differently: both embedding tables move."""
    model = copy.deepcopy(trained_tiny_model[0])
    rng = np.random.default_rng(3)
    for table in (model.user_embedding, model.item_embedding):
        table.weight.data += rng.normal(0.0, 0.2, table.weight.data.shape)
    return model


class TestBundleSwap:
    """One bundle per version: the cache is swapped and freed with it."""

    def test_resident_block_never_serves_the_successor(
        self, trained_tiny_model, successor, tiny_split
    ):
        model, __, __h = trained_tiny_model
        dataset = tiny_split.train
        user, k = 5, 6
        seen = dataset.user_items()[user]

        def reference(version):
            return top_k_scored(version.score_user_items, user, dataset.num_items, k, seen)

        assert reference(model)[0].tolist() != reference(successor)[0].tolist()
        with InferenceEngine(model, dataset) as engine:
            items, __s, version = engine.topk_user_versioned(user, k)
            assert (items.tolist(), version) == (reference(model)[0].tolist(), 0)
            old_cache = engine.score_cache
            assert old_cache.resident_blocks > 0

            assert engine.swap_model(successor, 1) == 1
            assert engine.score_cache is not old_cache
            assert engine.score_cache.resident_blocks == 0
            items, scores, version = engine.topk_user_versioned(user, k)
            want_items, want_scores = reference(successor)
            assert (items.tolist(), version) == (want_items.tolist(), 1)
            np.testing.assert_array_equal(scores, want_scores)

            # No batch in flight: nothing but this test holds the old cache.
            old_cache = weakref.ref(old_cache)
            gc.collect()
            assert old_cache() is None

    @pytest.mark.parametrize("version", [3, 2])
    def test_version_must_increase(
        self, trained_tiny_model, successor, tiny_split, version
    ):
        model, __, __h = trained_tiny_model
        with InferenceEngine(model, tiny_split.train, model_version=3) as engine:
            before = engine.topk_user_versioned(0, 4)
            with pytest.raises(ValueError, match="must increase"):
                engine.swap_model(successor, version=version)
            assert engine.model is model
            after = engine.topk_user_versioned(0, 4)
            assert after[0].tolist() == before[0].tolist()
            assert after[2] == before[2] == 3


class TestEngineTelemetry:
    def test_snapshot_covers_stages_rates_occupancy(self, engine_service):
        engine = engine_service.engine
        engine_service.recommend_for_user(0, k=3)
        engine_service.recommend_for_user(0, k=3)  # its row is filled: a hit
        engine_service.recommend_for_members([0, 1], k=3)
        snapshot = engine_service.telemetry_snapshot()
        assert "engine.user_stage" in snapshot["stages"]
        assert "engine.adhoc_stage" in snapshot["stages"]
        assert "batch.execute" in snapshot["stages"]
        assert snapshot["rates"]["score_cache.hit_rate"] > 0.0
        assert snapshot["batches"]["mean_occupancy"] >= 1.0
        assert snapshot["counters"]["requests.user"] >= 2

    def test_direct_mode_has_no_snapshot(self, direct_service):
        assert direct_service.telemetry_snapshot() is None

    def test_engine_takes_no_telemetry_option(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        with pytest.raises(TypeError, match="telemetry"):
            InferenceEngine(model, tiny_split.train, telemetry=object())

    def test_enable_engine_takes_no_telemetry_option(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        service = RecommendationService(model=model, dataset=tiny_split.train)
        with pytest.raises(TypeError, match="telemetry"):
            service.enable_engine(telemetry=object())
        assert service.engine is None

    def test_components_share_the_engine_registry(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        with InferenceEngine(model, tiny_split.train) as engine:
            registry = engine.registry
            assert engine._batcher_queue.registry is registry
            assert engine.score_cache.registry is registry
            assert engine._state.scorer.registry is registry
            engine.swap_model(copy.deepcopy(model))
            assert engine.score_cache.registry is registry
            assert engine._state.scorer.registry is registry
        with InferenceEngine(model, tiny_split.train) as other:
            assert other.registry is not registry

    @pytest.mark.parametrize(
        "kind, arg", [("user", 10**6), ("group", 10**6), ("adhoc", [0, 10**6])]
    )
    def test_rejected_request_is_timed_not_counted(
        self, trained_tiny_model, tiny_split, kind, arg
    ):
        model, __, __h = trained_tiny_model
        with InferenceEngine(model, tiny_split.train) as engine:
            with pytest.raises(IndexError):
                engine.topk(kind, arg, k=3)
            snapshot = engine.telemetry_snapshot()
        assert snapshot["stages"]["engine.request"]["count"] == 1
        assert snapshot["counters"] == {}
        assert snapshot["batches"]["count"] == 0

    @pytest.mark.parametrize("kind, arg", [("user", 4), ("group", 2), ("adhoc", [1, 3])])
    def test_each_kind_records_its_own_stage(
        self, trained_tiny_model, tiny_split, kind, arg
    ):
        model, __, __h = trained_tiny_model
        with InferenceEngine(model, tiny_split.train) as engine:
            engine.topk(kind, arg, k=3)
            snapshot = engine.telemetry_snapshot()
        kind_stages = {name for name in snapshot["stages"] if name.endswith("_stage")}
        assert kind_stages == {f"engine.{kind}_stage"}
        assert snapshot["stages"][f"engine.{kind}_stage"]["count"] == 1
        assert snapshot["counters"][f"requests.{kind}"] == 1

    def test_rejected_swap_is_timed_not_counted(self, trained_tiny_model, tiny_split):
        from repro.core.groupsa import GroupSA
        from tests.conftest import TINY_MODEL_CONFIG

        model, __, __h = trained_tiny_model
        dataset = tiny_split.train
        wrong = GroupSA(dataset.num_users, dataset.num_items + 5, TINY_MODEL_CONFIG)
        with InferenceEngine(model, dataset) as engine:
            with pytest.raises(ValueError, match="entity counts"):
                engine.swap_model(wrong, version=1)
            registry = engine.registry
            assert registry.histogram("stage.engine.swap").count == 1
            assert "engine.swaps" not in registry.counters()
            assert registry.gauge("engine.model_version").value == 0

    @pytest.mark.parametrize("initial", [0, 7])
    def test_model_version_gauge_follows_swaps(
        self, trained_tiny_model, tiny_split, initial
    ):
        model, __, __h = trained_tiny_model
        with InferenceEngine(model, tiny_split.train, model_version=initial) as engine:
            gauge = engine.registry.gauge("engine.model_version")
            assert gauge.value == initial
            assert engine.swap_model(copy.deepcopy(model)) == initial + 1
            assert gauge.value == initial + 1
            assert engine.registry.counter("engine.swaps").value == 1

    def test_fleet_metrics_is_the_engine_registry(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        service = RecommendationService(model=model, dataset=tiny_split.train)
        engine = service.enable_engine()
        try:
            service.recommend_for_user(0, k=3)
            service.recommend_for_members([1, 2], k=3)
            assert service.fleet_metrics().payload() == engine.registry.payload()
        finally:
            service.close()

    def test_metric_surface_is_pinned(self, trained_tiny_model, tiny_split):
        """A fixed request sequence yields exactly these instruments and
        counts: scrapers, ``fleet_metrics()`` and the benchmark read
        them by name."""
        model, __, __h = trained_tiny_model
        service = RecommendationService(model=model, dataset=tiny_split.train)
        engine = service.enable_engine(EngineConfig(max_batch_size=1))
        try:
            for user in range(5):
                service.recommend_for_user(user, k=3)
            for group in range(3):
                service.recommend_for_group(group, k=3)
            for members in ([0, 1], [2, 4, 6]):
                service.recommend_for_members(members, k=3)
            engine.warm()
            engine.swap_model(copy.deepcopy(model))
            snapshot = service.telemetry_snapshot()
            metrics = service.fleet_metrics()
        finally:
            service.close()

        stage_counts = {
            "batch.execute": 10,
            "batch.queue_wait": 10,
            "engine.adhoc_stage": 2,
            "engine.group_stage": 3,
            "engine.request": 10,
            "engine.swap": 1,
            "engine.user_stage": 5,
            # One pass per user flush (each scores its own missing row),
            # then warm()'s one pass over the rest of the only block.
            "score_cache.block_compute": 6,
        }
        assert {
            name: summary["count"] for name, summary in snapshot["stages"].items()
        } == stage_counts
        assert snapshot["counters"] == {
            "batch.flushes": 10,
            "batch.requests": 10,
            "engine.swaps": 1,
            "requests.adhoc": 2,
            "requests.group": 3,
            "requests.user": 5,
            "score_cache.hit": 0,
            "score_cache.miss": 5,
        }
        assert snapshot["rates"] == {"score_cache.hit_rate": 0.0}
        assert snapshot["batches"]["count"] == 10

        payload = metrics.payload()
        assert sorted(payload["counters"]) == sorted(snapshot["counters"])
        assert sorted(payload["gauges"]) == ["engine.model_version"]
        assert sorted(payload["histograms"]) == ["batch.occupancy"] + [
            "stage." + name for name in sorted(stage_counts)
        ]
        types = [
            line
            for line in metrics.exposition().splitlines()
            if line.startswith("# TYPE")
        ]
        assert types == [
            "# TYPE repro_batch_flushes_total counter",
            "# TYPE repro_batch_requests_total counter",
            "# TYPE repro_engine_swaps_total counter",
            "# TYPE repro_requests_adhoc_total counter",
            "# TYPE repro_requests_group_total counter",
            "# TYPE repro_requests_user_total counter",
            "# TYPE repro_score_cache_hit_total counter",
            "# TYPE repro_score_cache_miss_total counter",
            "# TYPE repro_engine_model_version gauge",
            "# TYPE repro_batch_occupancy histogram",
            "# TYPE repro_stage_batch_execute histogram",
            "# TYPE repro_stage_batch_queue_wait histogram",
            "# TYPE repro_stage_engine_adhoc_stage histogram",
            "# TYPE repro_stage_engine_group_stage histogram",
            "# TYPE repro_stage_engine_request histogram",
            "# TYPE repro_stage_engine_swap histogram",
            "# TYPE repro_stage_engine_user_stage histogram",
            "# TYPE repro_stage_score_cache_block_compute histogram",
        ]
