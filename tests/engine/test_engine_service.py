"""The inference engine's request surface and telemetry.

That engine-backed serving returns the direct path's lists is the
differential test's (``tests/integration/test_scoring_modes.py``); here
are staged futures, validation and the telemetry snapshot.
"""

import pytest

from repro.engine import InferenceEngine
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


class TestEngineTelemetry:
    def test_snapshot_covers_stages_rates_occupancy(self, engine_service):
        engine = engine_service.engine
        engine_service.recommend_for_user(0, k=3)
        engine_service.recommend_for_user(1, k=3)
        engine_service.recommend_for_members([0, 1], k=3)
        engine_service.recommend_for_members([0, 1], k=3)  # adhoc cache hit
        snapshot = engine_service.telemetry_snapshot()
        assert "engine.user_stage" in snapshot["stages"]
        assert "engine.adhoc_stage" in snapshot["stages"]
        assert "batch.execute" in snapshot["stages"]
        assert snapshot["rates"]["score_cache.hit_rate"] > 0.0
        assert snapshot["rates"]["adhoc_cache.hit_rate"] > 0.0
        assert snapshot["batches"]["mean_occupancy"] >= 1.0
        assert snapshot["counters"]["requests.user"] >= 2

    def test_direct_mode_has_no_snapshot(self, direct_service):
        assert direct_service.telemetry_snapshot() is None
