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

from repro.engine import InferenceEngine
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
        engine_service.recommend_for_user(1, k=3)
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
