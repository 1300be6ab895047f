"""IVF candidate generation: index invariants and engine ANN mode.

The load-bearing contracts: the inverted lists exactly partition the
catalog, probing every list reproduces the exhaustive inner-product
Top-K, and exclusions never leak into candidates.  That ANN mode at
full probe returns the exhaustive lists is the differential test's
(``tests/integration/test_scoring_modes.py``).
"""

import copy

import numpy as np
import pytest

from repro.engine import EngineConfig, InferenceEngine
from repro.engine.ann import IVFIndex, default_nlist, kmeans, recall_at_k
from repro.engine.topk import topk_indices


@pytest.fixture(scope="module")
def vectors():
    return np.random.default_rng(42).standard_normal((500, 12))


@pytest.fixture(scope="module")
def index(vectors):
    return IVFIndex(vectors, nlist=20, nprobe=5, seed=0)


class TestIndexStructure:
    def test_lists_partition_the_catalog(self, index, vectors):
        everything = np.concatenate(index.lists)
        assert np.array_equal(np.sort(everything), np.arange(vectors.shape[0]))

    def test_lists_are_ascending(self, index):
        for members in index.lists:
            if members.size > 1:
                assert np.all(np.diff(members) > 0)

    def test_blocks_mirror_lists(self, index, vectors):
        for members, block in zip(index.lists, index.blocks):
            assert np.array_equal(block, vectors[members])

    def test_same_seed_same_index(self, vectors):
        first = IVFIndex(vectors, nlist=16, seed=7)
        second = IVFIndex(vectors, nlist=16, seed=7)
        for a, b in zip(first.lists, second.lists):
            assert np.array_equal(a, b)

    def test_default_nlist_is_about_sqrt(self):
        assert default_nlist(10000) == 100
        assert default_nlist(1) == 1
        assert default_nlist(2) <= 2

    def test_stats_shape(self, index, vectors):
        stats = index.stats()
        assert stats["num_vectors"] == vectors.shape[0]
        assert stats["nlist"] == 20
        assert stats["list_size_min"] >= 0
        assert stats["list_size_max"] >= stats["list_size_mean"]

    def test_validation(self, vectors):
        with pytest.raises(ValueError, match="empty"):
            IVFIndex(np.empty((0, 4)))
        with pytest.raises(ValueError, match="2-D"):
            IVFIndex(np.zeros(8))
        with pytest.raises(ValueError, match="nlist"):
            IVFIndex(vectors, nlist=0)
        with pytest.raises(ValueError, match="nprobe"):
            IVFIndex(vectors, nprobe=0)
        with pytest.raises(ValueError, match="k must be"):
            kmeans(vectors, 0)

    def test_query_dimension_checked(self, index):
        with pytest.raises(ValueError, match="dimensions"):
            index.search(np.zeros(5), 3)

    def test_exclude_mask_shape_checked(self, index):
        with pytest.raises(ValueError, match="exclude_mask"):
            index.candidates(np.zeros(12), 10, exclude_mask=np.zeros(3, dtype=bool))


class TestSearch:
    def test_full_probe_matches_exhaustive(self, index, vectors):
        rng = np.random.default_rng(1)
        for __ in range(25):
            query = rng.standard_normal(12)
            exact = topk_indices(vectors @ query, 10)
            approx, scores = index.search(query, 10, nprobe=index.nlist)
            assert np.array_equal(approx, exact)
            assert np.allclose(scores, (vectors @ query)[exact])

    def test_scores_descend(self, index):
        __, scores = index.search(np.random.default_rng(2).standard_normal(12), 10)
        assert np.all(np.diff(scores) <= 0)

    def test_partial_probe_returns_subset_of_catalog(self, index, vectors):
        approx, __ = index.search(np.ones(12), 10, nprobe=2)
        assert approx.size == 10
        assert np.all((approx >= 0) & (approx < vectors.shape[0]))

    def test_tied_scores_order_ascending(self):
        # Every row identical => every inner product ties; among equal
        # scores the output must ascend by position.
        tied = np.tile(np.ones(6), (40, 1))
        index = IVFIndex(tied, nlist=4, seed=0)
        positions, scores = index.search(np.ones(6), 8, nprobe=4)
        assert np.all(np.diff(scores) == 0)
        assert np.all(np.diff(positions) > 0)

    def test_k_larger_than_catalog(self, index, vectors):
        positions, __ = index.search(np.ones(12), 1000, nprobe=index.nlist)
        assert positions.size == vectors.shape[0]


class TestCandidates:
    def test_candidates_ascending_and_unique(self, index):
        candidates = index.candidates(np.ones(12), 64)
        assert candidates.size <= 64
        assert np.all(np.diff(candidates) > 0)

    def test_exclusions_never_leak(self, index, vectors):
        mask = np.zeros(vectors.shape[0], dtype=bool)
        mask[::3] = True
        candidates = index.candidates(np.ones(12), 200, nprobe=index.nlist,
                                      exclude_mask=mask)
        assert not mask[candidates].any()

    def test_min_results_escalates_past_nprobe(self, index, vectors):
        # One probed list cannot hold 100 survivors of a heavy mask;
        # the index must keep probing instead of starving the caller.
        mask = np.zeros(vectors.shape[0], dtype=bool)
        mask[: vectors.shape[0] // 2] = True
        candidates = index.candidates(
            np.ones(12), 400, nprobe=1, exclude_mask=mask, min_results=100
        )
        assert candidates.size >= 100
        assert not mask[candidates].any()

    def test_everything_excluded_yields_empty(self, index, vectors):
        mask = np.ones(vectors.shape[0], dtype=bool)
        candidates = index.candidates(
            np.ones(12), 10, nprobe=index.nlist, exclude_mask=mask, min_results=10
        )
        assert candidates.size == 0


class TestRecallHelper:
    def test_perfect_and_partial(self):
        assert recall_at_k(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0
        assert recall_at_k(np.array([1, 9, 8]), np.array([1, 2, 3])) == pytest.approx(1 / 3)
        assert recall_at_k(np.array([]), np.array([])) == 1.0


class TestEngineAnnMode:
    def test_invalid_retrieval_mode_rejected(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        with pytest.raises(ValueError, match="retrieval"):
            InferenceEngine(
                model, tiny_split.train, config=EngineConfig(retrieval="faiss")
            )

    def test_ann_mode_excludes_user_history(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        train = tiny_split.train
        config = EngineConfig(retrieval="ann", ann_nprobe=2, ann_candidates=16)
        with InferenceEngine(model, train, config=config) as engine:
            histories = train.user_items()
            for user in range(20):
                items, __s = engine.topk_user(user, k=5)
                assert not histories[user] & set(items.tolist())

    def test_ann_telemetry_recorded(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        config = EngineConfig(retrieval="ann", ann_nprobe=2, ann_candidates=16)
        with InferenceEngine(model, tiny_split.train, config=config) as engine:
            engine.topk_user(0, k=5)
            engine.topk_group(0, k=5)
            snapshot = engine.telemetry_snapshot()
        assert snapshot["counters"]["ann.queries"] == 2
        assert 10 <= snapshot["counters"]["ann.candidates"] <= 32

    def test_index_builds_are_timed(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        config = EngineConfig(retrieval="ann", ann_nprobe=2, ann_candidates=16)
        with InferenceEngine(model, tiny_split.train, config=config) as engine:
            builds = engine.registry.histogram("stage.ann.build")
            assert builds.count == 1
            engine.swap_model(copy.deepcopy(model))
            assert builds.count == 2
            stages = engine.telemetry_snapshot()["stages"]
        assert stages["ann.build"]["count"] == 2
        assert stages["engine.swap"]["count"] == 1
