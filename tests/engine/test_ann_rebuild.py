"""IVFIndex.rebuild: config/seed preservation and post-swap recall."""

import numpy as np
import pytest

from repro.engine import EngineConfig, InferenceEngine
from repro.engine.ann import IVFIndex, recall_at_k
from repro.engine.topk import topk_indices


@pytest.fixture(scope="module")
def vectors():
    return np.random.default_rng(17).standard_normal((400, 12))


@pytest.fixture(scope="module")
def new_vectors():
    return np.random.default_rng(18).standard_normal((400, 12))


class TestRebuildConfig:
    def test_explicit_nlist_and_nprobe_carry_over(self, vectors, new_vectors):
        index = IVFIndex(vectors, nlist=25, nprobe=6, seed=3)
        rebuilt = index.rebuild(new_vectors)
        assert rebuilt.nlist == 25
        assert rebuilt.nprobe == 6

    def test_default_nlist_readapts_to_catalog(self, vectors):
        index = IVFIndex(vectors, seed=3)  # nlist defaulted (~sqrt)
        grown = np.random.default_rng(19).standard_normal((1600, 12))
        rebuilt = index.rebuild(grown)
        bigger = IVFIndex(grown, seed=3)
        assert rebuilt.nlist == bigger.nlist  # re-derived, not frozen

    def test_explicit_nlist_clamps_to_tiny_catalog(self, vectors):
        index = IVFIndex(vectors, nlist=25, seed=3)
        rebuilt = index.rebuild(vectors[:10])
        assert rebuilt.nlist <= 10

    def test_seed_preserved_rebuild_is_deterministic(self, vectors, new_vectors):
        index = IVFIndex(vectors, nlist=16, seed=7)
        first = index.rebuild(new_vectors)
        second = index.rebuild(new_vectors)
        for a, b in zip(first.lists, second.lists):
            assert np.array_equal(a, b)
        # Same lists as building from scratch with the original seed.
        scratch = IVFIndex(new_vectors, nlist=16, seed=7)
        for a, b in zip(first.lists, scratch.lists):
            assert np.array_equal(a, b)

    def test_rebuilt_index_indexes_the_new_vectors(self, vectors, new_vectors):
        index = IVFIndex(vectors, nlist=20, seed=0)
        rebuilt = index.rebuild(new_vectors)
        for members, block in zip(rebuilt.lists, rebuilt.blocks):
            assert np.array_equal(block, new_vectors[members])

    def test_rebuilt_recall_against_new_vectors(self, vectors, new_vectors):
        # Structure-free Gaussian vectors are IVF's adversarial case, so
        # the probe budget covers most lists.
        index = IVFIndex(vectors, nlist=16, nprobe=12, seed=0)
        rebuilt = index.rebuild(new_vectors)
        queries = np.random.default_rng(20).standard_normal((50, 12))
        recalls = []
        for query in queries:
            exact = topk_indices(new_vectors @ query, 10)
            approx, __ = rebuilt.search(query, 10)
            recalls.append(recall_at_k(approx, exact))
        assert float(np.mean(recalls)) >= 0.95


class TestEngineSwapRecall:
    def test_post_swap_ann_recall_vs_new_model(
        self, trained_tiny_model, tiny_split
    ):
        """After a hot-swap the ANN index must serve the NEW model.

        The engine is built in ANN mode over the old model, swapped to
        a perturbed model, and its Top-10 lists are compared against
        exhaustive Top-10 on the *new* model: recall@10 >= 0.95.  A
        stale index (still clustering the old item embeddings) fails
        this immediately.
        """
        import copy

        model, __, __h = trained_tiny_model
        dataset = tiny_split.train
        # Probe every list, but keep the candidate pool *smaller than
        # the catalog*: with all 50 items as candidates even a stale
        # index would pass, since the exact reranker sees everything.
        config = EngineConfig(
            retrieval="ann", ann_nprobe=16, ann_candidates=44
        )
        # The new model permutes the item-embedding rows: the harshest
        # realistic drift for an index, since every stored vector now
        # describes a different item.  A stale index is catastrophically
        # wrong; a rebuilt one tracks the new table.
        new_model = copy.deepcopy(model)
        table = new_model.item_embedding.weight.data
        table[:] = table[np.random.default_rng(5).permutation(table.shape[0])]

        engine = InferenceEngine(model, dataset, config=config)
        exhaustive = InferenceEngine(new_model, dataset)
        try:
            old_index = engine.ann_index
            engine.swap_model(new_model, version=1)
            assert engine.model_version == 1

            # Structural freshness: the swap installed a *new* index
            # whose stored blocks mirror the NEW item table (the tiny
            # catalog is too small for a recall gap to prove this, so
            # it is asserted directly).
            rebuilt = engine.ann_index
            assert rebuilt is not old_index
            new_table = new_model.item_embedding.weight.data
            for members, block in zip(rebuilt.lists, rebuilt.blocks):
                assert np.array_equal(block, new_table[members])

            recalls = []
            for user in range(dataset.num_users):
                exact, __e = exhaustive.topk_user(user, 10)
                approx, __s = engine.topk_user(user, 10)
                recalls.append(recall_at_k(approx, exact))
            assert float(np.mean(recalls)) >= 0.95
        finally:
            engine.close()
            exhaustive.close()
