"""Negative sampling and BPR triple batching."""

import numpy as np
import pytest

from repro.data.sampling import (
    NegativeSampler,
    bpr_triple_batches,
    sample_evaluation_candidates,
)


class TestNegativeSampler:
    def test_negatives_never_observed(self):
        interacted = [{0, 1, 2}, {3}]
        sampler = NegativeSampler(interacted, num_items=10, rng=0)
        for __ in range(20):
            for item in sampler.sample(0, 5):
                assert item not in interacted[0]

    def test_requested_count(self):
        sampler = NegativeSampler([{0}], num_items=10, rng=0)
        assert sampler.sample(0, 7).shape == (7,)

    def test_sample_many_shape(self):
        sampler = NegativeSampler([{0}, {1}, {2}], num_items=10, rng=0)
        out = sampler.sample_many(np.array([0, 2, 1]), 4)
        assert out.shape == (3, 4)

    def test_exhausted_entity_raises(self):
        sampler = NegativeSampler([set(range(5))], num_items=5, rng=0)
        with pytest.raises(ValueError):
            sampler.sample(0, 1)

    def test_single_free_item_found(self):
        sampler = NegativeSampler([set(range(9))], num_items=10, rng=0)
        np.testing.assert_array_equal(sampler.sample(0, 3), [9, 9, 9])

    def test_needs_two_items(self):
        with pytest.raises(ValueError):
            NegativeSampler([set()], num_items=1)


class TestSampleManyIsThePerEntityLoop:
    """``sample_many`` draws in blocks what ``sample`` draws entity by
    entity: same negatives, same generator state afterwards."""

    NUM_ITEMS = 40

    @pytest.fixture(scope="class")
    def interacted(self):
        rng = np.random.default_rng(0)
        sets = [
            set(rng.choice(self.NUM_ITEMS, size=rng.integers(0, 30), replace=False).tolist())
            for __ in range(20)
        ]
        sets.append(set(range(self.NUM_ITEMS)) - {3, 17})  # nearly every draw rejected
        sets.append(set())
        sets.append({1, self.NUM_ITEMS + 1, -2})  # ids no draw can produce
        return sets

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_values_and_generator_state(self, interacted, seed, count):
        blocks = NegativeSampler(interacted, self.NUM_ITEMS, rng=seed)
        loop = NegativeSampler(interacted, self.NUM_ITEMS, rng=seed)
        entities = np.random.default_rng(seed).integers(0, len(interacted), 64)
        entities[seed] = 20  # the nearly exhausted one, every time
        for __ in range(3):
            got = blocks.sample_many(entities, count)
            want = np.stack([loop.sample(int(entity), count) for entity in entities])
            np.testing.assert_array_equal(got, want)
            assert blocks._rng.bit_generator.state == loop._rng.bit_generator.state

    def test_exhausted_entity_raises(self):
        sampler = NegativeSampler([{0}, set(range(5))], num_items=5, rng=0)
        with pytest.raises(ValueError, match="entity 1"):
            sampler.sample_many(np.array([0, 1, 0]), 2)

    def test_no_entities(self):
        sampler = NegativeSampler([{0}], num_items=5, rng=0)
        assert sampler.sample_many(np.empty(0, dtype=np.int64), 3).shape == (0, 3)


class TestBprTripleBatches:
    def setup_method(self):
        self.edges = np.array([[0, 1], [1, 2], [0, 3], [2, 4]])
        self.sampler = NegativeSampler(
            [{1, 3}, {2}, {4}], num_items=10, rng=0
        )

    def test_covers_all_edges(self):
        seen = []
        for entities, positives, __ in bpr_triple_batches(
            self.edges, self.sampler, batch_size=2, rng=0
        ):
            seen.extend(zip(entities.tolist(), positives.tolist()))
        assert sorted(seen) == sorted(map(tuple, self.edges))

    def test_negatives_expansion(self):
        for entities, positives, negatives in bpr_triple_batches(
            self.edges, self.sampler, batch_size=4, negatives_per_positive=3, rng=0
        ):
            assert len(entities) == len(positives) == len(negatives) == 12

    def test_negative_validity(self):
        interacted = [{1, 3}, {2}, {4}]
        for entities, __, negatives in bpr_triple_batches(
            self.edges, self.sampler, batch_size=4, negatives_per_positive=2, rng=0
        ):
            for entity, negative in zip(entities, negatives):
                assert negative not in interacted[entity]

    def test_empty_edges_yields_nothing(self):
        batches = list(
            bpr_triple_batches(np.empty((0, 2), dtype=np.int64), self.sampler)
        )
        assert batches == []

    def test_shuffling_differs_by_seed(self):
        first = [
            p.tolist()
            for __, p, __n in bpr_triple_batches(self.edges, self.sampler, 2, rng=0)
        ]
        second = [
            p.tolist()
            for __, p, __n in bpr_triple_batches(self.edges, self.sampler, 2, rng=5)
        ]
        assert first != second


class TestEvaluationCandidates:
    def test_excludes_interacted(self):
        interacted = [set(range(50))]
        candidates = sample_evaluation_candidates(0, interacted, 100, 30, rng=0)
        assert len(candidates) == 30
        assert not set(candidates.tolist()) & interacted[0]

    def test_no_duplicates(self):
        candidates = sample_evaluation_candidates(0, [{1}], 200, 100, rng=0)
        assert len(set(candidates.tolist())) == 100

    def test_caps_at_available(self):
        candidates = sample_evaluation_candidates(0, [set(range(95))], 100, 100, rng=0)
        assert len(candidates) == 5

    def test_no_unseen_items_raises(self):
        with pytest.raises(ValueError):
            sample_evaluation_candidates(0, [set(range(10))], 10, 5, rng=0)
