"""Serving-time recommendation for ad-hoc member lists."""

import numpy as np
import pytest

from repro.core import AdhocGroupRecommender, build_adhoc_batch


class TestBuildAdhocBatch:
    def test_padding_and_mask(self, tiny_split):
        friend_sets = tiny_split.train.friend_set()
        batch = build_adhoc_batch([[0, 1, 2], [3, 4]], friend_sets)
        assert batch.members.shape == (2, 3)
        np.testing.assert_array_equal(batch.mask[0], [1, 1, 1])
        np.testing.assert_array_equal(batch.mask[1], [1, 1, 0])

    def test_duplicates_removed(self, tiny_split):
        friend_sets = tiny_split.train.friend_set()
        batch = build_adhoc_batch([[5, 5, 5, 7]], friend_sets)
        assert batch.mask[0].sum() == 2

    def test_adjacency_matches_social_network(self, tiny_split):
        dataset = tiny_split.train
        friend_sets = dataset.friend_set()
        # Find one real friendship pair.
        user = next(u for u, fs in enumerate(friend_sets) if fs)
        friend = next(iter(friend_sets[user]))
        members = sorted({user, friend})
        batch = build_adhoc_batch([members], friend_sets)
        assert batch.adjacency[0, 0, 1]
        assert batch.adjacency[0, 1, 0]

    def test_group_ids_are_sentinel(self, tiny_split):
        batch = build_adhoc_batch([[0, 1]], tiny_split.train.friend_set())
        assert (batch.group_ids == -1).all()

    def test_empty_rejected(self, tiny_split):
        friend_sets = tiny_split.train.friend_set()
        with pytest.raises(ValueError):
            build_adhoc_batch([], friend_sets)
        with pytest.raises(ValueError):
            build_adhoc_batch([[]], friend_sets)


class TestAdhocRecommender:
    @pytest.fixture
    def recommender(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        return AdhocGroupRecommender(model, tiny_split.train)

    def test_score_shapes(self, recommender):
        scores = recommender.score([0, 1, 2], np.arange(7))
        assert scores.shape == (7,)
        assert np.isfinite(scores).all()

    def test_recommend_returns_k(self, recommender):
        top = recommender.recommend([0, 1, 2], k=4)
        assert len(top) == 4
        assert len(set(top.tolist())) == 4

    def test_recommend_excludes_member_history(self, recommender, tiny_split):
        members = [0, 1]
        history = set()
        for member in members:
            history |= tiny_split.train.user_items()[member]
        top = recommender.recommend(members, k=10)
        assert not set(top.tolist()) & history

    def test_recommend_without_exclusion(self, recommender):
        top = recommender.recommend([0, 1], k=5, exclude_member_history=False)
        assert len(top) == 5

    @pytest.mark.parametrize("exclude_history", [True, False])
    def test_recommend_matches_the_loop_and_argsort_ranking(
        self, recommender, tiny_split, exclude_history
    ):
        # The ranking recommend() used before it moved to the shared
        # exclusion_mask + topk_indices kernels: a Python candidate loop
        # and a full stable argsort (descending score, ascending id).
        members = [4, 9, 23]
        exclude = set()
        if exclude_history:
            for member in members:
                exclude |= tiny_split.train.user_items()[member]
        candidates = np.array(
            [i for i in range(tiny_split.train.num_items) if i not in exclude]
        )
        scores = recommender.score(members, candidates)
        expected = candidates[np.argsort(-scores, kind="stable")[:7]]
        got = recommender.recommend(members, k=7, exclude_member_history=exclude_history)
        assert got.tolist() == expected.tolist()
        prebuilt = recommender.recommend(
            members,
            k=7,
            exclude_member_history=exclude_history,
            batch=recommender.batch(members),
        )
        assert prebuilt.tolist() == expected.tolist()

    def test_matches_dataset_group_scoring(self, recommender, trained_tiny_model, tiny_split):
        # Scoring the member list of a real group ad-hoc must equal
        # scoring the group through the batcher (same members, same
        # adjacency -> same forward pass).
        model, batcher, __ = trained_tiny_model
        group = 0
        members = tiny_split.train.group_members[group].tolist()
        items = np.arange(5)
        adhoc = recommender.score(members, items)
        batch = batcher.batch(np.zeros(5, dtype=np.int64))
        via_batcher = model.score_group_items(batch, items)
        np.testing.assert_allclose(adhoc, via_batcher, atol=1e-9)

    def test_voting_weights_distribution(self, recommender):
        weights = recommender.voting_weights([0, 1, 2], item_id=0)
        assert weights.shape == (3,)
        assert weights.sum() == pytest.approx(1.0, abs=1e-8)
