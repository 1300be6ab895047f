"""ItemKNN and BPR-MF reference baselines."""

import numpy as np
import pytest

from repro.baselines import BPRMF, ItemKNN


class TestItemKNN:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_split):
        return ItemKNN(neighbours=10).fit(tiny_split)

    def test_scores_shapes(self, fitted):
        users = np.array([0, 1, 2])
        items = np.array([0, 1, 2])
        assert fitted.score_user_items(users, items).shape == (3,)
        assert fitted.score_group_items(users, items).shape == (3,)

    def test_history_items_score_high(self, fitted, tiny_split):
        # An item similar to the user's history should outscore a
        # random item on average over many users.
        train = tiny_split.train
        edges = train.user_item[:60]
        rng = np.random.default_rng(0)
        positives = fitted.score_user_items(edges[:, 0], edges[:, 1])
        randoms = fitted.score_user_items(
            edges[:, 0], rng.integers(0, train.num_items, size=len(edges))
        )
        assert positives.mean() > randoms.mean()

    def test_neighbour_truncation(self, tiny_split):
        dense = ItemKNN(neighbours=1000).fit(tiny_split)
        sparse = ItemKNN(neighbours=2).fit(tiny_split)
        nonzero_dense = (dense._similarity > 0).sum()
        nonzero_sparse = (sparse._similarity > 0).sum()
        assert nonzero_sparse <= nonzero_dense

    def test_validation(self):
        with pytest.raises(ValueError):
            ItemKNN(neighbours=0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ItemKNN().score_user_items(np.array([0]), np.array([0]))


class TestBPRMF:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_split):
        return BPRMF(dim=8, epochs=6, batch_size=64, seed=0).fit(tiny_split)

    def test_scores_shapes(self, fitted):
        users = np.array([0, 1])
        items = np.array([0, 1])
        assert fitted.score_user_items(users, items).shape == (2,)
        assert fitted.score_group_items(users, items).shape == (2,)

    def test_learns_training_preferences(self, fitted, tiny_split):
        train = tiny_split.train
        rng = np.random.default_rng(1)
        edges = train.user_item[:80]
        positives = fitted.score_user_items(edges[:, 0], edges[:, 1])
        randoms = fitted.score_user_items(
            edges[:, 0], rng.integers(0, train.num_items, size=len(edges))
        )
        assert (positives > randoms).mean() > 0.6

    def test_group_score_is_member_average(self, fitted, tiny_split):
        group, item = 0, 3
        members = tiny_split.train.group_members[group]
        member_scores = fitted.score_user_items(
            members, np.full(members.size, item, dtype=np.int64)
        )
        group_score = fitted.score_group_items(np.array([group]), np.array([item]))[0]
        assert group_score == pytest.approx(member_scores.mean())

        # Every training group against 5 items, in one call, against a
        # reference written member by member from the factors.
        train = tiny_split.train
        network = fitted._network
        users = network.user_factors.weight.data
        items = network.item_factors.weight.data
        bias = network.item_bias.data
        groups = np.repeat(np.arange(train.num_groups), 5)
        candidates = np.random.default_rng(3).integers(0, train.num_items, groups.size)
        expected = []
        for group_id, item_id in zip(groups, candidates):
            per_member = [
                float(users[member] @ items[item_id] + bias[item_id])
                for member in train.group_members[group_id]
            ]
            expected.append(sum(per_member) / len(per_member))
        assert fitted.score_group_items(groups, candidates) == pytest.approx(expected)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            BPRMF().score_user_items(np.array([0]), np.array([0]))
