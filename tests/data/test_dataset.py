"""GroupRecommendationDataset invariants and derived views."""

import numpy as np
import pytest

from repro.data import GroupRecommendationDataset


def make_dataset(**overrides):
    defaults = dict(
        num_users=4,
        num_items=5,
        num_groups=2,
        user_item=[(0, 0), (0, 1), (1, 2), (3, 4)],
        group_item=[(0, 1), (1, 3)],
        social=[(0, 1), (1, 2), (2, 3)],
        group_members=[np.array([0, 1]), np.array([1, 2, 3])],
    )
    defaults.update(overrides)
    return GroupRecommendationDataset(**defaults)


class TestValidation:
    def test_valid_dataset_constructs(self):
        dataset = make_dataset()
        assert dataset.num_users == 4

    def test_user_id_out_of_range(self):
        with pytest.raises(ValueError, match="user id"):
            make_dataset(user_item=[(9, 0)])

    def test_item_id_out_of_range(self):
        with pytest.raises(ValueError, match="item id"):
            make_dataset(group_item=[(0, 99)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loops"):
            make_dataset(social=[(1, 1)])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="no members"):
            make_dataset(group_members=[np.array([], dtype=np.int64), np.array([1])])

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_dataset(group_members=[np.array([1, 1]), np.array([2])])

    def test_member_count_mismatch(self):
        with pytest.raises(ValueError, match="member lists"):
            make_dataset(group_members=[np.array([0, 1])])

    def test_bad_edge_shape(self):
        with pytest.raises(ValueError, match="shape"):
            make_dataset(user_item=np.zeros((3, 3), dtype=np.int64))


class TestDerivedViews:
    def test_user_items(self):
        dataset = make_dataset()
        sets = dataset.user_items()
        assert sets[0] == {0, 1}
        assert sets[2] == set()

    def test_group_items(self):
        dataset = make_dataset()
        assert dataset.group_items()[0] == {1}

    def test_friends_symmetric_sorted(self):
        dataset = make_dataset()
        friends = dataset.friends()
        np.testing.assert_array_equal(friends[1], [0, 2])
        np.testing.assert_array_equal(friends[0], [1])

    def test_friend_set(self):
        dataset = make_dataset()
        assert dataset.friend_set()[1] == {0, 2}

    def test_item_popularity(self):
        dataset = make_dataset(user_item=[(0, 0), (1, 0), (2, 3)])
        popularity = dataset.item_popularity()
        assert popularity[0] == 2
        assert popularity[3] == 1
        assert popularity[1] == 0

    def test_group_sizes(self):
        np.testing.assert_array_equal(make_dataset().group_sizes(), [2, 3])

    def test_caches_are_stable(self):
        dataset = make_dataset()
        assert dataset.user_items() is dataset.user_items()
        assert dataset.friends() is dataset.friends()
        assert dataset.friend_set() is dataset.friend_set()


class TestWithInteractions:
    def test_replaces_edges_keeps_structure(self):
        dataset = make_dataset()
        derived = dataset.with_interactions(
            user_item=np.array([[0, 0]]), group_item=np.array([[1, 1]]), name="derived"
        )
        assert derived.name == "derived"
        assert len(derived.user_item) == 1
        assert derived.num_users == dataset.num_users
        np.testing.assert_array_equal(derived.social, dataset.social)

    def test_empty_edges_supported(self):
        dataset = make_dataset()
        derived = dataset.with_interactions(
            user_item=np.empty((0, 2), dtype=np.int64),
            group_item=np.empty((0, 2), dtype=np.int64),
        )
        assert len(derived.user_item) == 0
        assert derived.user_items()[0] == set()

    def test_derived_views_are_not_carried_over(self):
        dataset = make_dataset()
        seen, friend_sets = dataset.user_items(), dataset.friend_set()
        derived = dataset.with_interactions(
            user_item=np.array([[2, 4]]), group_item=np.array([[1, 1]])
        )
        assert derived.user_items() is not seen
        assert derived.user_items()[2] == {4} and derived.user_items()[0] == set()
        # Same social network, but the clone builds (and caches) its own view.
        assert derived.friend_set() is not friend_sets
        assert derived.friend_set() == friend_sets
        assert derived.friend_set() is derived.friend_set()
