"""The scoring core alone (``repro.engine.scorer``).

The serving shells are compared with each other and with the reference
in ``tests/integration/test_scoring_modes.py``; here is what the core
itself promises: what a candidate set is in every slice, that the two
forms of a user request agree, that a list of user requests is one
scoring pass, that the dataset-side state is built once per process,
and that bad input is still the same typed error.
"""

import numpy as np
import pytest

from repro.cluster.plan import ShardPlan
from repro.cluster.weights import write_model_store
from repro.cluster.worker import ShardScorer, WorkerSpec, _build_scorers
from repro.core import GroupSA
from repro.core.user_modeling import UserModeling
from repro.engine import scorer as core
from repro.engine.ann import IVFIndex
from repro.engine.score_cache import ScoreCache
from repro.engine.scorer import RequestViews, Scorer, check_request
from repro.obs.metrics_registry import MetricsRegistry
from tests.conftest import TINY_MODEL_CONFIG
from tests.core.test_entity_hoist import TOLERANCE, build

SLICES = {
    "whole": None,
    "contiguous": ("contiguous", 3, 1),
    "modulo": ("modulo", 3, 2),
}
ANN = {"retrieval": "ann", "ann_nprobe": 3, "ann_candidates": 12}


@pytest.fixture(scope="module")
def dataset(tiny_split):
    return tiny_split.train


@pytest.fixture(scope="module")
def views(dataset):
    return RequestViews(dataset)


@pytest.fixture(scope="module")
def model(dataset):
    return build(dataset, "float64")


def make_scorer(model, views, name, **retrieval):
    if SLICES[name] is None:
        index = None
        if retrieval:
            table = model.item_embedding.weight.data
            index = IVFIndex(table, nprobe=retrieval["ann_nprobe"])
        return Scorer(
            model,
            views,
            ann_index=index,
            ann_candidates=retrieval.get("ann_candidates", 256),
        )
    strategy, shards, shard = SLICES[name]
    plan = ShardPlan(views.num_items, shards, strategy)
    return ShardScorer(shard, plan, model, views, **retrieval)


def forbid_model_calls(monkeypatch, model):
    def fail(*args, **kwargs):
        raise AssertionError("the model was called")

    monkeypatch.setattr(model, "score_user_items", fail)
    monkeypatch.setattr(model, "score_group_items", fail)


def same_lists(got, want):
    assert len(got) == len(want)
    for (items, scores), (want_items, want_scores) in zip(got, want):
        assert np.array_equal(items, want_items)
        np.testing.assert_allclose(scores, want_scores, **TOLERANCE["float64"])


class TestCandidates:
    @pytest.mark.parametrize("retrieval", [{}, ANN], ids=["exhaustive", "ann"])
    @pytest.mark.parametrize("name", sorted(SLICES))
    def test_ascending_owned_never_excluded(self, model, views, name, retrieval):
        scorer = make_scorer(model, views, name, **retrieval)
        requests = [(views.user_items[user], [user]) for user in range(12)] + [
            (views.group_items[group], views.dataset.group_members[group])
            for group in range(8)
        ]
        for exclude, members in requests:
            pool = scorer.candidates(exclude, members, k=5)
            assert (np.diff(pool) > 0).all()
            assert np.isin(pool, scorer.owned).all()
            assert not exclude & set(pool.tolist())
            valid = np.setdiff1d(scorer.owned, sorted(exclude))
            if not retrieval:
                assert np.array_equal(pool, valid)
            else:
                assert min(5, valid.size) <= pool.size <= ANN["ann_candidates"]

    def test_whole_catalog_owns_every_item(self, model, views):
        scorer = Scorer(model, views)
        assert np.array_equal(scorer.owned, np.arange(views.num_items))

    @pytest.mark.parametrize("retrieval", [{}, ANN], ids=["exhaustive", "ann"])
    def test_empty_slice_is_an_empty_topk_without_a_model_call(
        self, model, views, monkeypatch, retrieval
    ):
        # More shards than items: the last shards own nothing.
        plan = ShardPlan(views.num_items, views.num_items + 4, "contiguous")
        scorer = ShardScorer(views.num_items + 2, plan, model, views, **retrieval)
        assert scorer.owned.size == 0 and scorer.ann_index is None
        forbid_model_calls(monkeypatch, model)
        for kind, arg in (("user", 3), ("group", 2), ("adhoc", (1, 4, 7))):
            items, scores = scorer.score(kind, arg, 5)
            assert items.size == 0 and scores.size == 0
            assert items.dtype == np.int64

    def test_everything_excluded_is_an_empty_topk_without_a_model_call(
        self, model, dataset, monkeypatch
    ):
        seen_it_all = RequestViews(dataset)
        everything = set(range(dataset.num_items))
        seen_it_all.user_items = [everything] * dataset.num_users
        seen_it_all.group_items = [everything] * dataset.num_groups
        forbid_model_calls(monkeypatch, model)
        for name in sorted(SLICES):
            scorer = make_scorer(model, seen_it_all, name)
            for kind, arg in (("user", 3), ("group", 2), ("adhoc", (1, 4, 7))):
                items, scores = scorer.rank(kind, arg, 5)
                assert items.size == 0 and scores.size == 0
            for items, __ in scorer.rank_users([(1, 5), (2, 3)]):
                assert items.size == 0


class TestUserRequestForms:
    @pytest.mark.parametrize("name", sorted(SLICES))
    def test_cached_rows_and_scored_form_return_the_same_list(
        self, model, views, name
    ):
        scorer = make_scorer(model, views, name)
        cache = ScoreCache(
            model.score_user_items, views.num_users, views.num_items, block_rows=16
        )
        requests = [(user, k) for user, k in zip((0, 17, 17, 33, 59), (5, 3, 70, 1, 10))]
        rows = cache.scores_for_users(np.array([user for user, __ in requests]))
        cached = scorer.rank_users(requests, rows=rows[:, scorer.owned])
        same_lists(cached, scorer.rank_users(requests))
        for (user, k), (items, __) in zip(requests, cached):
            valid = np.setdiff1d(scorer.owned, sorted(views.user_items[user]))
            assert items.size == min(k, valid.size)

    @pytest.mark.parametrize("retrieval", [{}, ANN], ids=["exhaustive", "ann"])
    @pytest.mark.parametrize("name", sorted(SLICES))
    def test_a_list_of_requests_is_the_requests_one_at_a_time_in_one_forward(
        self, model, views, monkeypatch, name, retrieval
    ):
        scorer = make_scorer(model, views, name, **retrieval)
        requests = [(7, 5), (21, 10), (7, 3), (40, 60), (2, 1), (21, 10), (55, 4), (9, 8)]
        one_by_one = [scorer.rank("user", user, k) for user, k in requests]
        calls = []
        forward = UserModeling.forward

        def counted(self, user_embeddings, *args):
            calls.append(user_embeddings.shape[0])
            return forward(self, user_embeddings, *args)

        monkeypatch.setattr(UserModeling, "forward", counted)
        together = scorer.rank_users(requests)
        # One pass over the flush's six distinct users.
        assert calls == [6]
        same_lists(together, one_by_one)


class TestSharedViews:
    def test_one_group_batcher_across_two_swaps_of_a_two_shard_worker(
        self, model, dataset, tmp_path, monkeypatch
    ):
        built = []

        class CountedBatcher(core.GroupBatcher):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(core, "GroupBatcher", CountedBatcher)
        # What worker_main does: the views once at boot, the scorers at
        # boot and again on every swap op.
        views = RequestViews(dataset)
        registry = MetricsRegistry()
        spec = WorkerSpec(
            worker_id=0,
            shards=(0, 1),
            plan=ShardPlan(dataset.num_items, 2),
            store_dir=str(tmp_path / "v0"),
            dataset_path="unused",
            **ANN,
        )
        generations = []
        for version in range(3):
            store = tmp_path / f"v{version}"
            write_model_store(model, store)
            generations.append(_build_scorers(spec, str(store), views, registry))
        assert built == [1]
        for scorers in generations:
            assert [scorer.shard for scorer in scorers] == [0, 1]
            assert all(scorer.views is views for scorer in scorers)
        # The worker's registry is where the scorers count ANN traffic.
        generations[-1][0].score("user", 3, 5)
        counters = registry.counters()
        assert counters["ann.queries"].value == 1
        assert counters["ann.candidates"].value > 0

    def test_a_dataset_in_place_of_views_builds_its_own(self, model, dataset):
        scorer = Scorer(model, dataset)
        assert isinstance(scorer.views, RequestViews)
        assert scorer.views.dataset is dataset


class TestTypedErrors:
    def test_unknown_kind(self, model, views):
        with pytest.raises(ValueError, match="unknown request kind 'item'"):
            Scorer(model, views).rank("item", 0, 5)
        with pytest.raises(ValueError, match="unknown request kind 'item'"):
            check_request("item", 0, 5, views.num_users, views.num_groups)

    def test_unknown_retrieval(self, model, views):
        plan = ShardPlan(views.num_items, 2)
        with pytest.raises(ValueError, match="unknown retrieval mode 'hnsw'"):
            ShardScorer(0, plan, model, views, retrieval="hnsw")

    def test_request_validation_messages(self, views):
        users, groups = views.num_users, views.num_groups
        assert views.check("user", np.int64(3), 5) == 3
        assert views.check("adhoc", [5, 1, 5, 3], 5) == (1, 3, 5)
        with pytest.raises(IndexError, match=rf"user {users} out of range \[0, {users}\)"):
            views.check("user", users, 5)
        with pytest.raises(IndexError, match=rf"group -1 out of range \[0, {groups}\)"):
            views.check("group", -1, 5)
        with pytest.raises(IndexError, match=rf"member {users} out of range"):
            views.check("adhoc", [0, users], 5)
        with pytest.raises(ValueError, match="non-empty"):
            views.check("adhoc", [], 5)
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            views.check("group", 0, 0)

    @pytest.mark.parametrize("delta", [-5, 5], ids=["smaller", "larger"])
    def test_a_model_of_another_size_is_rejected_with_both_counts(
        self, views, delta
    ):
        users, items = views.num_users, views.num_items
        wrong = GroupSA(users, items + delta, TINY_MODEL_CONFIG)
        with pytest.raises(ValueError, match="entity counts") as raised:
            Scorer(wrong, views)
        message = str(raised.value)
        assert f"model ({users} users, {items + delta} items)" in message
        assert f"dataset ({users} users, {items} items)" in message
