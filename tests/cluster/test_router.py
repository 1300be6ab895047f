"""ShardRouter end to end: real worker processes, validation, recovery.

That router-merged lists are the single-process lists (duplicate
members, ties, exclusions, both partition strategies, k beyond the
catalog) is the differential test's
(``tests/integration/test_scoring_modes.py``).

One module-scoped 2-worker/3-shard cluster serves most tests (spawn
costs a couple of seconds); failure-path tests that kill workers
launch their own throwaway clusters.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterError, ShardRouter
from repro.serving import RecommendationService

ADHOC_CASES = ([0, 1, 2], [9, 3, 3, 1], [17], [5, 12, 8, 5, 12])


@pytest.fixture(scope="module")
def router(trained_tiny_model, tiny_split):
    model, __, __h = trained_tiny_model
    router = ShardRouter.launch(
        model,
        tiny_split.train,
        config=ClusterConfig(num_workers=2, num_shards=3),
    )
    yield router
    router.close()


class TestValidation:
    def test_rejects_bad_inputs(self, router, tiny_split):
        num_users = tiny_split.train.num_users
        with pytest.raises(ValueError, match="k must be >= 1"):
            router.topk_user(0, k=0)
        with pytest.raises(IndexError):
            router.topk_user(num_users, k=3)
        with pytest.raises(IndexError):
            router.topk_group(10_000, k=3)
        with pytest.raises(ValueError, match="non-empty"):
            router.topk_members([], k=3)
        with pytest.raises(IndexError):
            router.topk_members([0, num_users], k=3)

    def test_config_requires_enough_shards(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_workers=4, num_shards=2).resolved_shards()


class TestRecovery:
    def test_worker_death_restarts_once_and_serves(
        self, trained_tiny_model, tiny_split
    ):
        model, __, __h = trained_tiny_model
        with ShardRouter.launch(
            model, tiny_split.train, config=ClusterConfig(num_workers=2)
        ) as router:
            before, __s = router.topk_user(3, k=5)
            victim = router._handles[0].process
            victim.kill()
            victim.join()
            after, __s2 = router.topk_user(3, k=5)
            assert after.tolist() == before.tolist()
            assert router.worker_restarts == 1
            assert router.workers_alive() == 2

    def test_restart_budget_exhausted_raises(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        config = ClusterConfig(num_workers=2, max_restarts_per_request=0)
        with ShardRouter.launch(model, tiny_split.train, config=config) as router:
            router._handles[1].process.kill()
            router._handles[1].process.join()
            with pytest.raises(ClusterError):
                router.topk_user(1, k=3)


class TestMetrics:
    def test_fleet_metrics_merge_exactly(self, router):
        payload_before = router.metrics_payload()
        served_before = payload_before["counters"].get("router.requests.user", 0)
        for user in range(6):
            router.topk_user(user, k=3)
        payload = router.metrics_payload()
        counters = payload["counters"]
        assert counters["router.requests.user"] == served_before + 6
        # Worker-side counters cover the same requests: every user
        # request hits every worker exactly once.
        shard_total = counters["shard.requests.user"]
        assert shard_total >= (served_before + 6) * router.num_workers
        histograms = payload["histograms"]
        assert histograms["shard.request"]["count"] >= shard_total
        assert histograms["router.request"]["count"] >= served_before + 6


class TestServiceIntegration:
    def test_cluster_mode_service(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        dataset = tiny_split.train
        direct = RecommendationService(model=model, dataset=dataset)
        clustered = RecommendationService(model=model, dataset=dataset)
        clustered.enable_cluster(ClusterConfig(num_workers=2))
        try:
            assert clustered._mode() == "cluster"
            for user in range(6):
                assert (
                    clustered.recommend_for_user(user, k=5).items
                    == direct.recommend_for_user(user, k=5).items
                )
            for group in range(6):
                a = clustered.recommend_for_group(group, k=5)
                b = direct.recommend_for_group(group, k=5)
                assert a.items == b.items
                assert a.voting_weights == b.voting_weights
            for members in ADHOC_CASES[:2]:
                a = clustered.recommend_for_members(members, k=5)
                b = direct.recommend_for_members(members, k=5)
                assert a.items == b.items
                assert a.voting_weights == b.voting_weights
        finally:
            clustered.close()
        assert clustered.router is None
        assert clustered._mode() == "direct"
