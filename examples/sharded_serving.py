"""Sharded multi-process serving: shard plan, shared weights, router.

Trains GroupSA briefly, launches a 2-worker shard cluster (one
mmap-backed weight store, scatter-gather Top-K), shows that the
router returns the same recommendation lists as single-process
serving, survives a worker being killed, and reports fleet-merged
metrics.

    python examples/sharded_serving.py
"""

from __future__ import annotations

from repro.cluster import ClusterConfig
from repro.core import GroupSAConfig
from repro.data import split_interactions, yelp_like
from repro.serving import RecommendationService
from repro.training import TrainingConfig, train_groupsa


def main() -> None:
    world = yelp_like(scale=0.01)
    split = split_interactions(world.dataset, rng=0)
    model, __, __h = train_groupsa(
        split, GroupSAConfig(), TrainingConfig(user_epochs=10, group_epochs=15)
    )
    train = split.train

    direct = RecommendationService(model=model, dataset=train)
    clustered = RecommendationService(model=model, dataset=train)
    router = clustered.enable_cluster(ClusterConfig(num_workers=2, num_shards=4))
    print(
        f"cluster up: {router.num_workers} workers, "
        f"{router.plan.num_shards} shards over {train.num_items} items"
    )

    # Same requests, same lists — only the execution path differs.
    for user in (3, 11):
        rec = clustered.recommend_for_user(user, k=5)
        assert rec.items == direct.recommend_for_user(user, k=5).items
        print(f"user {user} top-5: {rec.items}")
    group_rec = clustered.recommend_for_group(0, k=5)
    assert group_rec.items == direct.recommend_for_group(0, k=5).items
    print(f"group 0 top-5: {group_rec.items}")
    print(f"  voting weights: {group_rec.voting_weights}")
    adhoc_rec = clustered.recommend_for_members([3, 1, 3, 7], k=5)
    print(f"adhoc {{1,3,7}} top-5: {adhoc_rec.items}")

    # Kill a worker mid-flight: the next request restarts it and still
    # answers correctly (restart budget is per request).
    victim = router._handles[0].process
    victim.kill()
    victim.join()
    rec = clustered.recommend_for_user(3, k=5)
    assert rec.items == direct.recommend_for_user(3, k=5).items
    print(f"after worker kill: restarts={router.worker_restarts}, "
          f"alive={router.workers_alive()}")

    payload = router.metrics_payload()
    served = {
        name: count
        for name, count in payload["counters"].items()
        if name.startswith(("router.requests", "shard.requests"))
    }
    print(f"fleet-merged request counters: {served}")
    clustered.close()

    print("numbers: python3 benchmarks/perf/run.py --workload serve_cluster")


if __name__ == "__main__":
    main()
