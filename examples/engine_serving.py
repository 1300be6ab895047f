"""Engine-backed serving: caches, micro-batching, telemetry.

Trains GroupSA briefly, then serves the same traffic twice — direct
mode and engine mode — and prints the engine's telemetry snapshot.
The recommendation lists are identical; only the execution path
changes.

    python examples/engine_serving.py
"""

from __future__ import annotations

import json

import numpy as np

from repro.core import GroupSAConfig
from repro.data import split_interactions, yelp_like
from repro.engine import EngineConfig
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
    backed = RecommendationService(model=model, dataset=train)
    backed.enable_engine(EngineConfig(max_batch_size=64))

    # Same request, same answer — only the execution path differs.
    sample = direct.recommend_for_user(3, k=5)
    assert sample.items == backed.recommend_for_user(3, k=5).items
    print(f"user 3 top-5: {sample.items}")

    group_rec = backed.recommend_for_group(0, k=5)
    print(f"group 0 top-5: {group_rec.items}")
    adhoc_rec = backed.recommend_for_members([3, 1, 3, 7], k=5)
    print(f"adhoc {{1,3,7}} top-5: {adhoc_rec.items}")
    print(f"  voting weights: {adhoc_rec.voting_weights}")

    # A ScoreCache miss scores only the requested user's row, so a
    # request is a hit only for a user served before (see the hit rate
    # below); every list must still equal direct mode's.
    users = np.random.default_rng(0).integers(0, train.num_users, size=100)
    for user in users.tolist():
        rec = backed.recommend_for_user(user, k=10)
        assert rec.items == direct.recommend_for_user(user, k=10).items

    snapshot = backed.telemetry_snapshot()
    print("telemetry:")
    print(json.dumps(
        {
            "rates": snapshot["rates"],
            "batches": snapshot["batches"],
            "counters": snapshot["counters"],
        },
        indent=2,
        sort_keys=True,
    ))
    backed.close()
    print("numbers: python3 benchmarks/perf/run.py --workload serve_engine")


if __name__ == "__main__":
    main()
