"""Sharded ANN retrieval: per-slice IVF indexes.

Each ANN-mode scorer indexes only its own item slice and returns
ascending *global* ids, so :func:`~repro.cluster.merge.merge_topk`
needs no changes.  In process, no spawned workers, so this runs in
milliseconds.  That the merged full-probe lists are the exhaustive ones
is the differential test's (``tests/integration/test_scoring_modes.py``).
"""

import numpy as np
import pytest

from repro.cluster.merge import merge_topk
from repro.cluster.plan import ShardPlan
from repro.cluster.router import ClusterConfig, ShardRouter
from repro.cluster.worker import ShardScorer


def build_scorers(model, dataset, num_shards, strategy, **retrieval):
    plan = ShardPlan(dataset.num_items, num_shards, strategy)
    return [
        ShardScorer(shard, plan, model, dataset, **retrieval)
        for shard in range(num_shards)
    ]


class TestShardLocalIndex:
    def test_index_covers_only_owned_slice(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        scorers = build_scorers(
            model, tiny_split.train, 3, "modulo", retrieval="ann", ann_nprobe=4
        )
        for scorer in scorers:
            assert scorer.ann_index is not None
            assert scorer.ann_index.num_vectors == scorer.owned.size

    def test_candidates_are_ascending_global_ids(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        for scorer in build_scorers(
            model, tiny_split.train, 3, "contiguous", retrieval="ann", ann_nprobe=4
        ):
            for user in range(10):
                items, __s = scorer.score("user", user, 5)
                # Returned best-first; the underlying candidate ids are
                # owned global ids, so they stay inside the slice.
                assert np.isin(items, scorer.owned).all()

    def test_excluded_history_never_served(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        train = tiny_split.train
        scorers = build_scorers(
            model, train, 2, "contiguous",
            retrieval="ann", ann_nprobe=2, ann_candidates=16,
        )
        histories = train.user_items()
        for user in range(15):
            merged_items, __s = merge_topk(
                [s.score("user", user, 5) for s in scorers], 5
            )
            assert not histories[user] & set(merged_items.tolist())

    def test_invalid_retrieval_rejected(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        with pytest.raises(ValueError, match="retrieval"):
            build_scorers(model, tiny_split.train, 2, "contiguous",
                          retrieval="hnsw")

    def test_router_config_rejects_unknown_mode(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        with pytest.raises(ValueError, match="retrieval"):
            ShardRouter.launch(
                model,
                tiny_split.train,
                config=ClusterConfig(num_workers=1, retrieval="hnsw"),
            )
