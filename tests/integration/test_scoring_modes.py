"""One differential test over every way a request can be ranked.

One seeded 60/25/15 user/group/ad-hoc stream (plus ad-hoc lists with
duplicate members) goes through every serving shell over the scoring
core and must come back as the *reference* list: ``top_k_scored`` over
``model.score_user_items`` / ``score_group_items`` with the exclusion
sets read straight off the dataset — the path no shell uses any more.

The matrix:

- mode — direct; engine; engine under a one-block score-cache budget
  (evictions on every block hop); an in-process fleet of three
  ``ShardScorer`` s + ``merge_topk`` under ``contiguous`` and ``modulo``;
  one spawned 2 x 2 cluster;
- retrieval — exhaustive; ANN at full probe (``ann_nprobe=10_000``,
  ``ann_candidates=num_items``: every list probed, every item a
  candidate) for the engine and the fleets;
- dtype — a float64 and a float32 model;
- version — before and after ``apply_model(successor, 1)`` (a fleet is
  rebuilt over the successor, as a worker's swap op does);
- k — 10, and larger than the catalog.

Invariant: identical id lists, scores to rtol 1e-9 (float64) / 1e-4
(float32), and at service level ``voting_weights`` equal to the
model's own ``member_attention`` and the ``model_version`` served.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.cluster.merge import merge_topk
from repro.cluster.plan import ShardPlan
from repro.cluster.worker import ShardScorer
from repro.core import build_adhoc_batch
from repro.data import GroupBatcher
from repro.engine import EngineConfig
from repro.evaluation.ranking import top_k_scored
from repro.serving import RecommendationService
from repro.training import train_groupsa
from tests.conftest import TINY_MODEL_CONFIG, TINY_TRAINING

RTOL = {"float64": 1e-9, "float32": 1e-4}
K = 10
#: Ad-hoc lists with repeated members: one vote each, canonical order.
DUPLICATE_MEMBERS = ([9, 3, 3, 1], [5, 12, 8, 5, 12], [17, 17])
#: Requests replayed with k larger than the catalog.
BEYOND_CATALOG = 40


def request_stream(dataset, count=200, seed=17):
    """``count`` requests, 60/25/15 user/group/ad-hoc, in seeded order."""
    rng = np.random.default_rng(seed)
    kinds = rng.permutation(
        np.repeat(["user", "group", "adhoc"], [count * 60 // 100, count * 25 // 100, count * 15 // 100])
    )
    for kind in kinds:
        if kind == "user":
            yield kind, int(rng.integers(0, dataset.num_users))
        elif kind == "group":
            yield kind, int(rng.integers(0, dataset.num_groups))
        else:
            size = int(rng.integers(1, 6))
            yield kind, rng.choice(dataset.num_users, size, replace=False).tolist()


class Reference:
    """(items, scores, voting weights) of a request from the model alone."""

    def __init__(self, model, dataset) -> None:
        self.model, self.dataset = model, dataset
        self.batcher = GroupBatcher(dataset)
        self.known = {}

    def __call__(self, kind, arg, k):
        key = (kind, tuple(arg) if kind == "adhoc" else arg, k)
        if key not in self.known:
            self.known[key] = self.rank(kind, arg, k)
        return self.known[key]

    def rank(self, kind, arg, k):
        model, dataset = self.model, self.dataset
        if kind == "user":
            items, scores = top_k_scored(
                model.score_user_items, arg, dataset.num_items, k, dataset.user_items()[arg]
            )
            return items, scores, None
        if kind == "group":
            members = dataset.group_members[arg]
            batch = self.batcher.batch([arg])
            exclude = dataset.group_items()[arg]
        else:
            members = np.unique(arg)
            batch = build_adhoc_batch([arg], dataset.friend_set())
            exclude = set().union(*(dataset.user_items()[m] for m in members))
        items, scores = top_k_scored(
            lambda __, candidates: model.score_group_items(batch, candidates),
            -1,
            dataset.num_items,
            k,
            exclude,
        )
        gamma = model.member_attention(batch, items[:1])[0]
        return items, scores, {int(m): float(w) for m, w in zip(members, gamma)}


@dataclasses.dataclass
class World:
    dataset: object
    requests: list
    rtol: float
    #: version -> (model, its Reference)
    versions: dict


@pytest.fixture(scope="module", params=sorted(RTOL))
def world(request, tiny_split, trained_tiny_model):
    dataset = tiny_split.train
    if request.param == "float64":
        model = trained_tiny_model[0]
    else:
        config = dataclasses.replace(TINY_MODEL_CONFIG, dtype="float32")
        model = train_groupsa(tiny_split, config, TINY_TRAINING)[0]
    assert model.item_embedding.weight.data.dtype.name == request.param
    # The successor ranks differently: both embedding tables move.
    successor = copy.deepcopy(model)
    rng = np.random.default_rng(3)
    for table in (successor.user_embedding, successor.item_embedding):
        table.weight.data += rng.normal(0.0, 0.2, table.weight.data.shape)
    requests = list(request_stream(dataset))
    assert len(requests) == 200
    requests += [("adhoc", members) for members in DUPLICATE_MEMBERS]
    world = World(
        dataset,
        requests,
        RTOL[request.param],
        {0: (model, Reference(model, dataset)), 1: (successor, Reference(successor, dataset))},
    )
    changed = sum(
        not np.array_equal(world.versions[0][1](kind, arg, K)[0], world.versions[1][1](kind, arg, K)[0])
        for kind, arg in requests
    )
    assert changed > len(requests) // 2
    return world


def passes(world):
    """(requests, k) of the two passes: the whole stream at K, its head
    at a k no catalog can fill."""
    return (
        (world.requests, K),
        (world.requests[:BEYOND_CATALOG], world.dataset.num_items + 25),
    )


def same_scores(got, want, rtol, context):
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0, err_msg=str(context))


# ----------------------------------------------------------------------
# Service level: direct, engine (three configurations), spawned cluster
# ----------------------------------------------------------------------


def enable(service, mode, num_items):
    if mode == "engine":
        service.enable_engine()
    elif mode == "engine_one_block":
        block = 8 * num_items * 8  # eight float64 rows of the catalog
        service.enable_engine(
            EngineConfig(score_block_rows=8, score_cache_budget_mb=block / 2**20)
        )
    elif mode == "engine_ann":
        service.enable_engine(
            EngineConfig(retrieval="ann", ann_nprobe=10_000, ann_candidates=num_items)
        )
    elif mode == "cluster":
        service.enable_cluster(ClusterConfig(num_workers=2, num_shards=2))


def send(service, kind, arg, k):
    if kind == "user":
        return service.recommend_for_user(arg, k=k)
    if kind == "group":
        return service.recommend_for_group(arg, k=k)
    return service.recommend_for_members(arg, k=k)


@pytest.mark.parametrize(
    "mode", ["direct", "engine", "engine_one_block", "engine_ann", "cluster"]
)
def test_service_modes_return_the_reference_list(world, mode):
    dataset = world.dataset
    service = RecommendationService(
        model=world.versions[0][0], dataset=dataset, model_version=0
    )
    try:
        enable(service, mode, dataset.num_items)
        for version, (model, reference) in world.versions.items():
            if version:
                assert service.apply_model(model, version) == version
            for requests, k in passes(world):
                for kind, arg in requests:
                    got = send(service, kind, arg, k)
                    items, scores, weights = reference(kind, arg, k)
                    context = (mode, version, kind, arg, k)
                    assert got.items == items.tolist(), context
                    if k == K:
                        assert len(got.items) == len(set(got.items)) == K
                    same_scores(got.scores, scores, world.rtol, context)
                    assert got.voting_weights == weights, context
                    assert got.model_version == version, context
        if mode == "engine_one_block":
            # One resident block: hopping across users evicted all along.
            assert service.engine.score_cache.resident_blocks == 1
            assert service.engine.registry.counter("score_cache.evict").value > 0
        if mode == "engine_ann":
            counters = service.telemetry_snapshot()["counters"]
            assert counters["ann.queries"] > 0 and counters["ann.candidates"] > 0
    finally:
        service.close()


# ----------------------------------------------------------------------
# Core level: three ShardScorers and the exact merge, in process
# ----------------------------------------------------------------------


@pytest.mark.parametrize("retrieval", ["exhaustive", "ann"])
@pytest.mark.parametrize("strategy", ["contiguous", "modulo"])
def test_shard_fleets_merge_to_the_reference_list(world, strategy, retrieval):
    dataset = world.dataset
    plan = ShardPlan(dataset.num_items, 3, strategy)
    knobs = {}
    if retrieval == "ann":
        knobs = dict(retrieval="ann", ann_nprobe=10_000, ann_candidates=dataset.num_items)
    for version, (model, reference) in world.versions.items():
        fleet = [ShardScorer(shard, plan, model, dataset, **knobs) for shard in range(3)]
        for requests, k in passes(world):
            for kind, arg in requests:
                # What the router scatters: ids as int, members canonical.
                payload = tuple(sorted(set(arg))) if kind == "adhoc" else arg
                got_items, got_scores = merge_topk(
                    [scorer.score(kind, payload, k) for scorer in fleet], k
                )
                items, scores, __ = reference(kind, arg, k)
                context = (strategy, retrieval, version, kind, arg, k)
                assert got_items.tolist() == items.tolist(), context
                same_scores(got_scores, scores, world.rtol, context)
