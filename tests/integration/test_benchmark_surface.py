"""Tier-1 guard for what ``benchmarks/perf`` imports and calls.

Tier-1 collects only ``tests/``, and the driver runs the benchmark only
after a change is handed in: a change that renames anything the harness
uses (``ShardScorer.score``, ``top_k_items``, ``ScoreCache``, ...)
passes tier-1 and then leaves the benchmark with no number at all.
This imports the harness's own modules, builds its smoke fixture, and
replays each serving mode's layers once per request kind — seconds, in
process, no child processes.  The harness files are not edited.
"""

import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"
MODES = ("direct", "engine", "ann", "cluster")


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    sys.path.insert(0, str(PERF))
    try:
        import layers
        import workloads
    finally:
        sys.path.remove(str(PERF))
    fixture = workloads.build_fixture(workloads.SMOKE_ITEMS, smoke=True)
    bound = layers.Layers(fixture, tmp_path_factory.mktemp("perf"), layers.Trace())
    stream = workloads.RequestStream(fixture.dataset, 0, fixture.dataset.num_users)
    requests = {kind: stream.draw(kind) for kind in ("user", "group", "adhoc")}
    yield workloads, bound, fixture, requests
    bound.close()
    for name in ("layers", "workloads"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("mode", MODES)
def test_every_mode_replays_every_request_kind(harness, mode):
    __, bound, __f, requests = harness
    before = len(bound.tr.spans)
    for kind, arg in requests.items():
        bound.replay(mode, kind, arg)
    recorded = {record["name"] for record in bound.tr.spans[before:]}
    assert "core.member_attention" in recorded
    expected = {
        "direct": {"core.score_user_items", "evaluation.top_k_items"},
        "engine": {"engine.score_cache.hit", "engine.topk.topk_indices"},
        "ann": {"engine.ann.candidates", "core.score_group_items"},
        "cluster": {"cluster.worker.score_slice", "cluster.merge.merge_topk"},
    }
    assert expected[mode] <= recorded


def test_the_oracle_and_the_service_agree(harness):
    workloads, __, fixture, requests = harness
    oracle = workloads.Oracle(fixture)
    service = workloads.RecommendationService(
        model=fixture.model, dataset=fixture.dataset
    )
    for kind, arg in requests.items():
        top = oracle.top(kind, arg)
        assert len(top) == workloads.K
        assert workloads.same_list(workloads.send(service, kind, arg), top)
