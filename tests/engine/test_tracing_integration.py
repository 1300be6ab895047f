"""Request tracing through the live serving stack.

The acceptance contract: one traced ``topk_group`` request yields a
span tree covering service → engine.submit → microbatch.wait →
batch.execute → stage → forward → topk, the response carries the
``trace_id``, and concurrent traffic from many threads leaves both the
metrics registry and every kept span tree exact and well-formed.
"""

import threading

import pytest

from repro.engine import InferenceEngine
from repro.obs.spans import Tracer
from repro.serving import RecommendationService
from tests.obs.test_spans import assert_well_formed


@pytest.fixture
def traced_service(trained_tiny_model, tiny_split):
    model, __, __h = trained_tiny_model
    service = RecommendationService(model=model, dataset=tiny_split.train)
    service.enable_engine()
    tracer = Tracer(sample_rate=1.0, seed=0)
    tracer.install()
    yield service, tracer
    tracer.uninstall()
    service.close()


def spans_by_name(spans):
    grouped = {}
    for item in spans:
        grouped.setdefault(item.name, []).append(item)
    return grouped


def parent_chain(item, members):
    names = []
    cursor = item
    while cursor.parent_id is not None:
        cursor = members[cursor.parent_id]
        names.append(cursor.name)
    return names


class TestRequestSpanTrees:
    def test_group_request_covers_whole_path(self, traced_service):
        service, tracer = traced_service
        result = service.recommend_for_group(0, k=3)
        traces = tracer.traces()
        assert result.trace_id in traces
        spans = traces[result.trace_id]
        assert_well_formed(spans)
        names = {span.name for span in spans}
        assert {
            "service.recommend_for_group",
            "engine.submit",
            "microbatch.wait",
            "batch.execute",
            "engine.group_stage",
            "forward",
            "topk",
        } <= names
        members = {span.span_id: span for span in spans}
        forward = spans_by_name(spans)["forward"][0]
        # The forward pass hangs off the request chain through the
        # batcher: stage → flush → submit → service root.
        assert parent_chain(forward, members) == [
            "engine.group_stage",
            "batch.execute",
            "engine.submit",
            "service.recommend_for_group",
        ]

    def test_user_request_covers_cache_path(self, traced_service):
        service, tracer = traced_service
        first = service.recommend_for_user(0, k=3)
        second = service.recommend_for_user(0, k=3)
        traces = tracer.traces()
        cold = spans_by_name(traces[first.trace_id])
        assert "score_cache.lookup" in cold
        assert cold["score_cache.lookup"][0].attrs["hit"] is False
        assert "score_cache.block_compute" in cold
        warm = spans_by_name(traces[second.trace_id])
        assert warm["score_cache.lookup"][0].attrs["hit"] is True
        assert "score_cache.block_compute" not in warm
        assert "topk" in warm

    def test_adhoc_request_attributes(self, traced_service):
        service, tracer = traced_service
        result = service.recommend_for_members([1, 3, 3, 5], k=3)
        spans = spans_by_name(tracer.traces()[result.trace_id])
        assert spans["service.recommend_for_members"][0].attrs["member_count"] == 3
        assert spans["engine.submit"][0].attrs["kind"] == "adhoc"
        assert "forward" in spans

    def test_batch_execute_carries_batch_attributes(self, traced_service):
        service, tracer = traced_service
        service.recommend_for_user(2, k=3)
        result = service.recommend_for_user(3, k=3)
        flush = spans_by_name(tracer.traces()[result.trace_id]).get("batch.execute")
        if flush is None:
            # This request coalesced into another request's flush; the
            # flush span then lives in the first trace of the batch.
            flush = [
                span
                for span in tracer.finished_spans()
                if span.name == "batch.execute"
                and result.trace_id in span.attrs["traces"]
            ]
        assert flush, "no flush span correlated with the request"
        assert flush[0].attrs["batch_size"] >= 1

    def test_trace_id_none_when_tracing_off(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        service = RecommendationService(model=model, dataset=tiny_split.train)
        try:
            service.enable_engine()
            assert service.recommend_for_user(0, k=3).trace_id is None
            assert service.recommend_for_group(0, k=3).trace_id is None
        finally:
            service.close()

    def test_direct_mode_also_traced(self, trained_tiny_model, tiny_split):
        model, __, __h = trained_tiny_model
        service = RecommendationService(model=model, dataset=tiny_split.train)
        with Tracer(sample_rate=1.0, seed=0) as tracer:
            result = service.recommend_for_group(0, k=3)
        spans = spans_by_name(tracer.traces()[result.trace_id])
        assert spans["service.recommend_for_group"][0].attrs["mode"] == "direct"
        assert "direct.score" in spans


class TestConcurrentTracing:
    def test_hammer_from_8_threads_exact_and_well_formed(
        self, trained_tiny_model, tiny_split
    ):
        model, __, __h = trained_tiny_model
        dataset = tiny_split.train
        threads = 8
        per_thread = 12
        with Tracer(sample_rate=1.0, seed=0) as tracer:
            with InferenceEngine(model, dataset) as engine:
                errors = []

                def drive(seed: int) -> None:
                    try:
                        for index in range(per_thread):
                            kind = (seed + index) % 3
                            if kind == 0:
                                engine.topk_user((seed + index) % dataset.num_users, k=3)
                            elif kind == 1:
                                engine.topk_group(index % dataset.num_groups, k=3)
                            else:
                                members = [seed % dataset.num_users, index % dataset.num_users]
                                engine.topk_members(members, k=3)
                    except Exception as error:  # noqa: BLE001 — surfaced below
                        errors.append(error)

                workers = [
                    threading.Thread(target=drive, args=(seed,))
                    for seed in range(threads)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join()
                assert errors == []

                # Counters are exact under concurrency.
                total = threads * per_thread
                registry = engine.registry
                by_kind = (
                    registry.counter("requests.user").value
                    + registry.counter("requests.group").value
                    + registry.counter("requests.adhoc").value
                )
                assert by_kind == total
                snapshot = engine.telemetry_snapshot()
                assert snapshot["stages"]["engine.request"]["count"] == total
                assert snapshot["counters"]["batch.requests"] == total

        # Every request produced a kept trace (sample_rate=1.0) and
        # every kept trace is a well-formed tree.
        summary = tracer.summary()
        assert summary["traces_started"] == total
        assert summary["traces_kept"] == total
        assert summary["orphan_spans"] == 0
        spans = tracer.finished_spans()
        assert_well_formed(spans)
        roots = [span for span in spans if span.parent_id is None]
        assert len(roots) == total
        # Each trace covers at least submit + wait.
        for trace_spans in tracer.traces().values():
            names = {span.name for span in trace_spans}
            assert "engine.submit" in names
            assert "microbatch.wait" in names
