"""Tracer: span trees, sampling rules, JSONL log, Chrome export."""

import gc
import json
import threading
import time
import warnings

import pytest

from repro.obs import is_report
from repro.obs.spans import (
    SPAN_SCHEMA,
    Tracer,
    _NOOP,
    capture_context,
    current_span,
    get_active_tracer,
    record_span,
    span,
    tracing_enabled,
    use_span,
)
from repro.obs.trace import span_chrome_events, write_span_chrome_trace


def assert_well_formed(spans):
    """Every span's parent exists in its trace; parent chains terminate."""
    by_trace = {}
    for item in spans:
        by_trace.setdefault(item.trace_id, {})[item.span_id] = item
    for members in by_trace.values():
        roots = [s for s in members.values() if s.parent_id is None]
        assert len(roots) == 1
        for item in members.values():
            seen = set()
            cursor = item
            while cursor.parent_id is not None:
                assert cursor.span_id not in seen, "cycle in span tree"
                seen.add(cursor.span_id)
                assert cursor.parent_id in members, "dangling parent"
                cursor = members[cursor.parent_id]


class TestDisabled:
    def test_span_is_shared_noop(self):
        assert not tracing_enabled()
        assert span("anything", k=1) is _NOOP
        with span("anything") as live:
            assert live is None
        assert current_span() is None
        assert capture_context() is None
        # record_span with no tracer is a silent no-op.
        record_span("late", None, 0.0, 0.1)


class TestSpanTrees:
    def test_nesting_follows_context(self):
        with Tracer(seed=0) as tracer:
            with span("root", k=5) as root:
                with span("child") as child:
                    with span("grandchild") as grandchild:
                        assert current_span() is grandchild
                    assert current_span() is child
                assert child.parent_id == root.span_id
        spans = tracer.finished_spans()
        assert [s.name for s in sorted(spans, key=lambda s: s.start)] == [
            "root",
            "child",
            "grandchild",
        ]
        assert_well_formed(spans)
        assert all(s.trace_id == root.trace_id for s in spans)

    def test_sibling_traces_are_separate(self):
        with Tracer(seed=0) as tracer:
            with span("first"):
                pass
            with span("second"):
                pass
        assert len(tracer.traces()) == 2

    def test_attrs_and_set_attr(self):
        with Tracer(seed=0) as tracer:
            with span("op", batch_size=4) as live:
                live.set_attr("hit", True)
        recorded = tracer.finished_spans()[0]
        assert recorded.attrs["batch_size"] == 4
        assert recorded.attrs["hit"] is True

    def test_cross_thread_reparenting(self):
        with Tracer(seed=0) as tracer:
            with span("request") as root:
                captured = capture_context()
                assert captured is root

                def worker():
                    # Fresh thread context: nothing current here...
                    assert current_span() is None
                    # ...until the captured request span is adopted.
                    with use_span(captured):
                        with span("worker.stage"):
                            pass
                    record_span("wait", captured, time.perf_counter(), 0.005)

                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        spans = tracer.finished_spans()
        names = {s.name for s in spans}
        assert names == {"request", "worker.stage", "wait"}
        assert_well_formed(spans)
        stage = next(s for s in spans if s.name == "worker.stage")
        assert stage.parent_id == root.span_id

    def test_record_span_preserves_duration(self):
        with Tracer(seed=0) as tracer:
            with span("root") as root:
                record_span("wait", root, time.perf_counter() - 0.25, 0.25, queued=3)
        wait = next(s for s in tracer.finished_spans() if s.name == "wait")
        assert wait.duration == 0.25
        assert wait.attrs["queued"] == 3


class TestSampling:
    def test_head_sampling_drops_unlucky_traces(self):
        with Tracer(sample_rate=0.0, seed=0) as tracer:
            with span("root"):
                pass
        assert tracer.finished_spans() == []
        summary = tracer.summary()
        assert summary["traces_started"] == 1
        assert summary["traces_dropped"] == 1

    def test_slow_requests_always_kept(self):
        with Tracer(sample_rate=0.0, slow_ms=1.0, seed=0) as tracer:
            with span("fast"):
                pass
            with span("slow"):
                time.sleep(0.01)
        traces = tracer.traces()
        assert len(traces) == 1
        (spans,) = traces.values()
        assert spans[0].name == "slow"
        assert spans[0].attrs["sampled"] == "slow"
        assert tracer.summary()["kept_slow"] == 1

    def test_errored_requests_always_kept(self):
        with Tracer(sample_rate=0.0, seed=0) as tracer:
            with pytest.raises(RuntimeError):
                with span("root"):
                    with span("inner"):
                        raise RuntimeError("boom")
        spans = tracer.finished_spans()
        assert {s.name for s in spans} == {"root", "inner"}
        inner = next(s for s in spans if s.name == "inner")
        assert inner.status == "error"
        assert "boom" in inner.error
        root = next(s for s in spans if s.name == "root")
        assert root.attrs["sampled"] == "error"

    def test_auto_slow_p99_rule(self):
        tracer = Tracer(
            sample_rate=0.0,
            auto_slow_quantile=99.0,
            auto_slow_min_samples=50,
            seed=0,
        )

        def finish_root(name, duration):
            # Deterministic durations: begin a root and backdate its
            # start so _end measures exactly `duration`.
            root = tracer._begin(name, None, {})
            root.start = time.perf_counter() - duration
            tracer._end(root, None)

        with tracer:
            # Strictly decreasing fast latencies (2ms → 1ms): every root
            # after the warm-up is below the rolling p99 of its history.
            for index in range(100):
                finish_root("fast", 0.002 - index * 1e-5)
            finish_root("outlier", 0.05)
        kept = [s.name for s in tracer.finished_spans()]
        assert kept == ["outlier"]
        assert tracer.summary()["kept_slow"] == 1

    def test_only_one_tracer_at_a_time(self):
        with Tracer(seed=0):
            with pytest.raises(RuntimeError):
                Tracer(seed=1).install()


class TestExport:
    def test_jsonl_span_log(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with Tracer(seed=0, jsonl_path=str(path)) as tracer:
            with span("root", k=2):
                with span("child"):
                    pass
        tracer.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 2
        assert all(line["schema"] == SPAN_SCHEMA for line in lines)
        by_name = {line["name"]: line for line in lines}
        assert by_name["child"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["root"]["attrs"]["k"] == 2
        assert by_name["root"]["dur_ms"] >= 0.0

    def test_with_block_closes_the_span_log(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with Tracer(seed=0, jsonl_path=str(path)) as tracer:
            for name in ("first", "second"):
                with span(name):
                    with span("child"):
                        pass
        assert tracer._jsonl_handle is None or tracer._jsonl_handle.closed
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["span_id"] for line in lines] == [
            s.span_id for s in tracer.finished_spans()
        ]
        assert len(tracer.traces()) == 2
        # A second install appends to the same log.
        with tracer:
            with span("third"):
                pass
        assert len(path.read_text().splitlines()) == 5
        assert tracer._jsonl_handle is None or tracer._jsonl_handle.closed

    def test_with_block_leaves_nothing_for_the_collector(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with Tracer(seed=0, jsonl_path=str(path)):
                with span("root"):
                    pass
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert len(path.read_text().splitlines()) == 1

    def test_with_block_closes_the_span_log_when_the_body_raises(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with pytest.raises(ValueError, match="bad request"):
            with Tracer(sample_rate=0.0, seed=0, jsonl_path=str(path)) as tracer:
                with span("root"):
                    raise ValueError("bad request")
        assert get_active_tracer() is None
        assert tracer._jsonl_handle is None or tracer._jsonl_handle.closed
        (line,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert line["name"] == "root"
        assert tracer.summary()["kept_error"] == 1

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with Tracer(seed=0, jsonl_path=str(path)) as tracer:
            with span("root"):
                pass
        tracer.close()
        tracer.close()
        assert get_active_tracer() is None
        assert [s.name for s in tracer.finished_spans()] == ["root"]

    def test_in_memory_tracer_reenters(self):
        tracer = Tracer(seed=0)
        for name in ("first", "second"):
            with tracer:
                with span(name):
                    pass
            assert get_active_tracer() is None
        assert [s.name for s in tracer.finished_spans()] == ["first", "second"]
        assert tracer.summary()["traces_kept"] == 2

    def test_chrome_trace_export(self, tmp_path):
        with Tracer(seed=0) as tracer:
            with span("alpha"):
                with span("beta"):
                    pass
            with span("gamma"):
                pass
        events = span_chrome_events(tracer.finished_spans())
        assert len(events) == 3
        assert {event["ph"] for event in events} == {"X"}
        # Two traces, two tracks.
        assert {event["tid"] for event in events} == {0, 1}
        path = tmp_path / "trace.json"
        assert write_span_chrome_trace(tracer, str(path)) == 3
        document = json.loads(path.read_text())
        assert document["otherData"]["producer"] == "repro.obs.spans"
        assert len(document["traceEvents"]) == 3

    def test_report_envelope(self):
        with Tracer(seed=0) as tracer:
            with span("root"):
                pass
        report = tracer.report(meta={"host": "test"})
        assert is_report(report)
        assert report["kind"] == "span_log"
        assert report["data"]["traces_kept"] == 1


class TestBounds:
    def test_active_trace_eviction(self):
        # Roots that never finish are evicted once the in-flight buffer
        # overflows, so leaked traces cannot grow memory unboundedly.
        with Tracer(seed=0, max_active_traces=4) as tracer:
            roots = [tracer._begin(f"leaky-{i}", None, {}) for i in range(8)]
            assert tracer.summary()["active_evicted"] == 4
            # Finishing an evicted root is a counted orphan, not a crash.
            for root in roots:
                tracer._end(root, None)
            summary = tracer.summary()
            assert summary["orphan_spans"] == 4
            assert summary["traces_kept"] == 4

    def test_finished_span_cap(self):
        with Tracer(seed=0, max_finished_spans=3) as tracer:
            for index in range(5):
                with span(f"root-{index}"):
                    pass
        assert len(tracer.finished_spans()) == 3
        assert tracer.summary()["spans_dropped"] == 2
