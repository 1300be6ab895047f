"""Concurrency guarantees of the observability core.

Two hot paths race in production: fleet scrapes run
``MetricsRegistry.merge`` + ``exposition`` while request threads keep
writing instruments, and the router's gather thread adopts remote
worker spans into the same Tracer other request threads are writing.
These tests hammer both and assert nothing tears.
"""

import json
import threading

from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.spans import RemoteSpanRecorder, Tracer, adopt_remote_spans, span


def _run(workers, duration=0.2):
    stop = threading.Event()
    errors = []

    def wrap(fn):
        def loop():
            try:
                while not stop.is_set():
                    fn()
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        return loop

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for thread in threads:
        thread.start()
    stop.wait(duration)
    stop.set()
    for thread in threads:
        thread.join()
    return errors


class TestScrapeWhileMerge:
    def test_exposition_and_sampling_race_merges(self):
        target = MetricsRegistry()
        merges = []

        def merge():
            source = MetricsRegistry()
            source.counter("requests").inc(10)
            source.histogram("latency").observe(0.01)
            source.histogram("latency").observe(2.0)
            source.gauge("version").set(1.0)
            target.merge(source)
            merges.append(1)

        def scrape():
            text = target.exposition()
            # A torn histogram would break cumulativity or lose the
            # trailing +Inf line.
            for line in text.splitlines():
                if line.startswith("repro_latency_bucket"):
                    assert "le=" in line
            target.payload()
            for state in target.state()["histograms"].values():
                assert sum(state["counts"]) == state["count"]

        errors = _run([merge, merge, scrape, scrape])
        assert errors == []
        assert target.counter("requests").value == 10 * len(merges)
        assert target.histogram("latency").count == 2 * len(merges)
        exposition = target.exposition()
        assert exposition.count('le="+Inf"') == 1

    def test_concurrent_observe_while_exposing(self):
        registry = MetricsRegistry()

        def observe():
            registry.histogram("lat").observe(0.005)
            registry.counter("hits").inc()

        def expose():
            registry.exposition()
            registry.payload()

        assert _run([observe, observe, observe, expose]) == []
        assert registry.histogram("lat").count == registry.counter("hits").value


class TestSpanLogConcurrency:
    def test_router_and_worker_style_writers_share_one_tracer(self, tmp_path):
        """N request threads + a thread adopting remote payloads, all
        appending to one JSONL span log: every line must parse and every
        kept trace must keep its parentage intact."""
        log = tmp_path / "spans.jsonl"
        with Tracer(sample_rate=1.0, jsonl_path=str(log)) as tracer:

            def request():
                with span("router.scatter", kind="user") as scatter:
                    recorder = RemoteSpanRecorder()
                    with recorder.span("worker.score", proc="worker-x"):
                        with recorder.span("shard.topk"):
                            pass
                    if scatter is not None:
                        adopt_remote_spans(scatter, recorder.payload())
                    with span("router.merge"):
                        pass

            errors = _run([request] * 4)
            assert errors == []
        records = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert records, "no spans were kept"
        by_trace = {}
        for record in records:
            assert record["schema"] == "repro.obs/span/v1"
            by_trace.setdefault(record["trace_id"], []).append(record)
        for trace in by_trace.values():
            names = {record["name"] for record in trace}
            assert names == {
                "router.scatter", "worker.score", "shard.topk", "router.merge",
            }
            ids = {record["span_id"] for record in trace}
            root = [r for r in trace if r["parent_id"] is None]
            assert len(root) == 1
            for record in trace:
                if record["parent_id"] is not None:
                    assert record["parent_id"] in ids
        summary = tracer.summary()
        assert summary["traces_kept"] == len(by_trace)
        assert summary["orphan_spans"] == 0
