"""Telemetry: latency stages, counters, derived rates, occupancy."""

import json
import threading
import time

from repro.engine.telemetry import Telemetry


class TestStages:
    def test_latency_summary_fields(self):
        telemetry = Telemetry()
        for ms in (1, 2, 3, 4, 100):
            telemetry.record_latency("stage", ms / 1000.0)
        summary = telemetry.snapshot()["stages"]["stage"]
        assert summary["count"] == 5
        assert summary["mean_ms"] == 22.0
        assert summary["p50_ms"] == 3.0
        assert summary["max_ms"] == 100.0
        assert summary["p99_ms"] == 100.0

    def test_time_context_manager(self):
        telemetry = Telemetry()
        with telemetry.time("sleepy"):
            time.sleep(0.01)
        summary = telemetry.snapshot()["stages"]["sleepy"]
        assert summary["count"] == 1
        assert summary["max_ms"] >= 10.0

    def test_full_history_percentiles(self):
        # Percentiles cover every sample ever recorded, not a window of
        # the most recent ones.
        telemetry = Telemetry()
        for index in range(10):
            telemetry.record_latency("stage", float(index))
        summary = telemetry.snapshot()["stages"]["stage"]
        assert summary["count"] == 10           # exact over full history
        assert summary["p50_ms"] == 4000.0      # nearest rank over ALL samples
        assert summary["max_ms"] == 9000.0

    def test_percentiles_unbiased_under_load(self):
        # Regression for the reservoir bias: 100k heavily skewed samples
        # would have overflowed the old deque(maxlen=8192) and skewed
        # p99 toward whatever arrived last.  The histogram's p99 must
        # stay within one bucket's relative error of the exact order
        # statistic regardless of volume or arrival order.
        import numpy as np

        telemetry = Telemetry()
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-6.0, sigma=2.0, size=100_000)
        # Adversarial ordering: ascending, so a recency window would
        # only ever see the largest samples.
        for value in np.sort(samples):
            telemetry.record_latency("stage", float(value))
        summary = telemetry.snapshot()["stages"]["stage"]
        assert summary["count"] == 100_000
        relative_error = (
            telemetry.registry.histogram("stage.stage").relative_error
        )
        for q in (50, 90, 99):
            rank = int(round(q / 100.0 * (samples.size - 1)))
            exact_ms = float(np.sort(samples)[rank]) * 1000.0
            got_ms = summary[f"p{q}_ms"]
            assert abs(got_ms - exact_ms) <= exact_ms * relative_error + 1e-9, (
                f"p{q}: got {got_ms}, exact {exact_ms}"
            )


class TestCountersAndRates:
    def test_increment(self):
        telemetry = Telemetry()
        telemetry.increment("requests", 3)
        telemetry.increment("requests")
        assert telemetry.counter("requests") == 4
        assert telemetry.counter("unknown") == 0

    def test_hit_rate_derivation(self):
        telemetry = Telemetry()
        telemetry.increment("cache.hit", 3)
        telemetry.increment("cache.miss", 1)
        snapshot = telemetry.snapshot()
        assert snapshot["rates"]["cache.hit_rate"] == 0.75

    def test_no_rate_without_traffic(self):
        telemetry = Telemetry()
        telemetry.increment("other", 5)
        assert telemetry.snapshot()["rates"] == {}

    def test_thread_safety(self):
        telemetry = Telemetry()

        def spin():
            for __ in range(1000):
                telemetry.increment("n")

        threads = [threading.Thread(target=spin) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert telemetry.counter("n") == 8000


class TestBatchesAndExport:
    def test_batch_occupancy(self):
        telemetry = Telemetry()
        for size in (1, 3, 8):
            telemetry.record_batch(size)
        batches = telemetry.snapshot()["batches"]
        assert batches["count"] == 3
        assert batches["mean_occupancy"] == 4.0
        assert batches["max_occupancy"] == 8.0

    def test_empty_snapshot_is_safe(self):
        snapshot = Telemetry().snapshot()
        assert snapshot["stages"] == {}
        assert snapshot["batches"]["count"] == 0
        assert snapshot["batches"]["mean_occupancy"] == 0.0

    def test_prometheus_exposition(self):
        telemetry = Telemetry()
        telemetry.increment("cache.hit", 3)
        telemetry.record_latency("stage", 0.001)
        text = telemetry.exposition()
        assert "# TYPE repro_cache_hit_total counter" in text
        assert "repro_cache_hit_total 3" in text
        assert "# TYPE repro_stage_stage histogram" in text
        assert "repro_stage_stage_count 1" in text

    def test_json_roundtrip(self):
        telemetry = Telemetry()
        telemetry.increment("cache.hit")
        telemetry.record_latency("stage", 0.001)
        telemetry.record_batch(4)
        parsed = json.loads(telemetry.to_json())
        assert parsed["counters"]["cache.hit"] == 1
        assert "stage" in parsed["stages"]
