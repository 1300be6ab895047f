"""The engine snapshot: stage summaries, derived rates, occupancy."""

import json
import threading

import numpy as np
import pytest

from repro.engine.batching import MicroBatcher
from repro.engine.service import telemetry_snapshot
from repro.obs.metrics_registry import MetricsRegistry


class TestStages:
    def test_latency_summary_fields(self):
        registry = MetricsRegistry()
        for ms in (1, 2, 3, 4, 100):
            registry.histogram("stage.stage").observe(ms / 1000.0)
        registry.histogram("not_a_stage").observe(1.0)
        stages = telemetry_snapshot(registry)["stages"]
        assert list(stages) == ["stage"]
        summary = stages["stage"]
        assert summary["count"] == 5
        assert summary["mean_ms"] == 22.0
        assert summary["p50_ms"] == 3.0
        assert summary["max_ms"] == 100.0
        assert summary["p99_ms"] == 100.0

    @pytest.mark.parametrize(
        "field, read",
        [
            ("mean_ms", lambda h: h.mean()),
            ("p50_ms", lambda h: h.percentile(50)),
            ("p90_ms", lambda h: h.percentile(90)),
            ("p99_ms", lambda h: h.percentile(99)),
            ("max_ms", lambda h: h.max),
        ],
    )
    def test_summary_field_is_the_histogram_in_ms(self, field, read):
        registry = MetricsRegistry()
        histogram = registry.histogram("stage.request")
        for seconds in (0.0004, 0.002, 0.002, 0.013, 0.25):
            histogram.observe(seconds)
        summary = telemetry_snapshot(registry)["stages"]["request"]
        assert summary[field] == read(histogram) * 1e3

    def test_full_history_percentiles(self):
        # Percentiles cover every sample ever recorded, not a window of
        # the most recent ones.
        registry = MetricsRegistry()
        for index in range(10):
            registry.histogram("stage.stage").observe(float(index))
        summary = telemetry_snapshot(registry)["stages"]["stage"]
        assert summary["count"] == 10           # exact over full history
        assert summary["p50_ms"] == 4000.0      # nearest rank over ALL samples
        assert summary["max_ms"] == 9000.0

    @pytest.mark.parametrize("q", [50, 90, 99])
    def test_percentiles_unbiased_under_load(self, skewed_stage, q):
        # 100k heavily skewed samples arriving in ascending order: a
        # recency window would only ever see the largest.  The reported
        # percentile stays within one bucket's relative error of the
        # exact order statistic regardless of volume or arrival order.
        registry, samples = skewed_stage
        summary = telemetry_snapshot(registry)["stages"]["stage"]
        assert summary["count"] == samples.size
        relative_error = registry.histogram("stage.stage").relative_error
        rank = int(round(q / 100.0 * (samples.size - 1)))
        exact_ms = float(samples[rank]) * 1000.0
        got_ms = summary[f"p{q}_ms"]
        assert abs(got_ms - exact_ms) <= exact_ms * relative_error + 1e-9, (
            f"p{q}: got {got_ms}, exact {exact_ms}"
        )

    def test_occupancy_is_not_a_stage(self):
        registry = MetricsRegistry()
        registry.histogram("batch.occupancy", lo=0.5, hi=1e5).observe(3)
        registry.histogram("stage.batch.execute").observe(0.001)
        snapshot = telemetry_snapshot(registry)
        assert list(snapshot["stages"]) == ["batch.execute"]
        assert snapshot["batches"]["count"] == 1


@pytest.fixture(scope="module")
def skewed_stage():
    registry = MetricsRegistry()
    rng = np.random.default_rng(7)
    samples = np.sort(rng.lognormal(mean=-6.0, sigma=2.0, size=100_000))
    histogram = registry.histogram("stage.stage")
    for value in samples:
        histogram.observe(float(value))
    return registry, samples


class TestCountersAndRates:
    def test_hit_rate_derivation(self):
        registry = MetricsRegistry()
        registry.counter("cache.hit").inc(3)
        registry.counter("cache.miss").inc(1)
        snapshot = telemetry_snapshot(registry)
        assert snapshot["rates"]["cache.hit_rate"] == 0.75
        assert snapshot["counters"] == {"cache.hit": 3, "cache.miss": 1}

    def test_no_rate_without_traffic(self):
        registry = MetricsRegistry()
        registry.counter("other").inc(5)
        registry.counter("cache.hit")
        assert telemetry_snapshot(registry)["rates"] == {}

    def test_increments_accumulate(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.counter("requests").inc()
        counters = telemetry_snapshot(registry)["counters"]
        assert counters == {"requests": 4}
        assert "unknown" not in counters

    @pytest.mark.parametrize(
        "hits, misses, rate",
        [
            (3, 1, 0.75),
            (5, 0, 1.0),
            (0, 4, 0.0),
            (0, 0, None),
            (None, 4, None),  # misses alone derive no rate
        ],
    )
    def test_rate_per_hit_miss_pair(self, hits, misses, rate):
        registry = MetricsRegistry()
        if hits is not None:
            registry.counter("cache.hit").inc(hits)
        registry.counter("cache.miss").inc(misses)
        rates = telemetry_snapshot(registry)["rates"]
        assert rates == ({} if rate is None else {"cache.hit_rate": rate})

    def test_each_cache_gets_its_own_rate(self):
        registry = MetricsRegistry()
        registry.counter("score_cache.hit").inc(1)
        registry.counter("score_cache.miss").inc(3)
        registry.counter("x.hit").inc(2)
        assert telemetry_snapshot(registry)["rates"] == {
            "score_cache.hit_rate": 0.25,
            "x.hit_rate": 1.0,
        }

    def test_thread_safety(self):
        registry = MetricsRegistry()
        stop = threading.Event()
        snapshots = []

        def spin():
            for __ in range(1000):
                registry.counter("n").inc()
                registry.histogram("stage.spin").observe(1e-4)

        def scrape():
            while not stop.is_set():
                snapshots.append(telemetry_snapshot(registry))

        scraper = threading.Thread(target=scrape)
        scraper.start()
        threads = [threading.Thread(target=spin) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        scraper.join()
        snapshot = telemetry_snapshot(registry)
        assert snapshot["counters"]["n"] == 8000
        assert snapshot["stages"]["spin"]["count"] == 8000
        seen = [s["counters"].get("n", 0) for s in snapshots]
        assert seen == sorted(seen)


class TestBatches:
    def test_batch_occupancy(self):
        registry = MetricsRegistry()
        for size in (1, 3, 8):
            registry.histogram("batch.occupancy", lo=0.5, hi=1e5).observe(size)
        batches = telemetry_snapshot(registry)["batches"]
        assert batches["count"] == 3
        assert batches["mean_occupancy"] == 4.0
        assert batches["max_occupancy"] == 8.0

    def test_batcher_occupancy_layout(self):
        # Batch sizes are small integers: the batcher's grid keeps every
        # size up to 10 in its own bucket.
        batcher = MicroBatcher(lambda payloads: payloads, autostart=False)
        occupancy = batcher.registry.histograms()["batch.occupancy"]
        assert (occupancy.lo, occupancy.hi) == (0.5, 1e5)
        for size in range(1, 11):
            occupancy.observe(size)
        assert [count for __, count in occupancy.nonzero_buckets()] == [1] * 10
        assert telemetry_snapshot(batcher.registry)["batches"]["max_occupancy"] == 10.0

    def test_empty_snapshot_is_safe(self):
        idle = MicroBatcher(lambda payloads: payloads, autostart=False)
        for registry in (MetricsRegistry(), idle.registry):
            snapshot = telemetry_snapshot(registry)
            assert snapshot["stages"] == {}
            assert snapshot["counters"] == {}
            assert snapshot["rates"] == {}
            assert snapshot["batches"] == {
                "count": 0,
                "mean_occupancy": 0.0,
                "max_occupancy": 0.0,
            }

    def test_json_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("cache.hit").inc()
        registry.histogram("stage.stage").observe(0.001)
        registry.histogram("batch.occupancy", lo=0.5, hi=1e5).observe(4)
        parsed = json.loads(json.dumps(telemetry_snapshot(registry)))
        assert parsed["counters"]["cache.hit"] == 1
        assert "stage" in parsed["stages"]
        assert parsed["batches"]["count"] == 1
