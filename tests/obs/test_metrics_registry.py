"""MetricsRegistry: exact counts, bounded-error quantiles, exposition."""

import json
import threading

import numpy as np
import pytest

from repro.obs import is_report, make_serving_report
from repro.obs.metrics_registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_histograms,
)


class TestCountersAndGauges:
    def test_counter_monotonic(self):
        counter = Counter("n")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(2.5)
        gauge.add(0.5)
        assert gauge.value == 3.0

    def test_registry_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        registry.counter("a").inc(2)
        assert registry.payload()["counters"]["a"] == 2


class TestHistogram:
    def test_exact_count_sum_max_min(self):
        histogram = Histogram("lat")
        for value in (0.001, 0.002, 0.003, 0.004, 0.1):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(0.11)
        assert histogram.max == 0.1
        assert histogram.min == 0.001
        assert histogram.mean() == pytest.approx(0.022)

    def test_percentile_returns_recorded_values(self):
        histogram = Histogram("lat")
        for value in (0.001, 0.002, 0.003, 0.004, 0.1):
            histogram.observe(value)
        # Nearest-rank semantics over the full history; the returned
        # value is the max recorded sample of the rank bucket, so with
        # well-separated samples it is exact.
        assert histogram.percentile(50) == 0.003
        assert histogram.percentile(99) == 0.1

    def test_percentile_error_bound_100k_skewed(self):
        histogram = Histogram("lat")
        rng = np.random.default_rng(0)
        samples = rng.lognormal(mean=-5.0, sigma=2.5, size=100_000)
        for value in samples:
            histogram.observe(float(value))
        ordered = np.sort(samples)
        for q in (50, 90, 99, 99.9):
            rank = int(round(q / 100.0 * (samples.size - 1)))
            exact = float(ordered[rank])
            got = histogram.percentile(q)
            assert abs(got - exact) <= exact * histogram.relative_error + 1e-12

    def test_under_and_overflow(self):
        histogram = Histogram("lat", lo=1e-3, hi=1.0)
        histogram.observe(1e-6)
        histogram.observe(50.0)
        assert histogram.count == 2
        assert histogram.max == 50.0
        assert histogram.percentile(99) == 50.0

    def test_merge_is_lossless(self):
        left, right = Histogram("a"), Histogram("b")
        rng = np.random.default_rng(1)
        left_samples = rng.lognormal(-5.0, 1.0, size=5000)
        right_samples = rng.lognormal(-4.0, 1.5, size=7000)
        for value in left_samples:
            left.observe(float(value))
        for value in right_samples:
            right.observe(float(value))
        merged = merge_histograms([left, right])
        combined = Histogram("c")
        for value in np.concatenate([left_samples, right_samples]):
            combined.observe(float(value))
        assert merged.count == combined.count
        assert merged.sum == pytest.approx(combined.sum)
        assert merged.max == combined.max
        for q in (50, 90, 99):
            assert merged.percentile(q) == combined.percentile(q)

    def test_merge_rejects_different_layouts(self):
        with pytest.raises(ValueError):
            Histogram("a").merge(Histogram("b", lo=1e-3))


class TestConcurrency:
    def test_hammer_counters_and_histograms_exact(self):
        registry = MetricsRegistry()
        threads = 8
        per_thread = 5000

        def spin(seed: int) -> None:
            histogram = registry.histogram("lat")
            counter = registry.counter("n")
            for index in range(per_thread):
                counter.inc()
                histogram.observe(1e-4 * ((seed + index) % 100 + 1))

        workers = [
            threading.Thread(target=spin, args=(seed,)) for seed in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert registry.counter("n").value == threads * per_thread
        histogram = registry.histogram("lat")
        assert histogram.count == threads * per_thread
        # Sum is an exact float accumulation of identical per-thread
        # workloads; allow only float-addition ordering noise.
        expected = threads * sum(1e-4 * (i % 100 + 1) for i in range(per_thread))
        assert histogram.sum == pytest.approx(expected, rel=1e-9)


class TestExport:
    def test_payload_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("requests.user").inc(3)
        registry.gauge("resident_blocks").set(4)
        registry.histogram("engine.request").observe(0.002)
        payload = json.loads(json.dumps(registry.payload()))
        assert payload["counters"]["requests.user"] == 3
        assert payload["gauges"]["resident_blocks"] == 4.0
        assert payload["histograms"]["engine.request"]["count"] == 1

    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("requests.user").inc(3)
        registry.histogram("engine.request").observe(0.002)
        registry.histogram("engine.request").observe(0.004)
        text = registry.exposition()
        assert "# TYPE repro_requests_user_total counter" in text
        assert "repro_requests_user_total 3" in text
        assert "# TYPE repro_engine_request histogram" in text
        assert 'repro_engine_request_bucket{le="+Inf"} 2' in text
        assert "repro_engine_request_count 2" in text
        # Cumulative bucket counts are monotone non-decreasing.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_engine_request_bucket")
        ]
        assert counts == sorted(counts)

    def test_exposition_overflow_bucket_emits_single_inf_line(self):
        # Regression: a sample above ``hi`` lands in the overflow
        # (+Inf) bucket; the loop used to emit it *and* the trailing
        # unconditional +Inf line — two series with the same label set,
        # invalid Prometheus text format.
        registry = MetricsRegistry()
        histogram = registry.histogram("slow", lo=1e-3, hi=1.0)
        histogram.observe(0.5)
        histogram.observe(50.0)  # overflow
        text = registry.exposition()
        inf_lines = [
            line
            for line in text.splitlines()
            if line.startswith('repro_slow_bucket{le="+Inf"}')
        ]
        assert inf_lines == ['repro_slow_bucket{le="+Inf"} 2']

    def test_histogram_state_round_trip(self):
        original = Histogram("lat")
        rng = np.random.default_rng(3)
        for value in rng.lognormal(-5.0, 1.5, size=2000):
            original.observe(float(value))
        clone = Histogram.from_state(original.state())
        assert clone.count == original.count
        assert clone.sum == original.sum
        assert clone.max == original.max
        assert clone.min == original.min
        for q in (50, 90, 99):
            assert clone.percentile(q) == original.percentile(q)
        # A restored histogram keeps observing and merging losslessly —
        # it is a live instrument, not a frozen snapshot.
        clone.observe(1.0)
        assert clone.count == original.count + 1

    def test_empty_histogram_state_round_trip(self):
        clone = Histogram.from_state(Histogram("lat").state())
        assert clone.count == 0
        assert clone.min == Histogram("lat").min
        clone.observe(0.25)  # still live: first observation sets min
        assert clone.min == 0.25

    def test_histogram_state_rejects_layout_mismatch(self):
        state = Histogram("lat").state()
        state["counts"] = state["counts"][:-1]
        with pytest.raises(ValueError):
            Histogram.from_state(state)

    def test_registry_state_round_trip_and_merge(self):
        # The cluster path: a worker registry crosses a process
        # boundary as state() and merges into the router's exactly.
        worker = MetricsRegistry()
        worker.counter("req").inc(7)
        worker.gauge("items").set(25.0)
        for value in (0.001, 0.004, 0.2):
            worker.histogram("lat").observe(value)
        state = json.loads(json.dumps(worker.state()))  # wire-safe
        restored = MetricsRegistry.from_state(state)
        assert restored.counter("req").value == 7
        assert restored.gauge("items").value == 25.0
        assert restored.histogram("lat").count == 3
        assert restored.histogram("lat").percentile(99) == worker.histogram(
            "lat"
        ).percentile(99)

        router = MetricsRegistry()
        router.counter("req").inc(1)
        router.histogram("lat").observe(0.5)
        router.merge(restored)
        assert router.counter("req").value == 8
        assert router.histogram("lat").count == 4

    def test_registry_merge(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("n").inc(2)
        right.counter("n").inc(3)
        right.histogram("lat").observe(0.5)
        left.merge(right)
        assert left.counter("n").value == 5
        assert left.histogram("lat").count == 1

    def test_report_envelopes(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        report = registry.report(meta={"worker": 0})
        assert is_report(report)
        assert report["kind"] == "metrics_registry"
        serving = make_serving_report(registry=registry, meta={"worker": 0})
        assert is_report(serving)
        assert serving["kind"] == "serving"
        assert serving["data"]["metrics"]["counters"]["n"] == 1
        assert "repro_n_total 1" in serving["data"]["exposition"]

    @pytest.mark.parametrize(
        "with_registry, with_tracer, sections",
        [
            (True, True, ["exposition", "metrics", "spans"]),
            (True, False, ["exposition", "metrics"]),
            (False, True, ["spans"]),
            (False, False, []),
        ],
    )
    def test_serving_report_sections(self, with_registry, with_tracer, sections):
        from repro.obs.spans import Tracer, span

        registry = MetricsRegistry()
        registry.histogram("stage.engine.request").observe(0.002)
        with Tracer(seed=0) as tracer:
            with span("root"):
                pass
        report = make_serving_report(
            registry=registry if with_registry else None,
            tracer=tracer if with_tracer else None,
            meta={"worker": 3},
        )
        assert is_report(report)
        assert report["meta"] == {"worker": 3}
        assert sorted(report["data"]) == sections
        if with_registry:
            histograms = report["data"]["metrics"]["histograms"]
            assert histograms["stage.engine.request"]["p99"] == 0.002
        if with_tracer:
            assert report["data"]["spans"]["traces_kept"] == 1
        json.dumps(report)

    def test_serving_report_takes_no_telemetry_section(self):
        with pytest.raises(TypeError, match="telemetry"):
            make_serving_report(telemetry=object())
