"""Micro-batching queue: coalescing, ordering, failure propagation."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine.batching import MicroBatcher
from repro.engine.service import telemetry_snapshot
from repro.obs.metrics_registry import MetricsRegistry


def echo_handler(payloads):
    return [p * 2 for p in payloads]


class TestCoalescing:
    def test_staged_requests_flush_as_one_batch(self):
        seen = []

        def handler(payloads):
            seen.append(list(payloads))
            return payloads

        batcher = MicroBatcher(handler, max_batch_size=16, autostart=False)
        futures = [batcher.submit(i) for i in range(6)]
        batcher.start()
        assert [f.result(timeout=5) for f in futures] == list(range(6))
        batcher.close()
        assert seen == [[0, 1, 2, 3, 4, 5]]
        snapshot = telemetry_snapshot(batcher.registry)
        assert snapshot["batches"]["count"] == 1
        assert snapshot["batches"]["mean_occupancy"] == 6.0

    def test_max_batch_size_splits_flushes(self):
        sizes = []

        def handler(payloads):
            sizes.append(len(payloads))
            return payloads

        batcher = MicroBatcher(handler, max_batch_size=4, autostart=False)
        futures = [batcher.submit(i) for i in range(10)]
        batcher.start()
        [f.result(timeout=5) for f in futures]
        batcher.close()
        assert sizes == [4, 4, 2]

    def test_flush_interval_waits_for_stragglers(self):
        sizes = []

        def handler(payloads):
            sizes.append(len(payloads))
            return payloads

        batcher = MicroBatcher(
            handler, max_batch_size=8, flush_interval=0.2, autostart=True
        )
        first = batcher.submit(1)
        time.sleep(0.05)  # well inside the flush window
        second = batcher.submit(2)
        assert first.result(timeout=5) == 1
        assert second.result(timeout=5) == 2
        batcher.close()
        assert sizes == [2]


class TestConcurrency:
    def test_concurrent_submitters_get_their_own_results(self):
        batcher = MicroBatcher(echo_handler, max_batch_size=8)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda i: batcher.submit(i).result(timeout=5), range(64)))
        batcher.close()
        assert results == [i * 2 for i in range(64)]
        assert batcher.registry.counter("batch.requests").value == 64

    def test_handler_runs_on_single_worker_thread(self):
        threads = set()

        def handler(payloads):
            threads.add(threading.current_thread().name)
            return payloads

        batcher = MicroBatcher(handler, max_batch_size=4)
        futures = [batcher.submit(i) for i in range(12)]
        [f.result(timeout=5) for f in futures]
        batcher.close()
        assert threads == {"microbatcher-worker"}


class TestRegistry:
    def test_standalone_batchers_record_privately(self):
        first = MicroBatcher(echo_handler)
        second = MicroBatcher(echo_handler)
        assert first.submit(1).result(timeout=5) == 2
        first.close()
        second.close()
        assert first.registry is not second.registry
        assert first.registry.counter("batch.requests").value == 1
        assert "batch.requests" not in second.registry.counters()

    def test_records_into_the_given_registry(self):
        registry = MetricsRegistry()
        batcher = MicroBatcher(echo_handler, registry=registry, autostart=False)
        assert batcher.registry is registry
        futures = [batcher.submit(i) for i in range(5)]
        batcher.start()
        [f.result(timeout=5) for f in futures]
        batcher.close()
        assert registry.counter("batch.flushes").value == 1
        assert registry.counter("batch.requests").value == 5
        assert registry.histogram("stage.batch.queue_wait").count == 5
        assert registry.histogram("stage.batch.execute").count == 1

    def test_execute_latency_is_timed(self):
        def sleepy(payloads):
            time.sleep(0.01)
            return payloads

        batcher = MicroBatcher(sleepy)
        batcher.submit(1).result(timeout=5)
        batcher.close()
        summary = telemetry_snapshot(batcher.registry)["stages"]["batch.execute"]
        assert summary["count"] == 1
        assert summary["max_ms"] >= 10.0

    @pytest.mark.parametrize(
        "handler",
        [
            pytest.param(lambda payloads: 1 / 0, id="raises"),
            pytest.param(lambda payloads: [], id="wrong-count"),
        ],
    )
    def test_failed_flush_is_still_recorded(self, handler):
        batcher = MicroBatcher(handler, autostart=False)
        futures = [batcher.submit(i) for i in range(3)]
        batcher.start()
        for future in futures:
            with pytest.raises((ZeroDivisionError, RuntimeError)):
                future.result(timeout=5)
        batcher.close()
        snapshot = telemetry_snapshot(batcher.registry)
        assert snapshot["counters"] == {"batch.flushes": 1, "batch.requests": 3}
        assert snapshot["stages"]["batch.execute"]["count"] == 1
        assert snapshot["stages"]["batch.queue_wait"]["count"] == 3
        assert snapshot["batches"]["count"] == 1


class TestFailure:
    def test_handler_exception_fails_the_whole_flush(self):
        def handler(payloads):
            raise RuntimeError("boom")

        batcher = MicroBatcher(handler, autostart=False)
        futures = [batcher.submit(i) for i in range(3)]
        batcher.start()
        for future in futures:
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=5)
        batcher.close()

    def test_wrong_result_count_fails_futures(self):
        batcher = MicroBatcher(lambda payloads: [], autostart=False)
        future = batcher.submit(1)
        batcher.start()
        with pytest.raises(RuntimeError, match="results"):
            future.result(timeout=5)
        batcher.close()

    def test_exception_does_not_kill_worker(self):
        calls = []

        def handler(payloads):
            calls.append(list(payloads))
            if payloads[0] == "bad":
                raise ValueError("bad payload")
            return payloads

        batcher = MicroBatcher(handler)
        bad = batcher.submit("bad")
        with pytest.raises(ValueError):
            bad.result(timeout=5)
        assert batcher.submit("good").result(timeout=5) == "good"
        batcher.close()

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(echo_handler)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(1)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            MicroBatcher(echo_handler, max_batch_size=0)
        with pytest.raises(ValueError, match="flush_interval"):
            MicroBatcher(echo_handler, flush_interval=-1.0)


class TestWedgedShutdown:
    """close() must never strand callers on futures that cannot resolve."""

    def test_close_fails_inflight_and_queued_futures(self):
        wedge = threading.Event()
        entered = threading.Event()

        def handler(payloads):
            entered.set()
            wedge.wait()  # deliberately wedged until the test releases it
            return list(payloads)

        batcher = MicroBatcher(handler, max_batch_size=1)
        inflight = batcher.submit("stuck")
        assert entered.wait(timeout=5)
        queued = [batcher.submit(i) for i in range(3)]

        start = time.perf_counter()
        batcher.close(timeout=0.2)
        assert time.perf_counter() - start < 5.0  # close itself returns

        # Every undrained future fails fast instead of hanging forever.
        with pytest.raises(RuntimeError, match="did not stop"):
            inflight.result(timeout=5)
        for future in queued:
            with pytest.raises(RuntimeError, match="did not stop"):
                future.result(timeout=5)

        # Un-wedging must not crash the worker on already-failed futures.
        wedge.set()
        time.sleep(0.05)

    def test_close_with_healthy_worker_still_drains(self):
        batcher = MicroBatcher(echo_handler)
        futures = [batcher.submit(i) for i in range(5)]
        batcher.close(timeout=5.0)
        assert [f.result(timeout=5) for f in futures] == [i * 2 for i in range(5)]
