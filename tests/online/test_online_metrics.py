"""Per-replay-batch metrics stream and consumer-lag introspection.

Satellite of ISSUE 10: the OnlineTrainer emits one
``repro.obs/online-batch/v1`` JSONL record per optimizer step (offset,
loss, events/sec, replay lag), reusing the run-metrics JSONL writer,
and ``EventLogReader.lag_bytes`` reports how far the consumer trails
the log.
"""

import json

import numpy as np
import pytest

from repro.online import (
    EventLogReader,
    OnlineTrainer,
    OnlineTrainerConfig,
    SnapshotPublisher,
    generate_events,
    write_event_log,
)
from repro.training.two_stage import build_model

from tests.conftest import TINY_MODEL_CONFIG

BATCH = 8


@pytest.fixture(scope="module")
def event_log(tiny_split, tmp_path_factory):
    path = tmp_path_factory.mktemp("events") / "events.jsonl"
    events = generate_events(
        tiny_split.train, 50, rng=np.random.default_rng(17)
    )
    write_event_log(path, events)
    return path


def make_trainer(tiny_split, tmp_path, metrics_path=None):
    model, __ = build_model(tiny_split, TINY_MODEL_CONFIG)
    publisher = SnapshotPublisher(tmp_path / "snapshots")
    return OnlineTrainer(
        model,
        tiny_split.train,
        publisher,
        config=OnlineTrainerConfig(batch_size=BATCH),
        metrics_path=None if metrics_path is None else str(metrics_path),
    )


class TestLagBytes:
    def test_lag_shrinks_to_zero_as_the_reader_drains(self, event_log):
        reader = EventLogReader(event_log)
        size = event_log.stat().st_size
        assert reader.lag_bytes() == size
        reader.read_batch(10)
        drained_some = reader.lag_bytes()
        assert 0 < drained_some < size
        while reader.read_batch(10):
            pass
        assert reader.lag_bytes() == 0

    def test_missing_file_reports_zero(self, tmp_path):
        assert EventLogReader(tmp_path / "nope.jsonl").lag_bytes() == 0


class TestBatchMetricsStream:
    def test_one_record_per_step_with_schema_and_lag(
        self, tiny_split, event_log, tmp_path
    ):
        metrics_path = tmp_path / "batches.jsonl"
        trainer = make_trainer(tiny_split, tmp_path, metrics_path)
        stats = trainer.consume(EventLogReader(event_log))
        trainer.close()
        records = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        assert len(records) == stats["steps"] == trainer.steps
        for record in records:
            assert record["schema"] == "repro.obs/online-batch/v1"
            assert record["kind"] in ("user", "group")
            assert record["events"] >= 1
            assert record["offset"] >= 0
            assert record["replay_lag_bytes"] >= 0
            assert np.isfinite(record["loss"])
            assert record["events_per_s"] is None or record["events_per_s"] > 0
        # Steps are ordered and offsets never move backwards.
        assert [r["step"] for r in records] == sorted(r["step"] for r in records)
        offsets = [r["offset"] for r in records]
        assert offsets == sorted(offsets)
        # The final step saw the reader nearly drained.
        assert records[-1]["replay_lag_bytes"] < event_log.stat().st_size

    def test_no_metrics_path_writes_nothing(
        self, tiny_split, event_log, tmp_path
    ):
        trainer = make_trainer(tiny_split, tmp_path)
        trainer.consume(EventLogReader(event_log))
        trainer.close()
        assert not list(tmp_path.glob("*.jsonl"))

    def test_replay_lag_gauge_tracks_consumption(
        self, tiny_split, event_log, tmp_path
    ):
        trainer = make_trainer(tiny_split, tmp_path)
        trainer.consume(EventLogReader(event_log))
        gauge = trainer.registry.gauges()["online.replay_lag_bytes"]
        assert gauge.value == 0.0  # fully drained
