"""RunMetrics: JSONL schema, trainer binding, the unified report shape."""

import json

import numpy as np
import pytest

from repro.obs import RECORD_SCHEMA, RunMetrics, is_report, make_report
from repro.training import TrainingConfig
from repro.training.callbacks import EpochLog
from repro.training.two_stage import build_model, fit_groupsa
from tests.conftest import TINY_MODEL_CONFIG

SHORT = TrainingConfig(
    user_epochs=2, group_epochs=2, batch_size=64, learning_rate=0.02, seed=5
)

#: Keys every JSONL record must carry.
RECORD_KEYS = {
    "schema",
    "task",
    "epoch",
    "loss",
    "pairwise_accuracy",
    "duration_s",
    "grad_norm",
    "update_ratio",
    "rss_hwm_mb",
    "wall_time_s",
}


@pytest.fixture
def metrics_run(tiny_split, tmp_path):
    path = tmp_path / "run.jsonl"
    metrics = RunMetrics(str(path))
    model, batcher = build_model(tiny_split, TINY_MODEL_CONFIG)
    history = fit_groupsa(model, tiny_split, batcher, SHORT, callback=metrics)
    metrics.close()
    return metrics, path, history


class TestJsonlSchema:
    def test_one_record_per_epoch_with_full_schema(self, metrics_run):
        metrics, path, history = metrics_run
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(history.epochs)
        for record in lines:
            assert set(record) == RECORD_KEYS
            assert record["schema"] == RECORD_SCHEMA
            assert record["task"] in ("user", "group")
            assert record["duration_s"] > 0.0
            assert np.isfinite(record["loss"])

    def test_round_trip_matches_in_memory_records(self, metrics_run):
        metrics, path, __ = metrics_run
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == json.loads(json.dumps(metrics.records))

    def test_bound_metrics_include_grad_norm_and_ratios(self, metrics_run):
        metrics, __, ___ = metrics_run
        last = metrics.records[-1]
        assert last["grad_norm"] is not None and last["grad_norm"] > 0.0
        ratios = last["update_ratio"]
        # Groups follow the model's top-level parameter prefixes.
        assert {"user_embedding", "item_embedding", "voting"} <= set(ratios)
        assert all(r >= 0.0 for r in ratios.values())
        # Something must have moved during a training epoch.
        assert max(ratios.values()) > 0.0

    def test_rss_high_water_mark_positive_on_posix(self, metrics_run):
        metrics, __, ___ = metrics_run
        rss = metrics.records[-1]["rss_hwm_mb"]
        assert rss is None or rss > 0.0


class TestUnbound:
    def test_usable_as_plain_callback(self, tmp_path):
        path = tmp_path / "plain.jsonl"
        with RunMetrics(str(path)) as metrics:
            metrics(EpochLog("user", 1, 0.5, 0.8, duration_s=0.25))
        record = json.loads(path.read_text())
        assert record["grad_norm"] is None
        assert record["update_ratio"] is None
        assert record["duration_s"] == 0.25

    def test_chain_invoked(self):
        seen = []
        metrics = RunMetrics(None, chain=seen.append)
        log = EpochLog("group", 2, 0.4, 0.9)
        metrics(log)
        assert seen == [log]
        assert len(metrics.records) == 1


class TestUnifiedReportShape:
    def test_run_report_envelope(self, metrics_run):
        metrics, __, ___ = metrics_run
        report = metrics.report(meta={"world": "tiny"})
        assert is_report(report)
        assert report["kind"] == "training_run"
        assert report["meta"] == {"world": "tiny"}
        assert report["data"]["epochs_logged"] == len(metrics.records)
        assert set(report["data"]["tasks"]) == {"user", "group"}
        json.dumps(report)  # must be serializable as-is

    def test_envelope_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            make_report("", {})
