"""Self-test of the benchmark harness.

    python -m pytest benchmarks/perf -q

Not collected by tier-1 (``testpaths = ["tests"]``).  It drives the
``--smoke`` world through the real runner, so it takes about a minute.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from layers import LAYERS  # noqa: E402
from workloads import Oracle, ServeWorkload, Window, rank, send  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every process the runner starts inherits this marker in its environment.
TAG = f"PERF_HARNESS_TEST={uuid.uuid4().hex}"


def tagged_processes() -> list:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and int(entry) != os.getpid():
            try:
                environ = Path(f"/proc/{entry}/environ").read_bytes()
            except OSError:
                continue
            if TAG.encode() in environ.split(b"\0"):
                found.append(int(entry))
    return found


def runner(*args, **kwargs) -> subprocess.CompletedProcess:
    key, value = TAG.split("=")
    return subprocess.run(
        [*RUN, *args], env={**os.environ, key: value}, capture_output=True, text=True, **kwargs
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload once untraced and once traced, in the smoke world."""
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    started = time.monotonic()
    untraced = runner("--smoke", "--out", str(out))
    took = time.monotonic() - started
    traced = runner("--smoke", "--trace", "1", "--out", str(out))
    assert untraced.returncode == 0, untraced.stderr
    assert traced.returncode == 0, traced.stderr
    return {
        "took": took,
        "untraced": untraced,
        "traced": traced,
        "out": out,
        "runs": json.loads(out.read_text())["runs"],
    }


def test_smoke_world_runs_every_workload_within_a_minute(smoke):
    assert smoke["took"] < 60
    ran = {(run["workload"], run["trace"]) for run in smoke["runs"]}
    assert ran == {(w["name"], t) for w in SPEC["workloads"] for t in (0, 1)}
    assert all(run["correct"] and run["failed"] == 0 for run in smoke["runs"])


def test_every_declared_metric_is_reported_with_its_unit(smoke):
    for run in smoke["runs"]:
        for declared in SPEC["per_layer" if run["trace"] else "end_to_end"]:
            metric = run["metrics"].get(declared["name"])
            assert metric is not None, (run["workload"], declared["name"])
            assert metric["unit"] == declared["unit"], (run["workload"], declared["name"])
            assert metric["n"] >= 1


def test_last_line_is_the_result_and_is_marked_smoke(smoke):
    for output, section in ((smoke["untraced"], "end_to_end"), (smoke["traced"], "per_layer")):
        line = json.loads(output.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics", "smoke"}
        assert line["smoke"] is True and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in SPEC[section]}
        assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_compare_refuses_smoke_output(smoke):
    refused = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(smoke["out"])],
        capture_output=True, text=True,
    )
    assert refused.returncode == 2
    assert "smoke" in refused.stderr


def test_compare_refuses_runs_of_different_lengths(tmp_path):
    run = {"smoke": False, "trace": 0, "workload": "serve_direct",
           "metrics": {"setup_s": {"value": 1.0}}}
    for name, seconds in (("a.json", 6.0), ("b.json", 8.0)):
        (tmp_path / name).write_text(json.dumps({"runs": [{**run, "seconds": seconds}]}))
    refused = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(tmp_path / "a.json"), str(tmp_path / "b.json")],
        capture_output=True, text=True,
    )
    assert refused.returncode == 2
    assert "different lengths" in refused.stderr


def test_no_descendant_survives_a_run(smoke):
    assert tagged_processes() == []


def test_sigterm_to_the_runner_takes_the_workload_down():
    key, value = TAG.split("=")
    process = subprocess.Popen(
        [*RUN, "--smoke", "--workload", "serve_cluster", "--seconds", "30"],
        env={**os.environ, key: value}, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 30
    while len(tagged_processes()) < 4 and time.monotonic() < deadline:
        time.sleep(0.1)  # runner, workload and two shard workers
    process.send_signal(signal.SIGTERM)
    stdout, __ = process.communicate(timeout=30)
    assert process.returncode == 130
    assert not stdout.strip().endswith("}")  # no result line
    assert tagged_processes() == []


def test_layer_table_matches_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == [(name, unit, better) for name, unit, better, *__ in LAYERS]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_window_corrects_each_sample_by_the_host_speed_around_it():
    class Scripted:
        """Stands in for the yardstick: the host halves its speed midway."""

        def __init__(self):
            self.speeds = iter([1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5])

        def speed(self):
            return next(self.speeds)

    win = Window(60.0, Scripted())
    win.STRETCH_S = 0.0  # every operation ends a stretch
    for __ in range(6):
        win.op("user", lambda: time.sleep(0.002))
    win.seconds = 1e-9
    assert win.next_block() is False
    shares = [sample.value / sample.raw for sample in win.samples]
    # Median speed of the five stretches around each sample's own.
    assert shares == [1.0, 1.0, 1.0, 0.5, 0.5, 0.5]
    timing = win.timing(["user"])
    assert timing["value"] < timing["raw"] and timing["n"] == 6
    assert win.rate()["value"] > win.rate()["raw"]


def test_oracle_orders_a_dense_tie_row_by_ascending_id():
    scores = np.array([1.0, 2.0, 2.0, 0.5, 2.0, 2.0, 1.0, 2.0])
    assert rank(scores, exclude={2}, k=5).tolist() == [1, 4, 5, 7, 0]
    assert rank(np.zeros(6), exclude=set(), k=4).tolist() == [0, 1, 2, 3]


def test_a_corrupted_response_raises_failed_share(tmp_path):
    workload = ServeWorkload("serve_direct", smoke=True, seed=0, workdir=tmp_path)
    workload.setup()
    try:
        oracle = Oracle(workload.fx)
        win = workload.window(1.0, None)
        good = win.op("user", lambda: send(workload.service, "user", 3))
        bad = win.op("group", lambda: send(workload.service, "group", 3))
        workload.verify(win, [("user", 3, good)])
        assert win.failed == 0 and good.items == oracle.top("user", 3)
        bad.items[0], bad.items[1] = bad.items[1], bad.items[0]
        workload.verify(win, [("group", 3, bad)])
        assert win.failed_share()["value"] == 0.5
    finally:
        workload.close()
