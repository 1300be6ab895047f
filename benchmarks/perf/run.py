"""The repo benchmark: one foreground command, six workloads.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N]
        [--trace [0|1]] [--out FILE] [--smoke]

``--seconds`` is the driver's flag (README, "The driver's contract"); it
defaults to ``run_seconds`` of ``BENCHMARK.json``, and ``compare.py``
refuses to compare runs of different lengths.

Each workload runs as its own child process in a session of its own.  The
runner reaps it with ``os.wait4`` (which also yields ``peak_rss_mb``),
then waits until that session is empty; survivors are terminated, killed,
reaped and reported, and the run exits non-zero.  The last line of
standard output is written only after the final reap: one JSON object
with ``correct``, ``attempted``, ``failed`` and the metrics named in
``BENCHMARK.json`` (end-to-end untraced, per-layer traced).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_work"
SCHEMA = "repro.perfbench/v1"

WORKLOAD_TIMEOUT_S = 120.0
#: glibc adapts its mmap threshold to the sizes a process has freed.  In
#: the engine's worker thread that made the same forward pass take 34 or
#: 43 ms for a whole run, depending on the request history the seed gave.
#: The workloads run with the threshold fixed at glibc's own ceiling
#: (and trim at twice that, as the adaptive rule would set it).
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}
SMOKE_SECONDS = 1.0
PR_SET_CHILD_SUBREAPER = 36


class Terminated(Exception):
    """SIGINT/SIGTERM reached the runner."""


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# The child: one workload, in-process
# ----------------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import run_workload

    workdir = Path(args.child)
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, workdir
    )
    spans = result.pop("spans")
    if spans is not None:
        with open(WORK / f"trace_{args.workload}.json", "w", encoding="utf-8") as handle:
            json.dump({**result, "spans": spans}, handle)
    with open(workdir / "result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


# ----------------------------------------------------------------------
# The runner: process hygiene
# ----------------------------------------------------------------------


def session_members(session: int) -> Dict[int, str]:
    """Live (non-zombie) processes of ``session``: pid -> command line."""
    members = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            if fields[0] == "Z" or int(fields[3]) != session:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except (OSError, IndexError, ValueError):
            continue  # gone between listdir and open
        members[int(entry)] = command.strip()
    return members


def reap_orphans() -> None:
    """Reap whatever was re-parented to the runner (it is a subreaper)."""
    while True:
        try:
            pid, __ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def drain_session(session: int, grace_s: float = 5.0) -> Dict[int, str]:
    """Wait for ``session`` to empty; terminate, kill and reap what stays.

    Returns the survivors that had to be signalled.  The spawn-context
    ``multiprocessing.resource_tracker`` outlives ``router.close()`` and
    exits only once its parent interpreter has, so a short wait is normal.
    """
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        reap_orphans()
        if not session_members(session):
            return {}
        time.sleep(0.02)
    survivors = session_members(session)
    for signum in (signal.SIGTERM, signal.SIGKILL):
        for pid in session_members(session):
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 2.0
        while session_members(session) and time.monotonic() < deadline:
            reap_orphans()
            time.sleep(0.02)
    reap_orphans()
    return survivors


def run_child(argv: List[str], workdir: Path) -> Tuple[Optional[dict], float, str]:
    """Run one workload to completion in a session of its own.

    Returns ``(result, peak_rss_mb, problem)``; ``problem`` is empty when
    the child exited 0 in time and left no process behind.
    """
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(workdir), *argv],
        start_new_session=True,
        env={**os.environ, **MALLOC_ENV, "TMPDIR": str(workdir)},
        cwd=ROOT,
    )
    problem = ""
    code = usage = None
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    try:
        while code is None:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                code = os.waitstatus_to_exitcode(status)
            elif time.monotonic() > deadline:
                problem = f"timed out after {WORKLOAD_TIMEOUT_S:.0f} s"
                break
            else:
                time.sleep(0.02)
    finally:
        if code is None:
            # Timed out, or a signal reached the runner: kill the group.
            os.killpg(child.pid, signal.SIGKILL)
            __, status, usage = os.wait4(child.pid, 0)
            code = os.waitstatus_to_exitcode(status)
        child.returncode = code  # reaped here, not by Popen
        survivors = drain_session(child.pid)
    if code != 0 and not problem:
        problem = f"exited with code {code}"
    if survivors:
        listing = "; ".join(f"{pid}: {command}" for pid, command in survivors.items())
        problem = f"{problem}; " * bool(problem) + f"left processes behind: {listing}"
    result = None
    if code == 0:
        with open(workdir / "result.json", encoding="utf-8") as handle:
            result = json.load(handle)
    return result, usage.ru_maxrss / 1024.0, problem


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def fingerprint() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else None,
    }


def print_table(result: dict) -> None:
    print(f"\n== {result['workload']} seed={result['seed']} trace={result['trace']}"
          f" window={result['window_s']:.2f}s host_speed={result['host_speed']:.3f}"
          f" attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        measured = f"  as measured {metric['raw']:.4f}" if "raw" in metric else ""
        print(f"  {name:<44}{metric['value']:>14.4f} {metric['unit']:<6} n={metric['n']}{measured}")
    for kind, row in (result.get("coverage") or {}).items():
        print(f"  [{kind}] replayed={row['n']} op_p50={row['op_p50_ms']:.3f} ms"
              f" covered_p50={row['covered_p50_ms']:.3f} ms self_p50={row['self_p50_ms']:.3f} ms")
    for error in result["errors"]:
        print(f"  ! {error}")


def append_out(path: Path, record: dict) -> None:
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    else:
        report = {"schema": SCHEMA, "fingerprint": fingerprint(), "runs": []}
    report["runs"].append(record)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)


def final_line(result: dict, declared: List[dict]) -> str:
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {
                "value": result["metrics"][m["name"]]["value"],
                "unit": result["metrics"][m["name"]]["unit"],
            }
            for m in declared
        },
    }
    if result["smoke"]:
        line["smoke"] = True
    return json.dumps(line)


# ----------------------------------------------------------------------


def parse(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, help="length of the timed window (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="per-layer run: bench spans, layer replays and the probe suite")
    parser.add_argument("--out", type=Path, help="append every run to this JSON report")
    parser.add_argument("--smoke", action="store_true", help="tiny world, short window; not comparable")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"benchmark: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    benchmark = spec()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(benchmark["run_seconds"])
    if args.child:
        return child_main(args)
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload and args.workload not in names:
        print(f"benchmark: unknown workload '{args.workload}' (choose from {names})", file=sys.stderr)
        return 2

    def on_signal(signum, __frame):
        raise Terminated(signal.Signals(signum).name)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    # Orphans of a workload re-parent to the runner, so it can reap them.
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    problems: List[str] = []
    last = ""
    WORK.mkdir(exist_ok=True)
    try:
        for name in [args.workload] if args.workload else names:
            workdir = WORK / f"{name}-{os.getpid()}"
            workdir.mkdir()
            argv_child = ["--workload", name, "--seed", str(args.seed), "--seconds",
                          str(args.seconds), "--trace", str(args.trace)]
            if args.smoke:
                argv_child.append("--smoke")
            try:
                result, peak_mb, problem = run_child(argv_child, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if problem or result is None:
                problems.append(f"{name}: {problem or 'no result'}")
                continue
            if not args.trace:
                result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB", "n": 1}
            print_table(result)
            if args.out:
                append_out(args.out, result)
            last = final_line(result, declared)
    except Terminated as reason:
        print(f"benchmark: stopped by {reason}", file=sys.stderr)
        return 130
    if problems:
        for problem in problems:
            print(f"benchmark: {problem}", file=sys.stderr)
        return 1
    print(last, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
