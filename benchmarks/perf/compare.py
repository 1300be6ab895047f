"""Apply the benchmark's bounds to reports written by ``run.py --out``.

    python3 benchmarks/perf/compare.py A.json           # spread of A's repeats
    python3 benchmarks/perf/compare.py A.json B.json    # B against its base A
    python3 benchmarks/perf/compare.py A.json B.json --record baseline.json

One row per workload x end-to-end metric.  A row is *regressed* when B's
median is worse than A's by more than the metric's bound, *improved*
when it is better by more than the spread of A's own repeats, and
*unresolved* when the spread between repeats exceeds the bound (unless
every run of B beats every run of A).  Every ratio is printed with its
base.  Exits 1 when a row regressed, 2 on a report it refuses: a
``--smoke`` run, or runs of different lengths.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: Bounds of the metrics only some workloads report; ``BENCHMARK.json``
#: holds those of the metrics every workload reports, and nothing else
#: holds a bound.  name -> (better, bound, bound is absolute).  A
#: relative bound is 0.15 where the widest spread of the reference runs
#: (``baseline.json``) is about a third of that, and 0.25 where it is
#: 0.10-0.19: a cache hit's thread hand-off, three ad-hoc requests a
#: block, five user epochs a run.
WORKLOAD_BOUNDS = {
    "user_p50_ms": ("lower", 0.25, False),
    "group_p50_ms": ("lower", 0.15, False),
    "adhoc_p50_ms": ("lower", 0.25, False),
    "train_user_steps_s": ("higher", 0.25, False),
    "train_group_steps_s": ("higher", 0.15, False),
    "staleness_p50_ms": ("lower", 0.15, False),
    "failed_share": ("lower", 0.0, True),
    "recall_at_10_mean": ("higher", 0.01, True),
    "recall_at_10_min": ("higher", 0.01, True),
}

Rows = Dict[Tuple[str, str], List[float]]


def bounds() -> Dict[str, tuple]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    table = {m["name"]: (m["better"], m["bound"], False) for m in declared}
    return {**table, **WORKLOAD_BOUNDS}


def refuse(reason: str) -> None:
    print(f"compare: {reason}", file=sys.stderr)
    sys.exit(2)


def load(paths: List[str]) -> Tuple[List[Rows], List[dict]]:
    """The untraced runs of each report as (workload, metric) -> values."""
    tables, reports, lengths = [], [], set()
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        rows: Rows = {}
        for run in report["runs"]:
            if run["smoke"]:
                refuse(f"{path} holds a --smoke run; smoke numbers are not comparable")
            lengths.add(run["seconds"])
            if run["trace"]:
                continue
            for name, metric in run["metrics"].items():
                rows.setdefault((run["workload"], name), []).append(metric["value"])
        if not rows:
            refuse(f"{path} holds no untraced run")
        tables.append(rows)
        reports.append(report)
    if len(lengths) > 1:
        refuse(f"runs of different lengths ({sorted(lengths)} s) are not comparable")
    return tables, reports


def spread(values: List[float], absolute: bool) -> float:
    """Distance between the quartiles, as a share of the median unless
    the metric's bound is absolute."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return q3 - q1 if absolute or median == 0 else (q3 - q1) / abs(median)


def report_spread(rows: Rows) -> int:
    table = bounds()
    print(f"{'workload':<16}{'metric':<22}{'runs':>5}{'median':>14}{'spread':>10}{'bound':>8}  verdict")
    for (workload, name), values in rows.items():
        __, bound, absolute = table[name]
        wide = spread(values, absolute)
        if wide > bound:
            verdict = "unresolved: repeats spread wider than the bound"
        elif wide > bound / 3:
            verdict = "wide: above a third of the bound"
        else:
            verdict = "steady"
        print(f"{workload:<16}{name:<22}{len(values):>5}{statistics.median(values):>14.4f}"
              f"{wide:>10.4f}{bound:>8.2f}  {verdict}")
    return 0


def judge(base: Rows, change: Rows) -> List[dict]:
    """One row per workload x metric of ``base``, with its verdict."""
    table = bounds()
    rows = []
    for (workload, name), a in base.items():
        b = change.get((workload, name))
        row = {"workload": workload, "metric": name}
        rows.append(row)
        if b is None:
            row["verdict"] = "missing"
            continue
        better, bound, absolute = table[name]
        med_a, med_b = statistics.median(a), statistics.median(b)
        sign = 1.0 if better == "lower" else -1.0
        worse = sign * (med_b - med_a)
        if not absolute and med_a:
            worse /= abs(med_a)
        spreads = [spread(a, absolute), spread(b, absolute)]
        clean_win = all(sign * (y - x) < 0 for x in a for y in b)
        if max(spreads) > bound and not clean_win and worse != 0:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "regressed"
        elif -worse > spreads[0] and worse < 0:
            verdict = "improved"
        else:
            verdict = "unchanged"
        row.update(runs=[len(a), len(b)], medians=[med_a, med_b], spreads=spreads,
                   worse_by=worse, verdict=verdict)
    return rows


def report_change(rows: List[dict]) -> int:
    table = bounds()
    print(f"{'workload':<16}{'metric':<22}{'base':>14}{'change':>14}{'ratio':>9}{'spread':>9}{'bound':>7}  verdict")
    for row in rows:
        if row["verdict"] == "missing":
            print(f"{row['workload']:<16}{row['metric']:<22} missing from the second report")
            continue
        med_a, med_b = row["medians"]
        ratio = f"{med_b / med_a:.3f}" if med_a else "-"
        print(f"{row['workload']:<16}{row['metric']:<22}{med_a:>14.4f}{med_b:>14.4f}{ratio:>9}"
              f"{max(row['spreads']):>9.4f}{table[row['metric']][1]:>7.2f}  {row['verdict']}"
              f" (base {med_a:.4f}, {row['runs'][0]}+{row['runs'][1]} runs)")
    return 1 if any(row["verdict"] in ("regressed", "missing") for row in rows) else 0


def record(path: str, rows: List[dict], reports: List[dict]) -> None:
    """Write the reference medians: the rows of two same-code sets, the
    per-layer medians of their traced runs, and the machine they ran on."""
    layers: Dict[str, Dict[str, List[float]]] = {}
    for report in reports:
        for run in report["runs"]:
            if run["trace"]:
                for name, metric in run["metrics"].items():
                    layers.setdefault(run["workload"], {}).setdefault(name, []).append(metric["value"])
    runs = [run for report in reports for run in report["runs"]]
    speeds = sorted(run["host_speed"] for run in runs)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "schema": "repro.perfbench.baseline/v2",
                "claim": None,
                "fingerprint": reports[0]["fingerprint"],
                "seconds": runs[0]["seconds"],
                "host_speed": {
                    "min": speeds[0], "median": statistics.median(speeds), "max": speeds[-1]
                },
                "end_to_end": rows,
                "per_layer": {
                    workload: {name: statistics.median(values) for name, values in table.items()}
                    for workload, table in layers.items()
                },
            },
            handle,
            indent=1,
        )


def main(argv: List[str]) -> int:
    target: Optional[str] = None
    if "--record" in argv:
        at = argv.index("--record")
        if at + 1 >= len(argv):
            refuse("--record needs a file name")
        target = argv[at + 1]
        argv = argv[:at] + argv[at + 2:]
    if len(argv) not in (1, 2) or (target and len(argv) != 2):
        print(__doc__, file=sys.stderr)
        return 2
    tables, reports = load(argv)
    if len(tables) == 1:
        return report_spread(tables[0])
    rows = judge(*tables)
    if target:
        record(target, rows, reports)
    return report_change(rows)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
