"""Training throughput: row-sparse lazy updates vs the dense reference.

A BPR matrix-factorization step (the embedding-dominated core of
GroupSA's stage-1 task) is timed at growing table sizes with a fixed
batch.  Dense per-step cost is O(table): the scatter materializes a
full-table gradient and Adam walks every row.  The sparse path touches
only the batch rows, so its per-step cost should stay ~flat while the
dense cost grows linearly with the tables.

Acceptance floors, asserted at the largest scale (100k+ users/items,
batch 256):

- sparse ≥ 3× dense steps/second;
- sparse per-step cost grows ≤ 5× across a 16× table growth (dense
  grows ~linearly).

The one speed test outside ``benchmarks/perf``: no harness workload
reaches 160k-row tables.  The measurement grid is written to the
git-ignored ``.bench_work/train_throughput.json`` at the repo root.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_train_throughput.py -s
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.autograd import sparse_grads
from repro.nn.embedding import Embedding
from repro.optim import Adam
from repro.training.bpr import bpr_loss

REPORT_PATH = (
    Path(__file__).resolve().parents[1] / ".bench_work" / "train_throughput.json"
)
MEASURE_STEPS = 30
WARMUP_STEPS = 3
BATCH_SIZE = 256
EMBEDDING_DIM = 16
#: Users == items per scale; the largest must satisfy the ISSUE floor
#: of at least 100k-row tables.
SCALES = (10_000, 40_000, 160_000)


def _run_training(num_rows, sparse, steps, seed=0):
    """Time `steps` BPR steps over user/item tables of ``num_rows``."""
    users = Embedding(num_rows, EMBEDDING_DIM, rng=np.random.default_rng(1))
    items = Embedding(num_rows, EMBEDDING_DIM, rng=np.random.default_rng(2))
    optimizer = Adam([users.weight, items.weight], lr=0.01)
    rng = np.random.default_rng(seed)
    step_times = []
    with sparse_grads(sparse):
        for step in range(WARMUP_STEPS + steps):
            batch_users = rng.integers(0, num_rows, size=BATCH_SIZE)
            positives = rng.integers(0, num_rows, size=BATCH_SIZE)
            negatives = rng.integers(0, num_rows, size=BATCH_SIZE)
            started = time.perf_counter()
            user_vectors = users(batch_users)
            positive_scores = (user_vectors * items(positives)).sum(axis=-1)
            negative_scores = (user_vectors * items(negatives)).sum(axis=-1)
            loss = bpr_loss(positive_scores, negative_scores)
            loss.backward()
            optimizer.step()
            optimizer.zero_grad()
            elapsed = time.perf_counter() - started
            if step >= WARMUP_STEPS:
                step_times.append(elapsed)
    sync_started = time.perf_counter()
    optimizer.sync()
    sync_s = time.perf_counter() - sync_started
    times = np.asarray(step_times)
    return {
        "steps": int(times.size),
        "median_step_s": float(np.median(times)),
        "mean_step_s": float(times.mean()),
        "steps_per_s": float(1.0 / np.median(times)),
        "final_sync_s": sync_s,
    }


def test_bench_train_throughput():
    results = []
    for num_rows in SCALES:
        dense = _run_training(num_rows, sparse=False, steps=MEASURE_STEPS)
        sparse = _run_training(num_rows, sparse=True, steps=MEASURE_STEPS)
        speedup = sparse["steps_per_s"] / dense["steps_per_s"]
        results.append(
            {
                "num_users": num_rows,
                "num_items": num_rows,
                "dense": dense,
                "sparse": sparse,
                "speedup": speedup,
            }
        )
        print(
            f"\nrows {num_rows:>7,}  dense {dense['steps_per_s']:8.1f} st/s   "
            f"sparse {sparse['steps_per_s']:8.1f} st/s   "
            f"speedup {speedup:6.1f}x",
            end="",
        )

    smallest, largest = results[0], results[-1]
    sparse_growth = (
        largest["sparse"]["median_step_s"] / smallest["sparse"]["median_step_s"]
    )
    dense_growth = (
        largest["dense"]["median_step_s"] / smallest["dense"]["median_step_s"]
    )
    table_growth = SCALES[-1] / SCALES[0]
    report = {
        "batch_size": BATCH_SIZE,
        "embedding_dim": EMBEDDING_DIM,
        "measure_steps": MEASURE_STEPS,
        "scales": results,
        "table_growth": table_growth,
        "sparse_step_growth": sparse_growth,
        "dense_step_growth": dense_growth,
        "speedup_at_largest": largest["speedup"],
    }
    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(
        f"\n{table_growth:.0f}x tables -> sparse step x{sparse_growth:.2f}, "
        f"dense step x{dense_growth:.2f}  (report: {REPORT_PATH})"
    )

    assert largest["num_users"] >= 100_000
    assert largest["speedup"] >= 3.0, (
        f"sparse training only {largest['speedup']:.1f}x faster than dense "
        f"at {largest['num_users']:,} rows (acceptance floor is 3x)"
    )
    assert sparse_growth <= 5.0, (
        f"sparse per-step cost grew {sparse_growth:.1f}x over a "
        f"{table_growth:.0f}x table growth; expected ~flat (<= 5x)"
    )
