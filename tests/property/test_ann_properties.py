"""Statistical and ordering guarantees of IVF candidate generation.

Two worlds bracket IVF's operating range: ``clustered`` mimics trained
embedding tables (the friendly case — the true Top-K concentrates in
few lists) and ``uniform`` is isotropic noise (the adversarial case —
the Top-K spreads over many lists).  The recall floor must hold on
BOTH with the per-world probe budgets of :func:`auto_nprobe`, and the
exact-rerank ordering contract (descending score, ascending position
among ties) must hold on every query.

Everything is seeded: these are properties of the algorithm, not of a
lucky draw.
"""

import numpy as np
import pytest

from repro.engine.ann import IVFIndex, recall_at_k
from repro.engine.topk import topk_indices

K = 10
NUM_QUERIES = 40
DIM = 16
NUM_ITEMS = 4000


def synthetic_item_vectors(
    num_items: int, dim: int, mode: str = "clustered", seed: int = 0
) -> np.ndarray:
    """The two item-vector worlds the recall floor is asserted on.

    ``clustered`` mimics trained embedding tables (items concentrate
    around latent "taste" centers — IVF's friendly case); ``uniform``
    is isotropic Gaussian noise with no cluster structure at all —
    IVF's adversarial case, which is why the recall floor is asserted
    on both.
    """
    rng = np.random.default_rng(seed)
    if mode == "uniform":
        return rng.standard_normal((num_items, dim))
    if mode == "clustered":
        num_centers = max(4, num_items // 256)
        centers = 3.0 * rng.standard_normal((num_centers, dim))
        assignment = rng.integers(0, num_centers, size=num_items)
        return centers[assignment] + 0.5 * rng.standard_normal((num_items, dim))
    raise ValueError(f"unknown mode '{mode}' (choose 'clustered' or 'uniform')")


# Fraction of the inverted lists probed per world.  The clustered world
# concentrates the Top-K into few lists, so a quarter suffices; the
# structure-free uniform world spreads it out and needs half.  The
# floor keeps small catalogs (where nlist is tiny) above the 0.95
# recall bar at negligible cost.
_AUTO_NPROBE_DIVISOR = {"clustered": 4, "uniform": 2}
_AUTO_NPROBE_FLOOR = 48


def auto_nprobe(mode: str, nlist: int) -> int:
    """Per-world probe budget for the recall-floor tests."""
    divisor = _AUTO_NPROBE_DIVISOR.get(mode, 2)
    return min(nlist, max(_AUTO_NPROBE_FLOOR, nlist // divisor))


def world_index(mode, seed):
    vectors = synthetic_item_vectors(NUM_ITEMS, DIM, mode, seed=seed)
    index = IVFIndex(vectors, seed=seed)
    return vectors, index


class TestRecallFloor:
    @pytest.mark.parametrize("mode", ["clustered", "uniform"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mean_recall_at_least_95_percent(self, mode, seed):
        vectors, index = world_index(mode, seed)
        nprobe = auto_nprobe(mode, index.nlist)
        queries = np.random.default_rng(seed + 100).standard_normal(
            (NUM_QUERIES, DIM)
        )
        recalls = []
        for query in queries:
            exact = topk_indices(vectors @ query, K)
            approx, __ = index.search(query, K, nprobe=nprobe)
            recalls.append(recall_at_k(approx, exact))
        assert np.mean(recalls) >= 0.95, (mode, seed, float(np.mean(recalls)))

    @pytest.mark.parametrize("mode", ["clustered", "uniform"])
    def test_full_probe_recall_is_perfect(self, mode):
        vectors, index = world_index(mode, seed=3)
        queries = np.random.default_rng(9).standard_normal((10, DIM))
        for query in queries:
            exact = topk_indices(vectors @ query, K)
            approx, __ = index.search(query, K, nprobe=index.nlist)
            assert recall_at_k(approx, exact) == 1.0


class TestRerankContract:
    @pytest.mark.parametrize("mode", ["clustered", "uniform"])
    def test_scores_descend_and_ties_ascend(self, mode):
        vectors, index = world_index(mode, seed=5)
        queries = np.random.default_rng(11).standard_normal((NUM_QUERIES, DIM))
        for query in queries:
            positions, scores = index.search(query, K, nprobe=4)
            assert np.all(np.diff(scores) <= 0)
            tied = np.diff(scores) == 0
            assert np.all(np.diff(positions)[tied] > 0)
            assert np.unique(positions).size == positions.size

    def test_duplicate_rows_force_ascending_tie_order(self):
        # 8 distinct directions, each repeated 50 times: the Top-K is
        # wall-to-wall ties, so the ascending-position rule is the only
        # thing determining the output.
        rng = np.random.default_rng(21)
        base = rng.standard_normal((8, DIM))
        vectors = np.repeat(base, 50, axis=0)
        index = IVFIndex(vectors, nlist=16, seed=0)
        for __ in range(10):
            query = rng.standard_normal(DIM)
            positions, scores = index.search(query, 25, nprobe=16)
            tied = np.diff(scores) == 0
            assert np.all(np.diff(positions)[tied] > 0)
            # Every winner comes from the best duplicate bucket.  (Not
            # asserting *which* duplicates: the bucket can straddle two
            # inverted lists, and per-list matvecs may differ in the
            # last ulp — a legal perturbation, same as the BLAS
            # batch-shape allowance in the parity tests.)
            best = int(np.argmax(base @ query))
            block = np.nonzero(
                np.isclose(vectors @ query, (base @ query)[best])
            )[0]
            assert np.isin(positions, block).all()

    def test_candidates_feed_exact_rerank_in_id_order(self):
        vectors, index = world_index("clustered", seed=8)
        query = np.random.default_rng(13).standard_normal(DIM)
        candidates = index.candidates(query, 128, nprobe=8)
        assert np.all(np.diff(candidates) > 0)
        # Reranking the candidate slice with the exact kernel picks the
        # same items as reranking via their global scores.
        scores = vectors[candidates] @ query
        chosen = topk_indices(scores, K)
        assert np.array_equal(
            candidates[chosen],
            candidates[np.argsort(-scores, kind="stable")[:K]],
        )
