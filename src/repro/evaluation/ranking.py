"""Top-K recommendation list generation from trained scorers.

The evaluation protocol only needs ranks, but the example applications
recommend actual item lists; this module provides that surface.
"""

from __future__ import annotations

from typing import Callable, Sequence, Set, Tuple

import numpy as np

from repro.engine.topk import exclusion_mask, topk_indices

ScoreFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def top_k_scored(
    score_fn: ScoreFn,
    entity: int,
    num_items: int,
    k: int = 10,
    exclude: Set[int] | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-K item ids for one entity, highest score first, and their scores.

    ``exclude`` removes already-interacted items from the ranking, the
    usual deployment behaviour.  Selection runs through the vectorized
    :func:`repro.engine.topk.topk_indices` kernel (boolean exclusion
    mask + ``argpartition``); ordering is identical to a stable
    descending sort — ties break toward the smaller item id.  The
    scores are the ranking pass's own: no second call of ``score_fn``.

    Serves no request: this is the independent reference of
    ``tests/integration/test_scoring_modes.py``, the benchmark harness's
    ``Oracle`` and ``examples/adhoc_serving.py``.  It is kept out of the
    path of :class:`repro.engine.scorer.Scorer` and not merged with it
    on purpose, so the oracle never shares a bug with what it checks.
    """
    mask = exclusion_mask(num_items, exclude)
    candidates = (
        np.nonzero(~mask)[0] if mask is not None else np.arange(num_items, dtype=np.int64)
    )
    if candidates.size == 0 or k <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    entities = np.full(candidates.size, entity, dtype=np.int64)
    scores = score_fn(entities, candidates)
    # Candidates are ascending, so positional ties equal item-id ties.
    chosen = topk_indices(scores, k)
    return candidates[chosen], scores[chosen]


def top_k_items(
    score_fn: ScoreFn,
    entity: int,
    num_items: int,
    k: int = 10,
    exclude: Set[int] | None = None,
) -> np.ndarray:
    """The item ids of :func:`top_k_scored`."""
    return top_k_scored(score_fn, entity, num_items, k, exclude)[0]


def recommend_for_groups(
    score_fn: ScoreFn,
    group_ids: Sequence[int],
    num_items: int,
    k: int = 10,
    exclude_per_group: Sequence[Set[int]] | None = None,
) -> dict[int, np.ndarray]:
    """Top-K lists for several groups at once."""
    results: dict[int, np.ndarray] = {}
    for group in group_ids:
        exclude = exclude_per_group[group] if exclude_per_group is not None else None
        results[int(group)] = top_k_items(score_fn, int(group), num_items, k, exclude)
    return results
