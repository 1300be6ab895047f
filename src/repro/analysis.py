"""Model introspection helpers.

Utilities behind the paper's qualitative analyses: tracing the voting
rounds of the self-attention stack (which member listened to whom),
rendering attention matrices as text heat maps, and inspecting
embedding-space neighbourhoods.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import inference_mode, no_grad
from repro.core.groupsa import GroupSA
from repro.data.loaders import GroupBatch
from repro.nn.attention import social_bias_matrix

_SHADES = " .:-=+*#%@"


def voting_rounds_trace(model: GroupSA, batch: GroupBatch) -> List[np.ndarray]:
    """Per-layer social attention matrices for a batch of groups.

    Returns one (B, L, L) array per voting round (empty list when the
    variant has no self-attention).  Row i of a matrix is how member i
    weighted the other members' opinions in that round.
    """
    if not model.voting.enabled:
        return []
    traces: List[np.ndarray] = []
    with no_grad(), inference_mode():
        bias = social_bias_matrix(batch.adjacency, member_mask=batch.mask)
        x = model.user_embedding(batch.members)
        for layer in model.voting.layers:
            x, weights = layer(x, bias)
            traces.append(weights.data.copy())
    return traces


def attention_heatmap_text(
    weights: np.ndarray,
    labels: Optional[Sequence[str]] = None,
) -> str:
    """Render an (L, L) attention matrix as an ASCII heat map.

    Each cell maps weight in [0, 1] to a character ramp, so the case
    study output stays readable in a terminal and in logs.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ValueError("weights must be a square (L, L) matrix")
    size = weights.shape[0]
    labels = list(labels) if labels is not None else [str(i) for i in range(size)]
    if len(labels) != size:
        raise ValueError("labels length must match matrix size")
    width = max(len(label) for label in labels)
    header = " " * (width + 1) + " ".join(f"{label:>{width}}" for label in labels)
    lines = [header]
    for row, label in enumerate(labels):
        cells = []
        for col in range(size):
            value = float(np.clip(weights[row, col], 0.0, 1.0))
            shade = _SHADES[min(int(value * len(_SHADES)), len(_SHADES) - 1)]
            cells.append(f"{shade * min(width, 3):>{width}}")
        lines.append(f"{label:>{width}} " + " ".join(cells))
    return "\n".join(lines)


def embedding_neighbours(
    table: np.ndarray, entity: int, k: int = 5
) -> List[Tuple[int, float]]:
    """The ``k`` nearest neighbours of one row by cosine similarity."""
    table = np.asarray(table, dtype=float)
    if not 0 <= entity < len(table):
        raise IndexError(f"entity {entity} out of range [0, {len(table)})")
    norms = np.linalg.norm(table, axis=1)
    norms = np.where(norms > 0, norms, 1.0)
    normalized = table / norms[:, None]
    similarity = normalized @ normalized[entity]
    similarity[entity] = -np.inf
    order = np.argsort(-similarity)
    # Never return the entity itself, even when k exceeds the table.
    order = order[order != entity][:k]
    return [(int(index), float(similarity[index])) for index in order]


def member_weight_profile(
    model: GroupSA,
    batch: GroupBatch,
    item_ids: np.ndarray,
) -> np.ndarray:
    """Gamma weights (Eq. 10) for each (group, item) pair in the batch,
    with padded member slots zeroed for clean downstream plotting."""
    gamma = model.member_attention(batch, item_ids)
    return gamma * batch.mask


def dominant_member(
    model: GroupSA, batch: GroupBatch, item_ids: np.ndarray
) -> np.ndarray:
    """The user id carrying the largest voting weight per (group, item)."""
    gamma = member_weight_profile(model, batch, item_ids)
    positions = gamma.argmax(axis=1)
    return batch.members[np.arange(len(batch)), positions]
