"""Ranking-score prediction towers (Eqs. 20 and 22).

Both towers concatenate two d-dimensional representations and feed them
through an MLP ending in a bias-free linear scorer ``w^T c``.
The user tower is *shared* between the embedding-based score
``r^{R_1}(emb^U, emb^V)`` and the latent-factor score
``r^{R_2}(h, x^V)`` — the paper feeds both pairs "into the same MLP
network".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autograd.tensor import Tensor, concatenate
from repro.nn import Dropout, Linear, Module, ModuleList
from repro.utils import RngLike, ensure_rng


class PredictionTower(Module):
    """MLP scorer over the concatenation of two representations.

    In addition to the paper's plain concatenation we feed the
    element-wise product of the two representations as an extra input
    block (the GMF pathway of the NCF framework the paper builds on).
    A concat-only MLP must *learn* multiplicative interactions from
    scratch, which converges far too slowly on CPU-scale budgets; the
    product feature restores the inner-product inductive bias without
    changing the scorer's expressiveness.
    """

    def __init__(
        self,
        embedding_dim: int,
        hidden: Sequence[int],
        dropout: float = 0.0,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        generator = ensure_rng(rng)
        dims = [3 * embedding_dim, *hidden]
        self.hidden_layers = ModuleList(
            Linear(dims[i], dims[i + 1], rng=generator) for i in range(len(dims) - 1)
        )
        self.scorer = Linear(dims[-1], 1, bias=False, rng=generator)
        self.dropout = Dropout(dropout, rng=generator) if dropout > 0 else None

    def forward(self, left: Tensor, right: Tensor) -> Tensor:
        """Score each row pair; returns shape (B,)."""
        x = concatenate([left, right, left * right], axis=-1)
        for layer in self.hidden_layers:
            x = layer.forward_relu(x)
            if self.dropout is not None:
                x = self.dropout(x)
        return self.scorer(x).reshape(-1)

    def score_items(self, left: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Inference twin of :meth:`forward` on plain arrays (no dropout).

        ``items`` is (n, d); ``left`` is (n, d) rows aligned with it, or
        one (d,) entity scored against all n — the first layer then
        splits at the concatenation, ``W [l ⊕ i ⊕ l*i] = W_l l + (W_r +
        diag(l) W_p) i``, and the entity's term is computed once.
        """
        layers = [*self.hidden_layers, self.scorer]
        dim = items.shape[1]
        weight = layers[0].weight.data
        if left.ndim == 1:
            x = items @ (weight[dim : 2 * dim] + left[:, None] * weight[2 * dim :])
            x += left @ weight[:dim]
        else:
            x = np.concatenate([left, items, left * items], axis=1) @ weight
        for layer, following in zip(layers, layers[1:]):
            x += layer.bias.data
            np.maximum(x, 0.0, out=x)
            x = x @ following.weight.data
        return x.reshape(-1)
