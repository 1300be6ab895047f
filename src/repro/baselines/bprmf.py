"""BPR-MF [31]: matrix factorization with the BPR objective.

The pure latent-factor reference point: dot-product scores with user
and item embeddings plus an item bias, trained with the same pair-wise
loss every neural model here uses.  Groups are scored by averaging
member scores (late aggregation).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.baselines.base import NeuralRecommender, score_columns
from repro.data.dataset import GroupRecommendationDataset
from repro.data.loaders import GroupBatch
from repro.nn import Embedding, Module
from repro.nn.module import Parameter
from repro.utils import RngLike, ensure_rng


class MFNetwork(Module):
    """Dot-product factor model with item biases."""

    def __init__(
        self, num_users: int, num_items: int, dim: int = 32, rng: RngLike = None
    ) -> None:
        super().__init__()
        generator = ensure_rng(rng)
        self.user_factors = Embedding(num_users, dim, weight_init="gaussian", rng=generator)
        self.item_factors = Embedding(num_items, dim, weight_init="gaussian", rng=generator)
        self.item_bias = Parameter(np.zeros(num_items))

    def user_score_components(
        self, users: np.ndarray, items: np.ndarray
    ) -> Tuple[Tensor, None]:
        user = self.user_factors(users)
        return score_columns(
            items,
            user.shape[0],
            lambda column: (user * self.item_factors(column)).sum(axis=-1)
            + self.item_bias[column],
        ), None

    def group_scores(self, batch: GroupBatch, items: np.ndarray) -> Tensor:
        """The mean member score over the batch's padded (B, L) members."""
        members = self.user_factors(batch.members)
        rows = len(batch)
        weights = Tensor(batch.mask / batch.mask.sum(axis=1, keepdims=True))

        def item_half(column: np.ndarray) -> Tensor:
            item = self.item_factors(column).reshape(rows, 1, -1)
            dots = (members * item).sum(axis=-1)
            return (dots * weights).sum(axis=1) + self.item_bias[column]

        return score_columns(items, rows, item_half)


class BPRMF(NeuralRecommender):
    """BPR matrix factorization baseline."""

    name = "BPR-MF"
    trains_group_task = False

    def __init__(
        self,
        dim: int = 32,
        epochs: int = 40,
        batch_size: int = 256,
        learning_rate: float = 0.02,
        weight_decay: float = 1e-5,
        seed: int = 0,
    ) -> None:
        self.dim = dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.seed = seed

    def build_network(self, train: GroupRecommendationDataset) -> MFNetwork:
        return MFNetwork(train.num_users, train.num_items, self.dim, rng=self.seed)
