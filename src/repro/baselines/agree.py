"""AGREE [9]: attentive group recommendation.

AGREE represents a group as the attention-weighted sum of its member
embeddings (attention conditioned on the target item) *plus* a learned
group preference embedding, then scores (group representation, item)
pairs under the NCF framework.  User and group tasks are trained
jointly on shared user/item embeddings.

Differences from GroupSA that this baseline deliberately keeps:
no member-member interaction modeling (no self-attention), no social
information, no user modeling from auxiliary graphs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.baselines.base import NeuralRecommender, score_columns
from repro.core.prediction import PredictionTower
from repro.data.dataset import GroupRecommendationDataset
from repro.data.loaders import GroupBatch
from repro.nn import Embedding, Module, PairwiseAttention
from repro.utils import RngLike, ensure_rng


class AGREENetwork(Module):
    """The AGREE scoring network."""

    def __init__(
        self,
        num_users: int,
        num_items: int,
        num_groups: int,
        embedding_dim: int = 32,
        attention_hidden: int = 32,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        generator = ensure_rng(rng)
        self.user_embedding = Embedding(num_users, embedding_dim, rng=generator)
        self.item_embedding = Embedding(num_items, embedding_dim, rng=generator)
        #: The "group preference embedding" capturing group-level taste
        #: beyond its members.
        self.group_embedding = Embedding(num_groups, embedding_dim, rng=generator)
        self.member_attention = PairwiseAttention(
            query_features=embedding_dim,
            candidate_features=embedding_dim,
            hidden_features=attention_hidden,
            rng=generator,
        )
        self.tower = PredictionTower(embedding_dim, (32,), rng=generator)

    def group_scores(self, batch: GroupBatch, items: np.ndarray) -> Tensor:
        members = self.user_embedding(batch.members)
        group = self.group_embedding(batch.group_ids)

        def item_half(column: np.ndarray) -> Tensor:
            item = self.item_embedding(column)
            aggregated, __ = self.member_attention(
                query=item, candidates=members, mask=batch.mask
            )
            return self.tower(aggregated + group, item)

        return score_columns(items, len(batch), item_half)

    def user_score_components(
        self, users: np.ndarray, items: np.ndarray
    ) -> Tuple[Tensor, None]:
        user = self.user_embedding(users)
        return score_columns(
            items, user.shape[0], lambda column: self.tower(user, self.item_embedding(column))
        ), None


class AGREE(NeuralRecommender):
    """AGREE trained jointly on both tasks with BPR."""

    name = "AGREE"

    def __init__(
        self,
        embedding_dim: int = 32,
        epochs: int = 30,
        batch_size: int = 256,
        learning_rate: float = 0.01,
        weight_decay: float = 1e-5,
        seed: int = 0,
    ) -> None:
        self.embedding_dim = embedding_dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.seed = seed

    def build_network(self, train: GroupRecommendationDataset) -> AGREENetwork:
        return AGREENetwork(
            train.num_users,
            train.num_items,
            train.num_groups,
            self.embedding_dim,
            rng=self.seed,
        )
