"""SIGR [6]: social influence-based group representation learning.

The published system combines (a) a vanilla attention mechanism whose
member weights encode each user's *social influence*, (b) a bipartite
user-item graph embedding, and (c) global + local social-network
structure features.  We implement the documented core:

- user embeddings are enhanced by one round of bipartite graph
  propagation (the graph-embedding component);
- each member's attention logit is the sum of an item-conditioned
  attention score and a learned transform of the user's global social
  centrality (PageRank) — the social-influence component;
- group representation = influence-weighted member sum + group bias
  embedding; scoring and joint training follow the NCF recipe.

What is intentionally missing relative to GroupSA — and what the
paper's comparison isolates — is any modeling of member *interactions*
(no self-attention among members).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.baselines.base import NeuralRecommender, score_columns
from repro.core.prediction import PredictionTower
from repro.data.dataset import GroupRecommendationDataset
from repro.data.loaders import GroupBatch
from repro.graphs.bipartite import interaction_matrix, normalized_propagation
from repro.graphs.closeness import _pagerank
from repro.graphs.social import social_adjacency
from repro.nn import Embedding, Linear, Module, PairwiseAttention
from repro.nn.attention import MASK_VALUE
from repro.utils import RngLike, ensure_rng


class SIGRNetwork(Module):
    """The SIGR scoring network."""

    def __init__(
        self,
        num_users: int,
        num_items: int,
        num_groups: int,
        user_to_item,
        centrality: np.ndarray,
        embedding_dim: int = 32,
        attention_hidden: int = 32,
        propagation_mix: float = 0.3,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        generator = ensure_rng(rng)
        self.user_embedding = Embedding(num_users, embedding_dim, rng=generator)
        self.item_embedding = Embedding(num_items, embedding_dim, rng=generator)
        self.group_embedding = Embedding(num_groups, embedding_dim, rng=generator)
        self.member_attention = PairwiseAttention(
            query_features=embedding_dim,
            candidate_features=embedding_dim,
            hidden_features=attention_hidden,
            rng=generator,
        )
        #: Learned transform of global centrality into influence logits.
        self.influence = Linear(1, 1, rng=generator)
        self.tower = PredictionTower(embedding_dim, (32,), rng=generator)
        self._user_to_item = user_to_item  # row-normalised sparse (m, n)
        # Standardize centrality so the influence transform starts tame.
        centered = centrality - centrality.mean()
        scale = centered.std() or 1.0
        self._centrality = (centered / scale).astype(np.float64)
        self.propagation_mix = propagation_mix

    def enhanced_user_embeddings(self, user_ids: np.ndarray) -> Tensor:
        """Bipartite graph embedding: mix own embedding with the mean
        embedding of interacted items (one propagation round)."""
        user_ids = np.asarray(user_ids, dtype=np.int64)
        own = self.user_embedding(user_ids)
        rows = self._user_to_item[user_ids.ravel()].toarray()
        propagated = Tensor(rows) @ self.item_embedding.weight
        if user_ids.ndim > 1:
            propagated = propagated.reshape(*user_ids.shape, -1)
        return own * (1.0 - self.propagation_mix) + propagated * self.propagation_mix

    def group_scores(self, batch: GroupBatch, items: np.ndarray) -> Tensor:
        members = self.enhanced_user_embeddings(batch.members)
        rows, length = batch.members.shape
        # Each member's attention logit adds a learned transform of its
        # global centrality (the social-influence component).
        centrality = Tensor(self._centrality[batch.members][..., None])
        influence = self.influence(centrality).reshape(rows, length)
        bias = Tensor(np.where(batch.mask, 0.0, MASK_VALUE))
        group = self.group_embedding(batch.group_ids)

        def item_half(column: np.ndarray) -> Tensor:
            item = self.item_embedding(column)
            logits = self.member_attention.logits(item, members) + influence
            weights = (logits + bias).softmax(axis=-1)
            aggregated = (weights.reshape(rows, length, 1) * members).sum(axis=1)
            return self.tower(aggregated + group, item)

        return score_columns(items, rows, item_half)

    def user_score_components(
        self, users: np.ndarray, items: np.ndarray
    ) -> Tuple[Tensor, None]:
        user = self.enhanced_user_embeddings(users)
        return score_columns(
            items, user.shape[0], lambda column: self.tower(user, self.item_embedding(column))
        ), None


class SIGR(NeuralRecommender):
    """SIGR trained jointly on both tasks with BPR."""

    name = "SIGR"

    def __init__(
        self,
        embedding_dim: int = 32,
        epochs: int = 30,
        batch_size: int = 256,
        learning_rate: float = 0.01,
        weight_decay: float = 1e-5,
        propagation_mix: float = 0.3,
        seed: int = 0,
    ) -> None:
        self.embedding_dim = embedding_dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.propagation_mix = propagation_mix
        self.seed = seed

    def build_network(self, train: GroupRecommendationDataset) -> SIGRNetwork:
        user_to_item, __ = normalized_propagation(interaction_matrix(train))
        return SIGRNetwork(
            train.num_users,
            train.num_items,
            train.num_groups,
            user_to_item,
            _pagerank(social_adjacency(train)),
            self.embedding_dim,
            propagation_mix=self.propagation_mix,
            rng=self.seed,
        )
