"""Neural Collaborative Filtering [32] baseline.

Full NCF = GMF (element-wise product pathway) fused with an MLP over
the concatenated embeddings, a final linear scorer on both pathways.
For the group task a group is treated as a *virtual user* with its own
embedding and the member information is ignored — the paper uses NCF
exactly this way to show why individual CF cannot solve OGR (occasional
groups have almost no training interactions to learn embeddings from).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.autograd.tensor import Tensor, concatenate
from repro.baselines.base import NeuralRecommender, score_columns
from repro.data.dataset import GroupRecommendationDataset
from repro.data.loaders import GroupBatch
from repro.nn import Embedding, Linear, Module, ModuleList
from repro.utils import RngLike, ensure_rng


class NCFNetwork(Module):
    """One NCF tower over (entity, item) pairs.

    The entity space holds ``num_users`` users followed by
    ``num_groups`` virtual users, one per group.
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        num_groups: int,
        embedding_dim: int = 32,
        mlp_hidden: tuple[int, ...] = (32, 16),
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        generator = ensure_rng(rng)
        num_entities = num_users + num_groups
        self.group_offset = num_users
        # Separate embedding tables for the GMF and MLP pathways, as in
        # the published architecture.
        self.gmf_entity = Embedding(num_entities, embedding_dim, rng=generator)
        self.gmf_item = Embedding(num_items, embedding_dim, rng=generator)
        self.mlp_entity = Embedding(num_entities, embedding_dim, rng=generator)
        self.mlp_item = Embedding(num_items, embedding_dim, rng=generator)
        dims = [2 * embedding_dim, *mlp_hidden]
        self.mlp_layers = ModuleList(
            Linear(dims[i], dims[i + 1], rng=generator) for i in range(len(dims) - 1)
        )
        self.scorer = Linear(embedding_dim + dims[-1], 1, bias=False, rng=generator)

    def _scores(self, entities: np.ndarray, items: np.ndarray) -> Tensor:
        gmf_entity = self.gmf_entity(entities)
        mlp_entity = self.mlp_entity(entities)

        def item_half(column: np.ndarray) -> Tensor:
            gmf = gmf_entity * self.gmf_item(column)
            mlp = concatenate([mlp_entity, self.mlp_item(column)], axis=-1)
            for layer in self.mlp_layers:
                mlp = layer.forward_relu(mlp)
            return self.scorer(concatenate([gmf, mlp], axis=-1)).reshape(-1)

        return score_columns(items, gmf_entity.shape[0], item_half)

    def user_score_components(
        self, users: np.ndarray, items: np.ndarray
    ) -> Tuple[Tensor, None]:
        return self._scores(users, items), None

    def group_scores(self, batch: GroupBatch, items: np.ndarray) -> Tensor:
        """Scores of the groups' virtual users; the members are ignored."""
        return self._scores(batch.group_ids + self.group_offset, items)


class NCF(NeuralRecommender):
    """NCF with groups as virtual users, per the paper's setup.

    One tower over an entity space of ``num_users + num_groups``:
    group ids are offset past the user ids and both edge types train
    the same network ("we treat a group as a virtual user, and ignore
    the member information of the group").  Occasional groups have
    almost no training interactions, so their virtual-user embeddings
    stay uninformative — which is exactly the failure mode Table II
    demonstrates.
    """

    name = "NCF"

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

    def build_network(self, train: GroupRecommendationDataset) -> NCFNetwork:
        return NCFNetwork(
            train.num_users,
            train.num_items,
            train.num_groups,
            self.embedding_dim,
            rng=self.seed,
        )
