"""Common interface for all compared recommenders (Section III-D).

Every model — GroupSA included, via an adapter — exposes two scoring
surfaces after :meth:`fit`:

- ``score_user_items(users, items)`` for the user-item task,
- ``score_group_items(groups, items)`` for the group-item task,

both over aligned id arrays, returning plain numpy scores.  The
evaluation protocol only ever touches this interface, so models and
experiments stay decoupled.

The neural baselines share one more layer, :class:`NeuralRecommender`:
their networks implement the trainer's ``BPRModel`` protocol, so they
train through :class:`~repro.training.trainer.GroupSATrainer` and score
through the same two network methods.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional, Tuple

import numpy as np

from repro.autograd import inference_mode, no_grad
from repro.autograd.tensor import Tensor
from repro.core.groupsa import _candidate_columns, _join_columns
from repro.data.dataset import GroupRecommendationDataset
from repro.data.loaders import GroupBatcher
from repro.data.splits import DataSplit
from repro.training.trainer import BPRModel, GroupSATrainer, TrainingConfig


class Recommender(abc.ABC):
    """Abstract recommender for the OGR benchmark suite."""

    #: Display name used in result tables.
    name: str = "recommender"

    @abc.abstractmethod
    def fit(self, split: DataSplit) -> "Recommender":
        """Train on ``split.train``; returns self for chaining."""

    def score_user_items(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Score aligned (user, item) pairs; higher = more relevant."""
        raise NotImplementedError(f"{self.name} does not support the user-item task")

    def score_group_items(self, groups: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Score aligned (group, item) pairs; higher = more relevant."""
        raise NotImplementedError(f"{self.name} does not support the group-item task")

    @property
    def supports_user_task(self) -> bool:
        return type(self).score_user_items is not Recommender.score_user_items

    @property
    def supports_group_task(self) -> bool:
        return type(self).score_group_items is not Recommender.score_group_items


class NeuralRecommender(Recommender):
    """A baseline whose network trains through the shared BPR loop.

    ``fit`` runs ``epochs`` rounds of one user epoch followed, when
    ``trains_group_task``, by one group epoch; scoring runs the network
    under ``no_grad()`` and ``inference_mode()``, which leave the
    module's ``training`` flag alone.
    """

    #: BPR-MF scores groups from its members and never trains on them.
    trains_group_task: bool = True
    epochs: int
    batch_size: int
    learning_rate: float
    weight_decay: float
    seed: int
    _network: Optional[BPRModel] = None
    _batcher: Optional[GroupBatcher] = None

    @abc.abstractmethod
    def build_network(self, train: GroupRecommendationDataset) -> BPRModel:
        """A freshly initialized network over ``train``'s id spaces."""

    def fit(self, split: DataSplit) -> "NeuralRecommender":
        network = self.build_network(split.train)
        batcher = GroupBatcher(split.train)
        trainer = GroupSATrainer(
            network,
            split,
            batcher,
            TrainingConfig(
                batch_size=self.batch_size,
                learning_rate=self.learning_rate,
                weight_decay=self.weight_decay,
                seed=self.seed,
            ),
        )
        for __ in range(self.epochs):
            trainer.train_user_task(epochs=1)
            if self.trains_group_task:
                trainer.train_group_task(epochs=1)
        self._network, self._batcher = network, batcher
        return self

    def _require(self) -> Tuple[BPRModel, GroupBatcher]:
        if self._network is None or self._batcher is None:
            raise RuntimeError(f"{type(self).__name__}.fit() must be called before scoring")
        return self._network, self._batcher

    def score_user_items(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        network, __ = self._require()
        with no_grad(), inference_mode():
            return network.user_score_components(users, items)[0].data

    def score_group_items(self, groups: np.ndarray, items: np.ndarray) -> np.ndarray:
        network, batcher = self._require()
        with no_grad(), inference_mode():
            return network.group_scores(batcher.batch(groups), items).data


def score_columns(
    item_ids: np.ndarray, rows: int, item_half: Callable[[np.ndarray], Tensor]
) -> Tensor:
    """``item_half`` over each column of (B,) or (B, C) candidate ids,
    joined back into their shape; the entity half ran once, before."""
    item_ids = np.asarray(item_ids, dtype=np.int64)
    columns = _candidate_columns(item_ids, rows)
    return _join_columns([item_half(column) for column in columns], item_ids.ndim)
