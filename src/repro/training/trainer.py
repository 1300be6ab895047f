"""Epoch-level BPR trainers for the user-item and group-item tasks."""

from __future__ import annotations

import copy
import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Protocol, Tuple

import numpy as np

from repro.autograd.context import fused_ops as fused_ops_context
from repro.autograd.context import sparse_grads as sparse_grads_context
from repro.autograd.tensor import Tensor
from repro.data.loaders import GroupBatch, GroupBatcher
from repro.data.sampling import NegativeSampler, bpr_triple_batches
from repro.data.splits import DataSplit
from repro.nn.dropout import Dropout
from repro.nn.module import Parameter
from repro.optim import Adam, SGD, Optimizer, clip_grad_norm
from repro.training.bpr import bpr_accuracy, bpr_loss
from repro.training.callbacks import EpochLog, History, ProgressCallback
from repro.utils import ensure_rng


class BPRModel(Protocol):
    """What one training step needs of a model.

    ``items`` is (B, C): the step passes C = 2 columns, the positive and
    the sampled negative, and a model runs its entity half once per row
    for all of them.  GroupSA and the four neural baselines implement
    it; all five are ``nn.Module`` trees, which the trainer also walks
    for dropout generators and the gradient monitor.
    """

    def user_score_components(
        self, users: np.ndarray, items: np.ndarray
    ) -> Tuple[Tensor, Optional[Tensor]]:
        """Scores of ``items.shape``, plus an auxiliary score or None."""

    def group_scores(self, batch: GroupBatch, items: np.ndarray) -> Tensor:
        """Scores of ``items.shape`` for the batch's groups."""

    def parameters(self) -> Iterator[Parameter]:
        """The weights the optimizer updates."""


@dataclass(frozen=True)
class TrainingConfig:
    """Optimization hyper-parameters (Section III-E).

    ``negatives_per_positive`` is the paper's ``N`` (set to 1 for
    training efficiency; Table VIII sweeps it).
    """

    user_epochs: int = 25
    group_epochs: int = 30
    batch_size: int = 256
    negatives_per_positive: int = 1
    learning_rate: float = 0.01
    weight_decay: float = 1e-5
    optimizer: str = "adam"
    #: Global gradient-norm clip; 0 disables clipping.
    grad_clip: float = 0.0
    seed: int = 42
    #: Initialize the group tower from the stage-1 user tower before
    #: fine-tuning.  The paper transfers the learned *embeddings*
    #: between stages; transferring the scorer too markedly improves
    #: generalization at our reduced data scale (the group tower sees
    #: two orders of magnitude fewer interactions than the user tower).
    init_group_tower_from_user: bool = True
    #: During stage 2, replay one user-task epoch every k group epochs
    #: so the shared embeddings stay anchored to the dense user-item
    #: signal (the "simultaneous" joint training of the abstract).
    #: 0 disables interleaving.
    interleave_user_every: int = 2
    #: Emit row-sparse gradients for embedding gathers and take the
    #: optimizer's lazy per-row fast path.  Produces weights
    #: bit-identical to dense training at a per-step cost that scales
    #: with the batch instead of the embedding tables; disable to force
    #: the reference dense path.
    sparse_grads: bool = True
    #: Run the attention blocks and MLP hidden layers through the fused
    #: autograd ops (one graph node + one backward closure per block).
    #: In float64 the fused graphs are bit-identical to the op-by-op
    #: reference; disable to force the unfused path.
    fused_ops: bool = True

    def build_optimizer(self, model: BPRModel) -> Optimizer:
        if self.optimizer == "adam":
            return Adam(
                model.parameters(),
                lr=self.learning_rate,
                weight_decay=self.weight_decay,
            )
        if self.optimizer == "sgd":
            return SGD(
                model.parameters(),
                lr=self.learning_rate,
                weight_decay=self.weight_decay,
            )
        raise ValueError(f"unknown optimizer '{self.optimizer}'")


class GroupSATrainer:
    """Runs the paper's two tasks over one model — the one BPR loop that
    GroupSA and every neural baseline train through.

    The trainer owns the negative samplers (built from the *training*
    interactions only) and the optimizer; stage orchestration lives in
    :mod:`repro.training.two_stage`.
    """

    def __init__(
        self,
        model: BPRModel,
        split: DataSplit,
        batcher: GroupBatcher,
        config: TrainingConfig = TrainingConfig(),
    ) -> None:
        self.model = model
        self.split = split
        self.batcher = batcher
        self.config = config
        self._rng = ensure_rng(config.seed)
        train = split.train
        self.user_sampler = NegativeSampler(
            train.user_items(), train.num_items, rng=self._rng
        )
        self.group_sampler = NegativeSampler(
            train.group_items(), train.num_items, rng=self._rng
        )
        self.optimizer = config.build_optimizer(model)
        self.history = History()
        self._epoch_counter = {"user": 0, "group": 0}
        #: Optional :class:`repro.obs.GradientHealthMonitor`; when set,
        #: every step's gradients are checked right after ``backward``.
        self.grad_monitor: Optional[Any] = None

    # ------------------------------------------------------------------
    # Serialization (checkpoint/resume support)
    # ------------------------------------------------------------------

    def _dropout_modules(self) -> list:
        return [m for m in self.model.modules() if isinstance(m, Dropout)]

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot everything (besides the model weights) needed to
        resume training bit-exactly: optimizer state, the trainer's RNG
        bit-generator state, the dropout generators inside the model,
        epoch counters and the recorded history.

        The negative samplers and the batch shuffler draw from
        ``self._rng``, so one bit-generator state covers all sampling
        randomness; dropout layers hold their own generators and are
        captured per module in traversal order.
        """
        return {
            "optimizer": self.optimizer.state_dict(),
            "rng": copy.deepcopy(self._rng.bit_generator.state),
            "model_rng": [
                copy.deepcopy(module._rng.bit_generator.state)
                for module in self._dropout_modules()
            ],
            "epoch_counters": dict(self._epoch_counter),
            "history": [dataclasses.asdict(log) for log in self.history.epochs],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self.optimizer.load_state_dict(state["optimizer"])
        self._rng.bit_generator.state = state["rng"]
        dropouts = self._dropout_modules()
        model_rng = state.get("model_rng", [])
        if len(model_rng) != len(dropouts):
            raise ValueError(
                f"checkpoint captured {len(model_rng)} dropout generators "
                f"but the model has {len(dropouts)}"
            )
        for module, rng_state in zip(dropouts, model_rng):
            module._rng.bit_generator.state = rng_state
        self._epoch_counter = {
            task: int(count) for task, count in state["epoch_counters"].items()
        }
        self.history = History(epochs=[EpochLog(**log) for log in state["history"]])

    # ------------------------------------------------------------------

    def train_user_task(
        self, epochs: Optional[int] = None, callback: Optional[ProgressCallback] = None
    ) -> History:
        """Optimize L_R (Eq. 24) for ``epochs`` passes over R^U."""
        epochs = self.config.user_epochs if epochs is None else epochs
        edges = self.split.train.user_item
        for __ in range(epochs):
            log = self._run_epoch("user", edges, self._user_step)
            if callback is not None:
                callback(log)
        return self.history

    def train_group_task(
        self, epochs: Optional[int] = None, callback: Optional[ProgressCallback] = None
    ) -> History:
        """Optimize L_G (Eq. 21) for ``epochs`` passes over R^G."""
        epochs = self.config.group_epochs if epochs is None else epochs
        edges = self.split.train.group_item
        for __ in range(epochs):
            log = self._run_epoch("group", edges, self._group_step)
            if callback is not None:
                callback(log)
        return self.history

    # ------------------------------------------------------------------

    def _run_epoch(self, task: str, edges: np.ndarray, step) -> EpochLog:
        if len(edges) == 0:
            raise ValueError(
                f"no training edges for task '{task}'; refusing to log a "
                "zero-loss epoch over an empty dataset"
            )
        sampler = self.user_sampler if task == "user" else self.group_sampler
        self._epoch_counter[task] += 1
        epoch = self._epoch_counter[task]
        started = time.perf_counter()
        total_loss = 0.0
        total_accuracy = 0.0
        batches = 0
        with sparse_grads_context(self.config.sparse_grads), fused_ops_context(
            self.config.fused_ops
        ):
            for entities, positives, negatives in bpr_triple_batches(
                edges,
                sampler,
                batch_size=self.config.batch_size,
                negatives_per_positive=self.config.negatives_per_positive,
                rng=self._rng,
            ):
                loss, accuracy = step(entities, positives, negatives)
                total_loss += loss
                total_accuracy += accuracy
                batches += 1
        # Flush lazily deferred row updates so everything downstream of
        # an epoch boundary (evaluation, checkpoints, update-ratio
        # metrics) sees dense-current weights.  Included in the epoch
        # duration: it is real training cost.
        self.optimizer.sync()
        log = EpochLog(
            task=task,
            epoch=epoch,
            loss=total_loss / batches,
            pairwise_accuracy=total_accuracy / batches,
            duration_s=time.perf_counter() - started,
        )
        self.history.record(log)
        return log

    def _user_step(
        self, users: np.ndarray, positives: np.ndarray, negatives: np.ndarray
    ) -> tuple[float, float]:
        self.optimizer.zero_grad()
        # Both candidates of a triple in one forward: emb^U is gathered
        # and h_j built once per row, under one dropout draw.
        scores, embedding_scores = self.model.user_score_components(
            users, np.stack([positives, negatives], axis=1)
        )
        positive_scores, negative_scores = scores[:, 0], scores[:, 1]
        loss = bpr_loss(positive_scores, negative_scores)
        if embedding_scores is not None:
            # Auxiliary ranking loss on the raw embedding path so the
            # shared embeddings (consumed by the group voting network)
            # are trained at full strength regardless of w^u.
            loss = loss + bpr_loss(embedding_scores[:, 0], embedding_scores[:, 1])
        loss.backward()
        self._check_gradients("user")
        self._clip()
        self.optimizer.step()
        return loss.item(), bpr_accuracy(positive_scores, negative_scores)

    def _group_step(
        self, groups: np.ndarray, positives: np.ndarray, negatives: np.ndarray
    ) -> tuple[float, float]:
        self.optimizer.zero_grad()
        batch = self.batcher.batch(groups)
        # One run of the voting rounds per triple, two candidates.
        scores = self.model.group_scores(
            batch, np.stack([positives, negatives], axis=1)
        )
        positive_scores, negative_scores = scores[:, 0], scores[:, 1]
        loss = bpr_loss(positive_scores, negative_scores)
        loss.backward()
        self._check_gradients("group")
        self._clip()
        self.optimizer.step()
        return loss.item(), bpr_accuracy(positive_scores, negative_scores)

    def _check_gradients(self, task: str) -> None:
        if self.grad_monitor is not None:
            self.grad_monitor.check(
                self.model.named_parameters(), context=f"{task} step"
            )

    def _clip(self) -> None:
        if self.config.grad_clip > 0:
            clip_grad_norm(self.optimizer.parameters, self.config.grad_clip)
