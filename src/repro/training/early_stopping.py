"""Validation-monitored fine-tuning with early stopping.

The paper selects parameters on the 10% validation split; this module
adds the operational counterpart: watch a validation metric during the
stage-2 fine-tuning, keep the best weights, and stop once the metric
has not improved for ``patience`` checks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.groupsa import GroupSA
from repro.data.loaders import GroupBatcher
from repro.data.splits import DataSplit
from repro.evaluation.protocol import EvaluationTask, evaluate
from repro.training.callbacks import EpochLog, History
from repro.training.trainer import TrainingConfig
from repro.training.two_stage import fit_groupsa
from repro.tuning import validation_task


@dataclass
class ValidationMonitor:
    """Track a validation metric; remember and restore the best state.

    Also a :func:`~repro.training.two_stage.fit_groupsa` callback: it
    counts the group epochs it is shown, and its :meth:`should_stop`,
    polled once at the end of every resume unit, runs :meth:`check`
    after every ``check_every``-th group epoch.
    """

    model: GroupSA
    batcher: GroupBatcher
    task: EvaluationTask
    metric: str = "HR@10"
    patience: int = 3
    check_every: int = 1
    best_value: float = -np.inf
    checks_since_best: int = 0
    history: List[float] = field(default_factory=list)
    _best_state: Optional[Dict[str, np.ndarray]] = None
    _group_epochs: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ValueError(f"patience must be at least 1, got {self.patience}")
        if self.check_every < 1:
            raise ValueError(f"check_every must be at least 1, got {self.check_every}")

    def __call__(self, log: EpochLog) -> None:
        if log.task == "group":
            self._group_epochs += 1

    def should_stop(self) -> bool:
        """Check when a ``check_every``-th group epoch just ended; True
        once the metric has not improved for ``patience`` checks."""
        if self._group_epochs == 0 or self._group_epochs % self.check_every:
            return False
        return self.check()

    def check(self) -> bool:
        """Evaluate once; return True when training should stop."""
        result = evaluate(
            lambda groups, items: self.model.score_group_items(
                self.batcher.batch(groups), items
            ),
            self.task,
        )
        value = result.metrics[self.metric]
        self.history.append(value)
        if value > self.best_value:
            self.best_value = value
            self.checks_since_best = 0
            self._best_state = self.model.state_dict()
        else:
            self.checks_since_best += 1
        return self.checks_since_best >= self.patience

    def restore_best(self) -> None:
        """Load the best-seen weights back into the model."""
        if self._best_state is not None:
            self.model.load_state_dict(self._best_state)


def fit_with_early_stopping(
    model: GroupSA,
    split: DataSplit,
    batcher: GroupBatcher,
    training: TrainingConfig = TrainingConfig(),
    metric: str = "HR@10",
    patience: int = 3,
    check_every: int = 5,
    max_group_epochs: Optional[int] = None,
    num_candidates: int = 100,
) -> tuple[History, ValidationMonitor]:
    """Two-stage training with validation-based early stopping.

    :func:`fit_groupsa` runs the schedule with a
    :class:`ValidationMonitor` as its callback: stage 2 checks the
    validation group metric every ``check_every`` epochs, for at most
    ``max_group_epochs`` (default ``10 * group_epochs``), and stops when
    it plateaus; the best weights are then restored.
    """
    if len(split.validation.group_item) == 0:
        raise ValueError(
            "early stopping needs validation group interactions; use a "
            "non-zero validation_fraction when splitting"
        )
    if max_group_epochs is not None and max_group_epochs < 1:
        raise ValueError(f"max_group_epochs must be at least 1, got {max_group_epochs}")
    monitor = ValidationMonitor(
        model=model,
        batcher=batcher,
        task=validation_task(split, num_candidates=num_candidates),
        metric=metric,
        patience=patience,
        check_every=check_every,
    )
    limit = 10 * training.group_epochs if max_group_epochs is None else max_group_epochs
    history = fit_groupsa(
        model,
        split,
        batcher,
        dataclasses.replace(training, group_epochs=limit),
        callback=monitor,
    )
    monitor.restore_best()
    return history, monitor
