"""Two-stage joint training (the Training Method of Section II-E).

Stage 1 optimizes the user-item loss L_R on the abundant user-item and
user-user data, learning the shared user/item embeddings.  Stage 2
fine-tunes everything on the sparse group-item interactions with L_G.
Because the embeddings are *shared parameters of one model*, stage 2
starts from the stage-1 representations — exactly the paper's
"use the learned embeddings to initialize ... then fine-tune".

For the Group-G variant (``use_user_task=False``) stage 1 is skipped,
which is what Table V measures.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.config import GroupSAConfig
from repro.core.groupsa import GroupSA
from repro.data.loaders import GroupBatcher
from repro.data.splits import DataSplit
from repro.graphs.tfidf import tfidf_top_neighbours
from repro.persistence import PathLike
from repro.training.callbacks import History, ProgressCallback
from repro.training.checkpointing import CheckpointManager, SchedulePosition
from repro.training.trainer import GroupSATrainer, TrainingConfig


def build_model(
    split: DataSplit,
    config: GroupSAConfig,
    batcher: Optional[GroupBatcher] = None,
) -> tuple[GroupSA, GroupBatcher]:
    """Construct a GroupSA model wired to a split's training data."""
    train = split.train
    model = GroupSA(train.num_users, train.num_items, config)
    if config.uses_user_modeling:
        model.set_top_neighbours(tfidf_top_neighbours(train, config.top_h))
    if batcher is None:
        if config.closeness == "direct":
            batcher = GroupBatcher(train)
        else:
            from repro.graphs.closeness import CLOSENESS_REGISTRY, full_attention

            if config.closeness == "full":
                closeness = full_attention()
            else:
                closeness = CLOSENESS_REGISTRY[config.closeness](train)
            batcher = GroupBatcher(train, closeness=closeness)
    return model, batcher


def _restore_position(
    trainer: GroupSATrainer,
    model: GroupSA,
    manager: CheckpointManager,
    training: TrainingConfig,
) -> SchedulePosition:
    """Load the newest checkpoint into ``model``/``trainer`` and return
    the schedule position to continue from (the start, if none exist)."""
    loaded = manager.load_latest(model=model)
    if loaded is None:
        return SchedulePosition()
    __, state = loaded
    if state is None or state.trainer is None or state.schedule is None:
        raise ValueError(
            f"'{manager.latest_path()}' is a weight-only checkpoint; "
            "training cannot resume from it"
        )
    stored_training = state.schedule.get("training")
    if stored_training != dataclasses.asdict(training):
        raise ValueError(
            "resume requires the TrainingConfig the run was started with; "
            f"checkpoint has {stored_training!r}"
        )
    trainer.load_state_dict(state.trainer)
    return SchedulePosition(**state.schedule["position"])


def fit_groupsa(
    model: GroupSA,
    split: DataSplit,
    batcher: GroupBatcher,
    training: TrainingConfig = TrainingConfig(),
    callback: Optional[ProgressCallback] = None,
    *,
    checkpoint_dir: Optional[PathLike] = None,
    resume: bool = False,
    checkpoint_every: int = 1,
    keep_last: int = 3,
    grad_monitor: Optional[object] = None,
) -> History:
    """Run the two-stage training schedule and return the history.

    With ``checkpoint_dir`` set, a v2 checkpoint (weights + optimizer +
    RNG + schedule position) is written atomically every
    ``checkpoint_every`` epochs (plus at every stage boundary), with
    keep-last-``keep_last`` and best-by-group-loss retention.  With
    ``resume=True`` the newest checkpoint in that directory is loaded
    and the schedule continues where it stopped; a resumed run produces
    the same final weights, bit for bit, as an uninterrupted one.

    Observability hooks: a ``callback`` exposing a ``bind`` method (such
    as :class:`repro.obs.RunMetrics`) is bound to the trainer before the
    first epoch, and ``grad_monitor`` (a
    :class:`repro.obs.GradientHealthMonitor`) checks gradients after
    every backward pass.  Neither perturbs training.

    A ``callback`` exposing a ``should_stop`` method (such as
    :class:`repro.training.early_stopping.ValidationMonitor`) is polled
    once at the end of every resume unit — a user epoch in stage 1, a
    group epoch plus its interleaved user epoch in stage 2 — and a True
    ends the run there, with that unit's checkpoint written.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1")
    trainer = GroupSATrainer(model, split, batcher, training)
    trainer.grad_monitor = grad_monitor
    bind = getattr(callback, "bind", None)
    if callable(bind):
        bind(trainer)
    manager = (
        CheckpointManager(checkpoint_dir, keep_last=keep_last, mode="min")
        if checkpoint_dir is not None
        else None
    )
    if resume and manager is None:
        raise ValueError("resume=True requires checkpoint_dir")
    position = (
        _restore_position(trainer, model, manager, training)
        if resume
        else SchedulePosition()
    )

    def save() -> None:
        group_losses = trainer.history.losses("group")
        manager.save(
            model,
            trainer_state=trainer.state_dict(),
            schedule={
                "position": dataclasses.asdict(position),
                "training": dataclasses.asdict(training),
            },
            metric=group_losses[-1] if group_losses else None,
        )

    should_stop = getattr(callback, "should_stop", None)

    def end_unit(done: int, total: int) -> bool:
        """Poll the stop hook, then checkpoint if due or stopping; True ends the run."""
        stop = callable(should_stop) and bool(should_stop())
        if manager is not None and (done % checkpoint_every == 0 or done == total or stop):
            save()
        return stop

    uses_user_task = model.config.use_user_task
    if uses_user_task:
        while position.user_epochs_done < training.user_epochs:
            trainer.train_user_task(epochs=1, callback=callback)
            position.user_epochs_done += 1
            if end_unit(position.user_epochs_done, training.user_epochs):
                return trainer.history
        if training.init_group_tower_from_user and not position.tower_initialized:
            model.group_tower.load_state_dict(model.user_tower.state_dict())
            position.tower_initialized = True
            if manager is not None:
                save()
    interleave = training.interleave_user_every if uses_user_task else 0
    while position.group_epochs_done < training.group_epochs:
        trainer.train_group_task(epochs=1, callback=callback)
        # The interleaved user epoch belongs to the same resume unit as
        # its group epoch: the position only advances once both ran.
        if interleave and (position.group_epochs_done + 1) % interleave == 0:
            trainer.train_user_task(epochs=1, callback=callback)
        position.group_epochs_done += 1
        if end_unit(position.group_epochs_done, training.group_epochs):
            break
    return trainer.history


def train_groupsa(
    split: DataSplit,
    config: GroupSAConfig = GroupSAConfig(),
    training: TrainingConfig = TrainingConfig(),
    callback: Optional[ProgressCallback] = None,
    *,
    checkpoint_dir: Optional[PathLike] = None,
    resume: bool = False,
    checkpoint_every: int = 1,
    keep_last: int = 3,
    grad_monitor: Optional[object] = None,
) -> tuple[GroupSA, GroupBatcher, History]:
    """Convenience: build + fit in one call.

    Returns the trained model, the batcher used for group forwards
    (needed again at evaluation time) and the training history.  The
    checkpoint arguments are forwarded to :func:`fit_groupsa`; because
    :func:`build_model` is deterministic in ``config``, resuming with
    the same config restores the interrupted run exactly.
    """
    model, batcher = build_model(split, config)
    history = fit_groupsa(
        model,
        split,
        batcher,
        training,
        callback=callback,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        checkpoint_every=checkpoint_every,
        keep_last=keep_last,
        grad_monitor=grad_monitor,
    )
    return model, batcher, history
