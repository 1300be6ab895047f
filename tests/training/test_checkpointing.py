"""CheckpointManager retention policies and trainer state round-trips."""

import numpy as np
import pytest

from repro.persistence import checkpoint_metadata
from repro.training import CheckpointManager, GroupSATrainer, TrainingConfig
from repro.training.checkpointing import SchedulePosition
from repro.training.two_stage import build_model, fit_groupsa
from tests.conftest import TINY_MODEL_CONFIG
from tests.training.test_fault_tolerance import (
    TRAINING,
    Killed,
    _assert_bit_exact,
    _crash_after,
    _resume_and_finish,
    _uninterrupted_weights,
)


@pytest.fixture
def tiny_model(tiny_split):
    return build_model(tiny_split, TINY_MODEL_CONFIG)


class TestRetention:
    def test_keeps_last_n(self, tiny_model, tmp_path):
        model, __ = tiny_model
        manager = CheckpointManager(tmp_path, keep_last=3)
        for __i in range(6):
            manager.save(model)
        names = [path.name for path in manager.checkpoints()]
        assert names == ["ckpt-000004.npz", "ckpt-000005.npz", "ckpt-000006.npz"]
        assert manager.latest_path().name == "ckpt-000006.npz"

    def test_best_by_metric_survives_pruning(self, tiny_model, tmp_path):
        model, __ = tiny_model
        manager = CheckpointManager(tmp_path, keep_last=2, mode="min")
        for metric in (0.9, 0.2, 0.5, 0.7, 0.8):
            manager.save(model, metric=metric)
        # The best (0.2) checkpoint was pruned from the numbered set but
        # survives as best.npz with its metric recorded.
        assert manager.best_value == 0.2
        assert checkpoint_metadata(manager.best_path())["metric"] == 0.2

    def test_mode_max(self, tiny_model, tmp_path):
        model, __ = tiny_model
        manager = CheckpointManager(tmp_path, mode="max")
        for metric in (0.1, 0.9, 0.4):
            manager.save(model, metric=metric)
        assert manager.best_value == 0.9

    def test_restart_continues_numbering_and_best(self, tiny_model, tmp_path):
        model, __ = tiny_model
        manager = CheckpointManager(tmp_path, keep_last=2)
        manager.save(model, metric=0.5)
        manager.save(model, metric=0.8)
        reopened = CheckpointManager(tmp_path, keep_last=2)
        assert reopened.best_value == 0.5
        path = reopened.save(model, metric=0.9)
        assert path.name == "ckpt-000003.npz"
        assert reopened.best_value == 0.5

    def test_invalid_arguments(self, tmp_path):
        with pytest.raises(ValueError, match="keep_last"):
            CheckpointManager(tmp_path, keep_last=0)
        with pytest.raises(ValueError, match="mode"):
            CheckpointManager(tmp_path, mode="median")

    def test_load_latest_empty_directory(self, tiny_model, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert manager.load_latest() is None
        assert manager.latest_path() is None
        assert manager.best_path() is None


class TestUnreadableBestMirror:
    """``best.npz`` is a mirror: a power loss may leave it empty or cut
    short while every numbered checkpoint is intact."""

    @pytest.mark.parametrize("keep", [0, 0.5], ids=["zero-length", "truncated"])
    def test_warned_treated_as_absent_and_resume_proceeds(
        self, tiny_split, tmp_path, keep
    ):
        reference = _uninterrupted_weights(tiny_split)
        model, batcher = build_model(tiny_split, TINY_MODEL_CONFIG)
        with pytest.raises(Killed):
            fit_groupsa(
                model, tiny_split, batcher, TRAINING,
                callback=_crash_after("group", 3),
                checkpoint_dir=tmp_path,
            )
        best = tmp_path / "best.npz"
        intact = best.read_bytes()
        best.write_bytes(intact[: int(len(intact) * keep)])

        with pytest.warns(RuntimeWarning, match="best.npz"):
            manager = CheckpointManager(tmp_path)
        assert manager.best_value is None
        assert manager.latest_path() is not None

        with pytest.warns(RuntimeWarning, match="best.npz"):
            resumed, __ = _resume_and_finish(tiny_split, tmp_path)
        _assert_bit_exact(resumed.state_dict(), reference)
        # The next improving save rewrote the mirror.
        assert CheckpointManager(tmp_path).best_value is not None


class TestTrainerStateRoundtrip:
    def test_full_trainer_state_roundtrip(self, tiny_split, tmp_path):
        training = TrainingConfig(user_epochs=1, group_epochs=1, batch_size=64, seed=3)
        model, batcher = build_model(tiny_split, TINY_MODEL_CONFIG)
        trainer = GroupSATrainer(model, tiny_split, batcher, training)
        trainer.train_user_task(epochs=1)
        trainer.train_group_task(epochs=1)

        manager = CheckpointManager(tmp_path)
        schedule = {"position": {"user_epochs_done": 1}}
        manager.save(model, trainer_state=trainer.state_dict(), schedule=schedule)

        restored_model, restored_batcher = build_model(tiny_split, TINY_MODEL_CONFIG)
        loaded, state = manager.load_latest(model=restored_model)
        assert loaded is restored_model
        restored = GroupSATrainer(restored_model, tiny_split, restored_batcher, training)
        restored.load_state_dict(state.trainer)

        assert restored._epoch_counter == trainer._epoch_counter
        assert restored._rng.bit_generator.state == trainer._rng.bit_generator.state
        assert restored.optimizer._step_count == trainer.optimizer._step_count
        assert [log.loss for log in restored.history.epochs] == [
            log.loss for log in trainer.history.epochs
        ]
        assert state.schedule == schedule
        # The restored trainer samples the exact same negatives next.
        np.testing.assert_array_equal(
            restored.user_sampler.sample(0, 8), trainer.user_sampler.sample(0, 8)
        )

    def test_schedule_position_defaults(self):
        position = SchedulePosition()
        assert position.user_epochs_done == 0
        assert not position.tower_initialized
        assert position.group_epochs_done == 0
