"""Checkpointing and early stopping."""

import numpy as np
import pytest

from repro.persistence import checkpoint_info, load_model, roundtrip_equal, save_model
from repro.training.early_stopping import ValidationMonitor, fit_with_early_stopping
from repro.training.two_stage import build_model
from repro.training.trainer import TrainingConfig
from repro.tuning import validation_task
from tests.conftest import TINY_MODEL_CONFIG


class TestPersistence:
    def test_roundtrip_weights_and_scores(self, trained_tiny_model, tmp_path):
        model, batcher, __ = trained_tiny_model
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert roundtrip_equal(model, loaded)
        users, items = np.arange(6), np.arange(6)
        np.testing.assert_allclose(
            model.score_user_items(users, items),
            loaded.score_user_items(users, items),
        )

    def test_roundtrip_group_scores(self, trained_tiny_model, tmp_path):
        model, batcher, __ = trained_tiny_model
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        batch = batcher.batch([0, 1])
        np.testing.assert_allclose(
            model.score_group_items(batch, np.array([0, 1])),
            loaded.score_group_items(batch, np.array([0, 1])),
        )

    def test_config_preserved(self, trained_tiny_model, tmp_path):
        model, __, __h = trained_tiny_model
        path = tmp_path / "model.npz"
        save_model(model, path)
        assert load_model(path).config == model.config

    def test_checkpoint_info(self, trained_tiny_model, tmp_path):
        model, __, __h = trained_tiny_model
        path = tmp_path / "model.npz"
        save_model(model, path)
        config, num_users, num_items = checkpoint_info(path)
        assert config == model.config
        assert num_users == model.num_users
        assert num_items == model.num_items

    def test_tables_roundtrip(self, trained_tiny_model, tmp_path):
        model, __, __h = trained_tiny_model
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(
            loaded.top_neighbours.items, model.top_neighbours.items
        )

    def test_version_check(self, trained_tiny_model, tmp_path):
        model, __, __h = trained_tiny_model
        path = tmp_path / "model.npz"
        save_model(model, path)
        data = dict(np.load(path, allow_pickle=False))
        data["__version__"] = np.array(99)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_roundtrip_equal_detects_difference(self, trained_tiny_model, tiny_split):
        from repro.core import GroupSA

        model, __, __h = trained_tiny_model
        train = tiny_split.train
        other = GroupSA(train.num_users, train.num_items, model.config)
        assert not roundtrip_equal(model, other)


class TestEarlyStopping:
    def test_monitor_tracks_best(self, trained_tiny_model, tiny_split):
        model, batcher, __ = trained_tiny_model
        monitor = ValidationMonitor(
            model=model,
            batcher=batcher,
            task=validation_task(tiny_split, num_candidates=10),
            patience=2,
        )
        stop_first = monitor.check()
        assert not stop_first
        assert monitor.best_value == monitor.history[0]

    def test_monitor_stops_after_patience(self, trained_tiny_model, tiny_split):
        model, batcher, __ = trained_tiny_model
        monitor = ValidationMonitor(
            model=model,
            batcher=batcher,
            task=validation_task(tiny_split, num_candidates=10),
            patience=2,
        )
        # Deterministic model + frozen task => identical metric values,
        # so "no improvement" accumulates.
        assert not monitor.check()
        assert not monitor.check()
        assert monitor.check()

    def test_restore_best(self, trained_tiny_model, tiny_split):
        model, batcher, __ = trained_tiny_model
        monitor = ValidationMonitor(
            model=model,
            batcher=batcher,
            task=validation_task(tiny_split, num_candidates=10),
        )
        monitor.check()
        best = model.user_embedding.weight.data.copy()
        model.user_embedding.weight.data += 100.0
        monitor.restore_best()
        np.testing.assert_array_equal(model.user_embedding.weight.data, best)

    def test_fit_with_early_stopping_runs(self, tiny_split):
        model, batcher = build_model(tiny_split, TINY_MODEL_CONFIG)
        training = TrainingConfig(
            user_epochs=2, group_epochs=2, batch_size=64, seed=0
        )
        history, monitor = fit_with_early_stopping(
            model,
            tiny_split,
            batcher,
            training,
            patience=1,
            check_every=1,
            max_group_epochs=6,
            num_candidates=10,
        )
        assert monitor.history  # at least one validation check happened
        assert history.losses("group")

    def test_requires_validation_data(self, tiny_world):
        from repro.data import split_interactions

        split = split_interactions(tiny_world.dataset, validation_fraction=0.0, rng=0)
        model, batcher = build_model(split, TINY_MODEL_CONFIG)
        with pytest.raises(ValueError, match="validation"):
            fit_with_early_stopping(model, split, batcher)

    @pytest.mark.parametrize(
        "argument", [{"check_every": 0}, {"patience": 0}, {"max_group_epochs": 0}]
    )
    def test_invalid_arguments_raise_before_any_epoch(
        self, tiny_split, monkeypatch, argument
    ):
        from repro.training.trainer import GroupSATrainer

        def trained(*args, **kwargs):
            raise AssertionError("an epoch ran before the arguments were checked")

        monkeypatch.setattr(GroupSATrainer, "_run_epoch", trained)
        model, batcher = build_model(tiny_split, TINY_MODEL_CONFIG)
        training = TrainingConfig(user_epochs=1, group_epochs=1, batch_size=64, seed=0)
        with pytest.raises(ValueError, match=next(iter(argument))):
            fit_with_early_stopping(
                model, tiny_split, batcher, training, num_candidates=10, **argument
            )
