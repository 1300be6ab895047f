"""Convergence tracing harness."""

import pytest

from repro.experiments.convergence import trace_convergence
from repro.training import TrainingConfig
from tests.conftest import TINY_MODEL_CONFIG


@pytest.fixture(scope="module")
def curve(tiny_split):
    training = TrainingConfig(
        user_epochs=3, group_epochs=4, batch_size=64, seed=0,
        interleave_user_every=2,
    )
    return trace_convergence(
        tiny_split, TINY_MODEL_CONFIG, training, check_every=2, num_candidates=10
    )


class TestConvergence:
    def test_point_counts(self, curve):
        assert len(curve.losses("user")) == 3
        assert len(curve.losses("group")) == 4

    def test_user_loss_decreases(self, curve):
        losses = curve.losses("user")
        assert losses[-1] <= losses[0]

    def test_validation_checked_on_schedule(self, curve):
        group_points = [p for p in curve.points if p.stage == "group"]
        checked = [p.epoch for p in group_points if p.validation_hr10 is not None]
        assert checked == [2, 4]

    def test_csv_shape(self, curve):
        csv = curve.to_csv()
        lines = csv.splitlines()
        assert lines[0] == "stage,epoch,loss,validation_hr10"
        assert len(lines) == 1 + len(curve.points)
        assert all(line.count(",") == 3 for line in lines[1:])

    def test_group_g_variant_has_no_user_stage(self, tiny_split):
        from repro.core import variant_config

        config = variant_config("Group-G", TINY_MODEL_CONFIG)
        training = TrainingConfig(user_epochs=2, group_epochs=2, batch_size=64, seed=0)
        curve = trace_convergence(
            tiny_split, config, training, check_every=1, num_candidates=10
        )
        assert curve.losses("user") == []
        assert len(curve.losses("group")) == 2

    def test_check_every_zero_raises_before_any_epoch(self, tiny_split, monkeypatch):
        from repro.training.trainer import GroupSATrainer

        def trained(*args, **kwargs):
            raise AssertionError("an epoch ran before the arguments were checked")

        monkeypatch.setattr(GroupSATrainer, "_run_epoch", trained)
        training = TrainingConfig(user_epochs=1, group_epochs=1, batch_size=64, seed=0)
        with pytest.raises(ValueError, match="check_every"):
            trace_convergence(
                tiny_split, TINY_MODEL_CONFIG, training, check_every=0, num_candidates=10
            )
