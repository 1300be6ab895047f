"""BPR loss, trainers, the two-stage schedule, callbacks."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import GroupSAConfig
from repro.training import (
    GroupSATrainer,
    History,
    TrainingConfig,
    bpr_accuracy,
    bpr_loss,
    build_model,
    fit_groupsa,
    train_groupsa,
)
from repro.training.callbacks import EpochLog, print_progress
from tests.conftest import TINY_MODEL_CONFIG, TINY_TRAINING


class TestBprLoss:
    def test_perfect_ranking_near_zero(self):
        positive = Tensor(np.full(4, 50.0))
        negative = Tensor(np.full(4, -50.0))
        assert bpr_loss(positive, negative).item() < 1e-9

    def test_reversed_ranking_large(self):
        positive = Tensor(np.full(4, -10.0))
        negative = Tensor(np.full(4, 10.0))
        assert bpr_loss(positive, negative).item() > 10.0

    def test_equal_scores_ln2(self):
        scores = Tensor(np.zeros(8))
        assert bpr_loss(scores, scores).item() == pytest.approx(np.log(2.0))

    def test_extreme_margins_stable(self):
        positive = Tensor(np.array([1e6]))
        negative = Tensor(np.array([-1e6]))
        assert np.isfinite(bpr_loss(positive, negative).item())
        assert np.isfinite(bpr_loss(negative, positive).item())

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bpr_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_gradient_direction(self):
        positive = Tensor(np.zeros(4), requires_grad=True)
        negative = Tensor(np.zeros(4), requires_grad=True)
        bpr_loss(positive, negative).backward()
        assert (positive.grad < 0).all()  # increase positives
        assert (negative.grad > 0).all()  # decrease negatives

    def test_accuracy(self):
        positive = Tensor(np.array([1.0, 0.0, 2.0, -1.0]))
        negative = Tensor(np.array([0.0, 1.0, 1.0, -2.0]))
        assert bpr_accuracy(positive, negative) == pytest.approx(0.75)


class TestTrainer:
    def test_histories_recorded(self, tiny_split):
        model, batcher = build_model(tiny_split, TINY_MODEL_CONFIG)
        trainer = GroupSATrainer(model, tiny_split, batcher, TINY_TRAINING)
        trainer.train_user_task(epochs=2)
        trainer.train_group_task(epochs=3)
        assert len(trainer.history.losses("user")) == 2
        assert len(trainer.history.losses("group")) == 3

    def test_epoch_numbering_continues(self, tiny_split):
        model, batcher = build_model(tiny_split, TINY_MODEL_CONFIG)
        trainer = GroupSATrainer(model, tiny_split, batcher, TINY_TRAINING)
        trainer.train_user_task(epochs=1)
        trainer.train_user_task(epochs=1)
        epochs = [e.epoch for e in trainer.history.epochs if e.task == "user"]
        assert epochs == [1, 2]

    def test_parameters_change_during_training(self, tiny_split):
        model, batcher = build_model(tiny_split, TINY_MODEL_CONFIG)
        before = model.user_embedding.weight.data.copy()
        trainer = GroupSATrainer(model, tiny_split, batcher, TINY_TRAINING)
        trainer.train_user_task(epochs=1)
        assert not np.allclose(before, model.user_embedding.weight.data)

    def test_invalid_optimizer(self, tiny_split):
        model, batcher = build_model(tiny_split, TINY_MODEL_CONFIG)
        config = TrainingConfig(optimizer="rmsprop")
        with pytest.raises(ValueError):
            GroupSATrainer(model, tiny_split, batcher, config)

    def test_callback_invoked(self, tiny_split):
        model, batcher = build_model(tiny_split, TINY_MODEL_CONFIG)
        trainer = GroupSATrainer(model, tiny_split, batcher, TINY_TRAINING)
        seen = []
        trainer.train_user_task(epochs=2, callback=seen.append)
        assert len(seen) == 2
        assert all(isinstance(log, EpochLog) for log in seen)


class TestOneEntityHalfPerStep:
    """A count, not a timing: each step gathers ``emb^U`` and runs user
    modeling / the voting rounds once for the positive and the negative."""

    @pytest.fixture
    def counted(self, monkeypatch, tiny_split):
        from repro.core.user_modeling import UserModeling
        from repro.core.voting import VotingNetwork
        from repro.nn import Embedding

        model, batcher = build_model(tiny_split, TINY_MODEL_CONFIG)
        calls = {"user_modeling": 0, "voting": 0, "user_embedding": 0}

        def count(owner, name, only=None):
            forward = owner.forward

            def counting(self, *args, **kwargs):
                if only is None or self is only:
                    calls[name] += 1
                return forward(self, *args, **kwargs)

            monkeypatch.setattr(owner, "forward", counting)

        count(UserModeling, "user_modeling")
        count(VotingNetwork, "voting")
        count(Embedding, "user_embedding", only=model.user_embedding)
        trainer = GroupSATrainer(model, tiny_split, batcher, TINY_TRAINING)
        return trainer, calls

    def test_user_step(self, counted, tiny_split):
        trainer, calls = counted
        users, positives = tiny_split.train.user_item[:32].T
        negatives = trainer.user_sampler.sample_many(users, 1).reshape(-1)
        loss, accuracy = trainer._user_step(users, positives, negatives)
        assert calls == {"user_modeling": 1, "voting": 0, "user_embedding": 1}
        assert np.isfinite(loss) and 0.0 <= accuracy <= 1.0

    def test_group_step(self, counted, tiny_split):
        trainer, calls = counted
        groups, positives = tiny_split.train.group_item[:16].T
        negatives = trainer.group_sampler.sample_many(groups, 1).reshape(-1)
        loss, accuracy = trainer._group_step(groups, positives, negatives)
        assert calls == {"user_modeling": 0, "voting": 1, "user_embedding": 1}
        assert np.isfinite(loss) and 0.0 <= accuracy <= 1.0


class TestTwoStage:
    def test_train_groupsa_returns_history(self, tiny_split):
        model, batcher, history = train_groupsa(
            tiny_split, TINY_MODEL_CONFIG, TINY_TRAINING
        )
        assert history.losses("user")
        assert history.losses("group")

    def test_group_g_skips_user_task(self, tiny_split):
        from repro.core import variant_config

        config = variant_config("Group-G", TINY_MODEL_CONFIG)
        __, __b, history = train_groupsa(tiny_split, config, TINY_TRAINING)
        assert not history.losses("user")
        assert history.losses("group")

    def test_tower_initialization_copies_user_tower(self, tiny_split):
        model, batcher = build_model(tiny_split, TINY_MODEL_CONFIG)
        training = TrainingConfig(
            user_epochs=1,
            group_epochs=0,
            init_group_tower_from_user=True,
            interleave_user_every=0,
            seed=0,
        )
        fit_groupsa(model, tiny_split, batcher, training)
        for (na, pa), (nb, pb) in zip(
            model.user_tower.named_parameters(), model.group_tower.named_parameters()
        ):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_interleaving_replays_user_epochs(self, tiny_split):
        model, batcher = build_model(tiny_split, TINY_MODEL_CONFIG)
        training = TrainingConfig(
            user_epochs=2, group_epochs=4, interleave_user_every=2, seed=0
        )
        history = fit_groupsa(model, tiny_split, batcher, training)
        # 2 warmup user epochs + 2 interleaved replays.
        assert len(history.losses("user")) == 4
        assert len(history.losses("group")) == 4

    def test_closeness_variants_build(self, tiny_split):
        for closeness in ("direct", "full", "common-neighbours", "pagerank"):
            config = TINY_MODEL_CONFIG.variant(closeness=closeness)
            model, batcher = build_model(tiny_split, config)
            assert batcher is not None


class TestHistory:
    def test_final_loss(self):
        history = History()
        history.record(EpochLog("user", 1, 0.8, 0.5))
        history.record(EpochLog("user", 2, 0.4, 0.7))
        assert history.final_loss("user") == 0.4

    def test_final_loss_missing_task(self):
        with pytest.raises(ValueError):
            History().final_loss("user")

    def test_print_progress(self, capsys):
        print_progress(EpochLog("group", 3, 0.1234, 0.9))
        captured = capsys.readouterr().out
        assert "group" in captured and "0.1234" in captured
