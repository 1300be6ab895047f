"""BPR loss, trainers, the two-stage schedule, callbacks."""

import numpy as np
import pytest

from repro.autograd import RowSparseGrad, Tensor
from repro.baselines import AGREE, BPRMF, NCF, SIGR
from repro.core import GroupSAConfig
from repro.data import GroupBatcher
from repro.nn import Embedding
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


#: Every neural model, built the way its ``fit`` builds it.
NETWORKS = {
    "GroupSA": lambda split: build_model(split, TINY_MODEL_CONFIG)[0],
    "MFNetwork": lambda split: BPRMF(dim=8, seed=0).build_network(split.train),
    "NCFNetwork": lambda split: NCF(embedding_dim=8, seed=0).build_network(split.train),
    "AGREENetwork": lambda split: AGREE(embedding_dim=8, seed=0).build_network(split.train),
    "SIGRNetwork": lambda split: SIGR(embedding_dim=8, seed=0).build_network(split.train),
}
#: Embedding tables that also take a dense gradient: SIGR propagates
#: every item row into the user representation with a matmul.
DENSE_EMBEDDINGS = {("SIGRNetwork", "item_embedding")}


def one_loop_trainer(name, split, config=TINY_TRAINING):
    return GroupSATrainer(NETWORKS[name](split), split, GroupBatcher(split.train), config)


def tasks(name):
    return ("user",) if name == "MFNetwork" else ("user", "group")


class TestOneEntityHalfPerStep:
    """A count, not a timing: each step gathers ``emb^U`` and runs user
    modeling / the voting rounds once for the positive and the negative.
    GroupSA and the four neural baselines all train through this step."""

    @pytest.fixture
    def counted(self, monkeypatch, tiny_split):
        from repro.core.user_modeling import UserModeling
        from repro.core.voting import VotingNetwork

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

    def spy(self, monkeypatch, model, method):
        calls = []
        original = getattr(model, method)

        def spying(first, items):
            calls.append(np.shape(items))
            return original(first, items)

        monkeypatch.setattr(model, method, spying)
        return calls

    @pytest.mark.parametrize("name", NETWORKS)
    def test_user_step_is_one_call_over_two_columns(self, name, tiny_split, monkeypatch):
        trainer = one_loop_trainer(name, tiny_split)
        calls = self.spy(monkeypatch, trainer.model, "user_score_components")
        users, positives = tiny_split.train.user_item[:32].T
        negatives = trainer.user_sampler.sample_many(users, 1).reshape(-1)
        loss, accuracy = trainer._user_step(users, positives, negatives)
        assert calls == [(32, 2)]
        assert np.isfinite(loss) and 0.0 <= accuracy <= 1.0

    @pytest.mark.parametrize("name", [n for n in NETWORKS if "group" in tasks(n)])
    def test_group_step_is_one_call_over_two_columns(self, name, tiny_split, monkeypatch):
        trainer = one_loop_trainer(name, tiny_split)
        calls = self.spy(monkeypatch, trainer.model, "group_scores")
        groups, positives = tiny_split.train.group_item[:16].T
        negatives = trainer.group_sampler.sample_many(groups, 1).reshape(-1)
        loss, accuracy = trainer._group_step(groups, positives, negatives)
        assert calls == [(16, 2)]
        assert np.isfinite(loss) and 0.0 <= accuracy <= 1.0

    @pytest.mark.parametrize("name", NETWORKS)
    def test_gathered_embeddings_get_row_sparse_grads(self, name, tiny_split, monkeypatch):
        trainer = one_loop_trainer(name, tiny_split, TrainingConfig())
        tables = {
            path: module.weight
            for path, module in trainer.model.named_modules()
            if isinstance(module, Embedding)
        }
        seen = {}
        step = trainer.optimizer.step

        def checked_step():
            if task not in seen:
                seen[task] = {
                    path: type(weight.grad)
                    for path, weight in tables.items()
                    if weight.grad is not None
                }
            step()

        monkeypatch.setattr(trainer.optimizer, "step", checked_step)
        for task in tasks(name):
            getattr(trainer, f"train_{task}_task")(epochs=1)
        for task in tasks(name):
            assert seen[task], f"the {task} step reached no embedding table"
            for path, grad_type in seen[task].items():
                dense = (name, path) in DENSE_EMBEDDINGS
                assert grad_type is (np.ndarray if dense else RowSparseGrad), (task, path)

    @pytest.mark.parametrize("name", NETWORKS)
    def test_state_dict_resumes_bit_exactly(self, name, tiny_split):
        def epoch(trainer):
            for task in tasks(name):
                getattr(trainer, f"train_{task}_task")(epochs=1)

        uninterrupted = one_loop_trainer(name, tiny_split)
        epoch(uninterrupted)
        epoch(uninterrupted)

        interrupted = one_loop_trainer(name, tiny_split)
        epoch(interrupted)
        resumed = one_loop_trainer(name, tiny_split)
        resumed.model.load_state_dict(interrupted.model.state_dict())
        resumed.load_state_dict(interrupted.state_dict())
        epoch(resumed)
        for (path, a), (__, b) in zip(
            uninterrupted.model.named_parameters(), resumed.model.named_parameters()
        ):
            assert np.array_equal(a.data, b.data), path


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

    def test_stop_hook_ends_the_run_at_the_first_check(self, tiny_split, tmp_path):
        from repro.training import CheckpointManager
        from repro.training.early_stopping import ValidationMonitor
        from repro.tuning import validation_task

        model, batcher = build_model(tiny_split, TINY_MODEL_CONFIG)
        monitor = ValidationMonitor(
            model=model,
            batcher=batcher,
            task=validation_task(tiny_split, num_candidates=10),
            patience=1,
            check_every=2,
            best_value=np.inf,  # no value improves on it: the first check stops
        )
        training = TrainingConfig(
            user_epochs=1, group_epochs=6, interleave_user_every=2, seed=0
        )
        history = fit_groupsa(
            model,
            tiny_split,
            batcher,
            training,
            callback=monitor,
            checkpoint_dir=tmp_path,
            checkpoint_every=5,
        )
        assert len(monitor.history) == 1
        assert len(history.losses("group")) == 2
        # Stage 1's epoch and the replay that closes the stopping unit.
        assert len(history.losses("user")) == 2
        __, state = CheckpointManager(tmp_path).load_latest(model=model)
        assert state.schedule["position"]["group_epochs_done"] == 2

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
