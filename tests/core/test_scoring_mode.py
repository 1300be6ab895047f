"""The numpy scoring conveniences never write the model's mode flag.

``training`` is a plain attribute every thread holding the model
reads mid-forward, so ``score_*_items`` / ``member_attention`` and
``analysis.voting_rounds_trace`` switch dropout off through the
thread-local ``inference_mode()`` instead of ``eval()`` ... ``train()``;
so do the neural baselines' ``score_*_items``.  Also here: their
empty-input contract.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro.analysis import voting_rounds_trace
from repro.autograd import is_grad_enabled, is_inference
from repro.baselines import AGREE, NCF, SIGR
from repro.core import GroupSA
from repro.core.prediction import PredictionTower
from repro.data import GroupBatcher
from repro.graphs import tfidf_top_neighbours
from tests.conftest import TINY_MODEL_CONFIG


@pytest.fixture
def model(tiny_split):
    """Heavy dropout, so a forward that ran with it live cannot hide."""
    train = tiny_split.train
    config = TINY_MODEL_CONFIG.variant(dropout=0.5)
    model = GroupSA(train.num_users, train.num_items, config)
    model.set_top_neighbours(tfidf_top_neighbours(train, config.top_h))
    model.voting.gate.data[...] = 0.5  # let the voting dropout reach the score
    return model


@pytest.fixture
def batcher(tiny_split):
    return GroupBatcher(tiny_split.train)


@pytest.fixture(scope="module")
def baselines(tiny_split):
    return {
        cls.__name__: cls(embedding_dim=8, epochs=1, batch_size=64, seed=0).fit(tiny_split)
        for cls in (NCF, AGREE, SIGR)
    }


def flags(model):
    return [module.training for module in model.modules()]


def call_all(model, batcher):
    items = np.arange(10)
    model.score_user_items(np.full(10, 3), items)
    model.score_group_items(batcher.batch([2]), items)
    model.member_attention(batcher.batch([2]), np.array([4]))
    voting_rounds_trace(model, batcher.batch([2]))


def raising_calls(model, batcher):
    bad = np.array([model.num_items])
    strangers = np.full_like(batcher.batch([2]).members, model.num_users)
    return (
        lambda: model.score_user_items(np.array([0]), bad),
        lambda: model.score_group_items(batcher.batch([2]), bad),
        lambda: model.member_attention(batcher.batch([2]), bad),
        lambda: voting_rounds_trace(
            model, dataclasses.replace(batcher.batch([2]), members=strangers)
        ),
    )


@pytest.fixture(params=["GroupSA", "NCF", "AGREE", "SIGR"])
def scorer(request, model, batcher, baselines, tiny_split):
    """(module tree, a call of every scoring path, calls that raise)."""
    if request.param == "GroupSA":
        return model, lambda: call_all(model, batcher), raising_calls(model, batcher)
    fitted = baselines[request.param]
    items = np.arange(10)
    bad = np.array([tiny_split.train.num_items])

    def score():
        fitted.score_user_items(np.full(10, 3), items)
        fitted.score_group_items(np.full(10, 2), items)

    return fitted._network, score, (
        lambda: fitted.score_user_items(np.array([0]), bad),
        lambda: fitted.score_group_items(np.array([2]), bad),
    )


class TestModeFlag:
    @pytest.mark.parametrize("training", [True, False])
    def test_preserved(self, scorer, training):
        root, score, __ = scorer
        root.train(training)
        before = flags(root)
        assert set(before) == {training}
        score()
        assert flags(root) == before

    @pytest.mark.parametrize("training", [True, False])
    def test_restored_after_a_raising_call(self, scorer, training):
        root, __, raising = scorer
        root.train(training)
        before = flags(root)
        for call in raising:
            with pytest.raises(IndexError):
                call()
        assert flags(root) == before
        assert not is_inference() and is_grad_enabled()

    def test_scores_do_not_depend_on_the_flag(self, model, batcher):
        items = np.arange(model.num_items)
        batch = batcher.batch([2])
        model.train()
        in_train = (
            model.score_user_items(np.full(items.size, 3), items),
            model.score_group_items(batch, items),
            model.member_attention(batch, items[:1]),
            *voting_rounds_trace(model, batch),
        )
        model.eval()
        in_eval = (
            model.score_user_items(np.full(items.size, 3), items),
            model.score_group_items(batch, items),
            model.member_attention(batch, items[:1]),
            *voting_rounds_trace(model, batch),
        )
        for a, b in zip(in_train, in_eval):
            assert np.array_equal(a, b)


class TestConcurrentExplanation:
    def test_member_attention_between_chunks_of_another_forward(
        self, model, batcher, monkeypatch
    ):
        """One thread finishes ``member_attention`` while another sits
        between two chunks of ``score_group_items`` — the engine worker
        and a caller's ``_explain``.  Ordered by events, not by timing.
        """
        items = np.arange(model.num_items)
        batch = batcher.batch([2])
        expected = model.score_group_items(batch, items, chunk=8)

        first_chunk_done = threading.Event()
        explained = threading.Event()
        tower_score = PredictionTower.score_items
        result = {}

        def gated(self, left, right):
            out = tower_score(self, left, right)
            if threading.current_thread() is scorer and not first_chunk_done.is_set():
                first_chunk_done.set()
                result["waited"] = explained.wait(timeout=30)
            return out

        def score():
            result["scores"] = model.score_group_items(batch, items, chunk=8)

        monkeypatch.setattr(PredictionTower, "score_items", gated)
        scorer = threading.Thread(target=score)
        scorer.start()
        assert first_chunk_done.wait(timeout=30)
        model.member_attention(batch, items[:1])
        explained.set()
        scorer.join(timeout=30)
        assert not scorer.is_alive()
        assert result["waited"]
        assert np.array_equal(result["scores"], expected)


class TestEmptyInput:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_empty_scores_carry_the_model_dtype(self, tiny_split, batcher, dtype):
        train = tiny_split.train
        config = TINY_MODEL_CONFIG.variant(dtype=dtype)
        model = GroupSA(train.num_users, train.num_items, config)
        empty = np.empty(0, dtype=np.int64)
        for scores in (
            model.score_user_items(empty, empty),
            model.score_user_items([], []),
            model.score_group_items(batcher.batch(empty), empty),
            model.score_group_items(batcher.batch([1]), empty),
        ):
            assert scores.shape == (0,)
            assert scores.dtype == np.dtype(dtype)

    def test_ids_are_converted_once_at_the_top(self, model, batcher):
        items = list(range(6))
        assert np.array_equal(
            model.score_user_items([3] * 6, items),
            model.score_user_items(np.full(6, 3), np.arange(6)),
        )
        assert np.array_equal(
            model.score_group_items(batcher.batch([2]), items),
            model.score_group_items(batcher.batch([2]), np.arange(6)),
        )
        with pytest.raises((TypeError, ValueError)):
            model.score_user_items(["a"], [0])
