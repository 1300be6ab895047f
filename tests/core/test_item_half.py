"""The inference item half: numpy twins and lazy rows.

``PredictionTower.score_items`` and ``GroupAggregation.aggregate_items``
are plain-numpy twins of their modules' ``forward`` with the first layer
split at the concatenation (``W [a ⊕ b] = W_a a + W_b b``), which moves
the summation order: each twin equals its ``forward`` to a tolerance
fixed by the dtype, not bit for bit.  ``tests/core/test_entity_hoist.py``
holds ``score_*_items`` built on them against the differentiable
forwards; here are the twins alone and the lazy optimizers' catch-up
hook.  One request stream through every serving mode is
``tests/integration/test_scoring_modes.py``.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, dtype_policy, inference_mode, no_grad, sparse_grads
from repro.core import GroupSA, GroupSAConfig
from repro.core.prediction import PredictionTower
from repro.core.voting import GroupAggregation
from repro.data import GroupBatcher
from repro.graphs import tfidf_top_neighbours
from repro.optim import Adam
from repro.training.bpr import bpr_loss
from tests.conftest import TINY_MODEL_CONFIG
from tests.core.test_entity_hoist import TOLERANCE

DIM, ROWS = 16, 40


def randomised(module, seed=11):
    """ReZero gates and biases start at zero, which would hide the
    output transform and every ``+ b`` behind ``x * 0``."""
    rng = np.random.default_rng(seed)
    for parameter in module.parameters():
        if not parameter.data.any():
            parameter.data[...] = rng.normal(0.0, 0.3, parameter.data.shape)
    return module


def rows(rng, shape, dtype):
    return rng.normal(0.0, 0.5, shape).astype(dtype)


@pytest.fixture(params=["float64", "float32"])
def dtype(request):
    return request.param


# ----------------------------------------------------------------------
# (a) each twin against its module's forward
# ----------------------------------------------------------------------


@pytest.mark.parametrize("hidden", [(32,), (64, 32)], ids=["one_layer", "two_layers"])
def test_tower_twin_equals_forward(dtype, hidden):
    with dtype_policy(dtype):
        tower = randomised(PredictionTower(DIM, hidden, dropout=0.1, rng=3))
    rng = np.random.default_rng(5)
    left, items = rows(rng, (ROWS, DIM), dtype), rows(rng, (ROWS, DIM), dtype)

    def forward(left_rows):
        with no_grad(), inference_mode():
            return tower(Tensor(left_rows), Tensor(items)).data

    aligned = tower.score_items(left, items)
    assert aligned.dtype == np.dtype(dtype) and aligned.shape == (ROWS,)
    np.testing.assert_allclose(aligned, forward(left), **TOLERANCE[dtype])
    # One entity against every item: the split first layer.
    one = tower.score_items(left[0], items)
    assert one.dtype == np.dtype(dtype) and one.shape == (ROWS,)
    np.testing.assert_allclose(
        one, forward(np.repeat(left[:1], ROWS, axis=0)), **TOLERANCE[dtype]
    )


MASKS = {
    "full": [True] * 5,
    "padded": [True, True, True, False, False],
    "one_member": [True],
}


@pytest.fixture
def aggregation(dtype):
    # attention_hidden != embedding_dim: the split must cut W1 at d, not h.
    config = GroupSAConfig(embedding_dim=DIM, attention_hidden=24, dtype=dtype)
    with dtype_policy(dtype):
        return randomised(GroupAggregation(config, rng=7))


def aggregation_forward(aggregation, voted, items, mask):
    with no_grad(), inference_mode():
        representation, gamma = aggregation(
            Tensor(np.repeat(voted[None], len(items), axis=0)),
            Tensor(items),
            np.repeat(mask[None], len(items), axis=0),
        )
    return representation.data, gamma.data


@pytest.mark.parametrize("case", sorted(MASKS))
def test_aggregation_twin_equals_forward(aggregation, dtype, case):
    mask = np.array(MASKS[case])
    rng = np.random.default_rng(9)
    voted, items = rows(rng, (mask.size, DIM), dtype), rows(rng, (ROWS, DIM), dtype)
    representation, gamma = aggregation.aggregate_items(voted, items, mask)
    want_representation, want_gamma = aggregation_forward(aggregation, voted, items, mask)
    assert representation.dtype == gamma.dtype == np.dtype(dtype)
    np.testing.assert_allclose(representation, want_representation, **TOLERANCE[dtype])
    np.testing.assert_allclose(gamma, want_gamma, **TOLERANCE[dtype])
    np.testing.assert_allclose(
        gamma.sum(axis=1), 1.0, rtol=TOLERANCE[dtype]["rtol"]
    )
    assert not gamma[:, ~mask].any()


@pytest.mark.parametrize("size", range(1, 10))
def test_padding_is_invisible(aggregation, dtype, size):
    """A row padded to the widest group (9 here) is the unpadded row,
    bit for bit: the padding's values never enter a sum, and its
    weights are exact zeros."""
    rng = np.random.default_rng(size)
    padded = rows(rng, (9, DIM), dtype)  # the tail is garbage, not zeros
    items = rows(rng, (ROWS, DIM), dtype)
    mask = np.arange(9) < size
    representation, gamma = aggregation.aggregate_items(padded, items, mask)
    want_representation, want_gamma = aggregation.aggregate_items(
        padded[:size], items, np.ones(size, dtype=bool)
    )
    assert gamma.shape == (ROWS, 9)
    assert np.array_equal(representation, want_representation)
    assert np.array_equal(gamma[:, :size], want_gamma)
    assert np.array_equal(gamma[:, size:], np.zeros((ROWS, 9 - size), dtype))


def test_fully_masked_group_aggregates_to_exactly_zero(aggregation, dtype):
    mask = np.zeros(5, dtype=bool)
    rng = np.random.default_rng(9)
    voted, items = rows(rng, (5, DIM), dtype), rows(rng, (ROWS, DIM), dtype)
    representation, gamma = aggregation.aggregate_items(voted, items, mask)
    # No member, no weight: not a softmax over the padding's own logits.
    assert gamma.shape == (ROWS, 5) and gamma.dtype == np.dtype(dtype)
    assert not gamma.any()
    want, __ = aggregation_forward(aggregation, voted, items, mask)
    # Eq. (7) over the zero vector: relu(0 W + b) * gate, the same for
    # every item and with nothing of ``voted`` in it.
    of_zero = np.maximum(aggregation.output.bias.data, 0.0) * aggregation.gate.data
    assert of_zero.any()
    for got in (representation, want):
        assert np.array_equal(got, np.broadcast_to(of_zero, got.shape))


# ----------------------------------------------------------------------
# (d) item rows come through Embedding.forward: lazy rows are caught up
# ----------------------------------------------------------------------


SCORERS = {
    "user": lambda model, single, items: model.score_user_items(
        np.full(items.size, 7), items
    ),
    "group": lambda model, single, items: model.score_group_items(single, items),
    "attention": lambda model, single, items: model.member_attention(single, items),
}


@pytest.mark.parametrize("scorer", sorted(SCORERS))
def test_kernel_reads_item_rows_through_the_gather_hook(tiny_split, scorer):
    """Sparse Adam mid-epoch leaves item rows it has not caught up yet;
    the kernel must score the dense-path weights all the same.  One
    scorer per pair of models: the first full-catalog read catches the
    table up for every later one."""
    train = tiny_split.train
    batcher = GroupBatcher(train)
    config = TINY_MODEL_CONFIG.variant(dropout=0.0)
    models = {}
    for sparse in (True, False):
        model = GroupSA(train.num_users, train.num_items, config)
        model.set_top_neighbours(tfidf_top_neighbours(train, config.top_h))
        optimizer = Adam(model.parameters(), lr=0.02, weight_decay=1e-4)
        rng = np.random.default_rng(2)
        with sparse_grads(sparse):
            for step in range(4):  # no optimizer.sync(): mid-epoch
                optimizer.zero_grad()
                picked = rng.integers(0, train.num_items, (8, 2))
                if step % 2:
                    scores = model.group_scores(
                        batcher.batch(rng.integers(0, train.num_groups, 8)), picked
                    )
                else:
                    scores = model.user_scores(
                        rng.integers(0, train.num_users, 8), picked
                    )
                bpr_loss(scores[:, 0], scores[:, 1]).backward()
                optimizer.step()
        models[sparse] = model
    lazy, dense = models[True], models[False]
    # The test has teeth only while rows are pending.
    assert not np.array_equal(
        lazy.item_embedding.weight.data, dense.item_embedding.weight.data
    )
    assert not np.array_equal(
        lazy.user_modeling.item_latent.weight.data,
        dense.user_modeling.item_latent.weight.data,
    )
    items, single = np.arange(train.num_items), batcher.batch([4])
    assert np.array_equal(
        SCORERS[scorer](lazy, single, items), SCORERS[scorer](dense, single, items)
    )
