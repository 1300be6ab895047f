"""The ``(B, C)`` form of the differentiable forwards.

``user_score_components`` / ``group_forward`` take C candidate items
per entity row and run the entity half (``emb^U`` gather, user
modeling, voting rounds) once for all of them.  What is pinned here:

- the ``(B,)`` form is still the parent commit's: scores and every
  parameter's gradient hash to what ``candidate_forward_parent.json``
  holds, recorded by running this file on the parent
  (``PYTHONPATH=<parent>/src python -m tests.core.test_candidate_forward``
  from a checkout that has this file; it uses the ``(B,)`` form only);
- without dropout ``(B, 2)`` is the two-call step it replaced, up to
  the order in which the entity half's gradient is summed;
- finite differences agree for C in (1, 2, 3);
- what is rejected.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.autograd.context import sparse_grads
from repro.autograd.sparse import RowSparseGrad
from repro.core import GroupSA, GroupSAConfig
from repro.data import GroupBatcher
from repro.data.loaders import GroupBatch, TopNeighbours
from repro.training import bpr_loss
from tests.core.test_entity_hoist import ABLATIONS, build

RECORDED = Path(__file__).with_name("candidate_forward_parent.json")
DTYPES = ("float64", "float32")
ROWS = 24
#: Two-call reference against one call: the forwards are the same
#: products on the same shapes, the backward sums emb^U's (and h_j's)
#: gradient in another order.
TOLERANCE = {
    "float64": {"rtol": 1e-9, "atol": 1e-13},
    "float32": {"rtol": 1e-4, "atol": 1e-6},
}


def triples(train, seed=3):
    rng = np.random.default_rng(seed)
    users = rng.integers(0, train.num_users, ROWS)
    groups = rng.integers(0, train.num_groups, ROWS)
    items = rng.integers(0, train.num_items, (ROWS, 2))
    return users, GroupBatcher(train).batch(groups), items


def dense_grads(model):
    grads = {}
    for name, parameter in model.named_parameters():
        grad = parameter.grad
        grads[name] = grad.to_dense() if isinstance(grad, RowSparseGrad) else grad
    return grads


# ----------------------------------------------------------------------
# (a) the (B,) form against the parent commit
# ----------------------------------------------------------------------


def digest(arrays) -> str:
    sha = hashlib.sha256()
    for name, array in arrays:
        sha.update(name.encode())
        if array is not None:
            array = np.ascontiguousarray(array)
            sha.update(f"{array.dtype}{array.shape}".encode())
            sha.update(array.tobytes())
    return sha.hexdigest()[:32]


def platform_witness() -> str:
    """Changes when last bits may: numpy's version, and the products and
    exponentials of the forwards at their widths."""
    rng = np.random.default_rng(0)
    arrays = []
    for dtype in DTYPES:
        tall = rng.normal(size=(ROWS, 8, 96)).astype(dtype)
        for inner, outer in ((32, 32), (64, 32), (96, 64)):
            weight = rng.normal(size=(inner, outer)).astype(dtype)
            arrays.append(("product", tall[:, 0, :inner] @ weight))
            arrays.append(("batched", tall[..., :inner] @ weight))
        arrays.append(("pairs", tall[..., :32] @ tall[..., :32].swapaxes(-1, -2)))
        arrays.append(("exp", np.exp(tall[0])))
    return digest([("numpy", None), (np.__version__, None), *arrays])


def observe_single_form(train, dtype, ablation):
    """Digests of one (B,) forward and backward of each task: a default
    width model in train mode, dropout armed, the draws part of it."""
    model = build(train, dtype, **ABLATIONS[ablation])
    users, batch, items = triples(train)
    weights = Tensor(np.linspace(-1.0, 2.0, ROWS).astype(dtype))
    observed = {}

    model.zero_grad()
    blended, embedding = model.user_score_components(users, items[:, 0])
    loss = (blended * weights).sum()
    if embedding is not None:
        loss = loss + (embedding * weights).sum() * 0.5
    loss.backward()
    observed["user"] = digest(
        [
            ("blended", blended.data),
            ("embedding", None if embedding is None else embedding.data),
            *dense_grads(model).items(),
        ]
    )

    model.zero_grad()
    scores, gamma = model.group_forward(batch, items[:, 0])
    (scores * weights).sum().backward()
    observed["group"] = digest(
        [("scores", scores.data), ("gamma", gamma.data), *dense_grads(model).items()]
    )
    return observed


def record(train) -> dict:
    return {
        "witness": platform_witness(),
        "forwards": {
            f"{dtype}/{ablation}": observe_single_form(train, dtype, ablation)
            for dtype in DTYPES
            for ablation in sorted(ABLATIONS)
        },
    }


@pytest.fixture(scope="module")
def recorded():
    parent = json.loads(RECORDED.read_text())
    if parent["witness"] != platform_witness():
        pytest.skip("recorded under another numpy/BLAS: last bits are not comparable")
    return parent["forwards"]


@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
@pytest.mark.parametrize("dtype", DTYPES)
def test_single_form_keeps_the_parents_bits(tiny_split, recorded, dtype, ablation):
    assert observe_single_form(tiny_split.train, dtype, ablation) == (
        recorded[f"{dtype}/{ablation}"]
    )


# ----------------------------------------------------------------------
# (b) (B, 2) against the two calls it replaced, dropout off
# ----------------------------------------------------------------------


def two_calls(model, users, batch, items):
    positives, negatives = items[:, 0], items[:, 1]
    pos, pos_emb = model.user_score_components(users, positives)
    neg, neg_emb = model.user_score_components(users, negatives)
    user = ((pos, neg), None if pos_emb is None else (pos_emb, neg_emb))
    group = (model.group_scores(batch, positives), model.group_scores(batch, negatives))
    return user, group


def one_call(model, users, batch, items):
    scores, embedding = model.user_score_components(users, items)
    user = (
        (scores[:, 0], scores[:, 1]),
        None if embedding is None else (embedding[:, 0], embedding[:, 1]),
    )
    scores = model.group_scores(batch, items)
    return user, (scores[:, 0], scores[:, 1])


def step_outcome(forward, model, users, batch, items):
    """Scores, losses and gradients of both tasks' steps, as arrays."""
    (blended, embedding), group = forward(model, users, batch, items)
    outcome = {}
    model.zero_grad()
    loss = bpr_loss(*blended)
    if embedding is not None:
        loss = loss + bpr_loss(*embedding)
    loss.backward()
    outcome["user"] = {
        "positive": blended[0].data,
        "negative": blended[1].data,
        "loss": loss.data,
        **dense_grads(model),
    }
    model.zero_grad()
    loss = bpr_loss(*group)
    loss.backward()
    outcome["group"] = {
        "positive": group[0].data,
        "negative": group[1].data,
        "loss": loss.data,
        **dense_grads(model),
    }
    return outcome


@pytest.mark.parametrize("sparse", [True, False], ids=["row_sparse", "dense"])
@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
@pytest.mark.parametrize("dtype", DTYPES)
def test_two_candidates_match_two_calls(tiny_split, dtype, ablation, sparse):
    train = tiny_split.train
    model = build(train, dtype, dropout=0.0, **ABLATIONS[ablation])
    users, batch, items = triples(train)
    with sparse_grads(sparse):
        want = step_outcome(two_calls, model, users, batch, items)
        got = step_outcome(one_call, model, users, batch, items)
    for task in ("user", "group"):
        assert got[task].keys() == want[task].keys()
        for name, reference in want[task].items():
            if reference is None:
                assert got[task][name] is None, (task, name)
                continue
            np.testing.assert_allclose(
                got[task][name], reference, err_msg=f"{task} {name}", **TOLERANCE[dtype]
            )


def test_gamma_gains_a_candidate_axis(tiny_split):
    train = tiny_split.train
    model = build(train, "float64", dropout=0.0)
    __, batch, items = triples(train)
    scores, gamma = model.group_forward(batch, items)
    assert scores.shape == items.shape
    assert gamma.shape == items.shape + (batch.members.shape[1],)
    for column in range(items.shape[1]):
        assert np.array_equal(
            gamma.data[:, column], model.group_forward(batch, items[:, column])[1].data
        )


# ----------------------------------------------------------------------
# (c) finite differences
# ----------------------------------------------------------------------


@pytest.fixture
def small():
    """A model small enough to difference every parameter of: five users,
    four items, a full group, a padded one, and a user (3) whose Top-H
    item row is masked out entirely."""
    config = GroupSAConfig(
        embedding_dim=4,
        key_dim=4,
        value_dim=4,
        ffn_hidden=4,
        attention_hidden=4,
        top_h=2,
        prediction_hidden=(4,),
        fusion_hidden=(4,),
        dropout=0.0,
        seed=2,
    )
    tables = TopNeighbours(
        items=np.array([[0, 1], [2, 0], [3, 0], [0, 0], [1, 2]]),
        item_mask=np.array([[1, 1], [1, 0], [1, 1], [0, 0], [1, 1]], dtype=bool),
        friends=np.array([[1, 2], [0, 0], [0, 4], [4, 0], [2, 3]]),
        friend_mask=np.array([[1, 1], [1, 0], [1, 1], [1, 0], [1, 1]], dtype=bool),
    )
    model = GroupSA(5, 4, config, top_neighbours=tables)
    rng = np.random.default_rng(4)
    for parameter in model.parameters():  # the zero gates would hide the voting rounds
        if not parameter.data.any():
            parameter.data[...] = rng.normal(0.0, 0.3, parameter.data.shape)
    mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=bool)
    adjacency = np.zeros((2, 3, 3), dtype=bool)
    adjacency[0, 0, 1] = adjacency[0, 1, 0] = adjacency[1, 0, 1] = adjacency[1, 1, 0] = True
    batch = GroupBatch(
        group_ids=np.array([0, 1]),
        members=np.array([[0, 3, 4], [2, 1, 0]]),
        mask=mask,
        adjacency=adjacency,
    )
    return model, batch


@pytest.mark.parametrize("candidates", [1, 2, 3])
def test_gradcheck_user_candidates(small, candidates):
    model, __ = small
    users = np.array([3, 0, 4])
    items = np.array([[0, 3, 1], [2, 2, 0], [1, 0, 3]])[:, :candidates]

    def forward(*parameters):
        blended, embedding = model.user_score_components(users, items)
        return blended + embedding * 0.5

    assert forward().shape == items.shape
    gradcheck(forward, list(model.parameters()), atol=1e-6)


@pytest.mark.parametrize("candidates", [1, 2, 3])
def test_gradcheck_group_candidates(small, candidates):
    model, batch = small
    items = np.array([[0, 3, 1], [2, 2, 0]])[:, :candidates]

    def forward(*parameters):
        return model.group_scores(batch, items)

    assert forward().shape == items.shape
    gradcheck(forward, list(model.parameters()), atol=1e-6)


# ----------------------------------------------------------------------
# (e) what is rejected
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "shape", [(ROWS + 1, 2), (ROWS - 1,), (ROWS, 2, 1), ()], ids=str
)
def test_misshapen_candidates_raise(tiny_split, shape):
    train = tiny_split.train
    model = build(train, "float64")
    users, batch, __ = triples(train)
    items = np.zeros(shape, dtype=np.int64)
    with pytest.raises(ValueError, match="item_ids of shape"):
        model.user_score_components(users, items)
    with pytest.raises(ValueError, match="item_ids of shape"):
        model.group_forward(batch, items)


if __name__ == "__main__":
    from repro.data import split_interactions
    from repro.data.synthetic import generate
    from tests.conftest import TINY_CONFIG

    split = split_interactions(generate(TINY_CONFIG).dataset, rng=7)
    RECORDED.write_text(json.dumps(record(split.train), indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORDED}")
