"""``score_*_items`` against the differentiable forwards, and against themselves.

``score_user_items`` runs user modeling once per distinct user and
``score_group_items`` the voting network once per run of identical
rows; the item half of each run is the plain-numpy kernel of
``PredictionTower.score_items`` / ``GroupAggregation.aggregate_items``,
whose first layers are split at the concatenation.  The split changes
the summation order, so against the reference — the differentiable
``user_scores`` / ``group_scores`` on the fully repeated rows, under
``no_grad()`` in inference mode — the contract is scores to a
tolerance fixed by the dtype **and** the same top-10 under the tie
contract (``matches``).

Between two calls of the kernel nothing is weakened: the same run
scored alone, inside a mixed call, or in either ``score_group_items``
form is ``np.array_equal`` (``same``) wherever the BLAS at hand
computes a row of ``X @ W`` independently of the height of ``X``
(probed below; true of OpenBLAS's Haswell kernels from a height of 2
up, which is why the lone entity is doubled).
"""

import numpy as np
import pytest

from repro.autograd import inference_mode, no_grad
from repro.core import GroupSA, GroupSAConfig, build_adhoc_batch
from repro.core.user_modeling import UserModeling
from repro.core.voting import VotingNetwork
from repro.data import GroupBatcher
from repro.data.loaders import GroupBatch
from repro.graphs import tfidf_top_neighbours
from repro.serving import RecommendationService

USER_ROWS = 4096 + 700  # more than one default user chunk
GROUP_ROWS = 2 * 1024 + 300  # more than two default group chunks

ABLATIONS = {
    "default": {},
    "no_self_attention": {"use_self_attention": False},
    "two_layers": {"num_attention_layers": 2},
    "two_heads": {"num_heads": 2},
    "item_only": {"use_social_aggregation": False},
    "social_only": {"use_item_aggregation": False},
    "no_user_modeling": {
        "use_item_aggregation": False,
        "use_social_aggregation": False,
    },
    "blend_0": {"blend_weight": 0.0},
    "blend_1": {"blend_weight": 1.0},
}


def rows_are_height_independent(dtype) -> bool:
    rng = np.random.default_rng(0)
    for inner in (32, 64, 96):  # the entity halves' products at default widths
        row = rng.normal(size=(1, inner)).astype(dtype)
        weight = rng.normal(size=(inner, 32)).astype(dtype)
        tall = (np.repeat(row, 4096, axis=0) @ weight)[0]
        for height in (2, 3, 5, 64):
            if not np.array_equal((np.repeat(row, height, axis=0) @ weight)[0], tall):
                return False
    return True


EXACT = {name: rows_are_height_independent(name) for name in ("float64", "float32")}
TOLERANCE = {
    "float64": {"rtol": 1e-9, "atol": 1e-13},
    "float32": {"rtol": 1e-4, "atol": 1e-6},
}


def top_10(scores: np.ndarray) -> np.ndarray:
    """Positions by descending score, ties toward the earlier one."""
    return np.lexsort((np.arange(scores.size), -scores))[:10]


def matches(got: np.ndarray, want: np.ndarray, *pair) -> bool:
    """The kernel against the reference: every score to tolerance, and
    the same top-10.  ``pair`` — (entity ids, item ids) of the rows —
    restricts the list to the first row of each distinct pair: copies
    of one pair tie by definition, and either side may compute them a
    last bit apart."""
    rows = np.arange(got.size)
    if pair:
        rows = np.sort(np.unique(np.stack(pair, axis=1), axis=0, return_index=True)[1])
    return (
        got.shape == want.shape
        and got.dtype == want.dtype
        and np.allclose(got, want, **TOLERANCE[got.dtype.name])
        and np.array_equal(top_10(got[rows]), top_10(want[rows]))
    )


def same(got: np.ndarray, want: np.ndarray) -> bool:
    """The kernel against itself: bit-equal where the probe allows it."""
    name = got.dtype.name
    if EXACT[name]:
        return np.array_equal(got, want)
    return got.shape == want.shape and np.allclose(got, want, **TOLERANCE[name])


def build(train, dtype, **changes):
    """A default-width model left in train mode (dropout 0.1 armed)."""
    config = GroupSAConfig(dtype=dtype).variant(**changes)
    model = GroupSA(train.num_users, train.num_items, config)
    model.set_top_neighbours(tfidf_top_neighbours(train, config.top_h))
    # The ReZero gates and every bias start at zero, which would hide a
    # last-bit difference in the voting rounds behind ``x * 0``.
    rng = np.random.default_rng(11)
    for parameter in model.parameters():
        if not parameter.data.any():
            parameter.data[...] = rng.normal(0.0, 0.3, parameter.data.shape)
    return model


@pytest.fixture(scope="module", params=["float64", "float32"])
def dtype(request):
    return request.param


@pytest.fixture(scope="module", params=sorted(ABLATIONS))
def model(request, tiny_split, dtype):
    return build(tiny_split.train, dtype, **ABLATIONS[request.param])


@pytest.fixture(scope="module")
def batcher(tiny_split):
    return GroupBatcher(tiny_split.train)


def repeat_rows(batch: GroupBatch, rows) -> GroupBatch:
    return GroupBatch(
        group_ids=batch.group_ids[rows],
        members=batch.members[rows],
        mask=batch.mask[rows],
        adjacency=batch.adjacency[rows],
    )


def reference_user(model, users, items, chunk=4096):
    with no_grad(), inference_mode():
        return np.concatenate(
            [
                model.user_scores(users[s : s + chunk], items[s : s + chunk]).data
                for s in range(0, len(users), chunk)
            ]
        )


def reference_group(model, batch, items, chunk=1024):
    with no_grad(), inference_mode():
        return np.concatenate(
            [
                model.group_scores(
                    repeat_rows(batch, slice(s, s + chunk)), items[s : s + chunk]
                ).data
                for s in range(0, len(items), chunk)
            ]
        )


def catalog(model, rows):
    return np.arange(rows, dtype=np.int64) % model.num_items


class TestUserHoist:
    def test_one_user_full_catalog(self, model):
        items = catalog(model, USER_ROWS)
        users = np.full(items.size, 7, dtype=np.int64)
        got = model.score_user_items(users, items)
        assert got.dtype == np.dtype(model.config.dtype)
        assert matches(got, reference_user(model, users, items), users, items)

    def test_interleaved_users(self, model):
        rng = np.random.default_rng(3)
        users = rng.choice(model.num_users, USER_ROWS)
        items = rng.integers(0, model.num_items, USER_ROWS)
        assert matches(
            model.score_user_items(users, items),
            reference_user(model, users, items),
            users,
            items,
        )

    def test_runs_straddle_chunk_boundary(self, model):
        users = np.repeat(np.array([5, 9, 2, 40]), 30)  # boundaries at 50, 100
        items = catalog(model, users.size)
        assert matches(
            model.score_user_items(users, items, chunk=50),
            reference_user(model, users, items, chunk=50),
            users,
            items,
        )

    def test_alone_equals_inside_mixed_batch(self, model):
        # User 7's rows are the whole catalog in catalog order both
        # times — the same run, so the item half sees the same stack —
        # alone (doubled by the lone-row rule) and with four other
        # users' rows between them.
        items = catalog(model, model.num_items)
        alone = np.full(items.size, 7, dtype=np.int64)
        others = np.array([3, 21, 50, 33])[np.arange(items.size) % 4]
        mixed = np.stack([alone, others], axis=1).reshape(-1)
        twice = np.repeat(items, 2)
        got = model.score_user_items(mixed, twice)
        assert matches(got, reference_user(model, mixed, twice), mixed, twice)
        assert same(got[mixed == 7], model.score_user_items(alone, items))


class TestGroupHoist:
    def test_one_group_full_catalog(self, model, batcher):
        items = catalog(model, GROUP_ROWS)
        batch = batcher.batch(np.full(items.size, 4))
        got = model.score_group_items(batch, items)
        assert got.dtype == np.dtype(model.config.dtype)
        assert matches(got, reference_group(model, batch, items), items)

    def test_lone_one_member_adhoc_group(self, model, tiny_split):
        items = catalog(model, GROUP_ROWS)
        single = build_adhoc_batch([[17]], tiny_split.train.friend_set())
        assert single.members.shape == (1, 1)
        repeated = repeat_rows(single, np.zeros(items.size, dtype=np.int64))
        assert matches(
            model.score_group_items(single, items),
            reference_group(model, repeated, items),
            items,
        )

    def test_interleaved_groups(self, model, batcher, tiny_split):
        rng = np.random.default_rng(5)
        groups = rng.choice(tiny_split.train.num_groups, GROUP_ROWS)
        items = rng.integers(0, model.num_items, GROUP_ROWS)
        batch = batcher.batch(groups)
        assert matches(
            model.score_group_items(batch, items),
            reference_group(model, batch, items),
            groups,
            items,
        )

    def test_runs_straddle_chunk_boundary(self, model, batcher):
        groups = np.repeat(np.array([6, 1, 6, 12]), 30)
        batch = batcher.batch(groups)
        items = catalog(model, 120)
        assert matches(
            model.score_group_items(batch, items, chunk=50),
            reference_group(model, batch, items, chunk=50),
            groups,
            items,
        )

    def test_rows_differing_only_in_adjacency_or_mask(self, model, tiny_split):
        # Four consecutive rows over the *same* member ids: the plain
        # group, its adjacency emptied, its last member masked out, and
        # the plain group again.  A run detector that looked at members
        # alone would score all four alike.
        friends = tiny_split.train.friend_set()
        pair = next((a, b) for a in range(60) for b in sorted(friends[a]) if b > a)
        plain = build_adhoc_batch([[pair[0], pair[1], 59]], friends)
        assert plain.adjacency.any()
        batch = repeat_rows(plain, [0, 0, 0, 0])
        batch.adjacency[1] = False
        batch.mask[2, -1] = False
        batch.adjacency[2, -1, :] = batch.adjacency[2, :, -1] = False
        items = np.full(4, 9, dtype=np.int64)
        got = model.score_group_items(batch, items)
        assert matches(got, reference_group(model, batch, items), np.array([0, 1, 2, 0]))
        assert got[0] == got[3]
        assert got[2] != got[0]
        if model.voting.enabled:
            assert got[1] != got[0]

    def test_one_row_form_equals_aligned_form(self, model, batcher):
        items = catalog(model, GROUP_ROWS)
        aligned = model.score_group_items(batcher.batch(np.full(items.size, 4)), items)
        assert same(model.score_group_items(batcher.batch([4]), items), aligned)

    def test_alone_equals_inside_mixed_batch(self, model, batcher):
        # Group 4's run is the whole catalog both times, chunked from
        # its own first row: alone in the one-row form, and between two
        # other groups' runs in the aligned form.
        items = catalog(model, GROUP_ROWS)
        before, after = catalog(model, 5), catalog(model, 700)
        groups = np.concatenate(
            [np.full(before.size, 2), np.full(items.size, 4), np.full(after.size, 9)]
        )
        mixed = batcher.batch(groups)
        all_items = np.concatenate([before, items, after])
        got = model.score_group_items(mixed, all_items)
        assert matches(got, reference_group(model, mixed, all_items), groups, all_items)
        alone = model.score_group_items(batcher.batch([4]), items)
        assert same(got[groups == 4], alone)

    def test_member_attention_is_the_kernels_gamma(self, model, batcher):
        items = catalog(model, model.num_items)
        batch = batcher.batch(np.full(items.size, 4))
        with no_grad(), inference_mode():
            __, reference = model.group_forward(batch, items)
        got = model.member_attention(batch, items)
        assert got.dtype == reference.data.dtype
        assert np.allclose(got, reference.data, **TOLERANCE[got.dtype.name])
        assert same(model.member_attention(batcher.batch([4]), items), got)

    def test_row_count_must_broadcast(self, model, batcher):
        with pytest.raises(ValueError, match="need 1 or equal"):
            model.score_group_items(batcher.batch([1, 2]), np.arange(5))


class TestEntityHalfRunsOncePerEntity:
    """A count, not a timing: rows the entity halves were evaluated on."""

    @pytest.fixture
    def counted(self, monkeypatch, tiny_split):
        rows = {"user_modeling": [], "voting": []}
        user_forward, voting_forward = UserModeling.forward, VotingNetwork.forward

        def count_users(self, user_embeddings, *args):
            rows["user_modeling"].append(user_embeddings.shape[0])
            return user_forward(self, user_embeddings, *args)

        def count_groups(self, member_embeddings, *args):
            rows["voting"].append(member_embeddings.shape[0])
            return voting_forward(self, member_embeddings, *args)

        monkeypatch.setattr(UserModeling, "forward", count_users)
        monkeypatch.setattr(VotingNetwork, "forward", count_groups)
        return build(tiny_split.train, "float64"), rows

    def test_one_user_many_items(self, counted):
        model, rows = counted
        items = catalog(model, USER_ROWS)
        model.score_user_items(np.full(items.size, 7), items)
        assert sum(rows["user_modeling"]) <= 2

    def test_distinct_users_once_each(self, counted):
        model, rows = counted
        users = np.random.default_rng(6).choice(np.array([1, 8, 30]), USER_ROWS)
        model.score_user_items(users, catalog(model, USER_ROWS))
        assert rows["user_modeling"] == [3]

    def test_one_group_many_items(self, counted, batcher):
        model, rows = counted
        items = catalog(model, GROUP_ROWS)
        model.score_group_items(batcher.batch(np.full(items.size, 4)), items)
        model.score_group_items(batcher.batch([4]), items)
        assert len(rows["voting"]) == 2 and max(rows["voting"]) <= 2

    def test_direct_requests_run_their_entity_half_once(self, counted, tiny_split):
        # Direct mode takes the winners' scores from the ranking pass:
        # a user request is one user-modeling forward, a group or ad-hoc
        # request two voting forwards (rank, explain).
        model, rows = counted
        service = RecommendationService(model=model, dataset=tiny_split.train)
        assert len(service.recommend_for_user(7, k=5).scores) == 5
        assert len(rows["user_modeling"]) == 1 and not rows["voting"]
        rows["user_modeling"].clear()
        assert service.recommend_for_group(4, k=5).voting_weights
        assert len(rows["voting"]) == 2 and not rows["user_modeling"]
        rows["voting"].clear()
        assert service.recommend_for_members([3, 9, 21], k=5).voting_weights
        assert len(rows["voting"]) == 2 and not rows["user_modeling"]
