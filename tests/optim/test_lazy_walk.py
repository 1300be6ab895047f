"""``LazyRowState.walk``: one pass over the missed steps serves every row."""

import numpy as np
import pytest

from repro.optim.lazy import LazyRowState


@pytest.mark.parametrize("seed", range(10))
def test_each_row_sees_exactly_the_steps_it_missed(seed):
    rng = np.random.default_rng(seed)
    lazy = LazyRowState(num_rows=40, anchor=0)
    for step in np.flatnonzero(rng.random(60) < 0.6) + 1:  # gaps: task switches
        lazy.note_step(int(step))
    upto = lazy.latest_step
    lazy.last[:] = rng.integers(0, upto + 3, size=40)  # some rows ahead of upto
    asked = rng.choice(40, size=25, replace=False)

    for rows in (asked, None):
        stale = lazy.stale_rows(rows, upto)
        pool = np.arange(40) if rows is None else rows
        assert sorted(stale) == sorted(pool[lazy.last[pool] < upto])
        assert (np.diff(lazy.last[stale]) >= 0).all()
        seen = {int(row): [] for row in stale}
        for step, n in lazy.walk(stale, upto):
            assert 0 < n <= stale.size
            for row in stale[:n]:
                seen[int(row)].append(step)
        for row, steps in seen.items():
            assert steps == list(lazy.steps_between(int(lazy.last[row]), upto))


def test_nothing_stale_nothing_to_walk():
    lazy = LazyRowState(num_rows=4, anchor=5)
    lazy.note_step(6)
    lazy.last[:] = 6
    stale = lazy.stale_rows(None, 6)
    assert stale.size == 0 and lazy.walk(stale, 6) == []
