"""Adam optimizer (the paper's choice for all gradient-based methods).

Two execution paths share one set of semantics:

- the **dense path** is the textbook update over full arrays, with
  preallocated scratch buffers so steady-state stepping allocates
  nothing;
- the **sparse fast path** fires when a parameter's gradient arrives as
  a :class:`~repro.autograd.sparse.RowSparseGrad` (embedding gathers).
  Only the touched rows are updated; every *untouched* row's
  deterministic drift (moment decay, bias-correction shift, weight-decay
  pull) is deferred and replayed row by row the moment something needs
  the row's true value — a forward gather (via the parameter's
  ``_gather_hook``), a later gradient, a checkpoint, or :meth:`sync`.

The replay loop re-executes the exact dense op sequence for each
skipped step, so the two paths produce bit-identical weights and
moments (up to the sign of exact zeros).  Per-step cost on the sparse
path scales with the batch, not the table.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from repro.autograd.sparse import RowSparseGrad
from repro.nn.module import Parameter
from repro.optim.lazy import LazyRowState
from repro.optim.optimizer import Optimizer


class Adam(Optimizer):
    """Adam with bias correction, matching the standard formulation."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr, weight_decay)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step_count = 0
        self._first_moment = [np.zeros_like(p.data) for p in self.parameters]
        self._second_moment = [np.zeros_like(p.data) for p in self.parameters]
        #: Per-parameter lazy row bookkeeping; created on the first
        #: row-sparse gradient a parameter receives.
        self._lazy: List[Optional[LazyRowState]] = [None] * len(self.parameters)
        #: Per-parameter scratch buffers for the dense path, allocated
        #: on first dense use so sparse-path tables never pay for them.
        self._scratch: List[Optional[Dict[str, np.ndarray]]] = [None] * len(
            self.parameters
        )

    # ------------------------------------------------------------------
    # Serialization (checkpoint/resume support)
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        # Replay all deferred updates first: with every row current and
        # no pending ranges, the lazy state collapses to one anchor
        # scalar per tracked parameter.
        self.sync()
        state = super().state_dict()
        state["scalars"]["step_count"] = self._step_count
        for index, (first, second) in enumerate(
            zip(self._first_moment, self._second_moment)
        ):
            state["arrays"][f"first_moment/{index}"] = first.copy()
            state["arrays"][f"second_moment/{index}"] = second.copy()
        for index, lazy in enumerate(self._lazy):
            if lazy is not None:
                state["scalars"][f"lazy_anchor/{index}"] = int(lazy.last[0])
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        self._step_count = int(state["scalars"]["step_count"])
        self._load_slot_arrays(self._first_moment, state["arrays"], "first_moment")
        self._load_slot_arrays(self._second_moment, state["arrays"], "second_moment")
        # Tolerant: checkpoints written before the sparse fast path (or
        # from dense-only runs) simply carry no lazy anchors.
        for index, parameter in enumerate(self.parameters):
            anchor = state["scalars"].get(f"lazy_anchor/{index}")
            if anchor is None:
                self._lazy[index] = None
                if getattr(parameter, "_gather_hook", None) is not None:
                    parameter._gather_hook = None
            else:
                self._lazy[index] = LazyRowState(
                    parameter.data.shape[0], int(anchor)
                )
                self._install_hook(index, parameter)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def step(self) -> None:
        self._step_count += 1
        step = self._step_count
        for index, parameter in enumerate(self.parameters):
            grad = parameter.grad
            if grad is None:
                continue
            if isinstance(grad, RowSparseGrad):
                self._sparse_step(index, parameter, grad, step)
            else:
                lazy = self._lazy[index]
                if lazy is not None:
                    # A lazily tracked table got a full dense gradient
                    # (e.g. sparse mode toggled off): catch every row up
                    # before the dense update touches them all.
                    self._replay_rows(index, parameter, None, step - 1)
                self._dense_step(index, parameter, grad, step)
                if lazy is not None:
                    lazy.mark_synced(step)

    def _dense_step(
        self, index: int, parameter: Parameter, grad: np.ndarray, step: int
    ) -> None:
        """Full-array update, bit-identical to the reference formulation::

            grad = grad + 2 * weight_decay * data        # if weight_decay
            first = beta1 * first + (1 - beta1) * grad
            second = beta2 * second + (1 - beta2) * grad**2
            data -= lr * (first / bias1) / (sqrt(second / bias2) + eps)

        but routed through preallocated scratch buffers so the steady
        state performs zero heap allocations (scalar-array products
        commute bitwise, so ``out=`` ufuncs preserve every bit).
        """
        scratch = self._scratch[index]
        if scratch is None:
            scratch = {
                "a": np.empty_like(parameter.data),
                "b": np.empty_like(parameter.data),
            }
            if self.weight_decay:
                scratch["g"] = np.empty_like(parameter.data)
            self._scratch[index] = scratch
        first = self._first_moment[index]
        second = self._second_moment[index]
        tmp_a = scratch["a"]
        tmp_b = scratch["b"]
        if self.weight_decay:
            decayed = scratch["g"]
            np.multiply(parameter.data, 2.0 * self.weight_decay, out=decayed)
            np.add(decayed, grad, out=decayed)
            grad = decayed
        bias1 = 1.0 - self.beta1**step
        bias2 = 1.0 - self.beta2**step
        first *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=tmp_a)
        first += tmp_a
        second *= self.beta2
        np.power(grad, 2, out=tmp_a)
        tmp_a *= 1.0 - self.beta2
        second += tmp_a
        np.divide(second, bias2, out=tmp_a)
        np.sqrt(tmp_a, out=tmp_a)
        tmp_a += self.epsilon
        np.divide(first, bias1, out=tmp_b)
        tmp_b *= self.lr
        tmp_b /= tmp_a
        parameter.data -= tmp_b

    def _sparse_step(
        self, index: int, parameter: Parameter, grad: RowSparseGrad, step: int
    ) -> None:
        """Update only the rows ``grad`` touches; defer the rest."""
        lazy = self._lazy[index]
        if lazy is None:
            # Every row is dense-current through the previous step: until
            # now this parameter only ever saw dense grads (or none, in
            # which case the dense path skipped it entirely).
            lazy = LazyRowState(parameter.data.shape[0], step - 1)
            self._lazy[index] = lazy
            self._install_hook(index, parameter)
        rows = grad.indices
        self._replay_rows(index, parameter, rows, step - 1)
        lazy.note_step(step)
        first = self._first_moment[index]
        second = self._second_moment[index]
        f = first[rows]
        s = second[rows]
        theta = parameter.data[rows]
        g = grad.values
        if self.weight_decay:
            g = g + 2.0 * self.weight_decay * theta
        bias1 = 1.0 - self.beta1**step
        bias2 = 1.0 - self.beta2**step
        f *= self.beta1
        f += (1.0 - self.beta1) * g
        s *= self.beta2
        s += (1.0 - self.beta2) * g**2
        theta -= self.lr * (f / bias1) / (np.sqrt(s / bias2) + self.epsilon)
        first[rows] = f
        second[rows] = s
        parameter.data[rows] = theta
        lazy.last[rows] = step

    # ------------------------------------------------------------------
    # Lazy catch-up machinery
    # ------------------------------------------------------------------

    def _install_hook(self, index: int, parameter: Parameter) -> None:
        parameter._gather_hook = (
            lambda idx, i=index, p=parameter: self._catch_up_read(i, p, idx)
        )

    def _catch_up_read(
        self, index: int, parameter: Parameter, indices: np.ndarray
    ) -> None:
        """Pre-gather hook: make the rows about to be read dense-current."""
        lazy = self._lazy[index]
        if lazy is None or not lazy.ranges:
            return
        rows = np.unique(np.asarray(indices, dtype=np.int64).reshape(-1))
        self._replay_rows(index, parameter, rows, lazy.ranges[-1][1])

    def _replay_rows(
        self,
        index: int,
        parameter: Parameter,
        rows: Optional[np.ndarray],
        upto: int,
    ) -> None:
        """Re-run the dense per-step drift for ``rows`` through ``upto``.

        ``rows is None`` means every row.  For each recorded gradient
        step a stale row missed, the dense path would have applied the
        update with that row's gradient slice equal to zero; this loop
        re-executes exactly those ops, once per missed step over the
        prefix of rows that missed it (see :meth:`LazyRowState.walk`).
        """
        lazy = self._lazy[index]
        if lazy is None:
            return
        rows = lazy.stale_rows(rows, upto)
        first = self._first_moment[index]
        second = self._second_moment[index]
        data = parameter.data
        if not self.weight_decay:
            # Without weight decay the skipped-step gradient is an
            # exact zero, so rows whose moments are still all-zero
            # are fixed points of the replay — skip them wholesale.
            reduce_axes = tuple(range(1, data.ndim))
            live = np.logical_or(
                first[rows].any(axis=reduce_axes),
                second[rows].any(axis=reduce_axes),
            )
            lazy.last[rows[~live]] = upto
            rows = rows[live]
        walk = lazy.walk(rows, upto)
        if walk:
            f = first[rows]
            s = second[rows]
            theta = data[rows]
            for step, n in walk:
                bias1 = 1.0 - self.beta1**step
                bias2 = 1.0 - self.beta2**step
                if self.weight_decay:
                    g = 2.0 * self.weight_decay * theta[:n]
                    f[:n] *= self.beta1
                    f[:n] += (1.0 - self.beta1) * g
                    s[:n] *= self.beta2
                    s[:n] += (1.0 - self.beta2) * g**2
                else:
                    f[:n] *= self.beta1
                    s[:n] *= self.beta2
                theta[:n] -= (
                    self.lr * (f[:n] / bias1) / (np.sqrt(s[:n] / bias2) + self.epsilon)
                )
            first[rows] = f
            second[rows] = s
            data[rows] = theta
        lazy.last[rows] = upto

    def sync(self) -> None:
        """Apply every deferred row update; afterwards all parameters
        hold exactly the weights the dense path would hold."""
        for index, parameter in enumerate(self.parameters):
            lazy = self._lazy[index]
            if lazy is None or not lazy.ranges:
                continue
            upto = lazy.ranges[-1][1]
            self._replay_rows(index, parameter, None, upto)
            lazy.mark_synced(upto)
