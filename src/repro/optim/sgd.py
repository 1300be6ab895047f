"""Stochastic gradient descent with optional momentum.

Like :class:`~repro.optim.adam.Adam`, SGD understands row-sparse
gradients from embedding gathers.  With neither momentum nor weight
decay the dense update is an exact no-op on zero-gradient rows, so the
sparse path needs no bookkeeping at all — it just updates the touched
rows.  With momentum and/or weight decay, untouched rows drift every
step (velocity decay, weight-decay pull), so the same lazy replay
machinery Adam uses keeps the sparse path bit-identical to dense.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from repro.autograd.sparse import RowSparseGrad
from repro.nn.module import Parameter
from repro.optim.lazy import LazyRowState
from repro.optim.optimizer import Optimizer


class SGD(Optimizer):
    """Plain SGD; the paper's training method samples one positive plus
    N negatives per gradient step and applies SGD-style updates."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]
        #: Global step counter; only consumed by the lazy bookkeeping
        #: (plain SGD's update is step-independent).
        self._step_count = 0
        self._lazy: List[Optional[LazyRowState]] = [None] * len(self.parameters)

    @property
    def _stateless_rows(self) -> bool:
        """True when untouched rows are exact fixed points of a step."""
        return not self.momentum and not self.weight_decay

    def state_dict(self) -> Dict[str, Any]:
        self.sync()
        state = super().state_dict()
        state["scalars"]["step_count"] = self._step_count
        for index, velocity in enumerate(self._velocity):
            state["arrays"][f"velocity/{index}"] = velocity.copy()
        for index, lazy in enumerate(self._lazy):
            if lazy is not None:
                state["scalars"][f"lazy_anchor/{index}"] = int(lazy.last[0])
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        # Tolerant: checkpoints written before the sparse fast path have
        # no step counter or lazy anchors.
        self._step_count = int(state["scalars"].get("step_count", 0))
        self._load_slot_arrays(self._velocity, state["arrays"], "velocity")
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
                continue
            lazy = self._lazy[index]
            if lazy is not None:
                self._replay_rows(index, parameter, None, step - 1)
            grad = self._decayed_grad(parameter)
            velocity = self._velocity[index]
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            parameter.data -= self.lr * grad
            if lazy is not None:
                lazy.mark_synced(step)

    def _sparse_step(
        self, index: int, parameter: Parameter, grad: RowSparseGrad, step: int
    ) -> None:
        rows = grad.indices
        if self._stateless_rows:
            # Zero-gradient rows are untouched by the dense update, so
            # no deferral is needed: update the touched rows and return.
            parameter.data[rows] -= self.lr * grad.values
            return
        lazy = self._lazy[index]
        if lazy is None:
            lazy = LazyRowState(parameter.data.shape[0], step - 1)
            self._lazy[index] = lazy
            self._install_hook(index, parameter)
        self._replay_rows(index, parameter, rows, step - 1)
        lazy.note_step(step)
        theta = parameter.data[rows]
        g = grad.values
        if self.weight_decay:
            g = g + 2.0 * self.weight_decay * theta
        if self.momentum:
            velocity = self._velocity[index]
            v = velocity[rows]
            v *= self.momentum
            v += g
            velocity[rows] = v
            g = v
        theta -= self.lr * g
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
        """Re-run the zero-gradient dense update for stale ``rows``."""
        lazy = self._lazy[index]
        if lazy is None:
            return
        rows = lazy.stale_rows(rows, upto)
        velocity = self._velocity[index]
        data = parameter.data
        if not self.weight_decay:
            # Momentum-only drift: rows with an all-zero velocity
            # are fixed points of the zero-gradient update.
            live = velocity[rows].any(axis=tuple(range(1, data.ndim)))
            lazy.last[rows[~live]] = upto
            rows = rows[live]
        walk = lazy.walk(rows, upto)
        if walk:
            theta = data[rows]
            v = velocity[rows]
            for __, n in walk:
                if self.weight_decay:
                    g = 2.0 * self.weight_decay * theta[:n]
                else:
                    g = 0.0
                if self.momentum:
                    v[:n] *= self.momentum
                    v[:n] += g
                    g = v[:n]
                theta[:n] -= self.lr * g
            data[rows] = theta
            velocity[rows] = v
        lazy.last[rows] = upto

    def sync(self) -> None:
        for index, parameter in enumerate(self.parameters):
            lazy = self._lazy[index]
            if lazy is None or not lazy.ranges:
                continue
            upto = lazy.ranges[-1][1]
            self._replay_rows(index, parameter, None, upto)
            lazy.mark_synced(upto)
