"""Global gradient-recording switches.

Mirrors ``torch.no_grad``: inside a ``no_grad()`` block no computation
graph is recorded, which makes evaluation loops cheap and guards against
accidentally training through the metric code.

A second, independent switch gates *row-sparse* gather gradients: when
enabled, integer-index gathers from tensors that opted in (embedding
tables) emit a :class:`~repro.autograd.sparse.RowSparseGrad` instead of
a dense ``zeros_like(table)`` scatter.  Off by default so ad-hoc
autograd code keeps plain ndarray gradients; the trainer turns it on
per step (``TrainingConfig.sparse_grads``).

A third switch gates the *fused composite ops* of
:mod:`repro.autograd.fused` (masked softmax attention, linear+relu,
pairwise-attention logits).  On by default because the fused paths are
bit-identical to the op-by-op graphs in float64; turn it off to force
the reference unfused graphs (``TrainingConfig.fused_ops=False``, or
the :func:`fused_ops` context below).

A fourth switch marks *inference*: inside :func:`inference_mode`
stochastic layers (``Dropout``) are the identity whatever the module's
``training`` flag says.  The flag is a plain attribute shared by every
thread holding the model, so a scoring call that toggled it would race
a concurrent forward; the numpy scoring conveniences enter this
thread-local switch instead and never write the model.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator


class _ContextState(threading.local):
    """Per-thread autograd switches.

    Thread-local on purpose: the online subsystem serves (inside
    ``no_grad()`` scoring blocks) and trains (forward passes that must
    record a graph) concurrently in one process, so a serving thread's
    ``no_grad()`` must never leak into the trainer thread's forward.
    """

    def __init__(self) -> None:
        self.grad_enabled = True
        self.sparse_grads = False
        self.fused_ops = True
        self.inference = False


_STATE = _ContextState()


def is_grad_enabled() -> bool:
    """Return whether operations currently record a backward graph."""
    return _STATE.grad_enabled


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables graph recording within its scope."""
    previous = _STATE.grad_enabled
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = previous


@contextlib.contextmanager
def enable_grad() -> Iterator[None]:
    """Context manager that re-enables graph recording within its scope."""
    previous = _STATE.grad_enabled
    _STATE.grad_enabled = True
    try:
        yield
    finally:
        _STATE.grad_enabled = previous


def is_inference() -> bool:
    """Return whether stochastic layers are currently disabled."""
    return _STATE.inference


@contextlib.contextmanager
def inference_mode() -> Iterator[None]:
    """Context manager that makes ``Dropout`` the identity within its scope."""
    previous = _STATE.inference
    _STATE.inference = True
    try:
        yield
    finally:
        _STATE.inference = previous


def sparse_grads_enabled() -> bool:
    """Return whether opted-in gathers emit row-sparse gradients."""
    return _STATE.sparse_grads


def set_sparse_grads(enabled: bool) -> bool:
    """Set the row-sparse gather switch; returns the previous value."""
    previous = _STATE.sparse_grads
    _STATE.sparse_grads = bool(enabled)
    return previous


@contextlib.contextmanager
def sparse_grads(enabled: bool = True) -> Iterator[None]:
    """Scope the row-sparse gather switch (the opt-out knob).

    The flag is read when a gather records its backward closure, so it
    must wrap the *forward* pass of the ops whose gradients should be
    row-sparse.
    """
    previous = set_sparse_grads(enabled)
    try:
        yield
    finally:
        set_sparse_grads(previous)


def fused_ops_enabled() -> bool:
    """Return whether modules should dispatch to the fused composite ops."""
    return _STATE.fused_ops


def set_fused_ops(enabled: bool) -> bool:
    """Set the fused-op switch; returns the previous value."""
    previous = _STATE.fused_ops
    _STATE.fused_ops = bool(enabled)
    return previous


@contextlib.contextmanager
def fused_ops(enabled: bool = True) -> Iterator[None]:
    """Scope the fused-op switch (pass ``False`` for the reference path).

    Like :func:`sparse_grads` this is read at *forward* time, when a
    module decides which graph to record, so it must wrap the forward
    pass of the ops whose implementation it selects.
    """
    previous = set_fused_ops(enabled)
    try:
        yield
    finally:
        set_fused_ops(previous)
