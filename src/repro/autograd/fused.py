"""Fused composite autograd ops with hand-written gradients.

Profiling (``repro profile``) shows training step time
dominated by the attention blocks' backward matmuls plus the graph
bookkeeping around them: the op-by-op graphs record 6-9 nodes per
attention block, each with a closure, saved operands and broadcast
temporaries.  The three ops here collapse those chains into ONE forward
node with ONE backward closure each:

- :func:`fused_masked_attention` — ``softmax(q k^T / scale + bias) v``
  (Eqs. 1-5's social self-attention, any number of heads);
- :func:`fused_linear_relu` — ``relu(x W + b)`` (the score MLPs, FFN
  expansion and tower hidden layers);
- :func:`fused_pairwise_logits` — the full two-layer pairwise-attention
  scoring network of Eqs. (9)-(10)/(13)-(14)/(17)-(18), including the
  query broadcast over candidates (no zero-tile materialization).

Bit-identity contract
---------------------
In float64 these ops produce results **bit-identical** to the unfused
graphs (asserted by ``tests/autograd/test_fused_ops.py`` and the
training-equivalence suite).  That only holds because each backward
replays the *exact* floating-point expression sequence of the chained
closures it replaces — the same ``_unbroadcast`` reductions in the same
order, gradients accumulated into shared parents in the same order the
reverse-topological walk would have produced.  When editing, change the
arithmetic only if you change the unfused reference the tests compare
against.

The backward closures lease their large temporaries from the
per-(shape, dtype) scratch arena (:mod:`repro.autograd.pool`), so a
steady-state training loop stops hitting the allocator in backward.

Implementations are installed as ``Tensor`` staticmethods
(``Tensor._fused_*``) following the ``_concatenate``/``_stack`` pattern
so the op profiler can intercept them by patching the class.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd.pool import scratch_lease
from repro.autograd.tensor import Tensor, _unbroadcast


def _detached(data: np.ndarray) -> Tensor:
    """Wrap an array as a graph-free leaf (shared, not copied)."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out._backward = None
    out._parents = ()
    return out


# ----------------------------------------------------------------------
# linear + relu
# ----------------------------------------------------------------------


def _fused_linear_relu_impl(
    x: Tensor, weight: Tensor, bias: Optional[Tensor]
) -> Tensor:
    """``relu(x @ weight + bias)`` as one node.

    Replaces the matmul → add → relu chain: one saved boolean mask
    instead of two saved intermediate activations, one closure instead
    of three.
    """
    pre = np.matmul(x.data, weight.data)
    if bias is not None:
        pre = pre + bias.data
    mask = pre > 0
    data = pre * mask

    def backward(grad: np.ndarray) -> None:
        with scratch_lease() as take:
            g = take(grad.shape, grad.dtype)
            np.multiply(grad, mask, out=g)
            # Accumulation order matches the unfused reverse-topo walk:
            # bias (add node), then x, then weight (matmul node).
            if bias is not None and bias.requires_grad:
                bias._accumulate(_unbroadcast(g, bias.shape))
            if x.requires_grad:
                gx = take(x.shape, g.dtype) if g.shape[:-1] == x.shape[:-1] else None
                grad_x = np.matmul(g, weight.data.swapaxes(-1, -2), out=gx)
                x._accumulate(_unbroadcast(grad_x, x.shape))
            if weight.requires_grad:
                grad_w = np.matmul(x.data.swapaxes(-1, -2), g)
                weight._accumulate(_unbroadcast(grad_w, weight.shape))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._from_op(data, parents, backward)


# ----------------------------------------------------------------------
# masked softmax attention
# ----------------------------------------------------------------------


def _fused_masked_attention_impl(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    bias: Optional[np.ndarray],
    scale: float,
) -> Tuple[Tensor, Tensor]:
    """``softmax(q k^T / scale + bias) @ v`` as one node.

    ``q``/``k``/``v`` are (..., L, d) with any batch/head leading axes;
    ``bias`` is a plain additive float array broadcastable to the score
    shape (0 = attend, ``MASK_VALUE`` = skip) and receives no gradient.
    Returns ``(output, weights)`` where ``weights`` is the detached
    post-softmax attention matrix (inspection only — the paper's case
    study reads it, nothing differentiates through it).
    """
    scores = np.matmul(q.data, k.data.swapaxes(-1, -2))
    scale_arr = np.asarray(scale, dtype=scores.dtype)
    scores = scores / scale_arr
    if bias is not None:
        scores = scores + bias
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    weights = exp / exp.sum(axis=-1, keepdims=True)
    data = np.matmul(weights, v.data)

    def backward(grad: np.ndarray) -> None:
        with scratch_lease() as take:
            # matmul(weights, v) backward; v accumulates first, exactly
            # where the reverse-topo walk of the unfused chain puts it.
            gw = take(weights.shape, grad.dtype)
            np.matmul(grad, v.data.swapaxes(-1, -2), out=gw)
            if v.requires_grad:
                gv = take(v.shape, grad.dtype)
                np.matmul(weights.swapaxes(-1, -2), grad, out=gv)
                v._accumulate(_unbroadcast(gv, v.shape))
            # softmax backward (the bias add is a constant shift and the
            # scale a scalar divide — both pass the gradient through).
            tmp = take(weights.shape, grad.dtype)
            np.multiply(gw, weights, out=tmp)
            inner = tmp.sum(axis=-1, keepdims=True)
            gs = take(weights.shape, grad.dtype)
            np.subtract(gw, inner, out=gs)
            np.multiply(weights, gs, out=gs)
            np.divide(gs, scale_arr, out=gs)
            if q.requires_grad:
                gq = take(q.shape, grad.dtype)
                np.matmul(gs, k.data, out=gq)
                q._accumulate(_unbroadcast(gq, q.shape))
            if k.requires_grad:
                grad_kt = np.matmul(q.data.swapaxes(-1, -2), gs)
                k._accumulate(grad_kt.swapaxes(-1, -2))

    out = Tensor._from_op(data, (q, k, v), backward)
    return out, _detached(weights)


# ----------------------------------------------------------------------
# pairwise-attention logits
# ----------------------------------------------------------------------


def _fused_pairwise_logits_impl(
    query: Tensor,
    candidates: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
) -> Tensor:
    """The full Eq. (9)/(13)/(17) scoring network as one node.

    ``query`` (B, d_q) broadcasts over the H candidates (B, H, d_c) —
    as a stride-0 view, never the (B, H, d_q) zero-tile the original
    op-by-op path materialized — then
    ``logits = w2^T relu(W1 [q (+) c] + b1) + b2`` of shape (B, H).
    """
    batch, count, __ = candidates.shape
    dim_q = query.shape[-1]
    tiled = np.broadcast_to(query.data.reshape(batch, 1, dim_q), (batch, count, dim_q))
    joint = np.concatenate([tiled, candidates.data], axis=-1)
    pre = np.matmul(joint, w1.data) + b1.data
    mask = pre > 0
    hidden = pre * mask
    out = np.matmul(hidden, w2.data) + b2.data  # (B, H, 1)
    data = out.reshape(batch, count)

    def backward(grad: np.ndarray) -> None:
        with scratch_lease() as take:
            g3 = grad.reshape(batch, count, 1)
            # Accumulation order replays the unfused reverse-topo walk:
            # b2, w2 (output linear), b1, w1 (hidden linear), then
            # candidates and query (concat + broadcast).
            if b2.requires_grad:
                b2._accumulate(_unbroadcast(g3, b2.shape))
            if w2.requires_grad:
                w2._accumulate(
                    _unbroadcast(np.matmul(hidden.swapaxes(-1, -2), g3), w2.shape)
                )
            gh = take(hidden.shape, grad.dtype)
            np.matmul(g3, w2.data.swapaxes(-1, -2), out=gh)
            np.multiply(gh, mask, out=gh)  # relu backward
            if b1.requires_grad:
                b1._accumulate(_unbroadcast(gh, b1.shape))
            if w1.requires_grad:
                w1._accumulate(
                    _unbroadcast(np.matmul(joint.swapaxes(-1, -2), gh), w1.shape)
                )
            gj = take(joint.shape, grad.dtype)
            np.matmul(gh, w1.data.swapaxes(-1, -2), out=gj)
            if candidates.requires_grad:
                candidates._accumulate(gj[..., dim_q:])
            if query.requires_grad:
                gq = _unbroadcast(gj[..., :dim_q], (batch, 1, dim_q))
                query._accumulate(gq.reshape(query.shape))

    parents = (query, candidates, w1, b1, w2, b2)
    return Tensor._from_op(data, parents, backward)


# Installed as class attributes so the op profiler can intercept them by
# patching Tensor, mirroring _concatenate/_stack/_where.
Tensor._fused_linear_relu = staticmethod(_fused_linear_relu_impl)
Tensor._fused_masked_attention = staticmethod(_fused_masked_attention_impl)
Tensor._fused_pairwise_logits = staticmethod(_fused_pairwise_logits_impl)


def fused_linear_relu(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``relu(x @ weight + bias)`` as one graph node."""
    return Tensor._fused_linear_relu(x, weight, bias)


def fused_masked_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    bias: Optional[np.ndarray] = None,
    scale: float = 1.0,
) -> Tuple[Tensor, Tensor]:
    """``softmax(q k^T / scale + bias) @ v``; returns (output, weights)."""
    return Tensor._fused_masked_attention(q, k, v, bias, scale)


def fused_pairwise_logits(
    query: Tensor,
    candidates: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
) -> Tensor:
    """Pairwise-attention scoring network logits of shape (B, H)."""
    return Tensor._fused_pairwise_logits(query, candidates, w1, b1, w2, b2)
