"""Reverse-mode automatic differentiation on numpy arrays.

This subpackage is the substrate that replaces PyTorch in this
reproduction: a small but complete tensor library with broadcasting-aware
gradients, batched matrix multiplication, stable softmax/log-sigmoid
primitives, the masking operations the GroupSA attention stack needs,
and fused attention/MLP kernels with a global floating dtype policy.

The public surface mirrors the familiar torch idioms::

    from repro.autograd import Tensor, no_grad

    x = Tensor([[1.0, 2.0]], requires_grad=True)
    y = (x @ x.transpose(-1, -2)).sum()
    y.backward()
    x.grad  # numpy array with d(y)/d(x)
"""

from repro.autograd.context import (
    fused_ops,
    fused_ops_enabled,
    inference_mode,
    is_grad_enabled,
    is_inference,
    no_grad,
    set_fused_ops,
    set_sparse_grads,
    sparse_grads,
    sparse_grads_enabled,
)
from repro.autograd.dtype import (
    default_dtype,
    dtype_policy,
    resolve_dtype,
    set_default_dtype,
)
from repro.autograd.fused import (
    fused_linear_relu,
    fused_masked_attention,
    fused_pairwise_logits,
)
from repro.autograd.grad_check import gradcheck, numerical_gradient
from repro.autograd.pool import (
    clear_scratch_pool,
    scratch_lease,
    scratch_pool_stats,
    set_scratch_pool,
)
from repro.autograd.sparse import RowSparseGrad
from repro.autograd.tensor import Tensor, as_tensor

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "inference_mode",
    "is_inference",
    "sparse_grads",
    "sparse_grads_enabled",
    "set_sparse_grads",
    "fused_ops",
    "fused_ops_enabled",
    "set_fused_ops",
    "fused_linear_relu",
    "fused_masked_attention",
    "fused_pairwise_logits",
    "default_dtype",
    "dtype_policy",
    "resolve_dtype",
    "set_default_dtype",
    "scratch_lease",
    "set_scratch_pool",
    "clear_scratch_pool",
    "scratch_pool_stats",
    "RowSparseGrad",
    "gradcheck",
    "numerical_gradient",
]
