"""Inverted dropout regularization (paper uses ratio 0.1)."""

from __future__ import annotations

import numpy as np

from repro.autograd.context import is_inference
from repro.autograd.tensor import Tensor
from repro.nn.module import Module
from repro.utils import RngLike, ensure_rng


class Dropout(Module):
    """Randomly zero activations during training, identity in eval mode.

    Also the identity inside :func:`repro.autograd.inference_mode`,
    the thread-local switch scoring code uses instead of ``eval()``.
    Uses inverted scaling so expected activations match between modes.
    """

    def __init__(self, rate: float = 0.1, rng: RngLike = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._rng = ensure_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.rate == 0.0 or is_inference():
            return x
        keep = 1.0 - self.rate
        mask = (self._rng.random(x.shape) < keep).astype(x.data.dtype) / keep
        return x * Tensor(mask)
