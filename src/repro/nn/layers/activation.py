"""Activation functions.

ReLU is the source of the dynamic, unstructured activation sparsity the paper
exploits (Section II, "Sparsity"), so it is the only activation used by the
model zoo.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class ReLU(Module):
    """Rectified linear unit, ``max(x, 0)``."""

    def __init__(self):
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            self._mask = None
            # Bit-identical to the training form without its mask: fmax
            # maps NaN and negatives to 0 and keeps +-inf and denormals, and
            # adding +0.0 turns the -0.0 that fmax may keep into +0.0.
            out = np.fmax(x, 0.0, dtype=np.float32)
            out += 0.0
            return out
        self._mask = x > 0
        return np.where(self._mask, x, 0.0).astype(np.float32)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise self.no_backward_state()
        grad_in = grad_out * self._mask
        self._mask = None
        return grad_in
