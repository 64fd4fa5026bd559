"""Fully-connected layer.

The paper leaves fully-connected layers intact (not executed under NB-SMT),
but the layer still participates in training and quantized inference, and
exposes the same ``matmul_fn`` hook as :class:`~repro.nn.layers.conv.Conv2d`.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.nn.module import Module, Parameter
from repro.utils.rng import new_rng

MatmulFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


class Linear(Module):
    """Affine layer ``y = x @ W^T + b`` over the last dimension."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        seed: int | None = None,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = new_rng(seed)
        scale = np.sqrt(2.0 / in_features)
        self.weight = Parameter(
            rng.normal(0.0, scale, size=(out_features, in_features)).astype(np.float32)
        )
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None
        self.matmul_fn: MatmulFn = lambda x, w: x @ w
        self._cache: dict[str, np.ndarray] = {}

    def weight_matrix(self) -> np.ndarray:
        """Weights as the ``(K, N)`` matmul operand."""
        return self.weight.value.T

    def macs_per_image(self) -> int:
        return self.in_features * self.out_features

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError("Linear expects a flattened (batch, features) input")
        out = self.matmul_fn(x, self.weight_matrix())
        if self.bias is not None:
            out = out + self.bias.value
        self._cache = {"x": x} if self.training else {}
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if not self._cache:
            raise self.no_backward_state()
        x = self._cache["x"]
        self.weight.grad += grad_out.T @ x
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        self._cache = {}
        return grad_out @ self.weight.value
