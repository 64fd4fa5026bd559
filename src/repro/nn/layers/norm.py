"""Batch normalization.

The paper's calibration pass "corrects the batch-norm layers' running mean
and running variance" before quantized inference (Section V-A); the running
buffers here are what that recalibration updates.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter


class BatchNorm2d(Module):
    """Per-channel batch normalization over NCHW tensors."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features, dtype=np.float32))
        self.beta = Parameter(np.zeros(num_features, dtype=np.float32))
        self._buffers = {
            "running_mean": np.zeros(num_features, dtype=np.float32),
            "running_var": np.ones(num_features, dtype=np.float32),
        }
        self.running_mean = self._buffers["running_mean"]
        self.running_var = self._buffers["running_var"]
        self._cache: dict[str, np.ndarray] = {}

    def reset_running_stats(self) -> None:
        """Zero the running statistics (used before BN recalibration)."""
        self._buffers["running_mean"] = np.zeros(self.num_features, dtype=np.float32)
        self._buffers["running_var"] = np.ones(self.num_features, dtype=np.float32)
        object.__setattr__(self, "running_mean", self._buffers["running_mean"])
        object.__setattr__(self, "running_var", self._buffers["running_var"])

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            new_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            new_var = (1 - self.momentum) * self.running_var + self.momentum * var
            self._buffers["running_mean"] = new_mean.astype(np.float32)
            self._buffers["running_var"] = new_var.astype(np.float32)
            object.__setattr__(self, "running_mean", self._buffers["running_mean"])
            object.__setattr__(self, "running_var", self._buffers["running_var"])
        else:
            mean = self.running_mean
            var = self.running_var

        inv_std = 1.0 / np.sqrt(var + self.eps)
        if not self.training:
            # The same float operations in the same order on one buffer.
            self._cache = {}
            out = x - mean[None, :, None, None]
            out *= inv_std[None, :, None, None]
            np.multiply(self.gamma.value[None, :, None, None], out, out=out)
            out += self.beta.value[None, :, None, None]
            return out.astype(np.float32, copy=False)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = self.gamma.value[None, :, None, None] * x_hat
        out = out + self.beta.value[None, :, None, None]
        self._cache = {"x_hat": x_hat, "inv_std": inv_std}
        return out.astype(np.float32)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if not self._cache:
            raise self.no_backward_state()
        x_hat = self._cache["x_hat"]
        inv_std = self._cache["inv_std"]
        batch, _, height, width = grad_out.shape
        count = batch * height * width

        self.gamma.grad += (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_out.sum(axis=(0, 2, 3))

        grad_x_hat = grad_out * self.gamma.value[None, :, None, None]
        sum_grad = grad_x_hat.sum(axis=(0, 2, 3), keepdims=True)
        sum_grad_xhat = (grad_x_hat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        grad_in = (
            grad_x_hat - sum_grad / count - x_hat * sum_grad_xhat / count
        ) * inv_std[None, :, None, None]
        self._cache = {}
        return grad_in.astype(np.float32)

    def fold_into_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the equivalent per-channel scale and shift at inference time."""
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = self.gamma.value * inv_std
        shift = self.beta.value - self.running_mean * scale
        return scale, shift
