"""2D convolution lowered to matrix multiplication (im2col).

The convolution is the layer the paper's accelerator executes: activations
and weights are lowered to ``(M, K)`` and ``(K, N)`` matrices and multiplied.
The ``matmul_fn`` hook is the injection point used by :mod:`repro.quant` to
replace the exact floating-point product with a quantized NB-SMT execution.
A hook may carry a ``prepare_input(x)`` attribute: in eval mode the layer
then lowers ``prepare_input(x)`` instead of ``x`` (the quantized executor
quantizes the feature map to uint8 once, before im2col multiplies its size
by KH*KW).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module, Parameter
from repro.utils.rng import new_rng

MatmulFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _default_matmul(cols: np.ndarray, weight_2d: np.ndarray) -> np.ndarray:
    return cols @ weight_2d


class Conv2d(Module):
    """Square-kernel 2D convolution with optional grouping (for depthwise).

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.  ``out_channels`` must be divisible by ``groups``.
    kernel_size, stride, padding:
        Convolution geometry (square kernels only).
    bias:
        Whether to add a per-output-channel bias.
    groups:
        Number of channel groups; ``groups == in_channels`` gives a depthwise
        convolution (used by the MobileNet-v1 analogue).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        groups: int = 1,
        seed: int | None = None,
    ):
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError("channel counts must be divisible by groups")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups

        rng = new_rng(seed)
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        self.weight = Parameter(
            rng.normal(
                0.0,
                scale,
                size=(out_channels, in_channels // groups, kernel_size, kernel_size),
            ).astype(np.float32)
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None

        #: hook replaced by the quantized executor; receives the im2col matrix
        #: (M, K) and the reshaped weights (K, N) and returns (M, N).  Its
        #: optional ``prepare_input`` maps the NCHW input before lowering, in
        #: eval mode only.
        self.matmul_fn: MatmulFn = _default_matmul

        self._cache: dict[str, object] = {}

    # -- helpers -------------------------------------------------------------
    def weight_matrix(self) -> np.ndarray:
        """Weights reshaped to the ``(K, N)`` matmul operand (single group)."""
        out_channels = self.out_channels
        return self.weight.value.reshape(out_channels, -1).T

    def output_spatial(self, height: int, width: int) -> tuple[int, int]:
        return (
            F.conv_output_size(height, self.kernel_size, self.stride, self.padding),
            F.conv_output_size(width, self.kernel_size, self.stride, self.padding),
        )

    def macs_per_image(self, height: int, width: int) -> int:
        """Number of multiply-accumulate operations for one input image."""
        out_h, out_w = self.output_spatial(height, width)
        k = (self.in_channels // self.groups) * self.kernel_size**2
        return out_h * out_w * k * self.out_channels

    # -- forward / backward ----------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, height, width = x.shape
        if channels != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {channels}"
            )
        # Only in eval mode: backward computes the weight gradient from the
        # cached columns, which must stay float in training.
        prepare_input = getattr(self.matmul_fn, "prepare_input", None)
        if prepare_input is not None and not self.training:
            x = prepare_input(x)
        # An eval-mode forward keeps no columns for a backward pass.
        self._cache = {}
        if self.groups == 1:
            cols, (out_h, out_w) = F.im2col(
                x, self.kernel_size, self.stride, self.padding
            )
            out_cols = self.matmul_fn(cols, self.weight_matrix())
            if self.training:
                self._cache = {"x_shape": x.shape, "cols": cols}
        else:
            out_cols, out_h, out_w, group_cols = self._grouped_forward(x)
            if self.training:
                self._cache = {"x_shape": x.shape, "group_cols": group_cols}
        if self.bias is not None:
            out_cols = out_cols + self.bias.value
        return F.cols_to_feature_map(out_cols, batch, out_h, out_w)

    def _grouped_forward(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, int, int, list[np.ndarray]]:
        group_in = self.in_channels // self.groups
        group_out = self.out_channels // self.groups
        outputs = []
        group_cols = []  # kept for backward, so filled in training only
        out_h = out_w = 0
        for group in range(self.groups):
            x_group = x[:, group * group_in : (group + 1) * group_in]
            cols, (out_h, out_w) = F.im2col(
                x_group, self.kernel_size, self.stride, self.padding
            )
            weight_group = (
                self.weight.value[group * group_out : (group + 1) * group_out]
                .reshape(group_out, -1)
                .T
            )
            outputs.append(self.matmul_fn(cols, weight_group))
            if self.training:
                group_cols.append(cols)
        return np.concatenate(outputs, axis=1), out_h, out_w, group_cols

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if not self._cache:
            raise self.no_backward_state()
        grad_cols_out = F.feature_map_to_cols(grad_out)
        if self.bias is not None:
            self.bias.grad += grad_cols_out.sum(axis=0)
        if self.groups == 1:
            grad_in = self._ungrouped_backward(grad_cols_out)
        else:
            grad_in = self._grouped_backward(grad_cols_out)
        self._cache = {}
        return grad_in

    def _ungrouped_backward(self, grad_cols_out: np.ndarray) -> np.ndarray:
        cols = self._cache["cols"]
        x_shape = self._cache["x_shape"]
        grad_weight_2d = cols.T @ grad_cols_out  # (K, N)
        self.weight.grad += grad_weight_2d.T.reshape(self.weight.value.shape)
        grad_cols_in = grad_cols_out @ self.weight_matrix().T
        return F.col2im(
            grad_cols_in, x_shape, self.kernel_size, self.stride, self.padding
        )

    def _grouped_backward(self, grad_cols_out: np.ndarray) -> np.ndarray:
        x_shape = self._cache["x_shape"]
        group_cols = self._cache["group_cols"]
        group_in = self.in_channels // self.groups
        group_out = self.out_channels // self.groups
        batch, _, height, width = x_shape
        grad_in = np.zeros(x_shape, dtype=np.float32)
        for group in range(self.groups):
            grad_group = grad_cols_out[:, group * group_out : (group + 1) * group_out]
            cols = group_cols[group]
            weight_slice = slice(group * group_out, (group + 1) * group_out)
            grad_weight_2d = cols.T @ grad_group
            self.weight.grad[weight_slice] += grad_weight_2d.T.reshape(
                group_out, group_in, self.kernel_size, self.kernel_size
            )
            weight_group = self.weight.value[weight_slice].reshape(group_out, -1).T
            grad_cols_in = grad_group @ weight_group.T
            grad_in[:, group * group_in : (group + 1) * group_in] += F.col2im(
                grad_cols_in,
                (batch, group_in, height, width),
                self.kernel_size,
                self.stride,
                self.padding,
            )
        return grad_in
