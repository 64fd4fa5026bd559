"""Spatial pooling layers (max, average, global average)."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module


class MaxPool2d(Module):
    """Square max pooling."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding
        self._cache: dict[str, object] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            self._cache = {}
            return self._max_over_taps(x)
        batch, channels, height, width = x.shape
        merged = x.reshape(batch * channels, 1, height, width)
        cols, (out_h, out_w) = F.im2col(
            merged, self.kernel_size, self.stride, self.padding
        )
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        self._cache = {"x_shape": x.shape, "cols_shape": cols.shape, "argmax": argmax}
        return out.reshape(batch, channels, out_h, out_w)

    def _max_over_taps(self, x: np.ndarray) -> np.ndarray:
        """The eval-mode forward: an elementwise max over the strided taps.

        The taps come in im2col's (KH, KW) order over the same zero-padded
        map.  Each is the first operand of ``np.maximum``, whose loops (like
        the x86 max instruction) return the second operand for two equal
        zeros, so a -0.0/+0.0 tie keeps the earlier tap, as ``argmax`` does;
        ``tests/nn/test_eval_paths.py`` pins this.
        """
        batch, channels, height, width = x.shape
        kernel, stride, padding = self.kernel_size, self.stride, self.padding
        out_h = F.conv_output_size(height, kernel, stride, padding)
        out_w = F.conv_output_size(width, kernel, stride, padding)
        padded = x
        if padding:
            padded = np.zeros(
                (batch, channels, height + 2 * padding, width + 2 * padding),
                dtype=x.dtype,
            )
            padded[:, :, padding : padding + height, padding : padding + width] = x
        out = None
        for kh in range(kernel):
            for kw in range(kernel):
                tap = padded[
                    :,
                    :,
                    kh : kh + stride * out_h : stride,
                    kw : kw + stride * out_w : stride,
                ]
                if out is None:
                    # C order, as the training path returns: a later
                    # reduction (global average pooling) sums in memory
                    # order, so the layout is part of the result.
                    out = tap.copy()
                else:
                    np.maximum(tap, out, out=out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if not self._cache:
            raise self.no_backward_state()
        batch, channels, height, width = self._cache["x_shape"]
        cols_shape = self._cache["cols_shape"]
        argmax = self._cache["argmax"]
        grad_cols = np.zeros(cols_shape, dtype=np.float32)
        grad_cols[np.arange(cols_shape[0]), argmax] = grad_out.reshape(-1)
        grad_merged = F.col2im(
            grad_cols,
            (batch * channels, 1, height, width),
            self.kernel_size,
            self.stride,
            self.padding,
        )
        self._cache = {}
        return grad_merged.reshape(batch, channels, height, width)


class AvgPool2d(Module):
    """Square average pooling."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding
        self._cache: dict[str, object] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, height, width = x.shape
        merged = x.reshape(batch * channels, 1, height, width)
        cols, (out_h, out_w) = F.im2col(
            merged, self.kernel_size, self.stride, self.padding
        )
        out = cols.mean(axis=1)
        self._cache = {"x_shape": x.shape, "cols_shape": cols.shape, "out_hw": (out_h, out_w)}
        return out.reshape(batch, channels, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        batch, channels, height, width = self._cache["x_shape"]
        cols_shape = self._cache["cols_shape"]
        grad_cols = np.repeat(
            grad_out.reshape(-1, 1) / (self.kernel_size**2), cols_shape[1], axis=1
        )
        grad_merged = F.col2im(
            grad_cols,
            (batch * channels, 1, height, width),
            self.kernel_size,
            self.stride,
            self.padding,
        )
        self._cache = {}
        return grad_merged.reshape(batch, channels, height, width)


class GlobalAvgPool2d(Module):
    """Average over the full spatial extent, producing ``(N, C)``."""

    def __init__(self):
        super().__init__()
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        batch, channels, height, width = self._x_shape
        grad_in = np.broadcast_to(
            grad_out[:, :, None, None] / (height * width),
            (batch, channels, height, width),
        ).astype(np.float32)
        self._x_shape = None
        return np.array(grad_in)
