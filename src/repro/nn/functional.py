"""Low-level tensor operations shared by the layers.

The central primitive is the im2col / col2im lowering that turns a 2D
convolution into a matrix multiplication.  The same lowering is what the
paper's systolic-array mapping uses (conv as matmul, Section IV-A), so the
quantized executor and the SySMT simulators consume exactly these matrices.
"""

from __future__ import annotations

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, tuple[int, int]]:
    """Lower an NCHW tensor into the (rows, patch) matrix of a convolution.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``, of any dtype (the quantized layers
        lower uint8 maps, the float layers float32 ones).
    kernel, stride, padding:
        Square-kernel convolution geometry.

    Returns
    -------
    cols:
        C-contiguous matrix of shape ``(N * OH * OW, C * kernel * kernel)``
        and the dtype of ``x``.  Row ``r`` holds the flattened receptive
        field of output position ``r``, in ``(C, KH, KW)`` order.
    (OH, OW):
        The spatial output size.
    """
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    # An NHWC layout puts the channels of every pixel side by side, so each
    # kernel tap below is a single strided block copy.  Only padding needs
    # the layout materialized; otherwise the taps read the transposed view.
    padded = x.transpose(0, 2, 3, 1)
    if padding:
        padded = np.zeros(
            (batch, height + 2 * padding, width + 2 * padding, channels),
            dtype=x.dtype,
        )
        padded[:, padding : padding + height, padding : padding + width] = (
            x.transpose(0, 2, 3, 1)
        )
    cols = np.empty((batch, out_h, out_w, channels, kernel, kernel), dtype=x.dtype)
    for kh in range(kernel):
        for kw in range(kernel):
            cols[..., kh, kw] = padded[
                :,
                kh : kh + stride * out_h : stride,
                kw : kw + stride * out_w : stride,
            ]
    rows = batch * out_h * out_w
    return cols.reshape(rows, channels * kernel * kernel), (out_h, out_w)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col` for gradients (overlaps are accumulated)."""
    batch, channels, height, width = x_shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding),
        dtype=cols.dtype,
    )
    cols6 = cols.reshape(batch, out_h, out_w, channels, kernel, kernel)
    for kh in range(kernel):
        for kw in range(kernel):
            padded[
                :,
                :,
                kh : kh + stride * out_h : stride,
                kw : kw + stride * out_w : stride,
            ] += cols6[:, :, :, :, kh, kw].transpose(0, 3, 1, 2)
    if padding == 0:
        return padded
    return padded[:, :, padding : padding + height, padding : padding + width]


def cols_to_feature_map(
    out_cols: np.ndarray, batch: int, out_h: int, out_w: int
) -> np.ndarray:
    """Reshape a ``(N*OH*OW, C_out)`` matmul result back into NCHW."""
    out_channels = out_cols.shape[1]
    return out_cols.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)


def feature_map_to_cols(grad_out: np.ndarray) -> np.ndarray:
    """Reshape an NCHW gradient into the ``(N*OH*OW, C_out)`` layout."""
    batch, out_channels, out_h, out_w = grad_out.shape
    return grad_out.transpose(0, 2, 3, 1).reshape(batch * out_h * out_w, out_channels)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer labels."""
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded
