"""im2col / col2im lowering and numeric helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import functional as F
from repro.utils.rng import new_rng


def naive_conv2d(x, weight, stride, padding):
    """Direct convolution used as the ground truth for the lowering."""
    batch, in_ch, height, width = x.shape
    out_ch, _, kernel, _ = weight.shape
    out_h = F.conv_output_size(height, kernel, stride, padding)
    out_w = F.conv_output_size(width, kernel, stride, padding)
    x_padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((batch, out_ch, out_h, out_w), dtype=np.float64)
    for b in range(batch):
        for oc in range(out_ch):
            for oh in range(out_h):
                for ow in range(out_w):
                    patch = x_padded[
                        b, :, oh * stride : oh * stride + kernel,
                        ow * stride : ow * stride + kernel,
                    ]
                    out[b, oc, oh, ow] = (patch * weight[oc]).sum()
    return out


@pytest.mark.parametrize("stride,padding,kernel", [(1, 0, 3), (1, 1, 3), (2, 1, 3),
                                                   (2, 0, 2), (1, 2, 5)])
def test_im2col_matmul_equals_naive_convolution(stride, padding, kernel):
    rng = new_rng(0)
    x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
    weight = rng.normal(size=(4, 3, kernel, kernel)).astype(np.float32)
    cols, (out_h, out_w) = F.im2col(x, kernel, stride, padding)
    out_cols = cols @ weight.reshape(4, -1).T
    lowered = F.cols_to_feature_map(out_cols, 2, out_h, out_w)
    naive = naive_conv2d(x, weight, stride, padding)
    assert lowered.shape == naive.shape
    np.testing.assert_allclose(lowered, naive, rtol=1e-4, atol=1e-4)


def test_conv_output_size():
    assert F.conv_output_size(32, 3, 1, 1) == 32
    assert F.conv_output_size(32, 3, 2, 1) == 16
    assert F.conv_output_size(8, 2, 2, 0) == 4


def test_col2im_is_adjoint_of_im2col():
    """<im2col(x), y> == <x, col2im(y)> -- required for correct gradients."""
    rng = new_rng(1)
    x = rng.normal(size=(2, 3, 6, 6)).astype(np.float64)
    cols, _ = F.im2col(x, 3, 2, 1)
    y = rng.normal(size=cols.shape).astype(np.float64)
    lhs = float((cols * y).sum())
    rhs = float((x * F.col2im(y, x.shape, 3, 2, 1)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_feature_map_cols_roundtrip():
    rng = new_rng(2)
    fmap = rng.normal(size=(2, 5, 3, 4)).astype(np.float32)
    cols = F.feature_map_to_cols(fmap)
    assert cols.shape == (2 * 3 * 4, 5)
    back = F.cols_to_feature_map(cols, 2, 3, 4)
    np.testing.assert_array_equal(back, fmap)


def test_softmax_rows_sum_to_one():
    rng = new_rng(3)
    logits = rng.normal(size=(7, 10)).astype(np.float32) * 20
    probs = F.softmax(logits)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(7), rtol=1e-5)
    assert np.all(probs >= 0)


@given(st.integers(min_value=1, max_value=20))
@settings(deadline=None)
def test_one_hot(num_classes):
    labels = np.arange(num_classes) % num_classes
    encoded = F.one_hot(labels, num_classes)
    assert encoded.shape == (num_classes, num_classes)
    assert np.array_equal(encoded.argmax(axis=1), labels)
    assert np.all(encoded.sum(axis=1) == 1)
