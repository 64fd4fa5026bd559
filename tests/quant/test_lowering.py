"""Quantize-then-lower: the quantized conv layers lower uint8 feature maps.

:class:`~repro.quant.qmodel.QuantizedModel` quantizes each feature map once
and lowers the uint8 map, instead of lowering the float map and quantizing
the (up to KH*KW times larger) im2col matrix.  Zero padding quantizes to
zero, so both orders give the same matrix bit for bit; these tests pin that
equivalence, the lowering itself, and the wrappers that still hand the hook
float columns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.eval.macs import model_mac_counts
from repro.nn import functional as F
from repro.nn import Conv2d, GlobalAvgPool2d, Linear, ReLU, Sequential
from repro.nn.layers.combine import conv_bn_relu
from repro.quant.calibration import calibrate_model
from repro.quant.engine import ExactEngine
from repro.quant.qmodel import QuantConfig, QuantizedModel
from repro.quant.quantizer import activation_scale, quantize_activations
from repro.utils.rng import new_rng
from tests.strategies import STANDARD_SETTINGS


def _im2col_as_strided(x, kernel, stride, padding):
    """The window-view lowering the layers used before, kept as an oracle."""
    batch, channels, height, width = x.shape
    out_h = F.conv_output_size(height, kernel, stride, padding)
    out_w = F.conv_output_size(width, kernel, stride, padding)
    x_padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    s = x_padded.strides
    windows = np.lib.stride_tricks.as_strided(
        x_padded,
        shape=(batch, channels, out_h, out_w, kernel, kernel),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
        writeable=False,
    )
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch * out_h * out_w, channels * kernel * kernel
    )


@st.composite
def lowering_case(draw):
    """A post-ReLU feature map, its activation scale and a conv geometry."""
    kernel = draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.integers(0, 2))
    batch = draw(st.sampled_from([1, 64]))
    channels = draw(st.integers(1, 6))
    depthwise = draw(st.booleans())
    size = draw(st.integers(max(1, kernel - 2 * padding), 9))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = new_rng(seed)
    x = np.maximum(rng.normal(size=(batch, channels, size, size)), 0.0)
    x = x.astype(np.float32)
    scale = activation_scale(float(x.max()) * draw(st.sampled_from([0.5, 1.0])))
    groups = channels if depthwise else 1
    return x, scale, kernel, stride, padding, groups


@STANDARD_SETTINGS
@given(case=lowering_case())
def test_quantize_then_lower_equals_lower_then_quantize(case):
    x, scale, kernel, stride, padding, groups = case
    x_q = quantize_activations(x, scale).values
    assert x_q.dtype == np.uint8
    per_group = x.shape[1] // groups
    for group in range(groups):
        channels = slice(group * per_group, (group + 1) * per_group)
        lowered_q, out_hw = F.im2col(x_q[:, channels], kernel, stride, padding)
        lowered, float_hw = F.im2col(x[:, channels], kernel, stride, padding)
        assert out_hw == float_hw
        assert lowered_q.dtype == np.uint8 and lowered_q.flags.c_contiguous
        np.testing.assert_array_equal(
            lowered_q, quantize_activations(lowered, scale).values
        )


@STANDARD_SETTINGS
@given(case=lowering_case())
def test_im2col_matches_the_window_view_oracle(case):
    x, scale, kernel, stride, padding, _ = case
    for operand in (x, quantize_activations(x, scale).values):
        cols, _ = F.im2col(operand, kernel, stride, padding)
        oracle = _im2col_as_strided(operand, kernel, stride, padding)
        assert cols.dtype == operand.dtype
        np.testing.assert_array_equal(cols, oracle)


def _quantizable_model():
    """Regular, depthwise and strided 1x1 convs behind a float first conv."""
    return Sequential(
        conv_bn_relu(3, 4, 3, seed=0),
        Conv2d(4, 4, 3, padding=1, groups=4, bias=False, seed=1),
        ReLU(),
        Conv2d(4, 8, 3, padding=2, bias=True, seed=2),
        ReLU(),
        Conv2d(8, 8, 1, stride=2, bias=False, seed=3),
        ReLU(),
        GlobalAvgPool2d(),
        Linear(8, 5, seed=4),
    )


class _RecordingEngine(ExactEngine):
    """The exact engine, noting the activation dtype of every call."""

    def __init__(self):
        self.dtypes: list[np.dtype] = []

    def matmul(self, x_q, w_q, ctx):
        self.dtypes.append(x_q.dtype)
        return super().matmul(x_q, w_q, ctx)


@pytest.fixture
def images():
    return new_rng(0).normal(size=(16, 3, 8, 8)).astype(np.float32)


def test_uint8_lowering_equals_hook_quantizing_float_columns(images):
    """Installed hooks lower uint8 maps; a foreign wrapper passes float cols.

    Either way the engine sees the same operands, so the logits agree bit
    for bit (depthwise, padded, strided and linear layers included).
    """
    model = _quantizable_model()
    calibration = calibrate_model(model, images, include_linear=True)
    engine = _RecordingEngine()
    qmodel = QuantizedModel(
        model, calibration, engine, config=QuantConfig(include_linear=True)
    )
    assert all(
        hasattr(layer.hook, "prepare_input") for layer in qmodel.layers.values()
    )
    seen: list[np.dtype] = []

    def spy(cols, weight_2d, hook):
        seen.append(cols.dtype)
        return hook(cols, weight_2d)

    direct = qmodel.forward(images)
    for layer in qmodel.layers.values():
        hook = layer.module.matmul_fn
        layer.module.matmul_fn = lambda c, w, hook=hook: spy(c, w, hook)
    try:
        wrapped = model(images)
    finally:
        for layer in qmodel.layers.values():
            layer.module.matmul_fn = layer.hook
    assert seen and all(dtype == np.float32 for dtype in seen)
    assert len(engine.dtypes) == 2 * len(seen)
    assert all(dtype == np.uint8 for dtype in engine.dtypes)
    np.testing.assert_array_equal(direct, wrapped)


def test_mac_counts_and_calibration_unchanged_by_installed_qmodel(images):
    model = _quantizable_model()
    bare_counts = model_mac_counts(model, image_size=8)
    bare = calibrate_model(model, images)
    with QuantizedModel(model, bare):
        assert model_mac_counts(model, image_size=8) == bare_counts
        installed = calibrate_model(model, images)
    assert installed.act_max == bare.act_max
    assert installed.act_scales == bare.act_scales
    assert installed.column_stats.keys() == bare.column_stats.keys()
    for name, stats in bare.column_stats.items():
        np.testing.assert_array_equal(installed.column_stats[name].p_wide, stats.p_wide)
        np.testing.assert_array_equal(
            installed.column_stats[name].p_nonzero, stats.p_nonzero
        )


def test_training_through_installed_qmodel_keeps_float_weight_gradients(images):
    """In train mode the layers lower float maps, so backward's cached
    columns (and the weight gradients built from them) stay float.

    The reference hands the hooks float columns through a wrapper without
    ``prepare_input``: the hook quantizes them itself and the layer caches
    the float matrix.
    """
    model = _quantizable_model()
    qmodel = QuantizedModel(model, calibrate_model(model, images))
    model.train()
    grads = []
    for wrap in (False, True):
        if wrap:
            for layer in qmodel.layers.values():
                hook = layer.hook
                layer.module.matmul_fn = lambda c, w, hook=hook: hook(c, w)
        model.zero_grad()
        out = model(images)
        model.backward(np.ones_like(out))
        grads.append({name: p.grad.copy() for name, p in model.named_parameters()})
    for layer in qmodel.layers.values():
        layer.module.matmul_fn = layer.hook
    assert grads[0].keys() == grads[1].keys()
    for name, grad in grads[1].items():
        np.testing.assert_array_equal(grads[0][name], grad, err_msg=name)
