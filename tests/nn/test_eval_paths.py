"""Eval-mode layer paths: the training-mode formulas, bit for bit, with no
backward state.

Each eval path (ReLU, BatchNorm2d, MaxPool2d, ResidualBlock, and the
quantizer's ``quantize_activations`` / ``dequantize`` epilogue) is checked
against the formula the training-mode path computes, on drawn float32
inputs that mix in -0.0, NaN, +-inf, denormals and tied values.  Outputs
must agree in dtype, shape, memory layout (a later reduction such as
global average pooling sums in memory order) and every bit, except that
NaNs only have to sit in the same places: which NaN a max returns is not
fixed by numpy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.models.zoo import MODEL_BUILDERS
from repro.nn import (
    Conv2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    ResidualBlock,
    Sequential,
)
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.module import Module
from repro.quant.calibration import calibrate_model
from repro.quant.qmodel import QuantizedModel
from repro.quant.quantizer import dequantize, quantize_activations
from repro.utils.rng import new_rng
from tests.nn.gradcheck import numerical_gradient_check
from tests.strategies import DETERMINISM_SETTINGS, QUICK_SETTINGS

#: Values drawn often, so that special cases and ties turn up in most maps.
SPECIALS = [
    0.0, -0.0, float("nan"), float("inf"), float("-inf"),
    1e-45, -1e-45, 1.1754942e-38, -1.1754942e-38,  # denormals
    1.0, -1.0, 2.5, -2.5, 127.5,
]


def float32s():
    return st.one_of(st.sampled_from(SPECIALS), st.floats(width=32))


@st.composite
def feature_maps(draw, min_side: int = 1, channels: int | None = None):
    """An NCHW float32 map, C-contiguous or an NCHW view of NHWC memory."""
    batch = draw(st.integers(1, 3))
    channels = channels or draw(st.integers(1, 4))
    height = draw(st.integers(min_side, min_side + 5))
    width = draw(st.integers(min_side, min_side + 5))
    if draw(st.booleans()):
        nhwc = draw(hnp.arrays(np.float32, (batch, height, width, channels),
                               elements=float32s()))
        return nhwc.transpose(0, 3, 1, 2)
    return draw(hnp.arrays(np.float32, (batch, channels, height, width),
                           elements=float32s()))


def _layout(array: np.ndarray) -> tuple[int, ...]:
    return tuple(
        stride for stride, size in zip(array.strides, array.shape) if size > 1
    )


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert _layout(got) == _layout(want)
    if got.dtype.kind != "f":
        np.testing.assert_array_equal(got, want)
        return
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    bits = np.dtype(f"u{got.dtype.itemsize}")
    np.testing.assert_array_equal(got[~nan].view(bits), want[~nan].view(bits))


def _unchanged(before: np.ndarray, after: np.ndarray) -> None:
    np.testing.assert_array_equal(before.view(np.uint32), after.view(np.uint32))


def _batch_norm(data, channels: int) -> BatchNorm2d:
    vector = hnp.arrays(np.float32, channels, elements=float32s())
    layer = BatchNorm2d(channels)
    layer.load_state_dict({
        "gamma": data.draw(vector),
        "beta": data.draw(vector),
        "running_mean": data.draw(vector),
        "running_var": data.draw(vector),
    })
    return layer.eval()


def _batch_norm_formula(layer: BatchNorm2d, x: np.ndarray) -> np.ndarray:
    """The training branch's expressions, on the running statistics."""
    inv_std = 1.0 / np.sqrt(layer.running_var + layer.eps)
    mean = layer.running_mean[None, :, None, None]
    x_hat = (x - mean) * inv_std[None, :, None, None]
    out = layer.gamma.value[None, :, None, None] * x_hat
    out = out + layer.beta.value[None, :, None, None]
    return out.astype(np.float32)


def check_relu(data) -> None:
    x = data.draw(feature_maps())
    before = x.copy()
    want = ReLU()(x)  # a new module is in training mode
    assert_same_bits(ReLU().eval()(x), want)
    _unchanged(before, x)


def check_batch_norm(data) -> None:
    x = data.draw(feature_maps())
    layer = _batch_norm(data, x.shape[1])
    assert_same_bits(layer(x), _batch_norm_formula(layer, x))


def check_max_pool(data) -> None:
    kernel = data.draw(st.integers(1, 3))
    stride = data.draw(st.integers(1, 3))
    padding = data.draw(st.integers(0, kernel // 2))
    x = data.draw(feature_maps(min_side=max(1, kernel - 2 * padding)))
    before = x.copy()
    want = MaxPool2d(kernel, stride, padding)(x)
    got = MaxPool2d(kernel, stride, padding).eval()(x)
    assert_same_bits(got, want)
    _unchanged(before, x)


class InputView(Module):
    """A body that returns a view of its input, as reshaping layers may."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x[:]


def check_residual_block(data) -> None:
    x = data.draw(feature_maps())
    channels = x.shape[1]
    # A batch-norm body owns its output in the input's layout (the in-place
    # sum).  A conv + batch-norm body owns an NHWC-laid output whatever the
    # input's layout, and a 1x1 max pool a C-order copy.  An identity body
    # returns the block's input and a view body a view of it; neither may
    # be written.
    kind = data.draw(st.sampled_from(
        ["batch_norm", "conv_batch_norm", "pool", "view", "identity"]
    ))
    body = {
        "batch_norm": lambda: _batch_norm(data, channels),
        "conv_batch_norm": lambda: Sequential(
            Conv2d(channels, channels, 1, bias=False, seed=0),
            _batch_norm(data, channels),
        ).eval(),
        "pool": lambda: MaxPool2d(1).eval(),
        "view": InputView,
        "identity": Identity,
    }[kind]()
    shortcut = _batch_norm(data, channels) if data.draw(st.booleans()) else None
    before = x.copy()
    skip = shortcut(x) if shortcut is not None else x
    want = ReLU()(body(x) + skip)
    got = ResidualBlock(body, shortcut).eval()(x)
    assert_same_bits(got, want)
    _unchanged(before, x)


def check_quantize_activations(data) -> None:
    x = data.draw(feature_maps())
    scale = data.draw(st.floats(min_value=1e-30, max_value=1e30))
    bits = data.draw(st.integers(1, 8))
    want = np.clip(np.rint(x / scale), 0, 2**bits - 1).astype(np.uint8)
    got = quantize_activations(x, scale, bits=bits)
    assert got.scale == scale
    assert_same_bits(got.values, want)


def check_dequantize(data) -> None:
    rows = data.draw(st.integers(1, 6))
    columns = data.draw(st.integers(1, 6))
    limit = 2**40
    accumulators = data.draw(hnp.arrays(
        np.int64, (rows, columns),
        elements=st.one_of(st.sampled_from([0, 1, -1, limit, -limit]),
                           st.integers(-limit, limit)),
    ))
    act_scale = data.draw(st.floats(min_value=0.0, allow_infinity=False))
    weight_scales = data.draw(hnp.arrays(
        np.float64, columns, elements=st.floats(min_value=0.0),
    ))
    want = (
        accumulators.astype(np.float64) * act_scale * weight_scales[None, :]
    ).astype(np.float32)
    assert_same_bits(dequantize(accumulators, act_scale, weight_scales), want)


EVAL_PATHS = {
    "relu": check_relu,
    "batch_norm": check_batch_norm,
    "max_pool": check_max_pool,
    "residual_block": check_residual_block,
    "quantize_activations": check_quantize_activations,
    "dequantize": check_dequantize,
}


@pytest.mark.parametrize("path", sorted(EVAL_PATHS))
@QUICK_SETTINGS
@given(data=st.data())
def test_eval_path_matches_training_formula(path, data):
    with np.errstate(all="ignore"):
        EVAL_PATHS[path](data)


@pytest.mark.slow
@pytest.mark.parametrize("path", sorted(EVAL_PATHS))
@DETERMINISM_SETTINGS
@given(data=st.data())
def test_eval_path_matches_training_formula_determinism_tier(path, data):
    with np.errstate(all="ignore"):
        EVAL_PATHS[path](data)


# -- no backward state in eval mode ----------------------------------------------


def _backward_state(module) -> list[str]:
    state = list(getattr(module, "_cache", None) or ())
    if getattr(module, "_mask", None) is not None:
        state.append("_mask")
    return state


def _leftovers(model) -> dict[str, list[str]]:
    return {
        name: state
        for name, module in model.named_modules()
        if (state := _backward_state(module))
    }


@pytest.mark.parametrize("name", ["resnet18", "alexnet"])
def test_eval_forward_of_zoo_model_keeps_no_backward_state(name):
    model = MODEL_BUILDERS[name]()
    images = new_rng(0).normal(size=(4, 3, 32, 32)).astype(np.float32)
    model.train()
    model(images)
    # The training forward leaves conv columns, ReLU masks (and AlexNet's
    # MaxPool argmax arrays) for its backward pass ...
    assert any("cols" in state for state in _leftovers(model).values())
    model.eval()
    model(images)
    # ... and an eval forward, float or quantized, drops all of them.
    assert _leftovers(model) == {}
    calibration = calibrate_model(model, images, batch_size=4)
    model.train()
    model(images)
    with QuantizedModel(model, calibration) as qmodel:
        qmodel.forward(images)
        assert _leftovers(model) == {}


def _layers():
    """(name, layer factory, input shape) for every layer with an eval path."""
    return [
        ("relu", ReLU, (2, 3, 4, 4)),
        ("batch_norm", lambda: BatchNorm2d(3), (4, 3, 3, 3)),
        ("conv", lambda: Conv2d(2, 3, 3, padding=1, seed=5), (2, 2, 5, 5)),
        ("depthwise_conv",
         lambda: Conv2d(2, 2, 3, stride=2, padding=1, bias=False, groups=2, seed=6),
         (1, 2, 6, 6)),
        ("max_pool", lambda: MaxPool2d(3, 2, 1), (2, 2, 6, 6)),
        ("linear", lambda: Linear(6, 4, seed=1), (3, 6)),
        ("residual_block",
         lambda: ResidualBlock(Sequential(
             Conv2d(2, 2, 3, padding=1, bias=False, seed=8), ReLU(),
             Conv2d(2, 2, 3, padding=1, bias=False, seed=9),
         )),
         (2, 2, 4, 4)),
    ]


@pytest.mark.parametrize(
    "make_layer, shape", [case[1:] for case in _layers()],
    ids=[case[0] for case in _layers()],
)
def test_backward_after_eval_forward_raises(make_layer, shape):
    layer = make_layer()
    x = new_rng(1).normal(size=shape).astype(np.float32)
    layer(x)  # a training forward first: its state must not be reused
    out = layer.eval()(x)
    with pytest.raises(RuntimeError, match="needs a training-mode forward"):
        layer.backward(np.ones_like(out))


def test_model_backward_after_eval_forward_raises():
    model = MODEL_BUILDERS["alexnet"]().eval()
    logits = model(new_rng(2).normal(size=(2, 3, 32, 32)).astype(np.float32))
    with pytest.raises(RuntimeError, match="needs a training-mode forward"):
        model.backward(np.ones_like(logits))


@pytest.mark.parametrize(
    "make_layer, shape", [case[1:] for case in _layers()],
    ids=[case[0] for case in _layers()],
)
def test_training_after_eval_passes_gradient_check(make_layer, shape):
    layer = make_layer()
    x = new_rng(3).normal(size=shape).astype(np.float32)
    layer.eval()(x)
    # numerical_gradient_check switches the layer back to training mode.
    numerical_gradient_check(layer, x, rtol=2e-2, atol=2e-3)
