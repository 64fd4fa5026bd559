"""Whole-model precision reduction (Fig. 7) and the static PTQ baselines."""

import numpy as np
import pytest

from repro.core.precision import (
    act_fits_4bit,
    reduce_act_to_4bit_msb,
    reduce_wgt_to_4bit_msb,
    wgt_fits_4bit,
)
from repro.quant.baselines import (
    ACIQEngine,
    LBQEngine,
    aciq_clip_engine,
    lbq_search_engine,
)
from repro.quant.engine import LayerContext
from repro.quant.robustness import (
    OPERATING_POINTS,
    ReducedPrecisionEngine,
    robustness_sweep,
)
from repro.utils.rng import new_rng
from tests.conftest import make_quantized_pair


@pytest.fixture
def pair():
    return make_quantized_pair(new_rng(21), m=32, k=48, n=16)


# -- ReducedPrecisionEngine ------------------------------------------------------

def test_a8w8_point_is_exact(pair):
    x, w = pair
    engine = ReducedPrecisionEngine.from_point("A8W8")
    assert np.array_equal(engine.matmul(x, w, LayerContext("l")), x @ w)


def test_a4w8_reduces_only_wide_activations(pair):
    x, w = pair
    engine = ReducedPrecisionEngine.from_point("A4W8")
    out = engine.matmul(x, w, LayerContext("l"))
    narrow_only = np.clip(x, 0, 15)
    exact_if_narrow = engine.matmul(narrow_only, w, LayerContext("l"))
    assert np.array_equal(exact_if_narrow, narrow_only @ w)
    assert not np.array_equal(out, x @ w)


def test_a4w4_error_at_least_a4w8(pair):
    x, w = pair
    exact = x @ w
    errors = {}
    for point in ("A4W8", "A8W4", "A4W4"):
        engine = ReducedPrecisionEngine.from_point(point)
        out = engine.matmul(x, w, LayerContext("l"))
        errors[point] = float(((out - exact) ** 2).mean())
    assert errors["A4W4"] >= errors["A4W8"] * 0.99
    assert errors["A4W4"] >= errors["A8W4"] * 0.99


def test_reduction_matches_precision_reference_on_every_operand():
    # All 256 activations and all 255 symmetric int8 weights: the engine's
    # kernel-delta reduction equals the per-PE reference rounding.
    acts = np.arange(256, dtype=np.uint8)
    wgts = np.arange(-127, 128).astype(np.int8)
    a4w4 = ReducedPrecisionEngine.from_point("A4W4")
    ctx = LayerContext("l")
    # Identity operands expose each reduced value in the product.
    reduced_acts = a4w4.matmul(acts[:, None], np.ones((1, 1), np.int8), ctx)
    reduced_wgts = a4w4.matmul(np.ones((1, 1), np.uint8), wgts[None, :], ctx)
    expected_acts = np.where(
        act_fits_4bit(acts), acts, reduce_act_to_4bit_msb(acts)
    )
    expected_wgts = np.where(
        wgt_fits_4bit(wgts), wgts, reduce_wgt_to_4bit_msb(wgts)
    )
    assert np.array_equal(reduced_acts[:, 0], expected_acts)
    assert np.array_equal(reduced_wgts[0], expected_wgts)


def test_unknown_operating_point():
    with pytest.raises(KeyError):
        ReducedPrecisionEngine.from_point("A2W2")
    assert set(OPERATING_POINTS) == {"A8W8", "A4W8", "A8W4", "A4W4"}


def test_robustness_sweep_orders_accuracy(tiny_harness):
    accuracies = robustness_sweep(
        tiny_harness.qmodel,
        tiny_harness.eval_images,
        tiny_harness.eval_labels,
        batch_size=48,
    )
    assert set(accuracies) == set(OPERATING_POINTS)
    # On the tiny evaluation set quantization noise can occasionally help a
    # weak model, so the ordering is asserted with a slack margin.
    assert accuracies["A8W8"] >= accuracies["A4W4"] - 0.1
    assert all(0.0 <= value <= 1.0 for value in accuracies.values())
    # The engine is restored after the sweep.
    assert tiny_harness.qmodel.default_engine is not None


# -- static 4-bit PTQ baselines -----------------------------------------------------

def test_aciq_engine_produces_bounded_error(pair):
    x, w = pair
    engine = aciq_clip_engine(4, 8)
    out = engine.matmul(x, w, LayerContext("layer"))
    exact = x @ w
    assert out.shape == exact.shape
    relative = float(((out - exact) ** 2).sum()) / float((exact**2).sum())
    assert relative < 0.2


def test_lbq_engine_not_worse_than_aciq_on_its_objective(pair):
    x, w = pair
    exact = x @ w
    aciq = aciq_clip_engine(4, 8)
    lbq = lbq_search_engine(4, 8)
    aciq_mse = float(((aciq.matmul(x, w, LayerContext("l")) - exact) ** 2).mean())
    lbq_mse = float(((lbq.matmul(x, w, LayerContext("l")) - exact) ** 2).mean())
    # LBQ optimizes the output MSE directly, so it should not be (much) worse.
    assert lbq_mse <= aciq_mse * 1.05


def test_baseline_engines_cache_clips_per_layer(pair):
    x, w = pair
    engine = lbq_search_engine(4, 8)
    engine.matmul(x, w, LayerContext("layer_a"))
    engine.matmul(x, w, LayerContext("layer_b"))
    assert set(engine._act_clips) == {"layer_a", "layer_b"}


def test_weight_side_baselines(pair):
    x, w = pair
    exact = x @ w
    for engine in (ACIQEngine(8, 4), LBQEngine(8, 4, candidates=6)):
        out = engine.matmul(x, w, LayerContext("l"))
        relative = float(((out - exact) ** 2).sum()) / float((exact**2).sum())
        assert relative < 0.2
