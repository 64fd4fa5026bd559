"""Statistics-gathering (calibration) pass.

Mirrors the paper's "quick statistics gathering run" (Section V-A): on a
random subset of the training set it

1. averages the per-layer activation min/max values used for the 8-bit
   activation quantizer,
2. optionally re-estimates the batch-norm running statistics, and
3. logs the per-column activation statistics used by the data-arrangement
   (reordering) mechanism of Section IV-B.

None of these steps involves gradient computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.layers.conv import Conv2d
from repro.nn.layers.linear import Linear
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.module import Module
from repro.quant.quantizer import activation_scale, quantize_activations

#: Quantized activation values below this threshold fit in the 4-bit LSBs.
FOUR_BIT_LIMIT = 16


@dataclass
class ColumnStats:
    """Per-K-column activation statistics of one lowered layer.

    ``p_wide`` is the probability that the column's quantized activation
    needs more than 4 bits; ``p_nonzero`` the probability that it is nonzero.
    Columns with high ``p_wide`` are the ones the reordering mechanism tries
    to pair with sparse columns of the other thread.
    """

    p_wide: np.ndarray
    p_nonzero: np.ndarray

    @property
    def num_columns(self) -> int:
        return int(self.p_wide.shape[0])


@dataclass
class CalibrationResult:
    """Everything the quantized executor needs about one model."""

    act_max: dict[str, float] = field(default_factory=dict)
    act_scales: dict[str, float] = field(default_factory=dict)
    column_stats: dict[str, ColumnStats] = field(default_factory=dict)
    num_batches: int = 0

    def scale_for(self, layer_name: str) -> float:
        return self.act_scales[layer_name]


def _target_layers(model: Module, include_linear: bool) -> dict[str, Module]:
    """Layers whose matmul inputs we observe (all convs, optionally linears)."""
    targets: dict[str, Module] = {}
    for name, module in model.named_modules():
        if isinstance(module, Conv2d):
            targets[name] = module
        elif include_linear and isinstance(module, Linear):
            targets[name] = module
    return targets


def recalibrate_batchnorm(
    model: Module, images: np.ndarray, batch_size: int = 64
) -> None:
    """Re-estimate BN running statistics with a cumulative moving average."""
    bn_layers = [m for m in model.modules() if isinstance(m, BatchNorm2d)]
    if not bn_layers:
        return
    for bn in bn_layers:
        bn.reset_running_stats()
    model.train()
    num_batches = max(1, (images.shape[0] + batch_size - 1) // batch_size)
    for index in range(num_batches):
        batch = images[index * batch_size : (index + 1) * batch_size]
        if batch.shape[0] == 0:
            break
        momentum = 1.0 / (index + 1)
        for bn in bn_layers:
            bn.momentum = momentum
        model(batch)
    for bn in bn_layers:
        bn.momentum = 0.1
    model.eval()


def calibrate_model(
    model: Module,
    images: np.ndarray,
    batch_size: int = 64,
    include_linear: bool = False,
    recalibrate_bn: bool = True,
    collect_column_stats: bool = True,
) -> CalibrationResult:
    """Run the statistics-gathering pass and return a :class:`CalibrationResult`.

    Calibration must observe the model's *floating-point* behavior.  If a
    :class:`~repro.quant.qmodel.QuantizedModel` is currently installed on the
    model, its hooks are bypassed for the duration of this function (both the
    batch-norm recalibration and the statistics passes), then restored:
    calibrating through quantized execution would bake quantization noise
    into the BN statistics and the activation scales.
    """
    from repro.quant.qmodel import unwrap_matmul_fn

    targets = _target_layers(model, include_linear)
    installed = {name: layer.matmul_fn for name, layer in targets.items()}
    originals = {name: unwrap_matmul_fn(fn) for name, fn in installed.items()}
    try:
        for name, layer in targets.items():
            layer.matmul_fn = originals[name]
        result = _calibrate_float_model(
            model, images, batch_size, targets, originals,
            recalibrate_bn, collect_column_stats,
        )
    finally:
        for name, layer in targets.items():
            layer.matmul_fn = installed[name]
    return result


def _calibrate_float_model(
    model: Module,
    images: np.ndarray,
    batch_size: int,
    targets: dict[str, Module],
    originals: dict[str, object],
    recalibrate_bn: bool,
    collect_column_stats: bool,
) -> CalibrationResult:
    if recalibrate_bn:
        recalibrate_batchnorm(model, images, batch_size)
    model.eval()

    result = CalibrationResult()

    # Pass 1: per-batch max of the lowered activation matrix, averaged.
    max_sums = {name: 0.0 for name in targets}
    batch_counts = {name: 0 for name in targets}

    def make_max_observer(name: str, original):
        def observer(cols: np.ndarray, weight_2d: np.ndarray) -> np.ndarray:
            max_sums[name] += float(np.clip(cols, 0.0, None).max(initial=0.0))
            batch_counts[name] += 1
            return original(cols, weight_2d)

        return observer

    try:
        for name, layer in targets.items():
            layer.matmul_fn = make_max_observer(name, originals[name])
        num_batches = 0
        for start in range(0, images.shape[0], batch_size):
            model(images[start : start + batch_size])
            num_batches += 1
    finally:
        for name, layer in targets.items():
            layer.matmul_fn = originals[name]

    result.num_batches = num_batches
    for name in targets:
        count = max(batch_counts[name], 1)
        result.act_max[name] = max_sums[name] / count
        result.act_scales[name] = activation_scale(result.act_max[name])

    if not collect_column_stats:
        return result

    # Pass 2: per-column probability of needing 8 bits / being nonzero,
    # measured on the quantized activations (needs the scales from pass 1).
    wide_sums: dict[str, np.ndarray] = {}
    nonzero_sums: dict[str, np.ndarray] = {}
    row_counts = {name: 0 for name in targets}

    def make_column_observer(name: str, original):
        def observer(cols: np.ndarray, weight_2d: np.ndarray) -> np.ndarray:
            q = quantize_activations(cols, result.act_scales[name]).values
            wide = (q >= FOUR_BIT_LIMIT).sum(axis=0)
            nonzero = (q > 0).sum(axis=0)
            if name not in wide_sums:
                wide_sums[name] = np.zeros(cols.shape[1], dtype=np.float64)
                nonzero_sums[name] = np.zeros(cols.shape[1], dtype=np.float64)
            if wide_sums[name].shape[0] == cols.shape[1]:
                wide_sums[name] += wide
                nonzero_sums[name] += nonzero
                row_counts[name] += cols.shape[0]
            return original(cols, weight_2d)

        return observer

    try:
        for name, layer in targets.items():
            layer.matmul_fn = make_column_observer(name, originals[name])
        for start in range(0, images.shape[0], batch_size):
            model(images[start : start + batch_size])
    finally:
        for name, layer in targets.items():
            layer.matmul_fn = originals[name]

    for name in targets:
        if name not in wide_sums:
            continue
        rows = max(row_counts[name], 1)
        result.column_stats[name] = ColumnStats(
            p_wide=(wide_sums[name] / rows).astype(np.float64),
            p_nonzero=(nonzero_sums[name] / rows).astype(np.float64),
        )
    return result
