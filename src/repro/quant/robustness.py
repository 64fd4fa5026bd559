"""Whole-model on-the-fly precision reduction (the robustness study of Fig. 7).

A 2-threaded SySMT at worst reduces *every* activation (or weight) to 4 bits;
a 4-threaded SySMT at worst reduces both.  Fig. 7 measures those worst cases
by quantizing the entire model on the fly -- exactly the same rounding and
truncation the PEs apply, with no recalibration -- giving the lower accuracy
bound of the NB-SMT execution (A4W8 / A8W4 / A4W4 operating points).
"""

from __future__ import annotations

import numpy as np

from repro.core.packing import act_reduction_delta, wgt_reduction_delta
from repro.core.policies import get_policy
from repro.quant.engine import LayerContext, exact_int_matmul

#: The operating points of Fig. 7, as (reduce_activations, reduce_weights).
OPERATING_POINTS: dict[str, tuple[bool, bool]] = {
    "A8W8": (False, False),
    "A4W8": (True, False),
    "A8W4": (False, True),
    "A4W4": (True, True),
}


class ReducedPrecisionEngine:
    """Unconditionally reduce activations and/or weights to 4 bits on the fly.

    Values that already fit in 4 bits are untouched (they are exactly
    representable by the 4-bit path); wider values are rounded to the nearest
    multiple of 16 and truncated to their MSBs, exactly as the PE does.  The
    reduction is the NB-SMT kernels' own data-width delta (policies ``A`` and
    ``W``), so the rounding has one definition.
    """

    def __init__(self, reduce_activations: bool, reduce_weights: bool):
        self.reduce_activations = reduce_activations
        self.reduce_weights = reduce_weights

    @classmethod
    def from_point(cls, point: str) -> "ReducedPrecisionEngine":
        if point not in OPERATING_POINTS:
            raise KeyError(
                f"unknown operating point {point!r}; known: {sorted(OPERATING_POINTS)}"
            )
        return cls(*OPERATING_POINTS[point])

    def matmul(
        self, x_q: np.ndarray, w_q: np.ndarray, ctx: LayerContext
    ) -> np.ndarray:
        x_eff = x_q
        w_eff = w_q
        if self.reduce_activations:
            x_eff = x_q + act_reduction_delta(x_q, get_policy("A"))
        if self.reduce_weights:
            w_eff = w_q + wgt_reduction_delta(w_q, get_policy("W"))
        ctx.add_stat("macs", x_q.shape[0] * x_q.shape[1] * w_q.shape[1])
        return exact_int_matmul(x_eff, w_eff)


def robustness_sweep(
    qmodel,
    images: np.ndarray,
    labels: np.ndarray,
    points: tuple[str, ...] = ("A8W8", "A4W8", "A8W4", "A4W4"),
    batch_size: int = 64,
) -> dict[str, float]:
    """Accuracy of a quantized model at each Fig. 7 operating point.

    ``qmodel`` is a :class:`repro.quant.qmodel.QuantizedModel`; its engine is
    temporarily replaced for each operating point and restored afterwards.
    """
    original_engine = qmodel.default_engine
    accuracies: dict[str, float] = {}
    try:
        for point in points:
            qmodel.set_engine(ReducedPrecisionEngine.from_point(point))
            accuracies[point] = qmodel.evaluate(images, labels, batch_size=batch_size)
    finally:
        qmodel.set_engine(original_engine)
    return accuracies
