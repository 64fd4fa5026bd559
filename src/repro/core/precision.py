"""On-the-fly precision reduction (Section III-C1).

When a thread collision cannot be resolved by sparsity or data-width
variability, NB-SMT truncates the colliding operand to its 4-bit MSBs.  To
mitigate the truncation noise, the value is first rounded to the nearest
integer that is a whole multiple of 16 (2^4).

Activations are unsigned (post-ReLU) 8-bit values; weights are signed 8-bit
values.  "Fitting in 4 bits" therefore means ``0 <= x <= 15`` for activations
and ``-8 <= w <= 7`` for weights.
"""

from __future__ import annotations

import numpy as np

#: Largest unsigned value representable by the 4-bit MSBs after reduction.
ACT_REDUCED_MAX = 240
#: Signed weight range representable by the 4-bit MSBs after reduction.
WGT_REDUCED_MIN = -128
WGT_REDUCED_MAX = 112


def _build_luts() -> tuple[np.ndarray, np.ndarray]:
    """256-entry lookup tables of the rounded 4-bit MSB reductions.

    The reduction is a pure elementwise function of an 8-bit operand, so the
    hot paths replace the round/divide/clip arithmetic with one table lookup.
    Activation entries are indexed by the unsigned value, weight entries by
    ``value + 128``.
    """
    act = np.arange(256, dtype=np.int64)
    act_lut = np.clip((act + 8) // 16 * 16, 0, ACT_REDUCED_MAX)
    wgt = np.arange(-128, 128, dtype=np.int64)
    wgt_lut = np.clip(
        np.floor_divide(wgt + 8, 16) * 16, WGT_REDUCED_MIN, WGT_REDUCED_MAX
    )
    return act_lut, wgt_lut


_ACT_REDUCE_LUT, _WGT_REDUCE_LUT = _build_luts()


def act_fits_4bit(x: np.ndarray | int) -> np.ndarray:
    """True where an unsigned activation is representable by its 4-bit LSBs."""
    x = np.asarray(x)
    return (x >= 0) & (x <= 15)


def wgt_fits_4bit(w: np.ndarray | int) -> np.ndarray:
    """True where a signed weight is representable by a signed 4-bit value."""
    w = np.asarray(w)
    return (w >= -8) & (w <= 7)


def _round_to_multiple_of_16(value: np.ndarray) -> np.ndarray:
    """Round to the nearest whole multiple of 16 (ties round up, like RTL adders)."""
    return np.floor_divide(value + 8, 16) * 16


def reduce_act_to_4bit_msb(x: np.ndarray | int) -> np.ndarray:
    """Reduce unsigned activations to the value their rounded 4-bit MSBs encode.

    The result is always a multiple of 16 within ``[0, 240]``; e.g. 46 -> 48
    and 178 -> 176 (the example of Fig. 2a).
    """
    x = np.asarray(x)
    if x.dtype.kind in "iu":
        return _ACT_REDUCE_LUT.take(np.clip(x, 0, 255))
    reduced = _round_to_multiple_of_16(x)
    return np.clip(reduced, 0, ACT_REDUCED_MAX)


def reduce_wgt_to_4bit_msb(w: np.ndarray | int) -> np.ndarray:
    """Reduce signed weights to the value their rounded 4-bit MSBs encode."""
    w = np.asarray(w)
    if w.dtype.kind in "iu":
        # Widened first: ``+ 128`` overflows an int8 operand.
        return _WGT_REDUCE_LUT.take(np.clip(w, -128, 127).astype(np.intp) + 128)
    reduced = _round_to_multiple_of_16(w)
    return np.clip(reduced, WGT_REDUCED_MIN, WGT_REDUCED_MAX)


def reduction_error_bound() -> int:
    """Worst-case absolute error introduced by a single operand reduction."""
    return 8


def prepare_act_operand(x: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """Operand preparation of Algorithm 1 for a colliding activation.

    Returns ``(nibble, shift)`` where ``nibble`` is the 4-bit value driven
    into the multiplier port and ``shift`` indicates whether the product must
    be shifted left by 4 (the MSB path).  Values that fit in 4 bits keep
    their LSBs and need no shift; wider values are rounded and keep their
    MSBs, to be shifted after multiplication.
    """
    x = np.asarray(x)
    fits = act_fits_4bit(x)
    reduced = reduce_act_to_4bit_msb(x)
    nibble = np.where(fits, x, reduced >> 4)
    shift = np.where(fits, 0, 1)
    return nibble.astype(np.int64), shift.astype(np.int64)


def prepare_wgt_operand(w: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """Operand preparation for a colliding weight (signed counterpart)."""
    w = np.asarray(w)
    fits = wgt_fits_4bit(w)
    reduced = reduce_wgt_to_4bit_msb(w)
    nibble = np.where(fits, w, reduced >> 4)
    shift = np.where(fits, 0, 1)
    return nibble.astype(np.int64), shift.astype(np.int64)
