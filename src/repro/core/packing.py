"""Vectorized effective-operand computation (the functional model of Algorithm 1).

Given the per-thread operand values at one MAC position, these helpers decide
what value each thread *effectively* multiplies after the PE resolves the
collision under a given :class:`~repro.core.policies.PackingPolicy`:

* a thread that does not collide keeps its exact 8-bit operands;
* a colliding operand that fits in 4 bits keeps its exact value (LSB path);
* a colliding operand whose partner fits in 4 bits may swap ports and keep
  its exact value (``Aw`` / ``aW``);
* otherwise the operand is rounded and truncated to its 4-bit MSBs.

All functions operate elementwise on arrays of any (broadcastable) shape, so
the same code serves the functional matmul executor, the cycle-level PE model
and the unit tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.policies import PackingPolicy
from repro.core.precision import (
    _WGT_REDUCE_LUT,
    act_fits_4bit,
    reduce_act_to_4bit_msb,
    reduce_wgt_to_4bit_msb,
    wgt_fits_4bit,
)


def _act_delta_uint8(x: np.ndarray, width_primary: bool) -> np.ndarray:
    """The activation reduction delta of uint8 ``x`` by uint8 arithmetic.

    ``x + 8`` masked to its 4 MSBs is the rounded reduction, except that it
    wraps to 0 for ``x >= 248``, whose reduction clips at 240; subtracting
    16 there fixes both at once (a multiply by 16: uint8 shifts are not
    vectorized).  Every step wraps modulo 256 and the true delta lies in
    ``[-15, 8]``, so the result read as int8 is exact.  Each step is an
    in-place uint8 ufunc over the operand: about a tenth of the cost of a
    table look-up, which converts every index to intp.
    """
    delta = x + 8
    delta &= 0xF0
    clipped = (x >= 248).view(np.uint8)
    clipped *= 16
    delta -= clipped
    delta -= x
    if width_primary:
        delta *= (x > 15).view(np.uint8)
    return delta.view(np.int8)


def _build_delta_luts() -> dict[tuple[str, bool], np.ndarray]:
    """Reduction-delta lookup tables, keyed by (operand, width_primary).

    ``delta[value] = reduced(value) - value`` with the entries where the value
    already fits in 4 bits zeroed when the policy exploits data-width.  The
    deltas are bounded by 15 (8 from rounding, widened by clipping at the
    range ends, e.g. 255 -> 240), so they are stored as int8: the downstream
    masked-delta GEMMs are memory-bandwidth bound and narrow operands matter.
    The activation tables are :func:`_act_delta_uint8` evaluated on every
    uint8 value, so the 4-thread tables and the 2-thread arithmetic share
    one definition; weight tables are indexed by ``value + 128``.
    """
    act_values = np.arange(256, dtype=np.uint8)
    wgt_values = np.arange(-128, 128, dtype=np.int64)
    wgt_delta = _WGT_REDUCE_LUT - wgt_values
    return {
        ("act", False): _act_delta_uint8(act_values, False),
        ("act", True): _act_delta_uint8(act_values, True),
        ("wgt", False): wgt_delta.astype(np.int8),
        ("wgt", True): np.where(
            wgt_fits_4bit(wgt_values), 0, wgt_delta
        ).astype(np.int8),
    }


_DELTA_LUTS = _build_delta_luts()


def thread_active(x: np.ndarray, w: np.ndarray, use_sparsity: bool) -> np.ndarray:
    """Whether a thread actually needs the MAC unit at this position.

    With sparsity detection (the ``S`` component) a thread whose activation
    or weight is zero is considered inactive; without it every thread is
    treated as demanding the MAC.
    """
    if not use_sparsity:
        return np.ones(np.broadcast(x, w).shape, dtype=bool)
    return (np.asarray(x) != 0) & (np.asarray(w) != 0)


def colliding_act(
    x: np.ndarray, w: np.ndarray, policy: PackingPolicy
) -> np.ndarray:
    """Effective activation of a colliding thread under an act-reduction policy."""
    x = np.asarray(x)
    w = np.asarray(w)
    keep_exact = np.zeros(np.broadcast(x, w).shape, dtype=bool)
    if policy.width_primary:
        keep_exact = keep_exact | act_fits_4bit(x)
    if policy.width_secondary:
        keep_exact = keep_exact | wgt_fits_4bit(w)
    return np.where(keep_exact, x, reduce_act_to_4bit_msb(x))


def colliding_wgt(
    x: np.ndarray, w: np.ndarray, policy: PackingPolicy
) -> np.ndarray:
    """Effective weight of a colliding thread under a wgt-reduction policy."""
    x = np.asarray(x)
    w = np.asarray(w)
    keep_exact = np.zeros(np.broadcast(x, w).shape, dtype=bool)
    if policy.width_primary:
        keep_exact = keep_exact | wgt_fits_4bit(w)
    if policy.width_secondary:
        keep_exact = keep_exact | act_fits_4bit(x)
    return np.where(keep_exact, w, reduce_wgt_to_4bit_msb(w))


def colliding_product_2t(
    x: np.ndarray, w: np.ndarray, policy: PackingPolicy
) -> np.ndarray:
    """Product contributed by a colliding thread when two threads share the MAC."""
    x = np.asarray(x, dtype=np.int64)
    w = np.asarray(w, dtype=np.int64)
    if policy.reduce == "act":
        return colliding_act(x, w, policy) * w
    return x * colliding_wgt(x, w, policy)


def colliding_product_4t(
    x: np.ndarray, w: np.ndarray, policy: PackingPolicy
) -> np.ndarray:
    """Product contributed by a thread in a 3- or 4-way collision.

    With three or more active threads the 4-threaded fMUL falls back to
    4b-4b products (Section IV-C2): both operands are reduced to 4 bits,
    keeping LSBs where the value fits and rounded MSBs otherwise.  The
    data-width checks are applied whenever the policy exploits data-width at
    all (``width_primary``); a pure-sparsity policy always truncates to MSBs.
    """
    x = np.asarray(x, dtype=np.int64)
    w = np.asarray(w, dtype=np.int64)
    use_width = policy.width_primary
    if use_width:
        x_eff = np.where(act_fits_4bit(x), x, reduce_act_to_4bit_msb(x))
        w_eff = np.where(wgt_fits_4bit(w), w, reduce_wgt_to_4bit_msb(w))
    else:
        x_eff = reduce_act_to_4bit_msb(x)
        w_eff = reduce_wgt_to_4bit_msb(w)
    return x_eff * w_eff


def act_reduction_delta(x: np.ndarray, policy: PackingPolicy) -> np.ndarray:
    """``x_effective - x`` for a colliding activation, ignoring the swap path.

    Used by the factorized 2-thread executor: where the policy keeps the
    exact value (4-bit fit) the delta is zero.  Integer operands are
    computed in uint8 (:func:`_act_delta_uint8`) and returned as int8;
    other integer dtypes are clipped to ``[0, 255]`` and narrowed first, so
    an out-of-range value gets the delta of its clipped value.
    """
    x = np.asarray(x)
    if x.dtype.kind in "iu":
        if x.dtype != np.uint8:
            x = np.clip(x, 0, 255).astype(np.uint8)
        return _act_delta_uint8(x, policy.width_primary)
    x = x.astype(np.int64)
    delta = reduce_act_to_4bit_msb(x) - x
    if policy.width_primary:
        delta = np.where(act_fits_4bit(x), 0, delta)
    return delta


def wgt_reduction_delta(w: np.ndarray, policy: PackingPolicy) -> np.ndarray:
    """``w_effective - w`` for a colliding weight, ignoring the swap path."""
    w = np.asarray(w)
    if w.dtype.kind in "iu":
        # Widened first: ``+ 128`` overflows an int8 operand.
        return _DELTA_LUTS[("wgt", policy.width_primary)].take(
            np.clip(w, -128, 127).astype(np.intp) + 128
        )
    w = w.astype(np.int64)
    delta = reduce_wgt_to_4bit_msb(w) - w
    if policy.width_primary:
        delta = np.where(wgt_fits_4bit(w), 0, delta)
    return delta
