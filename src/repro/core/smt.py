"""Functional NB-SMT matrix-multiply executor.

The SySMT hardware computes ``O = X @ W`` where each PE accumulates one
output element and the K dimension is split across T threads (output-register
sharing, Eq. (2)/(3)).  This module models that computation *functionally*:
it produces the exact integer accumulators the hardware would produce,
including the noise introduced when thread collisions force reduced-precision
products, together with per-layer statistics (collision breakdown,
utilization, MSE versus the error-free result).

Three implementations are provided and cross-checked by the test suite:

* a chunked **reference** path that materializes the per-position activity
  tensors and handles any thread count;
* a **factorized** fast path for two and four threads, which expresses the
  NB-SMT noise as extra matrix multiplications of masked deltas (the
  2-thread collision indicator factors into an activation-side and a
  weight-side mask; the 4-thread error is partitioned by the weight-side
  thread-activity pattern, which makes every demand gate a function of the
  activation-side pattern alone, so each error term is a separable block
  written with one table look-up; the blocks are stacked along the inner
  dimension and evaluated with a handful of BLAS calls);
* the seed's original 4-thread factorized implementation
  (:func:`_fast_4t_legacy`), kept as a cross-check oracle.

The factorized paths also reconstruct the *exact* statistics (including the
per-position reduction count) without materializing activity tensors: every
counter is a sum over positions of a function of the 4-bit thread-activity
pattern plus a few per-thread value predicates, so it reduces to per-K-column
histograms of small integer codes contracted against precomputed tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from repro.core import packing
from repro.core.policies import PackingPolicy, get_policy
from repro.core.precision import act_fits_4bit, wgt_fits_4bit
from repro.quant.engine import exact_int_matmul

#: Largest product-sum magnitude exactly representable by a float32 GEMM.
_F32_EXACT_LIMIT = 1 << 24
#: Largest product-sum magnitude exactly representable by a float64 GEMM.
_F64_EXACT_LIMIT = 1 << 53
#: Worst-case magnitude of a 4-bit reduction delta.  Rounding alone is
#: bounded by 8, but clipping at the representable range ends widens it
#: (255 -> 240, 127 -> 112); derived from the tables so it cannot drift.
_DELTA_MAX = int(
    max(np.abs(lut).max() for lut in packing._DELTA_LUTS.values())
)


@dataclass
class SMTStatistics:
    """Counters accumulated by the executor across calls.

    All counters refer to MAC *operations* (one per (m, k, n) position of the
    original matmul) or to PE issue *slots* (one per group of T MAC
    operations that share a PE cycle).
    """

    mac_total: int = 0
    mac_active: int = 0
    mac_collided: int = 0
    mac_reduced: int = 0
    slots_total: int = 0
    slots_active: int = 0
    act_values: int = 0
    act_nonzero: int = 0
    sum_sq_error: float = 0.0
    sum_sq_exact: float = 0.0
    outputs: int = 0

    def merge(self, other: "SMTStatistics") -> None:
        for name in (
            "mac_total",
            "mac_active",
            "mac_collided",
            "mac_reduced",
            "slots_total",
            "slots_active",
            "act_values",
            "act_nonzero",
            "sum_sq_error",
            "sum_sq_exact",
            "outputs",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    # -- derived quantities -------------------------------------------------
    @property
    def activation_sparsity(self) -> float:
        """Fraction of zero-valued quantized activations."""
        if self.act_values == 0:
            return 0.0
        return 1.0 - self.act_nonzero / self.act_values

    @property
    def baseline_utilization(self) -> float:
        """Fraction of conventional-SA MAC cycles doing useful work."""
        if self.mac_total == 0:
            return 0.0
        return self.mac_active / self.mac_total

    @property
    def smt_utilization(self) -> float:
        """Fraction of SySMT PE issue slots doing useful work."""
        if self.slots_total == 0:
            return 0.0
        return self.slots_active / self.slots_total

    @property
    def utilization_gain(self) -> float:
        """Utilization improvement of SySMT over the conventional SA (Fig. 9)."""
        if self.baseline_utilization == 0.0:
            return 1.0
        return self.smt_utilization / self.baseline_utilization

    @property
    def collision_rate(self) -> float:
        if self.mac_total == 0:
            return 0.0
        return self.mac_collided / self.mac_total

    @property
    def reduction_rate(self) -> float:
        if self.mac_total == 0:
            return 0.0
        return self.mac_reduced / self.mac_total

    @property
    def relative_mse(self) -> float:
        """MSE of the noisy output relative to the mean square of the exact output."""
        if self.sum_sq_exact == 0.0:
            return 0.0
        return self.sum_sq_error / self.sum_sq_exact

    @property
    def mse(self) -> float:
        if self.outputs == 0:
            return 0.0
        return self.sum_sq_error / self.outputs

    def to_payload(self) -> dict[str, float]:
        """Raw counters as a JSON-able dict (see :meth:`from_payload`)."""
        return {
            "mac_total": int(self.mac_total),
            "mac_active": int(self.mac_active),
            "mac_collided": int(self.mac_collided),
            "mac_reduced": int(self.mac_reduced),
            "slots_total": int(self.slots_total),
            "slots_active": int(self.slots_active),
            "act_values": int(self.act_values),
            "act_nonzero": int(self.act_nonzero),
            "sum_sq_error": float(self.sum_sq_error),
            "sum_sq_exact": float(self.sum_sq_exact),
            "outputs": int(self.outputs),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SMTStatistics":
        """Rebuild the counters from :meth:`to_payload` output.

        Integer counters survive a JSON round trip exactly, and the two
        float sums round-trip bit-exactly through ``json`` (repr-based), so
        ``from_payload(json.loads(json.dumps(s.to_payload())))`` reproduces
        every derived statistic bit-for-bit.
        """
        stats = cls()
        for name in (
            "mac_total", "mac_active", "mac_collided", "mac_reduced",
            "slots_total", "slots_active", "act_values", "act_nonzero",
            "outputs",
        ):
            setattr(stats, name, int(payload[name]))
        stats.sum_sq_error = float(payload["sum_sq_error"])
        stats.sum_sq_exact = float(payload["sum_sq_exact"])
        return stats

    def as_dict(self) -> dict[str, float]:
        return {
            "mac_total": float(self.mac_total),
            "mac_active": float(self.mac_active),
            "mac_collided": float(self.mac_collided),
            "mac_reduced": float(self.mac_reduced),
            "slots_total": float(self.slots_total),
            "slots_active": float(self.slots_active),
            "activation_sparsity": self.activation_sparsity,
            "baseline_utilization": self.baseline_utilization,
            "smt_utilization": self.smt_utilization,
            "utilization_gain": self.utilization_gain,
            "collision_rate": self.collision_rate,
            "reduction_rate": self.reduction_rate,
            "relative_mse": self.relative_mse,
            "mse": self.mse,
        }


def split_into_threads(
    x_q: np.ndarray, w_q: np.ndarray, threads: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split the K dimension into ``threads`` contiguous slices (Eq. (2)).

    Returns arrays of shape ``(T, M, K/T)`` and ``(T, K/T, N)``; K is padded
    with zeros (inactive positions) when not divisible by the thread count.
    """
    m, k = x_q.shape
    k_w, n = w_q.shape
    if k != k_w:
        raise ValueError("inner dimensions of X and W differ")
    per_thread = -(-k // threads)  # ceil division
    padded_k = per_thread * threads
    if padded_k != k:
        x_pad = np.zeros((m, padded_k), dtype=x_q.dtype)
        x_pad[:, :k] = x_q
        w_pad = np.zeros((padded_k, n), dtype=w_q.dtype)
        w_pad[:k, :] = w_q
        x_q, w_q = x_pad, w_pad
    x_threads = x_q.reshape(m, threads, per_thread).transpose(1, 0, 2)
    w_threads = w_q.reshape(threads, per_thread, n)
    return np.ascontiguousarray(x_threads), np.ascontiguousarray(w_threads)


def _as_int64(a: np.ndarray) -> np.ndarray:
    """View the array as int64, copying only when the dtype actually differs."""
    return a if a.dtype == np.int64 else a.astype(np.int64)


def _int_gemm(left: np.ndarray, right: np.ndarray, bound: float) -> np.ndarray:
    """Exact integer matmul of integer-valued matrices through BLAS.

    ``bound`` is an upper bound on ``sum_k |left[m, k] * right[k, n]|``; it
    decides the narrowest float dtype whose accumulations stay lossless
    (every partial sum is an integer below the mantissa limit, so the result
    is exact regardless of the accumulation order).
    """
    if bound < _F32_EXACT_LIMIT:
        dtype = np.float32
    elif bound < _F64_EXACT_LIMIT:
        dtype = np.float64
    else:  # pragma: no cover - unreachable for 8-bit operands
        return _as_int64(left) @ _as_int64(right)
    return np.rint(left.astype(dtype) @ right.astype(dtype)).astype(np.int64)


def _exactness_groups(bounds: list[float]) -> list[tuple[list[int], type]]:
    """Partition GEMM terms into exactly evaluable groups.

    ``bounds[i]`` upper-bounds the product-sum magnitude of term ``i``.
    Terms are packed in order into float32 groups whose summed bounds stay
    below the float32 mantissa limit; a term too large for float32 on its
    own gets a float64 group.  Returns ``(term indices, dtype)`` pairs.
    """
    groups: list[tuple[list[int], type]] = []
    group: list[int] = []
    group_bound = 0.0
    for index, bound in enumerate(bounds):
        if bound >= _F32_EXACT_LIMIT:
            groups.append(([index], np.float64))
            continue
        if group and group_bound + bound >= _F32_EXACT_LIMIT:
            groups.append((group, np.float32))
            group, group_bound = [], 0.0
        group.append(index)
        group_bound += bound
    if group:
        groups.append((group, np.float32))
    return groups


class NBSMTMatmul:
    """Functional NB-SMT executor for a fixed thread count and policy.

    Parameters
    ----------
    threads:
        Number of DNN threads sharing each PE (1, 2 or 4).  One thread is
        the conventional, error-free execution.
    policy:
        A :class:`PackingPolicy` or its Table III name.
    collect_stats:
        Maintain the :class:`SMTStatistics` counters (requires computing the
        exact result as well; disable for pure-speed runs).
    force_reference:
        Always use the chunked reference implementation (used by tests to
        validate the factorized fast paths).
    chunk_rows:
        Row chunk size of the reference implementation.
    fast4t_impl:
        ``"stacked"`` (default) selects the optimized stacked-GEMM 4-thread
        path; ``"legacy"`` selects the seed's original factorized
        implementation, kept as a cross-check oracle (its ``mac_reduced``
        counter is a collision-count proxy, not the exact reduction count).
    prune_blocks:
        Row selection in the stacked 4-thread path: each error block is
        stacked only over the K rows where its weight-side activity pattern
        occurs (otherwise over all K rows).  Bit-exact either way.
    """

    def __init__(
        self,
        threads: int = 2,
        policy: PackingPolicy | str = "S+A",
        collect_stats: bool = True,
        force_reference: bool = False,
        chunk_rows: int = 256,
        fast4t_impl: str = "stacked",
        prune_blocks: bool = True,
    ):
        if threads not in (1, 2, 4):
            raise ValueError("NB-SMT supports 1, 2 or 4 threads")
        if fast4t_impl not in ("stacked", "legacy"):
            raise ValueError("fast4t_impl must be 'stacked' or 'legacy'")
        self.threads = threads
        self.policy = get_policy(policy) if isinstance(policy, str) else policy
        self.collect_stats = collect_stats
        self.force_reference = force_reference
        self.chunk_rows = chunk_rows
        self.fast4t_impl = fast4t_impl
        self.prune_blocks = prune_blocks
        self.stats = SMTStatistics()

    # -- public API -----------------------------------------------------------
    def reset_stats(self) -> None:
        self.stats = SMTStatistics()

    def matmul(
        self,
        x_q: np.ndarray,
        w_q: np.ndarray,
        permutation: np.ndarray | None = None,
    ) -> np.ndarray:
        """Integer accumulators of the NB-SMT execution of ``x_q @ w_q``.

        ``x_q`` holds unsigned 8-bit activations (shape ``(M, K)``), ``w_q``
        signed 8-bit weights (shape ``(K, N)``).  ``permutation`` optionally
        reorders the K dimension before the threads are formed (Section IV-B);
        the result is unchanged by any permutation when no noise is injected.
        """
        x_q = np.asarray(x_q)
        w_q = np.asarray(w_q)
        if permutation is not None:
            x_q = x_q[:, permutation]
            w_q = w_q[permutation, :]

        if self.threads == 1:
            out = exact_int_matmul(x_q, w_q)
            if self.collect_stats:
                self._record_single_thread(x_q, w_q)
            return out

        if self.threads == 2 and not self.force_reference:
            out, stats = _fast_2t(x_q, w_q, self.policy, self.collect_stats)
        else:
            x_t, w_t = split_into_threads(x_q, w_q, self.threads)
            if self.force_reference:
                out, stats = _reference_multi_t(
                    x_t, w_t, self.policy, self.collect_stats, self.chunk_rows
                )
            elif self.fast4t_impl == "legacy":
                out, stats = _fast_4t_legacy(
                    x_t, w_t, self.policy, self.collect_stats
                )
            else:
                out, stats = _fast_4t(
                    x_t, w_t, self.policy, self.collect_stats,
                    prune_blocks=self.prune_blocks,
                )
        if self.collect_stats and stats is not None:
            self.stats.merge(stats)
        return out

    # -- internals --------------------------------------------------------------
    def _record_single_thread(self, x_q: np.ndarray, w_q: np.ndarray) -> None:
        stats = SMTStatistics()
        active = _count_active(x_q, w_q)
        total = x_q.shape[0] * x_q.shape[1] * w_q.shape[1]
        stats.mac_total = total
        stats.mac_active = active
        stats.slots_total = total
        stats.slots_active = active
        stats.act_values = int(x_q.size)
        stats.act_nonzero = int(np.count_nonzero(x_q))
        stats.outputs = x_q.shape[0] * w_q.shape[1]
        self.stats.merge(stats)


def _count_active(x_q: np.ndarray, w_q: np.ndarray) -> int:
    """Number of (m, k, n) MAC positions where both operands are nonzero."""
    x_nonzero = (x_q != 0).astype(np.int64)
    w_nonzero = (w_q != 0).astype(np.int64)
    return int(x_nonzero.sum(axis=0) @ w_nonzero.sum(axis=1))


def _operand_range(a: np.ndarray) -> tuple[int, int]:
    """``(min, max)`` of an operand, reduced in its own dtype (0 if empty)."""
    return int(a.min(initial=0)), int(a.max(initial=0))


def _narrowed(
    x_q: np.ndarray, w_q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """In-contract operands in 8-bit storage: uint8 activations, int8 weights.

    The quantized model already feeds C-contiguous uint8 activations, which
    are kept as they are; any other storage is converted once.  Callers
    check the 8-bit contract first (a wider value would wrap).  One-byte
    operands keep the memory-bound passes over the activations cheap and
    are what the uint8 delta arithmetic of
    :func:`packing.act_reduction_delta` takes; consumers still widen before
    arithmetic that could wrap (float GEMM operands, intp look-up indices of
    the weight deltas).
    """
    return np.ascontiguousarray(x_q, dtype=np.uint8), w_q.astype(np.int8)


#: Rows per uint8 partial sum in :func:`_column_counts`: a block's count
#: of any column stays at most 255.
_COUNT_BLOCK = 255


def _column_counts(mask: np.ndarray) -> np.ndarray:
    """Per-column true counts (int64) of a C-contiguous ``(M, K)`` bool mask.

    Blocks of :data:`_COUNT_BLOCK` rows are summed in uint8 and the block
    sums in int64, which costs about half of the buffered bool -> int64
    ``sum(axis=0)``.
    """
    rows = mask.view(np.uint8)
    m, k = rows.shape
    whole = m - m % _COUNT_BLOCK
    blocks = rows[:whole].reshape(whole // _COUNT_BLOCK, _COUNT_BLOCK, k)
    return (blocks.sum(axis=1, dtype=np.uint8).sum(axis=0, dtype=np.int64)
            + rows[whole:].sum(axis=0, dtype=np.int64))


# ---------------------------------------------------------------------------
# Factorized 2-thread fast path
# ---------------------------------------------------------------------------

#: Activation rows per step of the 2-thread kernel: every per-row pass
#: (masks, deltas, float operands, GEMMs) works on a block that stays in
#: cache.  A multiple of :data:`_COUNT_BLOCK`.
_ROW_BLOCK = 4 * _COUNT_BLOCK


def _half_groups(
    right: np.ndarray, half_bound: float
) -> list[tuple[slice, np.ndarray]]:
    """Exactly evaluable GEMM groups over the two thread halves of K.

    ``right`` is a ``(K, N)`` operand and ``half_bound`` bounds the
    product-sum magnitude of one half.  The halves share one GEMM unless
    their summed bound needs float64 (:func:`_exactness_groups`): two
    float32 GEMMs beat one float64 GEMM.  Returns ``(K columns, right rows
    in the group's float dtype)`` pairs.
    """
    kt = right.shape[0] // 2
    groups = []
    for members, dtype in _exactness_groups([half_bound, half_bound]):
        cols = slice(members[0] * kt, (members[-1] + 1) * kt)
        groups.append((cols, right[cols].astype(dtype)))
    return groups


def _fast_2t(
    x_q: np.ndarray,
    w_q: np.ndarray,
    policy: PackingPolicy,
    collect_stats: bool,
) -> tuple[np.ndarray, SMTStatistics | None]:
    """Factorized 2-thread execution: exact matmul plus masked-delta matmuls.

    Thread 1 takes the first half of K and thread 2 the second, so the
    threads are column halves of the operands (odd K is padded with one
    zero column and row).  With sparsity detection the two threads collide
    at ``(m, k, n)`` iff both activations and both weights are nonzero, so
    the collision indicator factors into an activation-side ``(M, Kt)``
    and a weight-side ``(Kt, N)`` mask; without it every position
    collides.  The error of both threads is then one GEMM of gated
    factors: the activation reduction deltas (uint8 arithmetic,
    :func:`packing.act_reduction_delta`) against the weights, or the
    activations against the weight deltas.  The weight side is prepared
    once; the activation side is processed in blocks of
    :data:`_ROW_BLOCK` rows, each block's exact and error GEMMs issued
    while it is in cache.  The statistics are products of per-column mask
    counts (:func:`_column_counts`) and per-row ones.

    Operands outside the 8-bit contract take the chunked reference path,
    whose semantics (the reduction of the clipped value replaces the
    operand) the delta arithmetic does not model.
    """
    (x_lo, x_hi), (w_lo, w_hi) = _operand_range(x_q), _operand_range(w_q)
    if x_lo < 0 or x_hi > 255 or w_lo < -128 or w_hi > 127:
        x_t, w_t = split_into_threads(x_q, w_q, 2)
        return _reference_multi_t(x_t, w_t, policy, collect_stats, 256)
    amax, wmax = x_hi, max(-w_lo, w_hi)
    x_q, w_q = _narrowed(x_q, w_q)
    if x_q.shape[1] != w_q.shape[0]:
        raise ValueError("inner dimensions of X and W differ")
    if x_q.shape[1] % 2:
        x_q = np.pad(x_q, ((0, 0), (0, 1)))
        w_q = np.pad(w_q, ((0, 1), (0, 0)))
    m, k = x_q.shape
    n = w_q.shape[1]
    kt = k // 2

    wgt_nonzero = w_q != 0                                    # (K, N)
    collide_wgt = wgt_nonzero[:kt] & wgt_nonzero[kt:]         # (Kt, N)
    if policy.reduce == "act":
        right = w_q
        if policy.width_secondary:
            right = right * ~wgt_fits_4bit(w_q)
        error_bound = float(kt) * _DELTA_MAX * wmax
    else:
        right = packing.wgt_reduction_delta(w_q, policy)
        error_bound = float(kt) * amax * _DELTA_MAX
    if policy.sparsity:
        right = right * np.concatenate([collide_wgt, collide_wgt])
    exact_groups = _half_groups(w_q, float(kt) * amax * wmax)
    error_groups = _half_groups(right, error_bound)

    # Integer-valued float64 sums of exact GEMM results.
    exact = np.zeros((m, n))
    error = np.zeros((m, n))
    act_cols = np.zeros(k, dtype=np.int64)      # nonzero activations
    collide_cols = np.zeros(kt, dtype=np.int64)  # both threads' nonzero
    error_cols = np.zeros(k, dtype=np.int64)     # nonzero gated left factor
    for start in range(0, m, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        x_block = x_q[rows]                                   # (b, K)
        for cols, w_cast in exact_groups:
            exact[rows] += x_block[:, cols].astype(w_cast.dtype) @ w_cast
        nonzero = x_block != 0
        collide_act = nonzero[:, :kt] & nonzero[:, kt:]       # (b, Kt)
        if policy.reduce == "act":
            left = packing.act_reduction_delta(x_block, policy)
        elif policy.width_secondary:
            left = x_block * (x_block > 15).view(np.uint8)
        else:
            left = x_block.copy() if policy.sparsity else x_block
        if policy.sparsity:
            halves = left.reshape(len(left), 2, kt)          # a view
            halves *= collide_act.view(left.dtype)[:, None]
        for cols, right_cast in error_groups:
            error[rows] += left[:, cols].astype(right_cast.dtype) @ right_cast
        if collect_stats:
            act_cols += _column_counts(nonzero)
            collide_cols += _column_counts(collide_act)
            error_cols += _column_counts(left != 0)
    out = (exact + error).astype(np.int64)
    if not collect_stats:
        return out, None

    stats = SMTStatistics()
    mac_active = int(act_cols @ wgt_nonzero.sum(axis=1))
    both_active = int(collide_cols @ collide_wgt.sum(axis=1))
    stats.mac_total = 2 * m * kt * n
    stats.mac_active = mac_active
    stats.mac_collided = 2 * both_active
    stats.mac_reduced = int(error_cols @ (right != 0).sum(axis=1))
    stats.slots_total = m * kt * n
    stats.slots_active = mac_active - both_active
    stats.act_values = 2 * m * kt
    stats.act_nonzero = int(act_cols.sum())
    stats.sum_sq_error = float(np.square(error, out=error).sum())
    stats.sum_sq_exact = float(np.square(exact, out=exact).sum())
    stats.outputs = m * n
    return out, stats


# ---------------------------------------------------------------------------
# Optimized factorized 4-thread fast path
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _value_luts(width_primary: bool) -> dict[str, np.ndarray]:
    """Per-operand-value lookup tables of the 4-thread error factors.

    Activation tables are indexed by ``x`` (0..255), weight tables by
    ``w + 128``.  Everything derives from the delta tables in
    :mod:`repro.core.packing` (the single source of the width-gated
    reduction semantics): the effective 4b-4b operand is ``value + delta``
    and an operand changed iff its delta is nonzero.  ``secx`` / ``secw``
    are the operands an ``Aw`` / ``aW`` pair collision still reduces (the
    partner does not fit in 4 bits); ``xcls`` / ``wcls`` are the statistics
    classes ``changed | fits << 1`` (see :func:`_reduced_tables`).
    """
    act = np.arange(256, dtype=np.int64)
    wgt = np.arange(-128, 128, dtype=np.int64)
    dx = packing._DELTA_LUTS[("act", width_primary)].astype(np.int64)
    dw = packing._DELTA_LUTS[("wgt", width_primary)].astype(np.int64)
    afits = act_fits_4bit(act)
    wfits = wgt_fits_4bit(wgt)
    return {
        "x": act, "dx": dx, "x4": act + dx, "secx": act * ~afits,
        "w": wgt, "dw": dw, "w4": wgt + dw, "secw": wgt * ~wfits,
        "xcls": (dx != 0) + 2 * afits,
        "wcls": (dw != 0) + 2 * wfits,
    }


def _popcount4(values: np.ndarray) -> np.ndarray:
    return (values & 1) + ((values >> 1) & 1) + ((values >> 2) & 1) + (
        (values >> 3) & 1
    )


def _error_factors(policy: PackingPolicy) -> list[tuple[str, str, str]]:
    """``(demand gate, left value, right value)`` terms of a thread's error.

    An active thread's error is its effective product minus its exact one.
    The gate is a condition on the number of *other* active threads:
    ``eq1`` (a pair collision), ``ge1``, ``ge2`` (a 3-/4-way collision, the
    4b-4b product ``x4 * w4 = x*w + dx*w + x4*dw = x*w + x*dw + dx*w4``),
    or ``all`` (no sparsity detection: every position fully collides).
    """
    if not policy.sparsity:
        return [("all", "dx", "w4"), ("all", "x", "dw")]
    if policy.reduce == "act":
        if policy.width_secondary:
            pair = [("eq1", "dx", "secw"), ("ge2", "dx", "w")]
        else:
            pair = [("ge1", "dx", "w")]
        return pair + [("ge2", "x4", "dw")]
    if policy.width_secondary:
        pair = [("eq1", "secx", "dw"), ("ge2", "x", "dw")]
    else:
        pair = [("ge1", "x", "dw")]
    return pair + [("ge2", "dx", "w4")]


def _fused(gate: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Table of ``gate[pattern] * values[v]`` at index ``pattern + 16 * v``."""
    return (values[:, None] * gate[None, :]).ravel().astype(np.float32)


@lru_cache(maxsize=None)
def _pattern_blocks(policy: PackingPolicy) -> tuple[tuple[tuple, ...], ...]:
    """Fused look-up tables of every thread's error blocks.

    Returns, per thread ``t``, ``(pattern, factors)`` entries.  ``pattern``
    is the 4-bit weight-side activity pattern ``b | 1 << t`` the block is
    restricted to (``b``: the other threads' weight pattern; ``None``: an
    ungated block), ``factors`` a tuple of ``(left_table, right_table,
    left_kind, right_kind)``.  A left table is indexed by ``alpha + 16 * x``
    and holds ``gate(alpha) * left(x)``: where the weight pattern is
    ``pattern`` and ``t`` is active, the other active threads are exactly
    ``alpha & b``, so the demand gate is a function of ``alpha`` alone.  A
    right table is indexed by ``beta + 16 * (w + 128)`` and holds
    ``[beta == pattern] * right(w)``.  Entries are small integers, exact in
    float32.
    """
    luts = _value_luts(policy.width_primary)
    codes = np.arange(16)
    factors = _error_factors(policy)
    if not policy.sparsity:
        ones = np.ones(16, dtype=bool)
        entry = (None, tuple(
            (_fused(ones, luts[left]), _fused(ones, luts[right]), left, right)
            for _, left, right in factors
        ))
        return ((entry,),) * 4
    blocks = []
    for t in range(4):
        active = ((codes >> t) & 1).astype(bool)
        entries = []
        for b in range(1, 16):
            if b & (1 << t):
                continue
            others = _popcount4(codes & b)
            gates = {"eq1": others == 1, "ge1": others >= 1, "ge2": others >= 2}
            pattern = b | (1 << t)
            entries.append((pattern, tuple(
                (_fused(active & gates[gate], luts[left]),
                 _fused(codes == pattern, luts[right]), left, right)
                for gate, left, right in factors
                if (active & gates[gate]).any()
            )))
        blocks.append(tuple(entries))
    return tuple(blocks)


@lru_cache(maxsize=None)
def _activity_tables() -> dict[str, np.ndarray]:
    """16x16 tables of the per-slot statistics as functions of (alpha, beta).

    ``alpha``/``beta`` are the 4-bit activation-side / weight-side nonzero
    patterns of the four threads at one (m, k) / (k, n) position; their AND
    is the joint activity pattern of the issue slot.
    """
    alpha = np.arange(16)[:, None]
    beta = np.arange(16)[None, :]
    joint = alpha & beta
    demand = _popcount4(joint)
    return {
        "active": demand.astype(np.int64),
        "slots": (demand > 0).astype(np.int64),
        "collided": np.where(demand >= 2, demand, 0).astype(np.int64),
    }


@lru_cache(maxsize=None)
def _reduced_tables(policy: PackingPolicy) -> tuple[np.ndarray, ...]:
    """Per-thread 64x64 tables counting reduced (noisy) MAC positions.

    Activation-side codes are ``alpha | achg << 4 | afits << 5`` and
    weight-side codes ``beta | wchg << 4 | wfits << 5``, where ``achg`` /
    ``wchg`` flag operands changed by the 4b-4b reduction and ``afits`` /
    ``wfits`` flag operands that fit in 4 bits.  Entry ``[ac, bc]`` of table
    ``t`` is 1 when thread ``t``'s effective product differs from its exact
    product at a position with those codes (there are no value coincidences:
    an 8-bit product never equals a different reduced product, which the
    property tests re-verify against the reference executor).
    """
    codes = np.arange(64)
    alpha = (codes & 15)[:, None]
    achg = ((codes >> 4) & 1)[:, None]
    afits = ((codes >> 5) & 1)[:, None]
    beta = (codes & 15)[None, :]
    wchg = ((codes >> 4) & 1)[None, :]
    wfits = ((codes >> 5) & 1)[None, :]

    joint = alpha & beta
    demand = _popcount4(joint)

    tables = []
    for t in range(4):
        xn = (alpha >> t) & 1
        wn = (beta >> t) & 1
        active_t = (joint >> t) & 1
        diff_many = (achg & wn) | (wchg & xn)
        if policy.reduce == "act":
            diff_pair = achg & wn
            if policy.width_secondary:
                diff_pair = diff_pair & (1 - wfits)
        else:
            diff_pair = wchg & xn
            if policy.width_secondary:
                diff_pair = diff_pair & (1 - afits)
        if policy.sparsity:
            table = active_t * (
                (demand == 2) * diff_pair + (demand >= 3) * diff_many
            )
        else:
            # Without sparsity detection every 4-thread position is a full
            # (>= 3-way) collision.
            table = diff_many
        tables.append(table.astype(np.int64))
    return tuple(tables)


def _activity_pattern(values: np.ndarray) -> np.ndarray:
    """4-bit nonzero pattern (uint8) of per-thread operands ``(4, ...)``."""
    pattern = np.zeros(values.shape[1:], dtype=np.uint8)
    for t in range(values.shape[0]):
        pattern |= (values[t] != 0).view(np.uint8) << t
    return pattern


def _code_histograms(index: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Per-thread, per-K histograms ``(T, Kt, 64)`` of ``pattern | cls << 4``.

    ``index`` holds the K-major fused indices ``pattern + 16 * v`` of shape
    ``(T, Kt, ·)`` (``v``: the operand value offset to start at 0) and
    ``classes[v]`` the 2-bit statistics class of each value.  One bincount
    per K row keeps every row's counting in cache.
    """
    threads, kt = index.shape[:2]
    counts = np.empty((threads * kt, 4096))
    for row, values in enumerate(index.reshape(threads * kt, index.shape[2])):
        counts[row] = np.bincount(values, minlength=4096)
    fold = (classes[None, :] == np.arange(4)[:, None]).astype(np.float64)
    hist = fold @ counts.reshape(threads * kt, 256, 16)
    return hist.astype(np.int64).reshape(threads, kt, 64)


def _contract(
    hist_a: np.ndarray, table: np.ndarray, hist_b: np.ndarray
) -> int:
    """``sum_k hist_a[k] @ table @ hist_b[k]`` for per-K-column histograms."""
    return int(((hist_a @ table) * hist_b).sum())


#: M columns per step of the cache-blocked K-major passes: the transposition
#: and the assembly of the stacked operand, whose chunks stay in cache
#: until their GEMM reads them.
_M_BLOCK = 512


def _stacked_gemm(
    blocks: list[tuple], left_idx: np.ndarray, right_idx: np.ndarray
) -> np.ndarray:
    """Exact integer sum of separable blocks, evaluated by stacked GEMMs.

    Each block is ``(t, rows, count, left_table, right_table, bound)`` and
    stands for ``left_table[left_idx[t][rows]].T @
    right_table[right_idx[t][rows]]`` (``rows``: the ``count`` selected K
    rows of thread ``t``, None for all); ``bound`` upper-bounds its
    product-sum magnitude.  Blocks are stacked along K into exactly
    evaluable groups (:func:`_exactness_groups`); each group's left operand
    is assembled in M chunks of :data:`_M_BLOCK` columns, each multiplied
    while it is in cache.  Returns the ``(M, N)`` int64 result.
    """
    m, n = left_idx.shape[2], right_idx.shape[2]
    # Accumulated transposed, (N, M): rights.T @ lefts runs the GEMM on the
    # K-major operand without a transposed-operand penalty.
    total = np.zeros((n, m))
    for members, dtype in _exactness_groups([block[-1] for block in blocks]):
        group = [blocks[i] for i in members]
        rights_t = np.concatenate([
            right.astype(dtype).take(
                right_idx[t] if rows is None else right_idx[t][rows])
            for t, rows, _, _, right, _ in group
        ]).T.copy()
        lefts_buffer = np.empty(rights_t.shape[1] * _M_BLOCK, dtype=dtype)
        tables = [left.astype(dtype, copy=False) for *_, left, _, _ in group]
        for start in range(0, m, _M_BLOCK):
            cols = slice(start, start + _M_BLOCK)
            chunk = min(m - start, _M_BLOCK)
            lefts = lefts_buffer[: rights_t.shape[1] * chunk].reshape(-1, chunk)
            pos, gathered = 0, None
            for (t, rows, count, *_), table in zip(group, tables):
                if gathered != (t, id(rows)):
                    gathered = (t, id(rows))
                    # One intp conversion per chunk, shared by the factors.
                    left_rows = (left_idx[t, :, cols] if rows is None
                                 else left_idx[t][rows, cols]).astype(np.intp)
                np.take(table, left_rows, out=lefts[pos:pos + count],
                        mode="clip")
                pos += count
            total[:, cols] += rights_t @ lefts
    return np.rint(total.T).astype(np.int64, order="C")


def _fast_4t(
    x_t: np.ndarray,
    w_t: np.ndarray,
    policy: PackingPolicy,
    collect_stats: bool,
    prune_blocks: bool = True,
) -> tuple[np.ndarray, SMTStatistics | None]:
    """Optimized factorized 4-thread execution.

    The NB-SMT output equals the exact product plus every thread's error.
    Where thread ``t`` is active its demand is ``1 + popcount(alpha & b)``,
    with ``alpha`` the activation-side nonzero pattern of the four threads
    at ``(m, k)`` and ``b`` the other threads' weight-side pattern at
    ``(k, n)``.  Partitioning the weight positions by their pattern
    therefore turns each demand gate into a function of ``alpha`` alone, and
    the error into separable blocks ``(g(alpha) * L) @ ([beta == p] * R)``
    (:func:`_error_factors`, :func:`_pattern_blocks`).  Each block is one
    look-up of a fused table into K-major stacked operands, and the stack is
    evaluated with a few BLAS GEMMs whose float dtype is chosen by exactness
    bounds.  Statistics are reconstructed exactly from per-K histograms of
    the same fused indices (see :func:`_reduced_tables`).

    ``prune_blocks`` stacks only the K rows where a block's weight pattern
    occurs; without it every block spans all K rows.  Bit-exact either way.
    """
    threads = 4
    (x_lo, x_hi), (w_lo, w_hi) = _operand_range(x_t), _operand_range(w_t)
    if x_lo < 0 or x_hi > 255 or w_lo < -128 or w_hi > 127:
        # The fused tables cover the 8-bit operand contract only.
        return _reference_multi_t(x_t, w_t, policy, collect_stats, 256)
    amax, wmax = x_hi, max(-w_lo, w_hi)
    m, kt = x_t.shape[1:]
    n = w_t.shape[2]

    # K-major fused indices alpha + 16 * x, shape (T, Kt, M), and
    # beta + 16 * (w + 128), shape (T, Kt, N).
    left_idx = np.empty((threads, kt, m), dtype=np.uint16)
    for start in range(0, m, _M_BLOCK):
        cols = slice(start, start + _M_BLOCK)
        np.copyto(left_idx[:, :, cols], x_t[:, cols].transpose(0, 2, 1),
                  casting="unsafe")
    exact = np.ascontiguousarray(_int_gemm(
        w_t.reshape(threads * kt, n).T,
        left_idx.reshape(threads * kt, m),
        bound=4.0 * kt * amax * wmax,
    ).T)
    alpha = _activity_pattern(left_idx)
    left_idx <<= 4
    left_idx |= alpha
    beta = _activity_pattern(w_t)
    right_idx = ((w_t.astype(np.intp) + 128) << 4) | beta

    # Which weight patterns occur in each K row.
    present = np.zeros((kt, 16), dtype=bool)
    present[np.arange(kt)[:, None], beta] = True
    left_max = {"x": amax, "secx": amax, "dx": _DELTA_MAX,
                "x4": amax + _DELTA_MAX}
    right_max = {"w": wmax, "secw": wmax, "dw": _DELTA_MAX,
                 "w4": wmax + _DELTA_MAX}
    blocks = []
    for t, entries in enumerate(_pattern_blocks(policy)):
        for pattern, factors in entries:
            rows, count = None, kt
            if prune_blocks and pattern is not None:
                count = int(present[:, pattern].sum())
                if count < kt:
                    rows = np.flatnonzero(present[:, pattern])
            for left, right, left_kind, right_kind in factors:
                if count:
                    bound = count * left_max[left_kind] * right_max[right_kind]
                    blocks.append((t, rows, count, left, right, bound))
    out = exact + _stacked_gemm(blocks, left_idx, right_idx)

    if not collect_stats:
        return out, None

    stats = SMTStatistics()
    luts = _value_luts(policy.width_primary)
    hist_a = _code_histograms(left_idx, luts["xcls"])
    hist_b = _code_histograms(right_idx, luts["wcls"])
    # 16-bin activity histograms, marginalized from the richer 64-bin ones.
    hist_alpha = hist_a[0].reshape(kt, 4, 16).sum(axis=1)
    hist_beta = hist_b[0].reshape(kt, 4, 16).sum(axis=1)

    activity = _activity_tables()
    reduced_tables = _reduced_tables(policy)
    stats.mac_total = threads * m * kt * n
    stats.mac_active = _contract(hist_alpha, activity["active"], hist_beta)
    stats.mac_collided = _contract(hist_alpha, activity["collided"], hist_beta)
    stats.mac_reduced = int(
        sum(
            _contract(hist_a[t], reduced_tables[t], hist_b[t])
            for t in range(threads)
        )
    )
    stats.slots_total = m * kt * n
    stats.slots_active = _contract(hist_alpha, activity["slots"], hist_beta)
    stats.act_values = threads * m * kt
    stats.act_nonzero = int(hist_alpha.sum(axis=0) @ _popcount4(np.arange(16)))
    stats.sum_sq_error = float(((out - exact).astype(np.float64) ** 2).sum())
    stats.sum_sq_exact = float((exact.astype(np.float64) ** 2).sum())
    stats.outputs = int(exact.size)
    return out, stats


# ---------------------------------------------------------------------------
# Reference implementation (any thread count)
# ---------------------------------------------------------------------------

@dataclass
class ChunkResult:
    """Outcome of one lane-level NB-SMT chunk execution."""

    out: np.ndarray
    exact: np.ndarray | None
    active_slots: int
    mac_active: int
    mac_collided: int
    reduced_positions: int


def nbsmt_effective_chunk(
    x_chunk: np.ndarray,
    w_t: np.ndarray,
    policy: PackingPolicy,
    collect_stats: bool = False,
) -> ChunkResult:
    """Lane-level NB-SMT execution of one row chunk (Algorithm 1 semantics).

    ``x_chunk`` has shape ``(T, rows, Kt)`` and ``w_t`` shape ``(T, Kt, N)``.
    Materializes the per-position activity tensor, applies the collision
    rules of Algorithm 1 (and its 4-thread extension) exactly, and returns
    the chunk output together with activity/collision counters (the exact
    output and reduction count are only computed when ``collect_stats``;
    ``active_slots`` counts positions with at least one active thread and is
    always computed, as the explicit array simulator reports it as active MAC
    cycles).

    This helper is shared by the chunked reference executor and the
    vectorized explicit SySMT array simulator.
    """
    threads, rows, kt = x_chunk.shape
    n = w_t.shape[2]
    x_chunk = _as_int64(x_chunk)
    w_t = _as_int64(w_t)

    wgt_nonzero = w_t != 0                                   # (T, Kt, N)
    active = np.empty((threads, rows, kt, n), dtype=bool)
    for t in range(threads):
        act_nonzero = x_chunk[t] != 0                        # (rows, Kt)
        active[t] = act_nonzero[:, :, None] & wgt_nonzero[t][None, :, :]
    demand = active.sum(axis=0, dtype=np.int8)               # (rows, Kt, N)

    chunk_out = np.zeros((rows, n), dtype=np.int64)
    chunk_exact = np.zeros((rows, n), dtype=np.int64) if collect_stats else None
    reduced_positions = 0

    for t in range(threads):
        x_col = x_chunk[t][:, :, None]                       # (rows, Kt, 1)
        w_row = w_t[t][None, :, :]                           # (1, Kt, N)
        exact_prod = x_col * w_row                           # (rows, Kt, N)

        if policy.sparsity:
            collide_pair = active[t] & (demand == 2)
            collide_many = active[t] & (demand >= 3)
        elif threads == 2:
            # Without sparsity detection every thread always demands the
            # MAC, so every position is treated as a full collision.
            collide_pair = np.ones_like(active[t])
            collide_many = np.zeros_like(active[t])
        else:
            collide_pair = np.zeros_like(active[t])
            collide_many = np.ones_like(active[t])

        effective = exact_prod
        if np.any(collide_pair):
            pair_prod = packing.colliding_product_2t(x_col, w_row, policy)
            effective = np.where(collide_pair, pair_prod, effective)
        if np.any(collide_many):
            many_prod = packing.colliding_product_4t(x_col, w_row, policy)
            effective = np.where(collide_many, many_prod, effective)

        chunk_out += effective.sum(axis=1)
        if collect_stats:
            chunk_exact += exact_prod.sum(axis=1)
            reduced_positions += int(
                ((effective != exact_prod) & (collide_pair | collide_many)).sum()
            )

    return ChunkResult(
        out=chunk_out,
        exact=chunk_exact,
        active_slots=int(active.any(axis=0).sum()),
        mac_active=int(active.sum()),
        mac_collided=int((active & (demand >= 2)).sum()),
        reduced_positions=reduced_positions,
    )


def _reference_multi_t(
    x_t: np.ndarray,
    w_t: np.ndarray,
    policy: PackingPolicy,
    collect_stats: bool,
    chunk_rows: int,
) -> tuple[np.ndarray, SMTStatistics | None]:
    """Chunked reference implementation for any thread count.

    Materializes the per-position activity tensor chunk by chunk and applies
    the collision rules of Algorithm 1 (and its 4-thread extension) exactly.
    """
    threads, m, kt = x_t.shape
    n = w_t.shape[2]
    x_t = _as_int64(x_t)
    w_t = _as_int64(w_t)

    out = np.zeros((m, n), dtype=np.int64)
    exact = np.zeros((m, n), dtype=np.int64) if collect_stats else None
    stats = SMTStatistics() if collect_stats else None

    for start in range(0, m, chunk_rows):
        stop = min(start + chunk_rows, m)
        x_chunk = x_t[:, start:stop, :]                      # (T, rows, Kt)
        rows = stop - start

        chunk = nbsmt_effective_chunk(x_chunk, w_t, policy, collect_stats)
        out[start:stop] = chunk.out
        if collect_stats:
            exact[start:stop] = chunk.exact
            stats.mac_total += threads * rows * kt * n
            stats.mac_active += chunk.mac_active
            stats.mac_collided += chunk.mac_collided
            stats.mac_reduced += chunk.reduced_positions
            stats.slots_total += rows * kt * n
            stats.slots_active += chunk.active_slots

    if collect_stats:
        stats.act_values = int(x_t.size)
        stats.act_nonzero = int(np.count_nonzero(x_t))
        stats.sum_sq_error = float(((out - exact).astype(np.float64) ** 2).sum())
        stats.sum_sq_exact = float((exact.astype(np.float64) ** 2).sum())
        stats.outputs = int(out.size)
    return out, stats


# ---------------------------------------------------------------------------
# Legacy factorized 4-thread path (the seed implementation), kept for
# cross-validation.
# ---------------------------------------------------------------------------

def _thread_error_factors(
    x_self: np.ndarray, w_self: np.ndarray, policy: PackingPolicy
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Separable factors of the pairwise-collision error term of one thread.

    Returns a list of ``(left, right)`` pairs such that the error a thread
    contributes at position ``(m, k, n)`` when it collides pairwise equals
    ``sum_i left_i[m, k] * right_i[k, n]``.
    """
    if policy.reduce == "act":
        delta = packing.act_reduction_delta(x_self, policy).astype(np.float64)
        right = w_self.astype(np.float64)
        if policy.width_secondary:
            right = right * (~wgt_fits_4bit(w_self))
        return [(delta, right)]
    delta = packing.wgt_reduction_delta(w_self, policy).astype(np.float64)
    left = x_self.astype(np.float64)
    if policy.width_secondary:
        left = left * (~act_fits_4bit(x_self))
    return [(left, delta)]


def _thread_manyway_factors(
    x_self: np.ndarray, w_self: np.ndarray, policy: PackingPolicy
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Separable factors of the 3-/4-way-collision error term of one thread.

    The 4b-4b product minus the exact product is the difference of two
    separable terms: ``x4 (x) w4 - x (x) w``.
    """
    luts = _value_luts(policy.width_primary)
    x4 = luts["x4"].take(np.clip(x_self, 0, 255))
    w4 = luts["w4"].take(np.clip(w_self, -128, 127) + 128)
    return [
        (x4.astype(np.float64), w4.astype(np.float64)),
        (-x_self.astype(np.float64), w_self.astype(np.float64)),
    ]


def _demand_monomials(others: list[int]) -> tuple[list, list]:
    """Inclusion-exclusion expansions of the other-thread demand indicators.

    For the three "other" threads of a 4-threaded PE, returns the monomial
    expansions of ``1(exactly one other active)`` and ``1(two or more others
    active)`` as lists of ``(coefficient, subset_of_other_threads)`` terms.
    Each monomial ``prod_{s in subset} u_s`` is separable because ``u_s``
    factors into an activation-side and a weight-side mask.
    """
    s1, s2, s3 = others
    exactly_one = [
        (1.0, (s1,)), (1.0, (s2,)), (1.0, (s3,)),
        (-2.0, (s1, s2)), (-2.0, (s1, s3)), (-2.0, (s2, s3)),
        (3.0, (s1, s2, s3)),
    ]
    two_or_more = [
        (1.0, (s1, s2)), (1.0, (s1, s3)), (1.0, (s2, s3)),
        (-2.0, (s1, s2, s3)),
    ]
    return exactly_one, two_or_more


def _fast_4t_legacy(
    x_t: np.ndarray,
    w_t: np.ndarray,
    policy: PackingPolicy,
    collect_stats: bool,
) -> tuple[np.ndarray, SMTStatistics | None]:
    """The seed's factorized 4-thread execution (one GEMM per monomial).

    Bit-identical outputs to :func:`_fast_4t` by an independent derivation
    (inclusion-exclusion over thread subsets, ~60 separate float64 GEMMs),
    which is why the property tests keep it as a cross-check oracle.  Its
    ``mac_reduced`` counter is the collision-count proxy rather than the
    exact reduction count.
    """
    threads = 4
    xs = [x_t[t].astype(np.int64) for t in range(threads)]
    ws = [w_t[t].astype(np.int64) for t in range(threads)]

    exact = exact_int_matmul(
        np.concatenate(xs, axis=1), np.concatenate(ws, axis=0)
    )

    act_masks = [x != 0 for x in xs]
    wgt_masks = [w != 0 for w in ws]

    error = np.zeros_like(exact, dtype=np.float64)

    if not policy.sparsity:
        for t in range(threads):
            for left, right in _thread_manyway_factors(xs[t], ws[t], policy):
                error += left @ right
    else:
        for t in range(threads):
            others = [s for s in range(threads) if s != t]
            exactly_one, two_or_more = _demand_monomials(others)
            pair_factors = _thread_error_factors(xs[t], ws[t], policy)
            many_factors = _thread_manyway_factors(xs[t], ws[t], policy)
            for coeff, subset in exactly_one:
                act_gate = act_masks[t].copy()
                wgt_gate = wgt_masks[t].copy()
                for s in subset:
                    act_gate = act_gate & act_masks[s]
                    wgt_gate = wgt_gate & wgt_masks[s]
                for left, right in pair_factors:
                    error += coeff * ((act_gate * left) @ (wgt_gate * right))
            for coeff, subset in two_or_more:
                act_gate = act_masks[t].copy()
                wgt_gate = wgt_masks[t].copy()
                for s in subset:
                    act_gate = act_gate & act_masks[s]
                    wgt_gate = wgt_gate & wgt_masks[s]
                for left, right in many_factors:
                    error += coeff * ((act_gate * left) @ (wgt_gate * right))

    out = exact + np.rint(error).astype(np.int64)
    if not collect_stats:
        return out, None

    stats = SMTStatistics()
    m, kt = xs[0].shape
    n = ws[0].shape[1]

    def _pair_count(act_gate: np.ndarray, wgt_gate: np.ndarray) -> int:
        return int(
            act_gate.sum(axis=0).astype(np.int64)
            @ wgt_gate.sum(axis=1).astype(np.int64)
        )

    active_counts = [_pair_count(act_masks[t], wgt_masks[t]) for t in range(threads)]

    slots_active = 0
    for size in range(1, threads + 1):
        sign = (-1) ** (size + 1)
        for subset in combinations(range(threads), size):
            act_gate = act_masks[subset[0]]
            wgt_gate = wgt_masks[subset[0]]
            for s in subset[1:]:
                act_gate = act_gate & act_masks[s]
                wgt_gate = wgt_gate & wgt_masks[s]
            slots_active += sign * _pair_count(act_gate, wgt_gate)

    collided = 0
    for t in range(threads):
        others = [s for s in range(threads) if s != t]
        alone = 0
        for size in range(0, len(others) + 1):
            sign = (-1) ** size
            for subset in combinations(others, size):
                act_gate = act_masks[t]
                wgt_gate = wgt_masks[t]
                for s in subset:
                    act_gate = act_gate & act_masks[s]
                    wgt_gate = wgt_gate & wgt_masks[s]
                alone += sign * _pair_count(act_gate, wgt_gate)
        collided += active_counts[t] - alone

    stats.mac_total = threads * m * kt * n
    stats.mac_active = int(sum(active_counts))
    stats.mac_collided = int(collided)
    # The legacy path reports collisions as the reduction-count proxy; the
    # optimized path and the reference executor report the exact count.
    stats.mac_reduced = int(collided)
    stats.slots_total = m * kt * n
    stats.slots_active = int(slots_active)
    stats.act_values = int(sum(x.size for x in xs))
    stats.act_nonzero = int(sum(mask.sum() for mask in act_masks))
    stats.sum_sq_error = float(((out - exact).astype(np.float64) ** 2).sum())
    stats.sum_sq_exact = float((exact.astype(np.float64) ** 2).sum())
    stats.outputs = int(exact.size)
    return out, stats
