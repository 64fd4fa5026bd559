"""Functional NB-SMT matrix-multiply executor.

The SySMT hardware computes ``O = X @ W`` where each PE accumulates one
output element and the K dimension is split across T threads (output-register
sharing, Eq. (2)/(3)).  This module models that computation *functionally*:
it produces the exact integer accumulators the hardware would produce,
including the noise introduced when thread collisions force reduced-precision
products, together with per-layer statistics (collision breakdown,
utilization, MSE versus the error-free result).

Two implementations are provided and cross-checked by the test suite
(and against the per-PE simulator of :mod:`repro.systolic`):

* a chunked **reference** path that materializes the per-position activity
  tensors and handles any thread count;
* a **factorized** fast path for two and four threads, which expresses the
  NB-SMT noise as extra matrix multiplications of masked deltas (the
  2-thread collision indicator factors into an activation-side and a
  weight-side mask; the 4-thread error is partitioned by the weight-side
  thread-activity pattern, which makes every demand gate a function of the
  activation-side pattern alone, so each error term is a separable block;
  the blocks are stacked along the inner dimension and evaluated with a
  handful of BLAS calls).  Both kernels take the thread slices of K as
  column views of the operands and make one pass over the activation rows
  in cache-sized blocks, each block's exact GEMM, reduced operands (uint8
  arithmetic, :func:`packing._act_delta_uint8`) and error GEMMs issued
  together; everything that depends on the weights alone is built once
  per call, before the pass (the 4-thread kernel's weight plan).

The factorized paths also reconstruct the *exact* statistics (including the
per-position reduction count) without materializing activity tensors: every
counter is a sum over positions of a function of the 4-bit thread-activity
pattern plus a few per-thread value predicates, so it reduces to per-K-column
histograms of small integer codes contracted against precomputed tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core import packing
from repro.core.policies import PackingPolicy, get_policy
from repro.core.precision import wgt_fits_4bit
from repro.quant.engine import exact_int_matmul

#: Largest product-sum magnitude exactly representable by a float32 GEMM.
_F32_EXACT_LIMIT = 1 << 24
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
        The 4-thread kernel; ``"stacked"`` (the one-pass stacked-GEMM
        kernel) is the only value accepted.
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
        if fast4t_impl != "stacked":
            raise ValueError("fast4t_impl must be 'stacked'")
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

        if self.force_reference:
            x_t, w_t = split_into_threads(x_q, w_q, self.threads)
            out, stats = _reference_multi_t(
                x_t, w_t, self.policy, self.collect_stats, self.chunk_rows
            )
        elif self.threads == 2:
            out, stats = _fast_2t(x_q, w_q, self.policy, self.collect_stats)
        else:
            out, stats = _fast_4t(x_q, w_q, self.policy, self.collect_stats,
                                  self.prune_blocks)
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


def _thread_groups(
    right: np.ndarray, threads: int, thread_bound: float
) -> list[tuple[slice, np.ndarray]]:
    """Exactly evaluable GEMM groups over the thread slices of K.

    ``right`` is a ``(K, N)`` operand whose K rows split into ``threads``
    equal slices, and ``thread_bound`` bounds the product-sum magnitude of
    one slice.  Consecutive slices share one GEMM while their summed bound
    allows float32 (:func:`_exactness_groups`): several float32 GEMMs beat
    one float64 GEMM.  Returns ``(K columns, right rows in the group's float
    dtype)`` pairs.
    """
    kt = right.shape[0] // threads
    groups = []
    for members, dtype in _exactness_groups([thread_bound] * threads):
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
    exact_groups = _thread_groups(w_q, 2, float(kt) * amax * wmax)
    error_groups = _thread_groups(right, 2, error_bound)

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
    """Per-weight-value lookup tables of the 4-thread weight-side factors.

    The tables are indexed by ``w + 128``.  Everything derives from the
    weight delta table in :mod:`repro.core.packing` (the single source of
    the width-gated reduction semantics): the effective 4b-4b weight is
    ``w + dw`` and a weight changed iff its delta is nonzero.
    ``secw`` is the weight an ``aW`` pair collision still reduces (the
    partner does not fit in 4 bits); ``wcls`` is the statistics class
    ``changed | fits << 1`` (see :func:`_reduced_tables`).
    """
    wgt = np.arange(-128, 128, dtype=np.int64)
    dw = packing._DELTA_LUTS[("wgt", width_primary)].astype(np.int64)
    wfits = wgt_fits_4bit(wgt)
    return {
        "w": wgt, "dw": dw, "w4": wgt + dw, "secw": wgt * ~wfits,
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


@lru_cache(maxsize=None)
def _pattern_blocks(policy: PackingPolicy) -> tuple[tuple[tuple, ...], ...]:
    """Error blocks of every thread.

    Returns, per thread ``t``, ``(pattern, factors)`` entries.  ``pattern``
    is the 4-bit weight-side activity pattern ``b | 1 << t`` the block is
    restricted to (``b``: the other threads' weight pattern; ``None``: an
    ungated block), ``factors`` a tuple of ``(gate, left_kind,
    right_kind)`` (:func:`_error_factors`).  Where the weight pattern is
    ``pattern`` and ``t`` is active, the other active threads are exactly
    ``alpha & b``, so the demand gate is a condition on the number of
    nonzero activations among the threads of ``b`` (:func:`_demand_gate`);
    with one other thread there is no ``ge2`` block.
    """
    factors = tuple(_error_factors(policy))
    if not policy.sparsity:
        return (((None, factors),),) * 4
    return tuple(
        tuple((b | 1 << t, tuple(
            factor for factor in factors
            if factor[0] != "ge2" or _popcount4(b) >= 2))
            for b in range(1, 16) if not b & 1 << t)
        for t in range(4)
    )


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


def _joint_codes(x_k: np.ndarray, bits: np.ndarray,
                 delta: np.ndarray, out: np.ndarray) -> None:
    """Write the joint activation codes of a K-major block into ``out``.

    ``x_k`` is the ``(4, Kt, b)`` uint8 block, ``bits`` its 0/1 uint8
    nonzero masks and ``delta`` its int8 reduction deltas; ``out`` is a
    ``(Kt, b)`` uint16 view.  Per thread the nonzero, changed
    (``delta != 0``) and fits (``x <= 15``) bits are summed into the code
    in uint8 arithmetic.
    """
    weights = np.array([1, 2, 4, 8], dtype=np.uint8)[:, None, None]
    low = bits + (delta != 0).view(np.uint8) * np.uint8(16)
    low *= weights
    high = (x_k <= 15).view(np.uint8) * weights
    np.multiply(high.sum(axis=0, dtype=np.uint8), 256, out=out,
                dtype=np.uint16)
    out += low.sum(axis=0, dtype=np.uint8)


def _code_histograms(codes: np.ndarray) -> np.ndarray:
    """Per-thread, per-K histograms ``(4, Kt, 64)`` of ``alpha | xcls << 4``.

    ``codes`` holds the ``(Kt, M)`` joint codes of :func:`_joint_codes`.
    One 4096-bin bincount per K row keeps every row's counting in cache.
    Thread ``t``'s histogram sums out the other threads' changed and fits
    bits; its ``fits_t, changed_t, alpha`` bins are ``alpha | xcls << 4``.
    """
    kt = codes.shape[0]
    counts = np.empty((kt, 4096), dtype=np.int64)
    for row, values in enumerate(codes):
        counts[row] = np.bincount(values, minlength=4096)
    # Axes 1-4: fits bits of threads 3..0; axes 5-8: changed bits; alpha.
    bits = counts.reshape((kt,) + (2,) * 8 + (16,))
    return np.stack([
        bits.sum(axis=tuple(axis for axis in range(1, 9)
                            if axis not in (4 - t, 8 - t))).reshape(kt, 64)
        for t in range(4)
    ])


def _contract(
    hist_a: np.ndarray, table: np.ndarray, hist_b: np.ndarray
) -> int:
    """``sum_k hist_a[k] @ table @ hist_b[k]`` for per-K-column histograms."""
    return int(((hist_a @ table) * hist_b).sum())


#: Activation rows per step of the 4-thread kernel: the transposed block,
#: its masks and reduced operands stay small, and each assembly call covers
#: enough columns to amortize its Python overhead.
_ROW_BLOCK_4T = 2048
#: Columns per GEMM of a row block: each panel of a one-byte operand is
#: converted to float and multiplied while the copy is still in cache.
_PANEL = 512


class _WeightPlan:
    """Everything the 4-thread kernel derives from one layer's weights.

    Built from the narrowed ``(K, N)`` int8 weights (K a multiple of 4)
    before the pass over the activation rows.  Its exactness bounds take
    the 8-bit activation maximum, 255, so a plan never depends on the
    activations.  Holds

    * ``exact_groups``: exactly evaluable ``(K columns, float weights)``
      GEMM groups of the exact product, over whole thread slices;
    * ``groups``: the error blocks as ``(members, rights, signed)``
      exactness groups, ``members`` listing ``(t, K rows or None, count,
      pattern, gate, left_kind)``, the int8 ``dx`` blocks first, ``rights``
      the stacked ``(S, N)`` right operand (each block's ``[beta ==
      pattern] * right(w)`` rows, looked up in :func:`_value_luts`, in
      the group's float dtype) and ``signed`` the number of stacked rows
      with int8 left operands;
    * ``hist_b``: the weight-side ``(4, Kt, 64)`` statistics histograms of
      ``beta | wcls << 4``.
    """

    def __init__(self, w_q: np.ndarray, policy: PackingPolicy,
                 prune_blocks: bool):
        k, self.n = w_q.shape
        self.kt = kt = k // 4
        w_t = w_q.reshape(4, kt, self.n)
        w_lo, w_hi = _operand_range(w_q)
        wmax = max(-w_lo, w_hi)
        self.exact_groups = _thread_groups(w_q, 4, float(kt) * 255 * wmax)

        beta = _activity_pattern(w_t)                          # (Kt, N)
        w_idx = w_t.astype(np.intp) + 128                      # table index
        luts = _value_luts(policy.width_primary)
        present = np.zeros((kt, 16), dtype=bool)
        present[np.arange(kt)[:, None], beta] = True
        left_max = {"x": 255, "secx": 255, "dx": _DELTA_MAX,
                    "x4": 255 + _DELTA_MAX}
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
                if not count:
                    continue
                for gate, left, right in factors:
                    bound = count * left_max[left] * right_max[right]
                    blocks.append(((t, rows, count, pattern, gate, left),
                                   right, bound))
        self.groups = []
        for members, dtype in _exactness_groups([b[-1] for b in blocks]):
            # The int8 left operands (deltas) first, then the uint8 ones.
            group = sorted((blocks[i] for i in members),
                           key=lambda block: block[0][-1] != "dx")
            rights = []
            for (t, rows, _, pattern, *_), right, _ in group:
                values = luts[right].take(w_idx[t])
                if pattern is not None:
                    values = values * (beta == pattern)
                rights.append(values if rows is None else values[rows])
            signed = sum(member[2] for member, _, _ in group
                         if member[-1] == "dx")
            self.groups.append(([member for member, _, _ in group],
                                np.concatenate(rights).astype(dtype), signed))

        self.left_kinds = {left for _, left, _ in _error_factors(policy)}
        codes = beta | luts["wcls"].take(w_idx) << 4           # (4, Kt, N)
        offsets = np.arange(4 * kt).reshape(4, kt, 1) * 64
        self.hist_b = np.bincount(
            (codes + offsets).ravel(), minlength=4 * kt * 64
        ).reshape(4, kt, 64)


def _left_values(
    x_k: np.ndarray, kinds: set[str], width_primary: bool
) -> dict[str, np.ndarray]:
    """The left operands of the error blocks on K-major uint8 activations.

    ``dx`` is the reduction delta (int8, :func:`packing._act_delta_uint8`;
    every policy has a ``dx`` block, and the statistics read it too),
    ``x4 = x + dx`` the 4b-4b operand (uint8 arithmetic wraps back into
    range), ``secx`` the activation a swap-port pair collision still
    reduces (``x > 15``).  Each is zero wherever ``x`` is.
    """
    values = {"x": x_k, "dx": packing._act_delta_uint8(x_k, width_primary)}
    if "x4" in kinds:
        values["x4"] = x_k + values["dx"].view(np.uint8)
    if "secx" in kinds:
        values["secx"] = x_k * (x_k > 15).view(np.uint8)
    return values


def _demand_gate(bits: np.ndarray, pattern: int, gate: str) -> np.ndarray:
    """Activation-side demand gate of the blocks of one weight pattern.

    ``bits`` holds the ``(4, Kt, b)`` 0/1 uint8 nonzero masks of the
    K-major thread views.  A block's left operand vanishes where thread
    ``t``'s own activation is zero; elsewhere the number of other active
    threads is the count of nonzero activations over the pattern's threads
    minus one.  ``eq1``, ``ge1`` and ``ge2`` compare it with 1, 1 and 2,
    so one mask serves every thread of the pattern.
    """
    count = sum(bits[s] for s in range(4) if pattern >> s & 1)
    if gate == "eq1":
        return count == 2
    return count >= (3 if gate == "ge2" else 2)


def _panel_gemms(acc: np.ndarray, start: int, lefts: np.ndarray,
                 rights: np.ndarray, buffer: np.ndarray,
                 signed: int = 0) -> None:
    """``acc[start:start + b] += lefts.T @ rights`` in column panels.

    ``lefts`` is a ``(S, b)`` one-byte K-major operand (its first ``signed``
    rows int8, the rest uint8).  Each panel of :data:`_PANEL` columns is
    converted into ``buffer`` (``rights``' float dtype) and multiplied
    while the copy is still in cache.
    """
    for col in range(0, lefts.shape[1], _PANEL):
        panel = lefts[:, col:col + _PANEL]
        floats = buffer[:panel.size].reshape(panel.shape)
        np.copyto(floats[:signed], panel[:signed].view(np.int8))
        np.copyto(floats[signed:], panel[signed:])
        acc[start + col:start + col + panel.shape[1]] += floats.T @ rights


def _fast_4t(
    x_q: np.ndarray,
    w_q: np.ndarray,
    policy: PackingPolicy,
    collect_stats: bool,
    prune_blocks: bool,
) -> tuple[np.ndarray, SMTStatistics | None]:
    """Factorized 4-thread execution in one pass over the activation rows.

    The NB-SMT output equals the exact product plus every thread's error.
    Where thread ``t`` is active its demand is ``1 + popcount(alpha & b)``,
    with ``alpha`` the activation-side nonzero pattern of the four threads
    at ``(m, k)`` and ``b`` the other threads' weight-side pattern at
    ``(k, n)``.  Partitioning the weight positions by their pattern
    therefore turns each demand gate into a function of ``alpha`` alone, and
    the error into separable blocks ``(g(alpha) * L) @ ([beta == p] * R)``
    (:func:`_error_factors`, :func:`_pattern_blocks`).  The right sides
    are stacked once, before the pass (:class:`_WeightPlan`).

    Operands outside the 8-bit contract take the chunked reference path
    (the reduced operands below cover the contract only).  Inside it, K is
    zero-padded to a multiple of 4 when it needs it, and thread ``t`` is
    the ``t``-th quarter of the columns of the narrowed uint8 ``x_q``.
    The rows are processed in blocks of :data:`_ROW_BLOCK_4T`, each
    transposed once to K-major.  The block's exact GEMM runs on it, and
    every error block's left rows are written into a one-byte stacked
    operand as a demand gate (:func:`_demand_gate`, from the threads'
    nonzero masks) times a left value in uint8 arithmetic
    (:func:`_left_values`); both are converted to float and multiplied in
    panels of :data:`_PANEL` columns (:func:`_panel_gemms`).
    Statistics are reconstructed exactly from per-K histograms of joint
    activation codes (:func:`_joint_codes`), contracted with the plan's
    weight histograms (see :func:`_reduced_tables`).
    """
    threads = 4
    (x_lo, x_hi), (w_lo, w_hi) = _operand_range(x_q), _operand_range(w_q)
    if x_lo < 0 or x_hi > 255 or w_lo < -128 or w_hi > 127:
        x_t, w_t = split_into_threads(x_q, w_q, threads)
        return _reference_multi_t(x_t, w_t, policy, collect_stats, 256)
    x_q, w_q = _narrowed(x_q, w_q)
    if x_q.shape[1] != w_q.shape[0]:
        raise ValueError("inner dimensions of X and W differ")
    pad = -x_q.shape[1] % threads
    if pad:
        x_q = np.pad(x_q, ((0, 0), (0, pad)))
        w_q = np.pad(w_q, ((0, pad), (0, 0)))
    plan = _WeightPlan(w_q, policy, prune_blocks)
    m = x_q.shape[0]
    kt, n = plan.kt, plan.n
    # Integer-valued float64 sums of exact GEMM results.
    exact = np.zeros((m, n))
    error = np.zeros((m, n))
    codes = np.empty((kt, m), np.uint16) if collect_stats else None
    # Reused across row blocks: the stacked operand in one-byte storage,
    # and the float copy of one panel of it per GEMM dtype.
    stacked = max([len(rights) for _, rights, _ in plan.groups] + [4 * kt])
    lefts_bytes = np.empty(stacked * min(m, _ROW_BLOCK_4T), np.uint8)
    floats = {rights.dtype: np.empty(stacked * _PANEL, rights.dtype)
              for rights in [w for _, w in plan.exact_groups]
              + [rights for _, rights, _ in plan.groups]}
    for start in range(0, m, _ROW_BLOCK_4T):
        x_block = x_q[start:start + _ROW_BLOCK_4T]            # (b, K)
        x_k = np.ascontiguousarray(x_block.T).reshape(
            threads, kt, len(x_block))
        x_rows = x_k.reshape(threads * kt, len(x_block))
        for cols, w_cast in plan.exact_groups:
            _panel_gemms(exact, start, x_rows[cols], w_cast,
                         floats[w_cast.dtype])
        bits = (x_k != 0).view(np.uint8)                       # (4, Kt, b)
        values = _left_values(x_k, plan.left_kinds, policy.width_primary)
        gates = {}
        for members, rights, signed in plan.groups:
            shape = (len(rights), len(x_block))
            lefts = lefts_bytes[:shape[0] * shape[1]].reshape(shape)
            pos = 0
            for t, k_rows, count, pattern, gate, left in members:
                if gate != "all" and (pattern, gate) not in gates:
                    gates[pattern, gate] = _demand_gate(bits, pattern, gate)
                gate_rows = gates.get((pattern, gate))
                left_rows = values[left][t]
                if k_rows is not None:
                    left_rows = left_rows[k_rows]
                    if gate_rows is not None:
                        gate_rows = gate_rows[k_rows]
                out = lefts[pos:pos + count].view(left_rows.dtype)
                if gate_rows is None:
                    np.copyto(out, left_rows)
                else:
                    np.multiply(gate_rows, left_rows, out=out)
                pos += count
            _panel_gemms(error, start, lefts, rights, floats[rights.dtype],
                         signed)
        if collect_stats:
            _joint_codes(x_k, bits, values["dx"],
                         codes[:, start:start + _ROW_BLOCK_4T])
    out = np.empty((m, n), dtype=np.int64)
    np.add(exact, error, out=out, casting="unsafe")
    if not collect_stats:
        return out, None

    stats = SMTStatistics()
    hist_a = _code_histograms(codes)
    hist_b = plan.hist_b
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
    stats.sum_sq_error = float(np.square(error, out=error).sum())
    stats.sum_sq_exact = float(np.square(exact, out=exact).sum())
    stats.outputs = m * n
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
