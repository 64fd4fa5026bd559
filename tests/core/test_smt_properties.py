"""Property tests cross-checking the NB-SMT execution paths.

Hypothesis drives random operand matrices (with the boundary values the
collision logic cares about: 4-bit fits, multiples of 16, zeros) through

* the factorized fast paths (2- and 4-thread),
* the chunked reference executor, and
* the explicit SySMT simulators (vectorized lane-level and per-PE objects),

and asserts bit-exact agreement of outputs and of every statistics counter.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from repro.core.policies import POLICY_NAMES, get_policy
from repro.core.smt import NBSMTMatmul, SMTStatistics
from repro.systolic.sysmt import SySMTArray
from tests.strategies import (
    DETERMINISM_SETTINGS,
    SLOW_SETTINGS,
    STANDARD_SETTINGS,
)

#: Values that exercise every branch of the collision logic: zeros
#: (sparsity), 4-bit fits, multiples of 16 (zero reduction delta), rounding
#: boundaries, and range extremes.
_ACT_SPECIALS = [0, 1, 7, 8, 15, 16, 17, 24, 40, 128, 239, 240, 248, 255]
_WGT_SPECIALS = [0, 1, -1, 7, -8, 8, -9, 15, 16, -16, 24, 120, -120, 127, -127]

_STATS_FIELDS = [
    "mac_total", "mac_active", "mac_collided", "mac_reduced",
    "slots_total", "slots_active", "act_values", "act_nonzero",
    "sum_sq_error", "sum_sq_exact", "outputs",
]


#: Operand storage dtypes ``(activations, weights)``: int64, int32, what
#: the quantized model feeds (uint8 activations, int32 weights), and the
#: narrowest storage of the 8-bit contract (uint8 with int8 weights).
_OPERAND_DTYPES = [
    (np.int64, np.int64), (np.int32, np.int32),
    (np.uint8, np.int32), (np.uint8, np.int8),
]


@st.composite
def nbsmt_case(draw, max_m: int = 24, max_k: int = 40, max_n: int = 12):
    """A random quantized operand pair plus execution configuration."""
    m = draw(st.integers(1, max_m))
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    act_sparsity = draw(st.sampled_from([0.0, 0.3, 0.6, 0.9]))
    # 0.01: nearly dense weights, where most weight activity patterns
    # occur in only some K rows (the 4-thread path's row selection).
    wgt_sparsity = draw(st.sampled_from([0.0, 0.01, 0.2, 0.5]))
    special_fraction = draw(st.sampled_from([0.0, 0.3, 1.0]))
    threads = draw(st.sampled_from([2, 4]))
    policy = draw(st.sampled_from(POLICY_NAMES))
    x_dtype, w_dtype = draw(st.sampled_from(_OPERAND_DTYPES))

    rng = np.random.default_rng(seed)
    x = rng.integers(0, 256, size=(m, k), dtype=np.int64)
    w = rng.integers(-127, 128, size=(k, n), dtype=np.int64)
    if special_fraction > 0.0:
        x_special = rng.choice(_ACT_SPECIALS, size=(m, k))
        w_special = rng.choice(_WGT_SPECIALS, size=(k, n))
        x = np.where(rng.random((m, k)) < special_fraction, x_special, x)
        w = np.where(rng.random((k, n)) < special_fraction, w_special, w)
    x[rng.random((m, k)) < act_sparsity] = 0
    w[rng.random((k, n)) < wgt_sparsity] = 0
    return x.astype(x_dtype), w.astype(w_dtype), threads, policy


def _assert_stats_equal(actual: SMTStatistics, expected: SMTStatistics, label: str):
    for field in _STATS_FIELDS:
        assert getattr(actual, field) == getattr(expected, field), (
            f"{label}: stats field {field!r} differs: "
            f"{getattr(actual, field)} != {getattr(expected, field)}"
        )


@STANDARD_SETTINGS
@given(case=nbsmt_case())
def test_factorized_matches_reference_bit_exactly(case):
    """Fast-path outputs and *all* statistics equal the reference executor."""
    x, w, threads, policy = case
    fast = NBSMTMatmul(threads, policy, collect_stats=True)
    reference = NBSMTMatmul(threads, policy, collect_stats=True, force_reference=True)
    out_fast = fast.matmul(x, w)
    out_reference = reference.matmul(x, w)
    np.testing.assert_array_equal(out_fast, out_reference)
    _assert_stats_equal(fast.stats, reference.stats, f"{policy}/T{threads}")


@pytest.mark.slow
@DETERMINISM_SETTINGS
@given(case=nbsmt_case(), prune_blocks=st.booleans())
def test_4t_factorized_reference_agree_determinism_tier(case, prune_blocks):
    """The 4-thread path against the reference, at the determinism budget."""
    x, w, _, policy = case
    fast = NBSMTMatmul(4, policy, collect_stats=True, prune_blocks=prune_blocks)
    reference = NBSMTMatmul(4, policy, collect_stats=True, force_reference=True)
    out_fast = fast.matmul(x, w)
    np.testing.assert_array_equal(out_fast, reference.matmul(x, w))
    _assert_stats_equal(fast.stats, reference.stats, f"{policy}/T4")


@pytest.mark.slow
@DETERMINISM_SETTINGS
@given(case=nbsmt_case())
def test_2t_factorized_reference_agree_determinism_tier(case):
    """The 2-thread path against the chunked reference, at the determinism budget."""
    x, w, _, policy = case
    fast = NBSMTMatmul(2, policy, collect_stats=True)
    reference = NBSMTMatmul(2, policy, collect_stats=True, force_reference=True)
    np.testing.assert_array_equal(fast.matmul(x, w), reference.matmul(x, w))
    _assert_stats_equal(fast.stats, reference.stats, f"{policy}/T2")


@STANDARD_SETTINGS
@given(case=nbsmt_case(max_m=20))
def test_stats_merge_equals_whole_run(case):
    """Row-sharded executions merge into exactly the whole-run statistics.

    This is the invariant the sharded parallel evaluation layer relies on
    when reducing per-worker statistics with :meth:`SMTStatistics.merge`.
    """
    x, w, threads, policy = case
    whole = NBSMTMatmul(threads, policy, collect_stats=True)
    whole.matmul(x, w)

    sharded = NBSMTMatmul(threads, policy, collect_stats=True)
    split = max(1, x.shape[0] // 2)
    sharded.matmul(x[:split], w)
    if split < x.shape[0]:
        sharded.matmul(x[split:], w)
    _assert_stats_equal(sharded.stats, whole.stats, f"merge {policy}/T{threads}")


@STANDARD_SETTINGS
@given(case=nbsmt_case(max_m=16, max_k=24, max_n=8))
def test_vectorized_explicit_matches_functional(case):
    """The lane-level explicit array simulation equals the functional model."""
    x, w, threads, policy = case
    array = SySMTArray(rows=4, cols=4, threads=threads, policy=policy)
    out_explicit, _ = array.matmul_explicit(x, w)
    expected = NBSMTMatmul(threads, policy, collect_stats=False).matmul(x, w)
    np.testing.assert_array_equal(out_explicit, expected)


@pytest.mark.slow
@pytest.mark.parametrize("threads", [2, 4])
@DETERMINISM_SETTINGS
@given(case=nbsmt_case(max_m=16, max_k=24, max_n=8))
def test_explicit_matches_factorized_determinism_tier(case, threads):
    """The lane-level explicit simulator against the factorized kernels.

    Outputs must agree bit for bit, and the simulator's PE cycle counts
    must equal the functional issue-slot counters (every cycle is active
    without sparsity detection, where every thread always demands the MAC).
    """
    x, w, _, policy = case
    array = SySMTArray(rows=4, cols=4, threads=threads, policy=policy)
    out_explicit, report = array.matmul_explicit(x, w)
    fast = NBSMTMatmul(threads, policy, collect_stats=True)
    np.testing.assert_array_equal(out_explicit, fast.matmul(x, w))
    assert report.mac_cycles_total == fast.stats.slots_total
    assert report.mac_cycles_active == (
        fast.stats.slots_active if get_policy(policy).sparsity
        else fast.stats.slots_total)


@pytest.mark.slow
@SLOW_SETTINGS
@given(case=nbsmt_case(max_m=8, max_k=20, max_n=6))
def test_explicit_vectorized_matches_per_pe_objects(case):
    """Lane-level numpy execution equals the per-PE object simulation.

    The per-PE path steps Algorithm 1 one operand pair at a time through the
    fMUL nibble/shift interface, so this is the strongest (and slowest)
    equivalence in the suite -- marked ``slow`` and excluded from the default
    profile.
    """
    x, w, threads, policy = case
    array = SySMTArray(rows=4, cols=4, threads=threads, policy=policy)
    out_vec, report_vec = array.matmul_explicit(x, w)
    out_pe, report_pe = array.matmul_per_pe(x, w)
    np.testing.assert_array_equal(out_vec, out_pe)
    assert report_vec.mac_cycles_active == report_pe.mac_cycles_active
    assert report_vec.mac_cycles_total == report_pe.mac_cycles_total
    assert report_vec.cycles == report_pe.cycles


@pytest.mark.slow
def test_exhaustive_policy_grid_small_matrices():
    """Every policy x thread count on a fixed adversarial matrix set."""
    rng = np.random.default_rng(1234)
    x = rng.choice(_ACT_SPECIALS, size=(12, 16)).astype(np.int64)
    w = rng.choice(_WGT_SPECIALS, size=(16, 9)).astype(np.int64)
    for policy in POLICY_NAMES:
        for threads in (1, 2, 4):
            fast = NBSMTMatmul(threads, policy, collect_stats=True)
            reference = NBSMTMatmul(
                threads, policy, collect_stats=True, force_reference=True
            )
            np.testing.assert_array_equal(
                fast.matmul(x, w), reference.matmul(x, w), err_msg=f"{policy}/T{threads}"
            )
            if threads > 1:
                _assert_stats_equal(
                    fast.stats, reference.stats, f"{policy}/T{threads}"
                )
