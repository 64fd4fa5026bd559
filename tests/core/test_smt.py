"""Functional NB-SMT executor: fast paths vs reference, invariants, stats."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import POLICY_NAMES, get_policy
from repro.core.smt import NBSMTMatmul, SMTStatistics, split_into_threads
from repro.quant.engine import LayerContext
from repro.quant.robustness import ReducedPrecisionEngine
from tests.conftest import make_quantized_pair
from repro.utils.rng import new_rng

ALL_POLICIES = ("min", "S", "A", "Aw", "S+A", "S+Aw", "W", "aW", "S+W", "S+aW")


# -- thread splitting -------------------------------------------------------------

def test_split_into_threads_shapes_and_padding():
    x = np.arange(2 * 7).reshape(2, 7)
    w = np.arange(7 * 3).reshape(7, 3)
    x_t, w_t = split_into_threads(x, w, 2)
    assert x_t.shape == (2, 2, 4)
    assert w_t.shape == (2, 4, 3)
    # Padded positions are zero.
    assert np.all(x_t[1, :, -1] == 0)
    assert np.all(w_t[1, -1, :] == 0)


def test_split_into_threads_reconstructs_matmul():
    rng = new_rng(0)
    x, w = make_quantized_pair(rng, m=10, k=13, n=5)
    x_t, w_t = split_into_threads(x, w, 4)
    total = sum(x_t[t] @ w_t[t] for t in range(4))
    assert np.array_equal(total, x @ w)


def test_split_requires_matching_inner_dims():
    with pytest.raises(ValueError):
        split_into_threads(np.zeros((2, 3)), np.zeros((4, 2)), 2)


# -- basic executor invariants --------------------------------------------------------

def test_single_thread_is_exact(quantized_pair):
    x, w = quantized_pair
    executor = NBSMTMatmul(1, "S+A")
    assert np.array_equal(executor.matmul(x, w), x @ w)
    assert executor.stats.mac_total == x.shape[0] * x.shape[1] * w.shape[1]


def test_invalid_thread_count():
    with pytest.raises(ValueError):
        NBSMTMatmul(3, "S+A")


def test_stacked_is_the_only_4t_kernel():
    with pytest.raises(ValueError):
        NBSMTMatmul(4, "S+A", fast4t_impl="legacy")


def test_no_collisions_means_no_error(rng):
    """If thread 2's activations are all zero, S policies are exact."""
    x, w = make_quantized_pair(rng, m=24, k=32, n=12, act_sparsity=0.3)
    x[:, 16:] = 0  # the second thread never demands the MAC
    for policy in ("S", "S+A", "S+Aw"):
        executor = NBSMTMatmul(2, policy)
        assert np.array_equal(executor.matmul(x, w), x @ w), policy


def test_narrow_activations_are_error_free_with_width_policy(rng):
    x, w = make_quantized_pair(rng, m=24, k=32, n=12)
    x = np.clip(x, 0, 15)
    for policy in ("A", "S+A", "Aw", "S+Aw"):
        executor = NBSMTMatmul(2, policy)
        assert np.array_equal(executor.matmul(x, w), x @ w), policy


def test_narrow_weights_are_error_free_with_weight_policy(rng):
    x, w = make_quantized_pair(rng, m=24, k=32, n=12)
    w = np.clip(w, -8, 7)
    for policy in ("W", "S+W", "aW", "S+aW"):
        executor = NBSMTMatmul(2, policy)
        assert np.array_equal(executor.matmul(x, w), x @ w), policy


def test_min_policy_equals_whole_model_reduction(rng):
    """The 'min' policy reduces every activation, like the A4W8 sweep."""
    from repro.core.precision import act_fits_4bit, reduce_act_to_4bit_msb

    x, w = make_quantized_pair(rng, m=16, k=24, n=8)
    executor = NBSMTMatmul(2, "min")
    out = executor.matmul(x, w)
    x_reduced = reduce_act_to_4bit_msb(x)
    assert np.array_equal(out, x_reduced @ w)


def test_permutation_leaves_exact_result_unchanged(rng):
    x, w = make_quantized_pair(rng, m=16, k=24, n=8)
    executor = NBSMTMatmul(1, "S+A")
    perm = new_rng(3).permutation(24)
    assert np.array_equal(executor.matmul(x, w, permutation=perm), x @ w)


def test_permutation_changes_collisions_but_not_shape(rng):
    x, w = make_quantized_pair(rng, m=32, k=40, n=16)
    perm = new_rng(4).permutation(40)
    executor = NBSMTMatmul(2, "S+A")
    out = executor.matmul(x, w, permutation=perm)
    assert out.shape == (32, 16)


# -- fast vs reference equivalence ---------------------------------------------------

@pytest.mark.parametrize("policy", ALL_POLICIES)
@pytest.mark.parametrize("threads", [2, 4])
def test_fast_path_matches_reference(rng, policy, threads):
    x, w = make_quantized_pair(rng, m=40, k=48, n=20)
    fast = NBSMTMatmul(threads, policy)
    reference = NBSMTMatmul(threads, policy, force_reference=True, chunk_rows=16)
    out_fast = fast.matmul(x, w)
    out_reference = reference.matmul(x, w)
    assert np.array_equal(out_fast, out_reference)
    assert fast.stats.mac_total == reference.stats.mac_total
    assert fast.stats.slots_total == reference.stats.slots_total
    assert fast.stats.slots_active == reference.stats.slots_active
    assert fast.stats.mac_active == reference.stats.mac_active
    assert fast.stats.sum_sq_error == pytest.approx(reference.stats.sum_sq_error)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    act_sparsity=st.floats(min_value=0.0, max_value=0.9),
    threads=st.sampled_from([2, 4]),
    policy=st.sampled_from(["min", "S", "S+A", "S+Aw", "S+W"]),
)
def test_fast_path_matches_reference_property(seed, act_sparsity, threads, policy):
    rng = new_rng(seed)
    x, w = make_quantized_pair(rng, m=12, k=16, n=6, act_sparsity=act_sparsity)
    fast = NBSMTMatmul(threads, policy, collect_stats=False)
    reference = NBSMTMatmul(threads, policy, collect_stats=False,
                            force_reference=True, chunk_rows=5)
    assert np.array_equal(fast.matmul(x, w), reference.matmul(x, w))


def test_2t_reduced_count_matches_reference(rng):
    x, w = make_quantized_pair(rng, m=24, k=32, n=12)
    for policy in ("min", "S", "S+A", "S+Aw", "S+W"):
        fast = NBSMTMatmul(2, policy)
        reference = NBSMTMatmul(2, policy, force_reference=True)
        fast.matmul(x, w)
        reference.matmul(x, w)
        assert fast.stats.mac_reduced == reference.stats.mac_reduced, policy


# -- statistics ------------------------------------------------------------------------

def test_statistics_merge_and_derived_quantities():
    a = SMTStatistics(mac_total=100, mac_active=40, slots_total=50, slots_active=35,
                      act_values=100, act_nonzero=40, sum_sq_error=10.0,
                      sum_sq_exact=100.0, outputs=10)
    b = SMTStatistics(mac_total=100, mac_active=60, slots_total=50, slots_active=45,
                      act_values=100, act_nonzero=60, sum_sq_error=0.0,
                      sum_sq_exact=100.0, outputs=10)
    a.merge(b)
    assert a.mac_total == 200
    assert a.baseline_utilization == pytest.approx(0.5)
    assert a.smt_utilization == pytest.approx(0.8)
    assert a.utilization_gain == pytest.approx(1.6)
    assert a.activation_sparsity == pytest.approx(0.5)
    assert a.relative_mse == pytest.approx(0.05)
    assert a.mse == pytest.approx(0.5)
    assert set(a.as_dict()) >= {"mac_total", "utilization_gain", "relative_mse"}


def test_empty_statistics_are_safe():
    stats = SMTStatistics()
    assert stats.baseline_utilization == 0.0
    assert stats.utilization_gain == 1.0
    assert stats.relative_mse == 0.0
    assert stats.mse == 0.0
    assert stats.activation_sparsity == 0.0


def test_mse_increases_with_threads(rng):
    x, w = make_quantized_pair(rng, m=48, k=64, n=24)
    mse = {}
    for threads in (2, 4):
        executor = NBSMTMatmul(threads, "S+A")
        executor.matmul(x, w)
        mse[threads] = executor.stats.relative_mse
    assert mse[4] >= mse[2]


def test_policy_ordering_of_error(rng):
    """Combining sparsity and width must not be worse than either alone."""
    x, w = make_quantized_pair(rng, m=64, k=96, n=32)
    errors = {}
    for policy in ("min", "S", "A", "S+A"):
        executor = NBSMTMatmul(2, policy)
        executor.matmul(x, w)
        errors[policy] = executor.stats.sum_sq_error
    assert errors["S+A"] <= errors["S"]
    assert errors["S+A"] <= errors["A"]
    assert errors["S"] <= errors["min"]
    assert errors["A"] <= errors["min"]


def test_utilization_gain_close_to_eq8(rng):
    """With independent random threads, the measured gain tracks 1 + s."""
    x, w = make_quantized_pair(rng, m=96, k=128, n=32, act_sparsity=0.6,
                               wgt_sparsity=0.0)
    executor = NBSMTMatmul(2, "S+A")
    executor.matmul(x, w)
    sparsity = executor.stats.activation_sparsity
    assert executor.stats.utilization_gain == pytest.approx(1 + sparsity, abs=0.08)


def test_reset_stats(quantized_pair):
    x, w = quantized_pair
    executor = NBSMTMatmul(2, "S+A")
    executor.matmul(x, w)
    assert executor.stats.mac_total > 0
    executor.reset_stats()
    assert executor.stats.mac_total == 0


def test_collect_stats_false_skips_counters(quantized_pair):
    x, w = quantized_pair
    executor = NBSMTMatmul(2, "S+A", collect_stats=False)
    executor.matmul(x, w)
    assert executor.stats.mac_total == 0


# -- sparsity-adaptive block pruning (4T stacked path) ----------------------------

def _pruning_triplet(x, w, policy):
    pruned = NBSMTMatmul(4, policy, collect_stats=True, prune_blocks=True)
    unpruned = NBSMTMatmul(4, policy, collect_stats=True, prune_blocks=False)
    reference = NBSMTMatmul(4, policy, collect_stats=True, force_reference=True)
    return (
        (pruned, pruned.matmul(x, w)),
        (unpruned, unpruned.matmul(x, w)),
        (reference, reference.matmul(x, w)),
    )


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_block_pruning_bit_exact(rng, policy):
    x, w = make_quantized_pair(rng, m=40, k=48, n=16, act_sparsity=0.6,
                               wgt_sparsity=0.5)
    (p, out_p), (u, out_u), (r, out_r) = _pruning_triplet(x, w, policy)
    assert np.array_equal(out_p, out_u)
    assert np.array_equal(out_p, out_r)
    assert p.stats.as_dict() == u.stats.as_dict() == r.stats.as_dict()


def test_block_pruning_with_empty_delta_blocks(rng):
    # All activations fit 4 bits -> every activation reduction delta is zero
    # and the dx-based blocks are skipped entirely; outputs must not change.
    x, w = make_quantized_pair(rng, m=48, k=64, n=24, act_sparsity=0.5)
    x = x % 16
    (p, out_p), (u, out_u), (r, out_r) = _pruning_triplet(x, w, "S+A")
    assert np.array_equal(out_p, out_u)
    assert np.array_equal(out_p, out_r)
    assert p.stats.as_dict() == u.stats.as_dict()


def test_block_pruning_stats_off_path(rng):
    x, w = make_quantized_pair(rng, m=32, k=32, n=8, act_sparsity=0.7,
                               wgt_sparsity=0.6)
    pruned = NBSMTMatmul(4, "S+A", collect_stats=False, prune_blocks=True)
    unpruned = NBSMTMatmul(4, "S+A", collect_stats=False, prune_blocks=False)
    assert np.array_equal(pruned.matmul(x, w), unpruned.matmul(x, w))


def test_statistics_payload_roundtrip(rng):
    import json

    x, w = make_quantized_pair(rng, m=24, k=32, n=8)
    executor = NBSMTMatmul(4, "S+A", collect_stats=True)
    executor.matmul(x, w)
    payload = json.loads(json.dumps(executor.stats.to_payload()))
    rebuilt = SMTStatistics.from_payload(payload)
    assert rebuilt.as_dict() == executor.stats.as_dict()


# -- edges of the 4-thread pattern-partitioned path ---------------------------------

_STATS_FIELDS = tuple(SMTStatistics().to_payload())


def _assert_matches_reference(x, w, policy, threads=4, **fast_kwargs):
    fast = NBSMTMatmul(threads, policy, collect_stats=True, **fast_kwargs)
    reference = NBSMTMatmul(threads, policy, collect_stats=True,
                            force_reference=True)
    out = fast.matmul(x, w)
    assert np.array_equal(out, reference.matmul(x, w))
    for field in _STATS_FIELDS:
        assert getattr(fast.stats, field) == getattr(reference.stats, field), field
    return out


def test_exactness_groups_pack_float32_and_isolate_float64():
    from repro.core.smt import _F32_EXACT_LIMIT, _exactness_groups

    half = _F32_EXACT_LIMIT / 2
    groups = _exactness_groups([half - 1, half - 1, half, 2 * half, 3.0])
    assert groups == [
        ([0, 1], np.float32), ([3], np.float64), ([2, 4], np.float32),
    ]


@pytest.mark.parametrize("policy", ["S+A", "S+aW", "min"])
def test_4t_large_k_max_magnitude_uses_float32_groups_and_float64(
        monkeypatch, policy):
    """K large enough that single error blocks overflow float32 exactness."""
    import repro.core.smt as smt

    seen = []
    groups = smt._exactness_groups

    def spy(bounds):
        result = groups(bounds)
        seen.extend(dtype for _, dtype in result)
        return result

    monkeypatch.setattr(smt, "_exactness_groups", spy)
    rng = new_rng(7)
    m, k, n = 3, 4 * 4400, 2
    x = rng.choice([255, 248, 241], size=(m, k)).astype(np.int64)
    # Mostly positive weights: the partial sums climb past 2**24.
    w = rng.choice([127, 113, 127, -128], size=(k, n)).astype(np.int64)
    x[rng.random((m, k)) < 0.05] = 0
    w[rng.random((k, n)) < 0.01] = 0
    _assert_matches_reference(x, w, policy)
    assert np.float64 in seen
    assert seen.count(np.float32) >= 2


def test_4t_resnet_shaped_row_selection_all_paths_agree():
    """N = 64, ~1% weight zeros, ~50% activation zeros (eval-4t's regime)."""
    x, w = make_quantized_pair(new_rng(11), m=300, k=144, n=64,
                               act_sparsity=0.5, wgt_sparsity=0.01)
    _, w_t = split_into_threads(x, w, 4)
    beta = sum((w_t[t] != 0).astype(int) << t for t in range(4))
    rows_with = [(beta == p).any(axis=1).sum() for p in range(16)]
    # Some weight patterns occur in only part of the K rows.
    assert any(0 < count < w_t.shape[1] for count in rows_with)
    for policy in ALL_POLICIES:
        pruned = _assert_matches_reference(x, w, policy, prune_blocks=True)
        unpruned = _assert_matches_reference(x, w, policy, prune_blocks=False)
        assert np.array_equal(pruned, unpruned)


@pytest.mark.parametrize("shapes", [((0, 8), (8, 3)), ((5, 0), (0, 3)),
                                    ((5, 8), (8, 0)), ((1, 1), (1, 1))])
def test_4t_degenerate_shapes_match_reference(shapes):
    x = np.full(shapes[0], 200, dtype=np.int64)
    w = np.full(shapes[1], -100, dtype=np.int64)
    for prune_blocks in (True, False):
        out = _assert_matches_reference(x, w, "S+A", prune_blocks=prune_blocks)
        assert out.shape == (shapes[0][0], shapes[1][1])


def test_4t_operands_outside_8_bits_take_the_reference_semantics():
    x = np.array([[300, 5, 0, 17]])
    w = np.array([[3], [100], [-5], [7]])
    _assert_matches_reference(x, w, "S+A")


@pytest.mark.parametrize("policy, x, w", [
    # Activation 300 (k = 0) collides with 17 (k = 2): the reference
    # replaces it by the reduction of 255, not 300 plus that delta.
    ("S+A", [[300, 5, 17, 0]], [[3], [100], [-5], [7]]),
    # Weight 200 (k = 0) collides with -5 (k = 2), likewise.
    ("S+W", [[30, 5, 17, 0]], [[200], [3], [-5], [7]]),
])
def test_2t_operands_outside_8_bits_take_the_reference_semantics(policy, x, w):
    _assert_matches_reference(np.array(x), np.array(w), policy, threads=2)


# -- row blocks and thread halves of the 2-thread path ------------------------------

@pytest.mark.parametrize("m", [1000, 2300])
@pytest.mark.parametrize("k", [47, 48])
@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_2t_many_rows_match_reference(m, k, policy):
    """M beyond one 255-row counting block and one row block, odd and even K.

    Neither M is a multiple of either block, so the last block is partial;
    odd K pads thread 2 with a zero column.  Uniform 8-bit values reach
    the clipped range ends (248-255 reduce to 240).
    """
    rng = new_rng(m + k)
    x = rng.integers(0, 256, size=(m, k))
    w = rng.integers(-128, 128, size=(k, 6))
    # Dense first rows: every count of a 255-row block reaches 255.
    x[600:][rng.random((m - 600, k)) < 0.4] = 0
    w[rng.random((k, 6)) < 0.2] = 0
    _assert_matches_reference(x.astype(np.uint8), w.astype(np.int32), policy,
                              threads=2)


@pytest.mark.parametrize("policy", ["S+A", "S+aW", "min"])
def test_2t_large_k_max_magnitude_splits_thread_halves(monkeypatch, policy):
    """K large enough that the thread halves need separate GEMMs.

    Each half's exact product needs float64; the halves' error terms need
    float64 too (weight deltas against 8-bit activations) or fit float32
    one half at a time (activation deltas against 8-bit weights).
    """
    import repro.core.smt as smt

    seen = []
    groups = smt._exactness_groups

    def spy(bounds):
        result = groups(bounds)
        seen.extend(dtype for _, dtype in result)
        return result

    monkeypatch.setattr(smt, "_exactness_groups", spy)
    rng = new_rng(7)
    m, k, n = 3, 2 * 4400, 2
    x = rng.choice([255, 248, 241], size=(m, k)).astype(np.int64)
    w = rng.choice([127, 113, 127, -128], size=(k, n)).astype(np.int64)
    x[rng.random((m, k)) < 0.05] = 0
    w[rng.random((k, n)) < 0.01] = 0
    _assert_matches_reference(x, w, policy, threads=2)
    # Two groups each for the exact and the error GEMMs.
    assert len(seen) == 4
    assert seen[:2] == [np.float64, np.float64]


# -- row blocks of the 4-thread path -------------------------------------------------

@pytest.mark.parametrize("prune_blocks", [True, False])
@pytest.mark.parametrize("m", [2300, 4999])
@pytest.mark.parametrize("k", [47, 50])
@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_4t_many_rows_match_reference(m, k, policy, prune_blocks):
    """M over several 2,048-row blocks, K not a multiple of 4.

    Neither M is a multiple of the row block (or of the 512-column GEMM
    panel), so the last block and panel are partial; K = 47 and 50 pad
    one and two zero columns.  Uniform 8-bit values reach the clipped
    range ends (248-255 reduce to 240).
    """
    rng = new_rng(m + k)
    x = rng.integers(0, 256, size=(m, k))
    w = rng.integers(-128, 128, size=(k, 6))
    x[rng.random((m, k)) < 0.4] = 0
    w[rng.random((k, 6)) < 0.05] = 0
    _assert_matches_reference(x.astype(np.uint8), w.astype(np.int32), policy,
                              prune_blocks=prune_blocks)


# -- operand storage dtypes ----------------------------------------------------

@pytest.mark.parametrize("point", ["A8W4", "A4W4"])
def test_reduced_precision_int8_weights_match_int64(rng, point):
    """uint8 activations with int8 weights give the int64 results.

    The ``w + 128`` table offset of the weight reductions must be added
    after widening: in int8 it overflows.  (``nbsmt_case`` draws the same
    storage for the NB-SMT kernels' property tests.)
    """
    x, w = make_quantized_pair(rng, m=24, k=40, n=12)
    engine = ReducedPrecisionEngine.from_point(point)
    assert np.array_equal(
        engine.matmul(x.astype(np.uint8), w.astype(np.int8), LayerContext("layer")),
        engine.matmul(x, w, LayerContext("layer")),
    )
