"""Effective-operand computation under the packing policies."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import packing
from repro.core.policies import get_policy
from repro.core.precision import (
    act_fits_4bit,
    reduce_act_to_4bit_msb,
    reduce_wgt_to_4bit_msb,
)


def test_thread_active_with_and_without_sparsity():
    x = np.array([0, 5, 7, 0])
    w = np.array([3, 0, 2, 0])
    with_sparsity = packing.thread_active(x, w, True)
    assert list(with_sparsity) == [False, False, True, False]
    without = packing.thread_active(x, w, False)
    assert list(without) == [True, True, True, True]


def test_colliding_act_keeps_narrow_values_with_width_check():
    policy = get_policy("S+A")
    x = np.array([3, 15, 16, 200])
    w = np.array([5, 5, 5, 5])
    effective = packing.colliding_act(x, w, policy)
    assert list(effective[:2]) == [3, 15]
    assert effective[2] == int(reduce_act_to_4bit_msb(16))
    assert effective[3] == int(reduce_act_to_4bit_msb(200))


def test_colliding_act_without_width_check_always_reduces():
    policy = get_policy("S")
    x = np.array([3, 15, 200])
    w = np.array([5, 5, 5])
    effective = packing.colliding_act(x, w, policy)
    assert np.array_equal(effective, reduce_act_to_4bit_msb(x))


def test_colliding_act_swap_keeps_exact_when_weight_is_narrow():
    policy = get_policy("S+Aw")
    x = np.array([200, 200])
    w = np.array([5, 100])  # first weight fits 4 bits -> swap, no error
    effective = packing.colliding_act(x, w, policy)
    assert effective[0] == 200
    assert effective[1] == int(reduce_act_to_4bit_msb(200))


def test_colliding_wgt_mirror_behaviour():
    policy = get_policy("S+W")
    x = np.array([200, 200])
    w = np.array([5, 100])
    effective = packing.colliding_wgt(x, w, policy)
    assert effective[0] == 5
    assert effective[1] == int(reduce_wgt_to_4bit_msb(100))


def test_colliding_product_4t_reduces_both_operands():
    policy = get_policy("S+A")
    product = packing.colliding_product_4t(np.array([46]), np.array([100]), policy)
    assert int(product[0]) == int(reduce_act_to_4bit_msb(46)) * int(
        reduce_wgt_to_4bit_msb(100)
    )
    narrow = packing.colliding_product_4t(np.array([7]), np.array([-3]), policy)
    assert int(narrow[0]) == 7 * -3


@given(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=-127, max_value=127),
)
def test_act_reduction_delta_zero_iff_no_error(x, w):
    policy = get_policy("S+A")
    delta = packing.act_reduction_delta(np.array([x]), policy)
    if x <= 15:
        assert int(delta[0]) == 0
    else:
        assert int(delta[0]) == int(reduce_act_to_4bit_msb(x)) - x


@pytest.mark.parametrize("policy_name", ["S", "S+A"])
def test_act_reduction_delta_exhaustive_over_uint8(policy_name):
    """The uint8 arithmetic equals the int64 reduction on every activation."""
    policy = get_policy(policy_name)
    x = np.arange(256, dtype=np.uint8)
    wide = x.astype(np.int64)
    expected = reduce_act_to_4bit_msb(wide) - wide
    if policy.width_primary:
        expected = np.where(act_fits_4bit(wide), 0, expected)
    delta = packing.act_reduction_delta(x, policy)
    assert delta.dtype == np.int8
    assert np.array_equal(delta.astype(np.int64), expected)
    # The 4-thread tables are the same function on every uint8 value.
    assert np.array_equal(packing._DELTA_LUTS[("act", policy.width_primary)], delta)


@given(st.integers(min_value=-127, max_value=127))
def test_wgt_reduction_delta_matches_reduction(w):
    policy = get_policy("S+W")
    delta = packing.wgt_reduction_delta(np.array([w]), policy)
    if -8 <= w <= 7:
        assert int(delta[0]) == 0
    else:
        assert int(delta[0]) == int(reduce_wgt_to_4bit_msb(w)) - w


def test_colliding_product_2t_error_bounded():
    policy = get_policy("S+A")
    x = np.arange(256)
    w = np.full(256, 100)
    products = packing.colliding_product_2t(x, w, policy)
    errors = np.abs(products - x * 100)
    # Worst case error per product: reduction error (<=8, or 15 when clipped)
    # times the weight magnitude.
    assert errors.max() <= 15 * 100
