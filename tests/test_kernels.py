"""Contract tests for the series kernels.

The Kronecker-substituted ``conv_trunc`` is checked against the schoolbook
loop ``py_conv_trunc``, an independent algorithm, with one case for each way
packing coefficients into big-int slots can go wrong.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubictheta import kernels


small_int_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=24)


@given(small_int_lists, small_int_lists, st.integers(0, 40))
def test_conv_backends_agree(a, b, order):
    assert kernels.conv_trunc(a, b, order) == kernels.py_conv_trunc(a, b, order)


@given(small_int_lists, st.integers(0, 30))
def test_conv_identity(a, order):
    out = kernels.conv_trunc(a, [1], order)
    want = (a + [0] * (order + 1))[: order + 1]
    assert out == want


def test_conv_truncation_rule():
    a = [1] * 6  # order 5
    b = [1] * 4  # order 3
    out = kernels.conv_trunc(a, b, 3)
    assert len(out) == 4


def test_conv_big_integers():
    big = 10 ** 30
    a = [big, -big, 7]
    b = [3, big]
    got = kernels.conv_trunc(a, b, 3)
    assert got == kernels.py_conv_trunc(a, b, 3)
    assert got[1] == big * big - 3 * big


def test_conv_int64_boundary():
    # products near 2**60 summed over 50 terms: past any int64 accumulator
    rng = random.Random(7)
    a = [rng.randrange(-(2 ** 30), 2 ** 30) for _ in range(50)]
    b = [rng.randrange(-(2 ** 30), 2 ** 30) for _ in range(50)]
    assert kernels.conv_trunc(a, b, 60) == kernels.py_conv_trunc(a, b, 60)


def test_conv_fraction_coefficients():
    a = [Fraction(1, 3), Fraction(2, 5)]
    b = [Fraction(3), Fraction(1, 7)]
    got = kernels.conv_trunc(a, b, 2)
    assert got == kernels.py_conv_trunc(a, b, 2)
    assert got[1] == Fraction(1, 21) + Fraction(6, 5)


_rng = random.Random(2205)
_HAZARDS = {
    "mixed_signs": ([3, -1, 0, -7, 2], [-2, 5, -5, 0, 1], 6),
    "coefficients_1e40": (
        [_rng.randrange(-(10 ** 40), 10 ** 40) for _ in range(30)],
        [_rng.randrange(-(10 ** 30), 10 ** 30) for _ in range(25)],
        40,
    ),
    "unlike_denominators": (
        [Fraction(1, 3), Fraction(-2, 5), 4, Fraction(7, 11)],
        [Fraction(-3, 7), 0, Fraction(1, 2), Fraction(5, 9)],
        5,
    ),
    "all_zero": ([0, 0, 0], [0, 0], 4),
    "one_side_zero": ([0, 0], [5, -6, 7], 3),
    "order_zero": ([-4, 9, 9], [6, 1], 0),
    "longer_than_order": ([1, -2, 3, 10 ** 50, -(10 ** 50)], [4, 5, -6, 10 ** 50], 2),
}


@pytest.mark.parametrize("a, b, order", list(_HAZARDS.values()), ids=list(_HAZARDS))
def test_conv_kronecker_hazards(a, b, order):
    got = kernels.conv_trunc(a, b, order)
    assert len(got) == order + 1
    assert got == kernels.py_conv_trunc(a, b, order)


@pytest.mark.parametrize("bits", [8, 16, 64])
def test_conv_slot_sign_boundary(bits):
    # each case has max|a| * max|b| * min(len) = 2**(bits - 1) or 2**bits - 1,
    # so the slot is bits // 8 bytes wide; a coefficient of +-2**(bits - 1)
    # sets its top bit and one of +-(2**bits - 1) sets every bit
    half = 2 ** (bits - 1)
    a, b = [half, -half], [1]
    assert kernels.conv_trunc(a, b, 2) == [half, -half, 0]
    a, b = [half // 2, -(half // 2)], [-1, 1]
    assert kernels.conv_trunc(a, b, 2) == [-(half // 2), half, -(half // 2)]
    full = 2 ** bits - 1
    assert kernels.conv_trunc([full, -full, full], [1], 2) == [full, -full, full]


@given(small_int_lists, st.integers(0, 30))
def test_div_inverts_mul(a, order):
    den = [1] + a
    num = kernels.conv_trunc([2, 5, -1], den, order)
    back = kernels.div_unit(num, den, order)
    want = ([2, 5, -1] + [0] * (order + 1))[: order + 1]
    assert back == want


def test_div_requires_unit_constant():
    with pytest.raises(ValueError):
        kernels.div_unit([1], [2, 1], 4)
