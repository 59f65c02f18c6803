"""Contract tests for the series kernels.

The Kronecker-substituted ``conv_trunc`` is checked against the schoolbook
loop ``py_conv_trunc``, an independent algorithm, with one case for each way
packing coefficients into big-int slots, or reading the inputs on their
support lattice, can go wrong.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from cubictheta import kernels, qexp


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


def test_to_integers_keeps_an_int_list_and_makes_integral_fractions_ints():
    ints = [0, 3, -(10 ** 40)]
    got, den = kernels._to_integers(ints)
    assert got is ints and den == 1
    got, den = kernels._to_integers([Fraction(1, 1), 2])
    assert got == [1, 2] and den == 1
    assert all(type(c) is int for c in got)


@st.composite
def lattice_lists(draw, values):
    """Values at r + g k, with r in 0..5 and g in {1, 2, 3, 9}, then zeros."""
    r = draw(st.integers(0, 5))
    g = draw(st.sampled_from((1, 2, 3, 9)))
    vals = draw(st.lists(values, min_size=1, max_size=12))
    out = [0] * (r + g * len(vals) + draw(st.integers(0, 5)))
    out[r:r + g * len(vals):g] = vals
    return out


lattice_ints = st.one_of(st.integers(-3, 3), st.integers(-(10 ** 40), 10 ** 40))
lattice_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@settings(max_examples=300)
@given(lattice_lists(lattice_ints), lattice_lists(lattice_ints), st.integers(0, 80))
def test_conv_on_the_support_lattice(a, b, order):
    # zeros inside and after the support, single nonzeros, and offsets
    # r_a + r_b past the order all come up
    got = kernels.conv_trunc(a, b, order)
    assert got == kernels.py_conv_trunc(a, b, order)
    assert all(type(c) is int for c in got)


@given(lattice_lists(lattice_fractions), lattice_lists(lattice_ints), st.integers(0, 60))
def test_conv_fractions_on_the_support_lattice(a, b, order):
    assert kernels.conv_trunc(a, b, order) == kernels.py_conv_trunc(a, b, order)


@pytest.mark.parametrize("length, x, y", [
    (7, 31, 151), (47, 1, 178481), (7, 7 * 73 * 127, 337 * 92737 * 649657),
    (3, 85, 257), (5, 819, 4097),
])
@pytest.mark.parametrize("sign", [1, -1])
def test_conv_slot_at_the_width_edges(length, x, y, sign):
    # length * x * y is the bound and also the middle slot.  At 2**15 - 1,
    # 2**23 - 1 and 2**63 - 1 that slot holds +-(2**(k-1) - 1) for slot
    # widths k = 16, 24 and 64 bits, one step from the bias; at 2**16 - 1
    # and 2**24 - 1 it fills whole bytes, and only the sign bit makes room
    v = length * x * y
    for r, g in ((0, 1), (2, 3)):
        a = [0] * r + sum(([x] + [0] * (g - 1) for _ in range(length)), [])
        b = [0] * r + sum(([sign * y] + [0] * (g - 1) for _ in range(length)), [])
        order = 2 * r + g * (2 * length - 2)
        got = kernels.conv_trunc(a, b, order)
        assert got[2 * r + g * (length - 1)] == sign * v
        assert got == kernels.py_conv_trunc(a, b, order)


_rng = random.Random(2205)
_C = qexp.theta_series("c", 200).coeffs
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
    "single_nonzeros": ([0, 0, 5], [0, 0, 0, -7, 0], 6),
    "single_times_stride_3": ([0, 0, 0, 0, 2], [0, 1, 0, 0, -1, 0, 0, 3, 0], 12),
    "offsets_past_order": ([0, 0, 0, 4, 1], [0, 0, 9], 4),
    "c_squared_third_grid": (_C, _C, 600),
}


@pytest.mark.parametrize("a, b, order", list(_HAZARDS.values()), ids=list(_HAZARDS))
def test_conv_kronecker_hazards(a, b, order):
    got = kernels.conv_trunc(a, b, order)
    assert len(got) == order + 1
    assert got == kernels.py_conv_trunc(a, b, order)


def _seeded_lattice_list(rng, r, g, count):
    """Values of up to 1, 7 or 40 digits, each 0 one time in five, at
    r + g k for k < count (at r alone when g = 0), then up to 3 zeros."""
    idx = range(r, r + g * count, g) if g else (r,)
    out = [0] * (idx[-1] + 1 + rng.randrange(4))
    for i in idx:
        if rng.random() < 0.8:
            out[i] = rng.choice((1, -1)) * rng.randrange(1, 10 ** rng.choice((1, 7, 40)))
    return out


@pytest.mark.parametrize("ga, gb", [(1, 3), (3, 9), (2, 3), (4, 6), (1, 1), (0, 3), (9, 0)])
def test_conv_on_the_lcm_lattice_matches_the_schoolbook_loop(ga, gb):
    # unequal strides split each input into its classes mod lcm(g_a, g_b),
    # one product per pair; Fraction entries, squares (b is a) and orders
    # that cut classes short, down to no entries or all zeros, come up
    rng = random.Random(ga * 10 + gb)
    for _ in range(60):
        a = _seeded_lattice_list(rng, rng.randrange(4), ga, rng.randrange(1, 40))
        b = _seeded_lattice_list(rng, rng.randrange(4), gb, rng.randrange(1, 40))
        if rng.random() < 0.25:
            a = [Fraction(c, rng.randrange(1, 12)) for c in a]
        order = rng.randrange(2 * max(len(a), len(b)))
        assert kernels.conv_trunc(a, b, order) == kernels.py_conv_trunc(a, b, order)
        assert kernels.conv_trunc(a, a, order) == kernels.py_conv_trunc(a, a, order)


def test_conv_skips_a_class_the_order_cuts_to_zeros():
    # a has stride 1 and b stride 3, so a splits into three classes mod 3.
    # At order 5 the class 1 + 3N keeps a[1] and a[4], both 0: that pair
    # is skipped, and the width comes from the pairs with 10^40 and 7
    a = [1, 0, 0, 0, 0, 7, 0, 10 ** 40]
    b = [1, 0, 0, -1]
    for order in range(12):
        assert kernels.conv_trunc(a, b, order) == kernels.py_conv_trunc(a, b, order)


def test_conv_squares_a_list_passed_twice(monkeypatch):
    # one packed int times itself: the list is packed once
    packed = []
    real = kernels._pack
    monkeypatch.setattr(kernels, "_pack", lambda x, w: packed.append(len(x)) or real(x, w))
    c = qexp.theta_series("c", 200).coeffs
    assert kernels.conv_trunc(c, c, 600) == kernels.py_conv_trunc(c, c, 600)
    assert len(packed) == 1
    packed.clear()
    kernels.conv_trunc(c, list(c), 600)
    assert len(packed) == 2


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


# -- fixed-point Horner loop ----------------------------------------------------------


def test_to_fixed_returns_zero_below_half_an_ulp_before_any_shift():
    # a shift by the exponent of these would not fit in memory; the test
    # returns 0 first
    assert kernels.to_fixed(mpf("1e-100000"), 300) == 0
    assert kernels.to_fixed(mp.ldexp(mpf(1), -10 ** 60), 300) == 0
    assert kernels.to_fixed(-mp.ldexp(mpf(3), -10 ** 60), 300) == 0
    assert kernels.to_fixed(mpf(0), 300) == 0


@pytest.mark.parametrize("wp", [0, 1, 53, 300])
def test_to_fixed_rounds_half_up_at_the_threshold(wp):
    # 2^-(wp+1) itself rounds half up to 1, the values on either side of it
    # to 0 and 1
    with mp.workprec(200):
        half = mp.ldexp(mpf(1), -(wp + 1))
        below = half * (1 - mp.ldexp(mpf(1), -100))
        above = half * (1 + mp.ldexp(mpf(1), -100))
        assert kernels.to_fixed(half, wp) == 1
        assert kernels.to_fixed(-half, wp) == -1
        assert kernels.to_fixed(below, wp) == 0
        assert kernels.to_fixed(-below, wp) == 0
        assert kernels.to_fixed(above, wp) == 1
        assert kernels.to_fixed(mpf(5) / 2 * mp.ldexp(mpf(1), -wp), wp) == 3


def test_horner_sums_to_its_stated_bound():
    # coefficients at most 12 (k + 1) at z = 0.585, given exactly at 2^wp:
    # the loop is within 2 (N + 1) + 12/(1 - z)^3 ulps of the exact sum
    rng = random.Random(7)
    N, wp = 80, 120
    coeffs = [rng.randint(-12 * (k + 1), 12 * (k + 1)) for k in range(N + 1)]
    z = Fraction(585, 1000)
    exact = sum(c * z ** k for k, c in enumerate(coeffs))
    with mp.workprec(400):
        got = kernels.horner([c << wp for c in coeffs], N, kernels.to_fixed(mpf("0.585"), wp), wp)
    err = abs(Fraction(got, 2 ** wp) - exact) * 2 ** wp
    assert err <= 2 * (N + 1) + 12 / (1 - z) ** 3
    # a longer list is summed only to N
    assert kernels.horner([1 << wp] * 5, 2, 1 << wp, wp) == 3 << wp
