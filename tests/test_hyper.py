"""Hypergeometric evaluators: exact term recurrences, closed-form anchors,
near-unit expansions against mpmath, double-series routes, quadrature."""

import gc
import json
import math
import pathlib
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import hyp2f1, mp, mpf

from cubictheta import _accel, hyper, kernels, lvalue
from cubictheta.hyper import KdFParams, PFQParams
from cubictheta.lvalue import THEOREM_KDF_BLOCKS
from cubictheta.thetanum import Precision

PREC = Precision(40, 1e-30)
THIRD = Fraction(1, 3)

MAIN_BLOCK = KdFParams([1], [2], [1, Fraction(4, 3)], [2], [THIRD, 2 * THIRD], [1])


# -- pochhammer: the exact oracle of the term recurrence ----------------------


def pochhammer(a, n: int):
    """Rising factorial (a)_n of an int or Fraction, exactly."""
    if n < 0:
        raise ValueError("pochhammer index must be nonnegative")
    r = Fraction(1)
    for k in range(n):
        r *= a + k
    return int(r) if r.denominator == 1 else r


def test_pochhammer_values():
    assert pochhammer(Fraction(5, 7), 0) == 1
    assert pochhammer(1, 5) == 120
    assert pochhammer(THIRD, 2) == Fraction(4, 9)
    with pytest.raises(ValueError):
        pochhammer(1, -1)


@settings(max_examples=25)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.integers(0, 50),
)
def test_recurrence_matches_pochhammer_exactly(a, n):
    """Term recurrence versus directly assembled Pochhammer ratios, in
    exact rational arithmetic."""
    upper = (a + Fraction(1, 5), Fraction(3, 2))
    lower = (Fraction(7, 3),)
    x = Fraction(2, 7)
    by_recurrence = Fraction(1)
    terms = [by_recurrence]
    for k in range(n):
        num = Fraction(1)
        for u in upper:
            num *= u + k
        for l in lower:
            num /= l + k
        by_recurrence *= num * x / (k + 1)
        terms.append(by_recurrence)
    direct = (
        pochhammer(upper[0], n)
        * pochhammer(upper[1], n)
        / pochhammer(lower[0], n)
        * x ** n
        / pochhammer(Fraction(1), n)
    )
    assert terms[n] == direct


# -- pfq ------------------------------------------------------------------------


def test_pfq_collapses_to_geometric():
    res = hyper.pfq(PFQParams([1, 2], [2]), Fraction(1, 2), PREC)
    assert abs(res.value - 2) < mpf("1e-30")


def test_pfq_binomial_closed_form():
    res = hyper.pfq(PFQParams([THIRD], []), Fraction(1, 2), PREC)
    with mp.workdps(50):
        assert abs(res.value - mpf(2) ** (mpf(1) / 3)) < mpf("1e-30")


def test_pfq_geom_identity_point():
    res = hyper.pfq(PFQParams([1, Fraction(4, 3)], [2]), Fraction(1, 2), PREC)
    with mp.workdps(50):
        want = 3 * ((1 - mpf("0.5")) ** (-mpf(1) / 3) - 1) / mpf("0.5")
        assert abs(res.value - want) < mpf("1e-30")


def test_pfq_domain_errors():
    with pytest.raises(ValueError):
        hyper.pfq(PFQParams([1, 1, 2], [2]), 2, PREC)  # |x| > 1
    with pytest.raises(ValueError):
        hyper.pfq(PFQParams([1, Fraction(4, 3)], [2]), 1, PREC)  # divergent at 1
    with pytest.raises(ValueError):
        PFQParams([1], [0])  # nonpositive integer lower parameter


def test_pfq_at_one_gauss():
    res = hyper.pfq(PFQParams([THIRD, Fraction(1, 4)], [2]), 1, PREC)
    with mp.workdps(50):
        want = (
            mp.gamma(2) * mp.gamma(2 - mpf(1) / 3 - mpf(1) / 4)
            / (mp.gamma(2 - mpf(1) / 3) * mp.gamma(2 - mpf(1) / 4))
        )
        assert abs(res.value - want) < mpf("1e-30")


def test_pfq_at_one_ones_pattern():
    res = hyper.pfq(PFQParams([1, 1, Fraction(4, 3)], [2, 2]), 1, PREC)
    with mp.workdps(50):
        want = 3 * (mp.psi(0, 1) - mp.psi(0, mpf(2) / 3))
        assert abs(res.value - want) < mpf("1e-30")


def test_pfq_at_one_accelerated_generic():
    # 3F2 with excess 1 and no closed-form pattern; mpmath is the oracle
    from mpmath import hyper as mp_hyper

    res = hyper.pfq(
        PFQParams([Fraction(1, 2), Fraction(3, 4), 1], [Fraction(5, 4), 2]), 1,
        Precision(30, 1e-15),
    )
    assert res.method == "accelerated"
    with mp.workdps(40):
        want = mp_hyper([mpf(1) / 2, mpf(3) / 4, 1], [mpf(5) / 4, 2], 1)
        assert abs(res.value - want) < mpf("1e-15")


class _Captured(Exception):
    pass


@pytest.mark.parametrize("up, lo", [
    pytest.param([Fraction(1, 2), Fraction(3, 4), 1], [Fraction(5, 4), 2], id="falling"),
    # the terms dip to 2^-253 at n = 71, below the first 2^-wp, and rise by
    # 2^197 up to n = 320: the guard bits must come from the exact ratios
    pytest.param([1, 1, 1], [Fraction(-199, 2), 110], id="deep-dip"),
])
def test_accelerated_unit_sum_partial_sums(monkeypatch, up, lo):
    # the first 321 partial sums at x = 1 that go to the fit (D = 320 at
    # tol 1e-30, ``hyper._fit_d``), those of the one-factor block at (1, 0),
    # carry at most prec bits and are within 2^-prec (1 + |S_n|) of the mpf
    # loop 256 bits higher
    def spy(sums, *args, **kwargs):
        raise _Captured(sums)

    monkeypatch.setattr(_accel, "known_exponent_fit", spy)
    with mp.workdps(30):
        with pytest.raises(_Captured) as caught:
            hyper._plan(tuple(map(Fraction, up)), tuple(map(Fraction, lo))).eval(
                mpf(1), None, mpf("1e-30"))
        [got] = caught.value.args
        assert len(got) == hyper._fit_d(mpf("1e-30")) + 1 == 321
        prec = mp.prec
        with mp.workprec(prec + 256):
            term, run = mpf(1), mpf(0)
            for n, s in enumerate(got):
                run += term
                assert s._mpf_[3] <= prec, n  # rounded once to the working precision
                assert abs(s - run) <= mp.ldexp(1 + abs(run), -prec), n
                for u in _mpf_params(up):
                    term *= u + n
                for l in _mpf_params(lo):
                    term /= l + n
                term /= n + 1


DIXON_CASES = [
    pytest.param(Fraction(1, 2), THIRD, Fraction(1, 4), id="1/2,1/3,1/4"),
    pytest.param(THIRD, Fraction(1, 5), Fraction(1, 6), id="1/3,1/5,1/6"),
    pytest.param(2 * THIRD, Fraction(1, 4), THIRD, id="2/3,1/4,1/3"),
    # Gamma(1 + a - b - c) = Gamma(-1/30) < 0: the value and the window's
    # partial sums are negative
    pytest.param(Fraction(-1, 2), THIRD, Fraction(1, 5), id="-1/2,1/3,1/5"),
]


@pytest.mark.parametrize("a, b, c", DIXON_CASES)
def test_pfq_at_one_accelerated_dixon(a, b, c):
    # Dixon: 3F2(a, b, c; 1+a-b, 1+a-c; 1) is a ratio of gamma values; no
    # closed-form branch matches it, so the known-exponent fit must
    res = hyper.pfq(PFQParams([a, b, c], [1 + a - b, 1 + a - c]), 1, PREC)
    assert res.method == "accelerated"
    with mp.workdps(60):
        a, b, c = (mpf(v.numerator) / v.denominator for v in (a, b, c))
        g = mp.gamma
        want = (g(1 + a / 2) * g(1 + a - b) * g(1 + a - c) * g(1 + a / 2 - b - c)
                / (g(1 + a) * g(1 + a / 2 - b) * g(1 + a / 2 - c) * g(1 + a - b - c)))
        assert abs(res.value - want) <= res.err_estimate < PREC.tol()


@pytest.mark.parametrize("tol", [1e-10, 1e-11])
def test_pfq_at_one_refuses_terms_that_still_rise(tol):
    # the terms of 3F2(1, 1, 1; -199/2, 110; 1) fall to 4.7e-61 at n = 100,
    # then rise until (n+1)^2 = (n - 99.5)(n + 110), n = 1287: the partial
    # sums up to D = 160 show a plateau 4.55e-8 below the limit, which the
    # fit would return with a bar of 1e-23
    with pytest.raises(ArithmeticError, match="still rise at n = 1287"):
        hyper.pfq(PFQParams([1, 1, 1], [Fraction(-199, 2), 110]), 1, Precision(40, tol))


def test_kdf_series_refuses_a_variable_whose_terms_still_rise():
    # the one variable on the circle, x, with the joint factor: the terms of
    # 4F3(1, 1, 1, 1; 2, -199/2, 110; 1) still rise at n = 1152, past the
    # start 56 of the D = 160 window; the fit would return 0.99995432817488,
    # 3.1e-11 off the limit 0.99995432820603615, with a bar of 2.2e-26
    block = KdFParams([1], [2], [1, 1, 1], [Fraction(-199, 2), 110], [THIRD], [])
    with pytest.raises(ArithmeticError, match="still rise at n = 1152, past the start 56"):
        hyper.kdf_series(block, 1, 0, Precision(40, 1e-12))
    # the same factor on y, with x inside the disc
    swapped = KdFParams([1], [2], [THIRD], [], [1, 1, 1], [Fraction(-199, 2), 110])
    with pytest.raises(ArithmeticError, match="still rise at n = 1152"):
        hyper.kdf_series(swapped, 0, -1, Precision(40, 1e-12))


def test_zero_balanced_against_mpmath():
    with mp.workdps(45):
        for z in ("0.6", "0.9", "0.995"):
            zz = mpf(z)
            with mp.workdps(50):
                got = hyper.gauss_2f1_unit_interval(THIRD, 2 * THIRD, 1, zz, 1 - zz)
            want = hyp2f1(mpf(1) / 3, mpf(2) / 3, 1, zz)
            assert abs(got - want) < mpf("1e-35")


def test_zero_balanced_matches_direct_summation():
    with mp.workdps(45):
        z = mpf("0.55")
        with mp.workdps(50):
            got = hyper.gauss_2f1_unit_interval(THIRD, 2 * THIRD, 1, z, 1 - z)
        direct, _ = hyper._pfq_direct([THIRD, 2 * THIRD], [1], z, mpf("1e-45"))
        assert abs(got - direct) < mpf("1e-38")


def test_connection_formula_against_mpmath():
    with mp.workdps(45):
        z = mpf("0.93")
        eps = mpf("1e-42")
        plan = hyper._plan((Fraction(1, 5), Fraction(1, 2)), (Fraction(9, 4),))
        got, _ = hyper._hyp2f1_connection(plan, z, 1 - z, eps)
        want = hyp2f1(mpf(1) / 5, mpf(1) / 2, mpf(9) / 4, z)
        assert abs(got - want) < mpf("1e-35")


def test_f32_pattern_against_direct():
    with mp.workdps(45):
        eps = mpf("1e-42")
        plan = hyper._plan((Fraction(1), Fraction(1), 4 * THIRD), (Fraction(2), Fraction(2)))
        for z in (mpf("0.6"), mpf("0.9")):
            got, _ = hyper._f32_ones_tail(plan, z, 1 - z, eps)
            direct, _ = hyper._pfq_direct([1, 1, 4 * THIRD], [2, 2], z, eps)
            assert abs(got - direct) < mpf("1e-33")


@pytest.mark.parametrize("up, lo, x, method", [
    pytest.param([THIRD, 2 * THIRD], [1], Fraction(1, 4), "direct", id="direct"),
    pytest.param([THIRD], [], Fraction(1, 2), "binomial", id="binomial-1f0"),
    pytest.param([1, Fraction(4, 3)], [2], Fraction(4, 5), "binomial", id="binomial-2f1"),
    # 2F1 at 1 is the Gauss sum, which each expansion in 1 - x gives at w = 0
    pytest.param([THIRD, Fraction(1, 4)], [2], 1, "connection", id="gauss"),
    pytest.param([THIRD, 2 * THIRD], [1], Fraction(9, 10), "log", id="zero-balanced"),
    pytest.param([Fraction(1, 5), Fraction(1, 2)], [Fraction(9, 4)], Fraction(93, 100),
                 "connection", id="connection"),
    pytest.param([1, 1, Fraction(4, 3)], [2, 2], Fraction(9, 10), "f32-tail", id="f32-tail"),
    pytest.param([1, 1, Fraction(4, 3)], [2, 2], 1, "f32-tail", id="f32-at-one"),
])
def test_pfq_branch_labels(up, lo, x, method):
    from mpmath import hyper as mp_hyper

    res = hyper.pfq(PFQParams(up, lo), x, PREC)
    assert res.method == method
    with mp.workdps(60):
        x = Fraction(x)
        if method == "f32-tail" and x == 1:
            # 3F2(1, 1, a+1; 2, 2; 1) = -H(-a)/a; mpmath's hyper takes seconds here
            a = Fraction(max(up)) - 1
            a = mpf(a.numerator) / a.denominator
            want = -mp.harmonic(-a) / a
        else:
            want = mp_hyper([mpf(v.numerator) / v.denominator for v in map(Fraction, up)],
                            [mpf(v.numerator) / v.denominator for v in map(Fraction, lo)],
                            mpf(x.numerator) / x.denominator)
        assert abs(res.value - want) < mpf("1e-30")


DIVERGES_AT_ONE = "series diverges at x = 1"
NO_BRANCH = "no fast evaluation path"


# one row per exit of _Plan.eval: (upper, lower, x, omx or None) -> the branch
# label, or (exception, message) for the inputs it rejects
@pytest.mark.parametrize("up, lo, x, omx, want", [
    pytest.param([THIRD], [Fraction(4, 3)], "0", None, "direct", id="direct-at-zero"),
    pytest.param([THIRD], [Fraction(4, 3)], "0.99", None, "direct", id="direct-p<=q"),
    pytest.param([], [], "-1", None, "direct", id="direct-0f0-at-minus-one"),
    pytest.param([THIRD, 2 * THIRD], [1], "-0.5", None, "direct", id="direct-half"),
    # excess 1: the log expansion covers every integer excess m >= 0
    pytest.param([1, 1], [3], "0.9", None, "log", id="direct-fallback-integer-excess"),
    pytest.param([THIRD, 2 * THIRD], [1], "-0.9", None, "direct", id="direct-fallback-negative"),
    # a polynomial takes the direct exit at any |x| <= 1, whatever p and q are
    pytest.param([-1, 2], [Fraction(1, 2)], "0.99", None, "direct", id="direct-polynomial-0.99"),
    pytest.param([-1, 2], [Fraction(1, 2)], "1", None, "direct", id="direct-polynomial-at-one"),
    pytest.param([-1, 2], [Fraction(1, 2)], "-0.97", None, "direct",
                 id="direct-polynomial-below-minus-0.95"),
    pytest.param([-2, 1, 1], [2], "0.75", None, "direct", id="direct-polynomial-p=q+2"),
    pytest.param([THIRD], [], "0.9", None, "binomial", id="binomial-1f0"),
    pytest.param([THIRD], [], "0", None, "binomial", id="binomial-1f0-at-zero"),
    pytest.param([Fraction(-2)], [], "1", None, "binomial", id="binomial-1f0-terminating-at-one"),
    pytest.param([THIRD], [], "1", "1e-40", "binomial", id="binomial-1f0-near-one"),
    pytest.param([1, Fraction(4, 3)], [2], "-1", None, "binomial", id="binomial-2f1"),
    pytest.param([THIRD, Fraction(1, 4)], [2], "1", None, "connection", id="gauss"),
    pytest.param([THIRD, Fraction(1, 4)], [2], "1", "0", "connection", id="gauss-omx-zero"),
    pytest.param([1, 1, Fraction(4, 3)], [2, 2], "1", None, "f32-tail", id="f32-at-one"),
    pytest.param([1, 1, Fraction(4, 3)], [2, 2], "1", "-1e-40", "f32-tail",
                 id="f32-at-one-negative-omx"),
    pytest.param([1, 1, Fraction(4, 3)], [2, 2], "0.97", None, "f32-tail", id="f32-near-one"),
    pytest.param([THIRD, 2 * THIRD], [1], "0.97", None, "log", id="zero-balanced"),
    pytest.param([THIRD, 2 * THIRD], [1], "1", "1e-40", "log",
                 id="zero-balanced-x-rounds-to-one"),
    pytest.param([THIRD, Fraction(1, 4)], [Fraction(31, 12)], "1", None, "log",
                 id="log-at-one"),
    pytest.param([Fraction(1, 5), Fraction(1, 2)], [Fraction(9, 4)], "0.97", None, "connection",
                 id="connection"),
    pytest.param([Fraction(1, 2), Fraction(3, 4), 1], [Fraction(5, 4), 2], "1", None,
                 "accelerated", id="accelerated"),
    pytest.param([1, 1, 1], [1], "0.5", None, (ValueError, "too many upper"), id="p>q+1"),
    pytest.param([THIRD, 2 * THIRD], [1], "1.5", None, (ValueError, "beyond"), id="|x|>1"),
    pytest.param([THIRD], [Fraction(4, 3)], "-1.5", None, (ValueError, "beyond"),
                 id="|x|>1-entire"),
    pytest.param([1, Fraction(4, 3)], [2], "1", None, (ValueError, DIVERGES_AT_ONE),
                 id="diverges-2f1"),
    pytest.param([1, 1, 2], [2, 2], "1", None, (ValueError, DIVERGES_AT_ONE),
                 id="diverges-3f2"),
    # 1F0 at 1, and what cancels to it, has nonpositive excess as well: the
    # scope check rejects it before the binomial closed form sees 0^-a
    pytest.param([THIRD], [], "1", None, (ValueError, DIVERGES_AT_ONE), id="diverges-1f0"),
    pytest.param([Fraction(5, 2)], [], "1", "0", (ValueError, DIVERGES_AT_ONE),
                 id="diverges-1f0-omx-zero"),
    pytest.param([THIRD, THIRD], [THIRD], "1", None, (ValueError, DIVERGES_AT_ONE),
                 id="diverges-cancels-to-1f0"),
    pytest.param([1, 2], [2], "1", None, (ValueError, DIVERGES_AT_ONE),
                 id="diverges-cancels-to-1f0-integer"),
    pytest.param([THIRD, 2 * THIRD], [1], "-0.96", None, (ArithmeticError, NO_BRANCH),
                 id="no-branch-below-minus-0.95"),
    pytest.param([2 * THIRD, 4 * THIRD], [1], "0.97", None, (ArithmeticError, NO_BRANCH),
                 id="no-branch-negative-integer-excess"),
])
def test_eval_pfq_dispatch_matrix(up, lo, x, omx, want):
    args = (tuple(map(Fraction, up)), tuple(map(Fraction, lo)))
    with mp.workdps(30):
        point = (mpf(x), None if omx is None else mpf(omx), mpf("1e-25"))
        if isinstance(want, tuple):
            with pytest.raises(want[0], match=want[1]):
                hyper._plan(*args).eval(*point)
        else:
            assert hyper._plan(*args).eval(*point)[2] == want


@pytest.mark.parametrize("up, lo", [([], []), ([THIRD], [Fraction(4, 3)]),
                                    ([THIRD, 2 * THIRD], [1]), ([1, 1, Fraction(4, 3)], [2, 2])],
                         ids=["0f0", "1f1", "2f1", "3f2"])
def test_eval_pfq_at_zero_is_exactly_one(up, lo):
    # the direct sum at X = 0 is C_0 = 2^wp, read back exactly, and it stops
    # at index 0: every later term is exactly 0
    with mp.workdps(30):
        got, terms, _, _ = hyper._plan(tuple(map(Fraction, up)),
                                       tuple(map(Fraction, lo))).eval(mpf(0), None, mpf("1e-25"))
        assert got._mpf_ == mpf(1)._mpf_
        assert terms == 1


@pytest.mark.parametrize("a", [THIRD, 2 * THIRD, Fraction(1, 7)])
@pytest.mark.parametrize("dps", [30, 55, 120])
def test_f32_tail_at_one_is_the_closed_form(a, dps):
    # 3F2(1, 1, a+1; 2, 2; 1) through the tail expansion at w = 0 equals
    # (psi(1) - psi(1 - a))/a bit for bit
    with mp.workdps(dps):
        got = hyper._plan((Fraction(1), Fraction(1), a + 1), (Fraction(2), Fraction(2))).eval(
            mpf(1), None, mpf(10) ** (5 - dps))[0]
        b = 1 - a
        want = (mp.psi(0, mpf(1)) - mp.psi(0, mpf(b.numerator) / b.denominator)) / (
            mpf(a.numerator) / a.denominator)
        assert got._mpf_ == want._mpf_


@pytest.mark.parametrize("up, lo", [([Fraction(-1, 2)], []), ([1, 1, Fraction(4, 3)], [2, 2])],
                         ids=["1f0", "f32"])
def test_pfq_negative_complement_at_one_is_real(up, lo):
    # x = 1 with a complement below 0 is the unit argument, where omx is 0:
    # no power of a negative complement turns the value complex (1F0(-1/2)
    # at 1 is 0, not 1e-20j)
    res = hyper.pfq(PFQParams(up, lo), 1, PREC, x_complement="-1e-40")
    assert isinstance(res.value, mpf)
    assert res.value == hyper.pfq(PFQParams(up, lo), 1, PREC).value


# -- fixed-point direct summation ---------------------------------------------------


def loop_pfq_direct(upper, lower, x, eps):
    """Reference: the mpf term-recurrence loop on mpf parameters."""
    ax = abs(x)
    rho = (1 + ax) / 2 if len(upper) == len(lower) + 1 else mpf("0.9")
    if rho >= 1:
        raise ValueError("direct summation requires |x| < 1")
    s = mpf(0)
    term = mpf(1)
    n = 0
    settled = 0
    warmup = max(8 + int(4 * max((abs(float(u)) for u in upper), default=0)),
                 math.floor(max((-l for l in lower), default=0)) + 2)
    while True:
        s += term
        r = x / (n + 1)
        for u in upper:
            r *= u + n
        for l in lower:
            r /= l + n
        nxt = term * r
        settled = settled + 1 if abs(r) <= rho else 0
        if n >= warmup and settled >= 3 and abs(nxt) * rho / (1 - rho) <= eps:
            return s + nxt, n + 2
        term = nxt
        n += 1
        if n > hyper._TERM_CAP:
            raise ArithmeticError(
                f"series at x={x} did not meet the tail bound within {hyper._TERM_CAP} terms"
            )


def _mpf_params(vals):
    return [mpf(v.numerator) / v.denominator for v in map(Fraction, vals)]


DIRECT_CASES = [
    pytest.param([20, 1], [2], "0.9", "1e-45", id="growing-terms"),
    pytest.param([THIRD, 2 * THIRD], [1], "-0.95", "1e-45", id="third-at-m0.95"),
    pytest.param([THIRD, 2 * THIRD], [1], "1e-40", "1e-45", id="third-at-1e-40"),
    pytest.param([3], [Fraction(1, 2), Fraction(5, 3)], "-0.9", "1e-45", id="entire"),
    pytest.param([Fraction(-5, 2), 1], [2], "0.7", "1e-45", id="negative-upper"),
    pytest.param([40, 30], [Fraction(1, 2)], "-0.5", "1e-45", id="cancelling"),
    # the terms dip near n = 27 and rise by 2^7.8 before they settle
    pytest.param([1, 1], [Fraction(-59, 2)], "0.1", "1e-45", id="negative-lower"),
    # the ratios settle by n = 12, while D_n < 0, but no tail is certified
    # before the pole at n = 29.5 is passed
    pytest.param([1, 1], [Fraction(-59, 2)], "0.1", "1e-15", id="negative-lower-early-stop"),
    # at this x the ratios are already settled while D_n < 0, before the
    # pole: the stop at n = 31 needs the ratio test to take |D_n|
    pytest.param([1, 1], [Fraction(-59, 2)], "1e-3", "1e-45", id="negative-lower-settled"),
    # the terms dip to 2^-91 at n = 40 and rise by 2^95 up to n = 120: the
    # floors at the dip need the measured rise in the guard bits
    pytest.param([1, 1], [Fraction(-119, 2)], "0.5", "1e-45", id="dip-then-rise"),
    # the terms dip to 2^-233 at n = 100, below the first 2^-wp, where they
    # floor to 0 or -1, and rise by 2^237 up to n = 300: the rise must be
    # measured from the exact ratios
    pytest.param([1, 1], [Fraction(-299, 2)], "0.5", "1e-45", id="deep-dip"),
    # eps lies 2^-20 (relative) below the tail bound 3 |t_143|, closer than the
    # float margin: the tail test must fail at n = 143 and the sum stop at 144
    pytest.param([THIRD, 2 * THIRD], [1], "0.5", "5.17846790647939845648859578724e-46",
                 id="tail-near-tie"),
]


@pytest.mark.parametrize("up, lo, x, eps", DIRECT_CASES)
def test_pfq_direct_matches_loop(up, lo, x, eps):
    # same term count as the mpf loop at the same precision, and within the
    # docstring's 2^-prec (1 + |value|) of the exact partial sum, which the
    # loop gives 256 bits higher (the cancelling case's terms reach 2^117)
    with mp.workdps(50):
        xx, eps = mpf(x), mpf(eps)
        got, n = hyper._pfq_direct(up, lo, xx, eps)
        assert loop_pfq_direct(_mpf_params(up), _mpf_params(lo), xx, eps)[1] == n
        bound = mp.ldexp(1 + abs(got), -mp.prec)
        with mp.workprec(mp.prec + 256):
            ref, k = loop_pfq_direct(_mpf_params(up), _mpf_params(lo), xx, eps)
        assert k == n
        assert abs(got - ref) <= bound


@pytest.mark.parametrize("up, lo, x, eps", DIRECT_CASES)
def test_stop_margin_is_one_sided(monkeypatch, up, lo, x, eps):
    # a wider margin can only stop a sum later, never earlier, and the later
    # sum stays within eps of the default one
    with mp.workdps(50):
        xx, eps = mpf(x), mpf(eps)
        got, n = hyper._pfq_direct(up, lo, xx, eps)
        monkeypatch.setattr(hyper, "_LOG2_MARGIN", 2.0 ** -6)
        wide, m = hyper._pfq_direct(up, lo, xx, eps)
        assert m >= n
        assert abs(wide - got) <= eps


@pytest.mark.parametrize("up, lo, x", [
    pytest.param([THIRD, 2 * THIRD], [1], "0.5", id="no-growth"),
    pytest.param([20, 1], [2], "0.9", id="growing-terms"),
    pytest.param([40, 30], [Fraction(1, 2)], "-0.5", id="cancelling"),
    pytest.param([1, 1], [Fraction(-119, 2)], "0.5", id="dip-then-rise"),
    pytest.param([1, 1], [Fraction(-299, 2)], "0.5", id="deep-dip"),
])
def test_pfq_direct_guard_bits(monkeypatch, up, lo, x):
    # the sum is read back from 2^wp; the docstring's bound needs
    # wp >= prec + 2 bitlen(N) + log2 G, G the largest rise |t_n / t_k|, k <= n
    seen = []
    real = mp.ldexp

    def spy(v, e):
        seen.append(e)
        return real(v, e)

    with mp.workdps(50):
        xx, prec = mpf(x), mp.prec
        monkeypatch.setattr(mp, "ldexp", spy)
        _, N = hyper._pfq_direct(up, lo, xx, mpf("1e-45"))
        monkeypatch.undo()
        wp = -seen[-1]
        with mp.workprec(prec + 256):
            terms = [mpf(1)]
            for n in range(N - 1):
                r = xx / (n + 1)
                for u in _mpf_params(up):
                    r *= u + n
                for l in _mpf_params(lo):
                    r /= l + n
                terms.append(terms[-1] * r)
            low, rise = abs(terms[0]), mpf(1)
            for t in map(abs, terms):
                low = min(low, t)
                rise = max(rise, t / low)
            assert wp - prec >= 2 * N.bit_length() + mp.log(rise, 2)


def test_pfq_direct_waits_for_negative_lower_pole():
    # three settled ratios at n = 15 once ended this sum 8.2e-10 short
    # (0.990037896184); the terms grow again near the pole at n = 29.5
    from mpmath import hyper as mp_hyper

    with mp.workdps(30):
        eps = mpf("1e-15")
        got, n = hyper._pfq_direct([1, 1], [Fraction(-59, 2)], mpf("0.3"), eps)
        with mp.workdps(60):
            want = mp_hyper([1, 1], [mpf(-59) / 2], mpf("0.3"))
        assert n > 31
        assert abs(got - want) <= eps


def test_pfq_direct_rejects_inexact_parameters():
    with pytest.raises(TypeError):
        hyper._pfq_direct([mpf(1) / 3, 1], [2], mpf("0.5"), mpf("1e-30"))
    with pytest.raises(TypeError):
        hyper._pfq_direct([THIRD, 1], [2.0], mpf("0.5"), mpf("1e-30"))


@pytest.mark.parametrize("x", ["50", "-30"])
def test_pfq_direct_rejects_beyond_the_unit_disc(x):
    # the table is built at x = 1, and a sum outside the unit disc would lose
    # the terms that |x|^n magnifies (e^50 = 5.18e21, e^-30 = 9.36e-14)
    with mp.workdps(30):
        with pytest.raises(ValueError, match="direct summation requires"):
            hyper._pfq_direct([], [], mpf(x), mpf("1e-25"))


def test_pfq_direct_node_sweep_builds_one_table(monkeypatch):
    # 300 quadrature-like nodes of one series read one coefficient table, and
    # each sum is within its tail and rounding bound of mpmath at 120 digits
    made = []
    real = hyper._fixed_terms

    def counted(*args):
        made.append(args[2:])
        return real(*args)

    hyper._coeff_table.cache_clear()
    monkeypatch.setattr(hyper, "_fixed_terms", counted)
    up, lo = (THIRD, 2 * THIRD), (Fraction(1),)
    with mp.workdps(55):
        eps = mpf("1e-50")
        xs = [mpf(k) / 301 - mpf(1) / 2 for k in range(1, 301)]
        got = [hyper._pfq_direct(up, lo, x, eps)[0] for x in xs]
        assert len(made) == 1
        for x, v in zip(xs, got):
            with mp.workdps(120):
                want = hyp2f1(mpf(1) / 3, mpf(2) / 3, 1, x)
            assert abs(v - want) <= eps + mp.ldexp(1 + abs(v), -mp.prec)


def _live_tables():
    gc.collect()
    return [o for o in gc.get_objects() if type(o) is hyper._CoeffTable]


def test_coefficient_tables_stay_within_their_bound():
    # the plans and the tables stay within their bounded caches: a plan holds
    # no table, so every live table is one that the table cache holds
    with mp.workdps(30):
        for k in range(hyper._TABLE_SLOTS + 20):
            hyper._pfq_direct((Fraction(1, k + 2), Fraction(1)), (Fraction(2),),
                              mpf("0.01"), mpf("1e-20"))
            hyper._plan((Fraction(1, k + 2), Fraction(2, 3)),
                        (Fraction(1, k + 2) + 2 * THIRD,)).eval(mpf("0.9"), None, mpf("1e-20"))
    assert hyper._coeff_table.cache_info().currsize <= hyper._TABLE_SLOTS
    assert hyper._plan.cache_info().currsize <= hyper._TABLE_SLOTS
    assert len(_live_tables()) <= hyper._TABLE_SLOTS


def test_term_cap_leaves_no_table_behind():
    # a polynomial of degree _TERM_CAP + 1 gives up before it fills its table,
    # and neither a plan nor a cache keeps the table it opened
    degree = hyper._TERM_CAP + 1
    with mp.workdps(30):
        with pytest.raises(ArithmeticError, match="did not meet the tail bound"):
            hyper._plan((Fraction(-degree), THIRD), (Fraction(1, 2),)).eval(
                mpf("0.5"), None, mpf("1e-25"))
    assert hyper._coeff_table.cache_info().currsize == 0
    assert not [t for t in _live_tables() if t.plan.degree == degree]


def test_pfq_direct_tiny_argument_keeps_the_working_precision(monkeypatch):
    # x = 1e-80 lies below 2^-wp's first bits: X = x 2^wp is rounded, and wp
    # stays prec + guard where the old sum raised it to x's exponent
    seen = []
    real = mp.ldexp

    def spy(v, e):
        seen.append(e)
        return real(v, e)

    with mp.workdps(55):
        x, eps = mpf("1e-80"), mpf("1e-50")
        monkeypatch.setattr(mp, "ldexp", spy)
        got, _ = hyper._pfq_direct((THIRD, 2 * THIRD), (Fraction(1),), x, eps)
        monkeypatch.undo()
        assert -seen[-1] == mp.prec + hyper._PFQ_GUARD
        with mp.workdps(120):
            want = hyp2f1(mpf(1) / 3, mpf(2) / 3, 1, x)
        assert abs(got - want) <= eps + mp.ldexp(1 + abs(got), -mp.prec)


@pytest.mark.parametrize("a, b", [(THIRD, 2 * THIRD), (THIRD, Fraction(1)),
                                  (2 * THIRD, Fraction(1)), (Fraction(1, 2), Fraction(1, 2))])
@pytest.mark.parametrize("w", ["0.49", "0.3", "1e-2", "1e-40"])
def test_zero_balanced_certified_tail(a, b, w):
    # the oracle takes x = 1 - w exactly: an x rounded to 55 digits would move
    # it by about 1e-16 at w = 1e-40
    with mp.workdps(55):
        w, eps = mpf(w), mpf("1e-45")
        got, _ = hyper._hyp2f1_log(hyper._plan((a, b), (a + b,)), 1 - w, w, eps)
        with mp.workdps(120):
            am, bm = (mpf(v.numerator) / v.denominator for v in (a, b))
            want = hyp2f1(am, bm, am + bm, 1 - w)
        assert abs(got - want) <= eps


@pytest.mark.parametrize("a, b", [(THIRD, Fraction(1, 4)), (Fraction(1, 2), 2 * THIRD),
                                  (Fraction(5, 4), -THIRD)])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("w", ["0.4", "0.1", "0.03", "1e-30"])
def test_log_expansion_against_mpmath(a, b, m, w):
    # 2F1(a, b; a+b+m; x) at x = 0.6, 0.9, 0.97 and 1 - 1e-30, with the
    # complement passed exactly, against mpmath at 60 digits: within eps
    with mp.workdps(60):
        w, eps = mpf(w), mpf("1e-50")
        got, _, method, _ = hyper._plan((a, b), (a + b + m,)).eval(1 - w, w, eps)
        assert method == "log"
        with mp.workdps(120):
            am, bm = (mpf(v.numerator) / v.denominator for v in (a, b))
            want = hyp2f1(am, bm, am + bm + m, 1 - w)
        assert abs(got - want) <= eps


@pytest.mark.parametrize("a, b", [(THIRD, Fraction(1, 4)), (Fraction(1, 2), 2 * THIRD),
                                  (Fraction(5, 4), -THIRD)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_log_expansion_at_one_is_the_gauss_sum(a, b, m):
    # at x = 1 the expansion is its finite part's f_0, the Gauss sum
    # Gamma(c) Gamma(c-a-b)/(Gamma(c-a) Gamma(c-b))
    with mp.workdps(40):
        got, terms, method, _ = hyper._plan((a, b), (a + b + m,)).eval(mpf(1), None,
                                                                       mpf("1e-35"))
        assert (terms, method) == (1, "log")
        with mp.workdps(80):
            am, bm = (mpf(v.numerator) / v.denominator for v in (a, b))
            g = mp.gamma
            want = g(am + bm + m) * g(m) / (g(bm + m) * g(am + m))
        assert abs(got - want) <= mp.ldexp(abs(want), 4 - mp.prec)


def _log_table_reference(A, B, L, C, n: int) -> list:
    """E_k = floor(C_k h_k) for k <= n with h_k the exact Fraction
    sum_(j<k) [1/(j+1) + 1/(j+L) - 1/(A+j) - 1/(B+j)]: the log expansion's
    second table in exact rationals, the reference for its fixed-point
    form (``hyper._LogTable``)."""
    E, h = [], Fraction(0)
    for k in range(n + 1):
        E.append(C[k] * h.numerator // h.denominator)
        h += Fraction(1, k + 1) + 1 / (k + L) - 1 / (A + k) - 1 / (B + k)
    return E


@pytest.mark.parametrize("a, b, m", [(THIRD, 2 * THIRD, 0), (THIRD, 2 * THIRD, 1),
                                     (Fraction(1, 4), Fraction(1, 2), 2),
                                     (Fraction(5, 4), -THIRD, 3)])
def test_log_table_in_fixed_point_against_the_fractions(a, b, m):
    # at every n up to 200, E_n within 4n (|C_n| 2^-wp + 1) + 1 ulps of the
    # Fraction table's, and 2^bits_n above max |h_k| + 4 max |c_k| + 2
    sub = hyper._plan((a + m, b + m), (Fraction(m + 1),))
    wp = 200
    table = hyper._coeff_table(sub, wp)
    table.fill(200)
    logs = hyper._LogTable(sub.upper + sub.lower, wp)
    logs.fill(table.C, 200)
    ref = _log_table_reference(*sub.upper, *sub.lower, table.C, 200)
    h, hmax, cmax = Fraction(0), Fraction(0), Fraction(0)
    for n in range(201):
        assert abs(logs.E[n] - ref[n]) <= 4 * n * ((abs(table.C[n]) >> wp) + 1) + 1, n
        hmax = max(hmax, abs(h))
        cmax = max(cmax, Fraction(abs(table.C[n]), 1 << wp))
        assert 2 ** logs.bits[n] > hmax + 4 * cmax + 2, n
        h += hyper._h_step(*sub.upper, *sub.lower, n)


# (upper, lower) -> the branch in 1 - x that reads a node's logs
LOG_BRANCHES = [
    pytest.param((THIRD, 2 * THIRD), (Fraction(1),), "log", id="log-m0"),
    pytest.param((THIRD, 2 * THIRD), (Fraction(2),), "log", id="log-m1"),
    pytest.param((Fraction(1, 4), Fraction(1, 2)), (Fraction(11, 4),), "log", id="log-m2"),
    pytest.param((THIRD,), (), "binomial", id="binomial-1F0"),
    pytest.param((Fraction(1), THIRD), (Fraction(2),), "binomial", id="binomial-2F1"),
    pytest.param((THIRD, THIRD), (Fraction(1),), "connection", id="connection"),
    pytest.param((Fraction(1), Fraction(1), Fraction(4, 3)), (Fraction(2), Fraction(2)),
                 "f32-tail", id="f32-tail"),
]


@pytest.mark.parametrize("up, lo, method", LOG_BRANCHES)
@pytest.mark.parametrize("w", ["0.4", "0.1", "1e-6", "1e-30", "1e-60", "0"])
def test_branches_read_the_logs_within_their_eps(up, lo, method, w):
    # for x = 1 - w in (1/2, 1], the call with (ln x, ln w) returns the
    # branch's value without the logs to within eps of its size; at x = 1 a
    # series with nonpositive excess raises either way
    with mp.workdps(55):
        w, eps = mpf(w), mpf("1e-40")
        x = 1 - w
        plan = hyper._plan(up, lo)
        logs = (mp.log(x), mp.log(w) if w else mp.ninf)
        if not w and not plan.excess_ok:
            for extra in ((), (logs,)):
                with pytest.raises(ValueError, match="nonpositive excess"):
                    plan.eval(x, w, eps, *extra)
            return
        want, n_want, m_want, _ = plan.eval(x, w, eps)
        got, n_got, m_got, _ = plan.eval(x, w, eps, logs)
        assert m_got == m_want == method and n_got == n_want
        assert abs(got - want) <= eps * max(1, abs(want))


@pytest.mark.parametrize("level", range(7))
@pytest.mark.parametrize("wexp, dps", [(84, 55), (204, 115)])
def test_de_node_logs_against_mp_log(level, wexp, dps):
    # at every node, ln(1 - t) and ln t within 8 ulps of mp.log of the
    # stored 1 - t and of 1 minus it, relatively, and the stored t within 4
    # ulps of that 1 minus 1 - t; the end nodes, where 1 - t is far below
    # 1e-40 and ln t as small, included
    with mp.workdps(dps):
        prec = mp.prec
        nodes = hyper._de_nodes(level, wexp, prec)
    assert nodes[-1][1] < mpf("1e-40")
    with mp.workprec(prec + 64):
        for t, omt, _, lt, lomt in nodes:
            for lv, exact in ((lt, mp.log1p(-omt)), (lomt, mp.log(omt))):
                assert abs(lv - exact) <= mp.ldexp(abs(exact), 3 - prec)
            assert abs(t - (1 - omt)) <= mp.ldexp(t, 2 - prec)


def de_nodes_reference(level, wexp, prec):
    """The node tuple of ``_de_nodes`` built anew for one wexp, node by node
    until the weight falls below 10^-wexp past s = 3: the reference for the
    tuples cut from one family per (level, prec)."""
    with mp.workprec(prec):
        h = mpf(1) / 2 ** level
        wcut = mpf(10) ** (-wexp)
        pi = +mp.pi
        nodes = []
        for k in count(0, 1) if level == 0 else count(1, 2):
            s = k * h
            sh = mp.sinh(s)
            w = pi / 2 * sh
            ew = mp.exp(w)
            iew = 1 / ew
            u = iew * iew
            t = 1 / (1 + u)
            dt = pi * mp.sqrt(1 + sh * sh) / (ew + iew) ** 2
            lt = -mp.log1p(u)
            nodes.append((t, u * t, dt, lt, lt - 2 * w))
            if dt < wcut and s > 3:
                return tuple(nodes)


@pytest.fixture
def fresh_de_caches(monkeypatch):
    """Node families and node tuples with empty caches of their own for one
    test, so that the order of its requests is the only one they see."""
    monkeypatch.setattr(hyper, "_DE_FAMILIES", {})
    monkeypatch.setattr(hyper, "_de_nodes", lru_cache(maxsize=None)(hyper._de_nodes.__wrapped__))


# the wexps of the numeric suite at 40 digits (tols 1e-12, 1e-25 and 1e-25/4
# and the 1e-20 of test_quad_de_reuses_its_nodes), at its 186 bits
_WEXPS = (61, 84, 99, 100)
_NODE_PREC = 186


@pytest.fixture(scope="module")
def reference_tuples():
    return {(level, wexp): de_nodes_reference(level, wexp, _NODE_PREC)
            for level in range(7) for wexp in _WEXPS}


@pytest.mark.parametrize("order", ["increasing", "decreasing"])
def test_de_nodes_are_the_reference_tuples(order, reference_tuples, fresh_de_caches):
    # every tuple cut from a family equals the one built anew for its wexp,
    # whichever order the wexps are asked for in
    wexps = _WEXPS if order == "increasing" else _WEXPS[::-1]
    for level in range(7):
        for wexp in wexps:
            assert hyper._de_nodes(level, wexp, _NODE_PREC) == reference_tuples[level, wexp]


def test_a_deeper_wexp_builds_only_the_nodes_past_its_family(fresh_de_caches, monkeypatch):
    # the nodes of wexp 61 are the head of those of wexp 100, the same
    # objects; the second call builds only the rest, and a wexp between them
    # builds none
    built = []
    real = hyper._de_node
    monkeypatch.setattr(hyper, "_de_node", lambda s, pi: built.append(s) or real(s, pi))
    for level in (0, 3, 6):
        built.clear()
        short = hyper._de_nodes(level, 61, _NODE_PREC)
        assert len(built) == len(short)
        deep = hyper._de_nodes(level, 100, _NODE_PREC)
        assert len(deep) > len(short) and all(a is b for a, b in zip(short, deep))
        assert len(built) == len(deep) == len(set(built))
        assert len(hyper._de_nodes(level, 99, _NODE_PREC)) <= len(deep)
        assert len(built) == len(deep)


def _kdf_integral_without_logs(params, prec):
    """``kdf_integral`` at (1, 1) with the integrand that forms its own
    powers and logs: t^(a-1) (1-t)^(ap-a-1) as two mpf powers, and each
    factor called without the node's logs; (value, bar)."""
    a, ap = params.a[0], params.ap[0]
    with mp.workdps(prec.dps + 15):
        pref = hyper._gamma(ap) / (hyper._gamma(a) * hyper._gamma(ap - a))
        am1, dm1 = hyper._to_mpf(a) - 1, hyper._to_mpf(ap - a) - 1
        eps = prec.tol() / 100
        pb, pc = hyper._plan(params.b, params.bp), hyper._plan(params.c, params.cp)

        def integrand(t, omt, lt, lomt):
            return t ** am1 * omt ** dm1 * pb.eval(t, omt, eps)[0] * pc.eval(t, omt, eps)[0]

        quad = hyper.quad_de(integrand, prec.tol() / 4, prec, node_args=True)
        return pref * quad.value, abs(pref) * quad.err_estimate + prec.tol() / 4


@pytest.mark.parametrize("prec", [Precision(40, 1e-30), Precision(60, 1e-45),
                                  Precision(80, 1e-60)], ids=["dps40", "dps60", "dps80"])
@pytest.mark.parametrize("name", list(THEOREM_KDF_BLOCKS))
def test_kdf_integral_with_node_logs_within_its_bar(name, prec):
    # the six Theorem blocks at (1, 1): the integrand that reads the node's
    # logs against the one that takes its own powers, on the same nodes
    block = THEOREM_KDF_BLOCKS[name]
    got = hyper.kdf_integral(block, 1, 1, prec)
    want, _ = _kdf_integral_without_logs(block, prec)
    with mp.workdps(prec.dps + 15):
        assert abs(got.value - want) <= got.err_estimate <= prec.tol()


@pytest.mark.parametrize("b, bp", [
    pytest.param([THIRD, 2 * THIRD], 2, id="m=1"),
    pytest.param([Fraction(1, 4), Fraction(1, 2)], Fraction(11, 4), id="m=2"),
    pytest.param([THIRD, THIRD], Fraction(8, 3), id="m=2-equal"),
])
def test_kdf_integral_integer_excess_factor(b, bp):
    # a factor with excess m = 1 or 2 sits at t -> 1 on the integral route,
    # where the log expansion evaluates it; the two routes agree within the
    # sum of their bars
    block = KdFParams([1], [2], b, [bp], [THIRD, 2 * THIRD], [1])
    prec = Precision(40, 1e-20)
    series = hyper.kdf_series(block, 1, 1, prec)
    integral = hyper.kdf_integral(block, 1, 1, prec)
    assert abs(series.value - integral.value) <= series.err_estimate + integral.err_estimate
    assert max(series.err_estimate, integral.err_estimate) <= prec.tol()


_small_rational = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def _terminating_sum(up, lo, x):
    """The exact value of a series that an upper parameter -m ends at n = m."""
    m = min(-u for u in up if u.denominator == 1 and u <= 0)
    return sum(math.prod(pochhammer(u, n) for u in up) * x ** n
               / math.prod(pochhammer(l, n) for l in lo) / math.factorial(n)
               for n in range(int(m) + 1))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_small_rational, min_size=2, max_size=3),
    st.lists(_small_rational.filter(lambda v: v.denominator > 1 or v > 0),
             min_size=2, max_size=2),
    st.fractions(min_value=Fraction(-95, 100), max_value=Fraction(95, 100),
                 max_denominator=1000),
)
# 2F1(-1, -2; -1/2; 1/4) = 1 - 1 = 0, where mpmath's hyp2f1 fails to converge
@example([Fraction(-1), Fraction(-2)], [Fraction(-1, 2), Fraction(1)], Fraction(1, 4))
def test_pfq_direct_against_mpmath(up, lo, x):
    # 2F1 or 3F2 with rational parameters against mpmath at 120 digits, or
    # against the exact sum when a nonpositive-integer upper parameter ends
    # the series: the stopping rule leaves a tail below eps, the fixed-point
    # sum adds at most 2^-prec (1 + |value|)
    from mpmath import hyp3f2

    lo = lo[:len(up) - 1]
    with mp.workdps(40):
        xx, eps = mpf(x.numerator) / x.denominator, mpf("1e-35")
        got, _ = hyper._pfq_direct(up, lo, xx, eps)
        bound = eps + mp.ldexp(1 + abs(got), -mp.prec)
        with mp.workdps(120):
            if any(u.denominator == 1 and u <= 0 for u in up):
                exact = _terminating_sum(up, lo, x)
                want = mpf(exact.numerator) / exact.denominator
            elif len(up) == 2:
                want = hyp2f1(*_mpf_params(up), *_mpf_params(lo), xx)
            else:
                want = hyp3f2(*_mpf_params(up), *_mpf_params(lo), xx)
        assert abs(got - want) <= bound


@pytest.mark.parametrize("up, lo, x", [
    pytest.param([-1, 2], [Fraction(1, 2)], "99/100", id="2f1-0.99"),
    pytest.param([-1, 2], [Fraction(1, 2)], "1", id="2f1-at-one"),
    pytest.param([-1, 2], [Fraction(1, 2)], "-97/100", id="2f1-m0.97"),
    pytest.param([-1, 2], [Fraction(1, 2)], "-1", id="2f1-at-minus-one"),
    pytest.param([-2, 1, 1], [2], "3/4", id="3f1"),
    pytest.param([-2, 1, 1], [2], "1", id="3f1-at-one"),
    pytest.param([-2, 1, 1], [2], "-1", id="3f1-at-minus-one"),
    pytest.param([-30, 20], [Fraction(1, 2)], "-1", id="degree-30"),
    pytest.param([-6, 1], [Fraction(-11, 2)], "1", id="negative-lower"),
    pytest.param([-200, 300], [Fraction(1, 2)], "1", id="degree-200-at-one"),
    pytest.param([-200, 300], [Fraction(1, 2)], "-1", id="degree-200-at-minus-one"),
    pytest.param([-1, Fraction(4, 3)], [2], "7/10", id="kdf-b-factor"),
])
def test_polynomial_at_any_argument(up, lo, x):
    # a terminating series takes the direct sum at any |x| <= 1, whatever p
    # and q are, sums its degree + 1 terms and no more, and lies within the
    # direct-sum bound of its exact value
    up, lo, x = tuple(map(Fraction, up)), tuple(map(Fraction, lo)), Fraction(x)
    exact = _terminating_sum(up, lo, x)
    degree = min(-u for u in up if u.denominator == 1 and u <= 0)
    with mp.workdps(40):
        eps = mpf("1e-35")
        got, terms, method, _ = hyper._plan(up, lo).eval(mpf(x.numerator) / x.denominator,
                                                         None, eps)
        assert method == "direct"
        assert terms == degree + 1
        with mp.workdps(80):
            want = mpf(exact.numerator) / exact.denominator
        assert abs(got - want) <= eps + mp.ldexp(1 + abs(got), -mp.prec)


# -- margins ------------------------------------------------------------------------


def test_margins_main_block():
    m = hyper.kdf_margins(MAIN_BLOCK)
    assert (m.m1, m.m2, m.m3) == (Fraction(2, 3), Fraction(1), Fraction(2, 3))
    assert m.boundary_ok


def test_margins_sign_bookkeeping():
    # primed sums equal on the joint and first-variable side: the extra
    # upper parameter makes m1 negative
    p = KdFParams([1], [1], [1, Fraction(1, 2)], [1], [THIRD, 2 * THIRD], [1])
    m = hyper.kdf_margins(p)
    assert m.m1 == Fraction(-1, 2)
    assert not m.boundary_ok


def test_margins_weight3_first_block():
    p = KdFParams([THIRD], [Fraction(4, 3)], [THIRD, 1], [Fraction(4, 3)],
                  [THIRD, 2 * THIRD], [1])
    m = hyper.kdf_margins(p)
    assert min(m.m1, m.m2, m.m3) > 0


# -- kdf series/integral ----------------------------------------------------------------


def test_kdf_at_origin():
    res = hyper.kdf_series(MAIN_BLOCK, 0, 0, PREC)
    assert abs(res.value - 1) < mpf("1e-30")


def test_kdf_collapses_to_pfq():
    res = hyper.kdf_series(MAIN_BLOCK, Fraction(2, 5), 0, PREC)
    merged = hyper.pfq(PFQParams([1, 1, Fraction(4, 3)], [2, 2]), Fraction(2, 5), PREC)
    assert abs(res.value - merged.value) < mpf("1e-28")


def test_kdf_empty_second_block():
    p = KdFParams([1], [2], [1, Fraction(4, 3)], [2], [], [])
    res = hyper.kdf_series(p, Fraction(1, 3), 0, PREC)
    merged = hyper.pfq(PFQParams([1, 1, Fraction(4, 3)], [2, 2]), Fraction(1, 3), PREC)
    assert abs(res.value - merged.value) < mpf("1e-28")


def test_kdf_symmetry_swap():
    with mp.workdps(50):
        a = hyper.kdf_series(MAIN_BLOCK, Fraction(1, 3), Fraction(2, 3), PREC)
        swapped = KdFParams([1], [2], [THIRD, 2 * THIRD], [1], [1, Fraction(4, 3)], [2])
        b = hyper.kdf_series(swapped, Fraction(2, 3), Fraction(1, 3), PREC)
        assert abs(a.value - b.value) < mpf("1e-28")


def test_kdf_routes_agree_interior():
    with mp.workdps(50):
        half = Fraction(1, 2)
        s = hyper.kdf_series(MAIN_BLOCK, half, half, PREC)
        i = hyper.kdf_integral(MAIN_BLOCK, half, half, PREC)
        assert abs(s.value - i.value) < mpf("1e-15")


def test_kdf_boundary_requires_margins():
    bad = KdFParams([1], [1], [1, Fraction(1, 2)], [1], [THIRD, 2 * THIRD], [1])
    with pytest.raises(ValueError, match="margins"):
        hyper.kdf_series(bad, 1, 1, PREC)


def test_kdf_boundary_requires_shape():
    lopsided = KdFParams([1], [2], [1, 1, Fraction(4, 3)], [2], [THIRD], [1])
    with pytest.raises(ValueError, match="unsupported shape"):
        hyper.kdf_series(lopsided, 1, 1, PREC)


def test_kdf_integral_preconditions():
    two_joint = KdFParams([1, 1], [2, 2], [1], [2], [1], [2])
    with pytest.raises(ValueError):
        hyper.kdf_integral(two_joint, 0, 0, PREC)
    reversed_pair = KdFParams([2], [1], [1], [2], [1], [2])
    with pytest.raises(ValueError):
        hyper.kdf_integral(reversed_pair, 0, 0, PREC)


def test_kdf_integral_looks_up_each_plan_once(monkeypatch):
    # one kdf_integral call builds each plan at most once, and its plan
    # lookups do not grow with the quadrature nodes: the integrand calls the
    # factors' plans, and a branch looks up its sub-series once per precision
    runs = []
    for tol in (1e-12, 1e-25):
        made, looked_up = [], []
        real_plan = hyper._plan

        class Counted(hyper._Plan):
            __slots__ = ()

            def __init__(self, upper, lower):
                made.append((upper, lower))
                super().__init__(upper, lower)

        def lookup(upper, lower):
            looked_up.append((upper, lower))
            return real_plan(upper, lower)

        hyper._plan.cache_clear()
        monkeypatch.setattr(hyper, "_Plan", Counted)
        monkeypatch.setattr(hyper, "_plan", lookup)
        block = THEOREM_KDF_BLOCKS["L3c"]
        res = hyper.kdf_integral(block, 1, 1, Precision(40, tol))
        monkeypatch.undo()
        assert len(made) == len(set(made))
        assert {(block.b, block.bp), (block.c, block.cp)} <= set(made)
        runs.append((res.terms_used, len(looked_up)))
    hyper._plan.cache_clear()  # no counted plan outlives the test
    (coarse, coarse_lookups), (fine, fine_lookups) = runs
    assert fine > coarse
    assert fine_lookups == coarse_lookups < coarse


def kdf_integral_reference(params, x, y, prec):
    """One block's integral with its own integrand, which calls both factors'
    ``eval`` at every node, as a lone call did before the blocks of a batch
    shared their factors: the reference that every batch result must equal
    bit for bit."""
    a, ap = params.a[0], params.ap[0]
    with mp.workdps(prec.dps + 15):
        xx, yy = hyper._bidisc_point(x, y)
        pref = hyper._gamma(ap) / (hyper._gamma(a) * hyper._gamma(ap - a))
        am1, dm1 = hyper._to_mpf(a) - 1, hyper._to_mpf(ap - a) - 1
        eps = prec.tol() / 100
        pb, pc = hyper._plan(params.b, params.bp), hyper._plan(params.c, params.cp)
        omx, omy = 1 - xx, 1 - yy

        def integrand(t, omt, lt, lomt):
            logs = lt, lomt
            fb = (pb.eval(t, omt, eps, logs) if xx == 1 else pb.eval(xx * t, omx + xx * omt, eps))[0]
            fc = (pc.eval(t, omt, eps, logs) if yy == 1 else pc.eval(yy * t, omy + yy * omt, eps))[0]
            weight = mp.exp(am1 * lt + dm1 * lomt) if am1 or dm1 else 1
            return weight * fb * fc

        quad = hyper.quad_de(integrand, prec.tol() / 4, prec, node_args=True)
        return hyper.SeriesResult(pref * quad.value,
                                  abs(pref) * quad.err_estimate + prec.tol() / 4,
                                  quad.terms_used, "integral")


def _fields(res):
    return res.value, res.err_estimate, res.terms_used, res.method


_HALF = Fraction(1, 2)


@pytest.mark.parametrize("x, y, prec", [
    pytest.param(1, 1, Precision(40, 1e-12), id="one-dps40"),
    pytest.param(1, 1, Precision(60, 1e-45), id="one-dps60"),
    pytest.param(_HALF, _HALF, Precision(40, 1e-25), id="half-dps40"),
])
def test_kdf_integrals_equal_lone_calls_on_the_theorem_blocks(x, y, prec):
    # each block of one batch, in value, bar, node count and method, is the
    # lone kdf_integral and the reference integrand with its own factor calls
    blocks = list(THEOREM_KDF_BLOCKS.values())
    batch = hyper.kdf_integrals(blocks, x, y, prec)
    assert len(batch) == len(blocks)
    for params, res in zip(blocks, batch):
        assert _fields(res) == _fields(hyper.kdf_integral(params, x, y, prec))
        assert _fields(res) == _fields(kdf_integral_reference(params, x, y, prec))


def test_kdf_integrals_equal_lone_calls_on_the_pool_blocks():
    # the benchmark's 32 pool blocks at (1, 1) in one batch
    blocks = [p.values[0] for p in _pool_blocks()]
    prec = Precision(40, 1e-12)
    for params, res in zip(blocks, hyper.kdf_integrals(blocks, 1, 1, prec), strict=True):
        assert _fields(res) == _fields(hyper.kdf_integral(params, 1, 1, prec))
        assert _fields(res) == _fields(kdf_integral_reference(params, 1, 1, prec))


@pytest.mark.parametrize("x, prec", [(_HALF, Precision(40, 1e-25)), (1, Precision(40, 1e-12))],
                         ids=["half", "one"])
def test_kdf_integrals_evaluate_each_factor_once_per_node(x, prec, monkeypatch):
    # a spy on _Plan.eval, told by quad_de's integrand which node it is at:
    # in one batch of the six Theorem blocks at (x, x), no plan is called
    # twice at one node, and seven plans at most at one node (the six first
    # factors and the 2F1(1/3, 2/3; 1) they share), where each block alone
    # calls two per node, twelve in all
    calls, node = [], [None]
    real_eval, real_quad = hyper._Plan.eval, hyper.quad_de

    def spy(plan, z, omz, eps, logs=None):
        calls.append((plan, node[0]))
        return real_eval(plan, z, omz, eps, logs)

    def quad(f, tol, prec, node_args=False):
        def tagged(t, omt, lt, lomt):
            node[0] = t._mpf_, omt._mpf_
            return f(t, omt, lt, lomt)

        return real_quad(tagged, tol, prec, node_args)

    monkeypatch.setattr(hyper._Plan, "eval", spy)
    monkeypatch.setattr(hyper, "quad_de", quad)
    hyper.kdf_integrals(list(THEOREM_KDF_BLOCKS.values()), x, x, prec)
    assert len(calls) == len(set(calls))
    per_node = {}
    for plan, at in calls:
        per_node.setdefault(at, set()).add(plan)
    assert max(map(len, per_node.values())) == 7
    shared = hyper._plan((THIRD, 2 * THIRD), (Fraction(1),))
    assert sum(plan is shared for plan, _ in calls) == len(per_node)


def test_kdf_integrals_checks_every_block_before_any_node():
    with pytest.raises(ValueError, match="ap > a > 0"):
        hyper.kdf_integrals([MAIN_BLOCK, KdFParams([2], [1], [1], [2], [1], [2])], 0, 0, PREC)


def test_kdf_integral_stops_where_its_error_is_predicted():
    # L1 at (1/2, 1/2): the quadrature reads two super-linear contractions of
    # its level differences and stops one level before they fall below tol
    # (291 nodes with the bare difference as the bar, 159 here); the value
    # stays within the sum of both routes' bars of the series route
    prec = Precision(40, 1e-25)
    half = Fraction(1, 2)
    block = THEOREM_KDF_BLOCKS["L1"]
    integral = hyper.kdf_integral(block, half, half, prec)
    series = hyper.kdf_series(block, half, half, prec)
    assert integral.terms_used <= 170
    assert abs(integral.value - series.value) <= integral.err_estimate + series.err_estimate


def test_kdf_integral_at_origin():
    res = hyper.kdf_integral(MAIN_BLOCK, 0, 0, Precision(30, 1e-18))
    assert abs(res.value - 1) < mpf("1e-18")


def test_pfq_geom_pattern_negative_argument():
    with mp.workdps(50):
        x = mpf("-0.97")
        res = hyper.pfq(PFQParams([1, Fraction(4, 3)], [2]), x, Precision(40, 1e-30))
        want = 3 * ((1 - x) ** (-mpf(1) / 3) - 1) / x
        assert abs(res.value - want) < mpf("1e-30")


def test_kdf_boundary_negative_x():
    # alternating first-variable block at the boundary corner (-1, 1)
    with mp.workdps(55):
        s = hyper.kdf_series(MAIN_BLOCK, -1, 1, Precision(40, 1e-12))
        i = hyper.kdf_integral(MAIN_BLOCK, -1, 1, Precision(40, 1e-12))
        assert abs(s.value - i.value) <= s.err_estimate + i.err_estimate


def test_kdf_boundary_smoke():
    # boundary value of the first block: reference derived from the integral
    # route at higher precision in the acceptance suite; here route agreement
    with mp.workdps(55):
        s = hyper.kdf_series(MAIN_BLOCK, 1, 1, Precision(40, 1e-12))
        i = hyper.kdf_integral(MAIN_BLOCK, 1, 1, Precision(40, 1e-12))
        assert abs(s.value - i.value) <= s.err_estimate + i.err_estimate
        assert s.err_estimate < mpf("1e-8")


def test_boundary_search_raises_at_its_cap(monkeypatch):
    # a rule that gives every tol D = 48: S_0..S_48 hold fits up to K = 10
    # only, too few orders to reach tol, so both searches raise at that one
    # D; nothing falls back
    monkeypatch.setattr(hyper, "_FIT_D", ((0.0, 48),))
    with pytest.raises(ArithmeticError, match=r"at D = 48 \(last K = 10\)"):
        hyper.pfq(PFQParams([Fraction(1, 2), Fraction(3, 4), 1], [Fraction(5, 4), 2]), 1,
                  Precision(30, 1e-15))
    with pytest.raises(ArithmeticError, match=r"at D = 48 \(last K = 10\)"):
        hyper.kdf_series(MAIN_BLOCK, 1, 1, Precision(40, 1e-12))


def test_boundary_search_raises_on_a_stall():
    # a remainder 1/log N outside the families: the gaps stop falling, and
    # the search raises long before K runs out of points (69 at D = 320)
    with mp.workdps(40):
        sums = [1 + 1 / mp.log(d + 2) for d in range(321)]
        with pytest.raises(ArithmeticError, match=r"at D = 320 \(last K = 36\)"):
            hyper._extrapolate(lambda: (sums, mpf(0)), ((Fraction(2, 3), 0, 1),),
                               mpf("1e-20"))


def test_boundary_search_rides_out_one_small_gap(monkeypatch):
    # the fits of neighbouring orders share all their points but one, so one
    # gap can fall far below the trend (pool block 31 at 1e-70: 1.5e-66
    # between 4.6e-62 and 1.9e-64); the stall test takes the larger of two
    # gaps, as the stop does, and the search goes on to tol
    gaps = [mpf(g) for g in ("1e-3", "1e-4", "1e-9", "1e-6", "1e-7", "1e-8", "1e-12", "1e-13")]
    values = iter([mpf(1) + sum(gaps[:i]) for i in range(len(gaps) + 1)])
    orders = []

    def fit(sums, families, K):
        orders.append(K)
        return next(values), mpf(1)

    monkeypatch.setattr(_accel, "known_exponent_fit", fit)
    val, bar = hyper._extrapolate(lambda: ([mpf(0)] * 321, mpf(0)),
                                  ((Fraction(2, 3), 0, 1),), mpf("1e-10"))
    assert orders[-1] == 24 and val == mpf(1) + sum(gaps)
    assert abs(bar - gaps[-1] - gaps[-2]) < mpf("1e-15")


def test_known_exponent_fit_order_needs_its_points():
    # the K + 1 points D, D - 3, ..., D - 3K stay in [0.35 D, D] for
    # K <= (D - ceil(0.35 D)) // 3
    families = ((Fraction(2, 3), 1, 1),)
    for D in (24, 320):
        K = (D - math.ceil(0.35 * D)) // 3
        assert _accel.max_order(D) == K
        with pytest.raises(ValueError, match="fit order"):
            _accel.known_exponent_fit([mpf(0)] * (D + 1), families, K + 1)
    # every order takes the first points of one grid that ends at D
    grid = _accel._grid(families, 24, 128)
    assert grid.weights(5)[0] == (24, 21, 18, 15, 12, 9)
    assert grid.weights(2)[0] == (24, 21, 18)


def _solve_first_unit(rows, wp: int):
    """The w with sum_i rows[r][i] w_i = [r = 0], by Gaussian elimination with
    partial pivoting in fixed point: entries, multipliers and w are ints at
    2^wp, each product floored once.  ``rows`` is overwritten.  The reference
    for the fit's elimination without row exchanges."""
    n = len(rows)
    rhs = [1 << wp] + [0] * (n - 1)
    for p in range(n):
        q = max(range(p, n), key=lambda r: abs(rows[r][p]))
        rows[p], rows[q] = rows[q], rows[p]
        rhs[p], rhs[q] = rhs[q], rhs[p]
        top, pivot = rows[p][p], rows[p][p + 1:]
        for r in range(p + 1, n):
            m = (rows[r][p] << wp) // top
            if m:
                rows[r][p + 1:] = [a - (m * b >> wp) for a, b in zip(rows[r][p + 1:], pivot)]
                rhs[r] -= m * rhs[p] >> wp
    w = [0] * n
    for i in reversed(range(n)):
        acc = (rhs[i] << wp) - sum(a * b for a, b in zip(rows[i][i + 1:], w[i + 1:]))
        w[i] = acc // rows[i][i]
    return w


def _model_values(families, pts, bits: int):
    """The constant and the first len(pts) - 1 model functions at the points
    d (N = d + 1), by mpmath powers: ints at 2^bits, each row relative to its
    largest value."""
    rows = [[1 << bits] * len(pts)]
    with mp.workprec(bits + 16):
        logs = [mp.log(d + 1) for d in pts]
        powers = [[sign ** (d + 1) * mp.exp(-mpf(e.numerator) / e.denominator * lg)
                   for d, lg in zip(pts, logs)] for e, _, sign in families]
        for f, j, l in islice(_accel._model(families), len(pts) - 1):
            vals = [p / mpf(d + 1) ** j * lg ** l for d, p, lg in zip(pts, powers[f], logs)]
            scale = mp.ldexp(1 / max(map(abs, vals)), bits)
            rows.append([int(v * scale) for v in vals])
    return rows


def _scaled(row, wp: int) -> list:
    """The ints of ``row`` scaled so that the largest is 2^wp (or 2^wp - 1),
    each floored: one reciprocal of the largest, then a product and a shift
    per entry."""
    top = max(map(abs, row))
    shift = top.bit_length() + 2
    inv = (1 << (wp + shift)) // top
    return [v * inv >> shift for v in row]


FIT_FAMILIES = {
    "one": ((Fraction(2, 3), 1, 1),),
    "two": ((Fraction(2, 3), 1, 1), (Fraction(1), 0, 1)),
    "alternating": ((Fraction(5, 3), 1, -1), (Fraction(2), 0, -1)),
}


# the rows of the rule with the working precision of kdf_series (tol digits
# + 10 + 15) at the loosest tol each serves, and the orders checked: every
# order up to the cap, or four up to 112, the largest K* of the six Theorem
# blocks (at 1e-90); D = 24 is no row, at the digits of D = 160
FIT_ROWS = [
    pytest.param(24, 30, range(1, 6), id="24"),
    pytest.param(160, 30, range(1, 35), id="160-1e-5"),
    pytest.param(320, 39, range(1, 70), id="320-1e-14"),
    pytest.param(640, 60, (8, 40, 76, 112), id="640-1e-35"),
    pytest.param(1280, 96, (8, 40, 76, 112), id="1280-1e-71"),
]


@pytest.mark.parametrize("name", list(FIT_FAMILIES))
@pytest.mark.parametrize("D, dps, orders", FIT_ROWS)
def test_nested_weights_match_the_pivoted_solve(D, dps, orders, name):
    # at each order, the weights of the elimination without row exchanges,
    # at the wp the fit takes for it, and those of a pivoted solve of that
    # order alone: they give every model function the same sum to
    # 2^-prec sum |w|, they sum to 1 exactly, and they agree to
    # 2^-24 sum |w|, so sum |w| does not depend on the precision
    families = FIT_FAMILIES[name]
    with mp.workdps(dps):
        prec = mp.prec
        fits = {K: _accel._fit_weights(families, D, K) for K in orders}
    # the reference rows of order K: the first K + 1 values of the first
    # K + 1 rows, scaled so that the largest is 2^wp (``_scaled``); the 96
    # bits more cover the fall of a row from its largest value on the grid
    top_wp = max(wp for _, _, wp in fits.values())
    values = _model_values(families, fits[orders[-1]][0], top_wp + 96)
    for K, (pts, w, wp) in fits.items():
        assert pts == tuple(D - _accel._STEP * i for i in range(K + 1))
        assert sum(w) == 1 << wp, K
        rows = [_scaled(row[:K + 1], wp) for row in values[:K + 1]]
        # the pivoted solve keeps the bits that the comparisons need, not all
        # of wp: 48 more than the larger of prec and the fit's bound on the
        # bits an elimination of this order loses.  Too few bits would show
        # as a disagreement of the two weights, not hide one
        lost = _accel._grid(families, D, wp).weights(K)[2]
        wr = min(wp, max(prec, lost) + 48)
        ref = [v << (wp - wr) for v in
               _solve_first_unit([[v >> (wp - wr) for v in row] for row in rows], wr)]
        norm = sum(map(abs, ref))
        for r, row in enumerate(rows):
            assert abs(sum(a * (x - y) for a, x, y in zip(row, w, ref))) <= norm << (wp - prec), (K, r)
        assert max(abs(x - y) for x, y in zip(w, ref)) <= norm >> 24, K


def test_fit_zero_pivot_raises():
    # a family whose first function is the constant makes row 1 equal to
    # row 0: the elimination stops at that pivot and names the order
    sums = [mpf(1)] * 161
    with pytest.raises(ArithmeticError, match="zero pivot at order 1"):
        _accel.known_exponent_fit(sums, ((Fraction(0), 0, 1),), 2)


@pytest.mark.parametrize("tol, D, cap", [
    (1e-10, 160, 34), (1e-13, 160, 34), (1e-14, 320, 69), (1e-34, 320, 69),
    (1e-35, 640, 138), (1e-70, 640, 138), (1e-71, 1280, 277), (1e-150, 1280, 277),
])
def test_fit_d_rule(tol, D, cap):
    # each row of the rule, at both ends; an mpf tol reads the same row
    assert hyper._fit_d(tol) == hyper._fit_d(mpf(tol)) == D
    assert _accel.max_order(D) == cap


@pytest.mark.parametrize("num", [float, mpf], ids=["float", "mpf"])
def test_richardson_exact_on_a_cubic(num):
    # four points fix a cubic, so Neville's rule returns its value at 0; on
    # dyadic nodes every rounding cancels and the value is exact
    def cubic(x):
        return 7 - 2 * x + 3 * x ** 2 - x ** 3

    with mp.workdps(40):
        xs = [num(1) / k for k in (1, 2, 4, 8)]
        got = _accel.richardson(xs, [cubic(x) for x in xs])
    assert type(got) is num and got == 7


def test_kdf_boundary_l1_to_1e_50_at_one_d():
    # L1 at 60 digits and tol 1e-50 takes its order from the sums up to the
    # one D = 640 that the tol sets (``hyper._fit_d``), within its bar of the
    # integral route at 75 digits
    prec = Precision(60, 1e-50)
    s = hyper.kdf_series(THEOREM_KDF_BLOCKS["L1"], 1, 1, prec)
    assert s.terms_used == 641 * 642 // 2
    ref = hyper.kdf_integral(THEOREM_KDF_BLOCKS["L1"], 1, 1, Precision(75, 1e-62))
    with mp.workdps(80):
        assert abs(s.value - ref.value) + ref.err_estimate <= s.err_estimate <= prec.tol()


# -- boundary exponent rule and known truth ----------------------------------------------


def test_known_exponent_fit_exact_on_its_model():
    # sums that are pi plus the first K model functions, one family with a
    # log and one alternating: the fit returns pi to the rounding of the sums
    families = ((Fraction(1, 2), 1, 1), (Fraction(4, 3), 0, -1))
    K = 10
    model = list(islice(_accel._model(families), K))
    # largest first: N^-1/2 log N, N^-1/2, then the alternating N^-4/3
    assert model[:4] == [(0, 0, 1), (0, 0, 0), (1, 0, 0), (0, 1, 1)]
    with mp.workdps(60):
        def partial_sum(d):
            n, total = d + 1, +mp.pi
            for i, (f, j, l) in enumerate(model):
                e, _, sign = families[f]
                total += ((-2) ** -i * sign ** n * mp.log(n) ** l
                          * mpf(n) ** -(mpf(e.numerator) / e.denominator + j))
            return total

        sums = [partial_sum(d) for d in range(321)]
        val, wsum = _accel.known_exponent_fit(sums, families, K)
        assert abs(val - mp.pi) <= wsum * mp.ldexp(1 + mp.pi, -mp.prec)
        # one function short, the fit is off by far more
        val, _ = _accel.known_exponent_fit(sums, families, K - 1)
        assert abs(val - mp.pi) > mpf("1e-20")


F = Fraction
FAMILY_CASES = [
    # (block, x, y, families): sa = 1 in each; B, C = pFq(b; bp), pFq(c; cp)
    # with excess sB, sC, and C's sC = 0 carries a log
    *(pytest.param(THEOREM_KDF_BLOCKS[name], 1, 1, fams, id=name) for name, fams in [
        # sB = -1/3: B alone 2/3, C alone 1 (log of an integer >= 0 dropped),
        # B C 2/3 with the log
        ("L1", ((F(2, 3), 1, 1), (F(1), 0, 1))),
        ("L2a", ((F(1, 3), 1, 1), (F(1), 0, 1))),
        # sB = sC = 0: all three at 1, the product with log^2, less one
        ("L3a", ((F(1), 1, 1),)),
        ("L3b", ((F(1), 1, 1),)),
        ("L3c", ((F(1), 0, 1), (F(5, 3), 1, 1))),
        ("L3d", ((F(1), 0, 1), (F(4, 3), 1, 1))),
    ]),
    # c = [0]: C is the polynomial 1, so only B's 1 - a remains
    pytest.param(KdFParams([1], [2], [1, F(4, 3)], [2], [0], []), 1, 1,
                 ((F(2, 3), 0, 1),), id="c-zero"),
    # z = -1: B alone alternates at m1 + 1 = 5/3; no product, as x != y
    pytest.param(MAIN_BLOCK, -1, 1, ((F(1), 0, 1), (F(5, 3), 0, -1)), id="corner-minus-1"),
    # sB + sC = 1 with no log: the product is analytic and leaves no family
    pytest.param(KdFParams([1], [2], [1, F(2, 3)], [2], [THIRD, F(1, 3)], [F(4, 3)]), 1, 1,
                 ((F(4, 3), 0, 1), (F(5, 3), 0, 1)), id="analytic-product"),
]


@pytest.mark.parametrize("params, x, y, families", FAMILY_CASES)
def test_kdf_families_rule(params, x, y, families):
    assert hyper._kdf_families(params, mpf(x), mpf(y)) == families


def test_kdf_boundary_corner_alternating_family():
    # the (-1, 1) corner against the integral route far below the default tol
    prec = Precision(50, 1e-35)
    with mp.workdps(65):
        s = hyper.kdf_series(MAIN_BLOCK, -1, 1, prec)
        i = hyper.kdf_integral(MAIN_BLOCK, -1, 1, Precision(60, 1e-46))
        assert abs(s.value - i.value) <= s.err_estimate + i.err_estimate
        assert s.err_estimate <= prec.tol()


def test_kdf_boundary_alternating_on_both_sides():
    # at (-1, -1) every family alternates; the fit points have an odd step,
    # so it alternates along them (with an even step, 1e-40 was out of reach
    # by D = 2560).  Truth: the Euler integral of 2F1(1, 4/3; 2; -t)
    # 2F1(1/3, 2/3; 1; -t) over (0, 1), by mpmath alone
    families = hyper._kdf_families(MAIN_BLOCK, mpf(-1), mpf(-1))
    assert families == ((F(5, 3), 1, -1), (F(2), 0, -1))
    # an alternating model is well conditioned: on the grid that tol 1e-40
    # gets (D = 640), sum |w| stays below 100 up to K = 40 (with an even
    # step it is 5e6 to 1e26 at K = 8, 10, 14, 20, ...)
    prec = Precision(55, 1e-40)
    zeros = [mpf(0)] * (hyper._fit_d(prec.tol()) + 1)
    for K in range(8, 42, 2):
        assert _accel.known_exponent_fit(zeros, families, K)[1] < 100, K
    s = hyper.kdf_series(MAIN_BLOCK, -1, -1, prec)
    with mp.workdps(65):
        want = mp.quad(lambda t: mp.hyp2f1(1, mpf(4) / 3, 2, -t)
                       * mp.hyp2f1(mpf(1) / 3, mpf(2) / 3, 1, -t), [0, 1])
        assert abs(s.value - want) <= s.err_estimate <= prec.tol()


@pytest.mark.parametrize("name", list(THEOREM_KDF_BLOCKS))
def test_kdf_boundary_theorem_blocks_to_1e_25(name):
    # each Theorem block at 40 digits and tol 1e-25 against the integral
    # route at 60 digits (bar 2.5e-47): within 1e-25, under its own bar
    prec = Precision(40, 1e-25)
    s = hyper.kdf_series(THEOREM_KDF_BLOCKS[name], 1, 1, prec)
    ref = hyper.kdf_integral(THEOREM_KDF_BLOCKS[name], 1, 1, Precision(60, 1e-46))
    with mp.workdps(70):
        gap = abs(s.value - ref.value)
        assert gap <= s.err_estimate <= prec.tol()
        assert gap + ref.err_estimate <= prec.tol()


def test_terminating_series_at_one():
    # the polynomial 3F2(-2, 1/3, 1/2; 2, 3; 1) = 205/216 is summed directly;
    # in the double series no singular part leaves no family, so (1, 1) is no
    # boundary point and the anti-diagonal sums, which end at degree 3, are
    # summed directly; with B = 1 - 2w/3, C = 1 - w + w^2/3 the series at
    # (1, 1) is 1 - 5/6 + 1/3 - 1/18 = 4/9
    prec = Precision(30, 1e-15)
    res = hyper.pfq(PFQParams([-2, THIRD, Fraction(1, 2)], [2, 3]), 1, prec)
    assert res.method == "direct"
    with mp.workdps(45):
        assert abs(res.value - mpf(205) / 216) <= mpf("1e-35")
    block = KdFParams([1], [2], [-1, 2], [3], [-2, 1], [2])
    assert hyper._kdf_families(block, mpf(1), mpf(1)) == ()
    res = hyper.kdf_series(block, 1, 1, prec)
    assert res.method == "direct"
    with mp.workdps(45):
        assert abs(res.value - mpf(4) / 9) <= res.err_estimate <= mpf("1e-40")


# C = 2F1(-2, 1; 2; w) = 1 - w + w^2/3 is a polynomial; B is not
POLY_C_BLOCK = KdFParams([1], [2], [1, Fraction(4, 3)], [2], [-2, 1], [2])
# B = 2F1(-2, 5; 1; w) is a polynomial; C is not; margins (-1, 1, -1)
POLY_B_BLOCK = KdFParams([1], [2], [-2, 5], [1], [THIRD, 2 * THIRD], [1])


# C = 2F1(-150, 1; 1; w) = (1 - w)^150, of a degree above the geometric D
POLY_C150_BLOCK = KdFParams([1], [2], [1, Fraction(4, 3)], [2], [-150, 1], [1])


@pytest.mark.parametrize("block, x, tol", [(POLY_C_BLOCK, Fraction(9, 10), 1e-12),
                                           (POLY_C_BLOCK, Fraction(9, 10), 1e-25),
                                           (POLY_C150_BLOCK, Fraction(1, 2), 1e-12)],
                         ids=["deg2-1e-12", "deg2-1e-25", "deg150-1e-12"])
def test_kdf_polynomial_factor_on_the_circle_is_summed_directly(block, x, tol):
    # C, a polynomial, is the only factor on |z| = 1, so (x, 1) has no
    # family: past C's degree the sums converge geometrically, at the rate of
    # B at x, and are summed directly; they agree with the integral route
    # (bar below 3e-34) within the two bars
    assert hyper._kdf_families(block, hyper._to_mpf(x), mpf(1)) == ()
    s = hyper.kdf_series(block, x, 1, Precision(40, tol))
    ref = hyper.kdf_integral(block, x, 1, Precision(45, 1e-33))
    assert s.method == "direct"
    with mp.workdps(60):
        assert abs(s.value - ref.value) <= s.err_estimate + ref.err_estimate
        assert s.err_estimate <= tol


def test_kdf_polynomial_factors_are_summed_to_their_degree():
    # B(z) C(-z) = (1 - z)^50 (1 + z)^50 = (1 - z^2)^50: every odd
    # anti-diagonal is 0, so no one-diagonal tail test can stop this finite
    # sum; its value is int_0^1 (1 - t^2)^50 dt = sum_j (-1)^j C(50, j)/(2j + 1)
    block = KdFParams([1], [2], [-50, 1], [1], [-50, 1], [1])
    exact = sum(Fraction((-1) ** j * math.comb(50, j), 2 * j + 1) for j in range(51))
    res = hyper.kdf_series(block, 1, -1, Precision(40, 1e-12))
    assert res.method == "direct"
    with mp.workdps(80):
        assert abs(res.value - mpf(exact.numerator) / exact.denominator) <= res.err_estimate
        assert res.err_estimate <= mpf("1e-40")


@pytest.mark.parametrize("y", [Fraction(1, 2), Fraction(-9, 10)])
def test_kdf_polynomial_factor_needs_no_margins(y):
    # the margins are negative, but at (1, y) only the polynomial B is on the
    # circle: no boundary point, so the series route sums directly and agrees
    # with the integral route within the sum of the bars
    assert not hyper.kdf_margins(POLY_B_BLOCK).boundary_ok
    prec = Precision(40, 1e-25)
    s = hyper.kdf_series(POLY_B_BLOCK, 1, y, prec)
    i = hyper.kdf_integral(POLY_B_BLOCK, 1, y, prec)
    assert s.method == "direct"
    with mp.workdps(60):
        assert abs(s.value - i.value) <= s.err_estimate + i.err_estimate
        if y == Fraction(1, 2):
            assert abs(s.value - mpf("1.1399869219979984")) <= mpf("1e-16")


@pytest.mark.parametrize("route", [hyper.kdf_series, hyper.kdf_integral])
@pytest.mark.parametrize("x, y", [(Fraction(3, 2), Fraction(1, 2)),
                                  (Fraction(1, 2), Fraction(-3, 2))])
def test_kdf_rejects_points_beyond_the_bidisc(route, x, y):
    # both routes check the closed unit bidisc before any sum or node
    with pytest.raises(ValueError, match="beyond the closed unit bidisc"):
        route(MAIN_BLOCK, x, y, PREC)


def _pool_blocks():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    with open(path, encoding="utf-8") as fh:
        blocks = json.load(fh)["blocks"]
    for i, entry in enumerate(blocks):
        lists = [[Fraction(v) for v in part.split(",")] for part in entry["params"].split(" | ")]
        yield pytest.param(KdFParams(*lists), entry["value"], entry["ref_err"], id=f"pool-{i}")


@pytest.mark.parametrize("params, value, ref_err", list(_pool_blocks()))
def test_kdf_boundary_pool_blocks(params, value, ref_err):
    # the benchmark's 32 pool blocks against their mpmath values (Euler
    # integral with hyp2f1, at 50 and 65 digits) at the benchmark's precision
    s = hyper.kdf_series(params, 1, 1, Precision(40, 1e-12))
    with mp.workdps(60):
        assert abs(s.value - mpf(value)) <= s.err_estimate + mpf(ref_err)


# -- term recurrence and anti-diagonal sums -----------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_small_rational, max_size=3),
    st.lists(_small_rational.filter(lambda v: v.denominator > 1 or v > 0), max_size=2),
    st.sampled_from([mpf(1), mpf(0.5), mpf(-0.5), mpf(1) / 3]),
)
def test_fixed_terms_within_stated_ulps(up, lo, x):
    # every T_n against the exact Fraction term times 2^wp: within n G ulps,
    # G = max_{k<=j<=n} |t_j / t_k| the largest rise so far of the exact
    # terms, and G < 2^R_n; and s_n is log2 of the exact term ratio, -inf
    # from the first zero ratio on
    wp = 80
    X = int(mp.ldexp(x, wp))
    t, low, G = Fraction(1), Fraction(1), Fraction(1)
    for n, (T, s, R) in zip(range(41), hyper._fixed_terms(tuple(up), tuple(lo), X, wp)):
        if t:
            low = min(low, abs(t))
            G = max(G, abs(t) / low)
            assert G < 2 ** R, n
            assert abs(T - t * 2 ** wp) <= n * G, n
        else:
            assert T == 0, n
        r = Fraction(X, 2 ** wp) / (n + 1)
        for u in up:
            r *= u + n
        for l in lo:
            r /= l + n
        t *= r
        if t:
            with mp.workprec(200):
                want = mp.log(mpf(abs(r.numerator)) / abs(r.denominator), 2)
            assert abs(s - want) <= 1e-9, n
        else:
            assert s == -math.inf, n


def loop_partial_sums(params, x, y, D):
    """Reference S_0..S_D: three term-ratio loops and the O(D^2) double loop.

    Returns the sums and the terms A, B, C."""
    one = mpf(1)
    am = [mpf(v.numerator) / v.denominator for v in params.a]
    apm = [mpf(v.numerator) / v.denominator for v in params.ap]
    bm = [mpf(v.numerator) / v.denominator for v in params.b]
    bpm = [mpf(v.numerator) / v.denominator for v in params.bp]
    cm = [mpf(v.numerator) / v.denominator for v in params.c]
    cpm = [mpf(v.numerator) / v.denominator for v in params.cp]
    A = [one] * (D + 1)
    B = [one] * (D + 1)
    C = [one] * (D + 1)
    for d in range(1, D + 1):
        fa = one
        for v in am:
            fa *= v + d - 1
        for v in apm:
            fa /= v + d - 1
        A[d] = A[d - 1] * fa
        fb = x
        for v in bm:
            fb *= v + d - 1
        for v in bpm:
            fb /= v + d - 1
        B[d] = B[d - 1] * fb / d
        fc = y
        for v in cm:
            fc *= v + d - 1
        for v in cpm:
            fc /= v + d - 1
        C[d] = C[d - 1] * fc / d
    sums = [mpf(0)] * (D + 1)
    run = mpf(0)
    for d in range(D + 1):
        inner = mpf(0)
        for m_ in range(d + 1):
            inner += B[m_] * C[d - m_]
        run += A[d] * inner
        sums[d] = run
    return sums, A, B, C


HALF = Fraction(1, 2)
# at (1/2, 1/2), B peaks near 3e6 and C near 2e4 before the 2^-m decay wins
GROWING_BLOCK = KdFParams([1], [2], [8, 9], [1], [7, 8], [2])
# A_k = k! grows without bound; the sum is sum_k (x + y)^k
FACTORIAL_A_BLOCK = KdFParams([1], [], [], [], [], [])
SUMS_CASES = [
    *(pytest.param(p, 1, 1, id=f"{name}-at-1-1") for name, p in THEOREM_KDF_BLOCKS.items()),
    pytest.param(MAIN_BLOCK, -1, 1, id="main-at-m1-1"),
    pytest.param(MAIN_BLOCK, HALF, HALF, id="main-at-half-half"),
    pytest.param(KdFParams([1], [2], [1, Fraction(4, 3)], [2], [], []), THIRD, HALF,
                 id="empty-second-block"),
    pytest.param(GROWING_BLOCK, HALF, HALF, id="growing-terms"),
    pytest.param(FACTORIAL_A_BLOCK, Fraction(1, 4), Fraction(1, 4), id="factorial-a"),
    pytest.param(KdFParams([1, 1], [Fraction(3, 2)], [], [Fraction(3, 2)], [], []),
                 Fraction(-1, 3), Fraction(1, 5), id="factorial-a-mixed-signs"),
    # B_m dips to 2^-91 at m = 40 and rises by 2^95 up to m = 120: the floors
    # at the dip need the measured rise in wp
    pytest.param(KdFParams([1], [2], [1, 1], [Fraction(-119, 2)], [], []), HALF, HALF,
                 id="dip-then-rise"),
    # B_m dips to 2^-233 at m = 100, below 2^-wp, and rises by 2^200 up to
    # m = 200: the floored B_m are 0 past the dip, so the rise must come
    # from the exact ratios
    pytest.param(KdFParams([1], [2], [1, 1], [Fraction(-299, 2)], [], []), HALF, HALF,
                 id="deep-dip"),
]


@pytest.mark.parametrize("params, x, y", SUMS_CASES)
def test_kdf_partial_sums_match_loop(params, x, y):
    # within the returned bound of the loop 64 bits higher, for every d, and
    # that bound is the docstring's 2^-prec (1 + max |S_d|), near 2^-prec (1 + |S_D|)
    D = 200
    with mp.workdps(55):
        xx = mpf(Fraction(x).numerator) / Fraction(x).denominator
        yy = mpf(Fraction(y).numerator) / Fraction(y).denominator
        got, bound = hyper._kdf_partial_sums(params, xx, yy, D)
        with mp.workprec(mp.prec + 64):
            ref = loop_partial_sums(params, xx, yy, D)[0]
        for d in range(D + 1):
            assert abs(got[d] - ref[d]) <= bound, d
            # rounded once to the working precision: _mpf_[3] is the bit count
            assert got[d]._mpf_[3] <= mp.prec, d
        assert bound <= mp.ldexp(1 + abs(ref[D]), 1 - mp.prec)


def _rounding_units(T, D, wp):
    """(e, M) of the docstring for the terms T, in ulps 2^-wp: e = D G, G the
    largest rise, and M = max |T| + e."""
    low, G = abs(T[0]), mpf(1)
    for t in map(abs, T):
        if t:
            low = min(low, t)
            G = max(G, t / low)
    e = D * G
    return e, mp.ldexp(max(map(abs, T)), wp) + e


@pytest.mark.parametrize("params, mag_a", [(MAIN_BLOCK, 1), (FACTORIAL_A_BLOCK, 1246)])
def test_kdf_partial_sums_guard_bits(monkeypatch, params, mag_a):
    # the terms are built at 2^wp from wp = prec + 3 bitlen(D) + 4, and built
    # again with more bits while the docstring's rounding bound exceeds
    # 2^-prec; that bound needs wp >= prec + mag(max |A_k|), with |A_k| <= 1
    # for MAIN_BLOCK and max A_k = 200! < 2^1246 for FACTORIAL_A_BLOCK, which
    # the first wp does not cover
    wps, convs = [], []
    real_terms, real_conv = hyper._fixed_terms, kernels.conv_trunc

    def spy_terms(upper, lower, X, wp):
        wps.append(wp)
        return real_terms(upper, lower, X, wp)

    def spy_conv(a, b, order):
        convs.append((a[0], b[0], order))
        return real_conv(a, b, order)

    monkeypatch.setattr(hyper, "_fixed_terms", spy_terms)
    monkeypatch.setattr(kernels, "conv_trunc", spy_conv)
    D = 200
    with mp.workdps(55):
        xx = mpf(1) / 4
        hyper._kdf_partial_sums(params, xx, xx, D)
        prec = mp.prec
        with mp.workprec(prec + 64):
            _, A, B, C = loop_partial_sums(params, xx, xx, D)
            [(b0, c0, order)] = convs
            wp = wps[-1]
            assert b0 == c0 == 2 ** wp and order == D
            assert wps[0] == prec + 3 * D.bit_length() + 4
            assert wp >= prec + mag_a
            assert len(wps) == 3 * len(set(wps)) == (6 if wps[0] < prec + mag_a else 3)
            (eA, mA), (eB, mB), (eC, mC) = (_rounding_units(T, D, wp) for T in (A, B, C))
            err = (D + 1) * (D + 2) // 2 * (eA * mB * mC + mA * eB * mC + mA * mB * eC)
            assert err <= mp.ldexp(1, 3 * wp - prec)


def test_kdf_series_interior_factorial_a():
    # A_k = k! and B_m C_n = x^m y^n / (m! n!) give sum_k (x + y)^k = 2 at
    # (1/4, 1/4); the fixed-point guard bits must cover the size of A_k
    with mp.workdps(55):
        res = hyper.kdf_series(FACTORIAL_A_BLOCK, Fraction(1, 4), Fraction(1, 4), PREC)
        assert res.method == "direct"
        assert abs(res.value - 2) <= res.err_estimate + mpf(10) ** -35


@pytest.mark.parametrize("x", [Fraction(2, 5), Fraction(9, 20)])
def test_kdf_series_direct_bar_measures_its_rate(x):
    # the diagonals of FACTORIAL_A_BLOCK are (2x)^k, which decay more slowly
    # than rho = (1 + x)/2; a bar at rho alone reads 2.71e-46 for an error of
    # 4.64e-46 at x = 2/5, and 1.04e-47 for 3.54e-47 at x = 9/20
    res = hyper.kdf_series(FACTORIAL_A_BLOCK, x, x, PREC)
    assert res.method == "direct"
    with mp.workdps(80):
        exact = 1 / (1 - 2 * mpf(x.numerator) / x.denominator)
        assert abs(res.value - exact) <= res.err_estimate <= PREC.tol()


def test_kdf_series_direct_route_stops_at_its_cap(monkeypatch):
    # D doubles up to the cap and no further: with the cap at 300, the first
    # D of 237 fails its tail bound at (2/5, 2/5), the next build is at 300,
    # not 474, and a failing build at the cap raises
    built = []
    real = hyper._kdf_partial_sums

    def spy(params, x, y, D):
        built.append(D)
        return real(params, x, y, D)

    monkeypatch.setattr(hyper, "_DIRECT_D_MAX", 300)
    monkeypatch.setattr(hyper, "_kdf_partial_sums", spy)
    with pytest.raises(ArithmeticError, match="failed its tail bound"):
        hyper.kdf_series(FACTORIAL_A_BLOCK, Fraction(2, 5), Fraction(2, 5), PREC)
    assert built == [237, 300]


def test_kdf_series_interior_deep_dip():
    # B_m dips to 2^-233 at m = 100 and rises back to 2^4 by m = 300.  A rise
    # read from the floored terms misses this: the interior route then sums
    # zeros past the dip and returns 1.295 for 6.449, with a bar of 2e-56
    params = KdFParams([1], [2], [1, 1], [Fraction(-299, 2)], [], [])
    res = hyper.kdf_series(params, HALF, HALF, PREC)
    assert res.method == "direct"
    with mp.workdps(70):
        ref = loop_partial_sums(params, mpf(1) / 2, mpf(1) / 2, 1200)[0]
        assert abs(ref[-1] - ref[-2]) < mpf(10) ** -65
        assert abs(res.value - ref[-1]) <= res.err_estimate <= mpf("1e-54")


def _collapsed_block(a):
    # c = [0] leaves only n = 0: the series is 3F2(1, 1, a+1; 2, 2; x)
    return KdFParams([1], [2], [1, a + 1], [2], [0], [])


@pytest.mark.parametrize("a", [THIRD, 2 * THIRD])
def test_kdf_collapsed_block_at_one_1_1(a):
    # 3F2(1, 1, a+1; 2, 2; 1) = (psi(1) - psi(1 - a)) / a, by both routes
    prec = Precision(40, 1e-12)
    with mp.workdps(60):
        am = mpf(a.numerator) / a.denominator
        want = (mp.psi(0, 1) - mp.psi(0, 1 - am)) / am
        for route in (hyper.kdf_series, hyper.kdf_integral):
            res = route(_collapsed_block(a), 1, 1, prec)
            assert abs(res.value - want) <= res.err_estimate, route.__name__


@pytest.mark.parametrize("a", [THIRD, 2 * THIRD])
@pytest.mark.parametrize("x, y", [(HALF, HALF), (Fraction(9, 10), HALF), (THIRD, -HALF)])
def test_kdf_collapsed_block_interior(a, x, y):
    # the interior bar includes the rounding of the partial sums: at
    # (1/3, -1/2) the last diagonal truncates to 0 and the tail bound alone
    # is 0, while the value is 9.1e-56 off
    res = hyper.kdf_series(_collapsed_block(a), x, y, PREC)
    with mp.workdps(80):
        want = mp.hyp3f2(1, 1, 1 + mpf(a.numerator) / a.denominator, 2, 2,
                         mpf(x.numerator) / x.denominator)
        assert abs(res.value - want) <= res.err_estimate
    # the bar is the tail bound plus 2^-prec (1 + |S_D|): 2.2e-56 to 3.1e-56
    assert res.err_estimate <= mpf("1e-54")


# -- quadrature ---------------------------------------------------------------------------


def test_quad_de_constant():
    res = hyper.quad_de(lambda t: mpf(1), mpf("1e-25"), PREC)
    assert abs(res.value - 1) < mpf("1e-25")


def test_quad_de_endpoint_singularity():
    res = hyper.quad_de(lambda t: (1 - t) ** (-mpf(1) / 3), mpf("1e-25"), PREC)
    assert abs(res.value - mpf(3) / 2) < mpf("1e-25")
    assert res.err_estimate <= mpf("1e-25")


def test_quad_de_beta_form():
    res = hyper.quad_de(
        lambda t: t ** (mpf(1) / 3) / (t * (1 - t)) * (1 - t), mpf("1e-25"), PREC
    )
    assert abs(res.value - 3) < mpf("1e-25")


def test_quad_de_error_estimates_conservative():
    with mp.workdps(55):
        cases = (
            (lambda t: mp.exp(t), mp.e - 1),
            (lambda t: mp.log(t), mpf(-1)),
        )
        for f, want in cases:
            res = hyper.quad_de(f, mpf("1e-20"), PREC)
            assert abs(res.value - want) <= res.err_estimate


@pytest.mark.parametrize("alpha, beta", [(Fraction(1, 3), Fraction(2, 3)),
                                         (Fraction(2, 3), Fraction(4, 3)),
                                         (Fraction(1), Fraction(1, 3))])
def test_quad_de_beta_integrals_within_their_bar(alpha, beta):
    # t^(alpha-1) (1-t)^(beta-1) against B(alpha, beta); at tol 1e-40 the
    # run stops in the quadratic regime, one level before the bare
    # difference would (317-345 nodes)
    prec = Precision(60, 1e-45)
    with mp.workdps(80):
        am1 = mpf(alpha.numerator) / alpha.denominator - 1
        bm1 = mpf(beta.numerator) / beta.denominator - 1
        want = mp.beta(am1 + 1, bm1 + 1)
    for tol in ("1e-12", "1e-25", "1e-40"):
        res = hyper.quad_de(lambda t, omt, lt, lomt: t ** am1 * omt ** bm1, mpf(tol), prec,
                            node_args=True)
        with mp.workdps(80):
            assert abs(res.value - want) <= res.err_estimate <= mpf(tol)
    assert res.terms_used <= 180


def test_quad_de_kink_keeps_the_level_difference():
    # |t - 1/3| has a kink inside (0, 1), so the error does not square at
    # each halving; its differences 1.8e-3, 3.6e-5, 2.5e-4 dip once by
    # accident, and one contraction alone would stop at 125 nodes with an
    # error of 1.7e-4.  The rule keeps the bare difference as the bar.
    res = hyper.quad_de(lambda t: abs(t - mpf(1) / 3), mpf("1e-6"), PREC)
    assert res.terms_used == 2945
    assert abs(res.value - mpf(5) / 18) <= res.err_estimate
    assert res.err_estimate > mpf("1e-7")


def test_quad_de_runge_within_its_bar():
    # 1/(1 + (10 (t - 1/2))^2): poles at t = 1/2 +- i/10 near the interval
    with mp.workdps(60):
        want = mp.atan(5) / 5
    for tol in ("1e-6", "1e-12", "1e-20"):
        res = hyper.quad_de(lambda t: 1 / (1 + (10 * (t - mpf(1) / 2)) ** 2), mpf(tol), PREC)
        with mp.workdps(60):
            assert abs(res.value - want) <= res.err_estimate <= mpf(tol)


def test_quad_de_bar_covers_the_rounding_of_the_sum():
    # at 35 working digits and tol 1e-30 the predicted error d_L r_L is
    # 1e-39 to 1e-46, below the 1e-37 that rounding leaves in the level
    # sum; the floor's rounding term keeps the bar above the error
    prec = Precision(20, 1e-10)
    for f, want in ((mp.exp, lambda: mp.e - 1), (mp.log, lambda: mpf(-1)),
                    (mp.sqrt, lambda: mpf(2) / 3)):
        res = hyper.quad_de(f, mpf("1e-30"), prec)
        with mp.workdps(60):
            assert abs(res.value - want()) <= res.err_estimate <= mpf("1e-30")


def test_quad_de_bar_never_reads_below_its_rounding():
    # at 35 working digits the levels of int e^t agree to the last bits from
    # tol 1e-34 on: the bare difference read 3.0e-36 (and 0.0 at tol 1e-36)
    # against an error of 3.2e-36; a tol under the rounding of the sum
    # cannot be met, and a difference of zero is no ratio to divide by
    prec = Precision(20, 1e-10)
    for tol in ("1e-34", "1e-36", "1e-30"):
        try:
            res = hyper.quad_de(mp.exp, mpf(tol), prec)
        except ArithmeticError as exc:
            # ZeroDivisionError is an ArithmeticError too
            assert type(exc) is ArithmeticError and tol != "1e-30"
            continue
        with mp.workdps(60):
            assert abs(res.value - (mp.e - 1)) <= res.err_estimate <= mpf(tol)


@pytest.mark.parametrize("tol", ["1e-34", "1e-36"])
def test_quad_de_raises_once_its_rounding_cannot_fall_to_tol(tol):
    # int e^t at 35 working digits: at level 4, the first in the quadratic
    # regime, 2^(1-p) n (|I_4| - 2 d_4) reads 4.2e-34 over n = 165 terms;
    # the run stops there, not after the 8442 terms of all ten levels
    calls = []

    def f(t):
        calls.append(t)
        return mp.exp(t)

    with pytest.raises(ArithmeticError, match="cannot reach"):
        hyper.quad_de(f, mpf(tol), Precision(20, 1e-10))
    assert len(calls) <= 165


@pytest.mark.parametrize("tol", [0, -1e-10, math.inf, math.nan, mpf(0), mp.inf])
def test_quad_de_rejects_a_tol_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match="positive finite tol"):
        hyper.quad_de(lambda t: t, tol, PREC)


def test_quad_de_tol_below_the_range_of_a_double():
    # 1e-400 underflows a float; the weight cut is sized from the mpf itself
    res = hyper.quad_de(lambda t, omt, lt, lomt: 1 / (1 + t), mpf("1e-400"),
                        Precision(420, 1e-300), node_args=True)
    with mp.workdps(440):
        assert abs(res.value - mp.log(2)) <= res.err_estimate <= mpf("1e-400")


def _full_node_count(levels: int, tol) -> int:
    """The nodes of levels 0..levels-1 when no side stops early: both sides
    of each level's tuple, and the center once."""
    with mp.workdps(PREC.dps + 15):
        wexp = int(3 * (-math.log10(float(tol)) + 8))
        return sum(2 * len(hyper._de_nodes(lev, wexp, mp.prec)) for lev in range(levels)) - 1


def test_quad_de_node_counts():
    # the weighted terms of t^(-2/3) (1-t)^(-2/3) stay above tol 10^-4 out to
    # the last node, so each level sums its whole tuple on both sides; those
    # of t (1-t) fall below it 5 times in a row on both sides of levels 3
    # and 4, which stop early
    tol = mpf("1e-25")
    res = hyper.quad_de(lambda t, omt, lt, lomt: (t * omt) ** (-2 * mpf(1) / 3), tol, PREC,
                        node_args=True)
    assert res.terms_used == 171 == _full_node_count(5, tol)
    with mp.workdps(60):
        want = mp.gamma(mpf(1) / 3) ** 2 / mp.gamma(mpf(2) / 3)
        assert abs(res.value - want) <= res.err_estimate + tol
    res = hyper.quad_de(lambda t, omt, lt, lomt: t * omt, tol, PREC, node_args=True)
    assert res.terms_used == 141 < _full_node_count(5, tol)
    with mp.workdps(60):
        assert abs(res.value - mpf(1) / 6) <= res.err_estimate + tol


def test_quad_de_reuses_its_nodes():
    # one node tuple per (level, wexp, prec): a second identical call builds
    # none and gives the same result; at level 0 the center leads the tuple
    # and every other node lies on the side t > 1/2 (wexp = 84 at tol 1e-20)
    tol = mpf("1e-20")
    first = hyper.quad_de(mp.exp, tol, PREC)
    misses = hyper._de_nodes.cache_info().misses
    second = hyper.quad_de(mp.exp, tol, PREC)
    assert hyper._de_nodes.cache_info().misses == misses
    assert (first.value, first.err_estimate, first.terms_used) == (
        second.value, second.err_estimate, second.terms_used)
    with mp.workdps(PREC.dps + 15):
        nodes = hyper._de_nodes(0, 84, mp.prec)
        assert nodes[0][0] == nodes[0][1] == mpf(1) / 2
        assert all(t > mpf(1) / 2 > omt > 0 for t, omt, *_ in nodes[1:])


def test_quad_de_rejects_nonintegrable(monkeypatch):
    # the message carries the last level difference measured, not 0
    monkeypatch.setattr(hyper, "_QUAD_MAX_LEVEL", 6)
    with pytest.raises(ArithmeticError, match="last refinement changed by") as caught:
        hyper.quad_de(lambda t: 1 / t, mpf("1e-20"), Precision(30, 1e-15))
    assert float(str(caught.value).rsplit(" ", 1)[1].rstrip(")")) > 1


# -- integral representation ------------------------------------------------------------


def test_hginterep_reduces_to_beta_at_zero():
    # at z = 0 the Euler integral of 2F1(1/3, 1; 4/3; z), times
    # B(1/3, 4/3 - 1/3), is that beta value
    block = KdFParams([THIRD], [Fraction(4, 3)], [1], [], [], [])
    res = hyper.kdf_integral(block, 0, 0, Precision(40, 1e-12))
    with mp.workdps(50):
        want = mp.beta(mpf(1) / 3, 1)
        assert abs(want * res.value - want) < mpf("1e-12")


def test_hginterep_both_parameter_sets():
    # the catalog entry sweeps 2F1(e, 1; e + 1; 1/2) for e = 1/3 and 2/3
    rep = lvalue.check_identity("hginterep", Precision(40, 1e-12))
    assert rep.passed, rep.abs_err


def test_hginterep_precondition():
    # the joint pair (a1, a1') = (2, 4/3) breaks a1' > a1 > 0
    block = KdFParams([2], [Fraction(4, 3)], [1], [], [], [])
    with pytest.raises(ValueError):
        hyper.kdf_integral(block, Fraction(1, 2), 0, PREC)
