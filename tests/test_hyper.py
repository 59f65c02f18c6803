"""Hypergeometric evaluators: exact term recurrences, closed-form anchors,
near-unit expansions against mpmath, double-series routes, quadrature."""

import json
import math
import pathlib
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import hyp2f1, mp, mpf

from cubictheta import _accel, hyper, kernels
from cubictheta.hyper import KdFParams, PFQParams
from cubictheta.lvalue import THEOREM_KDF_BLOCKS
from cubictheta.thetanum import Precision

PREC = Precision(40, 1e-30)
THIRD = Fraction(1, 3)

MAIN_BLOCK = KdFParams([1], [2], [1, Fraction(4, 3)], [2], [THIRD, 2 * THIRD], [1])


# -- pochhammer ---------------------------------------------------------------


def test_pochhammer_values():
    assert hyper.pochhammer(Fraction(5, 7), 0) == 1
    assert hyper.pochhammer(1, 5) == 120
    assert hyper.pochhammer(THIRD, 2) == Fraction(4, 9)
    with pytest.raises(ValueError):
        hyper.pochhammer(1, -1)


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
        hyper.pochhammer(upper[0], n)
        * hyper.pochhammer(upper[1], n)
        / hyper.pochhammer(lower[0], n)
        * x ** n
        / hyper.pochhammer(Fraction(1), n)
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
    # the first 321 partial sums at x = 1 that go to the fit (D = 320) carry
    # at most prec bits and are within 2^-prec (1 + |S_n|) of the mpf loop
    # 256 bits higher
    def spy(sums, *args, **kwargs):
        raise _Captured(sums)

    monkeypatch.setattr(_accel, "known_exponent_fit", spy)
    with mp.workdps(30):
        with pytest.raises(_Captured) as caught:
            hyper._accelerated_unit_sum(tuple(map(Fraction, up)), tuple(map(Fraction, lo)),
                                        mpf("1e-30"))
        [got] = caught.value.args
        assert len(got) == hyper._FIT_D + 1
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


def test_zero_balanced_against_mpmath():
    with mp.workdps(45):
        for z in ("0.6", "0.9", "0.995"):
            zz = mpf(z)
            got = hyper.gauss_2f1_unit_interval(THIRD, 2 * THIRD, 1, zz, 1 - zz, 40)
            want = hyp2f1(mpf(1) / 3, mpf(2) / 3, 1, zz)
            assert abs(got - want) < mpf("1e-35")


def test_zero_balanced_matches_direct_summation():
    with mp.workdps(45):
        z = mpf("0.55")
        got = hyper.gauss_2f1_unit_interval(THIRD, 2 * THIRD, 1, z, 1 - z, 40)
        direct, _ = hyper._pfq_direct([THIRD, 2 * THIRD], [1], z, mpf("1e-45"))
        assert abs(got - direct) < mpf("1e-38")


def test_connection_formula_against_mpmath():
    with mp.workdps(45):
        z = mpf("0.93")
        eps = mpf("1e-42")
        got, _ = hyper._hyp2f1_connection(
            Fraction(1, 5), Fraction(1, 2), Fraction(9, 4), z, 1 - z, eps
        )
        want = hyp2f1(mpf(1) / 5, mpf(1) / 2, mpf(9) / 4, z)
        assert abs(got - want) < mpf("1e-35")


def test_f32_pattern_against_direct():
    with mp.workdps(45):
        eps = mpf("1e-42")
        for z in (mpf("0.6"), mpf("0.9")):
            got, _ = hyper._f32_ones_tail(THIRD, z, 1 - z, eps)
            direct, _ = hyper._pfq_direct([1, 1, 4 * THIRD], [2, 2], z, eps)
            assert abs(got - direct) < mpf("1e-33")


@pytest.mark.parametrize("up, lo, x, method", [
    pytest.param([THIRD, 2 * THIRD], [1], Fraction(1, 4), "direct", id="direct"),
    pytest.param([THIRD], [], Fraction(1, 2), "binomial", id="binomial-1f0"),
    pytest.param([1, Fraction(4, 3)], [2], Fraction(4, 5), "binomial", id="binomial-2f1"),
    pytest.param([THIRD, Fraction(1, 4)], [2], 1, "gauss", id="gauss"),
    pytest.param([THIRD, 2 * THIRD], [1], Fraction(9, 10), "zero-balanced", id="zero-balanced"),
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


def test_coefficient_tables_stay_within_their_bound():
    with mp.workdps(30):
        for k in range(hyper._TABLE_SLOTS + 20):
            hyper._pfq_direct((Fraction(1, k + 2), Fraction(1)), (Fraction(2),),
                              mpf("0.01"), mpf("1e-20"))
    assert hyper._coeff_table.cache_info().currsize <= hyper._TABLE_SLOTS


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
        got, _ = hyper._hyp2f1_zero_balanced(a, b, 1 - w, w, eps)
        with mp.workdps(120):
            am, bm = (mpf(v.numerator) / v.denominator for v in (a, b))
            want = hyp2f1(am, bm, am + bm, 1 - w)
        assert abs(got - want) <= eps


_small_rational = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_small_rational, min_size=2, max_size=3),
    st.lists(_small_rational.filter(lambda v: v.denominator > 1 or v > 0),
             min_size=2, max_size=2),
    st.fractions(min_value=Fraction(-95, 100), max_value=Fraction(95, 100),
                 max_denominator=1000),
)
def test_pfq_direct_against_mpmath(up, lo, x):
    # 2F1 or 3F2 with rational parameters against mpmath at 120 digits: the
    # stopping rule leaves a tail below eps, the fixed-point sum adds at most
    # 2^-prec (1 + |value|)
    from mpmath import hyp3f2

    lo = lo[:len(up) - 1]
    with mp.workdps(40):
        xx, eps = mpf(x.numerator) / x.denominator, mpf("1e-35")
        got, _ = hyper._pfq_direct(up, lo, xx, eps)
        bound = eps + mp.ldexp(1 + abs(got), -mp.prec)
        with mp.workdps(120):
            if len(up) == 2:
                want = hyp2f1(*_mpf_params(up), *_mpf_params(lo), xx)
            else:
                want = hyp3f2(*_mpf_params(up), *_mpf_params(lo), xx)
        assert abs(got - want) <= bound


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
        b = hyper.kdf_series(MAIN_BLOCK.swapped(), Fraction(2, 3), Fraction(1, 3), PREC)
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
    # S_0..S_24 hold fits up to K = 14 only, too few orders to reach tol:
    # both searches raise at that one D; nothing falls back
    monkeypatch.setattr(hyper, "_FIT_D", 24)
    with pytest.raises(ArithmeticError, match=r"at D = 24 \(last K = "):
        hyper.pfq(PFQParams([Fraction(1, 2), Fraction(3, 4), 1], [Fraction(5, 4), 2]), 1,
                  Precision(30, 1e-15))
    with pytest.raises(ArithmeticError, match=r"at D = 24 \(last K = "):
        hyper.kdf_series(MAIN_BLOCK, 1, 1, Precision(40, 1e-12))


def test_boundary_search_raises_on_a_stall():
    # a remainder 1/log N outside the families: the gaps stop falling, and
    # the search raises long before K runs out of points (208 at D = 320)
    with mp.workdps(40):
        sums = [1 + 1 / mp.log(d + 2) for d in range(321)]
        with pytest.raises(ArithmeticError, match=r"at D = 320 \(last K = 20\)"):
            hyper._extrapolate(lambda: (sums, mpf(0)), ((Fraction(2, 3), 0, 1),),
                               mpf("1e-20"))


def test_known_exponent_fit_order_needs_its_points():
    # K + 1 points of odd step on [0.35 D, D] need K <= D - ceil(0.35 D)
    families = ((Fraction(2, 3), 1, 1),)
    for D in (24, 320):
        K = D - math.ceil(0.35 * D)
        assert _accel.max_order(D) == K
        with pytest.raises(ValueError, match="fit order"):
            _accel.known_exponent_fit([mpf(0)] * (D + 1), families, K + 1)
    # at the last order the step is 1
    assert _accel._weights(families, 24, 15, 128)[0] == tuple(range(9, 25))


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
    # L1 at 60 digits and tol 1e-50 takes its order from the sums up to
    # D = 320 alone (821121 terms when D doubled to 1280), within its bar of
    # the integral route at 75 digits
    prec = Precision(60, 1e-50)
    s = hyper.kdf_series(THEOREM_KDF_BLOCKS["L1"], 1, 1, prec)
    assert s.terms_used == 321 * 322 // 2
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
    # an alternating model is well conditioned: sum |w| stays below 60 up
    # to K = 40 (with an even step it is 5e6 to 1e26 at K = 8, 10, 14, 20, ...)
    zeros = [mpf(0)] * (hyper._FIT_D + 1)
    for K in range(8, 42, 2):
        assert _accel.known_exponent_fit(zeros, families, K)[1] < 100, K
    prec = Precision(55, 1e-40)
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
    # no singular part leaves no family: the sums are constant from the
    # degree on, and S_D is the value; 3F2(-2, 1/3, 1/2; 2, 3; 1) = 205/216,
    # and with B = 1 - 2w/3, C = 1 - w + w^2/3 the double series at (1, 1)
    # is 1 - 5/6 + 1/3 - 1/18 = 4/9
    prec = Precision(30, 1e-15)
    res = hyper.pfq(PFQParams([-2, THIRD, Fraction(1, 2)], [2, 3]), 1, prec)
    assert res.method == "accelerated"
    with mp.workdps(45):
        assert abs(res.value - mpf(205) / 216) <= mpf("1e-35")
    block = KdFParams([1], [2], [-1, 2], [3], [-2, 1], [2])
    assert hyper._kdf_families(block, mpf(1), mpf(1)) == ()
    res = hyper.kdf_series(block, 1, 1, prec)
    with mp.workdps(45):
        assert abs(res.value - mpf(4) / 9) <= res.err_estimate <= mpf("1e-40")


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
    # terms, and G < 2^R_n; and the yielded integers give the exact term ratio
    wp = 80
    X = int(mp.ldexp(x, wp))
    t, low, G = Fraction(1), Fraction(1), Fraction(1)
    for n, (T, num, den, R) in zip(range(41), hyper._fixed_terms(tuple(up), tuple(lo), X, wp)):
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
        assert Fraction(num, den * 2 ** wp) == r
        t *= r


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
            assert abs(res.value - want) <= res.err_estimate + mpf("1e-21")


def test_quad_de_rejects_nonintegrable():
    # the message carries the last level difference measured, not 0
    with pytest.raises(ArithmeticError, match="last refinement changed by") as caught:
        hyper.quad_de(lambda t: 1 / t, mpf("1e-20"), Precision(30, 1e-15), max_level=6)
    assert float(str(caught.value).rsplit(" ", 1)[1].rstrip(")")) > 1


# -- integral representation ------------------------------------------------------------


def test_hginterep_reduces_to_beta_at_zero():
    rep = hyper.check_hginterep(
        PFQParams([THIRD, 1], [Fraction(4, 3)]), 0, Precision(40, 1e-12)
    )
    assert rep.passed
    with mp.workdps(50):
        want = mp.beta(mpf(1) / 3, 1)
        assert abs(rep.lhs - want) < mpf("1e-12")


def test_hginterep_both_parameter_sets():
    for params in (
        PFQParams([THIRD, 1], [Fraction(4, 3)]),
        PFQParams([2 * THIRD, 1], [Fraction(5, 3)]),
    ):
        rep = hyper.check_hginterep(params, mpf("0.5"), Precision(40, 1e-12))
        assert rep.passed, rep.abs_err


def test_hginterep_precondition():
    with pytest.raises(ValueError):
        hyper.check_hginterep(PFQParams([2, 1], [Fraction(4, 3)]), 0.5, PREC)
