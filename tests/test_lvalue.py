"""L-value routes: request validation, Dirichlet tails, route cross-checks,
and the identity catalog at its stated tolerance."""

import math

import pytest
from mpmath import mp, mpf

from cubictheta import _accel, lvalue, qexp
from cubictheta.thetanum import Precision

PREC = Precision(40, 1e-12)


def test_request_validation():
    lvalue.LValueRequest(3, PREC, "dirichlet")
    lvalue.LValueRequest(1, PREC, "alpha_integral")
    lvalue.LValueRequest(2, PREC, "rz_intermediate")
    for n in (1, 2):
        with pytest.raises(ValueError):
            lvalue.LValueRequest(n, PREC, "dirichlet")
    with pytest.raises(ValueError):
        lvalue.LValueRequest(2, PREC, "alpha_integral")
    with pytest.raises(ValueError):
        lvalue.LValueRequest(3, PREC, "rz_intermediate")
    with pytest.raises(ValueError):
        lvalue.LValueRequest(4, PREC, "mellin")
    with pytest.raises(ValueError):
        lvalue.LValueRequest(1, PREC, "euler")


def test_theorem_blocks_margins_positive():
    from cubictheta import hyper

    for params in lvalue.THEOREM_KDF_BLOCKS.values():
        assert hyper.kdf_margins(params).boundary_ok


# -- Dirichlet route -----------------------------------------------------------


def test_dirichlet_minimum_n():
    with pytest.raises(ValueError):
        lvalue.l_dirichlet(999)


def test_dirichlet_leading_term():
    # a_1/1^3 contributes exactly 1; subtracting the rest of the partial sum
    # over exact coefficients must reproduce the raw accumulation
    res = lvalue.l_dirichlet(1000)
    coeffs = qexp.f_coefficients(1000).coeffs
    assert coeffs[1] == 1
    with mp.workdps(30):
        direct = sum(mpf(coeffs[n]) / n ** 3 for n in range(1, 1001))
        assert abs(res.value - direct) < mpf("1e-12")


@pytest.mark.parametrize("N", [1000, 10 ** 5])
def test_dirichlet_is_correctly_rounded_float_sum(N):
    # the value is math.fsum of the float terms a_m / m^3, to the last bit
    coeffs = qexp.f_coefficients(N).coeffs
    want = math.fsum(coeffs[m] / float(m) ** 3 for m in range(1, N + 1))
    assert lvalue.l_dirichlet(N).value == want


def test_dirichlet_tail_estimates_shrink_and_bound():
    with mp.workdps(40):
        mel = lvalue.l_mellin(3, PREC).value
        prev_est = None
        for N in (1000, 2000, 10000):
            r = lvalue.l_dirichlet(N)
            assert abs(r.value - mel) <= 10 * r.err_estimate
            if prev_est is not None and N == 2000:
                assert r.err_estimate < prev_est
            prev_est = r.err_estimate


# -- Mellin route ----------------------------------------------------------------


def test_mellin_split_point_invariance():
    with mp.workdps(50):
        base = lvalue.l_mellin(1, PREC).value
        for scale in (0.8, 1.2):
            moved = lvalue.l_mellin(1, PREC, split_scale=scale).value
            assert abs(base - moved) < mpf("1e-12")


def test_mellin_direction_check_against_abel_smoothed_series():
    # (1/3) sum a_n r^n / n at r = 0.9: the ordinary partial sums of
    # (1/3) sum a_n / n oscillate unboundedly, but the Abel-smoothed value
    # pins the sign and the leading magnitude (it equals L(f,1)/3 up to a
    # double-exponentially small tail)
    with mp.workdps(40):
        coeffs = qexp.f_coefficients(900).coeffs
        r = mpf("0.9")
        abel = sum(mpf(coeffs[n]) * r ** n / n for n in range(1, 901)) / 3
        mel = lvalue.l_mellin(1, PREC).value
        assert abel > 0 and mel > 0
        assert mpf(1) / 10 < abel / mel < 10


# -- Theorem assembly ---------------------------------------------------------------


def test_rhs_theorem_routes_cross_check_n1():
    with mp.workdps(50):
        ri = lvalue.rhs_theorem(1, "integral", PREC)
        rs = lvalue.rhs_theorem(1, "series", PREC)
        assert abs(ri.value - rs.value) <= rs.err_estimate + ri.err_estimate
        alpha_route = lvalue.l1_alpha_integral(PREC)
        assert abs(ri.value - alpha_route.value) < mpf("1e-12")


def test_rhs_theorem_passes_on_richardson_label(monkeypatch):
    # a private cache keeps the fallback value away from the other tests
    monkeypatch.setattr(lvalue, "_KDF_VALUE_CACHE", {})
    monkeypatch.setattr(_accel, "pick_plateau", lambda ests: (mpf(1), mpf(10)))
    with mp.workdps(50):
        assert lvalue.rhs_theorem(1, "series", PREC).method == "richardson"


def test_rhs_theorem_bad_inputs():
    with pytest.raises(ValueError):
        lvalue.rhs_theorem(4, "integral", PREC)
    with pytest.raises(ValueError):
        lvalue.rhs_theorem(1, "quadrature", PREC)


# -- E0 helper ------------------------------------------------------------------------


def test_e0_vanishes_at_zero():
    with mp.workdps(40):
        q = mpf("1e-6")
        val = lvalue._e0_value(q, mpf("1e-30"))
        assert abs(val) < 3 * q ** (mpf(1) / 3)


def test_e0_matches_exact_expansion():
    # numeric truncation against the exact Lambert series at small q
    with mp.workdps(40):
        series = qexp.lambert_series("E0", 40)
        q = mpf("0.05")
        q3 = q ** (mpf(1) / 3)
        acc = mpf(0)
        for e in range(series.order, 0, -1):
            c = series.coeffs[e]
            if c:
                acc += mpf(c.numerator) / c.denominator * q3 ** e
        val = lvalue._e0_value(q, mpf("1e-35"))
        assert abs(val - acc) < mpf("1e-25")


# -- identity catalog ------------------------------------------------------------------


def test_check_identity_unknown_name():
    with pytest.raises(ValueError):
        lvalue.check_identity("int4", PREC)


def test_check_identity_point_override():
    rep = lvalue.check_identity("int1", PREC, point="0.5")
    assert rep.passed
    assert rep.abs_err < mpf("1e-12")


@pytest.mark.parametrize("name", ["geom", "int2", "lemma_E0"])
def test_check_identity_catalog_smoke(name):
    rep = lvalue.check_identity(name, PREC)
    assert rep.passed, (name, rep.abs_err)
