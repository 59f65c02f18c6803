"""L-value routes: request validation, Dirichlet tails, route cross-checks,
and the identity catalog at its stated tolerance."""

import math
import tracemalloc

import pytest
from mpmath import mp, mpf, mpmathify

from cubictheta import hyper, lvalue, qexp, thetanum
from cubictheta.hyper import SeriesResult, quad_de
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


def test_dirichlet_checkpoint_sums_are_fsums_of_exact_terms(monkeypatch):
    # every checkpoint is the correctly rounded sum of a_m / m^3 over the
    # exact-product coefficients; a chunk of 999 terms puts chunk edges
    # inside every checkpoint
    N = 10_000
    seen = []
    fsum = math.fsum
    monkeypatch.setattr(lvalue, "_FSUM_CHUNK", 999)
    monkeypatch.setattr(math, "fsum", lambda it: seen.append(fsum(it)) or seen[-1])
    res = lvalue.l_dirichlet(N)
    monkeypatch.undo()
    coeffs = qexp._f_coeffs_product(N)
    want = [fsum(coeffs[m] / float(m) ** 3 for m in range(1, k + 1))
            for k in (N // 2, 3 * N // 4, N)]
    assert seen == want
    assert res.value == want[-1]


def test_dirichlet_tail_estimate_is_the_inline_tableau():
    # the Neville tableau in 1/N on the sums at N/2, 3N/4 and N, written
    # out in the same float operations: value and estimate to the bit
    N = 10_000
    checkpoints = (N // 2, 3 * N // 4, N)
    xs = [1.0 / k for k in checkpoints]
    ys = [float(lvalue.l_dirichlet(k).value) for k in checkpoints]
    tab = list(ys)
    for k in range(1, 3):
        for i in range(3 - k):
            tab[i] = (tab[i + 1] * xs[i] - tab[i] * xs[i + k]) / (xs[i] - xs[i + k])
    res = lvalue.l_dirichlet(N)
    assert res.value == ys[-1]
    assert res.err_estimate == abs(tab[0] - ys[-1])


def test_dirichlet_traced_peak_per_coefficient():
    # numpy reports its buffers to tracemalloc, so the peak repeats exactly;
    # an N-entry list of Python ints or floats alongside the arrays would
    # take it to about 250 bytes per coefficient
    N = 200_000
    tracemalloc.start()
    try:
        lvalue.l_dirichlet(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * N


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

# the 35-digit values of L(f, 1), L(f, 2), L(f, 3)
L_VALUES_35 = {
    1: "0.12153268452675964180540559320801131",
    2: "0.34043060103985748999859080369729835",
    3: "0.56416957022417758430566873728649548",
}
PREC_FINE = Precision(50, 1e-40)


def quadrature_l_mellin(n, prec, split_scale=1.0):
    """The former route: tanh-sinh quadrature of the Mellin integral
    L(f, n) = (2 pi)^n/(3 (n-1)!) int_0^inf b^2(e^{-2 pi u}) c(e^{-6 pi u}) u^(n-1) du,
    split at u0 = split_scale/sqrt(3); the oracle of the functional equation."""
    with mp.workdps(prec.dps + 15):
        u0 = mpmathify(split_scale) / mp.sqrt(3)
        fac = (2 * mp.pi) ** n / (3 * math.factorial(n - 1))
        sub_prec = Precision(prec.working_digits + 10,
                             float(prec.target_tol) * 1e-5)

        def low(t, omt):
            u = u0 * t
            return thetanum.f_integrand(u, sub_prec) * u ** (n - 1) * u0

        def high(t, omt):
            u = u0 / t
            return thetanum.f_integrand(u, sub_prec) * u ** (n - 1) * u0 / (t * t)

        tol = prec.tol() / 8
        lo = quad_de(low, tol, prec, two_arg=True)
        hi = quad_de(high, tol, prec, two_arg=True)
        val = fac * (lo.value + hi.value)
        err = fac * (lo.err_estimate + hi.err_estimate) + prec.tol() / 4
        return SeriesResult(val, err, lo.terms_used + hi.terms_used, "integral")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mellin_known_values(n):
    res = lvalue.l_mellin(n, PREC_FINE)
    assert res.method == "functional-equation"
    with mp.workdps(60):
        assert abs(res.value - mpf(L_VALUES_35[n])) <= mpf("1e-35")


def test_mellin_split_point_invariance():
    # every split y0 gives the same value only if g and its constant
    # 3^(-3/2) 9^(3-s) are the Fricke partner of f
    for n in (1, 2, 3):
        runs = [lvalue.l_mellin(n, PREC_FINE, split_scale=scale)
                for scale in (1, 1.3, 1 / 1.3)]
        with mp.workdps(60):
            for a in runs:
                for b in runs:
                    assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate


@pytest.mark.parametrize("prec", [PREC, PREC_FINE], ids=["tol1e-12", "tol1e-40"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mellin_bar_covers_error(n, prec):
    res = lvalue.l_mellin(n, prec)
    exact = lvalue.l_mellin(n, Precision(60, 1e-50))
    with mp.workdps(70):
        assert abs(res.value - exact.value) <= res.err_estimate <= prec.tol()
    # the sums stop at the proven tail tol/8, not at working precision
    assert 0 < res.terms_used < exact.terms_used


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mellin_matches_quadrature_oracle(n):
    old = quadrature_l_mellin(n, PREC)
    new = lvalue.l_mellin(n, PREC)
    with mp.workdps(60):
        assert abs(new.value - old.value) <= old.err_estimate


@pytest.mark.parametrize("scale", [0, -1.0, float("nan"), float("inf"), "-inf"])
def test_mellin_rejects_bad_split(scale, monkeypatch):
    def no_work(*args):
        raise AssertionError("coefficients computed for a rejected split")

    monkeypatch.setattr(qexp, "eta_quotient", no_work)
    with pytest.raises(ValueError):
        lvalue.l_mellin(1, PREC, split_scale=scale)


def test_coefficient_bound_holds():
    # _coeff_bound is proved for every m; check it on the computed range
    for spec in (lvalue._F_ETA, lvalue._G_ETA):
        coeffs = qexp.eta_quotient(spec, 2000).coeffs
        assert coeffs[0] == 0
        assert all(abs(coeffs[m]) <= lvalue._coeff_bound(m) for m in range(1, 2001))


def test_fricke_partner_is_theta_product():
    # f = b^2 c(q^3)/3 and g = b c(q^3)^2/9, from the lattice theta series
    n = 300
    b = qexp.theta_series("b", n)
    c3 = qexp.theta_series("c", n).substitute_power(3)
    f = qexp.eta_quotient(lvalue._F_ETA, n)
    g = qexp.eta_quotient(lvalue._G_ETA, n)
    assert f == (b * b * c3).exact_div(3)
    assert g == (b * c3 * c3).exact_div(9)
    assert g.coeffs[:7] == [0, 0, 1, -3, 0, 8, -9]
    # f is no Hecke eigenform: a_6 != a_2 a_3, so no single-form equation holds
    a = f.coeffs
    assert (a[2], a[3], a[6]) == (-6, 9, 27)


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


def test_rhs_theorem_raises_when_the_series_search_fails(monkeypatch):
    # a private cache keeps the memo of the other tests out of the way; with
    # the boundary fit on too few partial sums to reach tol, the series route
    # raises rather than return a value
    monkeypatch.setattr(lvalue, "_KDF_VALUE_CACHE", {})
    monkeypatch.setattr(hyper, "_FIT_D", 24)
    with pytest.raises(ArithmeticError):
        lvalue.rhs_theorem(1, "series", PREC)


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


@pytest.mark.parametrize("x", ["1e-30", "1e-8", "0.124", "0.126", "0.9"])
def test_int3_integrand_vs_defining_formula(x):
    # the cancelling difference ((1-x)^(1/3) - (1-x)^(2/3)) / (x (1-x)),
    # evaluated with 40 more digits, is the reference
    with mp.workdps(40):
        got = lvalue._int3_integrand(mpf(x))
    with mp.workdps(80):
        xx = mpf(x)
        omx = 1 - xx
        want = (mp.cbrt(omx) - mp.cbrt(omx) ** 2) / (xx * omx)
        assert abs(got - want) <= mpf("1e-38") * want
