"""L-value routes: the method table, Dirichlet tails, route cross-checks,
and the identity catalog at its stated tolerance."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf, mpmathify

from cubictheta import hyper, lvalue, qexp, thetanum
from cubictheta.hyper import SeriesResult, quad_de
from cubictheta.thetanum import Precision
from closed_forms import l_value

PREC = Precision(40, 1e-12)


def test_request_validation():
    # The method table holds the n each route evaluates; the CLI rejects the rest.
    def accepts(n, method):
        return method in lvalue.LVALUE_METHODS and n in lvalue.LVALUE_METHODS[method][0]

    assert accepts(3, "dirichlet")
    assert accepts(1, "alpha_integral")
    assert accepts(2, "rz_intermediate")
    assert all(accepts(n, "mellin") for n in (1, 2, 3))
    for n in (1, 2):
        assert not accepts(n, "dirichlet")
    assert not accepts(2, "alpha_integral")
    assert not accepts(3, "rz_intermediate")
    assert not accepts(4, "mellin")
    assert not accepts(1, "euler")
    assert all(msg for _, msg in lvalue.LVALUE_METHODS.values())


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


def test_prefix_sums_are_fsums():
    # zeros, both signs, subnormals and exponents over +-300 decades; a chunk
    # of 97 terms puts chunk edges inside the segments
    rng = np.random.default_rng(27)
    for _ in range(200):
        n = int(rng.integers(1, 2000))
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        x[rng.random(n) < 0.2] = 0.0
        x[rng.random(n) < 0.2] *= 1e-310
        ends = sorted({int(k) for k in rng.integers(0, n + 1, 3)} | {n})
        want = [math.fsum(x[:k].tolist()) for k in ends]
        assert [lvalue._fsum(lambda i, j: x[i:j], k) for k in ends] == want
        with pytest.MonkeyPatch.context() as mpatch:
            mpatch.setattr(lvalue, "_SUM_CHUNK", 97)
            assert [lvalue._fsum(lambda i, j: x[i:j], k) for k in ends] == want


def test_dirichlet_checkpoint_sums_are_fsums_of_exact_terms(monkeypatch):
    # the sum is the correctly rounded sum of a_m / m^3 over the
    # exact-product coefficients; a chunk of 999 terms puts chunk edges
    # inside it, and the terms are formed one chunk at a time
    N = 10_000
    seen, chunks = [], []
    fsum = lvalue._fsum

    def spy(terms, end):
        seen.append(fsum(lambda i, j: chunks.append((i, j)) or terms(i, j), end))
        return seen[-1]

    monkeypatch.setattr(lvalue, "_SUM_CHUNK", 999)
    monkeypatch.setattr(lvalue, "_fsum", spy)
    res = lvalue.l_dirichlet(N)
    monkeypatch.undo()
    coeffs = qexp._f_coeffs_product(N)
    want = [math.fsum(coeffs[m] / float(m) ** 3 for m in range(1, N + 1))]
    assert seen == want
    assert res.value == want[-1]
    assert chunks == [(i, min(i + 999, N)) for i in range(0, N, 999)]


def test_dirichlet_traced_peak_per_coefficient():
    # numpy reports its buffers to tracemalloc, so the peak repeats exactly.
    # The one array of N entries is the int64 coefficient array, 8 bytes a
    # coefficient; on top of it come either one chunk's temporaries (about
    # 44 bytes a term, 0.7 MB at 2^14 terms) or one sieve block's buffer
    # (256 KiB), and 1 MiB covers both.  Forming every term at once would
    # add 8 bytes a coefficient, and an N-entry list of Python ints or
    # floats about 250
    N = 200_000
    tracemalloc.start()
    try:
        lvalue.l_dirichlet(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * N + 2 ** 20


@pytest.mark.parametrize("N", [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6])
def test_dirichlet_bar_covers_the_closed_form(N):
    # the bar is the proven tail 4C/N plus the rounding of the float terms;
    # at N = 10^6 it is 1.44e-5, for a true error of 1.07e-6
    res = lvalue.l_dirichlet(N)
    C = lvalue._tail_constant(qexp._F_TABLE)
    assert 4 * C / N < res.err_estimate < 4 * C / N * (1 + 1e-6)
    with mp.workdps(30):
        assert abs(res.value - l_value(3, 20)) <= res.err_estimate


def test_tail_constant_bounds_the_coefficient_sums():
    # |S(x)| <= C x^2 for every x <= 10^6, with C from the proof
    # (3.605); the measured largest ratio |S(x)|/x^2 is 1.25, at x = 2
    N = 10 ** 6
    C = float(lvalue._tail_constant(qexp._F_TABLE))
    assert 3.6 < C < 3.61
    S = np.cumsum(qexp._f_coeffs(N))[1:]
    x = np.arange(1, N + 1, dtype=float)
    assert np.all(np.abs(S) <= C * x * x)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_tail_constant_needs_zero_sum_columns(j):
    table = [list(row) for row in qexp._F_TABLE]
    table[1][j] += 1
    with pytest.raises(ValueError, match=f"column {j}"):
        lvalue._tail_constant(table)


def test_dirichlet_at_1_4_million_lands_on_l3():
    r = lvalue.l_dirichlet(1_400_000)
    assert abs(r.value - mpf(L_VALUES_35[3])) <= 10 * r.err_estimate


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

        def low(t, omt, lt, lomt):
            u = u0 * t
            return thetanum.f_integrand(u, sub_prec) * u ** (n - 1) * u0

        def high(t, omt, lt, lomt):
            u = u0 / t
            return thetanum.f_integrand(u, sub_prec) * u ** (n - 1) * u0 / (t * t)

        tol = prec.tol() / 8
        lo = quad_de(low, tol, prec, node_args=True)
        hi = quad_de(high, tol, prec, node_args=True)
        val = fac * (lo.value + hi.value)
        err = fac * (lo.err_estimate + hi.err_estimate) + prec.tol() / 4
        return SeriesResult(val, err, lo.terms_used + hi.terms_used, "integral")


@pytest.mark.parametrize("prec", [Precision(40, 1e-30), Precision(100, 1e-90),
                                  Precision(200, 1e-185)],
                         ids=["dps40", "dps100", "dps200"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mellin_bar_covers_the_closed_form(n, prec):
    # the bar is proven, and the coefficient bound 2 zeta(2) m^2 keeps it
    # within 10^3 of the error (37 to 88 times it measured)
    res = lvalue.l_mellin(n, prec)
    truth = l_value(n, prec.dps)
    with mp.workdps(prec.dps + 10):
        err = abs(res.value - truth)
        assert err <= res.err_estimate <= 1000 * err


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_forms_match_the_35_digit_values(n):
    with mp.workdps(60):
        assert abs(l_value(n, 50) - mpf(L_VALUES_35[n])) <= mpf("1e-35")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mellin_known_values(n):
    res = lvalue.l_mellin(n, PREC_FINE)
    assert res.method == "functional-equation"
    with mp.workdps(60):
        assert abs(res.value - mpf(L_VALUES_35[n])) <= mpf("1e-35")


def test_mellin_split_point_invariance(monkeypatch):
    # every split y0 gives the same value only if g and its constant
    # 3^(-3/2) 9^(3-s) are the Fricke partner of f; y0 = 1/3 and the
    # scales 1.3 and 1/1.3 of it
    for n in (1, 2, 3):
        runs = []
        for y0 in (Fraction(1, 3), Fraction(13, 30), Fraction(10, 39)):
            monkeypatch.setattr(lvalue, "_SPLIT_Y0", y0)
            runs.append(lvalue.l_mellin(n, PREC_FINE))
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


def _mellin_linear_scan(n, prec):
    """The M and the tail of ``l_mellin``'s stop as the scan M = 1, 2, ...
    to the first proven tail at most tol/8 finds them."""
    with mp.workdps(prec.dps + 15):
        sides, budget = lvalue._mellin_sides(n), prec.tol() / 8
        M = 1
        while (bound := lvalue._mellin_tail(sides, M)) > budget:
            M += 1
        return M, bound


@pytest.mark.parametrize("prec", [PREC, Precision(40, 1e-30), Precision(100, 1e-90)],
                         ids=["dps40-1e-12", "dps40-1e-30", "dps100"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mellin_stop_is_the_linear_scans(n, prec):
    # the bisected float estimate, confirmed at M - 1 and M, takes the M of
    # the linear scan, and the bar carries that same tail; the tail falls
    # with M over the scan and 20 steps past it
    M, bound = _mellin_linear_scan(n, prec)
    res = lvalue.l_mellin(n, prec)
    assert res.terms_used == 2 * M
    with mp.workdps(prec.dps + 15):
        sides = lvalue._mellin_sides(n)
        assert lvalue._mellin_order(sides, prec.tol() / 8) == (M, bound)
        tails = [lvalue._mellin_tail(sides, k) for k in range(1, M + 21)]
        assert all(a > b for a, b in zip(tails, tails[1:]))
    assert bound <= res.err_estimate


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mellin_matches_quadrature_oracle(n):
    old = quadrature_l_mellin(n, PREC)
    new = lvalue.l_mellin(n, PREC)
    with mp.workdps(60):
        assert abs(new.value - old.value) <= old.err_estimate


def test_coefficient_bound_holds():
    # _coeff_bound is proved for every m; check it on the computed range
    for spec in (lvalue._F_ETA, lvalue._G_ETA):
        coeffs = qexp.eta_quotient(spec, 2000).coeffs
        assert coeffs[0] == 0
        assert all(abs(coeffs[m]) <= lvalue._coeff_bound(m) for m in range(1, 2001))


def test_coefficients_meet_the_divisor_sum_bounds():
    # |a_m| <= 2 sigma_2(m) (max |_F_TABLE| = 2) and |b_m| <= sigma_2(m)/3
    # (g's table has entries of size at most 1), the facts behind
    # _coeff_bound
    n = 2000
    sigma2 = qexp._divisor_sieve(n, 2, ((1, 1, 1),) * 3).tolist()
    a = qexp.eta_quotient(lvalue._F_ETA, n).coeffs
    b = qexp.eta_quotient(lvalue._G_ETA, n).coeffs
    assert all(abs(a[m]) <= 2 * sigma2[m] for m in range(1, n + 1))
    assert all(3 * abs(b[m]) <= sigma2[m] for m in range(1, n + 1))


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


PREC_TRUTH = Precision(40, 1e-30)


@pytest.mark.parametrize("route", ["series", "integral"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_rhs_theorem_bar_covers_the_closed_form(n, route):
    res = lvalue.rhs_theorem(n, route, PREC_TRUTH)
    with mp.workdps(50):
        assert abs(res.value - l_value(n, 40)) <= res.err_estimate


@pytest.mark.parametrize("prec", [PREC_TRUTH, Precision(60, 1e-45)], ids=["dps40", "dps60"])
@pytest.mark.parametrize("route", ["series", "integral"])
@pytest.mark.parametrize("name", ["L1", "L2a"])
def test_l1_l2a_blocks_bar_covers_the_closed_form(name, route, prec):
    # L1 = 27 L(f, 1) and L2a = L1 + (81 sqrt 3/(4 pi)) L(f, 2) at (1, 1)
    (res,) = lvalue._kdf_at_one([name], route, prec)
    with mp.workdps(prec.dps + 10):
        truth = 27 * l_value(1, prec.dps)
        if name == "L2a":
            truth += 81 * mp.sqrt(3) / (4 * mp.pi) * l_value(2, prec.dps)
        assert abs(res.value - truth) <= res.err_estimate


def test_l1_block_at_100_digits_bar_covers_the_closed_form():
    # the integral route at 100 digits (0.1 s); the series route there takes
    # 5 s (D = 1280, K = 112), so its value, bar and error are in BENCH_34.json
    prec = Precision(100, 1e-90)
    (res,) = lvalue._kdf_at_one(["L1"], "integral", prec)
    with mp.workdps(prec.dps + 10):
        assert abs(res.value - 27 * l_value(1, prec.dps)) <= res.err_estimate <= prec.tol()


def test_rhs_theorem_raises_when_the_series_search_fails(monkeypatch):
    # a private cache keeps the memo of the other tests out of the way; with
    # the boundary fit on too few partial sums to reach tol, the series route
    # raises rather than return a value
    monkeypatch.setattr(lvalue, "_KDF_VALUE_CACHE", {})
    monkeypatch.setattr(hyper, "_FIT_D", ((0.0, 48),))
    with pytest.raises(ArithmeticError):
        lvalue.rhs_theorem(1, "series", PREC)


def test_theorem_blocks_are_batched_per_call(monkeypatch):
    # rhs_theorem(2) evaluates its own two blocks, in one batch; the theorem
    # suite evaluates all six in one batch and reads them from the memo after
    from cubictheta import cli

    batches = []
    real = hyper.kdf_integrals

    def spy(blocks, x, y, prec):
        batches.append([name for name, params in lvalue.THEOREM_KDF_BLOCKS.items()
                        if params in blocks])
        return real(blocks, x, y, prec)

    monkeypatch.setattr(hyper, "kdf_integrals", spy)
    monkeypatch.setattr(lvalue, "_KDF_VALUE_CACHE", {})
    lvalue.rhs_theorem(2, "integral", PREC)
    assert batches == [["L1", "L2a"]]
    monkeypatch.setattr(lvalue, "_KDF_VALUE_CACHE", {})
    batches.clear()
    cli.theorem_suite_reports(40)
    assert batches == [list(lvalue.THEOREM_KDF_BLOCKS)]


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


def mpf_horner(coeffs, M, z):
    """sum_{e <= M} coeffs[e] z^e by Horner's rule in mpf, the coefficients
    exact Fractions: the reference for the fixed-point loop."""
    acc = mpf(0)
    for e in range(M, -1, -1):
        acc = acc * z + coeffs[e]
    return acc


@pytest.mark.parametrize("q", ["0.05", "0.2"])
def test_e0_value_matches_an_mpf_sum_of_its_exact_coefficients(q):
    # the fixed-point sum, its Fraction coefficients floored to 2^-wp, against
    # the same truncation summed in mpf, and against a deeper one within tol
    with mp.workdps(60):
        qq, tol = mpf(q), mpf("1e-45")
        Q = qq ** (mpf(1) / 3)
        K = thetanum._terms_needed(Q, tol, 4)
        coeffs = qexp.lambert_series("E0", -(-K // 3)).coeffs
        val = lvalue._e0_value(qq, tol)
        assert abs(val - mpf_horner(coeffs, K, Q)) < mpf("1e-55")
        with mp.workdps(80):
            deep = thetanum._terms_needed(Q, mpf("1e-70"), 4)
            want = mpf_horner(qexp.lambert_series("E0", -(-deep // 3)).coeffs, deep, Q)
        assert abs(val - want) <= tol


def brute_e0(q):
    """E0(q) = sum_{k, r >= 1} chi3(kr)/k (q^(kr/3) - q^(kr)), the defining
    double sum over kr <= K at the working precision.

    The terms with kr = m sum to chi3(m) sigma(m)/m (Q^m - Q^(3m)), Q = q^(1/3),
    at most (1 + ln m) Q^m in size; K is 50 past the m where Q^m falls to
    10^-dps, so the dropped tail is far below 10^-dps.
    """
    qq = mpmathify(q)
    Q = qq ** (mpf(1) / 3)
    K = int(mp.dps * mp.log(10) / -mp.log(Q)) + 50
    total = mpf(0)
    for k in range(1, K + 1):
        for r in range(1, K // k + 1):
            ch = qexp.chi3(k * r)
            if ch:
                total += mpf(ch) / k * (Q ** (k * r) - qq ** (k * r))
    return total


@pytest.mark.parametrize("digits", [40, 60])
def test_e0_value_matches_the_defining_double_sum(digits):
    with mp.workdps(digits):
        tol = mpf(10) ** (10 - digits)
        for q in ("1e-6", "0.05", "0.1", "0.2"):
            val = lvalue._e0_value(mpmathify(q), tol)
            with mp.workdps(digits + 10):
                want = brute_e0(q)
            assert abs(val - want) <= tol, q


def test_e0_coefficients_meet_the_tail_contract():
    # _e0_value's tail bound takes c = 4: E0's coefficients on the q^(1/3)
    # grid are at most 4 (e + 1) in size
    co = qexp.lambert_series("E0", 2000).coeffs
    assert len(co) == 6001
    assert all(abs(s) <= 4 * (e + 1) for e, s in enumerate(co))


# -- identity catalog ------------------------------------------------------------------


def test_check_identity_unknown_name():
    with pytest.raises(ValueError):
        lvalue.check_identity("int4", PREC)


@pytest.mark.parametrize("name", ["geom", "int1", "int2", "lemma_E0"])
def test_check_identity_catalog_smoke(name):
    rep = lvalue.check_identity(name, PREC)
    assert rep.passed, (name, rep.abs_err)


@pytest.mark.parametrize("x", [pytest.param(Fraction(s), id=s)
                               for s in ("1e-45", "1e-30", "1e-8", "0.124", "0.126", "0.9")]
                         + [pytest.param(1 - Fraction(1, 2 ** 133), id="1-2^-133")])
def test_int3_integrand_vs_defining_formula(x):
    # the cancelling difference ((1-x)^(1/3) - (1-x)^(2/3)) / (x (1-x)),
    # evaluated with 40 more digits than it cancels, is the reference; x
    # runs from below 1e-40 to 1 - 2^-133, which 40 digits (136 bits) hold
    # exactly
    with mp.workdps(40):
        got = lvalue._int3_integrand(mpf(x.numerator) / x.denominator)
    with mp.workdps(125):
        xx = mpf(x.numerator) / x.denominator
        omx = 1 - xx
        want = (mp.cbrt(omx) - mp.cbrt(omx) ** 2) / (xx * omx)
        assert abs(got - want) <= mpf("1e-38") * want


@pytest.mark.parametrize("level", [0, 2, 4])
def test_l1_alpha_factor_vs_defining_formula(level):
    # ((1-t)^(-1/3) - 1)/t at both sides of each tanh-sinh node at 80
    # digits, from the node's stored 1 - t, against the defining formula
    # with 40 digits more than its difference cancels, at the node's
    # smaller end distance (the one it stores exactly) and 1 minus it; the
    # end nodes have t and 1 - t below 1e-40
    with mp.workdps(80):
        prec = mp.prec
        nodes = hyper._de_nodes(level, 84, prec)
        pairs = [(t, omt) for t, omt, *_ in nodes] + [(omt, t) for t, omt, *_ in nodes]
        got = [lvalue._l1_alpha_factor(omt) for _, omt in pairs]
    assert min(t for t, _ in pairs) < mpf("1e-40") and min(o for _, o in pairs) < mpf("1e-40")
    for (t, omt), g in zip(pairs, got):
        with mp.workprec(prec + 133 + max(0, -mp.mag(t))):
            t, omt = (t, 1 - t) if t <= omt else (1 - omt, omt)
            want = (omt ** (-mpf(1) / 3) - 1) / t
            assert abs(g - want) <= mp.ldexp(want, 6 - prec), t
