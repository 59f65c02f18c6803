"""Numerical theta evaluation: oracles at doubled precision, involution
self-consistency, hauptmodul residuals, the differential relation."""

import random

import pytest
from mpmath import mp, mpf

from cubictheta import qexp, thetanum
from cubictheta.thetanum import Precision

PREC20 = Precision(40, 1e-20)
PREC12 = Precision(40, 1e-12)


def brute_theta_value(kind, q, dps):
    """Direct lattice summation at elevated precision; independent oracle."""
    with mp.workdps(dps):
        qq = mp.mpmathify(q)
        terms = int(dps * mp.log(10) / (-mp.log(qq))) + 10
        if kind == "c":
            grid = qexp._lattice_counts(9 * terms + 3, 1)[0][::3]
            return +sum(grid[e] * qq ** (mpf(e) / 3) for e in range(len(grid)) if grid[e])
        c0, c1, c2 = qexp._lattice_counts(terms, 0)
        if kind == "a":
            co = [c0[m] + c1[m] + c2[m] for m in range(terms + 1)]
        else:
            co = [c0[m] - c1[m] for m in range(terms + 1)]
        return +sum(co[m] * qq ** m for m in range(terms + 1))


def test_precision_invariants():
    with pytest.raises(ValueError):
        Precision(14, 1e-2)
    with pytest.raises(ValueError):
        Precision(20, 1e-15)  # fewer than 10 guard digits
    assert Precision(40, 1e-20).dps == 40
    # a tol that is not positive and finite is rejected by name, not by a
    # math domain error or a nan/inf tol() later
    for bad in (float("nan"), float("inf"), 0.0, -1e-10):
        with pytest.raises(ValueError, match=f"positive and finite, got {bad}"):
            Precision(40, bad)


def test_domain_errors():
    for bad in (0, 1, -0.5, 1.5):
        with pytest.raises(ValueError):
            thetanum.eval_theta("a", bad, PREC12)
    with pytest.raises(ValueError):
        thetanum.eval_theta("zeta", 0.5, PREC12)


def test_small_q_limits():
    with mp.workdps(45):
        q = mpf("1e-8")
        assert abs(thetanum.eval_theta("a", q, PREC12) - 1) < 1e-7
        assert abs(thetanum.eval_theta("b", q, PREC12) - 1) < 1e-7
        # c ~ 3 q^(1/3)
        c = thetanum.eval_theta("c", q, PREC12)
        assert abs(c - 3 * q ** (mpf(1) / 3)) < 1e-7


def test_a_at_point_one_vs_oracle():
    # involution-path values (3u^2 < 1: a from its dual sum) against a
    # 60-digit direct-sum oracle
    with mp.workdps(60):
        for q in ("0.1", "0.2"):
            u = -mp.log(mpf(q)) / (2 * mp.pi)
            assert 3 * u * u < 1
            want = brute_theta_value("a", q, 60)
            got = thetanum.eval_theta("a", q, PREC20)
            assert abs(got - want) < mpf("1e-20")


@pytest.mark.parametrize("q", ["0.01", "0.02", "0.1", "0.5", "0.9"])
@pytest.mark.parametrize("kind", ["a", "b", "c"])
def test_theta_values_vs_lattice_oracle(kind, q):
    # both sides of the split, against a 70-digit direct lattice sum: q = 0.01
    # and 0.02 sum each kind's own series, q = 0.1, 0.5 and 0.9 its dual's
    prec = Precision(60, 1e-45)
    with mp.workdps(70):
        u = -mp.log(mpf(q)) / (2 * mp.pi)
        assert (3 * u * u >= 1) == (q in ("0.01", "0.02"))
        want = brute_theta_value(kind, q, 70)
        got = thetanum.eval_theta(kind, q, prec)
        assert abs(got - want) <= prec.tol()


def test_b_c_involution_fixed_point():
    with mp.workdps(55):
        qstar = mp.exp(-2 * mp.pi / mp.sqrt(3))
        b = thetanum.eval_theta("b", qstar, PREC20)
        c = thetanum.eval_theta("c", qstar, PREC20)
        assert abs(b - c) < mpf("1e-20")


def test_alpha_limits_and_fixed_point():
    with mp.workdps(55):
        assert thetanum.alpha_pair("1e-6", PREC12)[0] < 1e-3
        assert thetanum.alpha_pair("0.999", PREC12)[0] > 1 - 1e-3
        qstar = mp.exp(-2 * mp.pi / mp.sqrt(3))
        assert abs(thetanum.alpha_pair(qstar, PREC20)[0] - mpf(1) / 2) < mpf("1e-20")


def test_alpha_pair_sums_to_one():
    with mp.workdps(55):
        al, comp = thetanum.alpha_pair("0.37", PREC20)
        assert abs(al + comp - 1) < mpf("1e-35")


def test_theta_point_invariants():
    with mp.workdps(55):
        pt = thetanum.theta_point("0.2", PREC20)
        assert pt.a > 0 and pt.b > 0 and pt.c > 0
        assert 0 < pt.alpha < 1
        assert abs(pt.a ** 3 - pt.b ** 3 - pt.c ** 3) < mpf("1e-18") * pt.a ** 3
        assert abs(pt.q - mp.exp(-2 * mp.pi * pt.u)) < mpf("1e-30")


def test_f_integrand_large_u_asymptote():
    # leading coefficients give b -> 1, c(q^3) -> 3 q
    with mp.workdps(45):
        u = mpf(3)
        val = thetanum.f_integrand(u, PREC12)
        lead = 3 * mp.exp(-2 * mp.pi * u)
        assert abs(val / lead - 1) < 1e-6


def test_f_integrand_direct_vs_involution_formula():
    # u = 0.5 sits in the involution regime but both routes converge
    with mp.workdps(55):
        u = mpf("0.5")
        tol = mpf("1e-44")
        direct = (
            thetanum._theta_direct("b", mp.exp(-2 * mp.pi * u), tol) ** 2
            * thetanum._theta_direct("c", mp.exp(-6 * mp.pi * u), tol)
        )
        via = thetanum.f_integrand(u, Precision(40, 1e-25))
        assert abs(direct - via) < mpf("1e-25")


def test_f_integrand_vanishes_at_zero():
    with mp.workdps(45):
        assert thetanum.f_integrand(mpf("0.01"), PREC12) < mpf("1e-30")
    with pytest.raises(ValueError):
        thetanum.f_integrand(0, PREC12)


@pytest.mark.parametrize("u", ["0.2", "0.4", None, "1.0", "2.0"])  # None: 1/sqrt(3)
def test_a_maps_to_itself_under_the_involution(u):
    # a(exp(-2 pi u)) = a(exp(-2 pi/(3u))) / (sqrt(3) u), both sides summed
    # directly, which is the map the evaluator relies on below 3u^2 = 1
    with mp.workdps(55):
        uu = 1 / mp.sqrt(3) if u is None else mpf(u)
        tol = mpf("1e-48")
        lhs = thetanum._theta_direct("a", mp.exp(-2 * mp.pi * uu), tol)
        rhs = thetanum._theta_direct("a", mp.exp(-2 * mp.pi / (3 * uu)), tol) / (mp.sqrt(3) * uu)
        assert abs(lhs - rhs) < mpf("1e-40")


@pytest.mark.parametrize("kind", ["a", "b", "c"])
def test_tables_are_the_theta_series(kind):
    m = 50
    tab = thetanum._table(kind, m)
    want = qexp.theta_series(kind, len(tab)).coeffs
    if kind == "c":
        want = want[1::3]
    assert tab == want[: len(tab)] and len(tab) > m


def test_theta_coefficients_meet_the_tail_contract():
    # _theta_direct's tail bound takes c = 12: a_n, b_n and the
    # coefficients of c / q^(1/3) are at most 12 (n + 1) in size
    for kind in "abc":
        co = qexp.theta_series(kind, 6000).coeffs
        if kind == "c":
            co = co[1::3]
        assert len(co) >= 6000
        assert all(abs(s) <= 12 * (n + 1) for n, s in enumerate(co)), kind


def summed_tails(coeffs, z, ms):
    """sum_{M < e <= N} |s_e| z^e for each M in ms, N the last index."""
    terms, power = [], mpf(1)
    for s in coeffs:
        terms.append(abs(s) * power)
        power *= z
    return {m: mp.fsum(terms[m + 1:]) for m in ms}


@pytest.mark.parametrize("z", ["0.0266", "0.28", "0.58"])
def test_tail_bound_covers_the_summed_tails(z):
    # the bound of each series that thetanum sums, against its tail summed
    # to order 6000: a, b and c / q^(1/3) with c = 12, E0's grid with c = 4,
    # and the largest series the contract allows, s_e = c (e + 1)
    series = [(12, qexp.theta_series(kind, 6000).coeffs) for kind in "ab"]
    series += [(12, qexp.theta_series("c", 6000).coeffs[1::3]),
               (4, qexp.lambert_series("E0", 2000).coeffs)]
    series += [(c, [c * (e + 1) for e in range(6001)]) for c in (12, 4)]
    ms = (4, 10, 40, 160)
    with mp.workdps(30):
        zz = mpf(z)
        for c, co in series:
            for m, tail in summed_tails(co, zz, ms).items():
                assert 0 < tail <= thetanum._tail_bound(zz, m, c), (c, m)


def test_terms_needed_is_the_first_rung_under_tol():
    # M climbs 4, 6, 8, ... by an eighth (at least 2) and stops at the first
    # rung whose tail bound is at most tol
    with mp.workdps(50):
        for z, tol, c in (("0.0266", "1e-40", 12), ("0.58", "1e-30", 4), ("0.9", "1e-20", 12)):
            zz, tt = mpf(z), mpf(tol)
            m = thetanum._terms_needed(zz, tt, c)
            assert thetanum._tail_bound(zz, m, c) <= tt
            prev = 4
            while prev + max(prev // 8, 2) <= m:
                assert thetanum._tail_bound(zz, prev, c) > tt
                prev += max(prev // 8, 2)
            assert prev == m
        with pytest.raises(ArithmeticError):
            thetanum._terms_needed(mpf("0.99999"), mpf("1e-40"), 12)


def terms_needed_scan(z, tol, c):
    """The first rung M of 4, 6, 8, ... (stepped by an eighth) whose mpf
    ``_tail_bound`` is at most tol, by a linear scan of the mpf bound: the
    reference for the float decisions of ``_terms_needed``."""
    m = 4
    while thetanum._tail_bound(z, m, c) > tol:
        m += max(m // 8, 2)
        if m > 2_000_000:
            raise ArithmeticError("tolerance unattainable: truncated q-series too long")
    return m


def test_terms_needed_matches_the_mpf_scan_on_a_seeded_grid():
    # z from 1e-300 to 0.95, tol down to 10^-(dps+20), c = 4 and 12, at 20,
    # 50 and 120 digits
    rng = random.Random(37)
    for dps in (20, 50, 120):
        with mp.workdps(dps):
            for _ in range(60):
                z = mpf(10) ** mpf(rng.uniform(-300, -2)) if rng.random() < 0.4 \
                    else mpf(rng.uniform(0.01, 0.95))
                tol = mpf(10) ** -mpf(rng.uniform(1, dps + 20))
                for c in (4, 12):
                    assert thetanum._terms_needed(z, tol, c) == terms_needed_scan(z, tol, c), \
                        (dps, z, tol, c)


@pytest.mark.parametrize("dps", [20, 50, 120])
def test_terms_needed_at_a_rungs_exact_bound(dps):
    # tol set to a rung's mpf bound, and 1 and 2 ulps to either side of it:
    # the float log ratio reads 0 within its error there, and the mpf bound
    # decides, as in the scan
    with mp.workdps(dps):
        for z in (mpf("0.0266"), mpf("0.3"), mpf("0.9"), mpf("1e-40")):
            for c in (4, 12):
                m = 4
                for _ in range(12):
                    bound = thetanum._tail_bound(z, m, c)
                    ulp = mp.ldexp(1, mp.mag(bound) - mp.prec)
                    for ulps in (-2, -1, 0, 1, 2):
                        tol = bound + ulps * ulp
                        got = thetanum._terms_needed(z, tol, c)
                        assert got == terms_needed_scan(z, tol, c), (z, c, m, ulps)
                        # rung m passes at tol >= its bound and fails below
                        assert got <= m if ulps >= 0 else got != m
                    m += max(m // 8, 2)


@pytest.mark.parametrize("u", ["1e-20", "3e-61"])
def test_terms_needed_and_c_at_a_dual_argument_below_double_range(u):
    # the dual argument exp(-2 pi/(3u)) at a tiny u has a binary exponent far
    # below a double's (near -10^61 at u = 3e-61); the term count is the
    # scan's, and c's factor q^(1/3) is within 2 ulps of mp.root at twice
    # the precision, where exp(ln q/3) has no correct digit
    with mp.workdps(55):
        q = mp.exp(-2 * mp.pi / (3 * mpf(u)))
        assert q._mpf_[2] < -10 ** 19
        for tol in (mpf("1e-40"), mpf("1e-70")):
            for c in (4, 12):
                assert thetanum._terms_needed(q, tol, c) == terms_needed_scan(q, tol, c)
        got = thetanum._theta_direct("c", q, mpf("1e-60"))
        with mp.workprec(2 * mp.prec):
            want = 3 * mp.root(q, 3)
        assert abs(got - want) <= mp.ldexp(want, 2 - mp.prec)


def test_terms_needed_past_a_doubles_exponent_range():
    # a binary exponent past 2^1000, in z or in the tol, has a log past a
    # double's range: every rung goes to the mpf bound, as in the scan
    with mp.workdps(55):
        tiny = mp.ldexp(3, -10 ** 309)
        for z, tol in ((tiny, mpf("1e-40")), (tiny, mp.ldexp(5, -10 ** 310)),
                       (mp.ldexp(3, 7 - 2 ** 1000), mp.ldexp(5, -2 ** 1001))):
            for c in (4, 12):
                assert thetanum._terms_needed(z, tol, c) == terms_needed_scan(z, tol, c)
        assert thetanum._terms_needed(tiny, mp.ldexp(5, -10 ** 310), 12) == 10


def test_f_integrand_at_a_u_whose_dual_exponent_leaves_double_range():
    # u = 1e-400 puts the dual argument exp(-2 pi/(3u)) at a binary exponent
    # near -3e400; the term counts still come out, and the value is positive
    assert thetanum.f_integrand(mpf("1e-400"), Precision(20, 1e-10)) > 0


def test_hauptmodul_residual_spot_checks():
    with mp.workdps(55):
        for q in ("0.05", "0.5"):
            assert abs(thetanum.residual_hauptmodul(q, PREC20)) < mpf("1e-20")


@pytest.mark.parametrize("q", ["0.01", "0.1", "0.5", "0.9"])
def test_theta_point_takes_the_alpha_of_alpha_pair(q):
    # one hauptmodul: c^3/(b^3 + c^3), bit for bit on both sides of the split
    assert thetanum.theta_point(q, PREC20).alpha == thetanum.alpha_pair(q, PREC20)[0]


def test_residual_hauptmodul_maps_q_to_u_once(monkeypatch):
    calls = []
    real = thetanum._q_u

    def spy(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(thetanum, "_q_u", spy)
    for q in ("0.01", "0.3"):
        thetanum.residual_hauptmodul(q, PREC20)
    assert calls == ["0.01", "0.3"]


def test_residual_hauptmodul_is_the_difference_of_its_sides():
    with mp.workdps(50):
        a, f = thetanum._hauptmodul_sides("0.3", PREC20)
        assert a == thetanum.theta_point("0.3", PREC20).a
        assert thetanum.residual_hauptmodul("0.3", PREC20) == a - f


def test_differential_residual_ladder_and_contract():
    # (errors, residual): errors[i] = |fd(h0/2^i) - rhs| with the right side
    # a^2 alpha (1 - alpha)/q, alpha and 1 - alpha those of alpha_pair
    prec = PREC12
    errs, resid = thetanum.differential_residual("0.3", prec)
    assert thetanum._LADDER_MIN <= len(errs) <= thetanum._LADDER_MAX
    assert resid < prec.tol()
    with mp.workdps(prec.dps + 10):
        q = mpf("0.3")
        alpha, comp = thetanum.alpha_pair(q, prec)
        rhs = thetanum.theta_point(q, prec).a ** 2 * alpha * comp / q
        for i in (0, len(errs) - 1):
            h = mpf(thetanum._LADDER_H0) / 2 ** i
            fd = (thetanum.alpha_pair(q + h, prec)[0] - thetanum.alpha_pair(q - h, prec)[0]) / (2 * h)
            assert errs[i] == abs(fd - rhs)


def test_differential_relation_ratio_and_residual():
    with mp.workdps(55):
        errs, resid = thetanum.differential_residual("0.1", PREC12)
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        for r in ratios:
            assert 3.3 < r < 4.7
        assert resid < mpf("1e-12")


def test_qexp_truncation_consistency():
    # numeric evaluator vs exact order-120 truncation, within the tail bound
    order = 120
    with mp.workdps(55):
        for kind in ("a", "b", "c"):
            series = qexp.theta_series(kind, order)
            q = mpf("0.15")
            acc = mpf(0)
            q3 = q ** (mpf(1) / series.d)
            for e in range(series.order, -1, -1):
                acc = acc * q3 + series.coeffs[e]
            tail = 12 * (order + 3) * q ** (order + 1) / (1 - q) ** 2
            val = thetanum.eval_theta(kind, q, PREC20)
            assert abs(val - acc) <= tail + mpf("1e-20")
