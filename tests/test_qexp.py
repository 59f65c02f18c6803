"""Exact-series tests: brute-force lattice oracles, frozen vectors, ring laws."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubictheta import kernels, lvalue, qexp
from cubictheta.qexp import QSeries


# -- independent oracles (deliberately naive) ---------------------------------


def brute_hexagonal_counts(n):
    """#{(x, y): x^2 + xy + y^2 = m} for m <= n, by raw enumeration."""
    bound = math.isqrt(2 * n) + 1
    counts = [0] * (n + 1)
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            m = x * x + x * y + y * y
            if m <= n:
                counts[m] += 1
    return counts


def brute_c(n):
    """c-coefficients on the 1/3 grid to q-order n: q^(M + 1/3) for each
    (x, y), M = x^2 + xy + y^2 + x + y, by a raw double loop."""
    co = [0] * (3 * n + 1)
    bound = math.isqrt(2 * n + 2) + 2
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            e = 3 * (x * x + x * y + y * y + x + y) + 1
            if 0 <= e <= 3 * n:
                co[e] += 1
    return co


def brute_b_omega(n):
    """b-coefficients through the cube-root-of-unity sum, rounded from complex."""
    import cmath

    omega = cmath.exp(2j * cmath.pi / 3)
    bound = math.isqrt(2 * n) + 1
    acc = [0j] * (n + 1)
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            m = x * x + x * y + y * y
            if m <= n:
                acc[m] += omega ** ((x - y) % 3)
    out = []
    for z in acc:
        assert abs(z.imag) < 1e-9
        out.append(round(z.real))
    return out


def brute_class_counts(n):
    bound = math.isqrt(2 * n) + 1
    cls = [[0] * (n + 1) for _ in range(3)]
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            m = x * x + x * y + y * y
            if m <= n:
                cls[(x - y) % 3][m] += 1
    return cls


# -- theta series ---------------------------------------------------------------


def test_theta_a_small():
    assert qexp.theta_series("a", 4).coeffs == [1, 6, 0, 6, 6]


def test_theta_a_matches_brute_force():
    assert qexp.theta_series("a", 40).coeffs == brute_hexagonal_counts(40)


def test_theta_b_order_one():
    # six norm-1 vectors, all off the diagonal classes, split 3/3
    assert qexp.theta_series("b", 1).coeffs == [1, -3]


def test_theta_b_matches_omega_sum():
    assert qexp.theta_series("b", 40).coeffs == brute_b_omega(40)


def test_theta_b_class_balance():
    cls = brute_class_counts(60)
    assert cls[1] == cls[2]


def test_theta_c_leading_term():
    c = qexp.theta_series("c", 3)
    assert c.d == 3
    assert c.coeffs[0] == 0
    assert c.coeffs[1] == 3  # 3 q^(1/3): (0,0), (-1,0), (0,-1)
    assert all(c.coeffs[e] == 0 for e in range(len(c.coeffs)) if e % 3 != 1)


@pytest.mark.parametrize("n", [30, 300])
def test_theta_c_matches_brute_force(n):
    c = qexp.theta_series("c", n)
    assert c.d == 3 and c.coeffs == brute_c(n)


def test_counts_hexagonal_matches_brute_force():
    for n in (30, 300):
        assert qexp._lattice_counts(n, 0) == tuple(brute_class_counts(n))


# -- QSeries arithmetic -----------------------------------------------------------


def test_mul_difference_of_squares():
    one_plus = QSeries(1, [1, 1, 0])
    one_minus = QSeries(1, [1, -1, 0])
    assert (one_plus * one_minus).coeffs == [1, 0, -1]


def test_mul_square():
    s = QSeries(1, [1, -3, 0])
    assert (s * s).coeffs == [1, -6, 9]


def test_mul_truncates_to_min_order():
    a = QSeries(1, [1] * 6)  # order 5
    b = QSeries(1, [1] * 4)  # order 3
    assert (a * b).order == 3


def test_substitute_power_examples():
    s = QSeries(1, [1, 1])
    assert s.substitute_power(3).coeffs == [1, 0, 0, 1]
    assert s.substitute_power(1) is s
    # cube-root grid with leading q^(1/3) drops to the integer grid
    c = QSeries(3, [0, 1, 0, 0])
    out = c.substitute_power(3)
    assert out.d == 1 and out.coeffs == [0, 1, 0, 0]


def test_substitute_root():
    b = QSeries(1, [1, -3])
    r = b.substitute_root(3)
    assert r.d == 3 and r.coeffs == [1, -3]
    with pytest.raises(ValueError):
        r.substitute_root(3)


def test_q_differentiate_examples():
    s = QSeries(3, [0, 1])  # q^(1/3)
    assert s.q_differentiate().coeffs == [0, Fraction(1, 3)]
    assert QSeries(1, [5]).q_differentiate().coeffs == [0]
    mix = QSeries(3, [0, 1, 0, -1])  # q^(1/3) - q
    assert mix.q_differentiate().coeffs == [0, Fraction(1, 3), 0, -1]


def test_q_differentiate_times_keeps_integral_coefficients_int():
    # 9 q d/dq of q^(1/3)/3 - q^(2/3)/4 + q/5 - 5 q^2: 1, -3/2, 9/5 and -90
    s = QSeries(3, [7, Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5), 0, 0, -5])
    out = s.q_differentiate(9).coeffs
    assert out == [0, 1, Fraction(-3, 2), Fraction(9, 5), 0, 0, -90]
    assert [type(c) for c in out] == [int, int, Fraction, Fraction, int, int, int]
    assert QSeries(1, [1, 2, 3]).q_differentiate(2).coeffs == [0, 4, 12]


def test_immutability():
    s = QSeries(1, [1])
    with pytest.raises(AttributeError):
        s.d = 3


@pytest.mark.parametrize("inexact", [0.5, np.int64(1)], ids=["float", "numpy_int64"])
def test_inexact_coefficients_rejected(inexact):
    with pytest.raises(TypeError):
        QSeries(1, [1, inexact])


small_series = st.lists(st.integers(-9, 9), min_size=1, max_size=10).map(
    lambda c: QSeries(1, c)
)


@settings(max_examples=60)
@given(small_series, small_series, small_series)
def test_ring_laws(a, b, c):
    assert (a * b) == (b * a)
    left = a * (b + c)
    right = a * b + a * c
    assert left == right


@settings(max_examples=30)
@given(small_series, st.integers(1, 3), st.integers(1, 3))
def test_substitute_power_composes(s, j, k):
    assert s.substitute_power(j).substitute_power(k) == s.substitute_power(j * k)


# -- eta quotients ------------------------------------------------------------------


def test_eta_trivial_quotient():
    assert qexp.eta_quotient([(1, 1), (1, -1)], 8) == QSeries(1, [1] + [0] * 8)


def test_eta_b_cross_construction():
    assert qexp.eta_quotient([(1, 3), (3, -1)], 48) == qexp.theta_series("b", 48)


def test_eta_f_construction():
    # prefactor exponent (6 + 27 - 9)/24 = 1, leading term q
    eta_f = qexp.eta_quotient([(1, 6), (9, 3), (3, -3)], 32)
    assert eta_f.d == 1 and eta_f.coeffs[0] == 0 and eta_f.coeffs[1] == 1
    assert eta_f == qexp.f_coefficients(32)


def loop_eta_quotient(spec, n):
    """Reference: each eta(q**delta)**r as |r| separate Euler products."""
    poly = [1] + [0] * n
    for delta, r in spec:
        euler = qexp._euler_coeffs(n, delta)
        for _ in range(abs(r)):
            poly = (kernels.conv_trunc if r > 0 else kernels.div_unit)(poly, euler, n)
    p8 = sum(delta * r for delta, r in spec) // 8
    d = 1 if p8 % 3 == 0 else 3
    out = [0] * (d * n + 1)
    for m, c in enumerate(poly):
        e = d * m + (p8 // 3 if d == 1 else p8)
        if e > d * n:
            break
        out[e] = c
    return QSeries(d, out)


# r = ±1..±7 against eta(q^3)**s, s = -3r mod 8, which puts the exponent on the grid
@pytest.mark.parametrize("spec", [
    [(1, 3), (3, -1)], [(3, 3), (1, -1)], [(1, 6), (9, 3), (3, -3)],
    *([(1, r), (3, -3 * r % 8)] for r in (*range(1, 8), *range(-7, 0))),
])
def test_eta_quotient_matches_repeated_euler_products(spec):
    assert qexp.eta_quotient(spec, 300) == loop_eta_quotient(spec, 300)


def test_eta_grid_precondition():
    with pytest.raises(ValueError):
        qexp.eta_quotient([(1, 1)], 10)  # exponent 1/24 off the 1/3 grid
    with pytest.raises(ValueError):
        qexp.eta_quotient([(1, -8)], 10)  # negative leading exponent


def test_eta_off_integer_grid_keeps_d3_at_order_zero():
    # q^(1/3) * (...) truncated to order 0 is all zero, but its prefactor
    # sits off the integer grid, so it stays on the 1/3 grid
    c = qexp.eta_quotient([(3, 3), (1, -1)], 0)
    assert c.d == 3 and c.coeffs == [0]


# -- Lambert sums ---------------------------------------------------------------------


def test_lambert_bc3_first_coefficient():
    assert qexp.lambert_series("bc3", 1).coeffs[1] == 3


def test_lambert_c_cubed_first_coefficient():
    assert qexp.lambert_series("c_cubed", 1).coeffs[1] == 27


def test_lambert_e0_leading():
    e0 = qexp.lambert_series("E0", 2)
    assert e0.d == 3
    assert e0.coeffs[1] == 1  # chi(1)/1 at q^(1/3)
    assert e0.coeffs[2] == Fraction(-3, 2)  # chi(2)(1/1 + 1/2)


def loop_lambert_e0(n):
    """Reference E0: the double sum over k and r, one Fraction per term."""
    ng = 3 * n
    co = [Fraction(0)] * (ng + 1)
    for k in range(1, ng + 1):
        for r in range(1, ng // k + 1):
            m = k * r
            ch = qexp.chi3(m)
            if ch == 0:
                continue
            w = Fraction(ch, k)
            co[m] += w
            if 3 * m <= ng:
                co[3 * m] -= w
    return co


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 33, 300])
def test_lambert_e0_closed_form_matches_double_sum(n):
    assert qexp.lambert_series("E0", n).coeffs == loop_lambert_e0(n)


def loop_lambert_c(n):
    """Reference c: 3 sum_{r, s} chi3(r) (q^(rs/3) - q^(rs)), term by term."""
    ng = 3 * n
    co = [0] * (ng + 1)
    for r in range(1, ng + 1):
        ch = qexp.chi3(r)
        if ch == 0:
            continue
        for s in range(1, ng // r + 1):
            m = r * s
            co[m] += 3 * ch
            if 3 * m <= ng:
                co[3 * m] -= 3 * ch
    return co


def loop_lambert_bc3(n):
    """Reference bc3: 3 sum_{k, s} chi3(ks) k q^(ks), term by term."""
    co = [0] * (n + 1)
    for k in range(1, n + 1):
        for m in range(k, n + 1, k):
            co[m] += 3 * qexp.chi3(m) * k
    return co


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 97, 300])
def test_lambert_c_and_bc3_from_the_sieve_match_double_sums(n):
    c = qexp.lambert_series("c", n)
    bc3 = qexp.lambert_series("bc3", n)
    assert (c.d, bc3.d) == (3, 1)
    assert c.coeffs == loop_lambert_c(n)
    assert bc3.coeffs == loop_lambert_bc3(n)
    assert all(type(x) is int for x in c.coeffs + bc3.coeffs)


def loop_lambert_c_cubed(n):
    """Reference c_cubed: 27 sum_{k, s} chi3(k) s^2 q^(ks), term by term."""
    co = [0] * (n + 1)
    for k in range(1, n + 1):
        for s in range(1, n // k + 1):
            co[k * s] += 27 * qexp.chi3(k) * s * s
    return co


# perfect squares and their neighbours move isqrt(n) and the split point
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 97, 300, 1000])
def test_lambert_c_cubed_sieve_matches_double_sum(n):
    c3 = qexp.lambert_series("c_cubed", n)
    assert c3.d == 1
    assert c3.coeffs == loop_lambert_c_cubed(n)
    assert all(type(x) is int for x in c3.coeffs)


def test_lambert_unknown_kind():
    with pytest.raises(ValueError):
        qexp.lambert_series("nope", 4)


# -- the weight-3 product ----------------------------------------------------------------


def oracle_f_coefficients(n):
    """(1/3) b^2 c(q^3) by raw convolution of independently enumerated series."""
    b = brute_b_omega(n)
    grid = [0] * (3 * n + 1)
    mmax = (3 * n - 1) // 3
    bound = math.isqrt(2 * mmax + 2) + 2
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            e = 3 * (x * x + x * y + y * y + x + y) + 1
            if 0 <= e <= 3 * n:
                grid[e] += 1
    c_q3 = [0] * (n + 1)
    for e in range(3 * n + 1):
        if grid[e] and e <= n:
            c_q3[e] += grid[e]

    def conv(u, v):
        out = [0] * (n + 1)
        for i, ui in enumerate(u):
            if ui:
                for j in range(min(n - i, len(v) - 1) + 1):
                    out[i + j] += ui * v[j]
        return out

    f3 = conv(conv(b, b), c_q3)
    assert all(x % 3 == 0 for x in f3)
    return [x // 3 for x in f3]


def test_f_first_coefficients():
    f = qexp.f_coefficients(10)
    assert f.coeffs[0] == 0
    assert f.coeffs[1] == 1
    # frozen from oracle_f_coefficients(10)
    assert (f.coeffs[2], f.coeffs[3], f.coeffs[4]) == (-6, 9, 13)
    assert f.coeffs == oracle_f_coefficients(10)


# 1, 2, 3 and 64, 65 put the last index on each residue mod 3 near both edges
@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 2000, 3001])
def test_f_fft_path_matches_product_path(n):
    assert qexp._f_coeffs(n).tolist() == qexp._f_coeffs_product(n)


def test_f_fft_polyphase_matches_product_at_every_small_order():
    # every n puts the three residue classes at every length and edge
    for n in range(1, 301):
        assert qexp._f_coeffs(n).tolist() == qexp._f_coeffs_product(n), n


SIGMA_TABLE = ((1, 1, 1),) * 3
# E(m) = sum_{d | m} chi3(d)
E_TABLE = ((0, 0, 0), (1, 1, 1), (-1, -1, -1))


def slice_loop_divisor_sums(n, k=1, table=SIGMA_TABLE):
    """Reference sum_{de = m} d^k table[d % 3][e % 3], m = 0..n (sigma by
    default): one slice update per divisor d = 1..n and residue of e mod 3."""
    out = np.zeros(n + 1, dtype=np.int64)
    for d in range(1, n + 1):
        for e in (1, 2, 3):
            out[d * e::3 * d] += table[d % 3][e % 3] * d ** k
    return out


# perfect squares and their neighbours move isqrt(n) and the split point
@pytest.mark.parametrize("n", [1, 2, 3, 10, 99, 100, 101, 1000, 10**5])
def test_divisor_sums_match_slice_loop(n):
    assert qexp._divisor_sieve(n, 1, SIGMA_TABLE).tolist() == slice_loop_divisor_sums(n).tolist()


# (k, table) of every divisor sum the library takes: sigma, E, the Lambert
# kinds 'c', 'bc3' and 'c_cubed', f, b and g
SIEVE_TABLES = [
    (1, SIGMA_TABLE), (0, E_TABLE), (0, ((0, 0, 0), (0, 3, 3), (0, -3, -3))),
    (1, ((0, 0, 0), (0, 3, -3), (0, -3, 3))), (2, ((0, 27, -27),) * 3),
    (2, qexp._F_TABLE), (0, ((0, 0, 0), (6, -3, -3), (-6, 3, 3))),
    (2, ((0, -1, 1), (0, 0, -1), (0, 1, 0))),
]


@pytest.mark.parametrize("k, table", SIEVE_TABLES)
def test_divisor_sieve_blocks_match_slice_loop(monkeypatch, k, table):
    # blocks of 7 large divisors: at d = 1 the n in 1..400 run 0 to 19
    # blocks and end the last one at every offset; k = 0 needs the power
    # that turns a block into ones
    monkeypatch.setattr(qexp, "_SIEVE_BLOCK", 7)
    for n in list(range(1, 401)) + [1000, 4096]:
        assert qexp._divisor_sieve(n, k, table).tolist() == \
            slice_loop_divisor_sums(n, k, table).tolist(), n


def brute_divisor_sums(n):
    """sigma(m) and E(m) = sum_{d | m} chi3(d), m = 0..n, by trial division."""
    sig, ech = [0] * (n + 1), [0] * (n + 1)
    for m in range(1, n + 1):
        for d in range(1, m + 1):
            if m % d == 0:
                sig[m] += d
                ech[m] += qexp.chi3(d)
    return sig, ech


@pytest.mark.parametrize("n", list(range(1, 61)) + [997, 1000, 1024])
def test_divisor_sums_match_trial_division(n):
    sig, ech = qexp._divisor_sieve(n, 1, SIGMA_TABLE), qexp._divisor_sieve(n, 0, E_TABLE)
    assert (sig.tolist(), ech.tolist()) == brute_divisor_sums(n)


def test_b_from_divisor_sums_matches_lattice():
    # b = (3 a(q^3) - a(q))/2 from the Lambert series a = 1 + 6 sum E(m) q^m,
    # so b_m = sum_{de = m} chi3(d) (9 [3 | e] - 3), against the lattice
    # count c0 - c1 that theta_series("b") reads
    n = 5000
    c0, c1, _ = qexp._lattice_counts(n, 0)
    b = qexp._divisor_sieve(n, 0, ((0, 0, 0), (6, -3, -3), (-6, 3, 3)))
    b[0] = 1
    assert b.tolist() == [x - y for x, y in zip(c0, c1)]


def test_f_table_is_the_eisenstein_formula():
    # 2 a_m = 3A(m) - 3A(m/3) - B(m) + 27B(m/3), with A(m) = sum chi3(d) d^2
    # and B(m) = sum chi3(m/d) d^2 over the divisors d of m, each added once
    n = 2000
    A, B = [0] * (n + 1), [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            A[m] += qexp.chi3(d) * d * d
            B[m] += qexp.chi3(m // d) * d * d
    want = [3 * A[m] - B[m] + (27 * B[m // 3] - 3 * A[m // 3] if m % 3 == 0 else 0)
            for m in range(n + 1)]
    assert (2 * qexp._divisor_sieve(n, 2, qexp._F_TABLE)).tolist() == want


def test_g_table_is_the_fricke_partner():
    # 3 a_m(g) = sum_{de = m} d^2 W[d % 3][e % 3] for g = eta(9t)^6 eta(t)^3/eta(3t)^3
    n = 3000
    g = qexp.eta_quotient(lvalue._G_ETA, n).coeffs
    got = qexp._divisor_sieve(n, 2, ((0, -1, 1), (0, 0, -1), (0, 1, 0)))
    assert got.tolist() == [3 * c for c in g]


@pytest.mark.parametrize("i", range(3))
@pytest.mark.parametrize("j", range(3))
def test_f_guard_catches_one_wrong_table_entry(monkeypatch, i, j):
    table = [list(row) for row in qexp._F_TABLE]
    table[i][j] += 1
    monkeypatch.setattr(qexp, "_F_TABLE", table)
    with pytest.raises(AssertionError, match="exact product"):
        qexp.f_coefficients(2000)


# -- character -------------------------------------------------------------------------


def test_chi3_values():
    assert qexp.chi3(1) == 1
    assert qexp.chi3(2) == -1
    assert qexp.chi3(6) == 0
    assert qexp.chi3(-1) == -1


@given(st.integers(-300, 300), st.integers(-300, 300))
def test_chi3_multiplicative(m, n):
    assert qexp.chi3(m * n) == qexp.chi3(m) * qexp.chi3(n)


# -- exact identity smoke (order 60; the acceptance suite runs order 500) ----------------


def test_identity_suite_small_order():
    from cubictheta.cli import exact_suite_reports

    reports = exact_suite_reports(60)
    assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]


# -- dump format ------------------------------------------------------------------------


def test_dump_format():
    lines = list(qexp.dump_lines(qexp.f_coefficients(10)))
    assert len(lines) == 10
    assert lines[0] == "1/1\t1/1"
    e0_lines = list(qexp.dump_lines(qexp.lambert_series("E0", 3)))
    assert "1/3\t1/1" in e0_lines
