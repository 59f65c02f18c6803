"""Exact truncated q-series arithmetic and the classical series constructions.

Everything here is exact: coefficients are Python ints or Fractions, and an
identity "holds to order N" means every tracked coefficient of the difference
vanishes.  Series live on an exponent grid e/d with d in {1, 3}; the d = 3
grid carries the cube-root exponents of the shifted theta series c(q) and of
the weighted Lambert sum E0.  One lattice enumerator counts a, b and c: the
hexagonal lattice and its (1/3, 1/3) shift, and one slice placement,
``_spread``, moves coefficients between grids.

Every divisor sum comes from one exact int64 sieve, ``_divisor_sieve``:
sum_{de = m} d^k W[d mod 3][e mod 3] for a 3 x 3 table W.  It gives the
Lambert kinds, and it gives the coefficients of the weight-3 product f, which
is a combination of Eisenstein series; they become Python ints only at the
``QSeries`` boundary, in ``f_coefficients``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import kernels

__all__ = [
    "QSeries",
    "chi3",
    "theta_series",
    "eta_quotient",
    "lambert_series",
    "f_coefficients",
    "dump_lines",
]


def chi3(n: int) -> int:
    """The odd primitive Dirichlet character of conductor 3."""
    return (0, 1, -1)[n % 3]


class QSeries:
    """Dense truncated power series in q**(1/d) with exact coefficients.

    ``coeffs[e]`` is the coefficient of q**(e/d); entries are tracked for
    0 <= e <= order and unknown beyond.  Instances are immutable.
    """

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs: list):
        if d not in (1, 3):
            raise ValueError(f"unsupported exponent denominator {d}")
        if not coeffs:
            raise ValueError("empty coefficient list")
        coeffs = list(coeffs)
        if not all(issubclass(t, (int, Fraction)) for t in set(map(type, coeffs))):
            raise TypeError("coefficients must be int or Fraction")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("QSeries is immutable")

    # -- basic accessors -------------------------------------------------

    @property
    def order(self) -> int:
        """Largest tracked grid exponent e."""
        return len(self.coeffs) - 1

    def __repr__(self):
        head = ", ".join(
            f"q^({e}/{self.d})*{c}" for e, c in enumerate(self.coeffs[:4]) if c
        )
        return f"QSeries(d={self.d}, order={self.order}, {head or '0'}, ...)"

    # -- grid management -------------------------------------------------

    def lift(self, d_new: int) -> "QSeries":
        """Rewrite on a finer grid (1 -> 3) without changing the series."""
        if d_new == self.d:
            return self
        if not (self.d == 1 and d_new == 3):
            raise ValueError(f"cannot lift d={self.d} to d={d_new}")
        return QSeries(3, _spread(self.coeffs, 3))

    def reduce(self) -> "QSeries":
        """Drop to d = 1 when every nonzero exponent is integral."""
        if self.d == 1:
            return self
        if any(self.coeffs[1::3]) or any(self.coeffs[2::3]):
            return self
        return QSeries(1, self.coeffs[::3])

    @staticmethod
    def _unify(a: "QSeries", b: "QSeries"):
        if a.d != b.d:
            a, b = a.lift(3), b.lift(3)
        n = min(a.order, b.order)
        return a, b, n

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        a, b, n = self._unify(self, other)
        return QSeries(a.d, [a.coeffs[e] + b.coeffs[e] for e in range(n + 1)])

    def __sub__(self, other: "QSeries") -> "QSeries":
        a, b, n = self._unify(self, other)
        return QSeries(a.d, [a.coeffs[e] - b.coeffs[e] for e in range(n + 1)])

    def __mul__(self, other):
        if isinstance(other, QSeries):
            a, b, n = self._unify(self, other)
            return QSeries(a.d, kernels.conv_trunc(a.coeffs, b.coeffs, n))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s) -> "QSeries":
        """Multiply every coefficient by the exact scalar ``s``."""
        if not isinstance(s, (int, Fraction)):
            raise TypeError("scalars must be int or Fraction")
        return QSeries(self.d, [c * s for c in self.coeffs])

    def exact_div(self, s: int) -> "QSeries":
        """Divide by an integer, keeping int coefficients when possible."""
        out = []
        for c in self.coeffs:
            if type(c) is int and c % s == 0:
                out.append(c // s)
            else:
                out.append(Fraction(c, s) if type(c) is int else c / s)
        return QSeries(self.d, out)

    def __pow__(self, k: int) -> "QSeries":
        if not isinstance(k, int) or k < 1:
            raise ValueError("only positive integer powers")
        r = self
        for _ in range(k - 1):
            r = r * self
        return r

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b, n = self._unify(self, other)
        return a.coeffs[: n + 1] == b.coeffs[: n + 1]

    __hash__ = None

    # -- substitutions and differentiation --------------------------------

    def substitute_power(self, k: int) -> "QSeries":
        """q -> q**k; exponent e/d -> ke/d, order scales by k."""
        if not isinstance(k, int) or k < 1:
            raise ValueError("substitution power must be a positive integer")
        if k == 1:
            return self
        return QSeries(self.d, _spread(self.coeffs, k)).reduce()

    def substitute_root(self, m: int) -> "QSeries":
        """q -> q**(1/m) by a denominator change (only 1 -> 3 supported)."""
        if m == 1:
            return self
        if m != 3 or self.d != 1:
            raise ValueError("only q -> q^(1/3) from the integer grid is supported")
        return QSeries(3, list(self.coeffs))

    def q_differentiate(self, times: int = 1) -> "QSeries":
        """Apply ``times`` q d/dq: the coefficient c of q**(e/d) becomes
        times e c / d, an int wherever that is integral."""
        out = []
        for e, c in enumerate(self.coeffs):
            num, den = times * e * c.numerator, self.d * c.denominator
            out.append(Fraction(num, den) if num % den else num // den)
        return QSeries(self.d, out)


# -- grid placement and lattice enumeration --------------------------------


def _spread(coeffs: list, k: int) -> list:
    """``coeffs`` at every k-th place of a zero list: e -> k*e on the grid."""
    out = [0] * (k * (len(coeffs) - 1) + 1)
    out[::k] = coeffs
    return out


def _lattice_counts(n: int, r: int):
    """Counts of N = X*X + X*Y + Y*Y <= n over the pairs X % 3 == Y % 3 == r,
    every pair when r = 0, split by (X - Y) mod 3.

    r = 0 is the hexagonal lattice of a and b; r = 1 is its (1/3, 1/3) shift
    scaled by 3, X = 3x + 1 and Y = 3y + 1, which carries c.  The norm bound
    N >= (X*X + Y*Y)/2 makes the box |X|, |Y| <= ceil(sqrt(2n)) exhaustive.
    The whole box is one broadcast: each pair in the ellipse gives the key
    3N + (X - Y) mod 3, and one bincount counts them.
    """
    B = math.isqrt(2 * n) + 1
    ys = np.arange(-B, B + 1, dtype=np.int64)
    if r:
        ys = ys[ys % 3 == r]
    xs = ys[:, None]
    m = xs * xs + xs * ys + ys * ys
    sel = m <= n
    keys = 3 * m[sel] + (xs - ys)[sel] % 3
    counts = np.bincount(keys, minlength=3 * (n + 1)).reshape(n + 1, 3)
    return counts[:, 0].tolist(), counts[:, 1].tolist(), counts[:, 2].tolist()


def theta_series(kind: str, n: int) -> QSeries:
    """Cubic theta series to q-order ``n``: kinds 'a', 'b' (d=1), 'c' (d=3).

    One enumerator, ``_lattice_counts``, counts both lattices: a and b read
    the hexagonal lattice (r = 0), and c its (1/3, 1/3) shift (r = 1), whose
    norm N/9 sits at e = N/3 on the 1/3 grid.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if kind == "a":
        c0, c1, c2 = _lattice_counts(n, 0)
        return QSeries(1, [c0[m] + c1[m] + c2[m] for m in range(n + 1)])
    if kind == "b":
        c0, c1, c2 = _lattice_counts(n, 0)
        if c1 != c2:
            raise AssertionError("residue classes of x - y mod 3 must balance")
        return QSeries(1, [c0[m] - c1[m] for m in range(n + 1)])
    if kind == "c":
        return QSeries(3, _lattice_counts(9 * n, 1)[0][::3])
    raise ValueError(f"unknown theta kind {kind!r}")


# -- eta quotients ----------------------------------------------------------


def _euler_coeffs(n: int, step: int) -> list:
    """Pentagonal-number expansion of prod_{m>=1} (1 - q**(step*m)) to order n."""
    co = [0] * (n + 1)
    co[0] = 1
    j = 1
    while True:
        g1 = step * j * (3 * j - 1) // 2
        g2 = step * j * (3 * j + 1) // 2
        if g1 > n and g2 > n:
            break
        s = -1 if j % 2 else 1
        if g1 <= n:
            co[g1] += s
        if g2 <= n:
            co[g2] += s
        j += 1
    return co


def _jacobi_cube_coeffs(n: int, step: int) -> list:
    """Jacobi's identity prod_{m>=1} (1 - q**(step*m))**3 =
    sum_{k>=0} (-1)**k (2k+1) q**(step*k(k+1)/2), to order n."""
    co = [0] * (n + 1)
    k = 0
    while step * k * (k + 1) // 2 <= n:
        co[step * k * (k + 1) // 2] = -(2 * k + 1) if k % 2 else 2 * k + 1
        k += 1
    return co


def eta_quotient(spec: list, n: int) -> QSeries:
    """Exact expansion of prod eta(q**d)**r to q-order ``n``.

    ``spec`` is a list of (delta, r) pairs.  The eta prefactors combine to
    q**(sum delta*r/24); the sum must be divisible by 8 so the exponent lands
    on the 1/3 grid, and must be nonnegative so the expansion has no pole.
    Each factor prod (1 - q**(delta m))**r is applied as floor(|r|/3) cubes
    from Jacobi's sparse series and |r| mod 3 Euler products.
    """
    s = sum(delta * r for delta, r in spec)
    if s % 8:
        raise ValueError("sum of delta*r must be divisible by 8 (exponent off the 1/3 grid)")
    p8 = s // 8  # leading exponent in units of 1/3
    if p8 < 0:
        raise ValueError("negative leading exponent is outside the supported grid")
    poly = [1] + [0] * n
    for delta, r in spec:
        if delta < 1 or r == 0:
            raise ValueError("spec entries must be (positive delta, nonzero r)")
        cubes, ones = divmod(abs(r), 3)
        for factor, times in ((_jacobi_cube_coeffs(n, delta), cubes),
                              (_euler_coeffs(n, delta), ones)):
            for _ in range(times):
                if r > 0:
                    poly = kernels.conv_trunc(poly, factor, n)
                else:
                    poly = kernels.div_unit(poly, factor, n)
    # q**(p8/3) * poly on the 1/3 grid; reduced only when the prefactor is
    # integral, so an all-zero series with p8 % 3 != 0 keeps d = 3
    out = QSeries(3, ([0] * min(p8, 3 * n + 1) + _spread(poly, 3))[: 3 * n + 1])
    return out.reduce() if p8 % 3 == 0 else out


# -- divisor sums -------------------------------------------------------------


# the large divisors of ``_divisor_sieve`` go through at most this many
# values at a time, in one int64 buffer of 256 KiB that is raised to the
# k-th power, weighted and added in place, and freed before the next
_SIEVE_BLOCK = 1 << 15


def _divisor_sieve(n: int, k: int, table) -> np.ndarray:
    """out[m] = sum_{de = m} d^k table[d % 3][e % 3] for m = 0..n, as int64,
    with out[0] = 0.

    Every divisor sum of this module is one call with its own 3 x 3 table:
    sigma is k = 1 with every entry 1, the Lambert kinds' tables are in
    ``lambert_series``, and the coefficients of f are k = 2 with
    ``_F_TABLE``.  f = eta(t)^6 eta(9t)^3/eta(3t)^3 lies in M_3(Gamma_0(9),
    chi3) (Ono, *The Web of Modularity*, CBMS 102, 2004, Thm 1.64), whose
    cusp space is 0 (Cohen & Oesterle, LNM 627, 1977), so f is a combination
    of Eisenstein series.  With A(m) = sum_{d | m} chi3(d) d^2 and
    B(m) = sum_{d | m} chi3(m/d) d^2, and A(m/3) = B(m/3) = 0 for 3 not
    dividing m, 2 a_m = 3A(m) - 3A(m/3) - B(m) + 27B(m/3), which is
    a_m = sum_{de = m} d^2 ((3/2) chi3(d) chi0(e) + (1/2) chi3(e) (3[3 | d] - 1))
    with chi0 the principal character mod 3: the entries of ``_F_TABLE``.
    The Sturm bound of M_3(Gamma_0(9), chi3) is 3 * 12/12 = 3, so agreement
    of the two sides to q^3 proves the identity (Sturm, LNM 1240, 1987;
    Stein, *Modular Forms: A Computational Approach*, GSM 79, 2007, ch. 9).

    Since n < (r + 1)^2 with r = isqrt(n), one of d and e is at most r for
    every m <= n.  So for each d <= r and each residue e mod 3, one slice of
    step 3d adds the constant d^k table[d % 3][e % 3] at the multiples d e,
    d (e + 3), ... of the small divisor d, and slices of the same step add
    table[(r + e) % 3][d % 3] times the k-th powers of the large divisors
    r + e, r + e + 3, ... <= n/d at their multiples by d.  The large
    divisors go in blocks of at most ``_SIEVE_BLOCK``: each block is one
    int64 buffer, raised to the k-th power and weighted in place, so no
    temporary grows with n/d.  The power is taken for k = 0 too, where it
    turns the buffer into ones.

    int64 holds every partial sum: |out[m]| <= max|table| sigma_k(m), and
    sigma_2(m) < zeta(2) m^2, so the sums are exact for n < 1.6 * 10^9 for
    f (max 2) and for n < 4 * 10^8 for 'c_cubed' (max 27).
    """
    out = np.zeros(n + 1, dtype=np.int64)
    r = math.isqrt(n)
    step = 3 * _SIEVE_BLOCK
    for d in range(1, r + 1):
        for e in (1, 2, 3):
            w = table[d % 3][e % 3]
            if w:
                out[d * e::3 * d] += w * d ** k
            w = table[(r + e) % 3][d % 3]
            if w:
                end = n // d + 1
                for lo in range(r + e, end, step):
                    big = np.arange(lo, min(lo + step, end), 3, dtype=np.int64)
                    np.power(big, k, out=big)
                    big *= w
                    out[d * lo:d * (lo + step):3 * d] += big
                    del big  # before the next block's buffer exists
    return out


# -- Lambert-type double sums ------------------------------------------------


def lambert_series(kind: str, n: int) -> QSeries:
    """Exact truncated Lambert-type double sums to q-order ``n``.

    kinds: 'c' (d=3), 'bc3' (d=1), 'c_cubed' (d=1), 'E0' (d=3, rational).
    Each reads its inner divisor sums off one ``_divisor_sieve`` call:
    'c' = 3 sum_{r, s >= 1} chi3(r) (q^(rs/3) - q^(rs)) has
    3 sum_{de = m} chi3(d) chi0(e) at q^(m/3), chi0 the principal character
    mod 3; 'bc3' = 3 sum_{k, s >= 1} chi3(ks) k q^(ks) has 3 chi3(m) sigma(m)
    at q^m; 'c_cubed' = 27 sum_{k, s >= 1} chi3(k) s^2 q^(ks) has
    27 sum_{de = m} chi3(e) d^2 at q^m; and
    E0 = sum_{k, r >= 1} (chi3(kr)/k) (q^(kr/3) - q^(kr)) has
    chi3(m) sigma(m)/m as its inner sum at m = kr: one Fraction per nonzero
    coefficient, and -chi3(k) sigma(k)/k at m = 3k.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if kind == "c":
        return QSeries(3, _divisor_sieve(3 * n, 0, ((0, 0, 0), (0, 3, 3), (0, -3, -3))).tolist())
    if kind == "bc3":
        return QSeries(1, _divisor_sieve(n, 1, ((0, 0, 0), (0, 3, -3), (0, -3, 3))).tolist())
    if kind == "c_cubed":
        return QSeries(1, _divisor_sieve(n, 2, ((0, 27, -27),) * 3).tolist())
    if kind == "E0":
        ng = 3 * n
        sig = _divisor_sieve(ng, 1, ((1, 1, 1),) * 3).tolist()
        co = [Fraction(0)] * (ng + 1)
        for m in range(1, ng + 1):
            if m % 3:
                co[m] = Fraction(chi3(m) * sig[m], m)
                if 3 * m <= ng:
                    co[3 * m] = -co[m]
        return QSeries(3, co)
    raise ValueError(f"unknown lambert kind {kind!r}")


# -- the weight-3 theta product ----------------------------------------------

# a_m(f) = sum_{de = m} d^2 _F_TABLE[d % 3][e % 3] (``_divisor_sieve``)
_F_TABLE = ((0, 1, -1), (0, 1, 2), (0, -2, -1))


def _f_coeffs_product(n: int) -> list:
    """a_n of (1/3) b(q)^2 c(q^3) by exact truncated products; the built-in
    check of ``_f_coeffs`` and the tests' reference."""
    b = theta_series("b", n)
    c3 = theta_series("c", n).substitute_power(3)  # lands on the integer grid
    f3 = b * b * c3
    return f3.exact_div(3).coeffs


def _f_coeffs(n: int) -> np.ndarray:
    """a_m, m <= n, as int64: the divisor sums of ``_divisor_sieve`` with
    ``_F_TABLE``, whose first 64 must equal ``_f_coeffs_product``'s."""
    out = _divisor_sieve(n, 2, _F_TABLE)
    check = _f_coeffs_product(min(n, 64))
    if out[: len(check)].tolist() != check:
        raise AssertionError("divisor-sum coefficients disagree with the exact product")
    return out


def f_coefficients(n: int) -> QSeries:
    """Integer coefficients a_m, m <= n, of the weight-3 product (1/3) b^2 c(q^3),
    from the divisor sums of ``_f_coeffs``; the int64 array becomes Python
    ints here."""
    if n < 1:
        raise ValueError("order must be at least 1")
    return QSeries(1, _f_coeffs(n).tolist())


# -- dump format --------------------------------------------------------------


def dump_lines(series: QSeries):
    """Yield the dump lines 'e/d<TAB>num/den' for nonzero terms, ascending e."""
    for e, c in enumerate(series.coeffs):
        if c == 0:
            continue
        fr = Fraction(c)
        yield f"{e}/{series.d}\t{fr.numerator}/{fr.denominator}"
