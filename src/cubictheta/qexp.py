"""Exact truncated q-series arithmetic and the classical series constructions.

Everything here is exact: coefficients are Python ints or Fractions, and an
identity "holds to order N" means every tracked coefficient of the difference
vanishes.  Series live on an exponent grid e/d with d in {1, 3}; the d = 3
grid carries the cube-root exponents of the shifted theta series c(q) and of
the weighted Lambert sum E0.  One lattice enumerator counts a, b and c: the
hexagonal lattice and its (1/3, 1/3) shift, and one slice placement,
``_spread``, moves coefficients between grids.

The coefficients of the weight-3 product f are built on int64 numpy arrays
(the divisor sieve, b from the Lambert series of a, and the FFT product, split
by exponent mod 3 since b vanishes at 2 and chi3 * sigma at 0 mod 3, with
sigma cut into as few limbs as Percival's rounding bound on the measured
norms allows: one at N = 10^6); they become Python ints only at the
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


# -- Lambert-type double sums ------------------------------------------------


def lambert_series(kind: str, n: int) -> QSeries:
    """Exact truncated Lambert-type double sums to q-order ``n``.

    kinds: 'c' (d=3), 'bc3' (d=1), 'c_cubed' (d=1), 'E0' (d=3, rational).
    All but 'c_cubed' read their inner divisor sums off the sieve
    ``_divisor_sums`` instead of summing term by term:
    'c' = 3 sum_{r, s >= 1} chi3(r) (q^(rs/3) - q^(rs)) has 3E(e) - 3E(e/3)[3 | e]
    at q^(e/3); 'bc3' = 3 sum_{k, s >= 1} chi3(ks) k q^(ks) has 3 chi3(m) sigma(m)
    at q^m; and E0 = sum_{k, r >= 1} (chi3(kr)/k) (q^(kr/3) - q^(kr)) has
    chi3(m) sigma(m)/m as its inner sum at m = kr: one Fraction per nonzero
    coefficient, and -chi3(k) sigma(k)/k at m = 3k.  'c_cubed' = 27 sum_{k, s >= 1}
    chi3(k) s^2 q^(ks) is a slice sieve split at isqrt(n) like ``_divisor_sums``
    (27 s^2 on [s::3s], -27 s^2 on [2s::3s]); int64 holds it exactly for
    n < 4 * 10^8, its entries being at most 27 sigma_2(m) < 27 zeta(2) m^2 < 2^63.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if kind == "c":
        ech = _divisor_sums(3 * n)[1]
        co = 3 * ech
        co[3::3] -= 3 * ech[1:n + 1]
        return QSeries(3, co.tolist())
    if kind == "bc3":
        co = 3 * _divisor_sums(n)[0]
        co[0::3] = 0
        co[2::3] *= -1
        return QSeries(1, co.tolist())
    if kind == "c_cubed":
        co = np.zeros(n + 1, dtype=np.int64)
        r = math.isqrt(n)
        for d in range(1, r + 1):
            co[d::3 * d] += 27 * d * d
            co[2 * d::3 * d] -= 27 * d * d
            if d % 3:
                s = np.arange(r + 1, n // d + 1)
                co[d * (r + 1)::d] += 27 * chi3(d) * s * s
        return QSeries(1, co.tolist())
    if kind == "E0":
        ng = 3 * n
        sig = _divisor_sums(ng)[0].tolist()
        co = [Fraction(0)] * (ng + 1)
        for m in range(1, ng + 1):
            if m % 3:
                co[m] = Fraction(chi3(m) * sig[m], m)
                if 3 * m <= ng:
                    co[3 * m] = -co[m]
        return QSeries(3, co)
    raise ValueError(f"unknown lambert kind {kind!r}")


# -- the weight-3 theta product ----------------------------------------------

def _f_coeffs_product(n: int) -> list:
    """a_n of (1/3) b(q)^2 c(q^3) by exact truncated products; the built-in
    check of ``_f_coeffs_fft`` and the tests' reference."""
    b = theta_series("b", n)
    c3 = theta_series("c", n).substitute_power(3)  # lands on the integer grid
    f3 = b * b * c3
    return f3.exact_div(3).coeffs


def _divisor_sums(n: int) -> tuple[np.ndarray, np.ndarray]:
    """sigma(m) and E(m) = sum_{d | m} chi3(d) for m = 0..n, as two int64
    arrays with sigma(0) = E(0) = 0.

    Each divisor d <= r = isqrt(n) is added as one slice [d::d].  Since
    n < (r + 1)**2, every larger divisor e of m has its cofactor d = m // e
    <= r, so the same pass adds e = r+1 .. n // d at the indices d*e: one
    slice [d(r+1)::d] for sigma, and for E, since chi3 has period 3, one
    slice of step 3d for each of the residues e = 1 and e = 2 mod 3.
    """
    sig = np.zeros(n + 1, dtype=np.int64)
    ech = np.zeros(n + 1, dtype=np.int64)
    r = math.isqrt(n)
    for d in range(1, r + 1):
        sig[d::d] += d
        if d % 3:
            ech[d::d] += chi3(d)
        sig[d * (r + 1)::d] += np.arange(r + 1, n // d + 1)
        for e in range(r + 1, r + 4):
            if e % 3:
                ech[d * e::3 * d] += chi3(e)
    return sig, ech


def _b_from_e(ech: np.ndarray) -> np.ndarray:
    """Coefficients of b(q) = (3 a(q^3) - a(q)) / 2 from E(m) = sum_{d | m} chi3(d),
    with a(q) = 1 + 6 sum E(m) q^m: b_0 = 1 and b_m = 9 E(m/3) [3 | m] - 3 E(m)."""
    b = ech * -3
    b[0] = 1
    b[3::3] += 9 * ech[1:(len(ech) - 1) // 3 + 1]
    return b


_U = 2.0 ** -53  # unit roundoff of float64
# error of numpy's (pocketfft's) twiddles: each is one complex product of two
# table entries, each cos and sin of a rounded angle below pi/4 (angle error
# at most (pi/2)u, libm error at most one ulp, so each entry errs by at most
# sqrt(2)(pi/2 + 1)u < 3.7u), so at most 2 * 3.7u + sqrt(5)u < 10u
_TWIDDLE_ERR = 10 * _U
# a_(3k+r), r = 1, 2, 3, sums the products of (B0, B1)[i] and (Y1, Y2)[j]
# with i + j = r - 1
_RESIDUE_PAIRS = ((1, ((0, 0),)), (2, ((1, 0), (0, 1))), (3, ((1, 1),)))


def _l2_norm(x: np.ndarray) -> float:
    """An upper bound on the l2 norm of x, from float64 arithmetic.

    The conversion, the squares, the m - 1 sums of the dot product and the
    square root each err by at most u relatively (Higham, *Accuracy and
    Stability of Numerical Algorithms*, Sec. 3.1), which the factor
    1 + (m + 8)u covers with room for the few roundings of the bound that
    the norm enters.  The squares are not summed in int64: the sum of
    sigma(k)^2 over k <= N passes 2^63 just above N = 2 * 10^6.
    """
    xf = np.asarray(x, dtype=np.float64)
    return math.sqrt(float(np.dot(xf, xf))) * (1 + (len(xf) + 8) * _U)


def _rounding_bound(size: int, b_norms, y_norms) -> float:
    """Percival's bound on the error of every rounded value of the three
    residue products of ``_f_coeffs_fft`` at cyclic length ``size``.

    When the cyclic product x * y of two vectors of length 2^n is computed as
    the inverse FFT of the product of their FFTs, every computed value is
    within C ||x|| ||y|| of the exact one, with C = (1 + u)^(3n)
    (1 + sqrt(5) u)^(3n + 1) (1 + mu)^(3n) - 1, u = 2^-53 and mu the error of
    the twiddles (Percival, Math. Comp. 72 (2003) 387-395, Thm 5.1; Brent &
    Zimmermann, *Modern Computer Arithmetic*, Thm 3.3.2).  Each of the n
    radix-2 levels of each of the three transforms costs one addition, one
    twiddle product and one twiddle error; the pointwise product is one more
    product.  numpy runs pocketfft's real-data passes, which do the same
    additions and twiddle products on the packed real and imaginary parts;
    at length L = 2^i or 3 * 2^i they are radix-4 passes, each two levels
    with one twiddle product, at most one radix-2 pass, and at most one
    radix-3 pass, which has at most three rounds of additions, one twiddle
    product and one product by a rounded constant, within the budget of two
    levels.  So n = ceil(log2 L) covers L, and three more additions cover
    the sum of two spectra (residue 2) and the rounded 1/L of the inverse.
    A residue part that sums several products is bounded by C times the sum
    of ||B_i|| ||Y_j||.
    """
    n = (size - 1).bit_length()
    c = math.expm1((3 * n + 3) * math.log1p(_U) + (3 * n + 1) * math.log1p(math.sqrt(5) * _U)
                   + 3 * n * math.log1p(_TWIDDLE_ERR))
    return c * max(sum(b_norms[i] * y_norms[j] for i, j in pairs) for _, pairs in _RESIDUE_PAIRS)


def _sigma_limbs(size: int, b_norms, ys) -> list:
    """Split Y1, Y2 (sigma >= 0) into the fewest limbs of one width whose
    products with B0, B1 at length ``size`` have a rounding bound below 1/2.

    Returns [(shift, (Y1 limb, Y2 limb))] with float64 limbs, and raises if
    no limb count up to one bit per limb brings the bound below 1/2.
    """
    bits = max(int(y.max(initial=0)) for y in ys).bit_length() or 1
    for count in range(1, bits + 1):
        width = -(-bits // count)
        mask = (1 << width) - 1
        limbs = [(shift, [((y >> shift) & mask).astype(np.float64) for y in ys])
                 for shift in range(0, bits, width)]
        bound = max(_rounding_bound(size, b_norms, [_l2_norm(x) for x in pair])
                    for _, pair in limbs)
        if bound < 0.5:
            return limbs
    raise AssertionError(f"FFT rounding bound {bound:.3g} is not below 1/2 at any sigma limb count")


def _f_coeffs_fft(n: int) -> np.ndarray:
    """a_m, m <= n, as int64, via the weight-2 Lambert factorization
    b * (chi3 * sigma), on the mod-3 polyphase grid.

    b comes from the Lambert series of a: with E from ``_divisor_sums``,
    a(q) = 1 + 6 sum E(m) q^m and b(q) = (3 a(q^3) - a(q)) / 2 (Borwein,
    Borwein & Garvan, "Some cubic modular identities of Ramanujan",
    Trans. AMS 343 (1994)), so no lattice point is counted.  There
    b = sum omega^(x-y) q^(x^2+xy+y^2) has no term at k = 2 mod 3, as
    x^2 + xy + y^2 = (x - y)^2 + 3xy is a square mod 3; chi3 * sigma has none
    at 3 | k.  So with b = B0(q^3) + q B1(q^3) and chi3 * sigma =
    q Y1(q^3) - q^2 Y2(q^3) (Y1, Y2 sigma on the residues 1, 2), a_(3k) =
    -(B1 Y2)_(k-1), a_(3k+1) = (B0 Y1)_k and a_(3k+2) = (B1 Y1 - B0 Y2)_k:
    products of m = n // 3 + 1 terms, as real FFTs of the least length 2^j or
    3 * 2^j >= 2m + 1 against the spectra of B0 and B1.

    Y1 and Y2 are cut into the fewest limbs of one width for which
    ``_rounding_bound``, Percival's a-priori bound C(L) * sum ||B_i|| ||Y_j||
    evaluated on the measured l2 norms (``_l2_norm``), is below 1/2 on every
    residue part and every limb (``_sigma_limbs``), so rounding each value
    to the nearest integer is exact: at N = 10^6, L = 3 * 2^18 and
    C(L) ~ 800u, and the bound is 0.43 with one limb, so the product takes
    4 forward and 3 inverse transforms.  The other exactness guards: b
    vanishes at k = 2 mod 3 (sigma at 3 | k is not read); every rounded
    value is within 0.05 of an integer; and the first 64 coefficients equal
    ``_f_coeffs_product``'s.
    """
    sig, ech = _divisor_sums(n)
    b = _b_from_e(ech)
    del ech
    if b[2::3].any():
        raise AssertionError("theta-b has a coefficient at an exponent 2 mod 3")
    m = n // 3 + 1
    j = (2 * m).bit_length()  # 2^j is the least power of two >= 2m + 1
    size = 3 << (j - 2) if 3 << (j - 2) > 2 * m else 1 << j
    bs = [b[r::3].astype(np.float64) for r in (0, 1)]
    del b
    limbs = _sigma_limbs(size, [_l2_norm(x) for x in bs], (sig[1::3], sig[2::3]))
    del sig
    fb = [np.fft.rfft(x, size) for x in bs]
    del bs
    out = np.zeros(n + 1, dtype=np.int64)
    for shift, ys in limbs:
        fy = [np.fft.rfft(y, size) for y in ys]
        np.negative(fy[1], out=fy[1])  # q^2 Y2 enters with chi3(2) = -1
        for r, pairs in _RESIDUE_PAIRS:
            part = out[r::3]
            conv = np.fft.irfft(sum(fb[i] * fy[j] for i, j in pairs), size)[: len(part)]
            rounded = np.rint(conv)
            conv -= rounded
            drift = float(np.abs(conv, out=conv).max(initial=0))
            del conv
            if drift > 0.05:
                raise AssertionError(f"FFT convolution drift {drift:.3g} too large to round")
            part += rounded.astype(np.int64) << shift
            del rounded
    check = _f_coeffs_product(min(n, 64))
    if out[: len(check)].tolist() != check:
        raise AssertionError("fast coefficient path disagrees with the exact product")
    return out


def f_coefficients(n: int) -> QSeries:
    """Integer coefficients a_m, m <= n, of the weight-3 product (1/3) b^2 c(q^3),
    by the Lambert factorization of ``_f_coeffs_fft`` at every order; the
    int64 array becomes Python ints here."""
    if n < 1:
        raise ValueError("order must be at least 1")
    return QSeries(1, _f_coeffs_fft(n).tolist())


# -- dump format --------------------------------------------------------------


def dump_lines(series: QSeries):
    """Yield the dump lines 'e/d<TAB>num/den' for nonzero terms, ascending e."""
    for e, c in enumerate(series.coeffs):
        if c == 0:
            continue
        fr = Fraction(c)
        yield f"{e}/{series.d}\t{fr.numerator}/{fr.denominator}"
