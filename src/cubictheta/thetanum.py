"""Extended-precision evaluation of the cubic theta values a, b, c on the
real segment q in (0, 1).

Direct lattice sums converge fast only for small q, so evaluation is split at
the fixed point u = 1/sqrt(3) of u <-> 1/(3u) (q = exp(-2*pi*u)): where
3u^2 >= 1 the defining series are summed at q with a certified geometric tail
bound, below it one of the transformations

    a(exp(-2*pi*u)) = a(exp(-2*pi/(3*u))) / (sqrt(3)*u)
    b(exp(-2*pi*u)) = c(exp(-2*pi/(3*u))) / (sqrt(3)*u)
    c(exp(-2*pi*u)) = b(exp(-2*pi/(3*u))) / (sqrt(3)*u)

(J. M. Borwein and P. B. Borwein, "A cubic counterpart of Jacobi's identity
and the AGM", Trans. AMS 323 (1991)) maps the argument back into the fast
region.  a is summed from its own series, never built from b and c, so the
cubic identity a^3 = b^3 + c^3 compares two constructions.  One private
evaluator, ``_theta``, takes this split for every public function here; the
hauptmodul alpha = c^3/(b^3 + c^3) and its complement b^3/(b^3 + c^3) come
from one helper, ``_alpha``.  Each truncated series (theta values, E0 and the
exact truncations that ``qexp_consistency`` compares with) is summed by the
fixed-point Horner loop of ``kernels`` (``_series_sum``), to the first rung M
of 4, 6, 8, ... whose tail bound ``_tail_bound`` is at most the tol.  The
rungs are decided on float logs read off each mpf's mantissa and binary
exponent, with no mpmath function called; only a rung whose float log ratio
falls inside a tie window, wider than the float and mpf rounding together,
is decided by the mpf bound itself (``_terms_needed``), so M is the one the
mpf bound alone would give.  The factor q^(1/3) of c is one ``mp.cbrt``,
correctly rounded at any exponent of q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf, mpmathify

from . import _accel, kernels, qexp

__all__ = [
    "Precision",
    "ThetaPoint",
    "eval_theta",
    "alpha_pair",
    "theta_point",
    "f_integrand",
    "residual_hauptmodul",
    "differential_residual",
]


@dataclass(frozen=True)
class Precision:
    """Working precision contract: ``working_digits`` decimal digits carried,
    ``target_tol`` the absolute error the caller wants certified."""

    working_digits: int
    target_tol: float

    def __post_init__(self):
        if not 0 < self.target_tol < math.inf:
            raise ValueError(f"target_tol must be positive and finite, got {self.target_tol}")
        if self.working_digits < 15:
            raise ValueError("working_digits must be at least 15")
        need = -math.log10(float(self.target_tol)) + 10
        if self.working_digits < need:
            raise ValueError(
                f"working_digits={self.working_digits} leaves fewer than 10 guard "
                f"digits for target_tol={self.target_tol}"
            )

    @property
    def dps(self) -> int:
        return self.working_digits

    def tol(self) -> mpf:
        return mpf(self.target_tol)


@dataclass(frozen=True)
class ThetaPoint:
    """One point q = exp(-2*pi*u) with its theta values and hauptmodul."""

    q: mpf
    u: mpf
    a: mpf
    b: mpf
    c: mpf
    alpha: mpf


# -- coefficient tables (exact integers, grown on demand) -------------------

_TABLES: dict = {"a": [], "b": [], "c": []}


def _table(kind: str, m: int) -> list:
    """At least m + 1 coefficients of a or b in q, or of c / q^(1/3) in q."""
    tab = _TABLES[kind]
    if len(tab) <= m:
        grow = max(2 * m + 16, 128)
        tab = qexp.theta_series(kind, grow).coeffs
        if kind == "c":
            tab = tab[1::3]
        _TABLES[kind] = tab
    return tab


def _tail_bound(z: mpf, M: int, c: int) -> mpf:
    """c (M+3) z^(M+1)/(1-z)^2, 0 < z < 1: a bound on the tail sum_{e > M}
    |s_e| z^e of any series with |s_e| <= c (e + 1), since sum_{e > M} (e+1) z^e
    = z^(M+1) ((M+2)(1-z) + z)/(1-z)^2.  The theta tables take c = 12, E0's
    grid coefficients c = 4."""
    return c * (M + 3) * z ** (M + 1) / (1 - z) ** 2


_LN2 = math.log(2)


def _ln(x: mpf) -> tuple:
    """(ln x, s) for an mpf x > 0, read off its mantissa and binary exponent
    with no mpmath function: the top 53 bits m of the mantissa, ln m + e ln 2
    in floats (e the exponent of m), within 4 eps s of ln x, s = |ln m|
    + |e| ln 2, eps = 2^-53.  Where |e| > 2^1000, e ln 2 is past a double's
    range and the pair is (0, inf): a rung's tie window then has no end."""
    _, man, exp, bc = x._mpf_
    shift = max(bc - 53, 0)
    e = exp + shift
    if abs(e) > 2 ** 1000:
        return 0.0, math.inf
    lm, le = math.log(man >> shift), e * _LN2
    return lm + le, abs(lm) + abs(le)


def _terms_needed(z: mpf, tol: mpf, c: int) -> int:
    """First M of 4, 6, 8, ..., stepped by an eighth, with _tail_bound <= tol.

    Each rung is decided on d = ln c + ln(M+3) + (M+1) ln z - 2 ln(1-z)
    - ln tol in floats, the logs from ``_ln`` (1 - z rounded at the working
    precision p, as ``_tail_bound`` rounds it).  With S = ln c + ln(M+3)
    + (M+1) s_z + 2 s_(1-z) + s_tol, the float d is within 10 eps S of the
    exact log ratio: 4 eps s per log, scaled by M+1 for ln z, and eps S per
    product and sum.  The mpf ``_tail_bound`` is within 8 ulps, 2^(4-p), of
    the exact bound relatively; every caller works at 25 digits or more
    (``Precision``'s 15 and 10 guard digits), so p > 80.  Outside the tie
    window

        |d| <= W = 2^-40 S,

    which exceeds 10 eps S + 2^(4-p) since S >= ln 4 + ln 7 > 3, the sign
    of d is the sign of ln(mpf bound / tol), and the rung is decided in floats;
    inside it, the mpf ``_tail_bound`` decides, so M is the one the mpf
    scan would return.  S grows with |(M+1) ln z|, and so does W: a dual
    argument at a tiny u has a binary exponent near -10^61, and its d is
    then decided far outside the window.  An exponent past 2^1000 (z at u
    below about 1e-308) makes S infinite, and every rung goes to the mpf
    bound.
    """
    (lz, sz), (lw, sw), (lt, st) = _ln(z), _ln(1 - z), _ln(tol)
    lc = math.log(c)
    m = 4
    while True:
        lm = math.log(m + 3)
        d = lc + lm + (m + 1) * lz - 2 * lw - lt
        window = (lc + lm + (m + 1) * sz + 2 * sw + st) * 2.0 ** -40
        if d < -window or (d <= window and not _tail_bound(z, m, c) > tol):
            return m
        m += max(m // 8, 2)
        if m > 2_000_000:
            raise ArithmeticError("tolerance unattainable: truncated q-series too long")


def _series_sum(coeffs, M: int, z: mpf) -> mpf:
    """sum_{e <= M} coeffs[e] z^e, int or Fraction coefficients floored to
    2^-wp, by the fixed-point Horner loop ``kernels.horner``.

    By that loop's bound the sum is within 2 (M + 1) + c/(1 - z)^3 ulps of
    2^-wp for coefficients at most c (e + 1) in size.  The theta series
    (c = 12) are summed only at z <= exp(-2 pi/sqrt(3)) ~ 0.027, E0 (c = 4)
    and the ``qexp_consistency`` truncations (c = 12) at z <= 0.2^(1/3) ~
    0.585, so c/(1 - z)^3 < 2^8, and wp = prec + bitlen(M + 1) + 10 puts the
    sum within 2^-(prec+1) of exact.
    """
    wp = mp.prec + (M + 1).bit_length() + 10
    C = [(c.numerator << wp) // c.denominator for c in coeffs[:M + 1]]
    return mp.ldexp(mpf(kernels.horner(C, M, kernels.to_fixed(z, wp), wp)), -wp)


def _theta_direct(kind: str, q: mpf, tol: mpf) -> mpf:
    """Defining series summed directly with a certified tail cutoff.

    c's factor q^(1/3) is ``mp.cbrt(q)``, an integer root correctly rounded
    at every exponent of q.  A power q ** (1/3), exp(ln q / 3), loses the
    digits of ln q's size: at 55 digits it is 1.2e-27 off relatively at
    q = 3 2^(-10^30), and has no correct digit at q = 3 2^(-10^61), where a
    dual argument at a tiny u lies.
    """
    m = _terms_needed(q, tol, 12)
    acc = _series_sum(_table(kind, m), m, q)
    return acc * mp.cbrt(q) if kind == "c" else acc


_DUAL = {"a": "a", "b": "c", "c": "b"}


def _theta_dual(kind: str, u: mpf, tol: mpf) -> mpf:
    """Theta value at q = exp(-2*pi*u) through the involution: its dual's
    series at exp(-2*pi/(3u)), divided by sqrt(3)*u."""
    scale = mp.sqrt(3) * u
    return _theta_direct(_DUAL[kind], mp.exp(-2 * mp.pi / (3 * u)), tol * scale) / scale


def _theta(kinds: str, q: mpf, u: mpf, tol: mpf) -> list:
    """The values of ``kinds`` (letters of "abc") at q = exp(-2*pi*u), each
    within tol: each kind's own series at the q given where 3u^2 >= 1, else
    ``_theta_dual``.  Every theta value in this module comes from here."""
    if 3 * u * u >= 1:
        return [_theta_direct(kind, q, tol) for kind in kinds]
    return [_theta_dual(kind, u, tol) for kind in kinds]


def _alpha(b: mpf, c: mpf):
    """(alpha, 1 - alpha) = (c^3, b^3)/(b^3 + c^3): the hauptmodul and its
    complement, with a^3 taken as b^3 + c^3, so that neither is a difference."""
    b3, c3 = b ** 3, c ** 3
    return c3 / (b3 + c3), b3 / (b3 + c3)


def _q_u(q):
    """q as an mpf in (0, 1), and u with q = exp(-2*pi*u)."""
    qq = mpmathify(q)
    if not (0 < qq < 1):
        raise ValueError(f"q must lie in (0, 1), got {q}")
    return qq, -mp.log(qq) / (2 * mp.pi)


def eval_theta(kind: str, q, prec: Precision) -> mpf:
    """Evaluate a(q), b(q) or c(q) with absolute error <= target_tol."""
    if kind not in _DUAL:
        raise ValueError(f"unknown theta kind {kind!r}")
    with mp.workdps(prec.dps + 10):
        return _theta(kind, *_q_u(q), prec.tol() / 4)[0]


def alpha_pair(q, prec: Precision):
    """(alpha, 1 - alpha) at q from b and c within target_tol/16 (``_alpha``),
    each computed without cancellation."""
    with mp.workdps(prec.dps + 10):
        return _alpha(*_theta("bc", *_q_u(q), prec.tol() / 16))


def theta_point(q, prec: Precision) -> ThetaPoint:
    """Evaluate a, b and c at q, each from its own series within target_tol/16,
    and alpha from b and c as ``alpha_pair`` takes it; ``cli.cubic_numeric_report``
    checks the cubic identity among them."""
    with mp.workdps(prec.dps + 10):
        qq, u = _q_u(q)
        a, b, c = _theta("abc", qq, u, prec.tol() / 16)
        if not (a > 0 and b > 0 and c > 0):
            raise ArithmeticError("theta values left the positive real segment")
        return ThetaPoint(q=qq, u=u, a=a, b=b, c=c, alpha=_alpha(b, c)[0])


def f_integrand(u, prec: Precision) -> mpf:
    """b(q)^2 c(q^3) at q = exp(-2*pi*u), each factor from ``_theta``."""
    with mp.workdps(prec.dps + 10):
        uu = mpmathify(u)
        if not uu > 0:
            raise ValueError(f"u must be positive, got {u}")
        tol = prec.tol() / 16
        b = _theta("b", mp.exp(-2 * mp.pi * uu), uu, tol)[0]
        return b ** 2 * _theta("c", mp.exp(-6 * mp.pi * uu), 3 * uu, tol)[0]


def _hauptmodul_sides(q, prec: Precision):
    """(a(q), 2F1(1/3, 2/3; 1; alpha(q))), a, b and c read from one point
    within target_tol/16: a summed from its own series, alpha and 1 - alpha
    from b and c (``_alpha``).  The complement is fed to the hypergeometric
    side explicitly, so the comparison stays meaningful arbitrarily close to
    alpha = 1."""
    from fractions import Fraction

    from . import hyper

    with mp.workdps(prec.dps + 10):
        qq, u = _q_u(q)
        a, b, c = _theta("abc", qq, u, prec.tol() / 16)
        alpha, comp = _alpha(b, c)
        if alpha <= 0 or comp <= 0:
            raise ArithmeticError("hauptmodul left (0, 1) at working precision")
        return a, hyper.gauss_2f1_unit_interval(Fraction(1, 3), Fraction(2, 3), 1, alpha, comp)


def residual_hauptmodul(q, prec: Precision) -> mpf:
    """a(q) minus 2F1(1/3, 2/3; 1; alpha(q)), the two sides of
    ``_hauptmodul_sides``, taken at target digits + 10."""
    return mp.fsub(*_hauptmodul_sides(q, prec), dps=prec.dps + 10)


# the first step of the finite-difference ladder, the depth it always takes,
# and the depth at which it stops whether or not its heads have settled
_LADDER_H0 = 1e-2
_LADDER_MIN = 4
_LADDER_MAX = 24


def differential_residual(q, prec: Precision):
    """Central-difference check of d(alpha)/dq against a(q)^2 alpha(1-alpha)/q,
    alpha and 1 - alpha on both sides from ``_alpha``.

    Returns (fd_errors, extrapolated_residual): fd_errors[i] is the
    finite-difference defect at step h0/2^i (their ratios should approach 4),
    and the extrapolated residual is that of the Richardson limit in h^2 of
    the ladder (``_accel.richardson``).  The ladder takes at least
    ``_LADDER_MIN`` steps and is extended until two successive limits agree
    within target_tol/8; at ``_LADDER_MAX`` steps it stops unsettled, and the
    residual shows how far off it is.
    """
    with mp.workdps(prec.dps + 10):
        qq, u = _q_u(q)
        a, b, c = _theta("abc", qq, u, prec.tol() / 16)
        alpha, comp = _alpha(b, c)
        rhs = a ** 2 * alpha * comp / qq
        settle = prec.tol() / 8
        xs, fds, heads = [], [], []
        for i in range(_LADDER_MAX):
            h = mpf(_LADDER_H0) / 2 ** i
            xs.append(h * h)
            fds.append((alpha_pair(qq + h, prec)[0] - alpha_pair(qq - h, prec)[0]) / (2 * h))
            heads.append(_accel.richardson(xs, fds))
            if len(heads) >= _LADDER_MIN and abs(heads[-1] - heads[-2]) <= settle:
                break
        errors = [abs(d - rhs) for d in fds]
        return errors, abs(heads[-1] - rhs)
