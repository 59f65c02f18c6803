"""Extended-precision evaluation of the cubic theta values a, b, c on the
real segment q in (0, 1).

Direct lattice sums converge fast only for small q, so evaluation is split at
the fixed point u = 1/sqrt(3) of u <-> 1/(3u) (q = exp(-2*pi*u)): where
3u^2 >= 1 the defining series are summed with a certified geometric tail
bound, below it one of the transformations

    a(exp(-2*pi*u)) = a(exp(-2*pi/(3*u))) / (sqrt(3)*u)
    b(exp(-2*pi*u)) = c(exp(-2*pi/(3*u))) / (sqrt(3)*u)
    c(exp(-2*pi*u)) = b(exp(-2*pi/(3*u))) / (sqrt(3)*u)

(J. M. Borwein and P. B. Borwein, "A cubic counterpart of Jacobi's identity
and the AGM", Trans. AMS 323 (1991)) maps the argument back into the fast
region.  a is summed from its own series, never built from b and c, so the
cubic identity a^3 = b^3 + c^3 compares two constructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf, mpmathify

from . import _accel, qexp

__all__ = [
    "Precision",
    "ThetaPoint",
    "eval_theta",
    "alpha_of_q",
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

    working_digits: int = 40
    target_tol: float = 1e-10

    def __post_init__(self):
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


def _terms_needed(q: mpf, tol: mpf) -> int:
    """Smallest M whose geometric tail bound 12*(M+3)*q^(M+1)/(1-q)^2 <= tol."""
    lq = mp.log(q)
    guess = int(float((mp.log(tol) + 2 * mp.log(1 - q) - mp.log(60)) / lq)) + 1
    m = max(guess, 4)
    while 12 * (m + 3) * q ** (m + 1) / (1 - q) ** 2 > tol:
        m += max(m // 8, 2)
    if m > 2_000_000:
        raise ArithmeticError("tolerance unattainable: direct series too long")
    return m


def _theta_direct(kind: str, q: mpf, tol: mpf) -> mpf:
    """Defining series summed directly with a certified tail cutoff."""
    m = _terms_needed(q, tol)
    tab = _table(kind, m)
    acc = mpf(0)
    for e in range(m, -1, -1):
        acc = acc * q + tab[e]
    if kind == "c":
        return acc * q ** mpf("1/3")
    return acc


_DUAL = {"a": "a", "b": "c", "c": "b"}


def _theta_u(kind: str, u: mpf, tol: mpf) -> mpf:
    """Theta value at q = exp(-2*pi*u): the kind's own series where 3u^2 >= 1,
    else its dual's at exp(-2*pi/(3u)), divided by sqrt(3)*u."""
    if 3 * u * u >= 1:
        return _theta_direct(kind, mp.exp(-2 * mp.pi * u), tol)
    scale = mp.sqrt(3) * u
    return _theta_direct(_DUAL[kind], mp.exp(-2 * mp.pi / (3 * u)), tol * scale) / scale


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
        return _theta_u(kind, _q_u(q)[1], prec.tol() / 4)


def alpha_pair(q, prec: Precision):
    """(alpha, 1 - alpha) = (c^3, b^3)/a^3, each computed without cancellation.

    Here a^3 is taken as b^3 + c^3: that defines the hauptmodul and its
    complement as two quotients of positive sums, so neither is a difference.
    """
    with mp.workdps(prec.dps + 10):
        u = _q_u(q)[1]
        tol = prec.tol() / 16
        b3 = _theta_u("b", u, tol) ** 3
        c3 = _theta_u("c", u, tol) ** 3
        a3 = b3 + c3
        alpha = c3 / a3
        comp = b3 / a3
        return alpha, comp


def alpha_of_q(q, prec: Precision) -> mpf:
    """Hauptmodul alpha = c^3/a^3 in (0, 1)."""
    return alpha_pair(q, prec)[0]


def theta_point(q, prec: Precision) -> ThetaPoint:
    """Evaluate a, b and c at q, each from its own series, and check the cubic
    identity c^3/a^3 + b^3/a^3 = 1 to target_tol."""
    with mp.workdps(prec.dps + 10):
        qq, u = _q_u(q)
        tol = prec.tol() / 16
        a, b, c = (_theta_u(kind, u, tol) for kind in "abc")
        a3 = a ** 3
        alpha = c ** 3 / a3
        if not (a > 0 and b > 0 and c > 0):
            raise ArithmeticError("theta values left the positive real segment")
        if abs(alpha + b ** 3 / a3 - 1) > prec.tol():
            raise ArithmeticError("cubic identity residual exceeded tolerance")
        return ThetaPoint(q=qq, u=u, a=a, b=b, c=c, alpha=alpha)


def f_integrand(u, prec: Precision) -> mpf:
    """b(q)^2 c(q^3) at q = exp(-2*pi*u).

    For u below the split point the product is rewritten through the
    involution once: c(q')^2 b(q'') / (9*sqrt(3)*u^3) with q' = exp(-2*pi/(3u))
    and q'' = exp(-2*pi/(9u)).
    """
    with mp.workdps(prec.dps + 10):
        uu = mpmathify(u)
        if not uu > 0:
            raise ValueError(f"u must be positive, got {u}")
        tol = prec.tol() / 16
        if 3 * uu * uu >= 1:
            b = _theta_u("b", uu, tol)
            c = _theta_u("c", 3 * uu, tol)
            val = b * b * c
        else:
            scale = 9 * mp.sqrt(3) * uu ** 3
            cc = _theta_direct("c", mp.exp(-2 * mp.pi / (3 * uu)), tol * scale)
            bb = _theta_u("b", 1 / (9 * uu), tol * scale)
            val = cc * cc * bb / scale
        return val


def residual_hauptmodul(q, prec: Precision) -> mpf:
    """a(q), summed from its own series, minus the Gauss hypergeometric value
    2F1(1/3, 2/3; 1; alpha(q)) with alpha from ``alpha_pair``.

    The complement 1 - alpha is fed to the hypergeometric side explicitly, so
    the comparison stays meaningful arbitrarily close to alpha = 1.
    """
    from fractions import Fraction

    from . import hyper

    with mp.workdps(prec.dps + 10):
        qq, u = _q_u(q)
        a = _theta_u("a", u, prec.tol() / 16)
        alpha, comp = alpha_pair(qq, prec)
        if alpha <= 0 or comp <= 0:
            raise ArithmeticError("hauptmodul left (0, 1) at working precision")
        f = hyper.gauss_2f1_unit_interval(
            Fraction(1, 3), Fraction(2, 3), Fraction(1), alpha, comp, prec.dps
        )
        return a - f


# the first step of the finite-difference ladder, the depth it always takes,
# and the depth at which it stops whether or not its heads have settled
_LADDER_H0 = 1e-2
_LADDER_MIN = 4
_LADDER_MAX = 24


def differential_residual(q, prec: Precision):
    """Central-difference check of d(alpha)/dq against a(q)^2 alpha(1-alpha)/q.

    Returns (fd_errors, extrapolated_residual): fd_errors[i] is the
    finite-difference defect at step h0/2^i (their ratios should approach 4),
    and the extrapolated residual is that of the Richardson limit in h^2 of
    the ladder (``_accel.richardson``).  The ladder takes at least
    ``_LADDER_MIN`` steps and is extended until two successive limits agree
    within target_tol/8; at ``_LADDER_MAX`` steps it stops unsettled, and the
    residual shows how far off it is.
    """
    with mp.workdps(prec.dps + 10):
        qq = _q_u(q)[0]
        pt = theta_point(qq, prec)
        rhs = pt.a ** 2 * pt.alpha * (1 - pt.alpha) / qq
        settle = prec.tol() / 8
        xs, fds, heads = [], [], []
        for i in range(_LADDER_MAX):
            h = mpf(_LADDER_H0) / 2 ** i
            xs.append(h * h)
            fds.append((alpha_of_q(qq + h, prec) - alpha_of_q(qq - h, prec)) / (2 * h))
            heads.append(_accel.richardson(xs, fds))
            if len(heads) >= _LADDER_MIN and abs(heads[-1] - heads[-2]) <= settle:
                break
        errors = [abs(d - rhs) for d in fds]
        return errors, abs(heads[-1] - rhs)
