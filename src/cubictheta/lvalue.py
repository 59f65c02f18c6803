"""L-values of the weight-3 theta product and the catalog of intermediate
identity checks.

The rigorous evaluator is the Mellin integral over u with q = exp(-2*pi*u):

    L(f, n) = (2*pi)^n / (3*(n-1)!) * int_0^inf b^2(e^{-2pi u}) c(e^{-6pi u}) u^{n-1} du,

split at the involution fixed point and fed to tanh-sinh quadrature.  The
Dirichlet partial sum is the heuristic second route at s = 3; the right-hand
sides of the three hypergeometric L-value formulas are assembled from
Kampe de Feriet values at (1, 1) by either the accelerated double series or
the integral representation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, mpmathify

from . import hyper, qexp, thetanum
from .hyper import KdFParams, PFQParams, SeriesResult, quad_de
from .reports import IdentityReport
from .thetanum import Precision

__all__ = [
    "LValueRequest",
    "IdentityReport",
    "l_mellin",
    "l_dirichlet",
    "rhs_theorem",
    "check_identity",
    "THEOREM_KDF_BLOCKS",
    "IDENTITY_NAMES",
]

_THIRD = Fraction(1, 3)

# The six double-series blocks whose values at (1, 1) assemble the three
# right-hand sides; keys L3a..L3d follow the order they enter L(f, 3).
THEOREM_KDF_BLOCKS = {
    "L1": KdFParams([1], [2], [1, Fraction(4, 3)], [2], [_THIRD, 2 * _THIRD], [1]),
    "L2a": KdFParams([1], [2], [1, Fraction(5, 3)], [2], [_THIRD, 2 * _THIRD], [1]),
    "L3a": KdFParams([_THIRD], [Fraction(4, 3)], [_THIRD, 1], [Fraction(4, 3)],
                     [_THIRD, 2 * _THIRD], [1]),
    "L3b": KdFParams([2 * _THIRD], [Fraction(5, 3)], [2 * _THIRD, 1], [Fraction(5, 3)],
                     [_THIRD, 2 * _THIRD], [1]),
    "L3c": KdFParams([1], [2], [1, 1, Fraction(4, 3)], [2, 2], [_THIRD, 2 * _THIRD], [1]),
    "L3d": KdFParams([1], [2], [1, 1, Fraction(5, 3)], [2, 2], [_THIRD, 2 * _THIRD], [1]),
}

_THEOREM_COMBOS = {
    1: [("L1", Fraction(1))],
    2: [("L2a", Fraction(1)), ("L1", Fraction(-1))],
    3: [("L3a", Fraction(1)), ("L3b", Fraction(-1, 4)),
        ("L3c", Fraction(1, 27)), ("L3d", Fraction(-2, 27))],
}

_VALID_METHODS = {"mellin", "dirichlet", "alpha_integral", "rz_intermediate"}


@dataclass(frozen=True)
class LValueRequest:
    """Which L-value to compute and how."""

    n: int
    prec: Precision
    method: str = "mellin"

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError("n must be 1, 2 or 3")
        if self.method not in _VALID_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "dirichlet" and self.n != 3:
            raise ValueError("the Dirichlet sum is only absolutely convergent at s = 3")
        if self.method == "alpha_integral" and self.n != 1:
            raise ValueError("the alpha-substitution integral evaluates L(f, 1) only")
        if self.method == "rz_intermediate" and self.n != 2:
            raise ValueError("the intermediate weight-2 integral evaluates L(f, 2) only")


# -- Mellin route --------------------------------------------------------------


def l_mellin(n: int, prec: Precision, split_scale: float = 1.0) -> SeriesResult:
    """L(f, n) by the split Mellin integral; the rigorous route for n = 1, 2, 3."""
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2 or 3")
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


# -- Dirichlet route ------------------------------------------------------------


def l_dirichlet(N: int) -> SeriesResult:
    """Partial sum of a_n / n^3 up to N, with a heuristic extrapolated tail.

    The value is the raw partial sum.  err_estimate extrapolates the partial
    sums at N/2, 3N/4, N linearly in 1/N; the coefficient sums oscillate, so
    this is an order-of-magnitude indicator, not a bound.
    """
    if N < 1000:
        raise ValueError("N must be at least 10^3")
    coeffs = qexp.f_coefficients(N).coeffs
    checkpoints = sorted({N // 2, 3 * N // 4, N})
    sums = {}
    acc = 0.0
    comp = 0.0  # Kahan compensation
    idx = 0
    for m in range(1, N + 1):
        y = coeffs[m] / (float(m) ** 3) - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        if m == checkpoints[idx]:
            sums[m] = acc
            idx = min(idx + 1, len(checkpoints) - 1)
    xs = [1.0 / k for k in checkpoints]
    ys = [sums[k] for k in checkpoints]
    tab = list(ys)
    for k in range(1, len(tab)):
        for i in range(len(tab) - k):
            tab[i] = (tab[i + 1] * xs[i] - tab[i] * xs[i + k]) / (xs[i] - xs[i + k])
    tail_estimate = abs(tab[0] - ys[-1])
    return SeriesResult(mpf(acc), mpf(tail_estimate), N, "direct")


# -- Theorem right-hand sides ----------------------------------------------------

_KDF_VALUE_CACHE: dict = {}


def _kdf_at_one(name: str, route: str, prec: Precision) -> SeriesResult:
    key = (name, route, prec.working_digits, float(prec.target_tol))
    hit = _KDF_VALUE_CACHE.get(key)
    if hit is not None:
        return hit
    params = THEOREM_KDF_BLOCKS[name]
    if route == "series":
        res = hyper.kdf_series(params, 1, 1, prec)
    elif route == "integral":
        res = hyper.kdf_integral(params, 1, 1, prec)
    else:
        raise ValueError(f"unknown route {route!r}")
    _KDF_VALUE_CACHE[key] = res
    return res


def rhs_theorem(n: int, route: str, prec: Precision) -> SeriesResult:
    """Assemble the stated hypergeometric combination for L(f, n) at (1, 1)."""
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2 or 3")
    with mp.workdps(prec.dps + 15):
        if n == 1:
            scale = mpf(1) / 27
        elif n == 2:
            scale = 4 * mp.pi / (81 * mp.sqrt(3))
        else:
            scale = 2 * mp.pi ** 2 / 27
        val = mpf(0)
        err = mpf(0)
        terms = 0
        method = "accelerated" if route == "series" else "integral"
        for name, coef in _THEOREM_COMBOS[n]:
            block = _kdf_at_one(name, route, prec)
            cm = mpf(coef.numerator) / coef.denominator
            val += cm * block.value
            err += abs(cm) * block.err_estimate
            terms += block.terms_used
            if block.method == "richardson":
                method = "richardson"
        val *= scale
        err *= abs(scale)
        return SeriesResult(val, err, terms, method)


# -- independent integral routes for n = 1, 2 ------------------------------------


def l1_alpha_integral(prec: Precision) -> SeriesResult:
    """L(f, 1) as (1/9) int_0^1 ((1-a)^(-1/3) - 1) 2F1(1/3, 2/3; 1; a) da/a.

    Works entirely in the hauptmodul variable; no theta evaluation involved.
    """
    with mp.workdps(prec.dps + 15):
        third = mpf(1) / 3

        def integrand(t, omt):
            f6 = hyper.gauss_2f1_unit_interval(
                Fraction(1, 3), Fraction(2, 3), Fraction(1), t, omt, mp.dps - 10
            )
            return (omt ** (-third) - 1) / t * f6

        quad = quad_de(integrand, prec.tol() / 4, prec, two_arg=True)
        val = quad.value / 9
        err = quad.err_estimate / 9 + prec.tol() / 4
        return SeriesResult(val, err, quad.terms_used, "integral")


def l2_intermediate(prec: Precision) -> SeriesResult:
    """L(f, 2) as (2*pi/(27*sqrt(3))) int_0^1 b(q) (a(q) - b(q))^2 dq/q."""
    with mp.workdps(prec.dps + 15):
        sub = Precision(prec.working_digits + 10, float(prec.target_tol) * 1e-5)

        def integrand(q, omq):
            # b(q) decays double-exponentially as q -> 1 and the whole
            # integrand vanishes as q -> 0; nodes rounded onto an endpoint
            # contribute nothing
            if q <= 0 or q >= 1:
                return mpf(0)
            pt_b = thetanum.eval_theta("b", q, sub)
            pt_a = thetanum.eval_theta("a", q, sub)
            return pt_b * (pt_a - pt_b) ** 2 / q

        quad = quad_de(integrand, prec.tol() / 4, prec, two_arg=True)
        val = 2 * mp.pi / (27 * mp.sqrt(3)) * quad.value
        err = 2 * mp.pi / (27 * mp.sqrt(3)) * quad.err_estimate + prec.tol() / 4
        return SeriesResult(val, err, quad.terms_used, "integral")


# -- truncated Lambert evaluation of E0 -------------------------------------------


def _e0_value(q, tol) -> mpf:
    """E0(q) = sum chi(kr)/k (q^(kr/3) - q^(kr)), truncated with a tail bound.

    With Q = q^(1/3), terms beyond kr > K are bounded by
    2 * sum_{m>K} d(m) Q^m <= 2 * sum_{m>K} (m+1) Q^m, a geometric-type bound.
    """
    Q = q ** (mpf(1) / 3)
    K = 8
    while 4 * (K + 3) * Q ** (K + 1) / (1 - Q) ** 2 > tol:
        K += max(K // 8, 2)
        if K > 2_000_000:
            raise ArithmeticError("E0 truncation failed to meet its tolerance")
    total = mpf(0)
    for k in range(1, K + 1):
        for r in range(1, K // k + 1):
            m = k * r
            ch = qexp.chi3(m)
            if ch == 0:
                continue
            total += mpf(ch) / k * (Q ** m - q ** m)
    return total


# -- identity catalog ---------------------------------------------------------------

IDENTITY_NAMES = (
    "l1_alpha_integral",
    "l2_intermediate",
    "lemma_E0",
    "int1",
    "int2",
    "int3",
    "geom",
    "hginterep",
)

_LEMMA_Q_GRID = ("0.05", "0.1", "0.2")
_INT_ALPHA_GRID = ("0.1", "0.5", "0.9")
_GEOM_A_GRID = (Fraction(1, 3), Fraction(2, 3), Fraction(5, 3))
_HGINTEREP_SETS = (
    PFQParams([Fraction(1, 3), 1], [Fraction(4, 3)]),
    PFQParams([Fraction(2, 3), 1], [Fraction(5, 3)]),
)


def _report(name, lhs, rhs, prec, methods, t0) -> IdentityReport:
    with mp.workdps(prec.dps + 10):
        err = abs(lhs - rhs)
    return IdentityReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        abs_err=err,
        tol=prec.target_tol,
        passed=bool(err <= prec.target_tol),
        methods=methods,
        seconds=time.perf_counter() - t0,
    )


def _lemma_e0_at(q, prec: Precision):
    with mp.workdps(prec.dps + 15):
        qq = mpmathify(q)
        lhs = _e0_value(qq, prec.tol() / 8)
        alpha, comp = thetanum.alpha_pair(qq, prec)
        third = mpf(1) / 3
        f1 = hyper.pfq(PFQParams([Fraction(1, 3), 1], [Fraction(4, 3)]),
                       alpha, prec, x_complement=comp).value
        f2 = hyper.pfq(PFQParams([Fraction(2, 3), 1], [Fraction(5, 3)]),
                       alpha, prec, x_complement=comp).value
        f3 = hyper.pfq(PFQParams([1, 1, Fraction(4, 3)], [2, 2]),
                       alpha, prec, x_complement=comp).value
        f4 = hyper.pfq(PFQParams([1, 1, Fraction(5, 3)], [2, 2]),
                       alpha, prec, x_complement=comp).value
        rhs = (alpha ** third * f1 / 3 - alpha ** (2 * third) * f2 / 6
               + alpha * f3 / 27 - 2 * alpha * f4 / 27)
    return lhs, rhs


def _pfq_direct_value(params: PFQParams, x, prec: Precision) -> mpf:
    """Plain term-recurrence summation, bypassing closed-form shortcuts."""
    with mp.workdps(prec.dps + 10):
        val, _ = hyper._pfq_direct(params.upper, params.lower, x, prec.tol() / 10)
        return val


def _int_check_at(which: int, alpha, prec: Precision):
    """The three antiderivative identities at upper limit alpha.

    LHS is tanh-sinh quadrature after x -> alpha*t; RHS sums the stated
    hypergeometric closed forms by the plain recurrence.
    """
    with mp.workdps(prec.dps + 15):
        al = mpmathify(alpha)
        third = mpf(1) / 3
        if which == 1:
            lhs = quad_de(
                lambda t, omt: t ** (-2 * third) / (1 - al * t),
                prec.tol() / 4, prec, two_arg=True,
            ).value * al ** third
            rhs = 3 * al ** third * _pfq_direct_value(
                PFQParams([Fraction(1, 3), 1], [Fraction(4, 3)]), al, prec)
        elif which == 2:
            lhs = quad_de(
                lambda t, omt: t ** (-third) / (1 - al * t),
                prec.tol() / 4, prec, two_arg=True,
            ).value * al ** (2 * third)
            rhs = mpf(3) / 2 * al ** (2 * third) * _pfq_direct_value(
                PFQParams([Fraction(2, 3), 1], [Fraction(5, 3)]), al, prec)
        else:
            cutoff = mpf("0.125")

            def g(x):
                # ((1-x)^(1/3) - (1-x)^(2/3)) / (x (1-x)), stable near x = 0
                if x < cutoff:
                    b1, b2 = mpf(1), mpf(1)
                    acc = mpf(0)
                    xk = mpf(1)
                    k = 1
                    while True:
                        b1 *= (third - (k - 1)) / k
                        b2 *= (2 * third - (k - 1)) / k
                        c = (b1 - b2) * (-1) ** k
                        acc += c * xk
                        if abs(c * xk) < prec.tol() * 1e-6 and k > 3:
                            break
                        xk *= x
                        k += 1
                    return acc / (1 - x)
                omx = 1 - x
                return (omx ** third - omx ** (2 * third)) / (x * omx)

            lhs = quad_de(lambda t, omt: g(al * t) * al, prec.tol() / 4,
                          prec, two_arg=True).value
            rhs = (2 * al / 3 * _pfq_direct_value(
                       PFQParams([1, 1, Fraction(5, 3)], [2, 2]), al, prec)
                   - al / 3 * _pfq_direct_value(
                       PFQParams([1, 1, Fraction(4, 3)], [2, 2]), al, prec))
    return lhs, rhs


def _geom_check_at(a: Fraction, x, prec: Precision):
    with mp.workdps(prec.dps + 10):
        xx = mpmathify(x)
        am = mpf(a.numerator) / a.denominator
        lhs = am * xx * _pfq_direct_value(PFQParams([1, a + 1], [2]), xx, prec)
        rhs = (1 - xx) ** (-am) - 1
    return lhs, rhs


def check_identity(name: str, prec: Precision, point=None) -> IdentityReport:
    """Verify one catalogued identity by its two designated routes.

    Sweeping identities (lemma_E0, int1-3, geom, hginterep) check their whole
    default grid and report the worst point unless ``point`` pins one down.
    """
    t0 = time.perf_counter()
    if name == "l1_alpha_integral":
        lhs = l_mellin(1, prec).value
        rhs = l1_alpha_integral(prec).value
        rep = _report(name, lhs, rhs, prec, ("mellin", "alpha-integral"), t0)
    elif name == "l2_intermediate":
        lhs = l_mellin(2, prec).value
        rhs = l2_intermediate(prec).value
        rep = _report(name, lhs, rhs, prec, ("mellin", "theta-integral"), t0)
    elif name == "lemma_E0":
        qs = (point,) if point is not None else _LEMMA_Q_GRID
        worst = None
        for q in qs:
            lhs, rhs = _lemma_e0_at(q, prec)
            if worst is None or abs(lhs - rhs) > abs(worst[0] - worst[1]):
                worst = (lhs, rhs)
        rep = _report(name, worst[0], worst[1], prec, ("lambert-sum", "hypergeometric"), t0)
    elif name in ("int1", "int2", "int3"):
        which = int(name[-1])
        alphas = (point,) if point is not None else _INT_ALPHA_GRID
        worst = None
        for al in alphas:
            lhs, rhs = _int_check_at(which, al, prec)
            if worst is None or abs(lhs - rhs) > abs(worst[0] - worst[1]):
                worst = (lhs, rhs)
        rep = _report(name, worst[0], worst[1], prec, ("integral", "direct-series"), t0)
    elif name == "geom":
        xs = (point,) if point is not None else tuple(
            mpf(k) / 10 for k in range(1, 10))
        worst = None
        for a in _GEOM_A_GRID:
            for x in xs:
                lhs, rhs = _geom_check_at(a, x, prec)
                if worst is None or abs(lhs - rhs) > abs(worst[0] - worst[1]):
                    worst = (lhs, rhs)
        rep = _report(name, worst[0], worst[1], prec, ("direct-series", "closed-form"), t0)
    elif name == "hginterep":
        z = point if point is not None else "0.5"
        worst = None
        for params in _HGINTEREP_SETS:
            sub = hyper.check_hginterep(params, mpmathify(z), prec)
            if worst is None or sub.abs_err > abs(worst[0] - worst[1]):
                worst = (sub.lhs, sub.rhs)
        rep = _report(name, worst[0], worst[1], prec, ("direct", "integral"), t0)
    else:
        raise ValueError(f"unknown identity name {name!r}")
    return rep
