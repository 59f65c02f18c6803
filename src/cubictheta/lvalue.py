"""L-values of the weight-3 theta product and the catalog of intermediate
identity checks.

The rigorous evaluator is the functional equation of f = b(q)^2 c(q^3)/3 =
eta(t)^6 eta(9t)^3/eta(3t)^3.  The Fricke involution t -> -1/(9t) maps f to
its partner g = b(q) c(q^3)^2/9 = eta(9t)^6 eta(t)^3/eta(3t)^3, so the Mellin
integral of f(iy) y^(s-1), split at y0 = 1/3, becomes two sums of exact
coefficients times incomplete gamma values: no theta value and no quadrature
node is evaluated (``l_mellin``).  The Dirichlet partial sum is the heuristic
second route at s = 3; the right-hand sides of the three hypergeometric
L-value formulas are assembled from Kampe de Feriet values at (1, 1) by
either the accelerated double series or the integral representation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf, mpmathify

from . import _accel, hyper, qexp, thetanum
from .hyper import KdFParams, PFQParams, SeriesResult, quad_de
from .reports import IdentityReport, check
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

# f and its Fricke partner g as eta quotients, (delta, r) for eta(delta*tau)^r:
# f(i/(9y)) = 3^(-3/2) 9^3 y^3 g(iy)
_F_ETA = [(1, 6), (9, 3), (3, -3)]
_G_ETA = [(9, 6), (1, 3), (3, -3)]
# the series stop at this order; only a split far from the fixed point needs it
_MAX_TERMS = 50_000


def _coeff_bound(m: int) -> mpf:
    """96 m^(5/2) (m + 2), a bound on |a_m| and |b_m| for every m >= 1.

    The coefficients of b(q) (1 at q^0) and of c(q) = sum_l gamma_l q^(l+1/3)
    are bounded by representation counts r(k) <= 6 d(k) <= 12 sqrt(k), with
    k = m for b and k = 3l + 1 for c.  In b(q)^2 the coefficient of q^k,
    k >= 1, is then at most 24 sqrt(k) + 144 (k - 1) k/2 <= 72 k^2.  So
    |a_m| = |(b^2 c(q^3))_m|/3 <= (1/3) 72 m^2 12 sqrt(m) (m + 2)/3, with
    (m + 2)/3 bounding the choices of l.  For b_m = (b c(q^3)^2)_m/9 the same
    steps give (32/3) m^(3/2) (m + 1)(m + 4), which is smaller.
    """
    return 96 * mp.sqrt(m) ** 5 * (m + 2)


def _upper_gamma(nu: int, x, majorant: bool = False) -> mpf:
    """Gamma(nu, x) for an integer 0 <= nu <= 3 and x > 0.

    For nu >= 1 it is (nu-1)! e^(-x) sum_{k<nu} x^k/k!; Gamma(0, x) = E1(x),
    which ``majorant`` replaces by its bound e^(-x)/x.
    """
    if nu == 0:
        return mp.exp(-x) / x if majorant else mp.e1(x)
    return math.factorial(nu - 1) * mp.exp(-x) * sum(
        x ** k / math.factorial(k) for k in range(nu))


def l_mellin(n: int, prec: Precision, split_scale: float = 1.0) -> SeriesResult:
    """L(f, n), n = 1, 2, 3, from the functional equation split at y0.

    With Lambda(s) = (2 pi)^(-s) Gamma(s) L(f, s) = int_0^inf f(iy) y^(s-1) dy,
    the Fricke involution y -> 1/(9y) maps the piece below y0 onto g:

        Lambda(s) = sum a_m (2 pi m)^(-s) Gamma(s, 2 pi m y0)
                    + 3^(-3/2) 9^(3-s) sum b_m (2 pi m)^(s-3) Gamma(3-s, 2 pi m/(9 y0)),

    where a_m, b_m are the exact coefficients of f = eta(t)^6 eta(9t)^3/eta(3t)^3
    and g = eta(9t)^6 eta(t)^3/eta(3t)^3.  The split y0 = split_scale/3 sits on
    the involution's fixed point 1/3 by default; every y0 > 0 gives the same
    value.  The pairing with g is needed: f is no Hecke eigenform
    (a_2 = -6, a_3 = 9), and the single-form level-27 equation gives 0.397 for
    L(f, 1) = 0.1215.

    Both sums stop at the smallest M whose proven tail is at most tol/8: past
    m = M, each term is at most its majorant (|a_m|, |b_m| replaced by
    K(m) = ``_coeff_bound(m)``, E1(x) by e^(-x)/x), and the majorants fall by
    at least the ratio rho = (K(M+2)/K(M+1)) (M+1)/(M+2) e^(-lambda) per step,
    lambda = 2 pi y0 or 2 pi/(9 y0), so their tail is the first one over
    1 - rho.  err_estimate is that tail plus the rounding of the 2M summed
    terms; terms_used is 2M.
    """
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2 or 3")
    with mp.workdps(prec.dps + 15):
        scale = mpmathify(split_scale)
        if not (mp.isfinite(scale) and scale > 0):
            raise ValueError(f"split_scale must be positive and finite, got {split_scale}")
        y0 = scale / 3
        two_pi = 2 * mp.pi
        fac = two_pi ** n / math.factorial(n - 1)
        # (nu, lambda, constant) of each side: its m-th term is
        # coef_m * constant * (2 pi m)^(-nu) * Gamma(nu, lambda m)
        sides = ((n, two_pi * y0, fac),
                 (3 - n, two_pi / (9 * y0), fac * 9 ** (3 - n) / mp.sqrt(27)))

        def tail(M):
            # past m = M the majorants fall at least by k_ratio e^(-lambda) a step
            m = M + 1
            k_ratio = _coeff_bound(m + 1) / _coeff_bound(m) * m / (m + 1)
            total = mpf(0)
            for nu, lam, const in sides:
                rho = k_ratio * mp.exp(-lam)
                if rho >= 1:
                    return mp.inf
                first = (const * _coeff_bound(m) * (two_pi * m) ** -nu
                         * _upper_gamma(nu, lam * m, majorant=True))
                total += first / (1 - rho)
            return total

        budget = prec.tol() / 8
        M = 1
        while (bound := tail(M)) > budget:
            M += 1
            if M > _MAX_TERMS:
                raise ArithmeticError(
                    f"split_scale={split_scale} needs more than {_MAX_TERMS} terms")
        val = mpf(0)
        size = mpf(0)
        for (nu, lam, const), spec in zip(sides, (_F_ETA, _G_ETA)):
            coeffs = qexp.eta_quotient(spec, M).coeffs
            for m in range(1, M + 1):
                if coeffs[m]:
                    term = const * coeffs[m] * (two_pi * m) ** -nu * _upper_gamma(nu, lam * m)
                    val += term
                    size += abs(term)
        # each term carries a few roundings and the sum adds one per term
        rounding = (2 * M + 64) * mp.eps * size
        return SeriesResult(val, bound + rounding, 2 * M, "functional-equation")


# -- Dirichlet route ------------------------------------------------------------

_FSUM_CHUNK = 1 << 16


def l_dirichlet(N: int) -> SeriesResult:
    """Partial sum of a_n / n^3 up to N, with a heuristic extrapolated tail.

    The value is the raw partial sum.  err_estimate is its distance from the
    value at 1/N = 0 of the quadratic in 1/N through the partial sums at N/2,
    3N/4 and N (``_accel.richardson``); the coefficient sums oscillate, so
    this is an order-of-magnitude indicator, not a bound.

    The terms are formed in numpy from the int64 coefficients of
    ``qexp._f_coeffs_fft``; each checkpoint is ``math.fsum`` of the float
    terms in index order, the correctly rounded sum, read in list chunks of
    at most 2**16 terms.
    """
    if N < 1000:
        raise ValueError("N must be at least 10^3")
    terms = np.arange(1, N + 1, dtype=float) ** 3
    np.divide(qexp._f_coeffs_fft(N)[1:], terms, out=terms)
    checkpoints = sorted({N // 2, 3 * N // 4, N})
    # each partial sum is the correctly rounded sum of the float terms, fed
    # to fsum in chunks so that no N-entry list is built
    sums = {k: math.fsum(itertools.chain.from_iterable(
                terms[i:min(i + _FSUM_CHUNK, k)].tolist() for i in range(0, k, _FSUM_CHUNK)))
            for k in checkpoints}
    limit = _accel.richardson([1.0 / k for k in checkpoints], [sums[k] for k in checkpoints])
    tail_estimate = abs(limit - sums[N])
    return SeriesResult(mpf(sums[N]), mpf(tail_estimate), N, "direct")


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

_LEMMA_Q_GRID = ("0.05", "0.1", "0.2")
_INT_ALPHA_GRID = ("0.1", "0.5", "0.9")
_GEOM_A_GRID = (Fraction(1, 3), Fraction(2, 3), Fraction(5, 3))
# 2F1(e, 1; e+1; .) and 3F2(1, 1, e+1; 2, 2; .) for e = 1/3, 2/3
_THIRDS_2F1 = tuple(PFQParams([e, 1], [e + 1]) for e in (_THIRD, 2 * _THIRD))
_THIRDS_3F2 = tuple(PFQParams([1, 1, e + 1], [2, 2]) for e in (_THIRD, 2 * _THIRD))


def _lemma_e0_pairs(prec: Precision, point):
    for q in _LEMMA_Q_GRID if point is None else (point,):
        with mp.workdps(prec.dps + 15):
            qq = mpmathify(q)
            lhs = _e0_value(qq, prec.tol() / 8)
            alpha, comp = thetanum.alpha_pair(qq, prec)
            third = mpf(1) / 3
            f1, f2, f3, f4 = (hyper.pfq(params, alpha, prec, x_complement=comp).value
                              for params in _THIRDS_2F1 + _THIRDS_3F2)
            rhs = (alpha ** third * f1 / 3 - alpha ** (2 * third) * f2 / 6
                   + alpha * f3 / 27 - 2 * alpha * f4 / 27)
        yield lhs, rhs


def _pfq_direct_value(params: PFQParams, x, prec: Precision) -> mpf:
    """Plain term-recurrence summation, bypassing closed-form shortcuts."""
    with mp.workdps(prec.dps + 10):
        val, _ = hyper._pfq_direct(params.upper, params.lower, x, prec.tol() / 10)
        return val


def _int3_integrand(x) -> mpf:
    """((1-x)^(1/3) - (1-x)^(2/3)) / (x (1-x)), written with L = log(1-x) as
    -expm1(L/3) exp(-2L/3) / x: a product with no cancellation, even as x -> 0."""
    ell = mp.log1p(-x)
    return -mp.expm1(ell / 3) * mp.exp(-2 * ell / 3) / x


def _int_pairs(which: int, prec: Precision, point):
    """The three antiderivative identities at upper limits alpha.

    LHS is tanh-sinh quadrature after x -> alpha*t; RHS sums the stated
    hypergeometric closed forms by the plain recurrence.
    """
    for alpha in _INT_ALPHA_GRID if point is None else (point,):
        with mp.workdps(prec.dps + 15):
            al = mpmathify(alpha)
            third = mpf(1) / 3
            if which < 3:
                # int_0^alpha x^(e-1)/(1-x) dx = alpha^e/e 2F1(e, 1; e+1; alpha),
                # e = which/3
                lhs = quad_de(
                    lambda t, omt: t ** (-(3 - which) * third) / (1 - al * t),
                    prec.tol() / 4, prec, two_arg=True,
                ).value * al ** (which * third)
                rhs = mpf(3) / which * al ** (which * third) * _pfq_direct_value(
                    _THIRDS_2F1[which - 1], al, prec)
            else:
                lhs = quad_de(lambda t, omt: _int3_integrand(al * t) * al,
                              prec.tol() / 4, prec, two_arg=True).value
                rhs = (2 * al / 3 * _pfq_direct_value(_THIRDS_3F2[1], al, prec)
                       - al / 3 * _pfq_direct_value(_THIRDS_3F2[0], al, prec))
        yield lhs, rhs


def _geom_pairs(prec: Precision, point):
    xs = [mpf(k) / 10 for k in range(1, 10)] if point is None else (point,)
    for a in _GEOM_A_GRID:
        for x in xs:
            with mp.workdps(prec.dps + 10):
                xx = mpmathify(x)
                am = mpf(a.numerator) / a.denominator
                lhs = am * xx * _pfq_direct_value(PFQParams([1, a + 1], [2]), xx, prec)
                rhs = (1 - xx) ** (-am) - 1
            yield lhs, rhs


def _hginterep_pairs(prec: Precision, point):
    z = mpmathify("0.5" if point is None else point)
    for params in _THIRDS_2F1:
        rep = hyper.check_hginterep(params, z, prec)
        yield rep.lhs, rep.rhs


# name -> (methods, pairs(prec, point)): the pairs yield the (lhs, rhs) of
# every point checked, and reach the evaluators through module attributes
# when they run
_CATALOG = {
    "l1_alpha_integral": (("mellin", "alpha-integral"), lambda prec, _: [
        (l_mellin(1, prec).value, l1_alpha_integral(prec).value)]),
    "l2_intermediate": (("mellin", "theta-integral"), lambda prec, _: [
        (l_mellin(2, prec).value, l2_intermediate(prec).value)]),
    "lemma_E0": (("lambert-sum", "hypergeometric"), _lemma_e0_pairs),
    "int1": (("integral", "direct-series"), lambda prec, point: _int_pairs(1, prec, point)),
    "int2": (("integral", "direct-series"), lambda prec, point: _int_pairs(2, prec, point)),
    "int3": (("integral", "direct-series"), lambda prec, point: _int_pairs(3, prec, point)),
    "geom": (("direct-series", "closed-form"), _geom_pairs),
    "hginterep": (("direct", "integral"), _hginterep_pairs),
}

IDENTITY_NAMES = tuple(_CATALOG)


def check_identity(name: str, prec: Precision, point=None) -> IdentityReport:
    """Verify one catalogued identity by its two designated routes.

    Sweeping identities (lemma_E0, int1-3, geom, hginterep) check their whole
    default grid and report the worst point unless ``point`` pins one down.
    """
    if name not in _CATALOG:
        raise ValueError(f"unknown identity name {name!r}")
    methods, pairs = _CATALOG[name]

    def points():
        for lhs, rhs in pairs(prec, point):
            with mp.workdps(prec.dps + 10):
                err = abs(lhs - rhs)
            yield lhs, rhs, err

    return check(name, methods, prec.target_tol, points())
