"""L-values of the weight-3 theta product and the catalog of intermediate
identity checks.

The rigorous evaluator is the functional equation of f = b(q)^2 c(q^3)/3 =
eta(t)^6 eta(9t)^3/eta(3t)^3.  The Fricke involution t -> -1/(9t) maps f to
its partner g = b(q) c(q^3)^2/9 = eta(9t)^6 eta(t)^3/eta(3t)^3, so the Mellin
integral of f(iy) y^(s-1), split at y0 = 1/3, becomes two sums of exact
coefficients times incomplete gamma values: no theta value and no quadrature
node is evaluated (``l_mellin``).  The Dirichlet partial sum, with a proven
tail, is the second route at s = 3; the right-hand sides of the three
hypergeometric L-value formulas are assembled from Kampe de Feriet values at
(1, 1) by either the accelerated double series or the integral representation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
from mpmath import mp, mpf, mpmathify

from . import hyper, qexp, thetanum
from .hyper import KdFParams, PFQParams, SeriesResult, quad_de
from .reports import IdentityReport, check
from .thetanum import Precision

__all__ = [
    "LVALUE_METHODS",
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

# the methods of ``cubictheta lvalue``: each maps to the n it evaluates and
# the usage message for any other n
LVALUE_METHODS = {
    "mellin": ((1, 2, 3), "n must be 1, 2 or 3"),
    "dirichlet": ((3,), "the Dirichlet sum is only absolutely convergent at s = 3"),
    "alpha_integral": ((1,), "the alpha-substitution integral evaluates L(f, 1) only"),
    "rz_intermediate": ((2,), "the intermediate weight-2 integral evaluates L(f, 2) only"),
}


# -- Mellin route --------------------------------------------------------------

# f and its Fricke partner g as eta quotients, (delta, r) for eta(delta*tau)^r:
# f(i/(9y)) = 3^(-3/2) 9^3 y^3 g(iy)
_F_ETA = [(1, 6), (9, 3), (3, -3)]
_G_ETA = [(9, 6), (1, 3), (3, -3)]
# the split point y0 of the Mellin integral: the involution's fixed point
_SPLIT_Y0 = Fraction(1, 3)
# the series stop at this order; only a split far from the fixed point needs it
_MAX_TERMS = 50_000


def _coeff_bound(m: int) -> mpf:
    """2 zeta(2) m^2 = pi^2 m^2/3, a bound on |a_m| and |b_m| for every m >= 1.

    Both forms are divisor sums sum_{de = m} d^2 W[d % 3][e % 3]: a_m with
    W = ``qexp._F_TABLE``, whose entries are at most 2 in size, and 3 b_m
    with W = ((0, -1, 1), (0, 0, -1), (0, 1, 0)), whose entries are at most
    1 (g lies in M_3(Gamma_0(9), chi3) with f, so agreement to the Sturm
    bound q^3 proves that table).  So |a_m| <= 2 sigma_2(m) and
    |b_m| <= sigma_2(m)/3, and sigma_2(m) = m^2 sum_{d | m} d^-2 < zeta(2) m^2.
    """
    return mp.pi ** 2 / 3 * m ** 2


def _upper_gamma(nu: int, x) -> mpf:
    """Gamma(nu, x) for an integer 0 <= nu <= 3 and x > 0.

    For nu >= 1 it is (nu-1)! e^(-x) sum_{k<nu} x^k/k!; Gamma(0, x) = E1(x).
    """
    if nu == 0:
        return mp.e1(x)
    return math.factorial(nu - 1) * mp.exp(-x) * sum(
        x ** k / math.factorial(k) for k in range(nu))


def _mellin_sides(n: int) -> tuple:
    """The (nu, lambda, constant, e^-lambda) of the two sides of ``l_mellin``
    at the working precision: the m-th term of a side is
    coef_m * constant * (2 pi m)^(-nu) * Gamma(nu, lambda m)."""
    y0 = mpf(_SPLIT_Y0.numerator) / _SPLIT_Y0.denominator
    two_pi = 2 * mp.pi
    fac = two_pi ** n / math.factorial(n - 1)
    sides = ((n, two_pi * y0, fac),
             (3 - n, two_pi / (9 * y0), fac * 9 ** (3 - n) / mp.sqrt(27)))
    return tuple((nu, lam, const, mp.exp(-lam)) for nu, lam, const in sides)


def _mellin_tail(sides, M: int) -> mpf:
    """The proven tail of both sums of ``l_mellin`` past m = M: the first
    majorant of each side over 1 - rho (mp.inf when rho >= 1)."""
    m = M + 1
    # past m = M the majorants fall at least by k_ratio e^(-lambda) a step
    k_ratio = _coeff_bound(m + 1) / _coeff_bound(m) * m / (m + 1)
    total = mpf(0)
    for nu, lam, const, e_lam in sides:
        rho = k_ratio * e_lam
        if rho >= 1:
            return mp.inf
        x = lam * m
        # E1(x) < e^(-x)/x bounds Gamma(0, x)
        gamma = mp.exp(-x) / x if nu == 0 else _upper_gamma(nu, x)
        first = const * _coeff_bound(m) * (2 * mp.pi * m) ** -nu * gamma
        total += first / (1 - rho)
    return total


def _mellin_order(sides, budget) -> tuple:
    """The smallest M >= 1 whose ``_mellin_tail`` is at most ``budget``, and
    that tail.

    The tail falls with M wherever lambda m > 1 on both sides, m = M + 1: a
    side's first majorant is a positive multiple of a sum of terms
    m^j e^(-lambda m) with j <= 1 (K(m) (2 pi m)^-nu Gamma(nu, lambda m),
    Gamma(nu, x) = (nu-1)! e^-x sum_(k<nu) x^k/k! for nu >= 1 and
    e^-x/x for nu = 0), each of which falls once m > j/lambda, and
    1/(1 - rho) falls with rho = (m+1)/m e^-lambda.  At M >= 1, m >= 2, so
    lambda > 1/2 suffices; at the split y0 = 1/3 both lambda are 2 pi/3.
    Nor does it fall faster than e^-lambda a step, lambda the larger of the
    two: a side's K(m) m^-nu Gamma(nu, lambda m) falls by e^-lambda times a
    factor near 1 + 1/m, which outweighs the fall of 1/(1 - rho), of order
    e^-lambda/m^2 (measured: for each nu and lambda from 1.5 to 4, no step
    from m = 2 to 300 falls by more).  So from M = 1, while the exact tail T
    exceeds the budget, M advances by max(1, ceil(ln(T/budget)/lambda))
    steps (one while T is infinite), which never pass the smallest M, and
    the tail at M - 1 confirms it (each confirmation that holds, as a
    rounding of that log could make one, steps M back by one).
    ArithmeticError past ``_MAX_TERMS``.
    """
    lam = max(side[1] for side in sides)
    M = 1
    while (bound := _mellin_tail(sides, M)) > budget:
        M += 1 if bound == mp.inf else max(1, int(mp.ceil(mp.log(bound / budget) / lam)))
        if M > _MAX_TERMS:
            raise ArithmeticError(
                f"the split y0 = {_SPLIT_Y0} needs more than {_MAX_TERMS} terms")
    while M > 1 and (lower := _mellin_tail(sides, M - 1)) <= budget:
        M, bound = M - 1, lower
    return M, bound


def l_mellin(n: int, prec: Precision) -> SeriesResult:
    """L(f, n), n = 1, 2, 3, from the functional equation split at y0.

    With Lambda(s) = (2 pi)^(-s) Gamma(s) L(f, s) = int_0^inf f(iy) y^(s-1) dy,
    the Fricke involution y -> 1/(9y) maps the piece below y0 onto g:

        Lambda(s) = sum a_m (2 pi m)^(-s) Gamma(s, 2 pi m y0)
                    + 3^(-3/2) 9^(3-s) sum b_m (2 pi m)^(s-3) Gamma(3-s, 2 pi m/(9 y0)),

    where a_m, b_m are the exact coefficients of f = eta(t)^6 eta(9t)^3/eta(3t)^3
    and g = eta(9t)^6 eta(t)^3/eta(3t)^3.  The split y0 = ``_SPLIT_Y0`` sits on
    the involution's fixed point 1/3; every y0 > 0 gives the same value.  The
    pairing with g is needed: f is no Hecke eigenform (a_2 = -6, a_3 = 9), and
    the single-form level-27 equation gives 0.397 for L(f, 1) = 0.1215.

    Both sums stop at the smallest M whose proven tail is at most tol/8: past
    m = M, each term is at most its majorant (|a_m|, |b_m| replaced by
    K(m) = ``_coeff_bound(m)``, E1(x) by e^(-x)/x), and the majorants fall by
    at least the ratio rho = (K(M+2)/K(M+1)) (M+1)/(M+2) e^(-lambda) per step,
    lambda = 2 pi y0 or 2 pi/(9 y0), so their tail is the first one over
    1 - rho (``_mellin_tail``; M from ``_mellin_order``).  err_estimate is
    that tail plus the rounding of the 2M summed terms; terms_used is 2M.
    """
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2 or 3")
    with mp.workdps(prec.dps + 15):
        two_pi = 2 * mp.pi
        sides = _mellin_sides(n)
        M, bound = _mellin_order(sides, prec.tol() / 8)
        val = mpf(0)
        size = mpf(0)
        for (nu, lam, const, _), spec in zip(sides, (_F_ETA, _G_ETA)):
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

# a chunk's bucket sums of the 27-bit high halves stay below 2^27 * 2^14 =
# 2^41, well inside the 2^53 that keeps a float64 bucket exact; a chunk's
# numpy temporaries, about 44 bytes a term, stay near 0.7 MB, inside a core's
# cache
_SUM_CHUNK = 1 << 14


def _exact_sum(chunk: np.ndarray) -> tuple:
    """(T, e) with sum(chunk) == T * 2**e exactly, for finite floats.

    Each term is M 2^s with M = mantissa * 2^53 an int below 2^53 in
    magnitude (``np.frexp``); M is split into a high half below 2^27 and a
    low half in [0, 2^26), and ``np.bincount`` sums each half per exponent
    s in float64, which is exact while a bucket stays below 2^53.
    """
    mant, exp = np.frexp(chunk)
    m = (mant * 2.0 ** 53).astype(np.int64)
    del mant
    e0 = int(exp.min())
    exp -= e0
    hi = np.bincount(exp, weights=m >> 26)
    lo = np.bincount(exp, weights=m & ((1 << 26) - 1))
    del m, exp
    total = sum(((int(h) << 26) + int(l)) << k
                for k, (h, l) in enumerate(zip(hi.tolist(), lo.tolist())))
    return total, e0 - 53


def _fsum(terms, end: int) -> float:
    """The correctly rounded sum of the floats terms(0, end), as a float:
    their ``math.fsum``, bit for bit, from one pass that holds one chunk.

    ``terms(i, j)`` forms terms i..j-1 as a float64 array.  It is called on
    chunks of at most ``_SUM_CHUNK`` terms in turn, and each chunk's exact
    sum T 2^s (``_exact_sum``) is kept before the next chunk is formed.  The
    sums are added as one Python int at the scale 2^e of the smallest s, and
    that int is rounded once, correctly, by int true division.  This is a
    small superaccumulator indexed by exponent (Neal, "Fast exact summation
    using small and large superaccumulators", arXiv:1505.05571, 2015).
    """
    parts = [_exact_sum(terms(i, min(i + _SUM_CHUNK, end))) for i in range(0, end, _SUM_CHUNK)]
    e = min((s for _, s in parts), default=0)
    total = sum(t << (s - e) for t, s in parts)
    return float(total << e) if e >= 0 else total / (1 << -e)


def _tail_constant(table) -> mpf:
    """C with |S(x)| <= C x^2 for x >= 1, S(x) the sum over m <= x of
    a_m = sum_{de = m} d^2 table[d % 3][e % 3].

    Column j holds the weights w(d) = table[d % 3][j] of the terms with
    e = j mod 3.  If it sums to 0, P(t) = sum_{d <= t} w(d) is periodic,
    with |P| <= M_j, its largest size over one period, and Abel summation
    gives |sum_{d <= X} w(d) d^2| = |P(X) X^2 - int_1^X 2t P(t) dt|
    <= 2 M_j X^2.  Taking X = x/e and summing over e,
    C = sum_j 2 M_j sum_{e = j mod 3} e^-2, where the inner sum is the
    Hurwitz zeta(2, r/3)/9 with r = j, or 3 for j = 0.  For
    ``qexp._F_TABLE``, M = 0, 1, 2 and C = (2 zeta(2, 1/3) + 4 zeta(2, 2/3))/9
    = 3.605.  A column with a nonzero sum raises ValueError: its P grows.
    """
    C = mpf(0)
    for j in range(3):
        sums = list(accumulate(table[d % 3][j] for d in (1, 2, 3)))
        if sums[-1]:
            raise ValueError(f"column {j} of the table does not sum to 0")
        C += 2 * max(map(abs, sums)) * mp.zeta(2, mpf(j or 3) / 3) / 9
    return C


def l_dirichlet(N: int) -> SeriesResult:
    """Partial sum of a_n / n^3 up to N, with a proven bound on its distance
    from L(f, 3).

    With |S(x)| <= C x^2 (``_tail_constant`` of ``qexp._F_TABLE``), partial
    summation bounds the tail sum_{n > N} a_n/n^3 = -S(N)/N^3
    + 3 int_N^inf S(t) t^-4 dt by C/N + 3C/N = 4C/N.  The terms are formed
    in float from the exact int64 coefficients of ``qexp._f_coeffs`` (below
    2^53), with at most three roundings each (two in n^3, one in the
    division), and their sum is correctly rounded (``_fsum``).  The terms
    are formed one chunk at a time from the coefficient array, which is the
    one array of N entries: a chunk's floats are summed exactly before the
    next chunk is formed.  As |a_n| <= ``_coeff_bound(n)`` = 2 zeta(2) n^2,
    the rounding is at most 3 eps 2 zeta(2) (1 + ln N), eps = 2^-52.
    err_estimate is the sum of the two bounds.
    """
    if N < 1000:
        raise ValueError("N must be at least 10^3")
    coeffs = qexp._f_coeffs(N)

    def terms(i, j):
        # a_n / n^3 for n = i + 1 .. j
        cubes = np.arange(i + 1, j + 1, dtype=float) ** 3
        return np.divide(coeffs[i + 1:j + 1], cubes, out=cubes)

    tail = 4 * _tail_constant(qexp._F_TABLE) / N
    rounding = 3 * 2.0 ** -52 * _coeff_bound(1) * (1 + mp.log(N))
    return SeriesResult(mpf(_fsum(terms, N)), tail + rounding, N, "direct")


# -- Theorem right-hand sides ----------------------------------------------------

_KDF_VALUE_CACHE: dict = {}


def _kdf_at_one(names, route: str, prec: Precision) -> list:
    """The named ``THEOREM_KDF_BLOCKS`` at (1, 1) by ``route``, one
    SeriesResult per name, from the memo where it holds them; the integral
    route evaluates the names it lacks in one ``hyper.kdf_integrals`` batch,
    which shares their nodes and their common factor."""
    if route not in ("series", "integral"):
        raise ValueError(f"unknown route {route!r}")
    keys = {name: (name, route, prec.working_digits, float(prec.target_tol)) for name in names}
    missing = [name for name, key in keys.items() if key not in _KDF_VALUE_CACHE]
    if route == "series":
        for name in missing:
            _KDF_VALUE_CACHE[keys[name]] = hyper.kdf_series(THEOREM_KDF_BLOCKS[name], 1, 1, prec)
    elif missing:
        blocks = [THEOREM_KDF_BLOCKS[name] for name in missing]
        for name, res in zip(missing, hyper.kdf_integrals(blocks, 1, 1, prec)):
            _KDF_VALUE_CACHE[keys[name]] = res
    return [_KDF_VALUE_CACHE[keys[name]] for name in names]


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
        combo = _THEOREM_COMBOS[n]
        blocks = _kdf_at_one([name for name, _ in combo], route, prec)
        for (_, coef), block in zip(combo, blocks):
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
    At a node t the factor ((1-t)^(-1/3) - 1)/t is ``_l1_alpha_factor`` of
    the node's exact 1 - t, one cube root, and the 2F1 reads the node's logs.
    """
    with mp.workdps(prec.dps + 15):
        # the plan of 2F1(1/3, 2/3; 1; .) and its eps, formed once, not per node
        plan = hyper._plan((Fraction(1, 3), Fraction(2, 3)), (Fraction(1),))
        eps = mpf(10) ** (5 - mp.dps)

        def integrand(t, omt, lt, lomt):
            return _l1_alpha_factor(omt) * plan.eval(t, omt, eps, (lt, lomt))[0]

        quad = quad_de(integrand, prec.tol() / 4, prec, node_args=True)
        val = quad.value / 9
        err = quad.err_estimate / 9 + prec.tol() / 4
        return SeriesResult(val, err, quad.terms_used, "integral")


def _l1_alpha_factor(omt) -> mpf:
    """((1-t)^(-1/3) - 1)/t from 1 - t, as 1/(v (1 + v + v^2)), v = cbrt(1-t).

    1/v - 1 = (1 - v)/v, and 1 - v^3 = t factors as (1 - v)(1 + v + v^2), so
    the cancelling difference 1 - v drops out: a product with no
    cancellation, as t -> 0 and as 1 - t -> 0.
    """
    v = mp.cbrt(omt)
    return 1 / (v * (1 + v + v * v))


def l2_intermediate(prec: Precision) -> SeriesResult:
    """L(f, 2) as (2*pi/(27*sqrt(3))) int_0^1 b(q) (a(q) - b(q))^2 dq/q."""
    with mp.workdps(prec.dps + 15):
        sub = Precision(prec.working_digits + 10, float(prec.target_tol) * 1e-5)

        def integrand(q, omq, lq, lomq):
            # b(q) decays double-exponentially as q -> 1 and the whole
            # integrand vanishes as q -> 0; nodes rounded onto an endpoint
            # contribute nothing
            if q <= 0 or q >= 1:
                return mpf(0)
            with mp.workdps(sub.dps + 10):
                a, b = thetanum._theta("ab", *thetanum._q_u(q), sub.tol() / 4)
            return b * (a - b) ** 2 / q

        quad = quad_de(integrand, prec.tol() / 4, prec, node_args=True)
        val = 2 * mp.pi / (27 * mp.sqrt(3)) * quad.value
        err = 2 * mp.pi / (27 * mp.sqrt(3)) * quad.err_estimate + prec.tol() / 4
        return SeriesResult(val, err, quad.terms_used, "integral")


# -- truncated Lambert evaluation of E0 -------------------------------------------


def _e0_value(q, tol) -> mpf:
    """E0(q) = sum chi3(kr)/k (q^(kr/3) - q^(kr)): the exact coefficients of
    ``qexp.lambert_series("E0")``, which the ``e0_derivative`` check verifies,
    summed at Q = q^(1/3), one ``mp.cbrt``.  Each is 0 or +-sigma(m)/m for
    some m <= e, at most 1 + ln e <= 4 (e + 1) in size, which sets the tail
    bound.
    """
    Q = mp.cbrt(q)
    K = thetanum._terms_needed(Q, tol, 4)
    return thetanum._series_sum(qexp.lambert_series("E0", -(-K // 3)).coeffs, K, Q)


# -- identity catalog ---------------------------------------------------------------

_LEMMA_Q_GRID = ("0.05", "0.1", "0.2")
_INT_ALPHA_GRID = ("0.1", "0.5", "0.9")
_GEOM_A_GRID = (Fraction(1, 3), Fraction(2, 3), Fraction(5, 3))
# 2F1(e, 1; e+1; .) and 3F2(1, 1, e+1; 2, 2; .) for e = 1/3, 2/3
_THIRDS_2F1 = tuple(PFQParams([e, 1], [e + 1]) for e in (_THIRD, 2 * _THIRD))
_THIRDS_3F2 = tuple(PFQParams([1, 1, e + 1], [2, 2]) for e in (_THIRD, 2 * _THIRD))


def _lemma_e0_pairs(prec: Precision):
    for q in _LEMMA_Q_GRID:
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
    """((1-x)^(1/3) - (1-x)^(2/3)) / (x (1-x)) as 1/(v^2 (1 + v + v^2)),
    v = cbrt(1-x).

    The numerator is v - v^2 = v (1 - v), and 1 - v^3 = x gives
    x (1-x) = (1 - v)(1 + v + v^2) v^3, so the cancelling difference 1 - v
    drops out: a product with no cancellation, as x -> 0 and as x -> 1.
    """
    v = mp.cbrt(1 - x)
    return 1 / (v * v * (1 + v + v * v))


def _int_pairs(which: int, prec: Precision):
    """The three antiderivative identities at upper limits alpha.

    LHS is tanh-sinh quadrature after x -> alpha*t; RHS sums the stated
    hypergeometric closed forms by the plain recurrence.
    """
    for alpha in _INT_ALPHA_GRID:
        with mp.workdps(prec.dps + 15):
            al = mpmathify(alpha)
            third = mpf(1) / 3
            if which < 3:
                # int_0^alpha x^(e-1)/(1-x) dx = alpha^e/e 2F1(e, 1; e+1; alpha),
                # e = which/3; t^(e-1) from the node's ln t
                lhs = quad_de(
                    lambda t, omt, lt, lomt: mp.exp(-(3 - which) * third * lt) / (1 - al * t),
                    prec.tol() / 4, prec, node_args=True,
                ).value * al ** (which * third)
                rhs = mpf(3) / which * al ** (which * third) * _pfq_direct_value(
                    _THIRDS_2F1[which - 1], al, prec)
            else:
                lhs = quad_de(lambda t, omt, lt, lomt: _int3_integrand(al * t) * al,
                              prec.tol() / 4, prec, node_args=True).value
                rhs = (2 * al / 3 * _pfq_direct_value(_THIRDS_3F2[1], al, prec)
                       - al / 3 * _pfq_direct_value(_THIRDS_3F2[0], al, prec))
        yield lhs, rhs


def _geom_pairs(prec: Precision):
    for a in _GEOM_A_GRID:
        for x in [mpf(k) / 10 for k in range(1, 10)]:
            with mp.workdps(prec.dps + 10):
                xx = mpmathify(x)
                am = mpf(a.numerator) / a.denominator
                lhs = am * xx * _pfq_direct_value(PFQParams([1, a + 1], [2]), xx, prec)
                rhs = (1 - xx) ** (-am) - 1
            yield lhs, rhs


def _hginterep_pairs(prec: Precision):
    """B(a1, a1'-a1) pFq at z = 1/2 against its Euler-type integral: the
    block with joint pair (a1, a1'), the inner parameters as its first
    variable and an empty second one, at (z, 0); the blocks share their
    factors, so they take one ``kdf_integrals`` batch."""
    z = mpmathify("0.5")
    blocks = [KdFParams(p.upper[:1], p.lower[:1], p.upper[1:], p.lower[1:], [], [])
              for p in _THIRDS_2F1]
    integrals = hyper.kdf_integrals(blocks, z, 0, prec)
    for params, integral in zip(_THIRDS_2F1, integrals):
        a1, a1p = params.upper[0], params.lower[0]
        with mp.workdps(prec.dps + 15):
            series = hyper.pfq(params, z, prec).value
            beta = hyper._gamma(a1) * hyper._gamma(a1p - a1) / hyper._gamma(a1p)
            lhs, rhs = beta * series, beta * integral.value
        yield lhs, rhs


# name -> (methods, pairs(prec)): the pairs yield the (lhs, rhs) of every
# point checked, and reach the evaluators through module attributes when
# they run
_CATALOG = {
    "l1_alpha_integral": (("mellin", "alpha-integral"), lambda prec: [
        (l_mellin(1, prec).value, l1_alpha_integral(prec).value)]),
    "l2_intermediate": (("mellin", "theta-integral"), lambda prec: [
        (l_mellin(2, prec).value, l2_intermediate(prec).value)]),
    "lemma_E0": (("lambert-sum", "hypergeometric"), _lemma_e0_pairs),
    "int1": (("integral", "direct-series"), lambda prec: _int_pairs(1, prec)),
    "int2": (("integral", "direct-series"), lambda prec: _int_pairs(2, prec)),
    "int3": (("integral", "direct-series"), lambda prec: _int_pairs(3, prec)),
    "geom": (("direct-series", "closed-form"), _geom_pairs),
    "hginterep": (("direct", "integral"), _hginterep_pairs),
}

IDENTITY_NAMES = tuple(_CATALOG)


def check_identity(name: str, prec: Precision) -> IdentityReport:
    """Verify one catalogued identity by its two designated routes.

    Sweeping identities (lemma_E0, int1-3, geom, hginterep) check their whole
    grid and report the worst point.
    """
    if name not in _CATALOG:
        raise ValueError(f"unknown identity name {name!r}")
    methods, pairs = _CATALOG[name]

    def points():
        for lhs, rhs in pairs(prec):
            with mp.workdps(prec.dps + 10):
                err = abs(lhs - rhs)
            yield lhs, rhs, err

    return check(name, methods, prec.target_tol, points())
