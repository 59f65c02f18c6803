"""Generalized hypergeometric series, Kampe de Feriet double series, their
boundary convergence conditions, the Euler-type integral representation, and
double-exponential quadrature.

Parameters are carried as exact Fractions until the moment of evaluation, so
structural questions (parameter cancellation, integer excess, closed-form
patterns) are decided exactly.  Direct sums and the Kampe de Feriet
anti-diagonal sums S_d take their terms from one recurrence, run in fixed
point on Python ints built from those exact parameters (``_fixed_terms``),
with stated rounding bounds: 2^-prec (1 + |value|) for direct sums and
2^-prec (1 + max |S_d|) for the S_d.  Everything about a pFq that x does
not change is worked out once per exact (upper, lower), in its evaluation
plan (``_Plan``, held by ``_plan``, a bounded lru): the cancellation of
repeated parameters, the scope facts, the branch that a 2F1 takes near
x = 1, and, per working precision, each branch's gamma/psi constants and the
plans of the series it sums; these constants are the only gamma/psi values
kept across calls.  A direct sum (``_direct_sum``) reads its coefficients
c_n 2^wp from a table cached per (plan, wp) (``_coeff_table``, a bounded
lru; a table reads its plan, no plan holds a table), filled lazily from
that recurrence at x = 1, and sums them by Horner's rule at x, so all the
nodes of a quadrature share one table; no direct sum is taken outside
|x| <= 1.  At x = 0 a sum stops at its first term, and a polynomial's at
its degree; any other's stop index is read off the float log2 magnitudes
of the table's terms and exact ratios, late on a near-tie, never early.
The real-argument dispatch (``_Plan.eval``, on the plan that ``_plan`` looks
up) has one exit per algorithm, reads a complement 1 - x <= 0 at
x = 1 as 0, and checks the scope before any branch: |x| > 1, more than
q + 1 upper parameters and a series that diverges at x = 1 (nonpositive
excess, 1F0 included) raise ValueError, except that a polynomial is summed
directly at any |x| <= 1.
``kdf_integrals`` evaluates several blocks at one point, each by its own
quadrature, and looks up each distinct factor's plan once per call, so its
quadrature nodes do only the work that depends on x; a factor that several
blocks share is evaluated once per node, its values held in a table local
to the call (``kdf_integral`` is the batch of one block).  Each weight
t^(a-1) (1-t)^(ap-a-1) is one exp of the node's logs, and a factor whose
argument is the node itself (z = 1) takes both logs into its ``eval``, whose
branches in 1 - x then take no log or power of their own.  ``quad_de``
reads the tanh-sinh nodes of each level from one cached tuple
(``_de_nodes``), walked once per side of t = 1/2; each node carries
t, 1 - t, its weight, ln t and ln(1 - t), and an integrand may take all
four.  Each node is built once per (level, precision), in one family that
the deepest weight cut asked for extends, and each cut's tuple is a prefix
of it.
Near the unit argument a 2F1 switches to an expansion in 1 - x: one log
expansion for every integer excess m >= 0 (``_hyp2f1_log``), the connection
formula for any other positive excess; their tails are certified as well;
callers that know 1 - x to better accuracy than x can pass it explicitly.
Where a factor that is not a polynomial sits on |z| = 1, a Kampe de Feriet
value is the limit of its S_d, whose remainder has a form known from the
parameters (``_kdf_families``).
Both boundary values take one helper, ``_boundary_value``: ``kdf_series``
at a point with families, and a pFq at x = 1 that no closed form covers,
which is the value at (1, 0) of the one-factor block
KdFParams([], [], upper, lower, [], []).  It first raises when the terms of
a variable on |z| = 1, with the joint factor, still rise in the fit's
window (``_require_falling``), before any sum; then ``_extrapolate`` takes
the partial sums up to the one index D that the tol sets (``_fit_d``) and
searches the order K of the known-exponent fit
(``_accel.known_exponent_fit``) on them against that tol; it raises when
the search stalls or runs out of points.  The module holds evaluators only;
the identity checks live in ``lvalue`` and ``cli``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, count, islice

from mpmath import mp, mpf, mpmathify

from . import _accel, kernels
from .thetanum import Precision

__all__ = [
    "PFQParams",
    "KdFParams",
    "ConvergenceMargins",
    "SeriesResult",
    "pfq",
    "kdf_margins",
    "kdf_series",
    "kdf_integral",
    "kdf_integrals",
    "quad_de",
    "gauss_2f1_unit_interval",
]


def _as_fraction_tuple(vals) -> tuple:
    vals = tuple(vals)
    for v in vals:
        if not isinstance(v, (Fraction, int, str)):
            raise TypeError(f"parameters must be exact rationals, got {v!r}")
    return tuple(map(Fraction, vals))


def _no_poles(vals, what: str):
    for v in vals:
        if v.denominator == 1 and v <= 0:
            raise ValueError(f"{what} parameter {v} is a nonpositive integer")


@dataclass(frozen=True)
class PFQParams:
    """Upper/lower parameter lists of a (A+1)F_A-type series."""

    upper: tuple
    lower: tuple

    def __init__(self, upper, lower):
        object.__setattr__(self, "upper", _as_fraction_tuple(upper))
        object.__setattr__(self, "lower", _as_fraction_tuple(lower))
        _no_poles(self.lower, "lower")


@dataclass(frozen=True)
class KdFParams:
    """Parameter block of a Kampe de Feriet double series.

    a/ap are the joint (m+n) lists, b/bp weight the first variable, c/cp the
    second.
    """

    a: tuple
    ap: tuple
    b: tuple
    bp: tuple
    c: tuple
    cp: tuple

    def __init__(self, a, ap, b, bp, c, cp):
        for name, vals in zip(("a", "ap", "b", "bp", "c", "cp"), (a, ap, b, bp, c, cp)):
            object.__setattr__(self, name, _as_fraction_tuple(vals))
        for lst, nm in ((self.ap, "ap"), (self.bp, "bp"), (self.cp, "cp")):
            _no_poles(lst, nm)


@dataclass(frozen=True)
class ConvergenceMargins:
    m1: Fraction
    m2: Fraction
    m3: Fraction
    boundary_ok: bool


@dataclass
class SeriesResult:
    value: mpf
    err_estimate: mpf
    terms_used: int
    method: str


# -- constants and conversions -------------------------------------------------


def _to_mpf(v) -> mpf:
    """An exact Fraction, or any number mpmath reads, as an mpf at the working
    precision."""
    return mpf(v.numerator) / v.denominator if isinstance(v, Fraction) else mpmathify(v)


def _gamma(fr: Fraction) -> mpf:
    return mp.gamma(_to_mpf(fr))


def _psi(fr: Fraction) -> mpf:
    return mp.psi(0, _to_mpf(fr))


# -- term recurrence, in fixed point ------------------------------------------


def _fixed_terms(upper, lower, X: int, wp: int):
    """Yield (T_n, s_n, R_n) for n = 0, 1, ...: the terms of
    sum_n prod (u)_n / prod (l)_n x^n / n! as Python ints at 2^wp, the float
    log2 |r_n| of their exact ratio, and a bound on their rise.

    ``upper``/``lower`` are exact rationals and X = x 2^wp an int.  With
    u = p/q, the term ratio is r_n = N_n / (D_n 2^wp) for the integers
    N_n = X prod (p + n q) * prod(lower denominators) and
    D_n = (n + 1) prod (p' + n q') * prod(upper denominators); an upper
    parameter 1 cancels the n!.  T_0 = 2^wp and
    T_{n+1} = floor(T_n N_n / (D_n 2^wp)).  From the first exact zero ratio
    on, every term is 0 and s_n is -inf.

    Rounding: each floor costs at most one ulp (2^-wp), and the ulp lost at
    step k reaches T_j multiplied by |r_k ... r_{j-1}| = |t_j / t_k| for the
    exact terms t.  So T_j is within j G ulps of t_j 2^wp, where
    G = max_{k<=j<=n} |t_j / t_k| < 2^R_n is the largest rise so far.  R_n
    sums the s_n (1e-3 bits spare for float rounding), not the logs of the
    floored terms, which are 0 where the exact ones dip below 2^-wp and may
    grow back.  After a ratio 0, R_n stops.
    """
    ups = [(u.numerator, u.denominator) for u in upper]
    los = [(l.numerator, l.denominator) for l in lower]
    num0 = X * math.prod(l.denominator for l in lower)
    den0 = math.prod(u.denominator for u in upper)
    term, s = 1 << wp, 0.0
    lg = low = rise = 0.0  # log2 |t_n|, its least value so far, and the rise
    for n in count():
        num = num0
        for p, q in ups:
            num *= p + n * q
        den = den0 * (n + 1)
        for p, q in los:
            den *= p + n * q
        s = (math.log2(abs(num)) - math.log2(abs(den)) - wp if num and s > -math.inf
             else -math.inf)
        yield term, s, math.floor(rise + 1e-3) + 1
        term = term * num // (den << wp)
        if s > -math.inf:
            lg += s
            low = min(low, lg)
            rise = max(rise, lg - low)


# -- direct summation: cached coefficient tables, summed by Horner's rule ------

_TERM_CAP = 400_000
# 2*bitlen(_TERM_CAP) covers the rounding of any admissible term count; the
# 8 spare bits cover terms that grow by up to 2^7 before they settle
_PFQ_GUARD = 2 * _TERM_CAP.bit_length() + 8
# a float log2 test passes only when it clears its threshold by this much,
# more than its float error (below 1e-7 bits up to _TERM_CAP terms): a
# near-tie stops a sum late, never early
_LOG2_MARGIN = 2.0 ** -16
# coefficient tables held at once, and evaluation plans
_TABLE_SLOTS = 256


def _degree(upper):
    """The least -u over the upper parameters u that are nonpositive integers,
    where the series ends (a polynomial of that degree); None if none is."""
    return min((int(-u) for u in upper if u.denominator == 1 and u <= 0), default=None)


class _CoeffTable:
    """The coefficients c_n = prod (u)_n / prod (l)_n / n! of one plan's series
    at 2^wp, filled lazily from ``_fixed_terms`` at x = 1.

    Per index n it holds C_n = c_n 2^wp (Python ints, within n G ulps, G the
    rise of the coefficients), the floats log2 |c_n| and log2 |c_(n+1) / c_n|
    (-inf at 0, and the latter from the first zero ratio on) that the stop
    scan reads, and bits_n = R_n + bitlen(max_(k<=n) |C_k| >> wp) + 2, the
    guard bits the rounding bound of ``_direct_sum`` asks for beyond
    2 bitlen(N + 1).  ``plan`` is the plan whose series it holds; the stop
    scan reads its ``warmup``, ``degree`` and ``entire``.  ``log`` is the
    second series of the log expansion (``_LogTable``), made by the first
    such expansion that reads this table.
    """

    __slots__ = ("plan", "wp", "C", "log_c", "log_ratio", "bits", "log", "_terms", "_cmax")

    def __init__(self, plan, wp):
        self.plan, self.wp = plan, wp
        self.C, self.log_c, self.log_ratio, self.bits = [], [], [], []
        self.log = None
        self._terms = _fixed_terms(plan.upper, plan.lower, 1 << wp, wp)
        self._cmax = 0

    def fill(self, n: int):
        """Extend the table through index n, if it ends before it."""
        wp = self.wp
        for term, log_ratio, rise in islice(self._terms, max(n + 1 - len(self.C), 0)):
            self.C.append(term)
            self.log_c.append(math.log2(abs(term)) - wp if term else -math.inf)
            self.log_ratio.append(log_ratio)
            self._cmax = max(self._cmax, abs(term) >> wp)
            self.bits.append(rise + self._cmax.bit_length() + 2)


@lru_cache(maxsize=_TABLE_SLOTS)
def _coeff_table(plan, wp: int) -> _CoeffTable:
    """The one table of ``plan``'s series at 2^wp (keyed by the plan object)."""
    return _CoeffTable(plan, wp)


def _stop_index(table: _CoeffTable, x: mpf, eps: mpf) -> int:
    """The index N at which the direct sum of ``table``'s series at x stops.

    At x = 0 it stops at 0: every later term is exactly 0.  A polynomial
    stops at its degree, for the same reason.  Any other series stops at the
    first index past the warm-up whose three preceding term ratios
    |x| |c_(n+1) / c_n| are at most rho = (1 + |x|)/2 (0.9 for an entire
    series) and whose term bounds the geometric tail:
    |c_N x^N| rho/(1 - rho) <= eps.  Each test is one decision on float log2
    magnitudes, and passes only when it clears its threshold by
    ``_LOG2_MARGIN``, so a near-tie stops the scan late, never early.  A
    degree above ``_TERM_CAP``, or a scan past it, raises ArithmeticError and
    clears the table cache, so no table of a sum that gave up stays behind.
    """
    plan = table.plan
    n = 0 if not x else plan.degree
    if n is not None and n <= _TERM_CAP:
        table.fill(n)
        return n
    if n is None:
        _, mx, ex, _ = x._mpf_
        _, me, ee, _ = eps._mpf_
        rn, rd = (9, 10) if plan.entire else ((1 << -ex) + mx, 1 << (1 - ex))
        lx = math.log2(mx) + ex if mx else -math.inf
        lrho = math.log2(rn) - math.log2(rd)
        ltail = math.log2(me) + ee + math.log2(rd - rn) - math.log2(rd) - lrho
        log_c, log_ratio = table.log_c, table.log_ratio
        # three settled ratios before n > warmup are those at n - 3..n - 1, so
        # the scan starts at warmup - 2, and a count of three implies n > warmup;
        # the last index tested is _TERM_CAP + 1
        n, settled = plan.warmup - 2, 0
        while n <= _TERM_CAP + 1:
            if n >= len(log_c):
                table.fill(n + 63)
            for n in range(n, min(len(log_c), _TERM_CAP + 2)):
                if settled >= 3 and log_c[n] + n * lx - ltail <= -_LOG2_MARGIN:
                    return n
                settled = settled + 1 if log_ratio[n] + lx - lrho <= -_LOG2_MARGIN else 0
            n += 1
    _coeff_table.cache_clear()
    raise ArithmeticError(f"series at x={x} did not meet the tail bound within {_TERM_CAP} terms")


def _direct_sum(plan, x: mpf, eps: mpf):
    """Sum ``plan``'s series at x from its cached coefficient table.

    At x = 0 the sum is its first term, 1.  A polynomial stops at its degree
    N.  Any other series stops once past the warm-up (and past every pole of
    a negative lower parameter), the term ratio has settled below
    rho = (1 + |x|)/2 (or 0.9 for an entire series) for three indices and the
    geometric tail bound |t_N| rho/(1 - rho) drops under eps
    (``_stop_index``).  Returns (value, N + 1), the sum of t_0..t_N.
    ValueError for |x| > 1, whatever the series (the table, built at x = 1,
    loses the terms that |x|^n would magnify), and for |x| = 1 unless the
    series is entire (p <= q) or a polynomial.

    The coefficients C_n = c_n 2^wp, wp = prec + guard, come from the table
    of ``_coeff_table`` for (plan, wp), shared by every x, and are summed at
    X = x 2^wp rounded by the fixed-point Horner loop of ``kernels.horner``,
    the one that also sums the theta series and E0 in ``thetanum``.

    Rounding, in ulps of 2^-wp: C_k lies within k G ulps of exact, G < 2^R_N
    the rise of the coefficients (``_fixed_terms``); each Horner step costs at
    most one ulp; the rounding of X adds at most N^2 max|c_n| ulps.  When
    2 bitlen(N + 1) + R_N + bitlen(max|c_n|) + 2 exceeds the guard, the sum is
    redone with that many guard bits.  So the sum is within 2^-(prec+1) of the
    exact partial sum at x, and the returned mpf within 2^-prec (1 + |value|).
    """
    ax = abs(x)
    if ax > 1 or ax == 1 and not plan.entire and plan.degree is None:
        raise ValueError("direct summation requires |x| < 1, or |x| = 1 for an entire "
                         "series or a polynomial")
    guard = _PFQ_GUARD
    while True:
        table = _coeff_table(plan, mp.prec + guard)
        N = _stop_index(table, x, eps)
        need = 2 * (N + 1).bit_length() + table.bits[N]
        if need <= guard:
            break
        guard = need
    wp = table.wp
    return mp.ldexp(mpf(kernels.horner(table.C, N, kernels.to_fixed(x, wp), wp)), -wp), N + 1


def _pfq_direct(upper, lower, x, eps):
    """``_direct_sum`` of the series with exactly these upper and lower
    parameters, none cancelled; they must be exact rationals (TypeError
    otherwise)."""
    plan = _plan(_as_fraction_tuple(upper), _as_fraction_tuple(lower))
    return _direct_sum(plan, mpmathify(x), mpmathify(eps))


# -- near-unit-argument machinery ---------------------------------------------


class _LogTable:
    """The second series of the log expansion: E_n = floor(C_n H_n / 2^wp)
    for the coefficients C_n of S0 = 2F1(A, B; L; w) at 2^wp (the table that
    holds this one as ``log``) and H_n, the rationals
    h_n = sum_(k<n) [1/(k+1) + 1/(k+L) - 1/(A+k) - 1/(B+k)] in fixed point
    at 2^wp, filled lazily.  Each step adds its four reciprocals, each
    1/(k + p/d) as floor(d 2^wp / (k d + p)), so H_n is within 4n ulps of
    h_n 2^wp.

    With C_n within n G ulps of c_n 2^wp (G the rise of the coefficients,
    ``_fixed_terms``), E_n is within n G (|h_n| + 4 |c_n| + 2) ulps of
    c_n h_n 2^wp: 4n |c_n| from H_n, n G |h_n| from C_n, and one ulp each for
    the floor and the product of the two errors.  bits_n =
    bitlen(hb + 4 cb + 2), with hb = (max_(k<=n) |H_k| >> wp) + 2 and
    cb = (max_(k<=n) |C_k| >> wp) + 2, which bound max |h_k| and max |c_k|,
    so 2^bits_n exceeds that factor of n G.
    """

    __slots__ = ("E", "bits", "_recips", "_wp", "_H", "_hmax", "_cmax")

    def __init__(self, params: tuple, wp: int):
        A, B, L = params
        self._recips = [(v.numerator, v.denominator, v.denominator << wp, sign)
                        for v, sign in ((Fraction(1), 1), (L, 1), (A, -1), (B, -1))]
        self._wp = wp
        self.E, self.bits = [], []
        self._H = self._hmax = self._cmax = 0

    def fill(self, C: list, n: int):
        """Extend the table through index n, from the coefficients C (which
        must already reach it)."""
        wp = self._wp
        for k in range(len(self.E), n + 1):
            H = self._H
            self.E.append(C[k] * H >> wp)
            self._hmax = max(self._hmax, abs(H) >> wp)
            self._cmax = max(self._cmax, abs(C[k]) >> wp)
            self.bits.append((self._hmax + 4 * self._cmax + 12).bit_length())
            self._H = H + sum(sign * (top // (k * d + p)) for p, d, top, sign in self._recips)


def _h_step(A: Fraction, B: Fraction, L: Fraction, k: int) -> Fraction:
    """h_(k+1) - h_k of the log expansion's S0 = 2F1(A, B; L; .)."""
    return Fraction(1, k + 1) + 1 / (k + L) - 1 / (A + k) - 1 / (B + k)


def _log_consts(plan):
    """The finite part's f_k (k < m), pref, K_m, 2 |pref| and H of
    2F1(a, b; a+b+m; .), m >= 0 an integer, and the plan of
    S0 = 2F1(a+m, b+m; m+1; .) (``_hyp2f1_log``).

    H bounds sup_(n>warmup) |h_n| (``_LogTable``), warmup that of S0: |h_n0|
    at n0 = warmup + 1 plus the tail of the increments, which pair off and
    fall like 1/k^2: 1/(k+1) - 1/(a+m+k) = (a+m-1)/((k+1)(k+a+m)) is at most
    |a+m-1|/(k + min(a+m, 1))^2, whose sum over k >= n0 is at most
    |a+m-1|/(n0 - 1 + min(a+m, 1)), and 1/(k+m+1) - 1/(b+m+k) likewise gives
    |b-1|/(n0 - 1 + min(b+m, m+1)).
    """
    a, b, c = plan.split
    m = int(c - a - b)
    sub = _plan((a + m, b + m), (Fraction(m + 1),))
    n0 = sub.warmup + 1
    h = sum((_h_step(*sub.upper, *sub.lower, k) for k in range(n0)), Fraction(0))
    h_tail = (abs(h) + abs(a + m - 1) / (n0 - 1 + min(a + m, 1))
              + abs(b - 1) / (n0 - 1 + min(b + m, m + 1)))
    pref = _gamma(c) / (_gamma(a) * _gamma(b) * math.factorial(m)) * (-1) ** m
    gf = _gamma(c) / (_gamma(a + m) * _gamma(b + m))
    fin = [gf * _to_mpf(math.prod((a + j) * (b + j) / (j + 1) for j in range(k))
                        * (-1) ** k * math.factorial(m - k - 1)) for k in range(m)]
    k0 = _psi(Fraction(1)) + _psi(Fraction(m + 1)) - _psi(a + m) - _psi(b + m)
    return fin, pref, k0, 2 * abs(pref), _to_mpf(h_tail), sub


def _hyp2f1_log(plan, x, omx, eps, logs=None):
    """2F1(a, b; a+b+m; x), ``plan``'s series for an integer excess m >= 0,
    by the logarithmic expansion around x = 1 (DLMF 15.8.10, Abramowitz &
    Stegun 15.3.10-11), in w = 1 - x = ``omx``:

        sum_(k<m) f_k w^k + pref w^m [(K_m - ln w) S0(w) + S1(w)],

    f_k = Gamma(c) (a)_k (b)_k (m-k-1)! (-1)^k / (Gamma(a+m) Gamma(b+m) k!),
    pref = (-1)^m Gamma(c)/(Gamma(a) Gamma(b) m!),
    K_m = psi(1) + psi(m+1) - psi(a+m) - psi(b+m), S0 = 2F1(a+m, b+m; m+1; w)
    = sum c_n w^n and S1 = sum c_n h_n w^n (``_LogTable``).  S0 and S1 are
    summed by Horner's rule to the one stop index N of S0 (``_stop_index``)
    at one X = w 2^wp.  At w = 0 (m >= 1, since m = 0 diverges at 1) the
    value is f_0, the Gauss sum Gamma(c) Gamma(m)/(Gamma(c-a) Gamma(c-b)).

    Tail: S0 stops at eps0 = eps / (2 |pref| (|K_m - ln w| + H)), H >=
    sup_(n>N) |h_n| (``_log_consts``), so S1's tail is at most H eps0 and
    the two tails together, times |pref| w^m <= |pref|, cost at most eps/2.
    Rounding: S0 is within 2^-(prec+1) as in ``_direct_sum``; the log table
    carries h_n in fixed point, within 4n ulps, so E_n is within
    n G (max|h| + 4 max|c| + 2) < n G 2^bits_n ulps (``_LogTable``), the
    guard also covers the log table's ``bits`` and S1 is within 2^-(prec+1)
    too; the m finite terms and the products round at the working
    precision.  With ``logs`` = (ln x, ln w) from the caller, K_m - ln w
    reads that ln w in place of mp.log(w); a node table gives it within 8
    ulps at the working precision p, relatively (``_de_nodes``), so
    K_m - ln w moves by at most 2^(3-p) |ln w|.  Returns (value, m + N + 1).
    """
    fin, pref, k0, two_apref, h_tail, sub = plan.consts(_log_consts)
    if not omx:
        return fin[0], 1
    kw = k0 - (mp.log(omx) if logs is None else logs[1])
    guard = _PFQ_GUARD
    while True:
        table = _coeff_table(sub, mp.prec + guard)
        N = _stop_index(table, omx, eps / (two_apref * (abs(kw) + h_tail)))
        if table.log is None:
            table.log = _LogTable(sub.upper + sub.lower, table.wp)
        log_table = table.log
        log_table.fill(table.C, N)
        need = 2 * (N + 1).bit_length() + table.bits[N] + log_table.bits[N]
        if need <= guard:
            break
        guard = need
    wp = table.wp
    X = kernels.to_fixed(omx, wp)
    s0 = mp.ldexp(mpf(kernels.horner(table.C, N, X, wp)), -wp)
    s1 = mp.ldexp(mpf(kernels.horner(log_table.E, N, X, wp)), -wp)
    finite = sum(f * omx ** k for k, f in enumerate(fin))
    return finite + pref * omx ** len(fin) * (kw * s0 + s1), len(fin) + N + 1


def _gauss_summation(a: Fraction, b: Fraction, c: Fraction):
    """2F1(a, b; c; 1) for positive excess, by the gamma-ratio formula."""
    return _gamma(c) * _gamma(c - a - b) / (_gamma(c - a) * _gamma(c - b))


def _connection_consts(plan):
    """The Gauss sums of (a, b; c) and (c-a, c-b; c), the excess c - a - b
    as an mpf, and the plans of the two series of the connection formula."""
    a, b, c = plan.split
    return (_gauss_summation(a, b, c), _gauss_summation(c - a, c - b, c), _to_mpf(c - a - b),
            _plan((a, b), (a + b - c + 1,)), _plan((c - a, c - b), (1 - a - b + c,)))


def _omx_power(omx, s, logs):
    """(1 - x)^s from ``omx`` = 1 - x: ``omx ** s``, or, with ``logs`` =
    (ln x, ln(1 - x)) from the caller, exp(s ln(1 - x)), one exp in place of
    a power.  A node table gives ln(1 - x) within 8 ulps at the working
    precision p, relatively (``_de_nodes``), so the argument is within
    9 |s ln(1 - x)| ulps and the exp within (1 + 9 |s ln(1 - x)|) 2^-p of
    (1 - x)^s, relatively."""
    return omx ** s if logs is None else mp.exp(s * logs[1])


def _hyp2f1_connection(plan, x, omx, eps, logs=None):
    """2F1(a, b; c; x), ``plan``'s series, for non-integer c-a-b via the
    two-series expansion in 1 - x, whose coefficients are the Gauss sums of
    (a, b; c) and (c-a, c-b; c); w^(c-a-b), w = 1 - x, is ``_omx_power``.
    """
    g1, g2, e, s1, s2 = plan.consts(_connection_consts)
    f1, n1 = _direct_sum(s1, omx, eps)
    f2, n2 = _direct_sum(s2, omx, eps)
    return g1 * f1 + _omx_power(omx, e, logs) * g2 * f2, n1 + n2


def _f32_consts(plan):
    """a and 1 - a as mpfs, C(a) = psi(1) - psi(1-a), and the plan of
    2F1(1, 1-a; 2-a; .) for 3F2(1, 1, a+1; 2, 2; .)."""
    a = plan.f32
    am = _to_mpf(a)
    return (am, 1 - am, _psi(Fraction(1)) - _psi(1 - a),
            _plan((Fraction(1), 1 - a), (2 - a,)))


def _f32_ones_tail(plan, x, omx, eps, logs=None):
    """3F2(1, 1, a+1; 2, 2; x), ``plan``'s series, for 0 < a < 1 near x = 1,
    or at it (omx = 0, where the tail T vanishes and the value is C(a)/a).

    Termwise integration of the binomial identity gives
    a*x*3F2 = C(a) - T(a, 1-x) with C(a) = psi(1) - psi(1-a) and
    T(a, w) = sum_k [w^(k+1-a)/(k+1-a) - w^(k+1)/(k+1)]
            = w^(1-a)/(1-a) 2F1(1, 1-a; 2-a; w) + log(1 - w),
    the 2F1 summed by ``_direct_sum`` with its certified tail.

    w^(1-a) is ``_omx_power``.  With ``logs`` = (ln x, ln w) from the
    caller, log(1 - w) is ln x, within 2^(3-p) |ln x| at the working
    precision p (``_de_nodes``): no log1p.
    """
    am, bm, cconst, sub = plan.consts(_f32_consts)
    w = omx
    f21, n = _direct_sum(sub, w, eps)
    tail = _omx_power(w, bm, logs) / bm * f21 + (mp.log1p(-w) if logs is None else logs[0])
    return (cconst - tail) / (am * x), n


_NEAR_ONE_SWITCH = mpf("0.5")
_DIRECT_LIMIT = mpf("0.95")


# -- evaluation plans: the parameter work of a pFq, done once -----------------


class _Plan:
    """What evaluating pFq(upper; lower; x) needs that x does not change,
    built once per exact (upper, lower) by ``_plan``.

    ``upper``/``lower`` are the parameters as given, and ``warmup``,
    ``degree`` (``_degree``) and ``entire`` (p <= q) those of their series,
    whose coefficient tables ``_direct_sum`` reads (``_coeff_table``, keyed
    by the plan).  For the dispatch (``eval``), repeated parameters cancel to
    ``up``/``lo``, with p and q entries; ``series`` is the plan of that
    cancelled series, which the "direct" exit sums (the plan itself when
    nothing cancels).  No lower parameter is a nonpositive integer
    (``_no_poles``), so no upper one that ends the series cancels, and the
    cancelled series is a polynomial exactly when ``degree`` is not None.
    The scope facts: ``near_one`` (p = q + 1 and not a polynomial: the series
    that the branches in 1 - x take), ``excess_ok`` (a positive excess
    sum(lo) - sum(up)), ``f32`` (the a of 3F2(1, 1, a+1; 2, 2) with
    0 < a < 1), ``other`` (the a of 2F1(1, a; 2), a != 1), ``split`` (the
    (a, b, c) of a 2F1) and ``expansion``, the branch in 1 - x that a 2F1
    takes at 1/2 < x <= 1 (``_hyp2f1_log`` at an integer c - a - b >= 0,
    ``_hyp2f1_connection`` at a non-integer one, else None).  Each branch's
    constants, and the plans of the series it sums, are built on first use
    at each working precision (``consts``).  A plan holds no coefficient
    table and no value that depends on x.
    """

    __slots__ = ("upper", "lower", "warmup", "degree", "entire", "up", "lo", "p", "q",
                 "series", "near_one", "excess_ok", "f32", "other", "split", "expansion",
                 "_consts")

    def __init__(self, upper: tuple, lower: tuple):
        self.upper, self.lower = upper, lower
        # no tail is certified before the terms pass every pole -l of a
        # negative lower parameter, where they can grow again
        self.warmup = max(8 + int(4 * max((abs(float(u)) for u in upper), default=0)),
                          math.floor(max((-l for l in lower), default=0)) + 2)
        self.degree = _degree(upper)
        self.entire = len(upper) <= len(lower)
        # exact cancellation of repeated parameters
        up, lo = list(upper), list(lower)
        for v in list(up):
            if v in lo:
                up.remove(v)
                lo.remove(v)
        self.up, self.lo, self.p, self.q = tuple(up), tuple(lo), len(up), len(lo)
        cancelled = self.up != upper or self.lo != lower
        self.series = _plan(self.up, self.lo) if cancelled else self
        self.near_one = self.p == self.q + 1 and self.degree is None
        self.excess_ok = sum(lo, Fraction(0)) > sum(up, Fraction(0))
        self.f32 = _match_f32_ones(up, lo)
        self.other = self.split = self.expansion = None
        if self.p == 2 and self.q == 1:
            a, b, c = self.split = (*up, *lo)
            if c == 2 and Fraction(1) in up and a != b:
                self.other = b if a == 1 else a
            if (c - a - b).denominator != 1:
                self.expansion = _hyp2f1_connection
            elif c - a - b >= 0:
                self.expansion = _hyp2f1_log
        self._consts = {}

    def consts(self, build):
        """``build(self)``, computed once per working precision."""
        key = build, mp.prec
        got = self._consts.get(key)
        if got is None:
            got = self._consts[key] = build(self)
        return got

    def eval(self, x: mpf, omx, eps: mpf, logs=None):
        """The real-argument dispatch at x; returns (value, terms, method, bar).

        ``x`` is an mpf, ``omx`` the complement 1 - x, or None to form it
        from x; at the unit argument (x = 1 and omx <= 0) omx is 0.
        ``logs``, when given, is (ln x, ln(1 - x)), the logs of 1 - omx and
        of omx (of 1 - x and x when omx is None), as a quadrature node
        carries them (``_de_nodes``); the
        branches in 1 - x then take their powers of 1 - x as one exp
        (``_omx_power``) and their logs from it ("binomial", "log",
        "connection", "f32-tail"), and the others ignore it.  The logs change no scope check and no
        choice of branch; without them every branch forms its own.  The scope
        is checked before any branch: ValueError for |x| > 1, and, unless the
        series terminates (an upper parameter that is a nonpositive integer),
        for p > q + 1 upper parameters and for x = 1 when p = q + 1 and the
        excess sum(lower) - sum(upper) is nonpositive, 1F0 included.  Each
        algorithm has one exit, 11 in all with the raises, and ``method``
        names it: "binomial" ((1 - x)^-a for 1F0, and 2F1(1, a; 2; x)),
        "f32-tail" (3F2(1, 1, a+1; 2, 2; x) for x > 1/2, 1 included),
        "accelerated" (``_boundary_value`` of the one-factor block at
        (1, 0)) for other sums at 1 but a 2F1's, "log" and "connection" (the
        2F1 expansions in 1 - x for x > 1/2, 1 included, where each is the
        Gauss sum), and
        "direct" (``_direct_sum``) for p <= q, a polynomial, or |x| <= 0.95
        where no branch above applies; all but "binomial" 1F0 and "direct"
        take only a non-terminating p = q + 1 series at |x| > 1/2.  Such a
        series at |x| > 0.95 that no branch covers raises ArithmeticError, as
        does a sum at 1 whose terms still rise in the fit's window
        (``_require_falling``, before any partial sum).  ``bar`` is the
        fit's measured bar on the "accelerated" branch and None on the
        others.  Every x-independent
        part (the cancellation, the scope facts, the branch constants and the
        coefficient tables) is computed once per plan; a caller that
        evaluates one series at many x, as ``kdf_integrals`` does, holds the
        plan and calls its ``eval``.
        """
        if omx is None:
            omx = 1 - x
        at_one = x == 1 and omx <= 0
        if at_one:
            omx = mpf(0)
        if self.p > self.q + 1 and self.degree is None:
            raise ValueError("series diverges: too many upper parameters")
        ax = abs(x)
        if ax > 1:
            raise ValueError("arguments beyond |x| = 1 are out of scope")
        if at_one and self.near_one and not self.excess_ok:
            raise ValueError("series diverges at x = 1 (nonpositive excess)")
        if self.p == 1 and self.q == 0:
            return _omx_power(omx, -_to_mpf(self.up[0]), logs), 1, "binomial", None
        if self.near_one and ax > _NEAR_ONE_SWITCH:
            if self.f32 is not None and x > 0:
                return *_f32_ones_tail(self, x, omx, eps, logs), "f32-tail", None
            if at_one and self.split is None:
                # the partial sums at 1 are the anti-diagonal sums of the
                # one-factor block at (1, 0)
                val, bar, D = _boundary_value(KdFParams([], [], self.up, self.lo, [], []),
                                              x, mpf(0), eps)
                return val, D + 1, "accelerated", bar
            if self.other is not None:
                # binomial closed form, valid on [-1, 1) and, for a positive
                # excess 1 - a, at 1.  With the logs, at x > 1/2 the exp's
                # argument is at least |a-1| ln 2 in size, so subtracting 1
                # cancels no more than it does from the power
                am = _to_mpf(self.other - 1)
                return (_omx_power(omx, -am, logs) - 1) / (am * x), 1, "binomial", None
            # the expansions in powers of 1 - x need x near 1
            if self.expansion is _hyp2f1_log and x > 0:
                return *_hyp2f1_log(self, x, omx, eps, logs), "log", None
            if self.expansion is _hyp2f1_connection and x > 0:
                return *_hyp2f1_connection(self, x, omx, eps, logs), "connection", None
        if self.p <= self.q or self.degree is not None or ax <= _DIRECT_LIMIT:
            return *_direct_sum(self.series, x, eps), "direct", None
        raise ArithmeticError(
            f"no fast evaluation path for {list(self.up)}/{list(self.lo)} at x={x}; "
            "argument too close to 1"
        )


@lru_cache(maxsize=_TABLE_SLOTS)
def _plan(upper: tuple, lower: tuple) -> _Plan:
    return _Plan(upper, lower)


def _require_falling(upper, lower, D: int):
    """Raise ArithmeticError when the terms of sum prod (u)_n / prod (l)_n / n!
    at x = 1, p = q + 1 with a positive excess s, still rise,
    |t_(n+1)| > |t_n|, at an index n at or past ceil(0.35 D), where the fit's
    window starts (``_accel.max_order``): the partial sums up to D then show
    a plateau that the fit reads as the limit.

    The exact ratio is r_n = prod (u + n) / ((n + 1) prod (l + n)).  Past
    every negative parameter each factor is positive, and r_n > 1 exactly
    where P(n) = (n + 1) prod (l + n) - prod (u + n) < 0.  P has degree q and
    leading coefficient 1 + s > 0, so no root lies past Cauchy's bound
    1 + max |P_i| / (1 + s).  The ratios are read from the larger of the two
    bounds down to the window's start.  ``_boundary_value`` calls it for
    each variable on |z| = 1, before any partial sum, for ``kdf_series`` at a
    boundary point and for the pFq exit at 1 (``_Plan.eval``).
    """
    def poly(roots):  # the coefficients of prod (n + v), lowest first
        return reduce(lambda c, v: [v * lo + hi for lo, hi in zip(c + [0], [0] + c)], roots, [1])

    P = [l - u for l, u in zip(poly((1, *lower)), poly(upper))][:-1]
    top = max(1 + max(map(abs, P[:-1]), default=0) / P[-1], *(-v for v in upper + lower))
    start = -(-7 * D // 20)
    for n in range(math.floor(top), start - 1, -1):
        if abs(math.prod(u + n for u in upper)) > abs((n + 1) * math.prod(l + n for l in lower)):
            factor = "; ".join(", ".join(map(str, vals)) for vals in (upper, lower))
            raise ArithmeticError(f"the terms of pFq({factor}; 1) still rise at n = {n}, "
                                  f"past the start {start} of the fit's window at D = {D}")


def _match_f32_ones(up, lo):
    """Detect 3F2(1, 1, a+1; 2, 2; .) with 0 < a < 1; returns a or None."""
    s = sorted(up)
    if sorted(lo) == [2, 2] and len(s) == 3 and s[:2] == [1, 1] and 0 < s[2] - 1 < 1:
        return s[2] - 1
    return None


def gauss_2f1_unit_interval(a, b, c, x, omx):
    """2F1(a, b; c; x) for x in (0, 1) given the complement 1 - x explicitly.

    Works at the caller's precision: x and omx are read at mp.dps digits and
    the tails are certified to 10^(5 - mp.dps).
    """
    plan = _plan(_as_fraction_tuple((a, b)), _as_fraction_tuple((c,)))
    return plan.eval(mpmathify(x), mpmathify(omx), mpf(10) ** (5 - mp.dps))[0]


def pfq(params: PFQParams, x, prec: Precision, x_complement=None) -> SeriesResult:
    """Evaluate the generalized hypergeometric series at a real argument.

    |x| < 1, or x = 1 with positive parameter excess, or a terminating
    series (a polynomial) at any |x| <= 1 whatever p and q are; any other
    input, 1F0 at 1 included, raises ValueError (``_Plan.eval``).  ``x_complement``
    may supply 1 - x to full accuracy when x is close to 1.  The
    "accelerated" branch reports the fit's measured bar; the others report
    tol.
    """
    with mp.workdps(prec.dps + 10):
        omx = None if x_complement is None else _to_mpf(x_complement)
        val, terms, method, bar = _plan(params.upper, params.lower).eval(_to_mpf(x), omx,
                                                                          prec.tol() / 10)
        return SeriesResult(val, prec.tol() if bar is None else bar, terms, method)


# -- Kampe de Feriet ----------------------------------------------------------


def kdf_margins(params: KdFParams) -> ConvergenceMargins:
    """The three boundary absolute-convergence margins (exact rationals).

    The unprimed b and c lists enter in full (B+1 and C+1 entries), matching
    the shape for which the conditions are stated.
    """
    sa, sap = sum(params.a, Fraction(0)), sum(params.ap, Fraction(0))
    sb, sbp = sum(params.b, Fraction(0)), sum(params.bp, Fraction(0))
    sc, scp = sum(params.c, Fraction(0)), sum(params.cp, Fraction(0))
    m1 = sap + sbp - sa - sb
    m2 = sap + scp - sa - sc
    m3 = sap + sbp + scp - sa - sb - sc
    return ConvergenceMargins(m1, m2, m3, min(m1, m2, m3) > 0)


def _require_boundary_shape(params: KdFParams):
    if not (
        len(params.a) == len(params.ap)
        and len(params.b) == len(params.bp) + 1
        and len(params.c) == len(params.cp) + 1
    ):
        raise ValueError(
            "unsupported shape: boundary evaluation needs joint lists of equal "
            "length and exactly one extra upper parameter per variable"
        )


def _kdf_partial_sums(params: KdFParams, x, y, D: int):
    """Anti-diagonal partial sums S_0..S_D of the double series, as mpfs,
    and a bound on the error of each.

    S_d = sum_{k<=d} A_k * sum_{m+n=k} B_m C_n.  A, B and C come from
    ``_fixed_terms`` as ints at 2^wp (wp no less than the exponents of x and
    y, so X and Y are exact); ``kernels.conv_trunc`` takes the inner sums
    exactly at 2^(2 wp), and S_d is summed exactly at 2^(3 wp), then rounded.

    Rounding: a factor's terms are within e = D G ulps of the exact ones (G
    their largest rise, ``_fixed_terms``) and below M = max|T| + e.  So each
    product A_k B_m C_n is off by at most e_A M_B M_C + M_A e_B M_C +
    M_A M_B e_C units of 2^-(3 wp), and S_d sums at most (D + 1)(D + 2)/2 of
    them.  From wp = prec + 3 bitlen(D) + 4 (enough for terms that stay
    below 1 and never rise), the terms are rebuilt with wp raised by the
    excess while that bound exceeds 2^(3 wp - prec).  The int sums are then
    within 2^-prec of the exact ones, and the returned mpfs within the
    returned bound 2^-prec (1 + max_d |S_d|).
    """
    prec = mp.prec
    wp = max(prec + 3 * D.bit_length() + 4, -x.man_exp[1], -y.man_exp[1])
    factors = (((*params.a, 1), params.ap, 1), (params.b, params.bp, x),
               (params.c, params.cp, y))
    while True:
        runs = [tuple(zip(*islice(_fixed_terms(u, l, int(mp.ldexp(z, wp)), wp), D + 1)))
                for u, l, z in factors]
        (eA, mA), (eB, mB), (eC, mC) = ((D << R[-1], max(map(abs, T)) + (D << R[-1]))
                                        for T, _, R in runs)
        err = (D + 1) * (D + 2) // 2 * (eA * mB * mC + mA * eB * mC + mA * mB * eC)
        excess = err.bit_length() - (3 * wp - prec)
        if excess <= 0:
            break
        wp += excess
    (A, *_), (B, *_), (C, *_) = runs
    inner = kernels.conv_trunc(B, C, D)
    sums = [+mp.ldexp(s, -3 * wp) for s in accumulate(a * i for a, i in zip(A, inner))]
    return sums, mp.ldexp(1 + max(map(abs, sums)), -prec)


def _singular_part(upper, lower):
    """(s, m) for the singular part (1 - w)^s log^m (1 - w) of the factor
    pFq(upper; lower; w) at w = 1: s is the excess sum(lower) - sum(upper), and
    m = 1 when s is an integer, else 0.  None for a polynomial (an upper
    parameter that is a nonpositive integer), which has no singular part."""
    if _degree(upper) is not None:
        return None
    s = sum(lower, Fraction(0)) - sum(upper, Fraction(0))
    return s, int(s.denominator == 1)


def _kdf_families(params: KdFParams, x, y):
    """The remainder families of the anti-diagonal sums at a boundary point,
    as the (e, lmax, sign) tuples of ``_accel.known_exponent_fit``.

    Singularity analysis of sum_d S_d z^d (Flajolet & Sedgewick, *Analytic
    Combinatorics*, ch. VI): with B(w) = pFq(b; bp; w), C(w) = pFq(c; cp; w)
    and their singular parts (``_singular_part``), the singular terms of
    B(xz) C(yz) on |z| = 1 are B's alone at z = x when |x| = 1, C's alone at
    z = y when |y| = 1, and the product B C at that point only when x = y
    (exponents and log powers add).  A term (1 - z)^alpha log^m (1 - z) at
    z = 1, times the joint factor (a)_k/(ap)_k ~ k^-sa with
    sa = sum(ap) - sum(a), leaves remainder functions N^-(sa + alpha + j)
    (log N)^l for j >= 0 and l <= m, or l <= m - 1 when alpha is an integer
    >= 0; at z = -1 they are (-1)^N N^-(sa + alpha + 1 + j) (log N)^l.  Only
    the product can be analytic (alpha an integer >= 0, m = 0: no family), so
    there are families exactly when a non-polynomial factor is on |z| = 1.
    Families whose exponents agree mod 1 and share a sign merge: from the
    smallest exponent, with the largest log power.
    """
    sa = sum(params.ap, Fraction(0)) - sum(params.a, Fraction(0))
    pb = _singular_part(params.b, params.bp) if abs(x) == 1 else None
    pc = _singular_part(params.c, params.cp) if abs(y) == 1 else None
    terms = [(p, z) for p, z in ((pb, x), (pc, y)) if p is not None]
    if pb is not None and pc is not None and x == y:
        terms.append(((pb[0] + pc[0], pb[1] + pc[1]), x))
    merged = {}
    for (alpha, m), z in terms:
        lmax = m - 1 if alpha.denominator == 1 and alpha >= 0 else m
        if lmax < 0:
            continue
        e, sign = (sa + alpha, 1) if z > 0 else (sa + alpha + 1, -1)
        e0, l0 = merged.get((e % 1, sign), (e, lmax))
        merged[e % 1, sign] = (min(e, e0), max(lmax, l0))
    return tuple(sorted((e, lmax, sign) for (_, sign), (e, lmax) in merged.items()))


# the D of the boundary fit, by the tol: (floor, D) rows, the first whose
# floor the tol reaches (``_fit_d``)
_FIT_D = ((1e-13, 160), (1e-34, 320), (1e-70, 640), (0.0, 1280))
# the largest D that the direct route of kdf_series builds
_DIRECT_D_MAX = 20_000


def _fit_d(tol) -> int:
    """The D of the partial sums S_0..S_D that the boundary fit takes at this
    tol: a table of the tol alone (``_FIT_D``), not a search; nothing retries
    at a larger D.

    D is a cost choice; the fit's bar stays measured.  A larger D costs
    O(D^2) more in the partial sums and lowers the order K* at which the
    search stops, and with it the weight norm.  The fit's grid has step 3,
    so the search has ``_accel.max_order(D)`` = 34, 69, 138 and 277 orders
    at D = 160, 320, 640 and 1280.  Each row takes the smallest D whose cap
    is at least a quarter above the largest K* at the row's floor of the
    six Theorem blocks at (1, 1), the 32 blocks of perfbench's pool at
    (1, 1), and pFq at 1 (the generic 3F2(1/2, 3/4, 1; 5/4, 2) and four
    Dixon 3F2, whose fit tol is the pFq tol / 10).  Measured at the floor
    (1e-90 on the last row), with the working precision of ``kdf_series``,
    or of ``pfq``, at the loosest digits the tol allows (``Precision``), and
    the seconds of the six Theorem calls in one fresh process (2-vCPU AMD
    EPYC, mpmath's python backend):

        tol >=   D     cap   K*: Theorem  pool  pFq   (seconds)
        1e-13    160    34        22        26    12   (0.05)
        1e-34    320    69        54        54    18   (0.5)
        1e-70    640   138       106       106    32   (6.8)
        0       1280   277       112       112    36   (25.8)

    The deep-dip 3F2(1, 1, 1; -199/2, 110) is refused on every row before
    any sum (``_require_falling``): its terms rise up to n = 1287, and the
    fit would stop on a plateau on the D = 160 and 1280 rows (K = 12 and
    124), stall at K = 16 on the D = 320 row and run out of orders on the
    D = 640 row.
    One row less would run out of orders: L2a at D = 160 and 1e-20, L1 at
    D = 320 and 1e-45, L1 at D = 640 and 1e-90.  One row more costs more
    than it saves: D = 320 at 1e-12 (0.08 s), 640 at 1e-40 (1.6 s against
    0.7 s), 1280 at 1e-60 (6.6 s against 3.7 s), 2560 at 1e-90 (52 s).
    """
    return next(D for floor, D in _FIT_D if tol >= floor)


def _extrapolate(partial_sums, families, tol):
    """The limit of a series whose remainder has the given ``families``
    (``_accel.known_exponent_fit``, at least one), from its partial sums;
    returns (value, bar).

    ``partial_sums()`` returns S_0..S_D as mpfs and a bound r on the error of
    each, both at the working precision.  The fit order K steps 8, 10, 12, ...
    The search stops at the first K whose last two gaps |V_K - V_(K-2)| and
    |V_(K-2) - V_(K-4)| are both at most tol/8, and the bar is those two gaps
    plus r sum |w|.  When r sum |w| would pass tol/8, the sums are rebuilt
    with the precision raised to cover it, and 64 bits more.  The search
    raises ArithmeticError when it stalls: when the larger of the last two
    gaps, the measure the stop takes, is no smaller than at an earlier K for
    two orders in a row.  One gap alone can fall far below the trend, as the
    fits of neighbouring orders share all their points but one; the larger
    of two does not.  It also raises when the next K has no points left
    (K > ``_accel.max_order(D)``).  No fallback.
    """
    prec = mp.prec
    sums, rounding = partial_sums()
    D, K = len(sums) - 1, 0
    vals, gaps = [], []
    for K in range(8, _accel.max_order(D) + 1, 2):
        with mp.workprec(prec):
            val, wsum = _accel.known_exponent_fit(sums, families, K)
        if wsum * rounding > tol / 8:
            prec += int(mp.ceil(mp.log(wsum * rounding * 8 / tol, 2))) + 64
            with mp.workprec(prec):
                sums, rounding = partial_sums()
                val, wsum = _accel.known_exponent_fit(sums, families, K)
        if vals:
            gaps.append(abs(val - vals[-1]))
            pairs = list(map(max, gaps, gaps[1:]))
            if pairs and pairs[-1] <= tol / 8:
                return val, gaps[-1] + gaps[-2] + wsum * rounding
            if len(pairs) >= 3 and min(pairs[-2:]) >= min(pairs[:-2]):
                break
        vals.append(val)
    raise ArithmeticError(
        f"boundary extrapolation did not reach {mp.nstr(tol, 3)} at D = {D} (last K = {K})"
    )


def _boundary_value(params: KdFParams, x, y, tol):
    """The limit of the anti-diagonal sums of ``params`` at a point (x, y)
    with families (``_kdf_families``); returns (value, bar, D).

    First, for each variable on |z| = 1 whose series with the joint factor,
    the other variable at 0 (upper a + b over lower ap + bp for x, a + c over
    ap + cp for y), is not a polynomial, ``_require_falling`` refuses terms
    that still rise in the fit's window, before any sum is taken: the S_d
    then show a plateau that the fit reads as the limit.  Then
    ``_extrapolate`` fits S_0..S_D, D = ``_fit_d(tol)``, against the
    families, at the caller's working precision.
    """
    D = _fit_d(tol)
    for z, up, lo in ((x, params.b, params.bp), (y, params.c, params.cp)):
        if abs(z) == 1 and _degree(params.a + up) is None:
            _require_falling(params.a + up, params.ap + lo, D)
    val, err = _extrapolate(lambda: _kdf_partial_sums(params, x, y, D),
                            _kdf_families(params, x, y), tol)
    return +val, +err, D


def _bidisc_point(x, y):
    """x and y as mpfs, inside the closed unit bidisc (else ValueError)."""
    xx, yy = _to_mpf(x), _to_mpf(y)
    if abs(xx) > 1 or abs(yy) > 1:
        raise ValueError("arguments beyond the closed unit bidisc are out of scope")
    return xx, yy


def kdf_series(params: KdFParams, x, y, prec: Precision) -> SeriesResult:
    """Anti-diagonal summation of the double series.

    Where a factor that is not a polynomial sits on |z| = 1 (the point has
    families, ``_kdf_families``), the shape and the margins are checked and
    the value is ``_boundary_value`` (``"accelerated"``): the refusal of
    terms that still rise in the fit's window (``_require_falling``), then
    the known-exponent fit of S_0..S_D, D set by the tol (``_fit_d``), with
    its measured bar below tol; a refusal, or a search that stalls or runs
    out of points, raises ArithmeticError.  Every other point is summed
    (``"direct"``) past the degree of each polynomial factor with z != 0, to
    the geometric tail bound
    |T_D| rate/(1 - rate), T_d = S_d - S_(d-1).  Its rate is measured:
    max(rho, (1 + t)/2), with rho = (1 + r)/2, r the largest |z| of a factor
    that is not a polynomial, and t = |T_D / T_(D-1)| (rho alone when
    T_(D-1) is lost in the rounding of two partial sums).  D doubles, up to ``_DIRECT_D_MAX``, until the
    bound is below tol; a build at that cap that fails it raises
    ArithmeticError.  The bar is the bound plus the rounding bound of the
    partial sums.  At r = 0 the series is finite: it is summed to its
    degree, and the bar is the rounding bound alone.
    """
    with mp.workdps(prec.dps + 15):
        xx, yy = _bidisc_point(x, y)
        if _kdf_families(params, xx, yy):
            _require_boundary_shape(params)
            margins = kdf_margins(params)
            if not margins.boundary_ok:
                raise ValueError(f"boundary evaluation rejected: margins {margins.m1}, "
                                 f"{margins.m2}, {margins.m3} are not all positive")
            val, err, D = _boundary_value(params, xx, yy, prec.tol())
            return SeriesResult(val, err, (D + 1) * (D + 2) // 2, "accelerated")
        factors = [(_degree(u), abs(z)) for u, z in ((params.b, xx), (params.c, yy))]
        r = max((z for d, z in factors if d is None), default=mpf(0))
        deg = sum(d for d, z in factors if d is not None and z != 0)
        if deg > _DIRECT_D_MAX:
            raise ArithmeticError(
                f"a polynomial factor of degree {deg} is beyond D = {_DIRECT_D_MAX}")
        rho, tol = (1 + r) / 2, prec.tol() / 4
        need = int(float(mp.log(tol) / mp.log(rho))) + 40
        # polynomial terms do not decay: D passes their degree, and at r = 0
        # the series ends there, so S_deg is the value with no tail to bound
        D = deg if r == 0 else max(48, deg + 2, min(need, _DIRECT_D_MAX))
        while True:
            sums, rounding = _kdf_partial_sums(params, xx, yy, D)
            bound = 0
            if r != 0:
                last, prev = sums[-1] - sums[-2], sums[-2] - sums[-3]
                rate = max(rho, (1 + abs(last / prev)) / 2) if abs(prev) > 2 * rounding else rho
                bound = abs(last) * rate / (1 - rate) if rate < 1 else mp.inf
            if bound <= tol:
                break
            if D >= _DIRECT_D_MAX:
                raise ArithmeticError("direct double series failed its tail bound")
            D = min(2 * D, _DIRECT_D_MAX)
        return SeriesResult(+sums[-1], +(bound + rounding), (D + 1) * (D + 2) // 2, "direct")


def kdf_integral(params: KdFParams, x, y, prec: Precision) -> SeriesResult:
    """Beta-weighted integral representation for one joint parameter pair:
    ``kdf_integrals`` of the one block."""
    return kdf_integrals((params,), x, y, prec)[0]


def kdf_integrals(blocks, x, y, prec: Precision) -> list:
    """The beta-weighted integral representation of each block at one point
    (x, y), one SeriesResult per block, in order.

    Each block needs len(a) == len(ap) == 1 and ap > a > 0 (ValueError
    otherwise, before any node).  The inner single-variable factors are
    evaluated through ``pfq``'s near-unit machinery, so the quadrature nodes
    may approach t = 1 without losing the integrand.  Each block runs its own
    ``quad_de``, with its own side cuts, stop level and bar, so its result is
    the one a call on that block alone returns.  The blocks share one
    precision, so they walk the same node tuples (``_de_nodes``), and the
    factors they share are evaluated once per node: each distinct factor,
    keyed by its (upper, lower) and its variable, has its plan (``_plan``)
    looked up once per call, and its value at a node is kept in a table local
    to the call, which every block that reads that factor reads; nothing
    outlives the call.  Every node reads its ln t and ln(1 - t) from the node
    table (``quad_de``): the weight t^(a-1) (1-t)^(ap-a-1) is one
    exp((a-1) ln t + (ap-a-1) ln(1-t)), and none when both exponents are 0,
    and a factor at z = 1, whose argument is the node itself, takes both
    logs into its ``eval``.
    """
    blocks = tuple(blocks)
    for params in blocks:
        if len(params.a) != 1 or len(params.ap) != 1:
            raise ValueError("integral representation needs exactly one joint parameter pair")
        if not (params.ap[0] > params.a[0] > 0):
            raise ValueError("integral representation needs ap > a > 0")
    with mp.workdps(prec.dps + 15):
        xx, yy = _bidisc_point(x, y)
        eps = prec.tol() / 100
        factors = {}

        def factor(upper, lower, z):
            # the factor pFq(upper; lower; z t) at a node, keyed by the node's
            # (t, 1 - t); at z = 1 its argument is the node, with its logs,
            # elsewhere 1 - z t is (1 - z) + z (1 - t)
            got = factors.get((upper, lower, z))
            if got is not None:
                return got
            plan, omz, seen = _plan(upper, lower), 1 - z, {}

            def value(key, t, omt, lt, lomt):
                v = seen.get(key)
                if v is None:
                    v = seen[key] = (plan.eval(t, omt, eps, (lt, lomt)) if z == 1
                                     else plan.eval(z * t, omz + z * omt, eps))[0]
                return v

            factors[upper, lower, z] = value
            return value

        results = []
        for params in blocks:
            a, ap = params.a[0], params.ap[0]
            pref = _gamma(ap) / (_gamma(a) * _gamma(ap - a))
            am1, dm1 = _to_mpf(a) - 1, _to_mpf(ap - a) - 1
            fb, fc = factor(params.b, params.bp, xx), factor(params.c, params.cp, yy)

            def integrand(t, omt, lt, lomt, fb=fb, fc=fc, am1=am1, dm1=dm1):
                key = t._mpf_, omt._mpf_
                weight = mp.exp(am1 * lt + dm1 * lomt) if am1 or dm1 else 1
                return weight * fb(key, t, omt, lt, lomt) * fc(key, t, omt, lt, lomt)

            quad = quad_de(integrand, prec.tol() / 4, prec, node_args=True)
            results.append(SeriesResult(pref * quad.value,
                                        abs(pref) * quad.err_estimate + prec.tol() / 4,
                                        quad.terms_used, "integral"))
        return results


# -- double-exponential quadrature --------------------------------------------

# the deepest level quad_de refines to, step 2^-_QUAD_MAX_LEVEL
_QUAD_MAX_LEVEL = 10


# the tanh-sinh nodes built so far at each (level, prec), in the order of s
# (``_de_nodes``)
_DE_FAMILIES: dict = {}


def _de_node(s: mpf, pi: mpf) -> tuple:
    """The node (t, 1-t, weight, ln t, ln(1-t)) at s (``_de_nodes``)."""
    sh = mp.sinh(s)
    w = pi / 2 * sh
    ew = mp.exp(w)
    iew = 1 / ew
    u = iew * iew
    t = 1 / (1 + u)
    dt = pi * mp.sqrt(1 + sh * sh) / (ew + iew) ** 2
    lt = -mp.log1p(u)
    return t, u * t, dt, lt, lt - 2 * w


@lru_cache(maxsize=None)
def _de_nodes(level: int, wexp: int, prec: int) -> tuple:
    """The tanh-sinh nodes new at ``level`` (step h = 2^-level), at ``prec``
    bits, up to the weight cut 10^-wexp.

    One tuple of nodes (t, 1-t, weight, ln t, ln(1-t)) at s = k h > 0 (k odd
    past level 0), all with t > 1/2, and at level 0 the s = 0 node (t = 1/2)
    first; ``quad_de`` reads each node of the other side as
    (1-t, t, weight, ln(1-t), ln t) from the same entry.  With
    w = (pi/2) sinh s, one E = e^w gives u = e^(-2w) = (1/E)^2 and
    4 cosh^2 w = (E + 1/E)^2, from which t = 1/(1 + u) and 1-t = u t are
    both computed directly, so endpoint distances stay exact down to weights
    (pi/2) cosh s / (2 cosh^2 w) of size 10^-wexp, where the tuple ends (past
    s = 3); cosh s is sqrt(1 + sinh^2 s).  The logs take one log1p:
    ln t = -log1p(u), and ln(1-t) = ln t - 2w, a sum of two nonpositive
    terms.  They are the logs of the stored 1-t and of 1 minus it, each
    within 8 ulps relatively, however close t is to 1; the stored t is
    within 4 ulps of that 1 minus 1-t.

    No node depends on wexp, only where the tuple ends.  So each node is
    built once per (level, prec), in one family (``_DE_FAMILIES``) that a
    deeper wexp extends past its end, and every wexp's tuple is a prefix of
    that family, its nodes the family's own objects.
    """
    family = _DE_FAMILIES.setdefault((level, prec), [])
    with mp.workprec(prec):
        h = mpf(1) / 2 ** level
        wcut = mpf(10) ** (-wexp)
        pi = +mp.pi
        for i, k in enumerate(count(0, 1) if level == 0 else count(1, 2)):
            s = k * h
            if i == len(family):
                family.append(_de_node(s, pi))
            if family[i][2] < wcut and s > 3:
                return tuple(family[:i + 1])


def quad_de(f, tol, prec: Precision, node_args: bool = False) -> SeriesResult:
    """Tanh-sinh quadrature of f over (0, 1).

    The step is halved, down to 2^-``_QUAD_MAX_LEVEL``, until the error bar
    est_L of level L is at most ``tol``; est_L is reported as the error
    estimate, and a run that reaches no such level raises ArithmeticError.
    Each level sums its new nodes (``_de_nodes``): the center at level 0,
    then the side t > 1/2, then the mirrored side t < 1/2, each side until
    5 terms in a row fall below tol 10^-4 or its nodes end.  Integrable
    endpoint singularities of algebraic-logarithmic type are fine.  Every
    call at one precision and tol walks the same node tuples, the same
    objects, so integrands of several calls can share values per node
    (``kdf_integrals``).

    By default the integrand is called as f(t), and a node that rounds onto
    an endpoint counts 0.  With ``node_args=True`` it is called as
    f(t, 1-t, ln t, ln(1-t)), all four read from the node table: 1-t is
    exact however close t is to 1, and the logs are those of 1-t and of
    1 minus it, within 8 ulps relatively (``_de_nodes``; the mirrored side
    passes the same four numbers in the other order), so an integrand takes
    its powers t^a (1-t)^b as one exp(a ln t + b ln(1-t)), and t^a - 1 as
    one expm1(a ln t), and needs no log of its own.

    The bar reads the level differences d_L = |I_L - I_(L-1)| (d_0 = inf)
    and their ratios r_L = d_L / d_(L-1).  Double-exponential quadrature
    squares its error at each halving (Takahasi & Mori, Publ. RIMS 9 (1974)
    721-741): under the model E_L ~ E_(L-1)^2 / A, d_L ~ E_(L-1) and
    E_L ~ d_L r_L^2.  Level L is in the quadratic regime when L >= 4,
    r_(L-2) < 1, r_(L-1) <= r_(L-2)^(3/2) and r_L <= r_(L-1)^(3/2): two
    super-linear contractions in a row, so that one accidental dip in the
    differences does not count.  There the bar is

        est_L = min(d_L, max(d_L r_L, floor_L)),

    which over-states the model's error by 1/r_L (the estimate of Bailey,
    Jeyabalan & Li, "A comparison of three high-precision quadrature
    schemes", Exp. Math. 14 (2005) 317-329); elsewhere it is d_L.  The
    floor is what level L itself leaves unresolved: the terms at which its
    two sides cut off, plus the rounding of the level sum,

        floor_L = h (|c_0| + |c_1|) + 2^(1-p) n h sum |c_i|,

    with h = 2^-L, c_0 and c_1 the last terms w f that level L summed on
    each side, n the terms summed at levels 0..L and sum |c_i| their absolute
    sum, and p the working precision in bits.  A level that would stop
    raises its bar to at least that rounding term, 2^(1-p) n h sum |c_i|, so
    a difference that reads zero, or reads below the last bits of the sum,
    does not stop the run with a bar under its own rounding.  A tol below
    that term cannot be met, and a level L in the quadratic regime raises
    once 2^(1-p) n (|I_L| - 2 d_L) > tol: each later level L' sums at least
    n terms, with h sum |c_i| >= |I_L'|, and the model puts I_L and I_L'
    within E_L < d_L of the limit, so no later rounding term falls to tol.
    The ratios are read only where the three differences they divide by are
    nonzero.
    """
    with mp.workdps(prec.dps + 15):
        tol = mpmathify(tol)
        if not 0 < tol < mp.inf:
            raise ValueError(f"quad_de needs a positive finite tol, got {mp.nstr(tol, 3)}")
        # mpmath's log10 reads the mpf's own mantissa and binary exponent,
        # so a tol outside the range of a double sizes the cut too
        wexp = int(3 * (-float(mp.log10(tol)) + 8))
        tiny = tol * mpf(10) ** -4
        if node_args:
            call = f
        else:
            # single-argument integrands cannot resolve 1 - t below working
            # precision; such nodes carry negligible weight for the supported
            # (integrable) endpoint singularities
            def call(t, omt, lt, lomt, _f=f):
                if t <= 0 or t >= 1:
                    return mpf(0)
                return _f(t)
        vals = mpf(0)
        prev = mp.inf
        diffs, terms = [], []
        for lev in range(_QUAD_MAX_LEVEL + 1):
            h = mpf(1) / 2 ** lev
            nodes = _de_nodes(lev, wexp, mp.prec)
            new = mpf(0)
            if lev == 0:
                t, omt, w, lt, lomt = nodes[0]
                c = w * call(t, omt, lt, lomt)
                new += c
                terms.append(c)
            # past the center, side 0 reads a node as (t, 1-t), side 1 as its
            # mirror (1-t, t), each with its logs
            edge = mpf(0)
            for side in (0, 1):
                run = 0
                for t, omt, w, lt, lomt in islice(nodes, lev == 0, None):
                    c = w * (call(t, omt, lt, lomt) if side == 0 else call(omt, t, lomt, lt))
                    new += c
                    terms.append(c)
                    if abs(c) < tiny:
                        run += 1
                        if run > 4:
                            break
                    else:
                        run = 0
                edge += abs(c)
            vals += new
            total = vals * h
            change = abs(total - prev)
            diffs.append(change)
            # a zero difference has no ratio
            regime = False
            if lev >= 4 and all(diffs[lev - 3:lev]):
                r2, r1, r0 = (diffs[k] / diffs[k - 1] for k in (lev - 2, lev - 1, lev))
                regime = r2 < 1 and r1 <= r2 ** 1.5 and r0 <= r1 ** 1.5
            if regime or change <= tol:
                rounding = h * mp.eps * len(terms) * mp.fsum(terms, absolute=True)
                est = min(change, max(change * r0, h * edge + rounding)) if regime else change
                # no bar reads below the rounding of the sum it stops on
                est = max(est, rounding)
                if est <= tol:
                    return SeriesResult(+total, +est, len(terms), "integral")
                lowest = mp.eps * len(terms) * (abs(total) - 2 * change)
                if regime and lowest > tol:
                    raise ArithmeticError(f"quadrature cannot reach {tol}: its rounding "
                                          f"stays above {mp.nstr(lowest, 3)}")
            prev = total
        raise ArithmeticError(
            f"quadrature did not converge to {tol} within {_QUAD_MAX_LEVEL} levels "
            f"(last refinement changed by {mp.nstr(change, 3)})"
        )
