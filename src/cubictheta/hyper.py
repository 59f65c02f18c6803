"""Generalized hypergeometric series, Kampe de Feriet double series, their
boundary convergence conditions, the Euler-type integral representation, and
double-exponential quadrature.

Parameters are carried as exact Fractions until the moment of evaluation, so
structural questions (parameter cancellation, zero-balancedness, closed-form
patterns) are decided exactly.  Direct sums, partial sums at x = 1 and the
Kampe de Feriet anti-diagonal sums S_d take their terms from one recurrence,
run in fixed point on Python ints built from those exact parameters
(``_fixed_terms``), with stated rounding bounds: 2^-prec (1 + |value|) for
direct sums and 2^-prec (1 + max |S_d|) for the S_d.  A direct sum reads its
coefficients c_n 2^wp from a table cached per (parameters, wp)
(``_coeff_table``, a bounded lru), filled lazily from that recurrence at
x = 1, and sums them by Horner's rule at x, so all the nodes of a quadrature
share one table; its stop index is read off the table's log2 magnitudes.
Near the unit argument the evaluators switch to connection/log expansions in
1 - x, whose tails are certified as well; callers that know 1 - x to better
accuracy than x can pass it explicitly.  At the unit argument itself, the
boundary Kampe de Feriet values and the pFq sums that no closed form covers
are limits of partial sums whose remainder has a form known from the
parameters (``_kdf_families``).  ``_extrapolate`` takes the
partial sums up to the one index D = ``_FIT_D`` and searches the order K of
the known-exponent fit (``_accel.known_exponent_fit``) on them against the
requested tol; it raises when the search stalls or runs out of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, islice

from mpmath import mp, mpf, mpmathify

from . import _accel, kernels
from .reports import IdentityReport, check
from .thetanum import Precision

__all__ = [
    "PFQParams",
    "KdFParams",
    "ConvergenceMargins",
    "SeriesResult",
    "pochhammer",
    "pfq",
    "kdf_margins",
    "kdf_series",
    "kdf_integral",
    "quad_de",
    "check_hginterep",
    "gauss_2f1_unit_interval",
]


def _as_fraction_tuple(vals) -> tuple:
    out = []
    for v in vals:
        if isinstance(v, Fraction):
            out.append(v)
        elif isinstance(v, int):
            out.append(Fraction(v))
        elif isinstance(v, str):
            out.append(Fraction(v))
        else:
            raise TypeError(f"parameters must be exact rationals, got {v!r}")
    return tuple(out)


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
        object.__setattr__(self, "a", _as_fraction_tuple(a))
        object.__setattr__(self, "ap", _as_fraction_tuple(ap))
        object.__setattr__(self, "b", _as_fraction_tuple(b))
        object.__setattr__(self, "bp", _as_fraction_tuple(bp))
        object.__setattr__(self, "c", _as_fraction_tuple(c))
        object.__setattr__(self, "cp", _as_fraction_tuple(cp))
        for lst, nm in ((self.ap, "ap"), (self.bp, "bp"), (self.cp, "cp")):
            _no_poles(lst, nm)

    def swapped(self) -> "KdFParams":
        """Exchange the two variable blocks (the series is symmetric)."""
        return KdFParams(self.a, self.ap, self.c, self.cp, self.b, self.bp)


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


def pochhammer(a, n: int):
    """Rising factorial (a)_n; exact when ``a`` is an int or Fraction."""
    if n < 0:
        raise ValueError("pochhammer index must be nonnegative")
    if isinstance(a, (int, Fraction)):
        r = Fraction(1)
        for k in range(n):
            r *= a + k
        return int(r) if r.denominator == 1 else r
    return mp.rf(mpmathify(a), n)


# -- cached constants --------------------------------------------------------

_GAMMA_CACHE: dict = {}
_PSI_CACHE: dict = {}


def _gamma(fr: Fraction) -> mpf:
    key = (fr, mp.prec)
    v = _GAMMA_CACHE.get(key)
    if v is None:
        v = mp.gamma(mpf(fr.numerator) / fr.denominator)
        _GAMMA_CACHE[key] = v
    return v


def _psi(fr: Fraction) -> mpf:
    key = (fr, mp.prec)
    v = _PSI_CACHE.get(key)
    if v is None:
        v = mp.psi(0, mpf(fr.numerator) / fr.denominator)
        _PSI_CACHE[key] = v
    return v


def _fr_mpf(fr: Fraction) -> mpf:
    return mpf(fr.numerator) / fr.denominator


# -- term recurrence, in fixed point ------------------------------------------


def _fixed_terms(upper, lower, X: int, wp: int):
    """Yield (T_n, N_n, D_n, R_n) for n = 0, 1, ...: the terms of
    sum_n prod (u)_n / prod (l)_n x^n / n! as Python ints at 2^wp, the
    integers of their ratio, and a bound on their rise.

    ``upper``/``lower`` are exact rationals and X = x 2^wp an int.  With
    u = p/q, the term ratio is r_n = N_n / (D_n 2^wp) for the integers
    N_n = X prod (p + n q) * prod(lower denominators) and
    D_n = (n + 1) prod (p' + n q') * prod(upper denominators); an upper
    parameter 1 cancels the n!.  T_0 = 2^wp and
    T_{n+1} = floor(T_n N_n / (D_n 2^wp)).

    Rounding: each floor costs at most one ulp (2^-wp), and the ulp lost at
    step k reaches T_j multiplied by |r_k ... r_{j-1}| = |t_j / t_k| for the
    exact terms t.  So T_j is within j G ulps of t_j 2^wp, where
    G = max_{k<=j<=n} |t_j / t_k| < 2^R_n is the largest rise so far.  R_n
    sums the log2 of the exact ratios (1e-3 bits spare for float rounding),
    not the floored terms, which are 0 where the exact ones dip below 2^-wp
    and may grow back.  After a ratio 0 all terms are exactly 0; R_n stops.
    """
    ups = [(u.numerator, u.denominator) for u in upper]
    los = [(l.numerator, l.denominator) for l in lower]
    num0 = X * math.prod(l.denominator for l in lower)
    den0 = math.prod(u.denominator for u in upper)
    term = 1 << wp
    lg = low = rise = 0.0  # log2 |t_n|, its least value so far, and the rise
    for n in count():
        num = num0
        for p, q in ups:
            num *= p + n * q
        den = den0 * (n + 1)
        for p, q in los:
            den *= p + n * q
        yield term, num, den, math.floor(rise + 1e-3) + 1
        term = term * num // (den << wp)
        if num and lg > -math.inf:
            lg += math.log2(abs(num)) - math.log2(abs(den)) - wp
            low = min(low, lg)
            rise = max(rise, lg - low)
        else:
            lg = -math.inf


# -- direct summation: cached coefficient tables, summed by Horner's rule ------

_TERM_CAP = 400_000
# 2*bitlen(_TERM_CAP) covers the rounding of any admissible term count; the
# 8 spare bits cover terms that grow by up to 2^7 before they settle
_PFQ_GUARD = 2 * _TERM_CAP.bit_length() + 8
# a float log2 test that lands this close to its threshold is decided exactly:
# the float error is below 1e-7 bits up to _TERM_CAP terms
_LOG2_MARGIN = 2.0 ** -16
# tables held at once, for each of the two table kinds
_TABLE_SLOTS = 256


class _CoeffTable:
    """The coefficients c_n = prod (u)_n / prod (l)_n / n! of one series at
    2^wp, filled lazily from ``_fixed_terms`` at x = 1.

    Per index n it holds C_n = c_n 2^wp (Python ints, within n G ulps, G the
    rise of the coefficients), the integers num_n / den_n = c_(n+1) / c_n, the
    floats log2 |c_n| and log2 |num_n / den_n| (-inf at 0) that the stop scan
    reads, and bits_n = R_n + bitlen(max_(k<=n) |C_k| >> wp) + 2, the guard
    bits the rounding bound of ``_pfq_direct`` asks for beyond
    2 bitlen(N + 1).
    """

    __slots__ = ("wp", "warmup", "entire", "C", "num", "den", "log_c", "log_ratio",
                 "bits", "_terms", "_cmax")

    def __init__(self, upper, lower, wp):
        self.wp = wp
        # no tail is certified before the terms pass every pole -l of a
        # negative lower parameter, where they can grow again
        self.warmup = max(8 + int(4 * max((abs(float(u)) for u in upper), default=0)),
                          math.floor(max((-l for l in lower), default=0)) + 2)
        self.entire = len(upper) != len(lower) + 1
        self.C, self.num, self.den, self.log_c, self.log_ratio, self.bits = [], [], [], [], [], []
        self._terms = _fixed_terms(upper, lower, 1 << wp, wp)
        self._cmax = 0

    def fill(self, n: int):
        """Extend the table through index n."""
        wp = self.wp
        for term, num, den, rise in islice(self._terms, n + 1 - len(self.C)):
            num >>= wp  # exact: X = 2^wp divides num
            self.C.append(term)
            self.num.append(num)
            self.den.append(den)
            self.log_c.append(math.log2(abs(term)) - wp if term else -math.inf)
            self.log_ratio.append(math.log2(abs(num)) - math.log2(abs(den)) if num
                                  else -math.inf)
            self._cmax = max(self._cmax, abs(term) >> wp)
            self.bits.append(rise + self._cmax.bit_length() + 2)


@lru_cache(maxsize=_TABLE_SLOTS)
def _coeff_table(upper: tuple, lower: tuple, wp: int) -> _CoeffTable:
    return _CoeffTable(upper, lower, wp)


def _scaled_le(lhs: int, rhs: int, shift: int) -> bool:
    """lhs 2^shift <= rhs, exactly."""
    return lhs << shift <= rhs if shift >= 0 else lhs <= rhs << -shift


def _stop_index(table: _CoeffTable, x: mpf, eps: mpf) -> int:
    """The index N at which the direct sum of ``table``'s series at x stops.

    N is the first index past the warm-up whose three preceding term ratios
    |x| num_n / den_n are at most rho = (1 + |x|)/2 (0.9 for an entire
    series) and whose term bounds the geometric tail: |c_N x^N| rho/(1 - rho)
    <= eps.  Both tests run on float log2 magnitudes; one that lands within
    ``_LOG2_MARGIN`` of its threshold is decided on the exact integers, with x
    and eps read exactly from their mantissas.
    """
    _, mx, ex, _ = x._mpf_
    _, me, ee, _ = eps._mpf_
    rn, rd = (9, 10) if table.entire else ((1 << -ex) + mx, 1 << (1 - ex))
    lx = math.log2(mx) + ex if mx else -math.inf
    lrho = math.log2(rn) - math.log2(rd)
    ltail = math.log2(me) + ee + math.log2(rd - rn) - math.log2(rd) - lrho
    C, log_c, log_ratio = table.C, table.log_c, table.log_ratio
    # three settled ratios before n > warmup are those at n - 3..n - 1, so the
    # scan starts at warmup - 2, and a count of three implies n > warmup
    n, settled = table.warmup - 2, 0
    while True:
        if n >= len(C):
            table.fill(n + 63)
        for n in range(n, len(C)):
            if settled >= 3:
                d = log_c[n] + n * lx - ltail
                if d <= -_LOG2_MARGIN or (d < _LOG2_MARGIN and _scaled_le(
                        abs(C[n]) * mx ** n * rn, me * (rd - rn), n * ex - table.wp - ee)):
                    return n
            if n > _TERM_CAP:
                _coeff_table.cache_clear()  # no table of a divergent call stays behind
                raise ArithmeticError(
                    f"series at x={x} did not meet the tail bound within {_TERM_CAP} terms"
                )
            q = log_ratio[n] + lx - lrho
            if q <= -_LOG2_MARGIN or (q < _LOG2_MARGIN and _scaled_le(
                    mx * abs(table.num[n]) * rd, rn * abs(table.den[n]), ex)):
                settled += 1
            else:
                settled = 0
        n += 1


def _to_fixed(x: mpf, wp: int) -> int:
    """x 2^wp rounded to the nearest int."""
    sign, man, exp, _ = x._mpf_
    shift = exp + wp
    X = man << shift if shift >= 0 else (man + (1 << (-shift - 1))) >> -shift
    return -X if sign else X


def _horner(coeffs: list, N: int, X: int, wp: int) -> int:
    """sum_(k<=N) coeffs[k] (X 2^-wp)^k at 2^wp, by Horner's rule with a floor
    after each product: s <- floor(s X / 2^wp) + coeffs[k]."""
    s = 0
    for c in islice(reversed(coeffs), len(coeffs) - N - 1, None):
        s = (s * X >> wp) + c
    return s


def _pfq_direct(upper, lower, x, eps):
    """Sum the defining series at x from its cached coefficient table.

    Stops once past the warm-up (and past every pole of a negative lower
    parameter), the term ratio has settled below rho = (1 + |x|)/2 (or 0.9
    for entire series) for three indices and the geometric tail bound
    |t_N| rho/(1 - rho) drops under eps (``_stop_index``); returns
    (value, N + 1), the sum of t_0..t_N.

    ``upper``/``lower`` are exact rationals (TypeError otherwise).  The
    coefficients C_n = c_n 2^wp, wp = prec + guard, come from the table of
    ``_coeff_table`` for (upper, lower, wp), shared by every x, and are summed
    by Horner's rule at X = x 2^wp rounded.

    Rounding, in ulps of 2^-wp: C_k lies within k G ulps of exact, G < 2^R_N
    the rise of the coefficients (``_fixed_terms``); each Horner step costs at
    most one ulp; the rounding of X adds at most N^2 max|c_n| ulps.  When
    2 bitlen(N + 1) + R_N + bitlen(max|c_n|) + 2 exceeds the guard, the sum is
    redone with that many guard bits.  So the sum is within 2^-(prec+1) of the
    exact partial sum at x, and the returned mpf within 2^-prec (1 + |value|).
    """
    upper = _as_fraction_tuple(upper)
    lower = _as_fraction_tuple(lower)
    x, eps = mpmathify(x), mpmathify(eps)
    if len(upper) == len(lower) + 1 and abs(x) >= 1:
        raise ValueError("direct summation requires |x| < 1")
    guard = _PFQ_GUARD
    while True:
        table = _coeff_table(upper, lower, mp.prec + guard)
        N = _stop_index(table, x, eps)
        need = 2 * (N + 1).bit_length() + table.bits[N]
        if need <= guard:
            break
        guard = need
    wp = table.wp
    return mp.ldexp(mpf(_horner(table.C, N, _to_fixed(x, wp), wp)), -wp), N + 1


# -- near-unit-argument machinery ---------------------------------------------


class _LogTable:
    """The second series of the zero-balanced expansion: E_n = floor(C_n h_n)
    for the coefficients C_n of 2F1(a, b; 1; w) at 2^wp and the exact
    rationals h_n = sum_(k<n) [2/(k+1) - 1/(a+k) - 1/(b+k)], filled lazily.

    bits_n = bitlen(floor(max_(k<=n) |h_k|) + 1), so that 2^bits_n exceeds
    that maximum plus one.  ``h_tail`` bounds sup_(n>warmup) |h_n|: |h_n0| at
    n0 = warmup + 1 plus the tail of the increments, which fall like 1/k^2:
    |a - 1|/((k + 1)(k + a)) <= |a - 1|/(k + min(a, 1))^2, whose sum over
    k >= n0 is at most |a - 1|/(n0 - 1 + min(a, 1)), and likewise for b.
    """

    __slots__ = ("coeffs", "E", "bits", "h_tail", "_a", "_b", "_h", "_hmax")

    def __init__(self, a: Fraction, b: Fraction, wp: int):
        self.coeffs = _coeff_table((a, b), (Fraction(1),), wp)
        self._a, self._b = a, b
        self.E, self.bits = [], []
        self._h, self._hmax = Fraction(0), Fraction(0)
        n0 = self.coeffs.warmup + 1
        h = sum((self._step(k) for k in range(n0)), Fraction(0))
        self.h_tail = abs(h) + sum(abs(v - 1) / (n0 - 1 + min(v, 1)) for v in (a, b))

    def _step(self, k: int) -> Fraction:
        return Fraction(2, k + 1) - 1 / (self._a + k) - 1 / (self._b + k)

    def fill(self, n: int):
        """Extend the table through index n (the coefficient table must
        already reach it)."""
        C = self.coeffs.C
        for k in range(len(self.E), n + 1):
            h = self._h
            self.E.append(C[k] * h.numerator // h.denominator)
            self._hmax = max(self._hmax, abs(h))
            self.bits.append((math.floor(self._hmax) + 1).bit_length())
            self._h = h + self._step(k)


@lru_cache(maxsize=_TABLE_SLOTS)
def _log_table(a: Fraction, b: Fraction, wp: int) -> _LogTable:
    return _LogTable(a, b, wp)


def _hyp2f1_zero_balanced(a: Fraction, b: Fraction, x, omx, eps):
    """2F1(a, b; a+b; x) by the logarithmic expansion around x = 1
    (Abramowitz & Stegun 15.3.10), in w = 1 - x = ``omx``:

        pref [(K - ln w) S0(w) + S1(w)],  pref = Gamma(a+b)/(Gamma(a) Gamma(b)),

    with K = 2 psi(1) - psi(a) - psi(b), S0 = 2F1(a, b; 1; w) = sum c_n w^n and
    S1 = sum c_n h_n w^n (``_LogTable``).  Both are summed by Horner's rule
    to the one stop index N of S0 (``_stop_index``) at one X = w 2^wp.

    Tail: S0 stops at eps0 = eps / (2 |pref| (|K - ln w| + H)), H =
    ``h_tail`` >= sup_(n>N) |h_n|, so S1's tail is at most H eps0 and the two
    tails together cost at most eps/2.  Rounding: S0 is within
    2^-(prec+1) as in ``_pfq_direct``; E_n is within (max|h| + 1) n G ulps, so
    the guard also covers the log table's ``bits`` and S1 is within
    2^-(prec+1) too.  Returns (value, N + 1).
    """
    pref = _gamma(a + b) / (_gamma(a) * _gamma(b))
    lnw = mp.log(omx)
    kw = 2 * _psi(Fraction(1)) - _psi(a) - _psi(b) - lnw
    guard = _PFQ_GUARD
    while True:
        logs = _log_table(a, b, mp.prec + guard)
        table = logs.coeffs
        N = _stop_index(table, omx, eps / (2 * abs(pref) * (abs(kw) + _fr_mpf(logs.h_tail))))
        logs.fill(N)
        need = 2 * (N + 1).bit_length() + table.bits[N] + logs.bits[N]
        if need <= guard:
            break
        guard = need
    wp = table.wp
    X = _to_fixed(omx, wp)
    s0 = mp.ldexp(mpf(_horner(table.C, N, X, wp)), -wp)
    s1 = mp.ldexp(mpf(_horner(logs.E, N, X, wp)), -wp)
    return pref * (kw * s0 + s1), N + 1


def _hyp2f1_connection(a: Fraction, b: Fraction, c: Fraction, x, omx, eps):
    """2F1 for non-integer c-a-b via the two-series expansion in 1 - x."""
    e = c - a - b
    g1 = _gamma(c) * _gamma(e) / (_gamma(c - a) * _gamma(c - b))
    g2 = _gamma(c) * _gamma(-e) / (_gamma(a) * _gamma(b))
    f1, n1 = _pfq_direct((a, b), (a + b - c + 1,), omx, eps)
    f2, n2 = _pfq_direct((c - a, c - b), (1 - a - b + c,), omx, eps)
    return g1 * f1 + omx ** _fr_mpf(e) * g2 * f2, n1 + n2


def _f32_ones_tail(a: Fraction, x, omx, eps):
    """3F2(1, 1, a+1; 2, 2; x) for 0 < a < 1 near x = 1.

    Termwise integration of the binomial identity gives
    a*x*3F2 = C(a) - T(a, 1-x) with C(a) = psi(1) - psi(1-a) and
    T(a, w) = sum_k [w^(k+1-a)/(k+1-a) - w^(k+1)/(k+1)]
            = w^(1-a)/(1-a) 2F1(1, 1-a; 2-a; w) + log(1 - w),
    the 2F1 summed by ``_pfq_direct`` with its certified tail.
    """
    am = _fr_mpf(a)
    cconst = _psi(Fraction(1)) - _psi(1 - a)
    w = omx
    f21, n = _pfq_direct((Fraction(1), 1 - a), (2 - a,), w, eps)
    tail = w ** (1 - am) / (1 - am) * f21 + mp.log1p(-w)
    return (cconst - tail) / (am * x), n


def _gauss_summation(a: Fraction, b: Fraction, c: Fraction):
    """2F1(a, b; c; 1) for positive excess, by the gamma-ratio formula."""
    return (
        _gamma(c) * _gamma(c - a - b) / (_gamma(c - a) * _gamma(c - b))
    )


_NEAR_ONE_SWITCH = mpf("0.5")
_DIRECT_LIMIT = mpf("0.95")


def _eval_pfq(upper, lower, x, omx, eps):
    """Full real-argument dispatch; returns (value, terms, method, bar).

    ``upper``/``lower`` are Fraction tuples, ``x`` an mpf in [-1, 1],
    ``omx`` the complement 1 - x (may be None off the boundary region).
    ``method`` names the branch: "direct" (``_pfq_direct``), "binomial"
    ((1 - x)^-a for 1F0 and 2F1(1, a; 2; x)), "gauss" (2F1 at 1),
    "zero-balanced" and "connection" (2F1 expansions in 1 - x), "f32-tail"
    (3F2(1, 1, a+1; 2, 2; x), at 1 the tail-free closed form), and
    "accelerated" (the known-exponent fit) for other sums at 1.  ``bar`` is
    the fit's measured bar on the "accelerated" branch and None on the others.
    """
    # exact cancellation of repeated parameters
    up = list(upper)
    lo = list(lower)
    for v in list(up):
        if v in lo:
            up.remove(v)
            lo.remove(v)
    p, q = len(up), len(lo)
    if p > q + 1:
        raise ValueError("series diverges: too many upper parameters")
    if abs(x) > 1:
        raise ValueError("arguments beyond |x| = 1 are out of scope")
    if x == 0:
        return mpf(1), 1, "direct", None
    if p == 1 and q == 0:
        if omx is None:
            omx = 1 - x
        return omx ** (-_fr_mpf(up[0])), 1, "binomial", None
    if p <= q:
        val, n = _pfq_direct(up, lo, x, eps)
        return val, n, "direct", None
    # now p == q + 1
    if x == 1 and (omx is None or omx <= 0):
        excess = sum(lo, Fraction(0)) - sum(up, Fraction(0))
        if excess <= 0:
            raise ValueError("series diverges at x = 1 (nonpositive excess)")
        if p == 2:
            return _gauss_summation(up[0], up[1], lo[0]), 1, "gauss", None
        pat = _match_f32_ones(up, lo)
        if pat is not None:
            am = _fr_mpf(pat)
            return (_psi(Fraction(1)) - _psi(1 - pat)) / am, 1, "f32-tail", None
        return _accelerated_unit_sum(up, lo, eps)
    if abs(x) <= _NEAR_ONE_SWITCH:
        val, n = _pfq_direct(up, lo, x, eps)
        return val, n, "direct", None
    if omx is None:
        omx = 1 - x
    if p == 2 and lo[0] == 2 and Fraction(1) in up and up[0] != up[1]:
        # binomial closed form, valid on the whole interval [-1, 1)
        other = up[1] if up[0] == 1 else up[0]
        am = _fr_mpf(other - 1)
        return (omx ** (-am) - 1) / (am * x), 1, "binomial", None
    if x > 0:
        # the expansions below run in powers of 1 - x and need x near 1
        if p == 2:
            a, b = up
            c = lo[0]
            if c - a - b == 0:
                val, n = _hyp2f1_zero_balanced(a, b, x, omx, eps)
                return val, n, "zero-balanced", None
            if (c - a - b).denominator != 1:
                val, n = _hyp2f1_connection(a, b, c, x, omx, eps)
                return val, n, "connection", None
        pat = _match_f32_ones(up, lo)
        if pat is not None:
            val, n = _f32_ones_tail(pat, x, omx, eps)
            return val, n, "f32-tail", None
    if abs(x) <= _DIRECT_LIMIT:
        val, n = _pfq_direct(up, lo, x, eps)
        return val, n, "direct", None
    raise ArithmeticError(
        f"no fast evaluation path for {up}/{lo} at x={x}; argument too close to 1"
    )


def _match_f32_ones(up, lo):
    """Detect 3F2(1, 1, a+1; 2, 2; .) with 0 < a < 1; returns a or None."""
    if sorted(lo) != [Fraction(2), Fraction(2)]:
        return None
    if len(up) != 3 or sorted(up)[:2] != [Fraction(1), Fraction(1)]:
        return None
    a = sorted(up)[2] - 1
    if 0 < a < 1:
        return a
    return None


def _accelerated_unit_sum(up, lo, eps):
    """The sum at x = 1 of a series with positive excess s, by ``_extrapolate``.

    The terms are a ratio of gamma functions, n^-(s+1) times a series in
    1/n, so the remainder after N terms has the one family N^-(s+j), j >= 0,
    and no logs.  A nonpositive-integer upper parameter ends the series and
    leaves no family.  The fit takes S_0..S_D at D = ``_FIT_D``; returns
    (value, D + 1, "accelerated", bar) with the fit's bar.  The partial sums
    are within 2^-prec (1 + |S_n|) of the exact ones: the n sums are within
    n^2 G ulps, redone as in _pfq_direct, and each is rounded once to prec.
    """
    def partial_sums():
        n, guard, need = _FIT_D + 1, 0, _PFQ_GUARD
        while need > guard:
            guard = need
            wp = mp.prec + guard
            terms, _, _, rise = zip(*islice(_fixed_terms(up, lo, 1 << wp, wp), n))
            need = 2 * n.bit_length() + rise[-1]
        sums = [+mp.ldexp(s, -wp) for s in accumulate(terms)]
        return sums, mp.ldexp(1 + max(map(abs, sums)), -mp.prec)

    part = _singular_part(up, lo)
    val, err, _ = _extrapolate(partial_sums, () if part is None else ((part[0], 0, 1),), eps)
    return +val, _FIT_D + 1, "accelerated", +err


def gauss_2f1_unit_interval(a, b, c, x, omx, dps: int):
    """2F1(a, b; c; x) for x in (0, 1) given the complement 1 - x explicitly."""
    if any(isinstance(v, (float, mpf)) for v in (a, b, c)):
        raise TypeError("parameters must be exact rationals")
    fr = (Fraction(a), Fraction(b), Fraction(c))
    with mp.workdps(dps + 10):
        eps = mpf(10) ** (-dps - 5)
        return _eval_pfq((fr[0], fr[1]), (fr[2],), mpmathify(x), mpmathify(omx), eps)[0]


def pfq(params: PFQParams, x, prec: Precision, x_complement=None) -> SeriesResult:
    """Evaluate the generalized hypergeometric series at a real argument.

    |x| < 1, or x = 1 with positive parameter excess.  ``x_complement`` may
    supply 1 - x to full accuracy when x is close to 1.  The "accelerated"
    branch reports the fit's measured bar; the others report tol.
    """
    with mp.workdps(prec.dps + 10):
        xx = mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mpmathify(x)
        omx = mpmathify(x_complement) if x_complement is not None else None
        eps = prec.tol() / 10
        val, terms, method, bar = _eval_pfq(params.upper, params.lower, xx, omx, eps)
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
                                        for T, _, _, R in runs)
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
    if any(u.denominator == 1 and u <= 0 for u in upper):
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
    >= 0 (an analytic term leaves none); at z = -1 they are
    (-1)^N N^-(sa + alpha + 1 + j) (log N)^l.  Families whose exponents agree
    mod 1 and share a sign merge: from the smallest exponent, with the
    largest log power.
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


# the fit takes the partial sums S_0..S_D at this one D; its order K steps
# 8, 10, 12, ... while S_0..S_D hold K + 1 points of odd step
_FIT_D = 320


def _extrapolate(partial_sums, families, tol):
    """The limit of a series whose remainder has the given ``families``
    (``_accel.known_exponent_fit``), from its partial sums; returns
    (value, bar, K).

    ``partial_sums()`` returns S_0..S_D as mpfs and a bound r on the error of
    each, both at the working precision.  The fit order K steps 8, 10, 12, ...
    The search stops at the first K whose last two gaps |V_K - V_(K-2)| and
    |V_(K-2) - V_(K-4)| are both at most tol/8, and the bar is those two gaps
    plus r sum |w|.  When r sum |w| would pass tol/8, the sums are rebuilt
    with the precision raised to cover it, and 64 bits more.  The search
    raises ArithmeticError when two gaps in a row are no smaller than an
    earlier one (a stall), or when the next K has no points left
    (K > ``_accel.max_order(D)``).  With no family the sums are constant from
    some index on (a terminating series, or polynomial B and C), so V is S_D
    itself (K = 0) and its gaps are those of the last three sums.  No
    fallback.
    """
    prec = mp.prec
    with mp.workprec(prec):
        sums, rounding = partial_sums()
    D, K = len(sums) - 1, 0
    if not families:
        gaps = [abs(sums[-1] - sums[-2]), abs(sums[-2] - sums[-3])]
        if max(gaps) <= tol / 8:
            return sums[-1], sum(gaps) + rounding, K
    else:
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
                if len(gaps) >= 2 and max(gaps[-2:]) <= tol / 8:
                    return val, gaps[-1] + gaps[-2] + wsum * rounding, K
                if len(gaps) >= 3 and min(gaps[-2:]) >= min(gaps[:-2]):
                    break
            vals.append(val)
    raise ArithmeticError(
        f"boundary extrapolation did not reach {mp.nstr(tol, 3)} at D = {D} (last K = {K})"
    )


def kdf_series(params: KdFParams, x, y, prec: Precision) -> SeriesResult:
    """Anti-diagonal summation of the double series.

    Interior points stop on a certified geometric tail bound, and report it
    plus the rounding bound of the partial sums.  Boundary points (|x| = 1 or
    |y| = 1) require the convergence margins to be positive; their value is
    the known-exponent fit of the diagonal partial sums S_0..S_D at
    D = ``_FIT_D`` (``_extrapolate``, with the families of
    ``_kdf_families``), labelled ``"accelerated"``, and its bar is the fit's
    measured bar, below tol.  An order search that stalls or runs out of
    points raises ArithmeticError.
    """
    with mp.workdps(prec.dps + 15):
        xx = mpmathify(x) if not isinstance(x, Fraction) else _fr_mpf(x)
        yy = mpmathify(y) if not isinstance(y, Fraction) else _fr_mpf(y)
        if abs(xx) > 1 or abs(yy) > 1:
            raise ValueError("arguments beyond the closed unit bidisc are out of scope")
        boundary = abs(xx) == 1 or abs(yy) == 1
        if boundary:
            _require_boundary_shape(params)
            margins = kdf_margins(params)
            if not margins.boundary_ok:
                raise ValueError(
                    f"boundary evaluation rejected: margins {margins.m1}, "
                    f"{margins.m2}, {margins.m3} are not all positive"
                )
            val, err, _ = _extrapolate(lambda: _kdf_partial_sums(params, xx, yy, _FIT_D),
                                       _kdf_families(params, xx, yy), prec.tol())
            return SeriesResult(+val, +err, (_FIT_D + 1) * (_FIT_D + 2) // 2, "accelerated")
        rho = (1 + max(abs(xx), abs(yy))) / 2
        tol = prec.tol() / 4
        need = int(float(mp.log(tol) / mp.log(rho))) + 40 if rho > 0 else 24
        D = max(48, min(need, 20_000))
        while True:
            sums, rounding = _kdf_partial_sums(params, xx, yy, D)
            last_diag = abs(sums[-1] - sums[-2])
            bound = last_diag * rho / (1 - rho)
            if bound <= tol or D >= 20_000:
                break
            D *= 2
        if bound > tol:
            raise ArithmeticError("interior double series failed its tail bound")
        terms = (D + 1) * (D + 2) // 2
        return SeriesResult(+sums[-1], +(bound + rounding), terms, "direct")


def kdf_integral(params: KdFParams, x, y, prec: Precision) -> SeriesResult:
    """Beta-weighted integral representation for one joint parameter pair.

    Requires len(a) == len(ap) == 1 and ap > a > 0.  The inner single-variable
    factors are evaluated through ``pfq``'s near-unit machinery, so the
    quadrature nodes may approach t = 1 without losing the integrand.
    """
    if len(params.a) != 1 or len(params.ap) != 1:
        raise ValueError("integral representation needs exactly one joint parameter pair")
    a, ap = params.a[0], params.ap[0]
    if not (ap > a > 0):
        raise ValueError("integral representation needs ap > a > 0")
    with mp.workdps(prec.dps + 15):
        xx = mpmathify(x) if not isinstance(x, Fraction) else _fr_mpf(x)
        yy = mpmathify(y) if not isinstance(y, Fraction) else _fr_mpf(y)
        pref = _gamma(ap) / (_gamma(a) * _gamma(ap - a))
        am = _fr_mpf(a)
        dm = _fr_mpf(ap - a)
        eps = prec.tol() / 100
        bu, bl = params.b, params.bp
        cu, cl = params.c, params.cp

        def integrand(t, omt):
            # 1 - z*t as (1 - z) + z*(1 - t): exactly omt at z = 1
            fb = _eval_pfq(bu, bl, xx * t, (1 - xx) + xx * omt, eps)[0]
            fc = _eval_pfq(cu, cl, yy * t, (1 - yy) + yy * omt, eps)[0]
            return t ** (am - 1) * omt ** (dm - 1) * fb * fc

        quad = quad_de(integrand, prec.tol() / 4, prec, two_arg=True)
        val = pref * quad.value
        err = abs(pref) * quad.err_estimate + prec.tol() / 4
        return SeriesResult(val, err, quad.terms_used, "integral")


# -- double-exponential quadrature --------------------------------------------

_NODE_CACHE: dict = {}


def _de_nodes(level: int, wexp: int):
    """New tanh-sinh nodes introduced at ``level`` (step h = 2^-level).

    Returns (center, toward_one, toward_zero); each node is (t, 1-t, weight)
    with both t and 1-t computed directly, so endpoint distances stay exact
    down to weights of size 10^-wexp.
    """
    key = (level, wexp, mp.prec)
    nodes = _NODE_CACHE.get(key)
    if nodes is not None:
        return nodes
    h = mpf(1) / 2 ** level
    wcut = mpf(10) ** (-wexp)
    center = None
    pos = []
    neg = []
    k = 0
    while True:
        if level > 0 and k % 2 == 0:
            k += 1
            continue
        s = k * h
        w = (mp.pi / 2) * mp.sinh(s)
        ch = mp.cosh(w)
        e2w = mp.exp(2 * w)
        t = e2w / (1 + e2w)
        omt = 1 / (1 + e2w)
        dt = (mp.pi / 2) * mp.cosh(s) / (2 * ch * ch)
        if k == 0:
            center = (t, omt, dt)
        else:
            pos.append((t, omt, dt))
            neg.append((omt, t, dt))
        if dt < wcut and s > 3:
            break
        k += 1
    _NODE_CACHE[key] = (center, pos, neg)
    return center, pos, neg


def quad_de(f, tol, prec: Precision, two_arg: bool = False, max_level: int = 10) -> SeriesResult:
    """Tanh-sinh quadrature of f over (0, 1).

    The step is halved until two successive levels differ by at most ``tol``;
    the last difference is the error estimate.  Integrable endpoint
    singularities of algebraic-logarithmic type are fine.  With
    ``two_arg=True`` the integrand is called as f(t, 1-t).
    """
    with mp.workdps(prec.dps + 15):
        tol = mpmathify(tol)
        wexp = int(3 * (-math.log10(float(tol)) + 8))
        tiny = tol * mpf(10) ** -4
        if two_arg:
            call = f
        else:
            # single-argument integrands cannot resolve 1 - t below working
            # precision; such nodes carry negligible weight for the supported
            # (integrable) endpoint singularities
            def call(t, omt, _f=f):
                if t <= 0 or t >= 1:
                    return mpf(0)
                return _f(t)
        vals = mpf(0)
        prev = mp.inf
        neval = 0
        for lev in range(max_level + 1):
            h = mpf(1) / 2 ** lev
            center, pos, neg = _de_nodes(lev, wexp)
            new = mpf(0)
            if lev == 0 and center is not None:
                new += center[2] * call(center[0], center[1])
                neval += 1
            for side in (pos, neg):
                run = 0
                for (t, omt, w) in side:
                    c = w * call(t, omt)
                    neval += 1
                    new += c
                    if abs(c) < tiny:
                        run += 1
                        if run > 4:
                            break
                    else:
                        run = 0
            vals += new
            total = vals * h
            change = abs(total - prev)
            if change <= tol:
                return SeriesResult(+total, +change, neval, "integral")
            prev = total
        raise ArithmeticError(
            f"quadrature did not converge to {tol} within {max_level} levels "
            f"(last refinement changed by {mp.nstr(change, 3)})"
        )


def check_hginterep(params: PFQParams, z, prec: Precision) -> IdentityReport:
    """Compare B(a1, a1'-a1) * pFq against its Euler-type integral.

    The integral is ``kdf_integral`` on the block with joint pair (a1, a1'),
    the inner parameters as its first variable and an empty second one,
    taken at (z, 0).  Requires |z| <= 1 (``pfq``) and a1' > a1 > 0
    (``kdf_integral``).
    """
    a1, a1p = params.upper[0], params.lower[0]
    block = KdFParams([a1], [a1p], params.upper[1:], params.lower[1:], [], [])

    def points():
        with mp.workdps(prec.dps + 15):
            zz = mpmathify(z) if not isinstance(z, Fraction) else _fr_mpf(z)
            series = pfq(params, zz, prec).value
            integral = kdf_integral(block, zz, 0, prec).value
            beta = _gamma(a1) * _gamma(a1p - a1) / _gamma(a1p)
            lhs, rhs = beta * series, beta * integral
            yield lhs, rhs, abs(lhs - rhs)

    return check("hginterep", ("direct", "integral"), prec.target_tol, points())
