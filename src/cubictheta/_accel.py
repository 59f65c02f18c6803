"""Extrapolation of slowly convergent partial sums to their limit.

``known_exponent_fit`` is the library's one extrapolation.  Its caller knows
the form of the remainder S_inf - S_D in advance, as families of functions
sign^N N^-(e + j) (log N)^l (N = D + 1, j >= 0, l <= lmax), read off the
parameters of the series (``hyper._kdf_families``).  The fit solves once for
weights w, independent of the data, that send the constant to 1 and the K
largest remainder functions to 0 on K + 1 equally spaced points, and returns
sum w_d S_d with the weight norm sum |w_d| that scales the rounding of the
sums (Sidi, *Practical Extrapolation Methods*, CUP 2003, ch. 1-4).

``richardson`` is Neville's rule at 0: the value there of the polynomial
through given points, which ``thetanum.differential_residual`` takes in h^2
for the limit of its finite-difference ladder.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import count, islice

from mpmath import mp, mpf

__all__ = ["known_exponent_fit", "max_order", "richardson"]

# guard bits of the weight elimination above the precision of the sums
_FIT_GUARD = 64


def known_exponent_fit(sums, families, order: int):
    """Extrapolate the partial sums S_0..S_D to D -> inf; returns
    (value, sum |w_d|).

    ``families`` is a tuple of (e, lmax, sign): the remainder S_inf - S_d is a
    sum of c sign^N N^-(e + j) (log N)^l, N = d + 1, j >= 0, l <= lmax, with
    e an exact rational.  The model is the constant plus the first ``order``
    = K of those functions, largest first (``_model``), on K + 1 equally
    spaced indices d of [0.35 D, D] that end at D, so K is at most
    ``max_order(D)`` (ValueError otherwise).  Their step is odd, so that
    sign^N alternates along them: with an even step every point has one
    parity, an alternating function turns into a smooth one, and the fit
    into the ill-conditioned smooth fit.  The weights w solve
    sum_d w_d phi(N_d) = [phi = 1] for each model function phi, so they do
    not depend on the data, and the value is sum_d w_d S_d: exact on ints
    (the sums at one common exponent, the weights at 2^-wp), rounded once to
    the working precision.  The weights are solved at wp = prec + 64 bits
    and cached per (families, D, K, wp).  Sums off by at most r each move
    the value by at most r sum |w_d|.
    """
    D = len(sums) - 1
    wp = mp.prec + _FIT_GUARD
    pts, w = _weights(families, D, order, wp)
    # _mpf_ is (sign, unsigned mantissa, exponent, bit count); 0 is (0, 0, 0, 0)
    raw = [sums[d]._mpf_ for d in pts]
    exp = min((e for _, man, e, _ in raw if man), default=0)
    total = sum(wd * (-man if sign else man) << (e - exp)
                for wd, (sign, man, e, _) in zip(w, raw) if man)
    return mp.ldexp(mpf(total), exp - wp), mp.ldexp(sum(map(abs, w)), -wp)


def max_order(D: int) -> int:
    """The largest fit order on S_0..S_D: D - ceil(0.35 D), the most steps
    of odd length >= 1 on [0.35 D, D]."""
    return D - -(-7 * D // 20)


def _family(index, e, lmax):
    for j in count():
        for l in range(lmax, -1, -1):
            yield e + j, -l, index


def _model(families):
    """(family index, j, l) of each remainder function, largest first: by
    e + j, then by falling l, then by family."""
    runs = [_family(i, e, lmax) for i, (e, lmax, _) in enumerate(families)]
    for e, neg_l, i in heapq.merge(*runs):
        yield i, int(e - families[i][0]), -neg_l


@lru_cache(maxsize=256)
def _weights(families, D: int, K: int, wp: int):
    """The fit points and the weights of ``known_exponent_fit``, as ints at 2^wp.

    Each model row holds sign^N (N0/N)^(e + j) (log N)^l at the points, N0
    the first, a constant multiple of the model function: (N0/N)^e from one
    exp per family and point, times N0^j / N^j by one floor.  The row
    is then scaled so that its largest entry is 2^wp, and the system is
    solved by ``_solve_first_unit``.
    """
    span = max_order(D)
    if K > span:
        raise ValueError(f"fit order {K} needs more than the {span + 1} points "
                         f"of odd step on [0.35 D, D] at D = {D}")
    step = span // K
    step -= 1 - step % 2
    pts = tuple(D - step * (K - i) for i in range(K + 1))
    n0 = pts[0] + 1
    with mp.workprec(wp + 16):
        logs = [mp.log(d + 1) for d in pts]
        base = [[sign ** (d + 1) * int(mp.ldexp(mp.exp(mpf(e.numerator) / e.denominator
                                                       * (logs[0] - lg)), wp))
                 for e, _, sign in families] for d, lg in zip(pts, logs)]
        fixed_logs = [int(mp.ldexp(lg, wp)) for lg in logs]
    rows = [[1 << wp] * (K + 1)]
    for f, j, l in islice(_model(families), K):
        row = []
        for d, b, lg in zip(pts, base, fixed_logs):
            v = b[f] * n0 ** j // (d + 1) ** j
            for _ in range(l):
                v = v * lg >> wp
            row.append(v)
        top = max(map(abs, row))
        rows.append([(v << wp) // top for v in row])
    return pts, tuple(_solve_first_unit(rows, wp))


def _solve_first_unit(rows, wp: int):
    """The w with sum_i rows[r][i] w_i = [r = 0], by Gaussian elimination with
    partial pivoting in fixed point: entries, multipliers and w are ints at
    2^wp, each product floored once.  ``rows`` is overwritten; the entries
    below the diagonal are left stale, as nothing reads them again."""
    n = len(rows)
    rhs = [1 << wp] + [0] * (n - 1)
    for p in range(n):
        q = max(range(p, n), key=lambda r: abs(rows[r][p]))
        rows[p], rows[q] = rows[q], rows[p]
        rhs[p], rhs[q] = rhs[q], rhs[p]
        top, pivot = rows[p][p], rows[p][p + 1:]
        for r in range(p + 1, n):
            m = (rows[r][p] << wp) // top
            if m:
                rows[r][p + 1:] = [a - (m * b >> wp) for a, b in zip(rows[r][p + 1:], pivot)]
                rhs[r] -= m * rhs[p] >> wp
    w = [0] * n
    for i in reversed(range(n)):
        acc = (rhs[i] << wp) - sum(a * b for a, b in zip(rows[i][i + 1:], w[i + 1:]))
        w[i] = acc // rows[i][i]
    return w


def richardson(xs, ys):
    """The value at 0 of the polynomial through the points (xs[i], ys[i]), by
    Neville's rule.  Works on floats or mpfs, at the caller's precision."""
    tab = list(ys)
    for k in range(1, len(tab)):
        for i in range(len(tab) - k):
            tab[i] = (tab[i + 1] * xs[i] - tab[i] * xs[i + k]) / (xs[i] - xs[i + k])
    return tab[0]


# perfbench's tracing TARGETS binds this name; the benchmark change that
# drops that entry (ROADMAP item 2) deletes it too
def dm_extrapolate(*args, **kwargs):
    raise NotImplementedError("the d(3) E-algorithm is gone; use known_exponent_fit")
