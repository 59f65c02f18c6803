"""Extrapolation of slowly convergent partial sums to their limit.

``known_exponent_fit`` is the library's one extrapolation.  Its caller knows
the form of the remainder S_inf - S_D in advance, as families of functions
sign^N N^-(e + j) (log N)^l (N = D + 1, j >= 0, l <= lmax), read off the
parameters of the series (``hyper._kdf_families``).  The fit solves for
weights w, independent of the data, that send the constant to 1 and the K
largest remainder functions to 0 on K + 1 points, and returns sum w_d S_d
with the weight norm sum |w_d| that scales the rounding of the sums (Sidi,
*Practical Extrapolation Methods*, CUP 2003, ch. 1-4).  The points of every
order lie on one grid D, D - 3, D - 6, ..., order K on its first K + 1, so
the orders of one search share one elimination that grows by a row and a
column per order, and each order's weights are one back-substitution: the
nested-point elimination of the FS-algorithm (Ford & Sidi, SIAM J. Numer.
Anal. 24 (1987) 1212-1232) and of Brezinski's E-algorithm (Numer. Math. 35
(1980) 175-187), on the known-exponent model.  The elimination's precision
follows its measured loss of bits (``_fit_weights``), so the weights, and
sum |w|, do not depend on the precision of the sums.

``richardson`` is Neville's rule at 0: the value there of the polynomial
through given points, which ``thetanum.differential_residual`` takes in h^2
for the limit of its finite-difference ladder.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import count
from operator import mul

from mpmath import mp, mpf

__all__ = ["known_exponent_fit", "max_order", "richardson"]

# guard bits of the weight elimination above the precision of the sums
_FIT_GUARD = 64
# bits of every weight that the elimination keeps beyond its measured loss
_FIT_KEEP = 32
# the step of the fit grid: odd, so that sign^N alternates along it
_STEP = 3


def known_exponent_fit(sums, families, order: int):
    """Extrapolate the partial sums S_0..S_D to D -> inf; returns
    (value, sum |w_d|).

    ``families`` is a tuple of (e, lmax, sign): the remainder S_inf - S_d is a
    sum of c sign^N N^-(e + j) (log N)^l, N = d + 1, j >= 0, l <= lmax, with
    e an exact rational.  The model is the constant plus the first ``order``
    = K of those functions, largest first (``_model``), on the K + 1 indices
    D, D - 3, ..., D - 3K, which stay in [0.35 D, D] for K at most
    ``max_order(D)`` (ValueError otherwise).  The step is odd, so that
    sign^N alternates along them: with an even step every point has one
    parity, an alternating function turns into a smooth one, and the fit
    into the ill-conditioned smooth fit.  The weights w solve
    sum_d w_d phi(N_d) = [phi = 1] for each model function phi, so they do
    not depend on the data, and the value is sum_d w_d S_d: exact on ints
    (the sums at one common exponent, the weights at 2^-wp), rounded once to
    the working precision.  The weights come from one elimination per
    (families, D, wp) (``_Grid``, cached), grown to the largest order asked
    for, at the first wp of prec + 64, twice that, four times that, ...
    that keeps 32 bits of every weight beyond the bits the elimination
    lost at this order (``_fit_weights``).  The constant row is met
    exactly: the weights sum to 1.  Sums off by at most r each move the
    value by at most r sum |w_d|.
    """
    D = len(sums) - 1
    if order > max_order(D):
        raise ValueError(f"fit order {order} needs more than the {max_order(D) + 1} "
                         f"points of step {_STEP} on [0.35 D, D] at D = {D}")
    pts, w, wp = _fit_weights(families, D, order)
    # _mpf_ is (sign, unsigned mantissa, exponent, bit count); 0 is (0, 0, 0, 0)
    raw = [sums[d]._mpf_ for d in pts]
    exp = min((e for _, man, e, _ in raw if man), default=0)
    total = sum(wd * (-man if sign else man) << (e - exp)
                for wd, (sign, man, e, _) in zip(w, raw) if man)
    return mp.ldexp(mpf(total), exp - wp), mp.ldexp(sum(map(abs, w)), -wp)


def max_order(D: int) -> int:
    """The largest fit order on S_0..S_D: (D - ceil(0.35 D)) // 3, the most
    steps of 3 from D that stay in [0.35 D, D]."""
    return (D - -(-7 * D // 20)) // _STEP


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


def _fit_weights(families, D: int, order: int):
    """The points and the weights of ``order`` on S_0..S_D, as ints at 2^wp,
    and that wp.

    The elimination loses bits as the order grows: about log2 of the
    condition of the order's matrix, which for a one-sign model is near
    log2 sum |w| and is covered by the precision raise of the caller
    (``hyper._extrapolate``), but for an alternating model grows by 5 to 7
    bits an order while sum |w| stays near 1.  ``_Grid.weights`` bounds the
    loss, so wp starts at prec + 64 and doubles until it keeps 32 bits of
    every weight beyond it.  A grid that fell short at an order is not grown
    past it again.
    """
    wp = mp.prec + _FIT_GUARD
    while True:
        grid = _grid(families, D, wp)
        if order < grid.short:
            pts, w, lost = grid.weights(order)
            if lost + _FIT_KEEP <= wp:
                return pts, w, wp
            grid.short = order
        wp *= 2


@lru_cache(maxsize=16)
def _grid(families, D: int, wp: int) -> _Grid:
    return _Grid(families, D, wp)


class _Grid:
    """The points D, D - 3, D - 6, ... of the fits on S_0..S_D, and the LU
    elimination of their model matrix, grown one order at a time.

    Order K takes points 0..K and the constant plus the first K model
    functions (``_model``), so its matrix is the leading (K + 1) x (K + 1)
    block of one matrix A, row r the r-th function and column i the i-th
    point.  So one Doolittle elimination A = L U without row exchanges
    serves every order: order k adds row k of L, column k of U and entry k
    of y = L^-1 e_0, O(k^2), and the weights of order K solve U_K w = y_K
    by one back-substitution, O(K^2).  A pivot that vanishes raises
    ArithmeticError; nothing falls back.  Entry (r, i) is
    sign^N (N0/N)^(e + j) (log N)^l at N = N_i, N0 = D + 1, a constant
    multiple of the model function: (N0/N)^e from one exp per family and
    point, times N0^j / N^j by one floor.  Row r is scaled so that its
    largest entry on points 0..r, those of the order that adds it, is 2^wp.
    Entries, multipliers and weights are ints at 2^wp; each sum of products
    is exact and floored once.  Row 0 of U is row 0 of A, so the weights sum
    to 1 exactly.  ``short`` is the first order at which the grid fell short
    of the bits ``_fit_weights`` asks for (none yet: a float inf).
    """

    def __init__(self, families, D: int, wp: int):
        self.families, self.D, self.wp = families, D, wp
        with mp.workprec(wp + 16):
            self.log0 = mp.log(D + 1)
        self.model = _model(families)
        self.pts, self.logs, self.base = [], [], []  # per point: d, log N, (N0/N)^e
        self.funcs = []  # ((family, j, l), scale) of rows 1, 2, ...
        self.lower = [[]]  # L[k][:k]
        self.upper = []  # U[:k + 1][k], by column k
        self.y = []
        self.short = float("inf")

    def _add_point(self):
        wp, d = self.wp, self.D - _STEP * len(self.pts)
        with mp.workprec(wp + 16):
            lg = mp.log(d + 1)
            self.base.append([sign ** (d + 1) * int(mp.ldexp(
                mp.exp(mpf(e.numerator) / e.denominator * (self.log0 - lg)), wp))
                for e, _, sign in self.families])
            self.logs.append(int(mp.ldexp(lg, wp)))
        self.pts.append(d)

    def _raw(self, func, i: int) -> int:
        """Model function ``func`` = (family, j, l) at point i, unscaled."""
        f, j, l = func
        v = self.base[i][f] * (self.D + 1) ** j // (self.pts[i] + 1) ** j
        for _ in range(l):
            v = v * self.logs[i] >> self.wp
        return v

    def _grow(self):
        wp, k = self.wp, len(self.upper)
        lower, upper, y = self.lower, self.upper, self.y
        self._add_point()
        if k:
            func = next(self.model)
            raw = [self._raw(func, i) for i in range(k + 1)]
            top = max(map(abs, raw))
            self.funcs.append((func, top))
            row = []
            for j, v in enumerate(raw[:k]):
                acc = ((v << wp) // top << wp) - sum(map(mul, row, upper[j]))
                row.append(acc // upper[j][j])
            lower.append(row)
        # column k of A: the constant, then each model row at the new point
        col = []
        for i, a in enumerate([1 << wp] + [(self._raw(func, k) << wp) // top
                                           for func, top in self.funcs]):
            col.append(a - (sum(map(mul, lower[i], col)) >> wp))
        if not col[k]:
            raise ArithmeticError(f"the fit elimination has a zero pivot at order {k} "
                                  f"(D = {self.D})")
        upper.append(col)
        y.append(-(sum(map(mul, lower[k], y)) >> wp) if k else 1 << wp)

    def weights(self, K: int):
        """The points and the weights of order K, as ints at 2^wp, and a bound
        on the bits of the weights that the elimination lost.

        The bound is 5/4 log2 |A_K^-1 e_K|_1, the last column of the inverse
        by one more back-substitution (L e_K = e_K).  The bits lost, against
        weights solved 1200 bits higher, stayed below 1.16 times that log
        plus 10, for orders 8 to 112 at D = 160 to 1280, on one-sign,
        two-family, alternating and mixed models.
        """
        while len(self.upper) <= K:
            self._grow()
        wp, upper = self.wp, self.upper
        w, v = [0] * (K + 1), [0] * (K + 1)
        for i in reversed(range(K + 1)):
            col = [upper[m][i] for m in range(i + 1, K + 1)]
            w[i] = ((self.y[i] << wp) - sum(map(mul, col, w[i + 1:]))) // upper[i][i]
            v[i] = (((i == K) << 2 * wp) - sum(map(mul, col, v[i + 1:]))) // upper[i][i]
        lost = -(-5 * (sum(map(abs, v)).bit_length() - wp) // 4)
        return tuple(self.pts[:K + 1]), tuple(w), max(lost, 0)


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
