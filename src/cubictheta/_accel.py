"""Extrapolation of slowly convergent partial sums to their limit.

``known_exponent_fit`` is the library's one extrapolation.  Its caller knows
the form of the remainder S_inf - S_D in advance, as families of functions
sign^N N^-(e + j) (log N)^l (N = D + 1, j >= 0, l <= lmax), read off the
parameters of the series (``hyper._kdf_families``).  The fit solves once for
weights w, independent of the data, that send the constant to 1 and the K
largest remainder functions to 0 on K + 1 equally spaced points, and returns
sum w_d S_d with the weight norm sum |w_d| that scales the rounding of the
sums (Sidi, *Practical Extrapolation Methods*, CUP 2003, ch. 1-4).

``dm_extrapolate`` and ``richardson`` are the d(3) E-algorithm and a
polynomial Richardson scheme that the fit replaced.  No library code calls
them; they stay for the benchmark's tracing targets, which bind them by
name.  ``dm_extrapolate`` models the remainder with data-derived functions
n*a_n/n**j, n**2*Da_n/n**j and n**3*D2a_n/n**j, and runs the E-algorithm in
fixed point on Python ints: each row is one list of ints at a shared
exponent, its largest entry kept at prec + guard bits, and the guard is
raised until it covers the measured spread of every row.  Only the column heads are returned, so a kmax-column
run takes a window of kmax + 1 points and fills just the triangle those heads
read, about kmax**3/3 row updates.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import count, islice

from mpmath import mp, mpf

__all__ = ["known_exponent_fit", "max_order", "dm_extrapolate", "richardson"]

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


# starting guard bits of the int elimination: the boundary windows of the
# Theorem blocks spread 24-28 bits, those of the benchmark's blocks 24-33
_DM_GUARD = 40


def dm_extrapolate(
    partial_sums,
    offset: int,
    stride: int,
    kmax: int,
    dps_hi: int,
    m: int = 3,
):
    """Levin-Sidi d(m)-type extrapolation via the E-algorithm on a tail window.

    The window is the kmax + 1 points offset + stride*i, i = 0..kmax, so
    ``partial_sums`` must cover indices up to offset + stride*kmax + m - 1.
    Returns the successive column heads E_1^(0) .. E_kmax^(0) as mpfs at
    ``dps_hi`` digits, stopping early at a zero denominator; a non-finite
    sum in the window makes every head nan.  A level-(k+1) entry at n reads
    only the level-k entries at n and n + 1, so level k keeps just the
    kmax - k entries the heads read: about kmax**3/3 row updates, each
    row[n] - (row[n+1] - row[n])*q_n with q_n = g_k(n)/(g_k(n+1) - g_k(n)),
    the one division of each level shared by every row.

    The elimination runs on Python ints.  The sums are read exactly, at
    ``dps_hi``, as signed ints at one common exponent, so the differences
    and the model rows with a nonnegative power of n + 1 are exact; the
    others take one floor division.  Each row is a list of ints at one
    shared exponent, rescaled after every level so that its largest entry
    has W = prec(dps_hi) + guard bits; q_n is floor(g_k(n) 2^W / (g_k(n+1) -
    g_k(n))) and an update is row[n] - ((row[n+1] - row[n]) Q_n >> W).  So
    every entry is rounded relative to its row's largest entry, where an mpf
    elimination rounds it relative to itself, and the guard must cover each
    row's spread, bitlen(max) - bitlen(min nonzero).  The rule: the guard
    starts at ``_DM_GUARD``; while the largest spread over every row at
    every level exceeds it, the elimination is redone with the guard raised
    to that spread, and at least doubled, up to prec(dps_hi).  A spread that
    keeps growing with W is made of rounding residues of exact cancellations
    (linearly dependent model rows), which no width removes.
    """
    if offset + stride * kmax + m - 1 >= len(partial_sums):
        raise ValueError("window exceeds the available partial sums")
    idx = [offset + stride * i for i in range(kmax + 1)]
    with mp.workdps(dps_hi):
        prec = mp.prec
        read = {n: mpf(partial_sums[n]) for i in idx for n in range(i - 1, i + m)}
        if not all(map(mp.isfinite, read.values())):
            return [mp.nan] * kmax
    # _mpf_ is (sign, unsigned mantissa, exponent, bit count); 0 is (0, 0, 0, 0)
    raw = {n: x._mpf_ for n, x in read.items()}
    e0 = min(e for _, _, e, _ in raw.values())
    s = {n: (-man if sign else man) << (e - e0) for n, (sign, man, e, _) in raw.items()}
    diff = {n: s[n] - s[n - 1] for i in idx for n in range(i, i + m)}
    model = []
    for j in range(kmax):
        fam, half = j % m, j // m
        if fam == 0:
            v = [diff[n] for n in idx]
        elif fam == 1:
            v = [diff[n + 1] - diff[n] for n in idx]
        else:
            v = [diff[n + 2] - 2 * diff[n + 1] + diff[n] for n in idx]
        model.append((fam + 1 - half, v))
    guard = _DM_GUARD
    while True:
        heads, spread = _eliminate([s[n] for n in idx], e0, idx, model, prec + guard)
        if spread <= guard or guard >= prec:
            break
        guard = min(max(spread, 2 * guard), prec)
    with mp.workdps(dps_hi):
        return [mpf(head) for head in heads]


def _rescale(row, exp, width):
    """Shift a row so that its largest entry has ``width`` bits; returns
    (row, exponent, spread in bits)."""
    bits = list(map(int.bit_length, row))
    top = max(bits)
    if not top:
        return row, exp, 0
    spread = top - min(filter(None, bits))
    shift = top - width
    if shift > 0:
        row = [x >> shift for x in row]
    elif shift < 0:
        row = [x << -shift for x in row]
    return row, exp + shift, spread


def _eliminate(E, e0, idx, model, width):
    """The E-algorithm triangle on int rows at ``width`` bits; returns the
    column heads as (mantissa, exponent) pairs and the largest row spread."""
    rows = [_rescale(E, e0, width)]
    for p, v in model:
        if p >= 0:
            rows.append(_rescale([(n + 1) ** p * x for n, x in zip(idx, v)], e0, width))
        else:
            shift = width + (idx[-1] + 1).bit_length() * -p
            rows.append(_rescale([(x << shift) // (n + 1) ** -p for n, x in zip(idx, v)],
                                 e0 - shift, width))
    spread = max(r[2] for r in rows)
    heads = []
    # rows[0] is the E row; rows[1] is always the g row eliminated next
    for _ in range(len(model)):
        gk = rows.pop(1)[0]
        denom = [b - a for a, b in zip(gk, islice(gk, 1, None))]
        if not all(denom):
            break
        q = [(a << width) // d for a, d in zip(gk, denom)]
        rows = [
            _rescale([a - (((b - a) * c) >> width)
                      for a, b, c in zip(row, islice(row, 1, None), q)], exp, width)
            for row, exp, _ in rows
        ]
        spread = max(spread, *(r[2] for r in rows))
        heads.append((rows[0][0][0], rows[0][1]))
    return heads, spread


def richardson(partial_sums, dps_hi: int, order: int = 6):
    """Polynomial Richardson extrapolation in 1/n on the last samples.

    Suited to pure power-law tails.  No library code calls it.
    """
    with mp.workdps(dps_hi):
        pts = min(order + 1, len(partial_sums))
        xs = []
        ys = []
        n_total = len(partial_sums)
        for i in range(pts):
            n = n_total - 1 - i * max(1, n_total // (2 * pts))
            xs.append(mpf(1) / (n + 1))
            ys.append(mp.mpf(partial_sums[n]))
        tab = list(ys)
        for k in range(1, pts):
            for i in range(pts - k):
                tab[i] = (tab[i + 1] * xs[i] - tab[i] * xs[i + k]) / (xs[i] - xs[i + k])
        return +tab[0]
