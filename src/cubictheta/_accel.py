"""Sequence-transformation helpers for slowly convergent partial sums.

The boundary Kampe de Feriet sums have remainders of the form
D**(-theta) * (c0*log D + c1) + lower orders.  A plain Levin u-transform
models only pure power remainders and stalls on the logarithm, so the main
tool here is a two/three-remainder Levin-Sidi scheme realized through the
E-algorithm: the model functions n*a_n/n**j, n**2*Da_n/n**j (and optionally
n**3*D2a_n/n**j) jointly span the log-modulated tails.  Eliminations run at a
much higher internal precision than the data because the recursion cancels
aggressively.  They run in fixed point on Python ints: each row is one list
of ints at a shared exponent, its largest entry kept at prec + guard bits,
and the guard is raised until it covers the measured spread of every row
(see ``dm_extrapolate``).  Only the column heads are returned, so a
kmax-column run takes a window of kmax + 1 points and fills just the
triangle those heads read, about kmax**3/3 row updates.
"""

from __future__ import annotations

from itertools import islice

from mpmath import mp, mpf

__all__ = ["dm_extrapolate", "richardson", "pick_plateau"]

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

    Suited to pure power-law tails; kept as the fallback when the d(m)
    scheme reports an unstable plateau.
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


def pick_plateau(ests, skip: int = 4):
    """Pick the most stable entry of an extrapolation column.

    Returns (value, stability): stability is the summed distance to the two
    neighbouring column heads, the transformation's own convergence signal.
    """
    if len(ests) < skip + 3:
        raise ArithmeticError("extrapolation produced too few columns")
    diffs = [abs(ests[i + 1] - ests[i]) for i in range(len(ests) - 1)]
    best = min(
        range(skip, len(diffs)), key=lambda i: diffs[i] + diffs[i - 1]
    )
    return ests[best + 1], diffs[best] + diffs[best - 1]
