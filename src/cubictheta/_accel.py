"""Sequence-transformation helpers for slowly convergent partial sums.

The boundary Kampe de Feriet sums have remainders of the form
D**(-theta) * (c0*log D + c1) + lower orders.  A plain Levin u-transform
models only pure power remainders and stalls on the logarithm, so the main
tool here is a two/three-remainder Levin-Sidi scheme realized through the
E-algorithm: the model functions n*a_n/n**j, n**2*Da_n/n**j (and optionally
n**3*D2a_n/n**j) jointly span the log-modulated tails.  Eliminations run at a
much higher internal precision than the data because the recursion cancels
aggressively.
"""

from __future__ import annotations

from mpmath import mp, mpf

__all__ = ["dm_extrapolate", "richardson", "pick_plateau"]


def dm_extrapolate(
    partial_sums,
    offset: int,
    stride: int,
    npts: int,
    kmax: int,
    dps_hi: int,
    m: int = 3,
):
    """Levin-Sidi d(m)-type extrapolation via the E-algorithm on a tail window.

    ``partial_sums`` must cover indices up to offset + stride*(npts-1) + m - 1.
    Returns the successive E_k^(0) column heads.
    """
    idx = [offset + stride * i for i in range(npts)]
    if idx[-1] + m - 1 >= len(partial_sums):
        raise ValueError("window exceeds the available partial sums")
    with mp.workdps(dps_hi):
        s = {
            n: mp.mpf(partial_sums[n])
            for i in idx
            for n in range(i - 1, i + m)
        }
        diff = {n: s[n] - s[n - 1] for i in idx for n in range(i, i + m)}
        E = [mp.mpf(partial_sums[n]) for n in idx]
        gs = []
        for j in range(kmax):
            fam, half = j % m, j // m
            g = []
            for n in idx:
                nn = mpf(n + 1)
                if fam == 0:
                    v = diff[n]
                elif fam == 1:
                    v = diff[n + 1] - diff[n]
                else:
                    v = diff[n + 2] - 2 * diff[n + 1] + diff[n]
                g.append(nn ** (fam + 1) * v / nn ** half)
            gs.append(g)
        width = len(idx)
        ests = []
        for k in range(min(kmax, width - 1)):
            gk = gs[k]
            denom = [gk[n + 1] - gk[n] for n in range(width - 1 - k)]
            if any(x == 0 for x in denom):
                break
            E = [
                (E[n] * gk[n + 1] - E[n + 1] * gk[n]) / denom[n]
                for n in range(width - 1 - k)
            ]
            new_gs: list = [None] * (k + 1)
            for i in range(k + 1, kmax):
                gi = gs[i]
                new_gs.append(
                    [
                        (gi[n] * gk[n + 1] - gi[n + 1] * gk[n]) / denom[n]
                        for n in range(width - 1 - k)
                    ]
                )
            gs = new_gs
            ests.append(+E[0])
        return ests


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
