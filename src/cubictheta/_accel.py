"""Sequence-transformation helpers for slowly convergent partial sums.

The boundary Kampe de Feriet sums have remainders of the form
D**(-theta) * (c0*log D + c1) + lower orders.  A plain Levin u-transform
models only pure power remainders and stalls on the logarithm, so the main
tool here is a two/three-remainder Levin-Sidi scheme realized through the
E-algorithm: the model functions n*a_n/n**j, n**2*Da_n/n**j (and optionally
n**3*D2a_n/n**j) jointly span the log-modulated tails.  Eliminations run at a
much higher internal precision than the data because the recursion cancels
aggressively.  Only the column heads are returned, so a kmax-column run takes
a window of kmax + 1 points and fills just the triangle those heads read,
about kmax**3/3 row updates.
"""

from __future__ import annotations

from mpmath import mp, mpf

__all__ = ["dm_extrapolate", "richardson", "pick_plateau"]


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
    Returns the successive column heads E_1^(0) .. E_kmax^(0), stopping early
    at a zero denominator.  A level-(k+1) entry at n reads only the level-k
    entries at n and n + 1, so level k keeps just the kmax - k entries the
    heads read: about kmax**3/3 row updates, each row[n] - (row[n+1] -
    row[n])*q_n with q_n = g_k(n)/(g_k(n+1) - g_k(n)), the one division of
    each level shared by every row.
    """
    if offset + stride * kmax + m - 1 >= len(partial_sums):
        raise ValueError("window exceeds the available partial sums")
    idx = [offset + stride * i for i in range(kmax + 1)]
    with mp.workdps(dps_hi):
        s = {
            n: mp.mpf(partial_sums[n])
            for i in idx
            for n in range(i - 1, i + m)
        }
        diff = {n: s[n] - s[n - 1] for i in idx for n in range(i, i + m)}
        rows = [[s[n] for n in idx]]
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
            rows.append(g)
        # rows[0] is the E row; rows[1] is always the g row eliminated next
        ests = []
        for k in range(kmax):
            gk = rows.pop(1)
            denom = [gk[n + 1] - gk[n] for n in range(kmax - k)]
            if any(x == 0 for x in denom):
                break
            q = [gk[n] / x for n, x in enumerate(denom)]
            rows = [
                [row[n] - (row[n + 1] - row[n]) * q[n] for n in range(kmax - k)]
                for row in rows
            ]
            ests.append(+rows[0][0])
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
