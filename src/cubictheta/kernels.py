"""Dense-series kernels: the exact Cauchy product, the unit-series quotient,
and the fixed-point Horner loop that sums every truncated series at a real
argument.

``conv_trunc`` and ``div_unit`` are the hot inner loops of every exact
identity check.  ``conv_trunc`` uses Kronecker substitution (Schönhage 1982;
Harvey, J. Symbolic Comput. 44, 2009): each coefficient list is read on its
support lattice (first nonzero index, common stride of the nonzero ones),
split into its residue classes modulo the lcm of the two strides, and each
class is packed into one Python int with signed slots, one bit of each slot
holding the sign.  By the CRT the pairs of classes land on disjoint output
classes, so one big-int product per pair yields every coefficient exactly,
negative ones included, and a list multiplied by itself is packed once and
squared.  ``hyper`` also uses it, on int images of the
terms, for the Kampe de Feriet anti-diagonal sums.  ``py_conv_trunc`` is
the schoolbook loop, kept as the reference the tests compare against;
nothing in the library calls it.  ``horner`` sums a series whose
coefficients are given at 2^wp on Python ints, at X = ``to_fixed(x, wp)``:
``hyper`` sums its pFq coefficient tables with it, and ``thetanum`` the theta
series, E0 and the exact truncations it is compared with.  No part of this
module is compiled, so ``BACKEND`` is always ``"python"``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

__all__ = ["conv_trunc", "div_unit", "py_conv_trunc", "to_fixed", "horner", "BACKEND"]

BACKEND = "python"


def _to_integers(coeffs: list):
    """(integer list, d) with coeffs[i] == ints[i] / d, d the lcm of the
    denominators; a list of ints comes back as it is, with d = 1."""
    if all(type(c) is int for c in coeffs):
        return coeffs, 1
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _support(x: list):
    """(r, l, g) for a list with a nonzero entry, else None: its first and last
    nonzero index and the gcd of the offsets of its nonzero indices from r
    (0 for a single nonzero)."""
    nz = [i for i, c in enumerate(x) if c]
    if not nz:
        return None
    r = nz[0]
    return r, nz[-1], math.gcd(*(i - r for i in nz))


def _bias(width: int, n: int) -> int:
    """n width-byte slots, each holding 2**(8*width - 1)."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack(coeffs: list, width: int) -> int:
    """sum(c_i * 256**(width*i)) for |c_i| < 2**(8*width - 1).

    Each slot is written biased to c_i + 2**(8*width - 1), which is
    non-negative, and the bias is taken off the packed int as a whole.
    """
    half = 1 << (8 * width - 1)
    raw = b"".join((c + half).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _bias(width, len(coeffs))


def _unpack(x: int, width: int, n: int) -> list:
    """The first ``n`` coefficients of a packed int whose slots all satisfy
    |c_i| < 2**(8*width - 1): with the bias added, slots 0..n-1 of x are each
    in [0, 256**width) whatever x holds above them, so one mask isolates
    them; taking the bias off a slot's top bit reads it as a signed slot."""
    bias = _bias(width, n)
    low = ((x + bias) & ((1 << (8 * width * n)) - 1)) ^ bias
    buf = low.to_bytes(n * width, "little")
    return [int.from_bytes(buf[i:i + width], "little", signed=True)
            for i in range(0, n * width, width)]


def conv_trunc(a: list, b: list, order: int) -> list:
    """Cauchy product of coefficient lists, truncated to ``order``.

    Exact for int and Fraction coefficients, at any strides.  Each input is
    scaled to integers by the lcm of its denominators and read on its
    support lattice r + g N: r its first nonzero index, l its last and g the
    gcd of the offsets of its nonzero indices from r, 0 for a single nonzero,
    which is one class and takes the other input's stride.

    With L = lcm(g_a, g_b) and g = gcd(g_a, g_b), a splits into the L/g_a
    classes r_a + s + L N, s = 0, g_a, ..., and b into the L/g_b classes
    r_b + t + L N.  The product of two classes lands on
    r_a + r_b + s + t + L N, and the L/g pairs (s, t) land on distinct
    classes mod L: s + t = s' + t' mod L gives (s - s')/g = 0 mod g_b/g and
    (t - t')/g = 0 mod g_a/g (CRT, g_a/g and g_b/g coprime), so s = s' and
    t = t'.  The pairs therefore fill the classes r_a + r_b + g Z mod L one
    to one, no output slot sums two products, and each pair is one product
    on the lattice of step L.  Equal strides give one pair.  A pair keeps the
    slots that can reach ``order``, and a pair with an all-zero class is
    skipped.  A pair's slot is a sum of at most min(len) products, so
    |slot| <= max|a class| * max|b class| * min(len) over its truncated
    classes; the largest of the pairs' bounds sets one slot width for the
    call, bound.bit_length() + 1 bits rounded up to whole bytes, the extra
    bit holding the sign.  Each class is packed once, at the length of its
    longest pair; the slots above a pair's own length are not read, and the
    low slots of a packed product do not depend on them (``_unpack``).
    When ``b is a`` the classes are packed once and each product is p * p,
    which CPython squares.
    """
    n = order + 1
    square = b is a
    a, da = _to_integers(a[:n])
    b, db = (a, da) if square else _to_integers(b[:n])
    out = [0] * n
    sa = _support(a)
    sb = sa if square else _support(b)
    if sa and sb and sa[0] + sb[0] <= order:
        (ra, la, ga), (rb, lb, gb) = sa, sb
        ga = ga or gb or 1
        gb = gb or ga
        L = math.lcm(ga, gb)
        # each class o + L N, cut to its longest pair: the one with the
        # other input's first class
        ca = [(o, a[o:la + 1:L][:max(0, (order - o - rb) // L + 1)])
              for o in range(ra, ra + L, ga)]
        cb = ca if square else [(o, b[o:lb + 1:L][:max(0, (order - o - ra) // L + 1)])
                                for o in range(rb, rb + L, gb)]
        pairs, bound = [], 0
        for i, (oa, xa) in enumerate(ca):
            for j, (ob, xb) in enumerate(cb):
                m = (order - oa - ob) // L + 1
                if m < 1 or not (any(xa[:m]) and any(xb[:m])):
                    continue
                ta, tb = xa[:m], xb[:m]
                bound = max(bound, max(map(abs, ta)) * max(map(abs, tb)) * min(len(ta), len(tb)))
                pairs.append((i, j, oa + ob, min(m, len(ta) + len(tb) - 1)))
        width = (bound.bit_length() + 8) // 8
        pa = [_pack(x, width) for _, x in ca]
        pb = pa if square else [_pack(x, width) for _, x in cb]
        for i, j, start, m in pairs:
            out[start:start + L * m:L] = _unpack(pa[i] * pb[j], width, m)
    den = da * db
    if den != 1:
        out = [Fraction(c, den) for c in out]
    return out


def py_conv_trunc(a: list, b: list, order: int) -> list:
    """Reference schoolbook Cauchy product with the same contract as ``conv_trunc``."""
    n = order + 1
    na = min(len(a), n)
    nb = min(len(b), n)
    out = [0] * n
    for i in range(na):
        ai = a[i]
        if ai == 0:
            continue
        hi = min(n - i, nb)
        for j in range(hi):
            bj = b[j]
            if bj != 0:
                out[i + j] += ai * bj
    return out


def div_unit(num: list, den: list, order: int) -> list:
    """Series quotient num/den truncated to ``order``; requires den[0] == 1."""
    if not den or den[0] != 1:
        raise ValueError("div_unit requires den[0] == 1")
    n = order + 1
    out = [0] * n
    dnz = [(k, den[k]) for k in range(1, min(len(den), n)) if den[k] != 0]
    for m in range(n):
        s = num[m] if m < len(num) else 0
        for k, dk in dnz:
            if k > m:
                break
            s -= dk * out[m - k]
        out[m] = s
    return out


def to_fixed(x, wp: int) -> int:
    """The mpf x times 2^wp, rounded to the nearest int, half up in magnitude.

    Where |x| < 2^-(wp+1) the result is 0 and no shift is built: x's binary
    exponent may be as low as -10^61 (a dual argument exp(-2 pi/(3u)) at a
    tiny u), and a shift by its size would not fit in memory.
    """
    sign, man, exp, bc = x._mpf_
    shift = exp + wp
    if shift + bc < 0:
        return 0
    X = man << shift if shift >= 0 else (man + (1 << (-shift - 1))) >> -shift
    return -X if sign else X


def horner(coeffs: list, N: int, X: int, wp: int) -> int:
    """sum_(k<=N) coeffs[k] (X 2^-wp)^k at 2^wp, coeffs given at 2^wp, by
    Horner's rule with a floor after each product: s <- floor(s X / 2^wp) +
    coeffs[k].

    Rounding, in ulps of 2^-wp, against the exact sum of the coefficients
    s_k at x = X 2^-wp: each floor costs at most one ulp, and so does each
    coefficient floored to 2^-wp, so the loop is within 2 (N + 1) ulps.  X
    rounded from z costs at most 1/2 sum_k k |s_k| z^(k-1) ulps more, which
    is at most c/(1 - z)^3 when |s_k| <= c (k + 1).
    """
    s = 0
    for c in islice(reversed(coeffs), len(coeffs) - N - 1, None):
        s = (s * X >> wp) + c
    return s
