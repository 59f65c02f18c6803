"""Dense-series kernels: the exact Cauchy product, the unit-series quotient,
and the fixed-point Horner loop that sums every truncated series at a real
argument.

``conv_trunc`` and ``div_unit`` are the hot inner loops of every exact
identity check.  ``conv_trunc`` uses Kronecker substitution (Schönhage 1982;
Harvey, J. Symbolic Comput. 44, 2009): each coefficient list is read on its
support lattice (first nonzero index, common stride of the nonzero ones) and
packed into one Python int with signed slots, one bit of each slot holding
the sign, so a single big-int product yields every coefficient exactly,
negative ones included.  ``hyper`` also uses it, on int images of the
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

    Exact for int and Fraction coefficients.  Each input is scaled to
    integers by the lcm of its denominators and reduced to its support
    lattice: with r its first nonzero index, l its last and g the gcd of the
    offsets of its nonzero indices from r, it is x[r:l+1:g] at stride g.  Both
    inputs are read at the common stride g = gcd(g_a, g_b) (1 when both have a
    single nonzero), so output slot j lands at r_a + r_b + g j, and each input
    keeps only the slots that can reach ``order``.  The compressed lists are
    packed signed, one product A*B gives every coefficient, and one unpack
    reads the slots.  A slot is a sum of at most min(len(a), len(b)) products
    a_i b_j, so |slot| <= bound = max|a| * max|b| * min(len(a), len(b)); the
    slot width is bound.bit_length() + 1 bits, rounded up to whole bytes, the
    extra bit holding the sign.
    """
    n = order + 1
    a, da = _to_integers(a[:n])
    b, db = _to_integers(b[:n])
    out = [0] * n
    sa, sb = _support(a), _support(b)
    if sa and sb and sa[0] + sb[0] <= order:
        (ra, la, ga), (rb, lb, gb) = sa, sb
        g = math.gcd(ga, gb) or 1
        start = ra + rb
        m = (order - start) // g + 1
        a = a[ra:la + 1:g][:m]
        b = b[rb:lb + 1:g][:m]
        m = min(m, len(a) + len(b) - 1)
        bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
        width = (bound.bit_length() + 8) // 8
        out[start:start + g * m:g] = _unpack(_pack(a, width) * _pack(b, width), width, m)
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
