"""Dense-series kernels: the exact Cauchy product and the unit-series quotient.

``conv_trunc`` and ``div_unit`` are the hot inner loops of every exact
identity check.  ``conv_trunc`` uses Kronecker substitution (Schönhage 1982;
Harvey, J. Symbolic Comput. 44, 2009): each coefficient list is packed into
one Python int, so a single big-int product yields every coefficient
exactly.  ``hyper`` also uses it, on int images of the terms, for the Kampe
de Feriet anti-diagonal sums.  ``py_conv_trunc`` is the schoolbook loop,
kept as the reference the tests compare against; nothing in the library
calls it.  No part of this module is compiled, so ``BACKEND`` is always
``"python"``.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["conv_trunc", "div_unit", "py_conv_trunc", "BACKEND"]

BACKEND = "python"


def _to_integers(coeffs: list):
    """(integer list, d) with coeffs[i] == ints[i] / d, d the lcm of the denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _pack(coeffs: list, width: int) -> int:
    """sum(c_i * 256**(width*i)) for non-negative c_i < 256**width."""
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def _unpack(x: int, width: int, n: int) -> list:
    """The first ``n`` width-byte slots of a non-negative packed int."""
    buf = x.to_bytes(max(n * width, (x.bit_length() + 7) // 8), "little")
    return [int.from_bytes(buf[i:i + width], "little") for i in range(0, n * width, width)]


def conv_trunc(a: list, b: list, order: int) -> list:
    """Cauchy product of coefficient lists, truncated to ``order``.

    Exact for int and Fraction coefficients.  Each input is scaled to
    integers by the lcm of its denominators and split into its positive and
    negative parts P and N, so every packed slot holds a non-negative value.
    Output slot k of X = P_a*P_b + N_a*N_b and of Y = P_a*N_b + N_a*P_b is a
    sum of at most min(len(a), len(b)) products |a_i|*|b_j|, so the slot
    width is taken from the bound max|a| * max|b| * min(len(a), len(b)) and
    no slot carries into the next.  The coefficient is X_k - Y_k.
    """
    n = order + 1
    a, da = _to_integers(a[:n])
    b, db = _to_integers(b[:n])
    bound = max(map(abs, a), default=0) * max(map(abs, b), default=0) * min(len(a), len(b))
    if bound == 0:
        return [0] * n
    width = (bound.bit_length() + 7) // 8
    pa = _pack([c if c > 0 else 0 for c in a], width)
    na = _pack([-c if c < 0 else 0 for c in a], width)
    pb = _pack([c if c > 0 else 0 for c in b], width)
    nb = _pack([-c if c < 0 else 0 for c in b], width)
    x = _unpack(pa * pb + na * nb, width, n)
    y = _unpack(pa * nb + na * pb, width, n)
    out = [xk - yk for xk, yk in zip(x, y)]
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
