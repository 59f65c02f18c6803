#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the values the benchmark checks against.

- L(f, n), n = 1, 2, 3: the Mellin route at 55 and 65 working digits; the two
  must agree to 1e-44 and 45 digits are stored.
- The seeded-block pool: each block's value at (1, 1) from mpmath alone, by
  mpmath.quad of the Euler integral with mpmath.hyp2f1 factors, at 50 and 65
  digits.  Their difference (floored at 1e-40) is stored as ``ref_err``.
- The order-2000 exact-suite verdicts.
- The Dirichlet partial sum to 10**6, as the correctly rounded sum
  (math.fsum) of the float terms.

Run from the repository root:  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mpmath import mp, mpf  # noqa: E402

from cubictheta import cli, lvalue, qexp  # noqa: E402
from cubictheta.thetanum import Precision  # noqa: E402
import workloads  # noqa: E402


def _m(fr) -> mpf:
    return mpf(fr.numerator) / fr.denominator


def euler_integral(block, dps: int) -> mpf:
    """The block at (1, 1) as Gamma(ap)/(Gamma(a)Gamma(ap-a)) times
    int_0^1 t^(a-1) (1-t)^(ap-a-1) 2F1(b; bp; t) 2F1(c; cp; t) dt."""
    with mp.workdps(dps):
        a, ap = _m(block.a[0]), _m(block.ap[0])
        b = [_m(v) for v in block.b] + [_m(block.bp[0])]
        c = [_m(v) for v in block.c] + [_m(block.cp[0])]

        def f(t):
            return (t ** (a - 1) * (1 - t) ** (ap - a - 1)
                    * mp.hyp2f1(*b, t) * mp.hyp2f1(*c, t))

        pref = mp.gamma(ap) / (mp.gamma(a) * mp.gamma(ap - a))
        return pref * mp.quad(f, [0, mpf(1) / 2, 1])


def lvalues() -> dict:
    out = {}
    for n in (1, 2, 3):
        lo = lvalue.l_mellin(n, Precision(55, 1e-44)).value
        hi = lvalue.l_mellin(n, Precision(65, 1e-52)).value
        with mp.workdps(70):
            if abs(lo - hi) > mpf("1e-44"):
                raise SystemExit(f"L(f, {n}) unstable between 55 and 65 digits")
            out[str(n)] = mp.nstr(hi, 45)
    return out


def block_pool() -> list:
    pool = []
    for i in range(workloads.POOL_SIZE):
        block = workloads.draw_block(i)
        lo = euler_integral(block, 50)
        hi = euler_integral(block, 65)
        with mp.workdps(70):
            err = max(abs(lo - hi), mpf("1e-40"))
            pool.append({"params": workloads.block_key(block),
                         "value": mp.nstr(hi, 45),
                         "ref_err": mp.nstr(err, 3)})
        print(f"block {i}: {pool[-1]['value'][:20]}  ref_err {pool[-1]['ref_err']}",
              file=sys.stderr, flush=True)
    return pool


def dirichlet_partial_sum() -> str:
    coeffs = qexp.f_coefficients(workloads.DIRICHLET_N).coeffs
    return repr(math.fsum(coeffs[m] / (float(m) ** 3)
                          for m in range(1, workloads.DIRICHLET_N + 1)))


def main() -> None:
    ref = {
        "lvalues": lvalues(),
        "exact_verdicts": {r.name: r.passed
                           for r in cli.exact_suite_reports(workloads.EXACT_ORDER)},
        "dirichlet_partial_sum": dirichlet_partial_sum(),
        "blocks": block_pool(),
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
