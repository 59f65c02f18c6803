#!/usr/bin/env python3
"""Time L(f, 1), L(f, 2) and L(f, 3) by ``lvalue.l_mellin`` at 40 digits.

    python3 benchmarks/l_values.py > record.json

Takes no options.  Uses the precision the theorem suite builds for
``verify --digits 40`` (40 digits, target 1e-12).  In one fresh process it
first times one call for each n in turn (cold: the first call pays for any
table or node set-up), then each n again, best of 5.  Prints one JSON record:
those seconds and their sums, the value and error bar of each L(f, n), the
Python version, the CPU count, ``git describe --always --dirty`` of the
checkout and ``mpmath.libmp.BACKEND``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402
from mpmath import mp  # noqa: E402

from cubictheta import lvalue  # noqa: E402
from cubictheta.thetanum import Precision  # noqa: E402

REPEATS = 5
PREC = Precision(40, 1e-12)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def main() -> None:
    cold, warm, values = {}, {}, {}
    for n in (1, 2, 3):
        secs, res = timed(lambda: lvalue.l_mellin(n, PREC))
        cold[n] = round(secs, 4)
        values[n] = {"value": mp.nstr(res.value, 40), "err_estimate": mp.nstr(res.err_estimate, 3),
                     "terms_used": res.terms_used, "method": res.method}
    for n in (1, 2, 3):
        warm[n] = round(min(timed(lambda: lvalue.l_mellin(n, PREC))[0]
                            for _ in range(REPEATS)), 4)
    git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    print(json.dumps({
        "benchmark": "lvalue.l_mellin for n = 1, 2, 3",
        "digits": PREC.working_digits,
        "target_tol": PREC.target_tol,
        "repeats": REPEATS,
        "cold_seconds": cold,
        "cold_total_seconds": round(sum(cold.values()), 4),
        "best_seconds": warm,
        "best_total_seconds": round(sum(warm.values()), 4),
        "values": values,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git": git,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }, indent=2))


if __name__ == "__main__":
    main()
