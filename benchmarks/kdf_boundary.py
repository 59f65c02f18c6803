#!/usr/bin/env python3
"""Time the boundary Kampe de Feriet values of the six Theorem blocks.

    python3 benchmarks/kdf_boundary.py > record.json

Takes no options.  For each block of ``lvalue.THEOREM_KDF_BLOCKS`` it times
``hyper.kdf_series`` at (1, 1) and 40 digits, at target 1e-12 (the precision
the theorem suite builds for ``verify --digits 40``) and at target 1e-25.  In
one fresh process it first times one call for each block and target in turn
(cold: the first call pays for every cache it fills), then each again, best of
5.  After the timing it records, for each call, the diagonal count D (from
``terms_used``), the fit order K (from one more call with
``_accel.known_exponent_fit`` wrapped; null on a checkout without that fit),
the bar and the gap to ``kdf_integral`` at 60 digits (bar 2.5e-47).  Prints one
JSON record with those, the Python version, the CPU count,
``git describe --always --dirty`` of the checkout and ``mpmath.libmp.BACKEND``.
"""

from __future__ import annotations

import json
import math
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

from cubictheta import _accel, hyper  # noqa: E402
from cubictheta.lvalue import THEOREM_KDF_BLOCKS  # noqa: E402
from cubictheta.thetanum import Precision  # noqa: E402

REPEATS = 5
TARGETS = (1e-12, 1e-25)
REFERENCE = Precision(60, 1e-46)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def fit_order(params, prec):
    """The order of the last fit a kdf_series call makes, or None."""
    fit = getattr(_accel, "known_exponent_fit", None)
    if fit is None:
        return None
    orders = []

    def spy(sums, families, order):
        orders.append(order)
        return fit(sums, families, order)

    _accel.known_exponent_fit = spy
    try:
        hyper.kdf_series(params, 1, 1, prec)
    finally:
        _accel.known_exponent_fit = fit
    return orders[-1]


def main() -> None:
    calls = [(name, tol) for tol in TARGETS for name in THEOREM_KDF_BLOCKS]
    cold, results = {}, {}
    for name, tol in calls:
        prec = Precision(40, tol)
        cold[name, tol], results[name, tol] = timed(
            lambda: hyper.kdf_series(THEOREM_KDF_BLOCKS[name], 1, 1, prec))
    best = {key: min(timed(lambda: hyper.kdf_series(THEOREM_KDF_BLOCKS[key[0]], 1, 1,
                                                    Precision(40, key[1])))[0]
                     for _ in range(REPEATS)) for key in calls}
    refs = {name: hyper.kdf_integral(params, 1, 1, REFERENCE).value
            for name, params in THEOREM_KDF_BLOCKS.items()}
    out = {}
    for tol in TARGETS:
        rows = {}
        for name, params in THEOREM_KDF_BLOCKS.items():
            res = results[name, tol]
            with mp.workdps(70):
                gap = abs(res.value - refs[name])
            rows[name] = {
                "cold_seconds": round(cold[name, tol], 4),
                "best_seconds": round(best[name, tol], 4),
                "diagonals": (math.isqrt(8 * res.terms_used + 1) - 3) // 2,
                "order": fit_order(params, Precision(40, tol)),
                "err_estimate": mp.nstr(res.err_estimate, 3),
                "gap_to_integral": mp.nstr(gap, 3),
                "method": res.method,
            }
        out[repr(tol)] = {
            "blocks": rows,
            "cold_total_seconds": round(sum(r["cold_seconds"] for r in rows.values()), 4),
            "best_total_seconds": round(sum(r["best_seconds"] for r in rows.values()), 4),
        }
    git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    print(json.dumps({
        "benchmark": "hyper.kdf_series at (1, 1) on the six Theorem blocks",
        "digits": 40,
        "repeats": REPEATS,
        "targets": out,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git": git,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }, indent=2))


if __name__ == "__main__":
    main()
