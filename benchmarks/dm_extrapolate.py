#!/usr/bin/env python3
"""Time the boundary d(3) extrapolation on the six Theorem blocks.

    python3 benchmarks/dm_extrapolate.py > record.json

Takes no options.  For each block of ``lvalue.THEOREM_KDF_BLOCKS`` it builds
the anti-diagonal partial sums at (1, 1) once, at the 55 digits ``kdf_series``
uses for a 40-digit request, then times ``_accel.dm_extrapolate`` on the
boundary window (``hyper._KDF_WINDOW`` at ``hyper._KDF_EXT_DPS`` digits),
best of 5 calls.  Prints one JSON record: the seconds of each block and their
sum, the Python version, the CPU count, ``git describe --always --dirty`` of
the checkout and ``mpmath.libmp.BACKEND``.
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
from mpmath import mp, mpf  # noqa: E402

from cubictheta import _accel, hyper  # noqa: E402
from cubictheta.lvalue import THEOREM_KDF_BLOCKS  # noqa: E402

REPEATS = 5
SUMS_DPS = 55


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    offset, stride, kmax = hyper._KDF_WINDOW
    seconds = {}
    for name, params in THEOREM_KDF_BLOCKS.items():
        with mp.workdps(SUMS_DPS):
            sums, _ = hyper._kdf_partial_sums(params, mpf(1), mpf(1), hyper._KDF_D)
        seconds[name] = round(best_of(
            lambda: _accel.dm_extrapolate(sums, offset, stride, kmax, hyper._KDF_EXT_DPS),
            REPEATS), 4)
    git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    print(json.dumps({
        "benchmark": "_accel.dm_extrapolate on the Theorem boundary windows",
        "window": [offset, stride, kmax],
        "dps_hi": hyper._KDF_EXT_DPS,
        "diagonals": hyper._KDF_D,
        "repeats": REPEATS,
        "seconds": seconds,
        "total_seconds": round(sum(seconds.values()), 4),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git": git,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }, indent=2))


if __name__ == "__main__":
    main()
