#!/usr/bin/env python3
"""Time the exact suite and the Dirichlet partial sum.

    python3 benchmarks/dirichlet.py > record.json

Takes no options and uses only the public API.  In one fresh process it
times ``cli.exact_suite_reports(2000)`` once, cold, with the ``seconds`` of
each check, and then ``lvalue.l_dirichlet(10**6)`` once cold and then best
of 3: the order of the ``qseries`` workload.  ``ru_maxrss`` (the process's
peak resident set, in MiB) is read after each of the two cold calls.  Each
call is then repeated once under ``tracemalloc``, untimed, for its peak of
traced allocations; numpy reports its buffers to tracemalloc.  Last it times
``cli.exact_suite_reports`` once, cold, at each order in ``LARGE_ORDERS``
(the suite keeps no series from one call to the next).  Prints one JSON
record: those figures, the value and error bar of the partial sum, the
Python and numpy versions, the CPU count, ``git describe --always --dirty`` of
the checkout and ``mpmath.libmp.BACKEND``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402
import numpy  # noqa: E402

from cubictheta import cli, lvalue  # noqa: E402

N = 10 ** 6
ORDER = 2000
LARGE_ORDERS = (6000, 20000)
REPEATS = 3


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def maxrss_mib() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> None:
    suite_cold, reports = timed(lambda: cli.exact_suite_reports(ORDER))
    rss_suite = maxrss_mib()
    cold, res = timed(lambda: lvalue.l_dirichlet(N))
    rss_dirichlet = maxrss_mib()
    best = min(timed(lambda: lvalue.l_dirichlet(N))[0] for _ in range(REPEATS))
    peak_suite = traced_peak(lambda: cli.exact_suite_reports(ORDER))
    peak_dirichlet = traced_peak(lambda: lvalue.l_dirichlet(N))
    large = {}
    for order in LARGE_ORDERS:
        seconds, reps = timed(lambda: cli.exact_suite_reports(order))
        large[str(order)] = {"cold_seconds": round(seconds, 4),
                             "passed": sum(r.passed for r in reps), "checks": len(reps)}
    git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    print(json.dumps({
        "benchmark": "cli.exact_suite_reports(2000, 6000, 20000) and lvalue.l_dirichlet(10**6)",
        "l_dirichlet": {
            "N": N,
            "cold_seconds": round(cold, 4),
            "repeats": REPEATS,
            "best_seconds": round(best, 4),
            "maxrss_mib_after_cold": rss_dirichlet,
            "tracemalloc_peak_bytes": peak_dirichlet,
            "tracemalloc_bytes_per_coefficient": round(peak_dirichlet / N, 1),
            "value": repr(float(res.value)),
            "err_estimate": repr(float(res.err_estimate)),
        },
        "exact_suite": {
            "order": ORDER,
            "cold_seconds": round(suite_cold, 4),
            "maxrss_mib_after_cold": rss_suite,
            "tracemalloc_peak_bytes": peak_suite,
            "passed": sum(r.passed for r in reports),
            "checks": len(reports),
            "check_seconds": {r.name: round(float(r.seconds), 5) for r in reports},
        },
        "exact_suite_large_orders": large,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "git": git,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }, indent=2))


if __name__ == "__main__":
    main()
