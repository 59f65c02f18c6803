#!/usr/bin/env python3
"""Time the integral route of the six Theorem blocks and two end-to-end runs,
and count the transcendental calls its quadrature nodes make per branch.

    python3 benchmarks/pfq_direct.py > record.json

Takes no options.  For each block of ``lvalue.THEOREM_KDF_BLOCKS`` it times
``hyper.kdf_integral`` at (1/2, 1/2) with ``Precision(40, 1e-25)`` (the
points of ``verify --suite numeric``) and at (1, 1) with
``Precision(40, 1e-12)`` (the theorem suite at ``verify --digits 40``).  In
one fresh process it first times one call for each block and point in turn
(cold: the first call pays for every cache it fills), then each again, best
of 5.  After the timing, one more call per block and point runs with
``hyper._direct_sum`` wrapped, the one function through which every direct
sum goes (the "direct" exit of a plan, the sub-series of the "connection"
and "f32-tail" branches, and ``_pfq_direct``), and records its calls and the
terms they summed, and the call's ``terms_used`` (its quadrature nodes).
Then, per point, one more call per block runs under ``sys.setprofile``
with ``hyper._Plan.eval`` wrapped, and counts the calls of mpmath's
``mpf_log``, ``mpf_exp``, ``mpf_pow`` and ``log1p`` (nested calls
included: a power counts its own log and exp too), summed over the six
blocks: for each branch of ``_Plan.eval``, the factor evaluations that took
it and their calls per evaluation; and, per quadrature node, the calls made
outside every evaluation (the integrand's weight, plus the three gamma
values of the prefactor once per call).  The caches are warm, so no node
table is built during the count.  It
then times ``cubictheta verify --suite all --digits 40`` and ``cubictheta
verify --suite numeric --digits 80`` in fresh interpreters: the first run
and the best of 5 of each.  Prints one JSON record with those, the Python
version, the CPU model (from /proc/cpuinfo, where there is one) and count,
``git describe --always --dirty`` of the checkout and
``mpmath.libmp.BACKEND``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import sys
import time
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402

from cubictheta import hyper  # noqa: E402
from cubictheta.lvalue import THEOREM_KDF_BLOCKS  # noqa: E402
from cubictheta.thetanum import Precision  # noqa: E402

REPEATS = 5
HALF = Fraction(1, 2)
POINTS = {
    "(1/2, 1/2) at 1e-25": ((HALF, HALF), Precision(40, 1e-25)),
    "(1, 1) at 1e-12": ((1, 1), Precision(40, 1e-12)),
}
VERIFY = ("import sys; sys.path.insert(0, {src!r}); from cubictheta.cli import main; "
          "sys.exit(main(['verify', '--suite', {suite!r}, '--digits', '{digits}']))")
VERIFY_RUNS = (("all", 40), ("numeric", 80))


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def direct_counts(params, point, prec):
    """The direct sums one kdf_integral call makes, their terms, and the
    call's quadrature nodes."""
    real, counts = hyper._direct_sum, [0, 0]

    def spy(plan, x, eps):
        value, terms = real(plan, x, eps)
        counts[0] += 1
        counts[1] += terms
        return value, terms

    hyper._direct_sum = spy
    try:
        nodes = hyper.kdf_integral(params, *point, prec).terms_used
    finally:
        hyper._direct_sum = real
    return counts + [nodes]


COUNTED = ("mpf_log", "mpf_exp", "mpf_pow", "log1p")


def branch_counts(point, prec):
    """The COUNTED calls of one kdf_integral call per Theorem block at
    ``point``, per branch of ``_Plan.eval`` and per node outside it."""
    real = hyper._Plan.eval
    stack = [dict.fromkeys(COUNTED, 0)]
    branches, nodes = {}, 0

    def spy(self, *args):
        stack.append(dict.fromkeys(COUNTED, 0))
        try:
            out = real(self, *args)
        finally:
            calls = stack.pop()
        row = branches.setdefault(out[2], dict.fromkeys(("evals",) + COUNTED, 0))
        row["evals"] += 1
        for name, n in calls.items():
            row[name] += n
        return out

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in COUNTED:
            stack[-1][frame.f_code.co_name] += 1

    hyper._Plan.eval = spy
    sys.setprofile(profile)
    try:
        for params in THEOREM_KDF_BLOCKS.values():
            nodes += hyper.kdf_integral(params, *point, prec).terms_used
    finally:
        sys.setprofile(None)
        hyper._Plan.eval = real
    return {
        "nodes": nodes,
        "outside_eval_per_node": {name: round(n / nodes, 3) for name, n in stack[0].items()},
        "branches": {method: {"evals": row["evals"],
                              **{f"{name}_per_eval": round(row[name] / row["evals"], 3)
                                 for name in COUNTED}}
                     for method, row in sorted(branches.items())},
    }


def cpu_model() -> str:
    """The first "model name" of /proc/cpuinfo, else platform.processor()."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def verify_seconds(suite, digits):
    cmd = [sys.executable, "-c", VERIFY.format(src=str(ROOT / "src"), suite=suite, digits=digits)]
    out = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True)
        out.append(time.perf_counter() - t0)
    return out


def main() -> None:
    calls = [(label, name) for label in POINTS for name in THEOREM_KDF_BLOCKS]

    def run(key):
        point, prec = POINTS[key[0]]
        return hyper.kdf_integral(THEOREM_KDF_BLOCKS[key[1]], *point, prec)

    cold = {key: timed(lambda: run(key))[0] for key in calls}
    best = {key: min(timed(lambda: run(key))[0] for _ in range(REPEATS)) for key in calls}
    out = {}
    for label, (point, prec) in POINTS.items():
        rows = {}
        for name, params in THEOREM_KDF_BLOCKS.items():
            n_calls, n_terms, nodes = direct_counts(params, point, prec)
            rows[name] = {
                "cold_seconds": round(cold[label, name], 4),
                "best_seconds": round(best[label, name], 4),
                "quad_nodes": nodes,
                "direct_sum_calls": n_calls,
                "direct_sum_terms": n_terms,
            }
        out[label] = {
            "blocks": rows,
            "transcendental_calls": branch_counts(point, prec),
            "cold_total_seconds": round(sum(r["cold_seconds"] for r in rows.values()), 4),
            "best_total_seconds": round(sum(r["best_seconds"] for r in rows.values()), 4),
        }
    verify = {}
    for suite, digits in VERIFY_RUNS:
        runs = verify_seconds(suite, digits)
        verify[f"verify_{suite}_digits_{digits}"] = {
            "first_seconds": round(runs[0], 4),
            "best_seconds": round(min(runs), 4),
        }
    git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    print(json.dumps({
        "benchmark": "hyper.kdf_integral on the six Theorem blocks, verify --suite all "
                     "--digits 40 and verify --suite numeric --digits 80",
        "digits": 40,
        "repeats": REPEATS,
        "kdf_integral": out,
        **verify,
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "cpus": os.cpu_count(),
        "git": git,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }, indent=2))


if __name__ == "__main__":
    main()
