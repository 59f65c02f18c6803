#!/usr/bin/env python3
"""Time the numeric suite of two source trees in fresh interpreters, the two
alternating, and count the theta term counts, tanh-sinh nodes and pFq
evaluations it makes.

    python3 benchmarks/numeric_checks.py BEFORE AFTER > record.json

BEFORE and AFTER are the roots of two checkouts of this repository (each
with ``src/`` and ``perfbench/``).  Takes no other options.  Each of
``PAIRS`` pairs runs, in a fresh interpreter per tree, with BEFORE first in
even pairs and AFTER first in odd ones:

- ``cli.numeric_suite_reports(40)`` once, with ``thetanum._terms_needed``
  wrapped to count its calls and the seconds spent in them, and ``mp.sinh``
  wrapped to count the tanh-sinh nodes built (each node takes one sinh, and
  nothing else in the suite takes one); ``hyper._Plan.eval`` is wrapped to
  count, per check, its calls and the most of them at one quadrature node
  (``quad_de``'s integrand is wrapped to say which node it is at, by its t
  and 1 - t); it records the suite's seconds, the seconds of each check and
  whether every check passed;
- ``perfbench/worker.py --trace 0`` of that tree for each workload in
  ``WORKLOADS``, seed = pair + 1, and records its ``wall_s``, ``cpu_s``,
  ``peak_rss_mb`` and failed checks.

Prints one JSON record with every run, the counts of the first pair (they
repeat in every run), and per tree and metric the median and quartiles and
the pairs in which AFTER was lower, with the Python version, the CPU model
and count, and ``mpmath.libmp.BACKEND``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

import mpmath

PAIRS = 10
WORKLOADS = ("numeric", "theorem", "qseries")
SUITE = """
import json, sys, time
sys.path.insert(0, {src!r})
from mpmath import mp
from cubictheta import cli, hyper, lvalue, thetanum
from cubictheta.reports import check as real_check

calls = [0, 0.0]
nodes = [0]
real_terms, real_sinh = thetanum._terms_needed, mp.sinh
real_eval, real_quad = hyper._Plan.eval, hyper.quad_de
# the node the current integrand call is at, and per node the pFq
# evaluations of the current check
at_node = [None]
per_node = {{}}
evals = {{}}


def terms_needed(*args):
    t0 = time.perf_counter()
    m = real_terms(*args)
    calls[1] += time.perf_counter() - t0
    calls[0] += 1
    return m


def sinh(*args, **kwargs):
    nodes[0] += 1
    return real_sinh(*args, **kwargs)


def plan_eval(*args, **kwargs):
    per_node[at_node[0]] = per_node.get(at_node[0], 0) + 1
    return real_eval(*args, **kwargs)


def quad_de(f, *args, **kwargs):
    def tagged(*node):
        at_node[0] = tuple(v._mpf_ for v in node[:2])
        return f(*node)

    return real_quad(tagged, *args, **kwargs)


def check(name, *args):
    per_node.clear()
    at_node[0] = None
    report = real_check(name, *args)
    at_nodes = [n for node, n in per_node.items() if node is not None]
    evals[name] = {{"plan_eval_calls": sum(per_node.values()),
                   "max_evals_per_node": max(at_nodes, default=0)}}
    return report


thetanum._terms_needed, mp.sinh = terms_needed, sinh
hyper._Plan.eval = plan_eval
hyper.quad_de = lvalue.quad_de = quad_de
cli.check = lvalue.check = check
t0 = time.perf_counter()
reports = cli.numeric_suite_reports(40)
seconds = time.perf_counter() - t0
print(json.dumps({{
    "seconds": round(seconds, 4),
    "checks": {{r.name: round(float(r.seconds), 4) for r in reports}},
    "all_pass": all(r.passed for r in reports),
    "terms_needed_calls": calls[0],
    "terms_needed_seconds": round(calls[1], 4),
    "de_nodes_built": nodes[0],
    "plan_evals": evals,
}}))
"""


def run_json(cmd) -> dict:
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def suite_run(tree: pathlib.Path) -> dict:
    return run_json([sys.executable, "-c", SUITE.format(src=str(tree / "src"))])


def worker_run(tree: pathlib.Path, workload: str, seed: int) -> dict:
    res = run_json([sys.executable, str(tree / "perfbench" / "worker.py"),
                    "--workload", workload, "--seed", str(seed), "--trace", "0"])
    return {"wall_s": round(res["wall_s"], 4), "cpu_s": round(res["cpu_s"], 4),
            "peak_rss_mb": round(res["peak_rss_mb"], 2),
            "failed": sum(not ok for _, ok, _ in res["checks"])}


def summary(pairs, metric) -> dict:
    """Median and quartiles of ``metric`` (a function of one run) per tree,
    and the pairs in which AFTER read lower."""
    out = {}
    for side in ("before", "after"):
        vals = [metric(p[side]) for p in pairs]
        q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
        out[side] = {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
    out["after_lower_pairs"] = sum(metric(p["after"]) < metric(p["before"]) for p in pairs)
    out["pairs"] = len(pairs)
    return out


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


def main() -> None:
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    trees = {"before": pathlib.Path(sys.argv[1]).resolve(),
             "after": pathlib.Path(sys.argv[2]).resolve()}
    suite, workers = [], {w: [] for w in WORKLOADS}
    for i in range(PAIRS):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        suite.append({side: suite_run(trees[side]) for side in order})
        for w in WORKLOADS:
            workers[w].append({side: worker_run(trees[side], w, i + 1) for side in order})
    checks = suite[0]["before"]["checks"]
    print(json.dumps({
        "benchmark": "cli.numeric_suite_reports(40) and perfbench/worker.py --trace 0, "
                     "two trees alternating in fresh interpreters",
        "pairs": PAIRS,
        "counts": {side: {key: suite[0][side][key]
                          for key in ("terms_needed_calls", "de_nodes_built", "plan_evals")}
                   for side in trees},
        "summary": {
            "numeric_suite_seconds": summary(suite, lambda r: r["seconds"]),
            "terms_needed_seconds": summary(suite, lambda r: r["terms_needed_seconds"]),
            "check_seconds": {name: summary(suite, lambda r, n=name: r["checks"][n])
                              for name in checks},
            **{f"{w}_{m}": summary(workers[w], lambda r, m=m: r[m])
               for w in WORKLOADS for m in ("wall_s", "cpu_s", "peak_rss_mb")},
        },
        "numeric_suite_runs": suite,
        "worker_runs": workers,
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "cpus": os.cpu_count(),
        "mpmath_backend": mpmath.libmp.BACKEND,
    }, indent=2))


if __name__ == "__main__":
    main()
