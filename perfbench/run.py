#!/usr/bin/env python3
"""Run the cubictheta benchmark.

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workloads (their reasons are in
BENCHMARK.json):

- theorem: ``verify --suite theorem --digits 40`` plus one seed-drawn boundary
  Kampe de Feriet block at (1, 1), evaluated by both routes;
- numeric: ``verify --suite numeric --digits 40``;
- qseries: the order-2000 exact suite, then ``l_dirichlet(10**6)``.

Every iteration runs in a fresh interpreter (cold module memos), one at a
time, with BLAS/OpenMP threads pinned to 1.  Iterations repeat, at least
once, up to the count that ends nearest to ``--seconds``.  ``--trace 0``
reports the medians of wall_s, cpu_s and peak_rss_mb over the iterations, and
setup_s, the median time from interpreter start until ``import cubictheta``
returns, over at least SETUP_SAMPLES separate interpreters.  ``--trace 1``
alternates untraced and traced iterations and reports the per-layer metrics
of the traced ones.
Every iteration's outputs are checked against perfbench/reference.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the run metadata and
a readable summary.  ``--workload all`` runs the three workloads in turn and
names its metrics ``<workload>.<metric>``.  ``--out FILE`` also writes the
metadata, the per-iteration samples and the metrics to FILE, for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import tracing

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
SRC = ROOT / "src"
WORKLOADS = ("theorem", "numeric", "qseries")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
_PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
_SETUP_CODE = ("import sys, time; sys.path.insert(0, {src!r}); "
               "import cubictheta, numpy, mpmath; print(repr(time.monotonic()))")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in _PINNED})
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(cmd: list, env: dict) -> str:
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def setup_sample(env: dict) -> float:
    """Seconds from starting an interpreter until ``import cubictheta`` returns."""
    t0 = time.monotonic()
    return float(_child([sys.executable, "-c", _SETUP_CODE.format(src=str(SRC))], env)) - t0


def iteration(workload: str, seed: int, trace: int, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    return json.loads(_child(cmd, env))


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    setup_sample(env)  # warm the file cache and the bytecode cache
    setups, plain, traced = [], [], []
    start = time.monotonic()
    while True:
        # set-up samples are spread over the run, like the iterations, so a
        # slow spell of a shared machine weighs on both alike
        setups.append(setup_sample(env))
        t0 = time.monotonic()
        plain.append(iteration(workload, seed, 0, env))
        if trace:
            traced.append(iteration(workload, seed, 1, env))
        now = time.monotonic()
        # stop at the iteration count that ends nearest to ``seconds``
        if now + (now - t0) / 2 - start >= seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(env))
    iters = plain + traced
    checks = [c for it in iters for c in it["checks"]]
    wall = statistics.median(it["wall_s"] for it in plain)
    if trace:
        layers = {name: statistics.median(it["layers"][name] for it in traced)
                  for name in traced[0]["layers"]}
        layers["trace_overhead_s"] = layers["traced_wall_s"] - wall
        metrics = layers
    else:
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(it["cpu_s"] for it in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in plain),
        }
    metas = {json.dumps(it["meta"], sort_keys=True) for it in iters}
    if len(metas) != 1:
        raise BenchError(f"iterations ran under different backends: {sorted(metas)}")
    return {
        "meta": dict(iters[0]["meta"], workload=workload, seed=seed, trace=trace,
                     git_sha=git_sha(), python=platform.python_version(),
                     nproc=os.cpu_count(), seconds=seconds),
        "samples": {"setup_s": setups,
                    "wall_s": [it["wall_s"] for it in plain],
                    "cpu_s": [it["cpu_s"] for it in plain],
                    "peak_rss_mb": [it["peak_rss_mb"] for it in plain]},
        "metrics": metrics,
        "attempted": len(checks),
        "failed": [c for c in checks if not c[1]],
    }


def summary_line(res: dict, units: dict) -> str:
    m = res["metrics"]
    shown = (("traced_wall_s", "trace_overhead_s", "unattributed_s") if res["meta"]["trace"]
             else END_TO_END_UNITS)
    parts = [f"{k} {m[k]:.4g} {units[k]}" for k in shown]
    parts.append(f"checks_failed {len(res['failed'])}/{res['attempted']} failed/attempted")
    return f"{res['meta']['workload']}: " + " | ".join(parts)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=pathlib.Path, default=None)
    args = p.parse_args(argv)

    if not (SRC / "cubictheta" / "__init__.py").is_file():
        print(f"no cubictheta sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env()
    units = dict(tracing.PER_LAYER) if args.trace else END_TO_END_UNITS
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace, env) for w in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    for res in results:
        print(json.dumps(res["meta"], sort_keys=True))
        for name, ok, detail in res["failed"]:
            print(f"FAILED {res['meta']['workload']}/{name}: {detail}")
        print(summary_line(res, units))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    prefix = len(results) > 1
    metrics = {
        (f"{res['meta']['workload']}." if prefix else "") + k: {"value": v, "unit": units[k]}
        for res in results for k, v in res["metrics"].items()
    }
    failed = sum(len(res["failed"]) for res in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(res["attempted"] for res in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
