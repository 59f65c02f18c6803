"""One timed iteration of one workload, in a fresh interpreter.

run.py starts this file once per iteration, so the library's module-level
memos (lvalue._KDF_VALUE_CACHE, hyper._NODE_CACHE, thetanum._TABLES) start
empty, as they do for a command-line call.  Prints one JSON object.

    python3 perfbench/worker.py --workload theorem --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import mpmath  # noqa: E402

import cubictheta  # noqa: E402
from cubictheta import kernels  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    where = pathlib.Path(cubictheta.__file__).resolve()
    if SRC.resolve() not in where.parents:
        print(f"cubictheta imported from {where}, not from {SRC}", file=sys.stderr)
        return 2
    run, check = workloads.WORKLOADS[args.workload]
    ref = workloads.load_reference()
    tracer = tracing.Tracer() if args.trace else None
    uninstall = tracing.install(tracer) if tracer else None

    cpu0 = _cpu()
    t0 = time.perf_counter()
    outputs = run(args.seed)
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if uninstall:
        uninstall()
    checks = check(outputs, ref, args.seed)
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "checks": [[c.name, c.ok, c.detail] for c in checks],
        "meta": {
            "mpmath_backend": mpmath.libmp.BACKEND,
            "kernels_backend": kernels.BACKEND,
        },
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer, wall)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
