#!/usr/bin/env python3
"""Compare two sets of benchmark results written by ``run.py --out``.

    mkdir -p bench-results
    python3 perfbench/run.py --workload numeric --seed 1 --out bench-results/base-1.json
    ...
    python3 perfbench/compare.py --base bench-results/base-*.json --head bench-results/head-*.json

For each workload and end-to-end metric in BENCHMARK.json it prints the
median of each set, the base set's quartile spread as a share of its median,
and the head's change against the metric's bound.  It refuses (exit 2) to
compare sets run under different mpmath or kernel backends, since gmpy or a
built compiled kernel changes the program being measured, and exits 1 when
any metric got worse than its bound allows.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from collections import defaultdict

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
BACKEND_KEYS = ("mpmath_backend", "kernels_backend")


def load(paths) -> tuple:
    """(backends seen, {workload: {metric: [run values]}}) over untraced results."""
    backends = set()
    values: dict = defaultdict(lambda: defaultdict(list))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for res in json.load(fh):
                backends.add(tuple(res["meta"][k] for k in BACKEND_KEYS))
                if not res["meta"]["trace"]:
                    for name, v in res["metrics"].items():
                        values[res["meta"]["workload"]][name].append(v)
    return backends, values


def spread(vals) -> float:
    if len(vals) < 2:
        return float("nan")
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--head", nargs="+", required=True)
    args = p.parse_args(argv)

    base_backends, base = load(args.base)
    head_backends, head = load(args.head)
    if len(base_backends | head_backends) != 1:
        print(f"refusing to compare: backends differ {sorted(base_backends | head_backends)}",
              file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    worse = False
    print(f"{'workload':<9} {'metric':<12} {'base':>10} {'head':>10} {'change':>8} "
          f"{'spread':>7} {'bound':>6}")
    for workload in sorted(set(base) & set(head)):
        for m in metrics:
            b, h = base[workload][m["name"]], head[workload][m["name"]]
            if not b or not h:
                continue
            mb, mh = statistics.median(b), statistics.median(h)
            change = (mh - mb) / mb if m["better"] == "lower" else (mb - mh) / mb
            flag = ""
            if change > m["bound"]:
                worse, flag = True, "  WORSE"
            print(f"{workload:<9} {m['name']:<12} {mb:>10.4g} {mh:>10.4g} {change:>+8.1%} "
                  f"{spread(b):>7.1%} {m['bound']:>6.0%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
