#!/usr/bin/env python3
"""Time the boundary Kampe de Feriet values of the six Theorem blocks, and
the theorem suite, from 40 to 100 digits.

    python3 benchmarks/kdf_boundary.py > record.json

Takes no options.  For each row (digits, tol) of ROWS it calls
``hyper.kdf_series`` at (1, 1) on each block of ``lvalue.THEOREM_KDF_BLOCKS``
once, at ``Precision(digits, tol)``, with the fit's caches emptied before
the row, and records per block:

- the seconds of the call, and the seconds spent making weights (the
  fit's elimination, building its rows included);
- the eliminations the search made: the grids it grew, one per working
  precision of the weights (``_accel._Grid``);
- D (from ``terms_used``), the grid step s and the last fit order K*
  (``_accel.known_exponent_fit`` wrapped);
- the bar, and for L1 and L2a the error against the closed forms of
  ``tests/closed_forms.py`` (L1 = 27 L(f, 1), L2a = L1 + (81 sqrt 3/(4 pi))
  L(f, 2));
- or the error message, where the search raises.

Then it times ``cubictheta verify --suite theorem --digits D --tol T`` for
each row in a fresh interpreter, with its exit code.  Prints one JSON record
with those, the Python version, the CPU count, ``git describe --always
--dirty`` of the checkout and ``mpmath.libmp.BACKEND``.  Runs the checkout
it sits in.
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
sys.path.insert(0, str(ROOT / "tests"))

import mpmath  # noqa: E402
from mpmath import mp  # noqa: E402

from closed_forms import l_value  # noqa: E402
from cubictheta import _accel, hyper  # noqa: E402
from cubictheta.lvalue import THEOREM_KDF_BLOCKS  # noqa: E402
from cubictheta.thetanum import Precision  # noqa: E402

ROWS = ((40, 1e-12), (40, 1e-30), (60, 1e-48), (80, 1e-60), (100, 1e-90))


class FitSpy:
    """Wraps the fit for one call: the orders it asked for, the eliminations
    it made and the seconds it spent making weights."""

    def __init__(self):
        self.orders, self.eliminations, self.weight_seconds = [], 0, 0.0
        self._undo = []

    def _wrap(self, owner, name, count=False, timed=False):
        fn = getattr(owner, name)
        spy = self

        def wrapped(*args, **kwargs):
            if count:
                spy.eliminations += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if timed:
                    spy.weight_seconds += time.perf_counter() - t0

        setattr(owner, name, wrapped)
        self._undo.append((owner, name, fn))

    def __enter__(self):
        fit = _accel.known_exponent_fit

        def known_exponent_fit(sums, families, order):
            self.orders.append(order)
            return fit(sums, families, order)

        _accel.known_exponent_fit = known_exponent_fit
        self._undo.append((_accel, "known_exponent_fit", fit))
        self._wrap(_accel._Grid, "__init__", count=True)
        self._wrap(_accel._Grid, "weights", timed=True)
        return self

    def __exit__(self, *exc):
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)




def truth(name, dps):
    if name not in ("L1", "L2a"):
        return None
    with mp.workdps(dps + 10):
        value = 27 * l_value(1, dps)
        if name == "L2a":
            value += 81 * mp.sqrt(3) / (4 * mp.pi) * l_value(2, dps)
    return value


def block_row(name, params, prec):
    with FitSpy() as spy:
        t0 = time.perf_counter()
        try:
            res = hyper.kdf_series(params, 1, 1, prec)
        except ArithmeticError as exc:
            res = exc
        seconds = time.perf_counter() - t0
    row = {
        "seconds": round(seconds, 4),
        "weight_seconds": round(spy.weight_seconds, 4),
        "eliminations": spy.eliminations,
        "order": spy.orders[-1] if spy.orders else None,
        "step": _accel._STEP,
    }
    if isinstance(res, ArithmeticError):
        row["error"] = str(res)
        return row
    want = truth(name, prec.dps)
    with mp.workdps(prec.dps + 10):
        row.update({
            "diagonals": (math.isqrt(8 * res.terms_used + 1) - 3) // 2,
            "err_estimate": mp.nstr(res.err_estimate, 3),
            "error_vs_closed_form": None if want is None else mp.nstr(abs(res.value - want), 3),
            "value": mp.nstr(res.value, 30),
        })
    return row


def verify_row(digits, tol):
    cmd = [sys.executable, "-m", "cubictheta.cli", "verify", "--suite", "theorem",
           "--digits", str(digits), "--tol", repr(tol)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    return {"wall_seconds": round(time.perf_counter() - t0, 3), "exit_code": done.returncode,
            "stderr": done.stderr.strip()[-300:]}


def main() -> None:
    rows = {}
    for digits, tol in ROWS:
        _accel._grid.cache_clear()
        prec = Precision(digits, tol)
        blocks = {name: block_row(name, params, prec)
                  for name, params in THEOREM_KDF_BLOCKS.items()}
        rows[f"{digits},{tol!r}"] = {
            "blocks": blocks,
            "total_seconds": round(sum(b["seconds"] for b in blocks.values()), 4),
            "weight_seconds": round(sum(b["weight_seconds"] for b in blocks.values()), 4),
            "eliminations": sum(b["eliminations"] for b in blocks.values()),
        }
    verify = {f"{digits},{tol!r}": verify_row(digits, tol) for digits, tol in ROWS}
    git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    print(json.dumps({
        "benchmark": "hyper.kdf_series at (1, 1) on the six Theorem blocks, and "
                     "verify --suite theorem",
        "rows": rows,
        "verify_theorem": verify,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git": git,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }, indent=2))


if __name__ == "__main__":
    main()
