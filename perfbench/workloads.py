"""The benchmark workloads and the checks run on their outputs.

Each workload is a function ``run(seed)`` that makes the timed library calls
and returns their raw outputs, paired with ``check(outputs, ref)`` that
compares those outputs against the committed ``reference.json`` after the
timer has stopped.  A check fails when the library's own ``passed`` flag is
false, or when a value drifts from its reference by more than the value's own
error bar.
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, mpmathify

from cubictheta import cli, hyper, lvalue
from cubictheta.hyper import KdFParams
from cubictheta.thetanum import Precision

REFERENCE_PATH = pathlib.Path(__file__).resolve().parent / "reference.json"

DIGITS = 40
# the Precision theorem_suite_reports(40) builds internally; the post-run
# checks reuse it so rhs_theorem hits the memo the timed run filled
THEOREM_PREC = Precision(DIGITS, 1e-12)
EXACT_ORDER = 2000
DIRICHLET_N = 10**6
# float round-off allowance for the Kahan-summed Dirichlet partial sum
DIRICHLET_SUM_BAR = 1e-12


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_flag(name: str, passed: bool) -> Check:
    return Check(name, bool(passed), "passed" if passed else "library check failed")


def check_value(name: str, value, ref: str, bar) -> Check:
    """``value`` within ``bar`` of the decimal string ``ref``."""
    with mp.workdps(60):
        drift = abs(mpmathify(value) - mpf(ref))
        ok = bool(drift <= mpmathify(bar))
        return Check(name, ok, f"drift {mp.nstr(drift, 3)} vs bar {mp.nstr(mpmathify(bar), 3)}")


# -- seed-drawn boundary KdF block -------------------------------------------

POOL_SIZE = 32
_JOINT = tuple(Fraction(n, 3) for n in (1, 2, 3, 4)) + (Fraction(1, 2),)
_GAPS = (Fraction(2, 3), Fraction(1), Fraction(4, 3))
_RATIONALS = sorted({Fraction(n, d) for d in (2, 3, 4, 6) for n in range(1, 3 * d + 1)})
_UPPER = tuple(v for v in _RATIONALS if v <= 2)
_LOWER = tuple(v for v in _RATIONALS if v <= 3)
_MIN_MARGIN = Fraction(1, 3)


def draw_block(seed: int) -> KdFParams:
    """A Theorem-shaped block (one joint pair, 2F1-type factors) for ``seed``.

    Seeds map onto a pool of POOL_SIZE blocks so that every block has a
    committed reference.  Entries are rational, every convergence margin is at
    least 1/3 and the block is not one of the catalogued Theorem blocks.  A
    factor whose excess is a nonzero integer is redrawn: kdf_integral has no
    near-unit evaluation path for it and raises.
    """
    rng = random.Random(seed % POOL_SIZE)
    catalogue = set(lvalue.THEOREM_KDF_BLOCKS.values())
    while True:
        a = rng.choice(_JOINT)
        ap = a + rng.choice(_GAPS)
        b = [rng.choice(_UPPER), rng.choice(_UPPER)]
        bp = rng.choice(_LOWER)
        c = [rng.choice(_UPPER), rng.choice(_UPPER)]
        cp = rng.choice(_LOWER)
        excess = (bp - sum(b), cp - sum(c))
        if any(e != 0 and e.denominator == 1 for e in excess):
            continue
        block = KdFParams([a], [ap], b, [bp], c, [cp])
        m = hyper.kdf_margins(block)
        if min(m.m1, m.m2, m.m3) >= _MIN_MARGIN and block not in catalogue:
            return block


def block_key(block: KdFParams) -> str:
    """The block's parameter lists a | ap | b | bp | c | cp, as text."""
    return " | ".join(",".join(str(v) for v in part)
                      for part in (block.a, block.ap, block.b, block.bp, block.c, block.cp))


# -- theorem ---------------------------------------------------------------


def run_theorem(seed: int) -> dict:
    reports = cli.theorem_suite_reports(DIGITS)
    block = draw_block(seed)
    series = hyper.kdf_series(block, 1, 1, THEOREM_PREC)
    integral = hyper.kdf_integral(block, 1, 1, THEOREM_PREC)
    return {"reports": reports, "block": block, "series": series, "integral": integral}


def check_theorem(out: dict, ref: dict, seed: int) -> list:
    checks = []
    for n, rep in zip((1, 2, 3), out["reports"]):
        lref = ref["lvalues"][str(n)]
        checks.append(check_flag(rep.name, rep.passed))
        mellin = lvalue.l_mellin(n, THEOREM_PREC)
        checks.append(check_value(f"{rep.name}.mellin", rep.lhs, lref,
                                  mellin.err_estimate))
        integral = lvalue.rhs_theorem(n, "integral", THEOREM_PREC)
        checks.append(check_value(f"{rep.name}.integral", rep.rhs, lref,
                                  integral.err_estimate))
        series = lvalue.rhs_theorem(n, "series", THEOREM_PREC)
        checks.append(check_value(f"{rep.name}.series", series.value, lref,
                                  series.err_estimate))
    entry = ref["blocks"][seed % POOL_SIZE]
    if entry["params"] != block_key(out["block"]):
        checks.append(Check("seeded_block.params", False,
                            "drawn block differs from the reference pool entry"))
        return checks
    for route in ("series", "integral"):
        res = out[route]
        checks.append(check_value(f"seeded_block.{route}", res.value, entry["value"],
                                  res.err_estimate + mpf(entry["ref_err"])))
    return checks


# -- numeric ---------------------------------------------------------------


def run_numeric(seed: int) -> dict:
    return {"reports": cli.numeric_suite_reports(DIGITS)}


def check_numeric(out: dict, ref: dict, seed: int) -> list:
    checks = [check_flag(rep.name, rep.passed) for rep in out["reports"]]
    by_name = {rep.name: rep for rep in out["reports"]}
    # both sides of these two identities are L(f, 1) and L(f, 2); the report
    # carries no per-value error bar, so the check's own tolerance stands in
    for name, n in (("l1_alpha_integral", "1"), ("l2_intermediate", "2")):
        rep = by_name[name]
        checks.append(check_value(f"{name}.lhs", rep.lhs, ref["lvalues"][n], rep.tol))
        checks.append(check_value(f"{name}.rhs", rep.rhs, ref["lvalues"][n], rep.tol))
    return checks


# -- qseries ---------------------------------------------------------------


def run_qseries(seed: int) -> dict:
    return {"reports": cli.exact_suite_reports(EXACT_ORDER),
            "dirichlet": lvalue.l_dirichlet(DIRICHLET_N)}


def check_qseries(out: dict, ref: dict, seed: int) -> list:
    checks = []
    verdicts = ref["exact_verdicts"]
    got = [rep.name for rep in out["reports"]]
    if got != list(verdicts):
        checks.append(Check("exact_suite.names", False, f"checks {got} differ from reference"))
    for rep in out["reports"]:
        ok = rep.passed == verdicts.get(rep.name) and (not rep.passed or rep.abs_err == 0)
        checks.append(Check(rep.name, ok, f"passed={rep.passed} abs_err={rep.abs_err}"))
    d = out["dirichlet"]
    checks.append(check_value("l_dirichlet.partial_sum", d.value,
                              ref["dirichlet_partial_sum"], DIRICHLET_SUM_BAR))
    checks.append(check_value("l_dirichlet.vs_L3", d.value, ref["lvalues"]["3"],
                              d.err_estimate))
    return checks


WORKLOADS = {
    "theorem": (run_theorem, check_theorem),
    "numeric": (run_numeric, check_numeric),
    "qseries": (run_qseries, check_qseries),
}
