"""Command-line entry point: verification suites, evaluators, series dumps.

Suites aggregate IdentityReports; `verify` exits 0 only when every selected
check passes, 1 on any failure, 2 on usage errors.  JSON reports carry all
numeric fields as decimal strings at working precision so they reproduce
bit-identically across runs and platforms (only the seconds fields vary).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from mpmath import mp, mpf, mpmathify

from . import __version__, hyper, lvalue, qexp, thetanum
from .hyper import KdFParams
from .reports import IdentityReport
from .thetanum import Precision

__all__ = [
    "main",
    "cmd_verify",
    "cmd_lvalue",
    "cmd_kdf",
    "cmd_qexp",
    "exact_suite_reports",
    "numeric_suite_reports",
    "theorem_suite_reports",
    "suite_report_dict",
    "render_report_json",
]

_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_USAGE = 2


# -- exact suite ----------------------------------------------------------------


def _exact_report(name: str, residual, methods, t0) -> IdentityReport:
    passed = residual.is_zero()
    worst = 0.0
    if not passed:
        worst = float(max(abs(Fraction(c)) for c in residual.coeffs))
    return IdentityReport(
        name=name,
        lhs=0.0,
        rhs=0.0,
        abs_err=worst,
        tol=0.0,
        passed=passed,
        methods=methods,
        seconds=time.perf_counter() - t0,
    )


def exact_suite_reports(order: int = 500):
    """Coefficientwise identity checks to q-order ``order`` on the cube-root grid."""
    reports = []
    t0 = time.perf_counter()
    a = qexp.theta_series("a", order)
    b = qexp.theta_series("b", order)
    c = qexp.theta_series("c", order)
    c_q3 = c.substitute_power(3)
    b_root = qexp.theta_series("b", 3 * order).substitute_root(3)
    f = qexp.f_coefficients(order)

    t = time.perf_counter()
    reports.append(_exact_report(
        "cubic_a3_b3_c3", a ** 3 - b ** 3 - c ** 3, ("lattice", "lattice"), t))
    t = time.perf_counter()
    reports.append(_exact_report(
        "rel1_c_q3", c_q3 - (a - b).exact_div(3), ("lattice", "lattice"), t))
    t = time.perf_counter()
    reports.append(_exact_report(
        "b_cube_root", b_root - a + c, ("lattice", "lattice"), t))
    t = time.perf_counter()
    reports.append(_exact_report(
        "wt2_lambert", b * c_q3 - qexp.lambert_series("bc3", order),
        ("lattice", "lambert"), t))
    t = time.perf_counter()
    reports.append(_exact_report(
        "c_lambert", c - qexp.lambert_series("c", order), ("lattice", "lambert"), t))
    t = time.perf_counter()
    reports.append(_exact_report(
        "c_cubed_lambert", c ** 3 - qexp.lambert_series("c_cubed", order),
        ("lattice", "lambert"), t))
    t = time.perf_counter()
    e0_deriv = qexp.lambert_series("E0", order).q_differentiate()
    rhs = (b_root * c).exact_div(9) - (b * c_q3).exact_div(3)
    reports.append(_exact_report(
        "e0_derivative", e0_deriv - rhs, ("lambert", "lattice"), t))
    t = time.perf_counter()
    reports.append(_exact_report(
        "f_product", f.scale(3) - b * b * c_q3, ("lambert", "lattice"), t))
    t = time.perf_counter()
    reports.append(_exact_report(
        "eta_b", qexp.eta_quotient([(1, 3), (3, -1)], order) - b,
        ("eta", "lattice"), t))
    t = time.perf_counter()
    reports.append(_exact_report(
        "eta_c", qexp.eta_quotient([(3, 3), (1, -1)], order).scale(3) - c,
        ("eta", "lattice"), t))
    t = time.perf_counter()
    reports.append(_exact_report(
        "eta_f", qexp.eta_quotient([(1, 6), (9, 3), (3, -3)], order) - f,
        ("eta", "lambert"), t))
    # fold the shared series construction into the first check's timing
    shared = (time.perf_counter() - t0) - sum(r.seconds for r in reports)
    reports[0].seconds += max(shared, 0.0)
    return reports


# -- numeric suite ----------------------------------------------------------------

_HAUPTMODUL_GRID = ("0.01", "0.05", "0.1", "0.2", "0.3", "0.4", "0.5")
_INVOLUTION_GRID = ("0.2", "0.4", None, "1.0", "2.0")  # None marks 1/sqrt(3)
_DIFFERENTIAL_GRID = ("0.1", "0.3")


def _numeric_report(name, err, tol, methods, t0) -> IdentityReport:
    err_f = +mpmathify(err)
    return IdentityReport(
        name=name,
        lhs=0.0,
        rhs=0.0,
        abs_err=err_f,
        tol=tol,
        passed=bool(err_f <= tol),
        methods=methods,
        seconds=time.perf_counter() - t0,
    )


def hauptmodul_report(digits: int, tol: float = 1e-20) -> IdentityReport:
    t0 = time.perf_counter()
    prec = Precision(digits, tol)
    worst = mpf(0)
    with mp.workdps(digits + 10):
        for q in _HAUPTMODUL_GRID:
            worst = max(worst, abs(thetanum.residual_hauptmodul(q, prec)))
    return _numeric_report("hauptmodul", worst, tol, ("theta", "gauss-2f1"), t0)


def involution_report(digits: int, tol: float = 1e-20) -> IdentityReport:
    """b(e^{-2 pi u}) vs c(e^{-2 pi/(3u)})/(sqrt(3) u), both sides summed directly."""
    t0 = time.perf_counter()
    worst = mpf(0)
    with mp.workdps(digits + 10):
        inner_tol = mpf(10) ** (-digits)
        for entry in _INVOLUTION_GRID:
            u = 1 / mp.sqrt(3) if entry is None else mpmathify(entry)
            lhs = thetanum._theta_direct("b", mp.exp(-2 * mp.pi * u), inner_tol)
            rhs = thetanum._theta_direct(
                "c", mp.exp(-2 * mp.pi / (3 * u)), inner_tol * mp.sqrt(3) * u
            ) / (mp.sqrt(3) * u)
            worst = max(worst, abs(lhs - rhs))
    return _numeric_report("involution", worst, tol, ("direct", "direct"), t0)


def differential_report(digits: int, tol: float = 1e-12) -> IdentityReport:
    t0 = time.perf_counter()
    prec = Precision(digits, tol)
    worst = mpf(0)
    with mp.workdps(digits + 10):
        for q in _DIFFERENTIAL_GRID:
            errs, resid = thetanum.differential_residual(q, prec)
            for i in range(len(errs) - 1):
                ratio = errs[i] / errs[i + 1]
                if not (3 < ratio < 5.5):
                    resid = max(resid, mpf(1))  # quadratic decay failed
            worst = max(worst, resid)
    return _numeric_report("differential_relation", worst, tol,
                           ("finite-difference", "closed-form"), t0)


def cubic_numeric_report(digits: int) -> IdentityReport:
    t0 = time.perf_counter()
    tol = 10.0 ** (-(digits - 12))
    prec = Precision(digits, tol)
    worst = mpf(0)
    with mp.workdps(digits + 10):
        for q in ("0.02", "0.1", "0.3", "0.6", "0.9"):
            pt = thetanum.theta_point(q, prec)
            worst = max(worst, abs(pt.a ** 3 - pt.b ** 3 - pt.c ** 3) / pt.a ** 3)
    return _numeric_report("cubic_numeric", worst, tol, ("theta", "theta"), t0)


def alpha_monotone_report(digits: int) -> IdentityReport:
    """alpha strictly increasing on the q grid, tested on the complement
    1 - alpha = b^3/a^3 (representable without cancellation as alpha -> 1)."""
    t0 = time.perf_counter()
    prec = Precision(digits, 10.0 ** (-(digits - 12)))
    ok = True
    with mp.workdps(digits + 10):
        prev = mpf(2)
        for k in range(1, 91):
            comp = thetanum.alpha_pair(mpf(k) / 100, prec)[1]
            if not comp < prev:
                ok = False
            prev = comp
    return _numeric_report("alpha_monotone", 0.0 if ok else 1.0, 0.0,
                           ("theta", "theta"), t0)


def series_consistency_report(digits: int) -> IdentityReport:
    """eval_theta against the exact truncation, within the truncation tail."""
    t0 = time.perf_counter()
    order = 160
    tol = 10.0 ** (-(digits - 12))
    prec = Precision(digits, tol)
    worst = mpf(0)
    with mp.workdps(digits + 10):
        for kind in ("a", "b", "c"):
            series = qexp.theta_series(kind, order)
            for qs in ("0.1", "0.2"):
                q = mpmathify(qs)
                acc = mpf(0)
                for e in range(series.order, -1, -1):
                    acc = acc * q ** (mpf(1) / series.d) + series.coeffs[e]
                tail = 12 * (order + 3) * q ** (order + 1) / (1 - q) ** 2
                diff = abs(thetanum.eval_theta(kind, q, prec) - acc)
                if diff > tail + mpf(tol):
                    worst = max(worst, diff)
    return _numeric_report("qexp_consistency", worst, tol, ("theta", "exact-series"), t0)


def quad_closed_forms_report(digits: int) -> IdentityReport:
    t0 = time.perf_counter()
    tol = 10.0 ** (-(digits - 15))
    prec = Precision(digits, tol)
    worst = mpf(0)
    with mp.workdps(digits + 10):
        third = mpf(1) / 3
        checks = (
            (hyper.quad_de(lambda t: mpf(1), tol, prec).value, mpf(1)),
            (hyper.quad_de(lambda t: (1 - t) ** (-third), tol, prec).value,
             mpf(3) / 2),
            (hyper.quad_de(lambda t: t ** third / (t * (1 - t)) * (1 - t), tol, prec).value,
             mpf(3)),
        )
        for got, want in checks:
            worst = max(worst, abs(got - want))
    return _numeric_report("quad_de_closed_forms", worst, tol,
                           ("quadrature", "closed-form"), t0)


def kdf_routes_report(digits: int, tol: float = 1e-15) -> IdentityReport:
    """kdf_series vs kdf_integral at (1/2, 1/2) for every Theorem block."""
    t0 = time.perf_counter()
    prec = Precision(digits, 10.0 ** (-(digits - 15)))
    worst = mpf(0)
    with mp.workdps(digits + 10):
        half = Fraction(1, 2)
        for params in lvalue.THEOREM_KDF_BLOCKS.values():
            s = hyper.kdf_series(params, half, half, prec)
            i = hyper.kdf_integral(params, half, half, prec)
            worst = max(worst, abs(s.value - i.value))
    return _numeric_report("kdf_series_vs_integral", worst, tol,
                           ("direct", "integral"), t0)


def kdf_margins_report() -> IdentityReport:
    t0 = time.perf_counter()
    m1 = hyper.kdf_margins(lvalue.THEOREM_KDF_BLOCKS["L1"])
    ok = (m1.m1, m1.m2, m1.m3) == (Fraction(2, 3), Fraction(1), Fraction(2, 3))
    for params in lvalue.THEOREM_KDF_BLOCKS.values():
        ok = ok and hyper.kdf_margins(params).boundary_ok
    return _numeric_report("kdf_margins", 0.0 if ok else 1.0, 0.0,
                           ("exact", "exact"), t0)


def _floor_tol(digits: int, target: float) -> float:
    """Loosen a default tolerance when the digit budget cannot certify it."""
    return max(target, 10.0 ** (-(digits - 12)))


def numeric_suite_reports(digits: int = 40, tol: float | None = None):
    if tol is not None:
        tol = max(tol, 10.0 ** (-(digits - 10)))
    reports = [
        hauptmodul_report(digits, tol or _floor_tol(digits, 1e-20)),
        involution_report(digits, tol or _floor_tol(digits, 1e-20)),
        differential_report(digits, tol or _floor_tol(digits, 1e-12)),
        cubic_numeric_report(digits),
        alpha_monotone_report(digits),
        series_consistency_report(digits),
        quad_closed_forms_report(digits),
        kdf_margins_report(),
        kdf_routes_report(digits, tol or _floor_tol(digits, 1e-15)),
    ]
    prec = Precision(digits, tol or _floor_tol(digits, 1e-12))
    for name in lvalue.IDENTITY_NAMES:
        reports.append(lvalue.check_identity(name, prec))
    return reports


# -- theorem suite -----------------------------------------------------------------


def theorem_suite_reports(digits: int = 40, tol: float | None = None):
    if tol is None:
        tol = 1e-10
    inner = max(min(tol * 1e-2, 1e-12), 10.0 ** (-(digits - 10)))
    prec = Precision(digits, inner)
    reports = []
    with mp.workdps(digits + 15):
        for n in (1, 2, 3):
            t0 = time.perf_counter()
            mel = lvalue.l_mellin(n, prec)
            ri = lvalue.rhs_theorem(n, "integral", prec)
            rs = lvalue.rhs_theorem(n, "series", prec)
            err = abs(mel.value - ri.value)
            gap = abs(rs.value - ri.value)
            # a series gap within tol confirms the identity to tol even if it
            # misses the route's own bar, so a failing report's gap is > tol;
            # a Richardson fallback's bar |val - sums[-1]| is no measured
            # error, so that route must meet tol itself
            bar = tol if rs.method == "richardson" else max(rs.err_estimate, tol)
            series_ok = gap <= bar
            rep = IdentityReport(
                name=f"lvalue_{n}_hypergeometric",
                lhs=+mel.value,
                rhs=+ri.value,
                abs_err=+(err if series_ok else max(err, gap)),
                tol=tol,
                passed=bool(err <= tol and series_ok),
                methods=("mellin", "kdf"),
                seconds=time.perf_counter() - t0,
            )
            reports.append(rep)
    return reports


# -- report rendering ----------------------------------------------------------------


def _fmt(x, digits: int) -> str:
    return mp.nstr(mpmathify(x), digits, strip_zeros=True)


def suite_report_dict(reports, digits: int, total_seconds: float) -> dict:
    checks = []
    for r in reports:
        checks.append({
            "name": r.name,
            "lhs": _fmt(r.lhs, digits),
            "rhs": _fmt(r.rhs, digits),
            "abs_err": _fmt(r.abs_err, digits),
            "tol": repr(float(r.tol)),
            "pass": bool(r.passed),
            "methods": list(r.methods),
            "seconds": round(float(r.seconds), 6),
        })
    return {
        "tool_version": __version__,
        "digits": digits,
        "checks": checks,
        "all_pass": all(r.passed for r in reports),
        "total_seconds": round(float(total_seconds), 6),
    }


def render_report_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _print_table(reports, out=sys.stdout):
    width = max(len(r.name) for r in reports) + 2
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        err = _fmt(r.abs_err, 3)
        tol = _fmt(r.tol, 3)
        print(f"{r.name:<{width}} {status}  abs_err={err}  tol={tol}  "
              f"[{r.methods[0]} vs {r.methods[1]}]  {r.seconds:.2f}s", file=out)


# -- subcommands ---------------------------------------------------------------------


def cmd_verify(args, parser) -> int:
    if args.digits < 15:
        parser.error("--digits must be at least 15")
    if args.tol is not None and args.tol <= 0:
        parser.error("--tol must be positive")
    order = args.order or 500
    t0 = time.perf_counter()
    reports = []
    if args.suite in ("all", "exact"):
        reports.extend(exact_suite_reports(order))
    if args.suite in ("all", "numeric"):
        reports.extend(numeric_suite_reports(args.digits, args.tol))
    if args.suite in ("all", "theorem"):
        reports.extend(theorem_suite_reports(args.digits, args.tol))
    total = time.perf_counter() - t0
    _print_table(reports)
    all_pass = all(r.passed for r in reports)
    print(f"{'all checks passed' if all_pass else 'FAILURES PRESENT'} "
          f"({len(reports)} checks, {total:.1f}s)")
    if args.json:
        payload = render_report_json(suite_report_dict(reports, args.digits, total))
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    return _EXIT_OK if all_pass else _EXIT_FAIL


def cmd_lvalue(args, parser) -> int:
    if args.digits < 15:
        parser.error("--digits must be at least 15")
    prec = Precision(args.digits, 10.0 ** (-(args.digits - 12)))
    try:
        request = lvalue.LValueRequest(args.n, prec, args.method)
    except ValueError as exc:
        parser.error(str(exc))
    t0 = time.perf_counter()
    if request.method == "mellin":
        res = lvalue.l_mellin(args.n, prec)
    elif request.method == "dirichlet":
        res = lvalue.l_dirichlet(args.N)
    elif request.method == "alpha_integral":
        res = lvalue.l1_alpha_integral(prec)
    else:
        res = lvalue.l2_intermediate(prec)
    secs = time.perf_counter() - t0
    print(f"L(f,{args.n}) = {_fmt(res.value, args.digits)}")
    print(f"err_estimate = {_fmt(res.err_estimate, 5)}"
          + (" (heuristic tail)" if request.method == "dirichlet" else ""))
    print(f"method = {res.method}")
    print(f"seconds = {secs:.3f}")
    return _EXIT_OK


def _fraction_list(text: str):
    if not text.strip():
        return []
    return [Fraction(part.strip()) for part in text.split(",")]


def cmd_kdf(args, parser) -> int:
    if args.digits < 15:
        parser.error("--digits must be at least 15")
    try:
        params = KdFParams(
            _fraction_list(args.a), _fraction_list(args.ap),
            _fraction_list(args.b), _fraction_list(args.bp),
            _fraction_list(args.c), _fraction_list(args.cp),
        )
        x = Fraction(args.x)
        y = Fraction(args.y)
    except (ValueError, ZeroDivisionError) as exc:
        parser.error(f"bad parameter: {exc}")
    margins = hyper.kdf_margins(params)
    print(f"margins = ({margins.m1}, {margins.m2}, {margins.m3})")
    print(f"boundary_ok = {margins.boundary_ok}")
    prec = Precision(args.digits, 10.0 ** (-(args.digits - 15)))
    try:
        if args.route == "series":
            res = hyper.kdf_series(params, x, y, prec)
        else:
            res = hyper.kdf_integral(params, x, y, prec)
    except ValueError as exc:
        print(f"evaluation rejected: {exc}", file=sys.stderr)
        return _EXIT_FAIL
    print(f"value = {_fmt(res.value, args.digits)}")
    print(f"err_estimate = {_fmt(res.err_estimate, 5)}")
    print(f"terms_used = {res.terms_used}")
    return _EXIT_OK


def _parse_eta_spec(text: str):
    pairs = []
    for chunk in text.split(","):
        delta, _, power = chunk.partition("^")
        pairs.append((int(delta), int(power)))
    return pairs


def cmd_qexp(args, parser) -> int:
    if args.order < 0:
        parser.error("--order must be nonnegative")
    name = args.series
    try:
        if name == "a" or name == "b":
            series = qexp.theta_series(name, args.order)
        elif name == "c":
            series = qexp.theta_series("c", args.order)
        elif name == "f":
            series = qexp.f_coefficients(max(args.order, 1))
        elif name in ("bc3", "c_cubed", "E0"):
            series = qexp.lambert_series(name, args.order)
        elif name.startswith("eta:"):
            series = qexp.eta_quotient(_parse_eta_spec(name[4:]), args.order)
        else:
            parser.error(f"unknown series {name!r}")
    except ValueError as exc:
        parser.error(str(exc))
    lines = "\n".join(qexp.dump_lines(series))
    if lines:
        lines += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(lines)
    else:
        sys.stdout.write(lines)
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubictheta",
        description="Verify cubic theta identities and hypergeometric L-value formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("all", "exact", "numeric", "theorem"),
                   default="all")
    p.add_argument("--order", type=int, default=None,
                   help="q-order for the exact suite (default 500)")
    p.add_argument("--digits", type=int, default=40)
    p.add_argument("--tol", type=float, default=None,
                   help="override every check tolerance")
    p.add_argument("--json", type=str, default=None, metavar="PATH")

    p = sub.add_parser("lvalue", help="compute one L-value")
    p.add_argument("--n", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--method", required=True,
                   choices=("mellin", "dirichlet", "alpha_integral", "rz_intermediate"))
    p.add_argument("--N", type=int, default=1_000_000,
                   help="Dirichlet truncation point")
    p.add_argument("--digits", type=int, default=40)

    p = sub.add_parser("kdf", help="evaluate a Kampe de Feriet double series")
    for flag in ("--a", "--ap", "--b", "--bp", "--c", "--cp"):
        p.add_argument(flag, required=True,
                       help="comma-separated rationals, e.g. '1,4/3'")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--route", choices=("series", "integral"), required=True)
    p.add_argument("--digits", type=int, default=40)

    p = sub.add_parser("qexp", help="dump an exact series")
    p.add_argument("--series", required=True,
                   help="a, b, c, f, bc3, c_cubed, E0, or eta:<delta^r,...>")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", type=str, default=None, metavar="PATH")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args, parser)
    if args.command == "lvalue":
        return cmd_lvalue(args, parser)
    if args.command == "kdf":
        return cmd_kdf(args, parser)
    return cmd_qexp(args, parser)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
