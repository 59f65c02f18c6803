"""Command-line entry point: verification suites, evaluators, series dumps.

Suites aggregate IdentityReports; `verify` exits 0 only when every selected
check passes, 1 on any failure, 2 on usage errors.  JSON reports carry all
numeric fields as decimal strings at working precision so they reproduce
bit-identically across runs and platforms (only the seconds fields vary).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from mpmath import mp, mpf, mpmathify

from . import __version__, hyper, lvalue, qexp, thetanum
from .hyper import KdFParams
from .reports import IdentityReport, check
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


# -- exact suite ----------------------------------------------------------------


def _exact_series(order: int) -> SimpleNamespace:
    """The series and products the exact checks share.

    Each product that two checks read is taken once here: c^3 (read by
    ``cubic_a3_b3_c3`` and ``c_cubed_lambert``), b c(q^3) (``wt2_lambert``
    and ``e0_derivative``), and b^2, which gives both b^3 (``cubic_a3_b3_c3``)
    and b^2 c(q^3) (``f_product``).  ``exact_suite_reports`` builds them
    inside its first check, so they count in the ``seconds`` of
    ``cubic_a3_b3_c3``.
    """
    a, b, c = (qexp.theta_series(kind, order) for kind in "abc")
    c_q3 = c.substitute_power(3)
    b2 = b * b
    return SimpleNamespace(
        order=order, a=a, b=b, c=c, c_q3=c_q3,
        c3=c * c * c, b3=b2 * b, bc_q3=b * c_q3, b2c_q3=b2 * c_q3,
        b_root=qexp.theta_series("b", 3 * order).substitute_root(3),
        f=qexp.f_coefficients(order),
    )


# (name, methods, residual of the shared series s): each residual is exactly
# zero when the identity holds to the truncation order
_EXACT_CHECKS = (
    ("cubic_a3_b3_c3", ("lattice", "lattice"), lambda s: s.a ** 3 - s.b3 - s.c3),
    ("rel1_c_q3", ("lattice", "lattice"), lambda s: s.c_q3 - (s.a - s.b).exact_div(3)),
    ("b_cube_root", ("lattice", "lattice"), lambda s: s.b_root - s.a + s.c),
    ("wt2_lambert", ("lattice", "lambert"),
     lambda s: s.bc_q3 - qexp.lambert_series("bc3", s.order)),
    ("c_lambert", ("lattice", "lambert"), lambda s: s.c - qexp.lambert_series("c", s.order)),
    ("c_cubed_lambert", ("lattice", "lambert"),
     lambda s: s.c3 - qexp.lambert_series("c_cubed", s.order)),
    # times 9, on ints: 9 q dE0/dq has 3e E0_e at q^(e/3), an int when E0 is right
    ("e0_derivative", ("lambert", "lattice"),
     lambda s: qexp.lambert_series("E0", s.order).q_differentiate(9)
     - (s.b_root * s.c - s.bc_q3.scale(3))),
    ("f_product", ("lambert", "lattice"), lambda s: s.f.scale(3) - s.b2c_q3),
    ("eta_b", ("eta", "lattice"),
     lambda s: qexp.eta_quotient([(1, 3), (3, -1)], s.order) - s.b),
    ("eta_c", ("eta", "lattice"),
     lambda s: qexp.eta_quotient([(3, 3), (1, -1)], s.order).scale(3) - s.c),
    ("eta_f", ("eta", "lambert"),
     lambda s: qexp.eta_quotient([(1, 6), (9, 3), (3, -3)], s.order) - s.f),
)


def exact_suite_reports(order: int):
    """Coefficientwise identity checks to q-order ``order`` on the cube-root grid.

    The shared series are built inside the first check, so its time includes them.
    """
    shared = functools.cache(lambda: _exact_series(order))

    def points(residual):
        yield 0.0, 0.0, max(map(abs, residual(shared()).coeffs))

    return [check(name, methods, 0.0, points(residual))
            for name, methods, residual in _EXACT_CHECKS]


# -- numeric suite ----------------------------------------------------------------

_HAUPTMODUL_GRID = ("0.01", "0.05", "0.1", "0.2", "0.3", "0.4", "0.5")
_INVOLUTION_GRID = ("0.2", "0.4", None, "1.0", "2.0")  # None marks 1/sqrt(3)
_DIFFERENTIAL_GRID = ("0.1", "0.3")


def _distances(name: str, methods: tuple, tol, digits: int, errs) -> IdentityReport:
    """A numeric check: no sides, its points the distances ``errs``, which
    are evaluated at digits + 10 working digits."""
    with mp.workdps(digits + 10):
        return check(name, methods, tol, ((0.0, 0.0, err) for err in errs))


def _sides(name: str, methods: tuple, tol, digits: int, pairs) -> IdentityReport:
    """A numeric check of two sides: its points the (lhs, rhs) ``pairs`` and
    their distances, all evaluated at digits + 10 working digits."""
    with mp.workdps(digits + 10):
        return check(name, methods, tol, ((lhs, rhs, abs(lhs - rhs)) for lhs, rhs in pairs))


def hauptmodul_report(digits: int, tol: float) -> IdentityReport:
    prec = Precision(digits, tol)
    return _sides("hauptmodul", ("theta", "gauss-2f1"), tol, digits, (
        thetanum._hauptmodul_sides(q, prec) for q in _HAUPTMODUL_GRID))


def involution_report(digits: int, tol: float) -> IdentityReport:
    """b(e^{-2 pi u}) vs c(e^{-2 pi/(3u)})/(sqrt(3) u), and a(e^{-2 pi u}) vs
    a(e^{-2 pi/(3u)})/(sqrt(3) u): direct sums against ``eval_theta``'s transform."""

    def pairs():
        inner_tol = mpf(10) ** (-digits)
        for entry in _INVOLUTION_GRID:
            u = 1 / mp.sqrt(3) if entry is None else mpmathify(entry)
            for kind in ("b", "a"):
                yield (thetanum._theta_direct(kind, mp.exp(-2 * mp.pi * u), inner_tol),
                       thetanum._theta_dual(kind, u, inner_tol)[0])

    return _sides("involution", ("direct", "direct"), tol, digits, pairs())


def differential_report(digits: int, tol: float) -> IdentityReport:
    prec = Precision(digits, tol)

    def errs():
        for q in _DIFFERENTIAL_GRID:
            steps, resid = thetanum.differential_residual(q, prec)
            # the finite-difference errors must decay quadratically
            quadratic = all(3 < steps[i] / steps[i + 1] < 5.5 for i in range(len(steps) - 1))
            yield resid if quadratic else max(resid, mpf(1))

    return _distances("differential_relation", ("finite-difference", "closed-form"), tol,
                      digits, errs())


def cubic_numeric_report(digits: int) -> IdentityReport:
    """a^3 vs b^3 + c^3, with a, b and c each summed from its own series; the
    distance is absolute, which is no looser than relative since a >= 1."""
    tol = 10.0 ** (-(digits - 12))
    prec = Precision(digits, tol)

    def pairs():
        for q in ("0.02", "0.1", "0.3", "0.6", "0.9"):
            pt = thetanum.theta_point(q, prec)
            yield pt.a ** 3, pt.b ** 3 + pt.c ** 3

    return _sides("cubic_numeric", ("theta", "theta"), tol, digits, pairs())


def alpha_monotone_report(digits: int) -> IdentityReport:
    """alpha strictly increasing on the q grid, tested on the complement
    1 - alpha = b^3/a^3 (representable without cancellation as alpha -> 1)."""
    prec = Precision(digits, 10.0 ** (-(digits - 12)))

    def errs():
        prev = mpf(2)
        for k in range(1, 91):
            comp = thetanum.alpha_pair(mpf(k) / 100, prec)[1]
            yield 0.0 if comp < prev else 1.0
            prev = comp

    return _distances("alpha_monotone", ("theta", "theta"), 0.0, digits, errs())


def series_consistency_report(digits: int) -> IdentityReport:
    """eval_theta against the exact truncation, within its tail bound: each
    series is summed on its own grid q^(e/d), whose coefficients obey 12 (e + 1)."""
    order = 160
    tol = 10.0 ** (-(digits - 12))
    prec = Precision(digits, tol)

    def errs():
        for kind in ("a", "b", "c"):
            series = qexp.theta_series(kind, order)
            for qs in ("0.1", "0.2"):
                q = mpmathify(qs)
                step = q ** (mpf(1) / series.d)
                acc = thetanum._series_sum(series.coeffs, series.order, step)
                tail = thetanum._tail_bound(step, series.order, 12)
                diff = abs(thetanum.eval_theta(kind, q, prec) - acc)
                yield diff if diff > tail + mpf(tol) else 0.0

    return _distances("qexp_consistency", ("theta", "exact-series"), tol, digits, errs())


def quad_closed_forms_report(digits: int) -> IdentityReport:
    tol = 10.0 ** (-(digits - 15))
    prec = Precision(digits, tol)

    def pairs():
        third = mpf(1) / 3
        # integrands f(t, 1 - t, ln t, ln(1 - t)), so that nodes near t = 1
        # keep their weight; the powers read the node's logs
        for f, want in (
            (lambda t, omt, lt, lomt: mpf(1), mpf(1)),
            (lambda t, omt, lt, lomt: mp.exp(-third * lomt), mpf(3) / 2),
            (lambda t, omt, lt, lomt: mp.exp((third - 1) * lt), mpf(3)),
        ):
            yield hyper.quad_de(f, tol, prec, node_args=True).value, want

    return _sides("quad_de_closed_forms", ("quadrature", "closed-form"), tol, digits,
                  pairs())


def kdf_routes_report(digits: int, tol: float) -> IdentityReport:
    """kdf_series vs kdf_integral at (1/2, 1/2) for every Theorem block, both
    asked for tol/100 or better as far as the digit budget allows."""
    prec = Precision(digits, max(min(10.0 ** (-(digits - 15)), tol / 100),
                                 10.0 ** (-(digits - 10))))
    half = Fraction(1, 2)
    blocks = list(lvalue.THEOREM_KDF_BLOCKS.values())

    def pairs():
        # the six integrals in one batch, which shares their nodes and their
        # common factor, inside the check so that its seconds count them
        integrals = hyper.kdf_integrals(blocks, half, half, prec)
        for params, integral in zip(blocks, integrals):
            yield hyper.kdf_series(params, half, half, prec).value, integral.value

    return _sides("kdf_series_vs_integral", ("direct", "integral"), tol, digits, pairs())


def kdf_margins_report() -> IdentityReport:
    def points():
        m1 = hyper.kdf_margins(lvalue.THEOREM_KDF_BLOCKS["L1"])
        ok = (m1.m1, m1.m2, m1.m3) == (Fraction(2, 3), Fraction(1), Fraction(2, 3))
        ok = ok and all(hyper.kdf_margins(params).boundary_ok
                        for params in lvalue.THEOREM_KDF_BLOCKS.values())
        yield 0.0, 0.0, 0.0 if ok else 1.0

    return check("kdf_margins", ("exact", "exact"), 0.0, points())


def _floor_tol(digits: int, target: float) -> float:
    """Loosen a default tolerance when the digit budget cannot certify it."""
    return max(target, 10.0 ** (-(digits - 12)))


def numeric_suite_reports(digits: int, tol: float | None = None):
    """The numeric checks; ``tol``, when given, sets the 15 checks that take
    one, and ``Precision(digits, tol)`` must accept it."""
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


def theorem_suite_reports(digits: int, tol: float | None = None):
    if tol is None:
        tol = _floor_tol(digits, 1e-10)
    inner = max(min(tol * 1e-2, 1e-12), 10.0 ** (-(digits - 10)))
    prec = Precision(digits, inner)

    def points(n):
        if n == 1:
            # the integrals of all six blocks in one batch, which shares their
            # nodes and their common factor, inside the first check, so that
            # its seconds count them; the other checks read them from the memo
            lvalue._kdf_at_one(lvalue.THEOREM_KDF_BLOCKS, "integral", prec)
        mel = lvalue.l_mellin(n, prec)
        ri = lvalue.rhs_theorem(n, "integral", prec)
        rs = lvalue.rhs_theorem(n, "series", prec)
        err = abs(mel.value - ri.value)
        gap = abs(rs.value - ri.value)
        # a series gap within tol confirms the identity to tol even if it
        # misses the route's own bar, so a failing report's gap is > tol
        bar = max(rs.err_estimate, tol)
        yield mel.value, ri.value, err if gap <= bar else max(err, gap)

    with mp.workdps(digits + 15):
        return [check(f"lvalue_{n}_hypergeometric", ("mellin", "kdf"), tol, points(n))
                for n in (1, 2, 3)]


# -- report rendering ----------------------------------------------------------------


def _fmt(x, digits: int) -> str:
    return mp.nstr(mpmathify(x), digits, strip_zeros=True)


def _significant(x, places: int) -> int:
    """The significant digits of x down to the decimal place 10^-places, at
    least one; x nonzero."""
    return max(1, places + int(mp.floor(mp.log10(abs(x)))) + 1)


def _fmt_err(err, digits: int) -> str:
    """A distance to absolute precision 10^-digits, the precision of the sides
    it compares: further digits would be rounding noise."""
    x = mpmathify(err)
    return _fmt(x, _significant(x, digits) if x else digits)


def _fmt_value(value, bar, digits: int):
    """A value to the decimal places its bar supports, at most ``digits``
    significant, and the bar of that text: the last place printed is the
    first 10^-k with bar <= 10^-k / 2, so every number within the bar of
    the value is within 10^-k of the text; its bar adds the rounding."""
    with mp.workdps(digits + 10):
        x, bar = mpmathify(value), mpmathify(bar)
        sig = digits
        if x and bar:
            sig = min(digits, _significant(x, int(mp.floor(-mp.log10(2 * bar)))))
        text = _fmt(x, sig)
        return text, bar + abs(mpf(text) - x)


def _fmt_bar(bar, digits: int = 5) -> str:
    """A bar to ``digits`` significant digits, rounded up, so that the text is
    never below the bar."""
    x = mpmathify(bar)
    if not x:
        return _fmt(x, digits)
    man, exp = x.man_exp
    k = int(mp.floor(mp.log10(x))) - digits + 1
    top = -(-Fraction(man) * Fraction(2) ** exp // Fraction(10) ** k)
    with mp.workdps(digits + 10):
        return _fmt(mpf(f"{top}e{k}"), digits)


def suite_report_dict(reports, digits: int, total_seconds: float) -> dict:
    checks = []
    for r in reports:
        checks.append({
            "name": r.name,
            "lhs": _fmt(r.lhs, digits),
            "rhs": _fmt(r.rhs, digits),
            "abs_err": _fmt_err(r.abs_err, digits),
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


def _print_table(reports):
    width = max(len(r.name) for r in reports) + 2
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        err = _fmt(r.abs_err, 3)
        tol = _fmt(r.tol, 3)
        print(f"{r.name:<{width}} {status}  abs_err={err}  tol={tol}  "
              f"[{r.methods[0]} vs {r.methods[1]}]  {r.seconds:.2f}s")


# -- subcommands ---------------------------------------------------------------------


def cmd_verify(args, parser) -> int:
    if args.tol is not None:
        try:
            Precision(args.digits, args.tol)
        except ValueError as exc:
            parser.error(f"--tol {args.tol} rejected at --digits {args.digits}: {exc}")
    if args.order < 1:
        parser.error("--order must be at least 1")
    t0 = time.perf_counter()
    reports = []
    try:
        if args.suite in ("all", "exact"):
            reports.extend(exact_suite_reports(args.order))
        if args.suite in ("all", "numeric"):
            reports.extend(numeric_suite_reports(args.digits, args.tol))
        if args.suite in ("all", "theorem"):
            reports.extend(theorem_suite_reports(args.digits, args.tol))
    except ArithmeticError as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return _EXIT_FAIL
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
    ns, message = lvalue.LVALUE_METHODS[args.method]
    if args.n not in ns:
        parser.error(message)
    if args.method == "dirichlet" and args.N < 1000:
        parser.error("--N must be at least 1000 for the dirichlet method")
    prec = Precision(args.digits, 10.0 ** (-(args.digits - 12)))
    t0 = time.perf_counter()
    if args.method == "mellin":
        res = lvalue.l_mellin(args.n, prec)
    elif args.method == "dirichlet":
        res = lvalue.l_dirichlet(args.N)
    elif args.method == "alpha_integral":
        res = lvalue.l1_alpha_integral(prec)
    else:
        res = lvalue.l2_intermediate(prec)
    secs = time.perf_counter() - t0
    text, bar = _fmt_value(res.value, res.err_estimate, args.digits)
    print(f"L(f,{args.n}) = {text}")
    print(f"err_estimate = {_fmt_bar(bar)}")
    print(f"method = {res.method}")
    print(f"seconds = {secs:.3f}")
    return _EXIT_OK


def _fraction_list(text: str):
    if not text.strip():
        return []
    return [Fraction(part.strip()) for part in text.split(",")]


def cmd_kdf(args, parser) -> int:
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
    except ArithmeticError as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return _EXIT_FAIL
    text, bar = _fmt_value(res.value, res.err_estimate, args.digits)
    print(f"value = {text}")
    print(f"err_estimate = {_fmt_bar(bar)}")
    print(f"terms_used = {res.terms_used}")
    print(f"method = {res.method}")
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
        if name in ("a", "b", "c"):
            series = qexp.theta_series(name, args.order)
        elif name == "f":
            # f has no constant term, so order 0 dumps nothing
            coeffs = qexp.f_coefficients(max(args.order, 1)).coeffs
            series = qexp.QSeries(1, coeffs[: args.order + 1])
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


def _digits(text: str) -> int:
    """A --digits value: 15 to 300, so that the least tolerance derived from
    it, 10^-(digits - 10), is still a normal float."""
    if not 15 <= (digits := int(text)) <= 300:
        raise argparse.ArgumentTypeError(f"must be from 15 to 300, got {digits}")
    return digits


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubictheta",
        description="Verify cubic theta identities and hypergeometric L-value formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.set_defaults(handler=cmd_verify, subparser=p)
    p.add_argument("--suite", choices=("all", "exact", "numeric", "theorem"),
                   default="all")
    p.add_argument("--order", type=int, default=500,
                   help="q-order for the exact suite (default 500)")
    p.add_argument("--digits", type=_digits, default=40)
    p.add_argument("--tol", type=float, default=None,
                   help="tolerance of the 15 checks that take one; the exact, flag, "
                   "cubic_numeric, qexp_consistency and quad_de_closed_forms checks keep "
                   "their own")
    p.add_argument("--json", type=str, default=None, metavar="PATH")

    p = sub.add_parser("lvalue", help="compute one L-value")
    p.set_defaults(handler=cmd_lvalue, subparser=p)
    p.add_argument("--n", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--method", required=True, choices=tuple(lvalue.LVALUE_METHODS))
    p.add_argument("--N", type=int, default=1_000_000,
                   help="Dirichlet truncation point")
    p.add_argument("--digits", type=_digits, default=40)

    p = sub.add_parser("kdf", help="evaluate a Kampe de Feriet double series")
    p.set_defaults(handler=cmd_kdf, subparser=p)
    for flag in ("--a", "--ap", "--b", "--bp", "--c", "--cp"):
        p.add_argument(flag, required=True, help="comma-separated rationals, e.g. "
                       f"'1,4/3'; a value that starts with '-' needs '=': {flag}=-1,4/3")
    for flag in ("--x", "--y"):
        p.add_argument(flag, required=True, help=f"a rational; a negative fraction "
                       f"needs '=': {flag}=-1/2")
    p.add_argument("--route", choices=("series", "integral"), required=True)
    p.add_argument("--digits", type=_digits, default=40)

    p = sub.add_parser("qexp", help="dump an exact series")
    p.set_defaults(handler=cmd_qexp, subparser=p)
    p.add_argument("--series", required=True,
                   help="a, b, c, f, bc3, c_cubed, E0, or eta:<delta^r,...>")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", type=str, default=None, metavar="PATH")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # each subcommand reports usage errors through its own subparser
    return args.handler(args, args.subparser)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
