"""CLI behavior: flag matrix, exit codes, dump format, JSON report contract."""

import dataclasses
import json

import pytest
from mpmath import mp, mpf

from cubictheta import cli, hyper, lvalue, thetanum
from cubictheta.reports import check


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# -- exit-code matrix -------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    cases = [
        ["verify", "--suite", "everything"],
        ["verify", "--suite", "all", "--digits", "14"],
        ["verify", "--suite", "theorem", "--tol", "0"],
        ["verify", "--suite", "theorem", "--tol", "-1"],
        ["verify", "--suite", "numeric", "--tol", "nan"],
        ["verify", "--suite", "theorem", "--tol", "inf"],
        ["lvalue", "--n", "2", "--method", "dirichlet"],
        ["lvalue", "--n", "1", "--method", "rz_intermediate"],
        ["lvalue", "--n", "4", "--method", "mellin"],
        ["qexp", "--series", "zeta", "--order", "5"],
        ["kdf", "--a", "1", "--ap", "2", "--b", "1", "--bp", "2",
         "--c", "x", "--cp", "1", "--x", "0", "--y", "0", "--route", "series"],
        ["verify", "--suite", "exact", "--order", "0"],
        ["verify", "--suite", "exact", "--order", "-3"],
        ["lvalue", "--n", "3", "--method", "dirichlet", "--N", "10"],
    ]
    for argv in cases:
        code, _, _ = run(argv, capsys)
        assert code == 2, argv


def test_kdf_boundary_rejection_exits_1(capsys):
    code, out, err = run(
        ["kdf", "--a", "1", "--ap", "1", "--b", "1,1/2", "--bp", "1",
         "--c", "1/3,2/3", "--cp", "1", "--x", "1", "--y", "1",
         "--route", "series"],
        capsys,
    )
    assert code == 1
    assert "boundary_ok = False" in out
    assert "rejected" in err


def test_kdf_origin_is_one(capsys):
    code, out, _ = run(
        ["kdf", "--a", "1", "--ap", "2", "--b", "1,4/3", "--bp", "2",
         "--c", "1/3,2/3", "--cp", "1", "--x", "0", "--y", "0",
         "--route", "series"],
        capsys,
    )
    assert code == 0
    assert "value = 1.0" in out
    assert "margins = (2/3, 1, 2/3)" in out


def test_lvalue_mellin_runs(capsys):
    code, out, _ = run(["lvalue", "--n", "1", "--method", "mellin",
                        "--digits", "25"], capsys)
    assert code == 0
    assert "L(f,1) = 0.12153268452675964" in out
    assert "method = functional-equation" in out


def test_lvalue_small_N_is_an_error_only_for_dirichlet(capsys):
    # --N is the Dirichlet truncation point; the other methods do not read it
    code, _, _ = run(["lvalue", "--n", "1", "--method", "mellin", "--digits", "15",
                      "--N", "10"], capsys)
    assert code == 0


def test_lvalue_dirichlet_runs(capsys):
    code, out, _ = run(["lvalue", "--n", "3", "--method", "dirichlet",
                        "--N", "2000"], capsys)
    assert code == 0
    assert "heuristic tail" in out


# -- qexp dumps ---------------------------------------------------------------------


def test_qexp_dump_f_ten_lines(capsys):
    code, out, _ = run(["qexp", "--series", "f", "--order", "10"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0] == "1/1\t1/1"


def test_qexp_dump_f_stops_at_order(capsys):
    # f = q - 3q^2 + ... has no constant term: order 0 dumps nothing
    code, out, _ = run(["qexp", "--series", "f", "--order", "0"], capsys)
    assert (code, out) == (0, "")
    code, out, _ = run(["qexp", "--series", "f", "--order", "1"], capsys)
    assert (code, out) == (0, "1/1\t1/1\n")


def test_qexp_dump_a_order_two(capsys):
    code, out, _ = run(["qexp", "--series", "a", "--order", "2"], capsys)
    assert code == 0
    assert out.splitlines() == ["0/1\t1/1", "1/1\t6/1"]


def test_qexp_dump_e0_has_cube_root_line(capsys):
    code, out, _ = run(["qexp", "--series", "E0", "--order", "3"], capsys)
    assert code == 0
    assert "1/3\t1/1" in out.splitlines()


def test_qexp_dump_eta_spec(capsys):
    code, out, _ = run(["qexp", "--series", "eta:1^6,9^3,3^-3", "--order", "6"],
                       capsys)
    assert code == 0
    assert out.splitlines()[0] == "1/1\t1/1"


def test_qexp_out_file(tmp_path, capsys):
    target = tmp_path / "dump.tsv"
    code, out, _ = run(["qexp", "--series", "b", "--order", "4",
                        "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    data = target.read_bytes()
    assert data == b"0/1\t1/1\n1/1\t-3/1\n3/1\t6/1\n4/1\t-3/1\n"


# -- verify -------------------------------------------------------------------------


def test_verify_exact_small_order(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(["verify", "--suite", "exact", "--order", "40",
                        "--json", str(report)], capsys)
    assert code == 0
    assert "all checks passed" in out
    payload = json.loads(report.read_text())
    assert payload["all_pass"] is True
    assert payload["tool_version"]
    assert payload["digits"] == 40
    names = [c["name"] for c in payload["checks"]]
    assert "cubic_a3_b3_c3" in names and "eta_f" in names
    for check in payload["checks"]:
        assert set(check) == {"name", "lhs", "rhs", "abs_err", "tol", "pass",
                              "methods", "seconds"}
        assert isinstance(check["abs_err"], str)


def test_verify_json_round_trip_and_determinism(tmp_path, capsys):
    # determinism: identical output modulo the seconds fields
    def strip_seconds(payload):
        payload = json.loads(payload.decode("utf-8"))
        payload.pop("total_seconds")
        for row in payload["checks"]:
            row.pop("seconds")
        return payload

    # the numeric suite's abs_err fields are mpf distances
    for argv in (["--suite", "exact", "--order", "25"], ["--suite", "numeric", "--digits", "20"]):
        paths = [tmp_path / "one.json", tmp_path / "two.json"]
        for p in paths:
            code, _, _ = run(["verify", *argv, "--json", str(p)], capsys)
            assert code == 0
        raw = paths[0].read_bytes()
        # round trip: parse and re-render byte-identically
        parsed = json.loads(raw.decode("utf-8"))
        assert cli.render_report_json(parsed).encode("utf-8") == raw
        assert strip_seconds(raw) == strip_seconds(paths[1].read_bytes())


def test_abs_err_printed_to_absolute_precision():
    # abs_err keeps digits + floor(log10 abs_err) + 1 significant digits, so
    # its last digit sits at 10^-digits and rounding noise below that is cut
    with mp.workdps(60):
        err = mpf("9.0594198809412773698568344116e-14")
        assert cli._fmt_err(err, 40) == "9.05941988094127736985683441e-14"
        assert cli._fmt_err(err + mpf("1e-50"), 40) == cli._fmt_err(err, 40)
        assert cli._fmt_err(mpf("4.63e-44"), 40) == "5.0e-44"
    assert cli._fmt_err(0.0, 40) == "0.0"
    # the JSON report uses this rule for abs_err alone
    rep = check("one", ("a", "b"), 1.0, iter([(err, err, err)]))
    [row] = cli.suite_report_dict([rep], 40, 0.0)["checks"]
    assert row["abs_err"] == "9.05941988094127736985683441e-14"
    assert row["lhs"] == row["rhs"] == mp.nstr(err, 40, strip_zeros=True)


@pytest.mark.parametrize("digits", [20, 22, 25])
def test_numeric_suite_passes_at_low_digits(digits):
    # kdf_routes_report asks both routes for tol/100; at the 10^-(digits-15)
    # it used to ask for, the route gap exceeded tol at these digit counts
    reports = cli.numeric_suite_reports(digits)
    assert [r.name for r in reports if not r.passed] == []


# the checks reported through cli._sides: their abs_err is an exact difference
# of two close sides, whose mantissa measures how far the sides agree
TWO_SIDED = ("involution", "cubic_numeric", "quad_de_closed_forms", "kdf_series_vs_integral")


def test_numeric_suite_keeps_working_precision():
    # the builder stores values as computed: hginterep's sides, the nonzero
    # distances of the one-sided checks and the sides of the two-sided ones
    # carry more than the 53 bits of a double (but for quad_de_closed_forms'
    # exact closed form: 1, 3/2 or 3)
    reports = {r.name: r for r in cli.numeric_suite_reports(20)}
    wide = [reports["hginterep"].lhs, reports["hginterep"].rhs]
    wide += [r.abs_err for r in reports.values() if r.abs_err and r.name not in TWO_SIDED]
    wide += [v for name in TWO_SIDED for v in (reports[name].lhs, reports[name].rhs)
             if not (name == "quad_de_closed_forms" and v in (1, 1.5, 3))]
    assert len(wide) == 2 + 10 + 7
    for v in wide:
        assert isinstance(v, mpf) and v._mpf_[3] > 53, v


def test_numeric_checks_report_both_sides():
    # the worst point's two sides, and their distance at digits + 10
    digits = 20
    checks = (cli.involution_report(digits), cli.cubic_numeric_report(digits),
              cli.quad_closed_forms_report(digits), cli.kdf_routes_report(digits))
    assert tuple(rep.name for rep in checks) == TWO_SIDED
    with mp.workdps(digits + 10):
        for rep in checks:
            assert rep.lhs and rep.rhs, rep.name
            assert rep.abs_err == abs(rep.lhs - rep.rhs), rep.name


def test_numeric_checks_read_a_from_its_own_series(monkeypatch):
    # with a's direct sum 1e-18 off, the hauptmodul residual and the cubic
    # identity must see it: neither may build a from b and c
    real = thetanum._theta_direct

    def shifted(kind, q, tol):
        value = real(kind, q, tol)
        return value + mpf("1e-18") if kind == "a" else value

    monkeypatch.setattr(thetanum, "_theta_direct", shifted)
    assert not cli.hauptmodul_report(40).passed
    try:
        assert not cli.cubic_numeric_report(40).passed
    except ArithmeticError as exc:
        assert "cubic identity" in str(exc)


def test_quad_closed_forms_pass_at_100_digits():
    # the integrands take (t, 1 - t), so the nodes near t = 1 keep their
    # weight and the levels converge past 77 digits
    rep = cli.quad_closed_forms_report(100)
    assert rep.passed, rep.abs_err


def test_differential_report_follows_a_tight_tol():
    # the ladder deepens until its Richardson limits settle within tol/8;
    # every step still shows the quadratic decay the report asks for
    assert cli.differential_report(40, 1e-30).passed
    prec = thetanum.Precision(40, 1e-30)
    with mp.workdps(50):
        for q in cli._DIFFERENTIAL_GRID:
            errs, _ = thetanum.differential_residual(q, prec)
            assert len(errs) > 4
            assert all(3 < errs[i] / errs[i + 1] < 5.5 for i in range(len(errs) - 1))


def test_verify_names_the_check_that_raised(monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise ArithmeticError("quadrature did not converge")

    monkeypatch.setattr(hyper, "quad_de", diverge)
    code, out, err = run(["verify", "--suite", "numeric", "--digits", "20"], capsys)
    assert code == 1
    assert "evaluation failed: quad_de_closed_forms: quadrature did not converge" in err


# -- theorem check ------------------------------------------------------------------------


def test_theorem_check_reports_measured_series_gap(monkeypatch):
    # a series route 1e-9 off the integral route misses its error bar: at the
    # default tol the report must fail and carry the measured gap, not a
    # placeholder; at tol 1e-6 the gap confirms the identity and the report
    # passes with the Mellin-vs-integral distance
    monkeypatch.setattr(lvalue, "_KDF_VALUE_CACHE", dict(lvalue._KDF_VALUE_CACHE))
    real = lvalue.rhs_theorem

    def shifted(n, route, prec):
        res = real(n, route, prec)
        if route != "series":
            return res
        return dataclasses.replace(res, value=res.value + mpf("1e-9"))

    monkeypatch.setattr(lvalue, "rhs_theorem", shifted)
    reports = cli.theorem_suite_reports(40)
    assert len(reports) == 3
    for rep in reports:
        assert not rep.passed
        assert mpf("0.99e-9") <= rep.abs_err <= mpf("1.01e-9")
    reports = cli.theorem_suite_reports(40, 1e-6)
    assert len(reports) == 3
    for rep in reports:
        assert rep.passed
        assert rep.abs_err < mpf("1e-12")


def test_verify_exits_1_when_the_series_search_fails(monkeypatch, capsys):
    # with the boundary fit on too few partial sums to reach tol, the theorem
    # suite cannot finish: verify says why on stderr and exits 1, with no table
    monkeypatch.setattr(lvalue, "_KDF_VALUE_CACHE", {})
    monkeypatch.setattr(hyper, "_FIT_D", 24)
    code, out, err = run(["verify", "--suite", "theorem", "--digits", "40"], capsys)
    assert code == 1
    assert "evaluation failed" in err and "D = 24" in err
    assert "lvalue_1_hypergeometric" not in out


def test_kdf_exits_1_when_the_series_search_fails(monkeypatch, capsys):
    monkeypatch.setattr(hyper, "_FIT_D", 24)
    code, out, err = run(
        ["kdf", "--a", "1", "--ap", "2", "--b", "1,4/3", "--bp", "2",
         "--c", "1/3,2/3", "--cp", "1", "--x", "1", "--y", "1",
         "--route", "series"],
        capsys,
    )
    assert code == 1
    assert "boundary_ok = True" in out and "value =" not in out
    assert "evaluation failed" in err
