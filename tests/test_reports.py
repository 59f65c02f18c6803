"""The report builder: worst point, verdict and timing of one check."""

import time

from mpmath import mp, mpf

from cubictheta.reports import check


def test_check_keeps_the_first_worst_point_as_given():
    with mp.workdps(50):
        third = mpf(1) / 3
    points = [(1, 2, mpf(0)), (third, 3, third), (4, 5, third), (6, 7, mpf("0.25"))]
    rep = check("sweep", ("left", "right"), 0.5, iter(points))
    assert rep.name == "sweep" and rep.methods == ("left", "right") and rep.tol == 0.5
    assert (rep.lhs, rep.rhs) == (third, 3)
    # not rounded again: the 50-digit value itself
    assert rep.abs_err is third
    assert rep.passed


def test_check_verdict_is_err_within_tol():
    assert check("edge", ("a", "b"), 0.0, iter([(0.0, 0.0, 0.0)])).passed
    assert not check("over", ("a", "b"), 1e-12, iter([(0.0, 0.0, mpf("2e-12"))])).passed


def test_check_times_the_lazy_evaluation():
    def points():
        time.sleep(0.05)
        yield 0.0, 0.0, 0.0

    assert check("slow", ("a", "b"), 0.0, points()).seconds >= 0.05
