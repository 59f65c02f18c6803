"""Shared report record for identity checks, and the one builder that makes it."""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class IdentityReport:
    """One verified identity: both sides, their distance, and the verdict."""

    name: str
    lhs: object
    rhs: object
    abs_err: object
    tol: float
    passed: bool
    methods: tuple
    seconds: float

    def __post_init__(self):
        if self.passed != (self.abs_err <= self.tol):
            raise ValueError("pass flag must equal abs_err <= tol")


def check(name: str, methods: tuple, tol, points) -> IdentityReport:
    """Evaluate a check and report its worst point.

    ``points`` is an iterable of (lhs, rhs, err), consumed lazily here so that
    ``seconds`` covers the whole evaluation (pass a generator).  The first
    point with the largest err is reported, as given: no value is rounded
    again.  The check passes when err <= tol.  An ArithmeticError raised by
    the evaluation is raised again with ``name`` in front of its message.
    """
    t0 = time.perf_counter()
    try:
        lhs, rhs, err = max(points, key=lambda point: point[2])
    except ArithmeticError as exc:
        raise ArithmeticError(f"{name}: {exc}") from exc
    return IdentityReport(name, lhs, rhs, err, tol, bool(err <= tol), methods,
                          time.perf_counter() - t0)
