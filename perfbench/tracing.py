"""In-memory spans around the library's public functions, and the per-layer
metrics derived from them.

``install`` wraps each function in TARGETS and rebinds every name under which
a cubictheta module holds that function object, so aliases such as
``lvalue.quad_de`` (the same object as ``hyper.quad_de``) and
``kernels.py_conv_trunc`` are caught as well.  A span records name, start,
end and parent; a layer's self time is its span's duration minus the part of
that interval covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np


class Tracer:
    """Spans kept in memory as [name, start, end, parent index], plus counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.max_coeff_bits = 0
        self._stack: list = []

    def call(self, name: str, fn, args, kwargs):
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()


def self_times(spans) -> dict:
    """Summed self time per span name."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out: dict = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[name] += (end - start) - covered
    return dict(out)


# -- what each wrapper records ---------------------------------------------


def _kdf_series_label(args, kwargs):
    x, y = args[1], args[2]
    return "hyper.kdf_series." + ("boundary" if abs(x) == 1 or abs(y) == 1 else "interior")


def _rhs_theorem_label(args, kwargs):
    return "lvalue.rhs_theorem." + (args[1] if len(args) > 1 else kwargs["route"])


def _count_terms(key):
    def record(tracer, name, args, kwargs, result):
        tracer.counts[f"{name}.{key}"] += result.terms_used
    return record


def _nonzero(seq) -> np.ndarray:
    return np.fromiter((c != 0 for c in seq), dtype=bool, count=len(seq))


def _coeff_bits(coeffs) -> int:
    bits = 0
    for c in coeffs:
        if type(c) is Fraction:
            bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
        else:
            bits = max(bits, abs(c).bit_length())
    return bits


def conv_trunc_mul_adds(a, b, order) -> int:
    """Products the Cauchy product takes: nonzero a_i times nonzero b_j, i + j <= order."""
    n = order + 1
    na, nb = min(len(a), n), min(len(b), n)
    prefix = np.concatenate(([0], np.cumsum(_nonzero(b[:nb]))))
    rows = np.flatnonzero(_nonzero(a[:na]))
    return int(prefix[np.minimum(n - rows, nb)].sum())


def div_unit_mul_adds(den, order) -> int:
    """Products the unit-series division takes: each nonzero den_k, k >= 1,
    meets the order + 1 - k outputs from index k on."""
    n = order + 1
    ks = np.flatnonzero(_nonzero(den[1:min(len(den), n)])) + 1
    return int((n - ks).sum())


def _record_conv(tracer, name, args, kwargs, result):
    tracer.counts[name + ".mul_adds"] += conv_trunc_mul_adds(args[0], args[1], args[2])
    tracer.max_coeff_bits = max(tracer.max_coeff_bits, _coeff_bits(result))


def _record_div(tracer, name, args, kwargs, result):
    tracer.counts[name + ".mul_adds"] += div_unit_mul_adds(args[1], args[2])
    tracer.max_coeff_bits = max(tracer.max_coeff_bits, _coeff_bits(result))


# (module, function, span name or labeller, recorder)
TARGETS = (
    ("qexp", "theta_series", "qexp.theta_series", None),
    ("qexp", "lambert_series", "qexp.lambert_series", None),
    ("qexp", "eta_quotient", "qexp.eta_quotient", None),
    ("qexp", "f_coefficients", "qexp.f_coefficients", None),
    ("kernels", "conv_trunc", "kernels.conv_trunc", _record_conv),
    ("kernels", "div_unit", "kernels.div_unit", _record_div),
    ("thetanum", "f_integrand", "thetanum.f_integrand", None),
    ("thetanum", "eval_theta", "thetanum.eval_theta", None),
    ("thetanum", "alpha_pair", "thetanum.alpha_pair", None),
    ("thetanum", "theta_point", "thetanum.theta_point", None),
    ("thetanum", "residual_hauptmodul", "thetanum.residual_hauptmodul", None),
    ("thetanum", "differential_residual", "thetanum.differential_residual", None),
    ("hyper", "kdf_series", _kdf_series_label, _count_terms("terms")),
    ("hyper", "kdf_integral", "hyper.kdf_integral", None),
    ("hyper", "quad_de", "hyper.quad_de", _count_terms("nodes")),
    ("hyper", "pfq", "hyper.pfq", None),
    ("hyper", "gauss_2f1_unit_interval", "hyper.gauss_2f1_unit_interval", None),
    ("_accel", "dm_extrapolate", "accel.dm_extrapolate", None),
    ("_accel", "richardson", "accel.richardson", None),
    ("lvalue", "l_mellin", "lvalue.l_mellin", None),
    ("lvalue", "rhs_theorem", _rhs_theorem_label, None),
    ("lvalue", "l_dirichlet", "lvalue.l_dirichlet", None),
    ("lvalue", "check_identity", "lvalue.check_identity", None),
    ("cli", "theorem_suite_reports", "cli.suite", None),
    ("cli", "numeric_suite_reports", "cli.suite", None),
    ("cli", "exact_suite_reports", "cli.suite", None),
)


def _wrap(tracer: Tracer, fn, label, record):
    def traced(*args, **kwargs):
        name = label if isinstance(label, str) else label(args, kwargs)
        result = tracer.call(name, fn, args, kwargs)
        if record is not None:
            record(tracer, name, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer):
    """Patch every binding of every target; returns a function that undoes it."""
    import cubictheta.cli  # noqa: F401  (so its bindings are patched too)

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "cubictheta" or name.startswith("cubictheta."))]
    undo = []
    for mod_name, attr, label, record in TARGETS:
        original = getattr(sys.modules["cubictheta." + mod_name], attr)
        wrapper = _wrap(tracer, original, label, record)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    undo.append((mod, name, original))

    def uninstall():
        for mod, name, original in reversed(undo):
            setattr(mod, name, original)

    return uninstall


# -- per-layer metrics -------------------------------------------------------

_SELF = (
    "qexp.theta_series", "qexp.lambert_series", "qexp.eta_quotient", "qexp.f_coefficients",
    "kernels.conv_trunc", "kernels.div_unit",
    "thetanum.f_integrand", "thetanum.eval_theta",
    "hyper.kdf_series.boundary", "hyper.kdf_series.interior", "hyper.kdf_integral",
    "hyper.quad_de", "hyper.pfq", "hyper.gauss_2f1_unit_interval",
    "accel.dm_extrapolate",
    "lvalue.l_mellin", "lvalue.rhs_theorem.series", "lvalue.rhs_theorem.integral",
    "lvalue.l_dirichlet", "lvalue.check_identity",
    "cli.suite",
)
_CALLS = (
    "kernels.conv_trunc", "kernels.div_unit", "thetanum.f_integrand", "thetanum.eval_theta",
    "hyper.kdf_series.boundary", "hyper.kdf_integral", "hyper.quad_de", "hyper.pfq",
    "hyper.gauss_2f1_unit_interval", "accel.dm_extrapolate", "accel.richardson",
)
_QEXP = ("qexp.theta_series", "qexp.lambert_series", "qexp.eta_quotient", "qexp.f_coefficients")
_THETA_OTHER = ("thetanum.alpha_pair", "thetanum.theta_point",
                "thetanum.residual_hauptmodul", "thetanum.differential_residual")
_COUNTS = ("kernels.conv_trunc.mul_adds", "kernels.div_unit.mul_adds",
           "hyper.kdf_series.boundary.terms", "hyper.kdf_series.interior.terms",
           "hyper.quad_de.nodes")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [(n + ".s", "s") for n in _SELF]
    + [(n + ".calls", "count") for n in _CALLS]
    + [(n, "count") for n in _COUNTS]
    + [("qexp.calls", "count"), ("thetanum.other.s", "s"),
       ("kernels.max_coeff_bits", "bits"), ("accel.fallback_ratio", "ratio"),
       ("traced_wall_s", "s"), ("unattributed_s", "s"), ("trace_overhead_s", "s")]
)


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict:
    """Every PER_LAYER value except trace_overhead_s, which needs an untraced run."""
    selfs = self_times(tracer.spans)
    calls = Counter(s[0] for s in tracer.spans)
    out = {n + ".s": selfs.get(n, 0.0) for n in _SELF}
    out.update({n + ".calls": calls[n] for n in _CALLS})
    out.update({n: tracer.counts[n] for n in _COUNTS})
    out["qexp.calls"] = sum(calls[n] for n in _QEXP)
    out["thetanum.other.s"] = sum(selfs.get(n, 0.0) for n in _THETA_OTHER)
    out["kernels.max_coeff_bits"] = tracer.max_coeff_bits
    dm = calls["accel.dm_extrapolate"]
    out["accel.fallback_ratio"] = calls["accel.richardson"] / dm if dm else 0.0
    out["traced_wall_s"] = traced_wall
    out["unattributed_s"] = traced_wall - sum(selfs.values())
    return out
