"""Self-tests of the benchmark: span arithmetic, binding patches, checks.

    python3 -m pytest -q perfbench/tests
"""

import json
import pathlib

import pytest
from mpmath import mpf

import tracing
import workloads
from cubictheta import hyper, kernels, lvalue, qexp
from cubictheta.thetanum import Precision


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; the second has a child [6, 8]
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["a", 6.0, 8.0, 2],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({"root": 3.0, "a": 5.0, "b": 2.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_clips_children_to_the_parent():
    spans = [["p", 0.0, 4.0, -1], ["c", 1.0, 3.0, 0], ["c", 2.0, 6.0, 0]]
    assert tracing.self_times(spans)["p"] == pytest.approx(1.0)


def test_patched_bindings_catch_aliased_calls():
    originals = (hyper.quad_de, lvalue.quad_de, kernels.conv_trunc, kernels.py_conv_trunc)
    assert lvalue.quad_de is hyper.quad_de
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        lvalue.quad_de(lambda t: t, 1e-10, Precision(25, 1e-10))
        qexp.theta_series("a", 12) * qexp.theta_series("b", 12)
    finally:
        uninstall()
    names = [s[0] for s in tracer.spans]
    assert names.count("hyper.quad_de") == 1
    assert names.count("kernels.conv_trunc") == 1
    assert tracer.counts["hyper.quad_de.nodes"] > 0
    a, b = qexp.theta_series("a", 12).coeffs, qexp.theta_series("b", 12).coeffs
    expected = sum(1 for i in range(13) for j in range(13 - i) if a[i] and b[j])
    assert tracer.counts["kernels.conv_trunc.mul_adds"] == expected
    assert (hyper.quad_de, lvalue.quad_de, kernels.conv_trunc,
            kernels.py_conv_trunc) == originals


def test_mul_add_counts_match_the_loops():
    a, b = [1, 0, 2, 3, 0], [0, 5, 0, 7]
    loop = sum(1 for i in range(4) for j in range(min(4 - i, 4)) if a[i] and b[j])
    assert tracing.conv_trunc_mul_adds(a, b, 3) == loop
    den = [1, 0, -1, 0, 2]
    assert tracing.div_unit_mul_adds(den, 6) == sum(1 for m in range(7)
                                                    for k in (2, 4) if k <= m)


def test_wrong_reference_counts_as_failed_check():
    ref = workloads.load_reference()
    good = mpf(ref["lvalues"]["1"])
    assert workloads.check_value("L1", good, ref["lvalues"]["1"], mpf("1e-12")).ok
    wrong = dict(ref, lvalues=dict(ref["lvalues"], **{"1": "0.1215326"}))
    report = lvalue.IdentityReport("l1_alpha_integral", good, good, mpf(0), 1e-12, True,
                                   ("mellin", "alpha-integral"), 0.0)
    other = lvalue.IdentityReport("l2_intermediate", mpf(ref["lvalues"]["2"]),
                                  mpf(ref["lvalues"]["2"]), mpf(0), 1e-12, True,
                                  ("mellin", "theta-integral"), 0.0)
    checks = workloads.check_numeric({"reports": [report, other]}, wrong, 0)
    failed = sorted(c.name for c in checks if not c.ok)
    assert failed == ["l1_alpha_integral.lhs", "l1_alpha_integral.rhs"]


def test_seeded_blocks_are_theorem_shaped_and_new():
    catalogue = set(lvalue.THEOREM_KDF_BLOCKS.values())
    pool = workloads.load_reference()["blocks"]
    assert len(pool) == workloads.POOL_SIZE
    for seed in range(workloads.POOL_SIZE):
        block = workloads.draw_block(seed)
        assert block == workloads.draw_block(seed + workloads.POOL_SIZE)
        assert block not in catalogue
        assert pool[seed]["params"] == workloads.block_key(block)
        m = hyper.kdf_margins(block)
        assert min(m.m1, m.m2, m.m3) >= workloads._MIN_MARGIN


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((pathlib.Path(tracing.__file__).parent.parent
                       / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
