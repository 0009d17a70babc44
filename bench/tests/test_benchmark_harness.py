"""Tests for the benchmark's own code.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402
from workloads import WORKLOADS, psi, trilinear  # noqa: E402


# ---- self time ------------------------------------------------------------

def nested_spans():
    return [
        Span("cli.main", -1, 0.0, 10.0, op=0),
        Span("solver.solve", 0, 1.0, 4.0, op=0),
        Span("grid.to_csv", 0, 5.0, 9.0, op=0),
        Span("fields.value_batch", 2, 6.0, 8.0, op=0),
    ]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(nested_spans()) == [3.0, 3.0, 2.0, 2.0]


def test_self_times_sum_to_root_duration():
    s = nested_spans()
    assert sum(spans.self_times(s)) == pytest.approx(s[0].duration)


def test_outermost_skips_same_name_ancestors():
    s = [
        Span("fields.value_batch", -1, 0.0, 5.0),
        Span("operators.apply_batch", 0, 1.0, 4.0),
        Span("fields.value_batch", 1, 2.0, 3.0),
        Span("fields.value_batch", -1, 6.0, 7.0),
    ]
    assert spans.outermost(s) == [True, True, False, True]


def test_layer_metrics_per_op_and_setup_split():
    s = [
        Span("grid.to_csv", -1, 0.0, 0.5, op=-1, counts={"bytes": 10}),
        Span("fields.value_batch", -1, 1.0, 3.0, op=1, counts={"points": 100}),
        Span("fields.value_batch", 1, 1.5, 2.5, op=1, counts={"points": 100}),
        Span("fields.value_batch", -1, 4.0, 5.0, op=3, counts={"points": 100}),
        Span("fields.value_batch", -1, 6.0, 9.0, op=2, counts={"points": 999}),
    ]
    m = spans.layer_metrics(s, ops=[1, 3], absent={"x"}, overhead_s=0.25)
    assert m["fields.value_batch_calls"] == 1.0  # 2 outermost calls over 2 ops
    assert m["fields.value_batch_points"] == 100.0
    assert m["fields.value_batch_s"] == 1.5  # (2 + 1) / 2, op 2 not traced
    assert m["fields.self_s"] == 1.5  # nested self times add back up
    assert m["grid.to_csv_setup_s"] == 0.5
    assert m["grid.to_csv_s"] == 0.0
    assert m["trace.overhead_s"] == 0.25
    assert m["trace.absent"] == 1.0
    assert set(m) == {name for name, _, _ in spans.PER_LAYER}


def test_ns_ratios_are_zero_without_work():
    m = spans.layer_metrics([], ops=[1])
    assert m["solver.apply_ns_per_node"] == 0.0
    assert m["solver.solve_s_per_cycle"] == 0.0


# ---- tracer on the real package ---------------------------------------------

def test_tracer_wraps_and_restores_checks():
    from heisenpde import checks

    before = list(checks.ALL_CHECKS)
    tracer = spans.Tracer()
    tracer.install()
    tracer.op = 1
    checks.run_checks(name_filter="group.p_kernel", seed=0)
    tracer.uninstall()
    assert checks.ALL_CHECKS == before
    assert [s.name for s in tracer.spans] == ["checks.group"]
    assert tracer.spans[0].counts == {"trials": 10_000}
    assert tracer.absent == set()


def test_tracer_rebinds_function_in_every_module_and_restores():
    from heisenpde import cli, solver

    original = solver.solve
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.solve is solver.solve is not original
    finally:
        tracer.uninstall()
    assert cli.solve is solver.solve is original


def test_tracer_wraps_every_field_class_with_its_own_value_batch():
    from heisenpde.fields import NumericField, parse_polynomial

    poly = parse_polynomial("x1 + x3^2")
    numeric = NumericField(lambda pts: poly.value_batch(pts) + 1.0)
    pts = np.zeros((5, 3))
    tracer = spans.Tracer()
    tracer.install()
    tracer.op = 1
    try:
        numeric.value_batch(pts)
    finally:
        tracer.uninstall()
    assert [(s.name, s.parent, s.counts) for s in tracer.spans] == [
        ("fields.value_batch", -1, {"points": 5}),
        ("fields.value_batch", 0, {"points": 5}),
    ]
    assert spans.layer_metrics(tracer.spans, [1])["fields.value_batch_points"] == 5


def test_missing_target_is_recorded_absent(monkeypatch):
    targets = spans.TARGETS + [
        ("solver.gone", "heisenpde.solver", "no_such_function", None),
        ("solver.gone", "heisenpde.solver", "Discretization.no_such_method", None),
        ("gone.main", "heisenpde.no_such_module", "main", None),
    ]
    monkeypatch.setattr(spans, "TARGETS", targets)
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == {
        "heisenpde.solver.no_such_function",
        "heisenpde.solver.Discretization.no_such_method",
        "heisenpde.no_such_module",
    }


# ---- statistics ----------------------------------------------------------------

def test_median_odd_even():
    assert harness.median([3.0, 1.0, 2.0]) == 2.0
    assert harness.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        harness.median([])


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, None), (40, 75.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 90) == 90
    assert harness.percentile(values, 99.9) == 100
    assert harness.percentile([5.0], 50) == 5.0


# ---- failure counting ------------------------------------------------------------

def test_run_ops_counts_raises_and_failed_checks():
    def op(k):
        if k == 1:
            raise ArithmeticError("diverged")
        return k

    def check(k, result):
        if k == 2:
            raise harness.CheckFailed("bad output")

    times, tally = harness.run_ops(op, check, seconds=0, min_ops=4)
    assert len(times) == 4
    assert (tally.attempted, tally.failed) == (4, 2)
    assert "op 1 raised ArithmeticError: diverged" in tally.failures
    assert "op 2 failed its check: bad output" in tally.failures


def test_run_ops_runs_until_seconds_and_min_ops():
    ticks = iter(range(1000))
    times, tally = harness.run_ops(
        lambda k: k, lambda k, r: None, seconds=10, min_ops=1, clock=lambda: next(ticks)
    )
    # each op costs 3 clock ticks (loop test, start, stop)
    assert tally.attempted == len(times) == 4
    assert tally.failed == 0
    times, tally = harness.run_ops(lambda k: k, lambda k, r: None, seconds=0, min_ops=3)
    assert tally.attempted == 3


# ---- reference speed ---------------------------------------------------------------

def test_at_reference_speed_uses_kernels_on_both_sides():
    r = calibrate.REFERENCE_S
    out = calibrate.at_reference_speed([2.0, 4.0], [r, r, 2 * r])
    assert out == pytest.approx([2.0, 4.0 / 1.5])
    with pytest.raises(ValueError):
        calibrate.at_reference_speed([2.0, 4.0], [r, r])
    assert calibrate.rescale(3.0, 2 * r) == pytest.approx(1.5)


def test_kernel_seconds_is_a_positive_median():
    ticks = iter([0.0, 1.0, 1.0, 4.0, 4.0, 6.0])
    assert calibrate.kernel_seconds(repeats=3, clock=lambda: next(ticks)) == 2.0


# ---- analyze: theta re-evaluation ------------------------------------------------

def test_trilinear_matches_the_package_and_clamps():
    from heisenpde.grid import Grid3, GridFunction

    grid = Grid3.box([-1, -1, -1], [1, 1, 1], [5, 7, 6])
    rng = np.random.default_rng(0)
    u = GridFunction(grid, rng.normal(size=grid.counts))
    pts = rng.uniform(-1.3, 1.3, size=(500, 3))
    np.testing.assert_allclose(
        trilinear(u.values, grid.lower, grid.spacings, pts), u.value_batch(pts), rtol=0, atol=1e-13
    )


def test_trilinear_exact_on_multilinear_function():
    axes = [np.linspace(0.0, 1.0, 4)] * 3
    x, y, z = np.meshgrid(*axes, indexing="ij")
    values = 1.0 + 2.0 * x - y + 0.5 * x * y * z
    p = np.array([[0.3, 0.7, 0.1], [0.99, 0.0, 0.5]])
    want = 1.0 + 2.0 * p[:, 0] - p[:, 1] + 0.5 * p.prod(axis=1)
    np.testing.assert_allclose(trilinear(values, (0, 0, 0), (1 / 3,) * 3, p), want, atol=1e-14)


def test_psi_reproduces_certificate_theta():
    from heisenpde.doubling import PenaltyParams, doubling_certificate
    from heisenpde.grid import Grid3, GridFunction

    grid = Grid3.box([-1, -1, -1], [1, 1, 1], [9, 9, 9])
    pts = grid.points()
    u = GridFunction(grid, np.sum(np.abs(pts - 0.25) ** 0.6, axis=1))
    pp = PenaltyParams(L=0.5, alpha=0.45, delta=1e-6, eps=1e-6)
    cert = doubling_certificate(u, pp, grid.margin_box(0.1), per_axis=5)
    x, y = (p.as_array() for p in cert.argmax)
    theta = psi(u.values, grid.lower, grid.spacings, x, y, pp.L, pp.alpha, pp.delta, pp.eps)
    assert theta == pytest.approx(cert.theta, rel=1e-12, abs=1e-12)
    assert cert.gap > 0  # an off-diagonal argmax, so the check is not vacuous
    assert psi(u.values, grid.lower, grid.spacings, x, y, pp.L + 1, pp.alpha, pp.delta,
               pp.eps) < theta


# ---- the benchmark's declared names -------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert spec["paths"] == ["bench"]
