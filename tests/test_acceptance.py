"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one pass/fail line on the real stdout (visible through
pytest's capture) and asserts the criterion itself.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
from conftest import max_interior_abs_diff

import heisenpde.checks as checks
from heisenpde.cli import main as cli_main
from heisenpde.fields import PolynomialField, parse_polynomial
from heisenpde.grid import Grid3, GridFunction
from heisenpde.operators import OperatorSpec
from heisenpde.pipeline import run_pipeline
from heisenpde.solver import ProblemSpec, manufacture, solve

SEED = 0
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def announce(capsys, num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[ACCEPTANCE {num}] {status}: {detail}", flush=True)


def test_criterion_1_algebra_suite(capsys):
    t0 = time.monotonic()
    sq = checks.check_sqrtp_squares(seed=SEED, trials=10_000)
    kern = checks.check_p_kernel(seed=SEED, trials=10_000)
    comm = checks.check_commutator(seed=SEED, trials=100)
    elapsed = time.monotonic() - t0
    ok = sq["pass"] and kern["pass"] and comm["pass"] and elapsed < 5.0
    announce(
        capsys,
        1,
        ok,
        f"sqrtP^2=P worst {sq['worst_gap']:.2e} (tol 1e-10); P kernel exact "
        f"({kern['worst_gap']:.1e}); commutator exact on 100 polynomials; "
        f"{elapsed:.2f}s < 5s",
    )
    assert sq["pass"] and sq["worst_gap"] <= 1e-10
    assert kern["pass"] and kern["worst_gap"] == 0.0
    assert comm["pass"]
    assert elapsed < 5.0


def test_criterion_2_quadratic_form_identity(capsys):
    t0 = time.monotonic()
    rep = checks.check_quadratic_form(seed=SEED, trials=1000)
    elapsed = time.monotonic() - t0
    ok = rep["pass"] and elapsed < 5.0
    announce(capsys, 2, ok, f"worst relative gap {rep['worst_gap']:.2e} (tol 1e-12); {elapsed:.2f}s < 5s")
    assert rep["pass"] and rep["worst_gap"] <= 1e-12
    assert elapsed < 5.0


def test_criterion_3_penalty_hessian_suite(capsys):
    t0 = time.monotonic()
    fd = checks.check_penalty_fd(seed=SEED, trials=10_000)
    sq = checks.check_penalty_square(seed=SEED, trials=10_000)
    fac = checks.check_block_square_factor(seed=SEED, trials=10_000)
    nb = checks.check_n_bound(seed=SEED, trials=10_000)
    elapsed = time.monotonic() - t0
    ok = all(r["pass"] for r in (fd, sq, fac, nb)) and elapsed < 10.0
    announce(
        capsys,
        3,
        ok,
        f"M vs FD {fd['worst_gap']:.2e} (1e-6); M^2 identity {sq['worst_gap']:.2e} (1e-10); "
        f"block factor-2 {fac['worst_gap']:.2e} (1e-10); |N| bound margin "
        f"{nb['worst_gap']:.2e}; {elapsed:.2f}s < 10s",
    )
    assert fd["pass"] and fd["worst_gap"] <= 1e-6
    assert sq["pass"] and sq["worst_gap"] <= 1e-10
    assert fac["pass"] and fac["worst_gap"] <= 1e-10
    assert nb["pass"]
    assert elapsed < 10.0


def test_criterion_4_matrix_inequality_suite(capsys):
    t0 = time.monotonic()
    blk = checks.check_admissible_block(seed=SEED, trials=10_000)
    sc = checks.check_block_scalar(seed=SEED, trials=10_000)
    tg = checks.check_trace_gap(seed=SEED, trials=10_000)
    lg = checks.check_lifted_trace_gap(seed=SEED, trials=10_000)
    ps = checks.check_psd_sandwich(seed=SEED, trials=10_000)
    lip = checks.check_sqrtp_lipschitz(seed=SEED, trials=100_000)
    elapsed = time.monotonic() - t0
    reports = (blk, sc, tg, lg, ps, lip)
    ok = all(r["pass"] for r in reports) and elapsed < 30.0
    announce(
        capsys,
        4,
        ok,
        f"10^4 admissible instances per corollary, zero violations beyond 1e-9*scale "
        f"(worst: block {blk['worst_gap']:.1e}, scalar {sc['worst_gap']:.1e}, "
        f"trace {tg['worst_gap']:.1e}, lifted {lg['worst_gap']:.1e}, sandwich "
        f"{ps['worst_gap']:.1e}); sqrtP ratio bounded, empirical C2 = {lip['c2']:.4f}; "
        f"{elapsed:.2f}s < 30s",
    )
    for r in (blk, sc, tg, lg, ps):
        assert r["pass"] and r["worst_gap"] <= 1e-9, r
    assert lip["pass"] and np.isfinite(lip["c2"])
    assert elapsed < 30.0


def test_criterion_5_pucci_correctness(capsys):
    t0 = time.monotonic()
    bf = checks.check_pucci_bruteforce(seed=SEED, trials=100, samples=100_000)
    dual = checks.check_pucci_duality(seed=SEED, trials=2000)
    elapsed = time.monotonic() - t0
    ok = bf["pass"] and dual["pass"] and elapsed < 20.0
    announce(
        capsys,
        5,
        ok,
        f"eigenvalue formula vs brute force over 10^5 admissible samples: worst "
        f"{bf['worst_gap']:.2e} (tol 1e-6) on 100 matrices; duality exact "
        f"({dual['worst_gap']:.1e}); {elapsed:.2f}s < 20s",
    )
    assert bf["pass"] and bf["worst_gap"] <= 1e-6
    assert dual["pass"] and dual["worst_gap"] == 0.0
    assert elapsed < 20.0


def test_criterion_6_solver_convergence(capsys):
    t0 = time.monotonic()
    op = OperatorSpec.sublaplacian()
    c = PolynomialField.constant(1)
    # degree-3 solution with genuine x3 curvature; fixed sample width makes
    # the interpolation bias the only error term (clean second-order decay)
    u_star = parse_polynomial("0.5 x1^2 x3 + 0.5 x2^2 x1 - 0.5 x3^2 + 0.25 x1 x2 x3")
    f = manufacture(u_star, op, c)
    width = np.sqrt(2.0) / 8.0
    errs = []
    for n in (17, 33, 65):
        grid = Grid3.box((-1, -1, -1), (1, 1, 1), (n, n, n))
        prob = ProblemSpec(
            op, c, f, boundary=u_star, grid=grid, tol=1e-8, sample_width=width
        )
        res = solve(prob)
        assert res.converged, (n, res.residual)
        exact = GridFunction.from_field(grid, u_star)
        errs.append(max_interior_abs_diff(res.u, exact))
    elapsed = time.monotonic() - t0
    orders = [float(np.log2(errs[k] / errs[k + 1])) for k in range(2)]
    monotone = errs[0] > errs[1] > errs[2]
    ok = monotone and min(orders) >= 1.0 and errs[1] <= 5e-2 and elapsed < 180.0
    announce(
        capsys,
        6,
        ok,
        f"errors {errs[0]:.2e} -> {errs[1]:.2e} -> {errs[2]:.2e}, observed orders "
        f"{orders[0]:.2f}, {orders[1]:.2f} (>= 1.0); 33^3 error <= 5e-2; "
        f"{elapsed:.1f}s < 180s",
    )
    assert monotone
    assert min(orders) >= 1.0
    assert errs[1] <= 5e-2
    assert elapsed < 180.0


def test_criterion_7_regularity_pipeline(capsys):
    t0 = time.monotonic()
    cfg = json.loads((CONFIGS / "pipeline.json").read_text())
    assert cfg["seed"] == SEED
    artifacts = run_pipeline(cfg)
    assert artifacts["solution.diag.json"]["converged"]
    assert artifacts["solution_refined.diag.json"]["converged"]
    report = artifacts["holder_report.json"]
    cert = artifacts["certificate.json"]
    assert report["alpha_target"] == 0.45  # min(1, 1, 0.9 * 0.5)
    elapsed = time.monotonic() - t0
    ok = (
        report["seminorm_rel_change"] < 0.2
        and report["alpha_fit"] >= 0.36
        and cert["theta"] <= 0.0
        and elapsed < 300.0
    )
    announce(
        capsys,
        7,
        ok,
        f"seminorm at alpha=0.45: {report['seminorm_at_target']:.4f} -> "
        f"{report['seminorm_refined']:.4f} "
        f"(change {100*report['seminorm_rel_change']:.1f}% < 20%); "
        f"alpha_fit {report['alpha_fit']:.3f} >= 0.36; doubling theta = {cert['theta']:.2e} <= 0; "
        f"{elapsed:.1f}s < 300s",
    )
    assert report["seminorm_rel_change"] < 0.2
    assert report["alpha_fit"] >= 0.36
    assert cert["theta"] <= 0.0
    assert report["pass"]
    assert elapsed < 300.0


def test_criterion_8_pipeline_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    cfg = {
        "problem": {
            "operator": {"kind": "sublaplacian", "lambda": 1.0, "Lambda": 1.0},
            "c": {"poly": "1"},
            "f": {"builtin": "smooth_abs", "eps": 0.1, "scale": 1.0, "offset": -1.0},
            "boundary": {"poly": "0"},
            "grid": {"lower": [-1, -1, -1], "upper": [1, 1, 1], "counts": [33, 33, 33]},
            "tol": 1e-6,
        },
        "holder": {"c0": 1.0, "beta": 1.0, "beta_prime": 1.0, "L_c": 0.0, "L_f": 1.0},
        "bracket": {"lambda": 1.0, "Lambda": 1.0},
        "seed": 42,
    }
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["pipeline", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["pipeline", "--config", str(cfg_path), "--out", str(out2)]) == 0
    names = [
        "pipeline_report.json",
        "holder_report.json",
        "certificate.json",
        "solution.csv",
        "solution_refined.csv",
        "solution.diag.json",
        "solution_refined.diag.json",
    ]
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)
    elapsed = time.monotonic() - t0
    announce(capsys, 8, identical, f"two pipeline runs byte-identical across {len(names)} artifacts; {elapsed:.1f}s")
    assert identical
