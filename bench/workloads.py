"""The four workloads: set-up, one operation, and the check of its output.

Each workload object is built in a fresh process (its construction and
warm_up() are the set-up), then op(k) runs once per measured operation and
check(k, result) judges the output outside the timed region, raising
CheckFailed.  After the first passing check, `max_err` holds the workload's
error against a reference known to the benchmark:

- pipeline: max |u_33 - u_65| over the 33^3 nodes (the refinement error of
  the two solves, which do not depend on the seed);
- pucci_saddle: max |u - u*| over the grid, u* = x1^2 - x2^2 exact;
- analyze: max |u_33(x) - u_planted(x)| over the 65^3 nodes, with u_33 read
  back from its CSV by the package; the closed form is 3 h^b (2^-b - 1/2);
- verify: the largest worst_gap in the suite's report.

The package is called through module attributes (cli.main, solver.solve,
...) at call time, so the tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
from pathlib import Path

import numpy as np

from harness import CheckFailed

BENCH_DIR = Path(__file__).resolve().parent


def trilinear(values: np.ndarray, lower, spacings, pts: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of node values at pts, clamped to the box.

    Written here independently of the package so that the benchmark can
    re-evaluate what the package reports."""
    values = np.asarray(values, dtype=float)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    top = np.array(values.shape) - 1
    t = np.clip((pts - np.asarray(lower)) / np.asarray(spacings), 0.0, top)
    i = np.minimum(np.floor(t).astype(np.int64), top - 1)
    f = t - i
    out = np.zeros(pts.shape[0])
    for d in itertools.product((0, 1), repeat=3):
        w = np.ones(pts.shape[0])
        for ax in range(3):
            w *= f[:, ax] if d[ax] else 1.0 - f[:, ax]
        out += w * values[i[:, 0] + d[0], i[:, 1] + d[1], i[:, 2] + d[2]]
    return out


def psi(values, lower, spacings, x, y, L, alpha, delta, eps) -> float:
    """psi(x, y) = u(x) - u(y) - L|x-y|^alpha - delta|x|^2 - eps, the
    certificate's objective, with u the trilinear interpolant of values."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ux, uy = trilinear(values, lower, spacings, np.stack([x, y]))
    return float(
        ux - uy - L * np.linalg.norm(x - y) ** alpha - delta * float(x @ x) - eps
    )


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _last_column(path: Path) -> np.ndarray:
    """The u column of a grid CSV, in row order."""
    lines = path.read_text().splitlines()[1:]
    return np.array([float(line.rsplit(",", 1)[1]) for line in lines])


class Pipeline:
    """`heisenpde pipeline` on the frozen copy of configs/pipeline.json."""

    min_ops = 2  # artifacts are compared across the repetitions of one run
    ARTIFACTS = (
        "pipeline_report.json",
        "holder_report.json",
        "certificate.json",
        "solution.csv",
        "solution_refined.csv",
        "solution.diag.json",
        "solution_refined.diag.json",
    )

    def __init__(self, seed: int, workdir: Path):
        from heisenpde import cli

        self.cli = cli
        self.workdir = workdir
        self.cfg = json.loads((BENCH_DIR / "pipeline.json").read_text())
        self.cfg["seed"] = seed
        self.config = workdir / "pipeline.json"
        self.config.write_text(json.dumps(self.cfg))
        self.digests: dict | None = None
        self.max_err: float | None = None

    def warm_up(self) -> None:
        small = json.loads(json.dumps(self.cfg))
        small["problem"]["grid"]["counts"] = [9, 9, 9]
        small["problem"]["tol"] = 1e-2  # every stage runs; a loose tolerance keeps it short
        small["pairs"] = 2000
        small["penalty"]["per_axis"] = 5
        path = self.workdir / "warm_up.json"
        path.write_text(json.dumps(small))
        out = self.workdir / "warm_up"
        if self.cli.main(["pipeline", "--config", str(path), "--out", str(out)]) != 0:
            raise RuntimeError("warm-up pipeline failed")
        shutil.rmtree(out)

    def op(self, k: int):
        out = self.workdir / f"out{k}"
        return self.cli.main(["pipeline", "--config", str(self.config), "--out", str(out)]), out

    def check(self, k: int, result) -> None:
        rc, out = result
        try:
            if rc != 0:
                raise CheckFailed(f"exit code {rc}")
            report = json.loads((out / "pipeline_report.json").read_text())
            if report.get("pass") is not True:
                raise CheckFailed("pipeline_report pass is not true")
            solves = report["solve"]
            if not (solves["coarse"]["converged"] and solves["refined"]["converged"]):
                raise CheckFailed("a solve did not converge")
            digests = {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in self.ARTIFACTS
            }
            if self.digests is None:
                counts = tuple(self.cfg["problem"]["grid"]["counts"])
                fine = tuple(2 * n - 1 for n in counts)
                u = _last_column(out / "solution.csv").reshape(counts)
                v = _last_column(out / "solution_refined.csv").reshape(fine)
                self.max_err = float(np.abs(u - v[::2, ::2, ::2]).max())
                self.digests = digests
            elif digests != self.digests:
                changed = sorted(n for n in digests if digests[n] != self.digests[n])
                raise CheckFailed(f"artifacts differ between repetitions: {changed}")
        finally:
            shutil.rmtree(out, ignore_errors=True)


class PucciSaddle:
    """solve() on Pucci+ with Lambda/lambda = 4, c = 1, u* = x1^2 - x2^2."""

    min_ops = 1

    def __init__(self, seed: int, workdir: Path):
        from heisenpde import solver
        from heisenpde.fields import parse_polynomial
        from heisenpde.grid import Grid3
        from heisenpde.operators import EllipticityBracket, OperatorSpec

        del seed, workdir  # deterministic, no files
        self.solver = solver
        self.u_star = parse_polynomial("x1^2 - x2^2")
        op = OperatorSpec("pucci_plus", EllipticityBracket(1.0, 4.0))
        c = parse_polynomial("1")
        f = solver.manufacture(self.u_star, op, c)

        def problem(n: int, tol: float):
            grid = Grid3.box([-1, -1, -1], [1, 1, 1], [n, n, n])
            return solver.ProblemSpec(op=op, c=c, f=f, boundary=self.u_star, grid=grid, tol=tol)

        self.small = problem(9, 0.1)  # warm-up only: a loose tolerance keeps it short
        self.prob = problem(33, 1e-6)
        self.exact = self.u_star.value_batch(self.prob.grid.points()).reshape(self.prob.grid.counts)
        self.max_err: float | None = None

    def warm_up(self) -> None:
        if not self.solver.solve(self.small).converged:
            raise RuntimeError("warm-up solve did not converge")

    def op(self, k: int):
        return self.solver.solve(self.prob)

    def check(self, k: int, result) -> None:
        if not result.converged:
            raise CheckFailed(f"did not converge (residual {result.residual:.3e})")
        err = float(np.abs(result.u.values - self.exact).max())
        if not np.isfinite(err):
            raise CheckFailed("non-finite solution")
        self.max_err = err


class Analyze:
    """The holder CLI on a planted 33^3 CSV with its 65^3 refinement, then the
    doubling certificate on the 65^3 function."""

    min_ops = 1
    BETA = 0.6
    PER_AXIS = 17

    def __init__(self, seed: int, workdir: Path):
        from heisenpde import cli, doubling
        from heisenpde.grid import Grid3, GridFunction

        self.cli = cli
        self.doubling = doubling
        self.GridFunction = GridFunction
        coarse = Grid3.box([-1, -1, -1], [1, 1, 1], [33, 33, 33])
        fine = coarse.refine()
        self.h = coarse.spacings[0]
        # cusps on coarse nodes in [-1/2, 1/2]^3: both grids hold them exactly
        rng = np.random.default_rng(seed)
        self.center = np.asarray(coarse.lower) + self.h * rng.integers(8, 25, size=3)
        self.u33 = GridFunction(coarse, self.planted(coarse.points()))
        self.u65 = GridFunction(fine, self.planted(fine.points()))
        self.csv33 = workdir / "u33.csv"
        self.csv65 = workdir / "u65.csv"
        self.u33.to_csv(self.csv33)
        self.u65.to_csv(self.csv65)
        self.config = workdir / "holder.json"
        self.config.write_text(json.dumps(self.holder_config(seed, self.csv65)))
        self.workdir = workdir
        self.max_err: float | None = None

    def planted(self, pts: np.ndarray) -> np.ndarray:
        """sum_i |x_i - c_i|^beta: Holder with exponent beta, cusped at c."""
        return np.sum(np.abs(pts - self.center) ** self.BETA, axis=1)

    @staticmethod
    def holder_config(seed: int, refined: Path) -> dict:
        return {
            "holder": {"c0": 1.0, "beta": 1.0, "beta_prime": 1.0, "L_c": 0.0, "L_f": 1.0},
            "bracket": {"lambda": 1.0, "Lambda": 1.0},
            "seed": seed,
            "pairs": 200000,
            "margin": 0.1,
            "refined_grid": str(refined),
        }

    def warm_up(self) -> None:
        from heisenpde.grid import Grid3

        grid = Grid3.box([-1, -1, -1], [1, 1, 1], [9, 9, 9])
        small = [self.GridFunction(g, self.planted(g.points())) for g in (grid, grid.refine())]
        paths = [self.workdir / "warm9.csv", self.workdir / "warm17.csv"]
        for u, path in zip(small, paths):
            u.to_csv(path)
        cfg = self.holder_config(0, paths[1])
        cfg["pairs"] = 2000
        (self.workdir / "warm.json").write_text(json.dumps(cfg))
        out = self.workdir / "warm_report.json"
        argv = ["holder", "--grid", str(paths[0]), "--config", str(self.workdir / "warm.json")]
        if self.cli.main(argv + ["--out", str(out)]) != 0:
            raise RuntimeError("warm-up holder run failed")
        pp = self.doubling.PenaltyParams(L=1.0, alpha=0.45, delta=1e-6, eps=1e-6)
        self.doubling.doubling_certificate(small[1], pp, grid.margin_box(0.1), per_axis=5)

    def op(self, k: int):
        out = self.workdir / f"holder{k}.json"
        argv = ["holder", "--grid", str(self.csv33), "--config", str(self.config), "--out", str(out)]
        rc = self.cli.main(argv)
        if rc != 0:
            return rc, None, None, None
        report = json.loads(out.read_text())
        pp = self.doubling.PenaltyParams(
            L=1.1 * max(report["seminorm_refined"], 1e-12),
            alpha=report["alpha_target"],
            delta=1e-6,
            eps=1e-6,
        )
        box = self.u65.grid.margin_box(0.1)
        cert = self.doubling.doubling_certificate(self.u65, pp, box, per_axis=self.PER_AXIS)
        return rc, report, pp, cert

    def check(self, k: int, result) -> None:
        rc, report, pp, cert = result
        if rc != 0:
            raise CheckFailed(f"holder exit code {rc}")
        g = self.u65.grid
        x_hat, y_hat = (p.as_array() for p in cert.argmax)
        theta = psi(
            self.u65.values, g.lower, g.spacings, x_hat, y_hat, pp.L, pp.alpha, pp.delta, pp.eps
        )
        if not _close(theta, cert.theta):
            raise CheckFailed(f"theta {cert.theta!r} but psi(x_hat, y_hat) = {theta!r}")
        # a pair at the smallest radius the report samples, 2h, across the cusp
        x = self.center
        y = x + np.array([2.0 * self.h, 0.0, 0.0])
        c = self.u33.grid
        ux, uy = trilinear(self.u33.values, c.lower, c.spacings, np.stack([x, y]))
        ratio = abs(ux - uy) / np.linalg.norm(x - y) ** report["alpha_target"]
        if not report["seminorm_at_target"] >= ratio:
            raise CheckFailed(
                f"seminorm {report['seminorm_at_target']!r} below the ratio {ratio!r} at {x}, {y}"
            )
        if self.max_err is None:
            u33 = self.GridFunction.from_csv(self.csv33)
            err = float(np.abs(u33.value_batch(g.points()) - self.u65.values.ravel()).max())
            want = 3.0 * self.h**self.BETA * (2.0**-self.BETA - 0.5)
            if not _close(err, want, 1e-12):
                raise CheckFailed(f"interpolation error {err!r}, closed form {want!r}")
            self.max_err = err


class Verify:
    """checks.run_checks(seed), the `heisenpde verify` suite."""

    min_ops = 1

    def __init__(self, seed: int, workdir: Path):
        from heisenpde import checks

        del workdir
        self.checks = checks
        self.seed = seed
        self.max_err: float | None = None

    def warm_up(self) -> None:
        for _, fn in self.checks.ALL_CHECKS:
            fn(seed=self.seed, trials=2)

    def op(self, k: int):
        return self.checks.run_checks(seed=self.seed)

    def check(self, k: int, results) -> None:
        if not results:
            raise CheckFailed("no checks ran")
        failed = [r["lemma_id"] for r in results if not r["pass"]]
        if failed:
            raise CheckFailed(f"checks failed: {failed}")
        self.max_err = max(float(r["worst_gap"]) for r in results)


WORKLOADS = {
    "pipeline": Pipeline,
    "pucci_saddle": PucciSaddle,
    "analyze": Analyze,
    "verify": Verify,
}
