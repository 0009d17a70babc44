"""The regularity pipeline as one library call: run_pipeline(cfg) solves on
the config's grid and on the once-refined grid, checks the regularity
theorem on the pair and runs the doubling certificate on the refined
solution.  It reads every config key before the first solve and returns the
artifacts keyed by file name; write_artifacts puts them in a directory, and
both record the wall time of each stage when given a timings dict."""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from .config import config_number, config_section
from .doubling import PenaltyParams, doubling_certificate
from .grid import GridFunction
from .operators import EllipticityBracket, HolderData
from .regularity import DEFAULT_MARGIN, DEFAULT_PAIRS, HolderReport, alpha_target
from .regularity import check_theorem, default_radii, modulus
from .solver import ProblemSpec, refine_problem, solve

# every file name that run_pipeline may return, in the order it adds them
ARTIFACTS = (
    "solution.csv",
    "solution.diag.json",
    "solution_refined.csv",
    "solution_refined.diag.json",
    "holder_report.json",
    "certificate.json",
    "modulus.csv",
    "pipeline_report.json",
)
# wall seconds per stage; it differs from run to run, so it is not one of ARTIFACTS
TIMINGS = "timings.json"


def dump_json(obj, path) -> None:
    """Write obj as canonical JSON: sorted keys, indent 2, a final newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


@contextmanager
def _stage(timings: dict | None, name: str):
    """Store the wall seconds of the with-block in timings[name], if timings is a dict."""
    start = time.perf_counter()
    yield
    if timings is not None:
        timings[name] = time.perf_counter() - start


@dataclass(frozen=True)
class TheoremCheck:
    """check_theorem's settings from the holder, bracket, margin, pairs and seed keys."""

    hd: HolderData
    bracket: EllipticityBracket
    margin: float
    pairs: int
    seed: int

    @staticmethod
    def from_config(cfg: dict, name: str, required=(), optional=()) -> "TheoremCheck":
        """Read config section `name`, which may hold the given other keys."""
        keys = ("seed", "pairs", "margin") + optional
        config_section(cfg, name, ("holder", "bracket") + required, keys)
        margin = config_number(cfg, name, "margin", default=DEFAULT_MARGIN)
        if not 0.0 <= margin < 0.5:
            raise ValueError(f"{name} config 'margin' must lie in [0, 0.5), got {margin}")
        pairs = config_number(cfg, name, "pairs", int, default=DEFAULT_PAIRS)
        if pairs < 1:
            raise ValueError(f"{name} config 'pairs' must be at least 1, got {pairs}")
        return TheoremCheck(
            HolderData.from_config(cfg["holder"]),
            EllipticityBracket.from_config(cfg["bracket"]),
            margin,
            pairs,
            config_number(cfg, name, "seed", int, default=0),
        )

    def run(self, u, fine) -> HolderReport:
        return check_theorem(u, fine, self.hd, self.bracket, self.margin, self.pairs, self.seed)


def holder_config(cfg: dict) -> tuple[TheoremCheck, str | None]:
    """The holder command's check and its optional refined grid CSV path."""
    check = TheoremCheck.from_config(cfg, "holder", optional=("refined_grid",))
    refined = cfg.get("refined_grid")
    if refined is not None and not isinstance(refined, str):
        raise ValueError(f"holder config 'refined_grid' must be a string, got {refined!r}")
    return check, refined or None


@dataclass(frozen=True)
class PipelineConfig:
    """A pipeline config, read and checked without solving anything."""

    problem: ProblemSpec
    check: TheoremCheck
    penalty: PenaltyParams  # its L is L_factor, scaled by the refined seminorm later
    per_axis: int

    @staticmethod
    def from_config(cfg: dict) -> "PipelineConfig":
        check = TheoremCheck.from_config(cfg, "pipeline", ("problem",), ("penalty",))
        pen = config_section(
            cfg.get("penalty", {}), "penalty", optional=("delta", "eps", "L_factor", "per_axis")
        )
        L_factor, delta, eps = (
            config_number(pen, "penalty", key, default=value)
            for key, value in (("L_factor", 1.1), ("delta", 1e-6), ("eps", 1e-6))
        )
        if not (math.isfinite(L_factor) and L_factor > 0):
            raise ValueError(f"penalty config 'L_factor' must be finite and > 0, got {L_factor}")
        for key, value in (("delta", delta), ("eps", eps)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"penalty config {key!r} must be finite and >= 0, got {value}")
        penalty = PenaltyParams(L_factor, alpha_target(check.hd, check.bracket), delta, eps)
        per_axis = config_number(pen, "penalty", "per_axis", int, default=17)
        if per_axis < 2:
            raise ValueError(f"penalty config 'per_axis' must be at least 2, got {per_axis}")
        problem = ProblemSpec.from_config(cfg["problem"])
        have, need = check.bracket, problem.op.bracket
        if have.lam > need.lam or have.Lam < need.Lam:
            raise ValueError(
                f"bracket config [{have.lam}, {have.Lam}] must contain the operator config's "
                f"[lambda, Lambda] = [{need.lam}, {need.Lam}]"
            )
        # the pipeline also solves on the refined grid, whose nodes hold the config grid's
        c0 = check.hd.c0
        c_min = float(problem.c.value_batch(problem.grid.refine().points()).min())
        if c0 > c_min:
            raise ValueError(
                f"holder config 'c0' = {c0} exceeds min c = {c_min} on the nodes of the "
                "grid or its refinement"
            )
        return PipelineConfig(problem, check, penalty, per_axis)


def run_pipeline(cfg: dict, emit_plot_data: bool = False, timings: dict | None = None) -> dict:
    """{file name: artifact} of a pipeline config: GridFunctions for the CSVs,
    dicts for the JSON reports and, with emit_plot_data, the text of
    modulus.csv.  If a solve does not converge, the artifacts stop after the
    solves with the pipeline_report.json stub {"converged": false, "pass": false}.
    A dict `timings` receives the wall seconds of each stage that ran, under
    coarse_solve_s, refined_solve_s, check_theorem_s, certificate_s and
    modulus_s."""
    spec = PipelineConfig.from_config(cfg)
    with _stage(timings, "coarse_solve_s"):
        coarse = solve(spec.problem)
    with _stage(timings, "refined_solve_s"):
        # the refined problem and its discretization are freed with this solve
        fine = solve(refine_problem(spec.problem))
    artifacts = {
        "solution.csv": coarse.u,
        "solution.diag.json": coarse.to_dict(),
        "solution_refined.csv": fine.u,
        "solution_refined.diag.json": fine.to_dict(),
    }
    if not (coarse.converged and fine.converged):
        artifacts["pipeline_report.json"] = {"converged": False, "pass": False}
        return artifacts
    check = spec.check
    with _stage(timings, "check_theorem_s"):
        report = check.run(coarse, fine)
    pp = replace(spec.penalty, L=spec.penalty.L * max(report.seminorm_refined, 1e-12))
    with _stage(timings, "certificate_s"):
        cert = doubling_certificate(fine.u, pp, fine.u.grid.margin_box(check.margin), spec.per_axis)
    x_hat, y_hat = (list(p.as_array()) for p in cert.argmax)
    cert_dict = dict(
        theta=cert.theta, certified=cert.certified, gap=cert.gap, x_hat=x_hat, y_hat=y_hat,
        pairs_evaluated=cert.pairs_evaluated, L=pp.L, alpha=pp.alpha, delta=pp.delta, eps=pp.eps,
    )
    artifacts["holder_report.json"] = report.to_dict()
    artifacts["certificate.json"] = cert_dict
    if emit_plot_data:
        with _stage(timings, "modulus_s"):
            radii, _ = default_radii(fine.u, check.margin)
            pts = modulus(fine.u, radii, margin=check.margin, seed=check.seed)
        artifacts["modulus.csv"] = "".join(["r,omega_r\n"] + ["%.17g,%.17g\n" % p for p in pts])
    artifacts["pipeline_report.json"] = {
        "seed": check.seed,
        "solve": {"coarse": coarse.to_dict(), "refined": fine.to_dict()},
        "holder": report.to_dict(),
        "certificate": cert_dict,
        "pass": report.passed,
    }
    return artifacts


def write_artifacts(artifacts: dict, out_dir, timings: dict | None = None) -> None:
    """Write run_pipeline's artifacts into out_dir, first deleting there every
    file of ARTIFACTS that they do not include; other files are left alone.
    A dict `timings` receives the wall seconds of the writes as
    artifact_writes_s."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _stage(timings, "artifact_writes_s"):
        for name in ARTIFACTS:
            if name not in artifacts:
                (out_dir / name).unlink(missing_ok=True)
        for name, artifact in artifacts.items():
            if isinstance(artifact, GridFunction):
                artifact.to_csv(out_dir / name)
            elif isinstance(artifact, dict):
                dump_json(artifact, out_dir / name)
            else:
                (out_dir / name).write_text(artifact)
