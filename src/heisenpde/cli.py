"""Command-line entry points: verify, solve, holder, pipeline.

All randomness flows from the single --seed / config seed through named
SplitMix64 substreams, so identical configs produce byte-identical reports;
JSON is written canonically (sorted keys) and CSV floats carry 17 significant
digits.  Exit codes: 0 success, 1 bad config or failed verification, 2
flagged solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .checks import run_checks
from .config import config_number, config_section
from .doubling import PenaltyParams, doubling_certificate
from .grid import GridFunction
from .operators import EllipticityBracket, HolderData
from .regularity import alpha_target, check_theorem, default_radii, modulus
from .solver import ProblemSpec, SolveResult, refine_problem, solve


def _dump_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}")


def _holder_from_config(cfg: dict) -> HolderData:
    config_section(cfg, "holder", ("c0", "beta", "beta_prime", "L_c", "L_f"))
    return HolderData(**{k: config_number(cfg, "holder", k) for k in cfg})


def _bracket_from_config(cfg: dict) -> EllipticityBracket:
    config_section(cfg, "bracket", ("lambda", "Lambda"))
    return EllipticityBracket(
        config_number(cfg, "bracket", "lambda"), config_number(cfg, "bracket", "Lambda")
    )


def _diagnostics(result: SolveResult) -> dict:
    return {
        "iterations": result.iterations,
        "residual": result.residual,
        "tau": result.tau,
        "converged": result.converged,
        "cycles": result.cycles,
        "rho": result.rho,
        "rho_over_h": result.rho / result.u.grid.horizontal_spacing,
        "levels": [list(counts) for counts in result.levels],
        "outside_fraction": result.outside_fraction,
        "cycle_residuals": result.cycle_residuals,
    }


def cmd_verify(args) -> int:
    results = run_checks(name_filter=args.filter, seed=args.seed)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return 1
    for r in results:
        status = "pass" if r["pass"] else "FAIL"
        print(f"[{status}] {r['lemma_id']}: trials={r['trials']} worst_gap={r['worst_gap']:.3e}")
    all_pass = all(r["pass"] for r in results)
    report = {
        "seed": args.seed,
        "filter": args.filter,
        "checks": results,
        "all_pass": all_pass,
    }
    if args.out:
        _dump_json(report, args.out)
    print("all checks passed" if all_pass else "SOME CHECKS FAILED")
    return 0 if all_pass else 1


def cmd_solve(args) -> int:
    cfg = _load_json(args.config)
    prob = ProblemSpec.from_config(cfg)
    result = solve(prob)
    result.u.to_csv(args.out)
    _dump_json(_diagnostics(result), str(args.out) + ".diag.json")
    print(
        f"solve: converged={result.converged} iterations={result.iterations} "
        f"residual={result.residual:.3e}"
    )
    return 0 if result.converged else 2


def cmd_holder(args) -> int:
    cfg = config_section(
        _load_json(args.config),
        "holder",
        ("holder", "bracket"),
        ("seed", "pairs", "margin", "refined_grid"),
    )
    hd = _holder_from_config(cfg["holder"])
    bracket = _bracket_from_config(cfg["bracket"])
    u = GridFunction.from_csv(args.grid)
    refined = GridFunction.from_csv(cfg["refined_grid"]) if cfg.get("refined_grid") else None
    report = check_theorem(
        u,
        refined,
        hd,
        bracket,
        margin=config_number(cfg, "holder", "margin", default=0.1),
        n_pairs=config_number(cfg, "holder", "pairs", int, default=200_000),
        seed=config_number(cfg, "holder", "seed", int, default=0),
    )
    _dump_json(report.to_dict(), args.out)
    print(
        f"holder: alpha_target={report.alpha_target:.4g} "
        f"seminorm={report.seminorm_at_target:.4g} alpha_fit={report.alpha_fit:.4g} "
        f"pass={report.passed}"
    )
    return 0


def cmd_pipeline(args) -> int:
    cfg = config_section(
        _load_json(args.config),
        "pipeline",
        ("problem", "holder", "bracket"),
        ("seed", "pairs", "margin", "penalty"),
    )
    hd = _holder_from_config(cfg["holder"])
    bracket = _bracket_from_config(cfg["bracket"])
    pen_cfg = config_section(
        cfg.get("penalty", {}), "penalty", optional=("delta", "eps", "L_factor", "per_axis", "mu")
    )
    seed = config_number(cfg, "pipeline", "seed", int, default=0)
    margin = config_number(cfg, "pipeline", "margin", default=0.1)
    n_pairs = config_number(cfg, "pipeline", "pairs", int, default=200_000)

    prob = ProblemSpec.from_config(cfg["problem"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    coarse = solve(prob)
    coarse.u.to_csv(out_dir / "solution.csv")
    _dump_json(_diagnostics(coarse), out_dir / "solution.diag.json")
    fine = solve(refine_problem(prob))
    fine.u.to_csv(out_dir / "solution_refined.csv")
    _dump_json(_diagnostics(fine), out_dir / "solution_refined.diag.json")
    if not (coarse.converged and fine.converged):
        _dump_json(
            {"converged": False, "pass": False},
            out_dir / "pipeline_report.json",
        )
        print("pipeline: solver did not converge")
        return 2

    report = check_theorem(
        coarse, fine, hd, bracket, margin=margin, n_pairs=n_pairs, seed=seed
    )
    _dump_json(report.to_dict(), out_dir / "holder_report.json")

    pp = PenaltyParams(
        L=config_number(pen_cfg, "penalty", "L_factor", default=1.1)
        * max(report.seminorm_refined, 1e-12),
        alpha=report.alpha_target,
        delta=config_number(pen_cfg, "penalty", "delta", default=1e-6),
        eps=config_number(pen_cfg, "penalty", "eps", default=1e-6),
        mu=config_number(pen_cfg, "penalty", "mu", default=1.0),
    )
    box = fine.u.grid.margin_box(margin)
    per_axis = config_number(pen_cfg, "penalty", "per_axis", int, default=17)
    cert = doubling_certificate(fine.u, pp, box, per_axis=per_axis)
    cert_dict = {
        "theta": cert.theta,
        "certified": cert.certified,
        "gap": cert.gap,
        "x_hat": list(cert.argmax[0].as_array()),
        "y_hat": list(cert.argmax[1].as_array()),
        "pairs_evaluated": cert.pairs_evaluated,
        "L": pp.L,
        "alpha": pp.alpha,
        "delta": pp.delta,
        "eps": pp.eps,
    }
    _dump_json(cert_dict, out_dir / "certificate.json")

    if args.emit_plot_data:
        radii, _ = default_radii(fine.u, margin)
        pts = modulus(fine.u, radii, margin=margin, seed=seed)
        lines = ["r,omega_r"] + ["%.17g,%.17g" % (r, w) for r, w in pts]
        (out_dir / "modulus.csv").write_text("\n".join(lines) + "\n")

    merged = {
        "seed": seed,
        "solve": {"coarse": _diagnostics(coarse), "refined": _diagnostics(fine)},
        "holder": report.to_dict(),
        "certificate": cert_dict,
        "pass": bool(report.passed and coarse.converged and fine.converged),
    }
    _dump_json(merged, out_dir / "pipeline_report.json")
    print(
        f"pipeline: converged={coarse.converged and fine.converged} "
        f"holder_pass={report.passed} theta={cert.theta:.3e}"
    )
    return 0 if merged["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisenpde",
        description="Heisenberg-group lemma verification, PDE solving, and "
        "Holder-regularity measurement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the lemma verification suite")
    p_verify.add_argument("--filter", default=None, help="substring filter on lemma ids")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None, help="write the JSON report here")
    p_verify.set_defaults(fn=cmd_verify)

    p_solve = sub.add_parser("solve", help="solve a problem config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True, help="solution CSV path")
    p_solve.set_defaults(fn=cmd_solve)

    p_holder = sub.add_parser("holder", help="Holder report for a solved grid")
    p_holder.add_argument("--grid", required=True, help="grid function CSV")
    p_holder.add_argument("--config", required=True)
    p_holder.add_argument("--out", required=True)
    p_holder.set_defaults(fn=cmd_holder)

    p_pipe = sub.add_parser("pipeline", help="solve + refine + holder + certificate")
    p_pipe.add_argument("--config", required=True)
    p_pipe.add_argument("--out", required=True, help="output directory")
    p_pipe.add_argument("--emit-plot-data", action="store_true")
    p_pipe.set_defaults(fn=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
