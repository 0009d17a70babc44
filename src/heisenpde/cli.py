"""Command-line entry points: verify, solve, holder, pipeline.

All randomness flows from the single --seed / config seed through named
SplitMix64 substreams, so identical configs produce byte-identical reports;
JSON is written canonically (sorted keys) and CSV floats carry 17 significant
digits.  Exit codes: 0 success, 1 bad config or failed verification, 2
flagged solver non-convergence.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path

from .checks import run_checks
from .grid import GridFunction
from .pipeline import TIMINGS, dump_json, holder_config, run_pipeline, write_artifacts
from .solver import ProblemSpec, solve


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}")


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
        dump_json(report, args.out)
    print("all checks passed" if all_pass else "SOME CHECKS FAILED")
    return 0 if all_pass else 1


def cmd_solve(args) -> int:
    result = solve(ProblemSpec.from_config(_load_json(args.config)))
    result.u.to_csv(args.out)
    dump_json(result.to_dict(), str(args.out) + ".diag.json")
    print(
        f"solve: converged={result.converged} iterations={result.iterations} "
        f"residual={result.residual:.3e}"
    )
    return 0 if result.converged else 2


def cmd_holder(args) -> int:
    check, refined = holder_config(_load_json(args.config))
    u = GridFunction.from_csv(args.grid)
    report = check.run(u, GridFunction.from_csv(refined) if refined else None)
    dump_json(report.to_dict(), args.out)
    print(
        f"holder: alpha_target={report.alpha_target:.4g} "
        f"seminorm={report.seminorm_at_target:.4g} alpha_fit={report.alpha_fit:.4g} "
        f"pass={report.passed}"
    )
    return 0


def cmd_pipeline(args) -> int:
    timings = {}
    artifacts = run_pipeline(_load_json(args.config), args.emit_plot_data, timings)
    write_artifacts(artifacts, args.out, timings)
    # a timings.json of an earlier run would pass for this run's
    if args.timings:
        dump_json(timings, Path(args.out) / TIMINGS)
    else:
        (Path(args.out) / TIMINGS).unlink(missing_ok=True)
    solves = [artifacts[name] for name in ("solution.diag.json", "solution_refined.diag.json")]
    if not all(diag["converged"] for diag in solves):
        print("pipeline: solver did not converge")
        return 2
    report = artifacts["pipeline_report.json"]
    print(
        f"pipeline: converged=True holder_pass={report['holder']['pass']} "
        f"theta={report['certificate']['theta']:.3e}"
    )
    return 0 if report["pass"] else 1


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
    p_pipe.add_argument(
        "--timings",
        action="store_true",
        help=f"also write {TIMINGS}, the wall seconds of each stage (differs run to run)",
    )
    p_pipe.set_defaults(fn=cmd_pipeline)
    return parser


def _release_freed_heap() -> None:
    """Hand the heap pages freed by a command back to the OS (glibc only).

    Once glibc's mmap threshold has risen past the solver's large temporaries,
    they are freed into the heap and stay resident.  Whether the caller's next
    large allocation reuses those pages or grows the heap then depends on the
    layout, so the process's peak resident set jumped by about 12 MB from one
    run of the same pipeline to the next.  After malloc_trim(0) the free pages
    are not resident, and any later allocation faults its pages in alike."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return  # not glibc
    trim(0)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _release_freed_heap()


if __name__ == "__main__":
    sys.exit(main())
