"""heisenpde benchmark: one workload run, checked, with its metrics.

    python3 bench/run.py --workload pipeline --seed 0 --seconds 12 --trace 0

Run from the root of a checkout.  The workload runs in a fresh process with
one BLAS/OpenMP thread, importing the package from this checkout's src/.
With --trace 0, set-up also runs twice more in fresh processes, so setup_s
is a median of three; like wall_ref_s it is rescaled to reference core
speed (calibrate.py).  The human-readable report comes first; the last line
of stdout is the JSON result.  The exit code is 0 whenever a result was
printed, and not 0 when none could be produced.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import calibrate
import harness
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("pipeline", "pucci_saddle", "analyze", "verify")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

# end-to-end metric -> unit; the order is the order of BENCHMARK.json end_to_end
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "max_err": "1"}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(Exception):
    pass


def worker_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, workdir: Path, setup_only: bool, deadline: float):
    """Start worker.py; return (seconds from start to READY, the KERNEL time of
    a set-up-only worker or None, the RESULT of a measuring worker or None)."""
    src = ROOT / "src"
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--source", str(src),
    ]
    if setup_only:
        cmd.append("--setup-only")
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        env=worker_env(src), cwd=ROOT,
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready = kernel = result = None
    try:
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("KERNEL "):
                kernel = float(line[len("KERNEL "):])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (kernel if setup_only else result) is None:
        raise RunError(f"worker exited with code {code} before producing a result")
    return ready, kernel, result


def report(args, setups: list[tuple[float, float]], result: dict) -> dict:
    """Print the human-readable report and return the JSON result."""
    times = result["times"]
    attempted, failed = result["attempted"], result["failed"]
    host = result["host"]
    print(f"heisenpde benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"host: nproc={host['nproc']} cpu={host['cpu']!r} "
          f"python={host['python']} numpy={host['numpy']}")
    ref_times = result["ref_times"]
    print("op times (s): " + " ".join(f"{t:.4f}" for t in times))
    print("op times at reference speed (s): " + " ".join(f"{t:.4f}" for t in ref_times))
    print("kernel times (s): " + " ".join(f"{t:.4f}" for t in result["kernels"]))
    for failure in result["failures"]:
        print(f"FAILED: {failure}")

    if args.trace:
        rows = [(name, result["layers"][name], unit, "") for name, unit, _ in spans.PER_LAYER]
        if result["absent"]:
            print("absent: " + ", ".join(result["absent"]))
    else:
        p = harness.tail_percentile(len(times))
        tail = (f"p{p:g} {harness.percentile(ref_times, p):.4f} s" if p is not None
                else "no tail percentile: fewer than 10 samples beyond any")
        print(f"  {'wall_s':36s} {harness.median(times):.6g} s  (median wall time of one op, "
              "as measured; not bounded, see wall_ref_s)")
        rows = [
            ("wall_ref_s", harness.median(ref_times),
             f"median of {len(times)} ops at reference core speed; {tail}"),
            ("setup_s", harness.median(calibrate.rescale(r, k) for r, k in setups),
             "median of set-ups in fresh processes at reference core speed; as measured: "
             + " ".join(f"{r:.4f}" for r, _ in setups)),
            ("peak_rss_mb", result["peak_rss_mb"], "ru_maxrss of the workload's process"),
            ("max_err", result["max_err"], "largest error against the benchmark's reference"),
        ]
        rows = [(name, value, END_TO_END[name], note) for name, value, note in rows]
    metrics = {}
    for name, value, unit, note in rows:
        metrics[name] = {"value": value, "unit": unit}
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:36s} {shown} {unit}" + (f"  ({note})" if note else ""))
    print(f"  {'ops_failed':36s} {failed} of {attempted}")
    correct = failed == 0 and attempted >= 1 and result["max_err"] is not None
    print("correct" if correct else "NOT CORRECT")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one heisenpde benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "heisenpde" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'heisenpde'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind through the finally blocks: kill the worker, remove scratch
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setups = []  # (seconds to READY, kernel seconds right after)
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                ready, kernel, _ = run_worker(args, work / f"setup{i}", True, deadline)
                setups.append((ready, kernel))
        ready, _, result = run_worker(args, work / "run", False, deadline)
        setups.append((ready, result["kernels"][0]))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(report(args, setups, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
