"""One workload in a fresh process: set-up, the operation loop, the result.

run.py starts this with the thread variables and PYTHONPATH already set.
The protocol on stdout is a line READY when set-up is done, then either
(with --setup-only) a line KERNEL <seconds> with the reference kernels'
time, or a line RESULT <json> at the end; everything the package prints
goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
from pathlib import Path

import calibrate
import harness
import spans


def host_info() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--source", required=True, help="the src directory to benchmark")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    protocol = sys.stdout
    sys.stdout = sys.stderr

    import heisenpde

    src = Path(args.source).resolve()
    if src not in Path(heisenpde.__file__).resolve().parents:
        raise SystemExit(f"imported heisenpde from {heisenpde.__file__}, not from {src}")
    from workloads import WORKLOADS

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # set-up spans carry op -1
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    workload.warm_up()
    print("READY", file=protocol, flush=True)
    if args.setup_only:
        print(f"KERNEL {calibrate.kernel_seconds()!r}", file=protocol, flush=True)
        return 0

    min_ops = workload.min_ops if tracer is None else max(workload.min_ops, 2)
    traced: list[int] = []
    kernels: list[float] = []

    def before(k: int) -> None:
        gc.collect()  # garbage left by the previous op is not charged to this one
        kernels.append(calibrate.kernel_seconds())
        if tracer is None:
            return
        # odd ops traced, even ops not: the difference is the tracing overhead
        if k % 2:
            tracer.install()
            tracer.op = k
            traced.append(k)
        else:
            tracer.uninstall()

    times, tally = harness.run_ops(workload.op, workload.check, args.seconds, min_ops, before=before)
    kernels.append(calibrate.kernel_seconds())
    ref_times = calibrate.at_reference_speed(times, kernels)
    result = {
        "times": times,
        "ref_times": ref_times,
        "kernels": kernels,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "max_err": workload.max_err,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": host_info(),
    }
    if tracer is not None:
        tracer.uninstall()
        on = [ref_times[k] for k in traced]
        off = [t for k, t in enumerate(ref_times) if k not in traced]
        overhead = harness.median(on) - harness.median(off)
        result["layers"] = spans.layer_metrics(tracer.spans, traced, tracer.absent, overhead)
        result["absent"] = sorted(tracer.absent)
    print("RESULT " + json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
