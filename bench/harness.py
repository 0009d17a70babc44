"""Closed-loop operation runner and the statistics the benchmark reports.

This module imports nothing from the package under test, so the op loop,
failure counting and percentile selection can be tested on their own.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field


class CheckFailed(Exception):
    """An operation ran but its output failed the workload's check."""


@dataclass
class Tally:
    """Operations attempted and failed, with one line per failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.failures.append(error)


def run_ops(op, check, seconds: float, min_ops: int, clock=time.perf_counter, before=None):
    """Run op(k) back to back, one in flight, until at least `seconds` have
    passed and at least `min_ops` operations ran.

    Only op(k) is timed; check(k, result) runs after the clock stops.  An
    operation fails if op raises or if check raises; either way the loop goes
    on.  before(k), when given, runs untimed ahead of each op.  Returns
    (times, tally).
    """
    times: list[float] = []
    tally = Tally()
    start = clock()
    k = 0
    while k < min_ops or clock() - start < seconds:
        if before is not None:
            before(k)
        t0 = clock()
        try:
            result = op(k)
        except Exception as exc:  # a crashing operation is a counted failure
            times.append(clock() - t0)
            tally.record(f"op {k} raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            k += 1
            continue
        times.append(clock() - t0)
        try:
            check(k, result)
        except CheckFailed as exc:
            tally.record(f"op {k} failed its check: {exc}")
        except Exception as exc:  # the check itself could not evaluate the output
            tally.record(f"op {k} check raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        else:
            tally.record(None)
        k += 1
    return times, tally


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


TAIL_CANDIDATES = (99.9, 99.0, 90.0, 75.0)


def tail_percentile(n: int, candidates=TAIL_CANDIDATES, beyond: int = 10) -> float | None:
    """The highest candidate percentile with at least `beyond` of n samples
    above it, or None when n is too small for any."""
    for p in candidates:
        if n * (100.0 - p) >= 100.0 * beyond - 1e-9:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return float(ordered[rank - 1])
