"""Spans around the public callables of each heisenpde module.

The tracer wraps callables from outside the package: it rebinds a function
in every heisenpde module namespace that holds it, replaces a method on its
class, and swaps the entries of checks.ALL_CHECKS.  uninstall() puts every
original back.  Spans are kept in memory; a span's parent is the span open
when it started, and self time is duration minus the direct children's
durations (direct children of one span never overlap: the package is
single-threaded).  Layers are named after the modules.

A target that no longer exists after a refactor is recorded as absent, and
so is a span whose counts could not be read from its arguments or result.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("solver", "operators", "fields", "grid", "regularity", "doubling", "checks", "cli")


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    op: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def outermost(spans: list[Span]) -> list[bool]:
    """True for spans with no ancestor of the same name, so that inclusive
    times and counts of a re-entrant callable are not counted twice."""
    flags = []
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        flags.append(p < 0)
    return flags


def _with_subclasses(cls) -> list[type]:
    found, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in found:
            found.append(c)
            todo.extend(c.__subclasses__())
    return found


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _nodes(args, kwargs, result):
    return {"nodes": int(result.size)}


# (span name, module, attribute path, counts(args, kwargs, result) or None).
# "Cls+.attr" wraps attr on Cls and on every subclass that defines it;
# "ALL_CHECKS" wraps each check in that list as "checks.<lemma-id prefix>".
TARGETS = [
    ("solver.solve", "heisenpde.solver", "solve",
     lambda a, k, r: {"vcycles": int(r.cycles), "fine_sweeps": int(r.iterations)}),
    ("solver.disc_build", "heisenpde.solver", "Discretization.__init__", None),
    ("solver.apply", "heisenpde.solver", "Discretization.apply_nonlinearity", _nodes),
    ("solver.smooth", "heisenpde.solver", "Discretization.smooth",
     lambda a, k, r: {"sweeps": int(_arg(a, k, 3, "sweeps"))}),
    ("operators.apply_batch", "heisenpde.operators", "OperatorSpec.apply_batch", _nodes),
    ("fields.value_batch", "heisenpde.fields", "ScalarField+.value_batch",
     lambda a, k, r: {"points": len(_arg(a, k, 1, "pts"))}),
    ("grid.value_batch", "heisenpde.grid", "GridFunction.value_batch",
     lambda a, k, r: {"points": len(_arg(a, k, 1, "pts"))}),
    ("grid.to_csv", "heisenpde.grid", "GridFunction.to_csv",
     lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    ("grid.from_csv", "heisenpde.grid", "GridFunction.from_csv",
     lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    ("regularity.check_theorem", "heisenpde.regularity", "check_theorem", None),
    ("regularity.holder_seminorm", "heisenpde.regularity", "holder_seminorm",
     lambda a, k, r: {"pairs": len(k["pairs"][0])} if k.get("pairs") is not None else {}),
    ("regularity.fit_alpha", "heisenpde.regularity", "fit_alpha", None),
    ("doubling.certificate", "heisenpde.doubling", "doubling_certificate",
     lambda a, k, r: {"pairs": int(r.pairs_evaluated)}),
    ("checks", "heisenpde.checks", "ALL_CHECKS", lambda a, k, r: {"trials": int(r["trials"])}),
    ("cli.main", "heisenpde.cli", "main", None),
]


class Tracer:
    """Records spans while installed; `op` tags new spans (-1 is set-up)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, parent, self.clock(), op=self.op)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if counts is not None:
                try:
                    span.counts = counts(args, kwargs, result)
                except Exception:  # a changed signature or result type
                    self.absent.add(f"{name} counts")
            return result

        return traced

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def install(self) -> None:
        if self.installed:
            return
        # import every target module before wrapping any: a module imported
        # later would bind the wrappers under its own names and keep them
        modules = {}
        for _, module, _, _ in TARGETS:
            try:
                modules[module] = importlib.import_module(module)
            except ImportError:
                self.absent.add(module)
        for name, module, path, counts in TARGETS:
            mod = modules.get(module)
            if mod is None:
                continue
            if path == "ALL_CHECKS":
                self._wrap_checks(mod, counts)
            elif "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name.rstrip("+"), None)
                classes = [cls] if cls is not None else []
                if cls_name.endswith("+") and classes:
                    classes = _with_subclasses(cls)
                classes = [c for c in classes if attr in vars(c)]
                if not classes:
                    self.absent.add(f"{module}.{path}")
                for c in classes:
                    self._wrap_method(name, c, attr, counts)
            else:
                orig = getattr(mod, path, None)
                if orig is None:
                    self.absent.add(f"{module}.{path}")
                    continue
                self._wrap_function(name, orig, counts)

    def uninstall(self) -> None:
        for restore in reversed(self._restore):
            restore()
        self._restore.clear()

    def _wrap_function(self, name, orig, counts) -> None:
        wrapped = self.wrap(name, orig, counts)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "heisenpde" or mod_name.startswith("heisenpde.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                    self._restore.append(functools.partial(setattr, mod, attr, orig))

    def _wrap_method(self, name, cls, attr, counts) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(name, raw.__func__, counts))
        else:
            new = self.wrap(name, raw, counts)
        setattr(cls, attr, new)
        self._restore.append(functools.partial(setattr, cls, attr, raw))

    def _wrap_checks(self, mod, counts) -> None:
        entries = getattr(mod, "ALL_CHECKS", None)
        if entries is None:
            self.absent.add(f"{mod.__name__}.ALL_CHECKS")
            return
        saved = list(entries)
        entries[:] = [
            (lemma, self.wrap("checks." + lemma.split(".")[0], fn, counts)) for lemma, fn in saved
        ]
        self._restore.append(functools.partial(entries.__setitem__, slice(None), saved))


def _ns_per(seconds: float, n: float) -> float:
    return 1e9 * seconds / n if n else 0.0


# (metric, unit, better); the order is the order of BENCHMARK.json per_layer
PER_LAYER = [
    ("solver.solve_calls", "count", "lower"),
    ("solver.solve_self_s", "s", "lower"),
    ("solver.disc_builds", "count", "lower"),
    ("solver.disc_build_s", "s", "lower"),
    ("solver.apply_calls", "count", "lower"),
    ("solver.apply_s", "s", "lower"),
    ("solver.apply_ns_per_node", "ns", "lower"),
    ("solver.smooth_sweeps", "count", "lower"),
    ("solver.smooth_s", "s", "lower"),
    ("solver.vcycles", "count", "lower"),
    ("solver.fine_sweeps", "count", "lower"),
    ("solver.solve_s_per_cycle", "s", "lower"),
    ("solver.self_s", "s", "lower"),
    ("operators.apply_batch_calls", "count", "lower"),
    ("operators.apply_batch_s", "s", "lower"),
    ("operators.apply_batch_ns_per_node", "ns", "lower"),
    ("operators.self_s", "s", "lower"),
    ("fields.value_batch_calls", "count", "lower"),
    ("fields.value_batch_points", "count", "lower"),
    ("fields.value_batch_s", "s", "lower"),
    ("fields.self_s", "s", "lower"),
    ("grid.value_batch_calls", "count", "lower"),
    ("grid.value_batch_points", "count", "lower"),
    ("grid.value_batch_ns_per_point", "ns", "lower"),
    ("grid.to_csv_s", "s", "lower"),
    ("grid.to_csv_bytes", "bytes", "lower"),
    ("grid.to_csv_setup_s", "s", "lower"),
    ("grid.from_csv_s", "s", "lower"),
    ("grid.from_csv_bytes", "bytes", "lower"),
    ("grid.self_s", "s", "lower"),
    ("regularity.check_theorem_s", "s", "lower"),
    ("regularity.holder_seminorm_s", "s", "lower"),
    ("regularity.fit_alpha_s", "s", "lower"),
    ("regularity.pairs", "count", "higher"),
    ("regularity.self_s", "s", "lower"),
    ("doubling.certificate_s", "s", "lower"),
    ("doubling.pairs_evaluated", "count", "higher"),
    ("doubling.ns_per_pair", "ns", "lower"),
    ("doubling.self_s", "s", "lower"),
    ("checks.group_s", "s", "lower"),
    ("checks.calculus_s", "s", "lower"),
    ("checks.operators_s", "s", "lower"),
    ("checks.sums_s", "s", "lower"),
    ("checks.trials", "count", "higher"),
    ("checks.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.absent", "count", "lower"),
]


def layer_metrics(spans: list[Span], ops, absent=(), overhead_s: float = 0.0) -> dict:
    """Per-layer metrics as amounts per traced operation.

    ops are the operation indices whose spans count; set-up spans (op -1)
    only feed grid.to_csv_setup_s, which is the whole set-up's total.
    Inclusive times and counts use outermost spans of each name; self times
    use every span.
    """
    ops = set(ops)
    n = max(1, len(ops))
    selfs = self_times(spans)
    outer = outermost(spans)
    incl = defaultdict(float)
    calls = defaultdict(int)
    count = defaultdict(float)
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    setup_csv = 0.0
    for i, s in enumerate(spans):
        if s.op == -1 and s.name == "grid.to_csv" and outer[i]:
            setup_csv += s.duration
        if s.op not in ops:
            continue
        self_by_name[s.name] += selfs[i]
        self_by_layer[s.name.split(".")[0]] += selfs[i]
        if outer[i]:
            incl[s.name] += s.duration
            calls[s.name] += 1
            for key, value in s.counts.items():
                count[s.name, key] += value

    m = {
        "solver.solve_calls": calls["solver.solve"] / n,
        "solver.solve_self_s": self_by_name["solver.solve"] / n,
        "solver.disc_builds": calls["solver.disc_build"] / n,
        "solver.disc_build_s": incl["solver.disc_build"] / n,
        "solver.apply_calls": calls["solver.apply"] / n,
        "solver.apply_s": incl["solver.apply"] / n,
        "solver.apply_ns_per_node": _ns_per(incl["solver.apply"], count["solver.apply", "nodes"]),
        "solver.smooth_sweeps": count["solver.smooth", "sweeps"] / n,
        "solver.smooth_s": incl["solver.smooth"] / n,
        "solver.vcycles": count["solver.solve", "vcycles"] / n,
        "solver.fine_sweeps": count["solver.solve", "fine_sweeps"] / n,
        "solver.solve_s_per_cycle": (
            incl["solver.solve"] / count["solver.solve", "vcycles"]
            if count["solver.solve", "vcycles"] else 0.0
        ),
        "operators.apply_batch_calls": calls["operators.apply_batch"] / n,
        "operators.apply_batch_s": incl["operators.apply_batch"] / n,
        "operators.apply_batch_ns_per_node": _ns_per(
            incl["operators.apply_batch"], count["operators.apply_batch", "nodes"]
        ),
        "fields.value_batch_calls": calls["fields.value_batch"] / n,
        "fields.value_batch_points": count["fields.value_batch", "points"] / n,
        "fields.value_batch_s": incl["fields.value_batch"] / n,
        "grid.value_batch_calls": calls["grid.value_batch"] / n,
        "grid.value_batch_points": count["grid.value_batch", "points"] / n,
        "grid.value_batch_ns_per_point": _ns_per(
            incl["grid.value_batch"], count["grid.value_batch", "points"]
        ),
        "grid.to_csv_s": incl["grid.to_csv"] / n,
        "grid.to_csv_bytes": count["grid.to_csv", "bytes"] / n,
        "grid.to_csv_setup_s": setup_csv,
        "grid.from_csv_s": incl["grid.from_csv"] / n,
        "grid.from_csv_bytes": count["grid.from_csv", "bytes"] / n,
        "regularity.check_theorem_s": incl["regularity.check_theorem"] / n,
        "regularity.holder_seminorm_s": incl["regularity.holder_seminorm"] / n,
        "regularity.fit_alpha_s": incl["regularity.fit_alpha"] / n,
        "regularity.pairs": count["regularity.holder_seminorm", "pairs"] / n,
        "doubling.certificate_s": incl["doubling.certificate"] / n,
        "doubling.pairs_evaluated": count["doubling.certificate", "pairs"] / n,
        "doubling.ns_per_pair": _ns_per(
            incl["doubling.certificate"], count["doubling.certificate", "pairs"]
        ),
        "checks.group_s": incl["checks.group"] / n,
        "checks.calculus_s": incl["checks.calculus"] / n,
        "checks.operators_s": incl["checks.operators"] / n,
        "checks.sums_s": incl["checks.sums"] / n,
        "checks.trials": sum(v for (name, key), v in count.items() if key == "trials") / n,
        "trace.overhead_s": overhead_s,
        "trace.absent": float(len(absent)),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer] / n
    return m
