"""No dead surface: every module-level function of the package, and every
method of a class that heisenpde.__all__ does not export, is called from
the package itself or exported in heisenpde.__all__; every exported
function or constant is read by the package or by the benchmark."""

import ast
import inspect
from pathlib import Path

import heisenpde

SRC = Path(heisenpde.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _used_names(node: ast.AST) -> set[str]:
    """Names loaded or attributes read anywhere under node."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def test_every_module_function_is_used_or_exported():
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = _used_names(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((path.name, node.name))
                names.discard(node.name)  # recursion is not a caller
            used |= names
    dead = [
        f"{module}:{name}"
        for module, name in defined
        if name not in used and name not in heisenpde.__all__
    ]
    assert not dead, f"no caller in src/ and not in heisenpde.__all__: {dead}"


def test_every_method_of_an_unexported_class_is_used():
    # a method is used if its name is read anywhere in src/ outside its own
    # body; special methods are called by the language
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                used |= _used_names(node)
                continue
            for item in node.body:
                names = _used_names(item)
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("__") and node.name not in heisenpde.__all__:
                        defined.append((path.name, node.name, item.name))
                    names.discard(item.name)  # recursion is not a caller
                used |= names
    dead = [f"{module}:{cls}.{name}" for module, cls, name in defined if name not in used]
    assert not dead, f"no caller in src/: {dead}"


def test_every_exported_name_resolves():
    # a stale name in __all__ breaks `from heisenpde import *`
    missing = [name for name in heisenpde.__all__ if not hasattr(heisenpde, name)]
    assert not missing, f"in heisenpde.__all__ but not on the package: {missing}"


def test_every_exported_function_or_constant_has_a_caller():
    # an exported class is a type a caller builds; any other exported name
    # must be read in src/ outside __init__.py, or by the benchmark
    used = set()
    for path in [*sorted(SRC.glob("*.py")), *sorted(BENCH.glob("*.py"))]:
        if path != SRC / "__init__.py":
            used |= _used_names(ast.parse(path.read_text()))
    unread = [
        name
        for name in heisenpde.__all__
        if not inspect.isclass(getattr(heisenpde, name)) and name not in used
    ]
    assert not unread, f"exported but read nowhere in src/ or bench/: {unread}"
