"""No dead surface: every module-level function of the package is called
from the package itself or exported in heisenpde.__all__."""

import ast
from pathlib import Path

import heisenpde

SRC = Path(heisenpde.__file__).resolve().parent


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


def test_every_exported_name_resolves():
    # a stale name in __all__ breaks `from heisenpde import *`
    missing = [name for name in heisenpde.__all__ if not hasattr(heisenpde, name)]
    assert not missing, f"in heisenpde.__all__ but not on the package: {missing}"
