"""Every name a `solarnav` module imports is used by that module.

`__init__.py` is skipped: its imports are the package's public API. Names that
appear only in string annotations (such as a `TYPE_CHECKING` import) count as
used. The benchmark's tracer (`bench/tracing.py`) patches a few functions at
the module that calls them, so those modules keep imports they never call
themselves; `TRACER_ONLY` lists them and must match exactly.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "solarnav"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

TRACER_ONLY = {
    "cli": {"build_grid", "plan_energy_efficient", "plan_shortest", "plan_time_efficient"},
    "grid": {"in_shadow"},
}


def _imported(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.update(n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = _imported(tree) - _used(tree)
    assert unused == TRACER_ONLY.get(path.stem, set())
