"""Every name a package module imports is used in it or exported."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "condgreedy"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import (``__future__`` aside) that no expression
    reads and ``__all__`` does not list; a docstring mention is no use."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_scan_finds_planted_unused_imports():
    source = ('"""Uses INF and np."""\nimport math, numpy as np\nfrom .x import INF, TINY, util\n'
              '__all__ = ["util"]\nprint(np.pi, TINY)\n')
    assert unused_imports(source) == ["INF", "math"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def module_exports(source: str) -> list:
    """The names the module's ``__all__`` lists, read without importing it."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def test_scan_reads_planted_export_list():
    source = '"""Doc."""\nimport math\n__all__ = ["pi", "tau"]\npi, tau = math.pi, math.tau\n'
    assert module_exports(source) == ["pi", "tau"]
    assert module_exports("x = 1\n") == []


PACKAGE_CONSTANTS = ["__version__", "DEFAULT_BUDGET", "DEFAULT_SEED"]
EXPORTING = [m for m in MODULES if m not in ("_search.py", "cli.py")]  # cli: the entry point


def test_package_exports_each_module_export_once():
    import condgreedy

    want = PACKAGE_CONSTANTS + [n for m in EXPORTING for n in module_exports((SRC / m).read_text())]
    assert sorted(condgreedy.__all__) == sorted(want)
    assert len(set(want)) == len(want)
    for name in condgreedy.__all__:
        assert hasattr(condgreedy, name), name
