"""Every norm of a coefficient row restricted to a set goes through
``BasisTruncation.kept_norms`` or ``ratio_norms``: outside ``bases.py`` only
the phi_m routes, which norm 0/1 rows and restrict nothing, call
``synth_norms``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "condgreedy"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "bases.py")
ALLOWED = {"greedy.py": {"_sum_norm_extremum", "_sum_norm_search"}}


def synth_norms_callers(source: str) -> set:
    """Names of the top-level definitions (``<module>`` for other statements)
    that call ``.synth_norms(``; passing the method on, as
    ``sign_table(b.synth_norms, d)`` does, is no call."""
    callers = set()
    for top in ast.parse(source).body:
        if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "synth_norms" for n in ast.walk(top)):
            callers.add(getattr(top, "name", "<module>"))
    return callers


def test_scan_finds_planted_calls():
    source = ("def restricted(b, rows, mask):\n    return b.synth_norms(rows * mask)\n"
              "def table(b, d):\n    return sign_table(b.synth_norms, d)\n"
              "class K:\n    def f(self, b):\n        return [b.synth_norms(r) for r in self.rows]\n"
              "VALUES = basis.synth_norms(ROWS)\n")
    assert synth_norms_callers(source) == {"restricted", "K", "<module>"}


@pytest.mark.parametrize("module", MODULES)
def test_synth_norms_is_called_only_from_the_allow_list(module):
    assert synth_norms_callers((SRC / module).read_text()) <= ALLOWED.get(module, set())
