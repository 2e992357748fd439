"""Every norm of a coefficient row restricted to a set goes through
``BasisTruncation.kept_norms`` or ``ratio_norms``: outside ``bases.py`` only
the phi_m routes, which norm 0/1 rows and restrict nothing, call
``synth_norms``.  An L ladder on a recipe basis calls no oracle, nor does
its k rung m = d."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from condgreedy import bases as bases_mod
from condgreedy import conditionality as cond_mod
from condgreedy import L_m_exact, k_m_estimate, lb_ladder, parse_basis

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


# ---------------------------------------------------------------------------
# recipe ladders take the exact route: no oracle grid, one norms call a rung
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", ["difference:9", "summing:9"])
def test_recipe_ladders_make_no_oracle_call(spec, monkeypatch):
    b, ms = parse_basis(spec), range(2, 10)
    calls = {"L_m_oracle": 0, "norms": 0}

    def counted(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    counted(cond_mod, "L_m_oracle")
    counted(bases_mod, "norms")
    ladder = lb_ladder(b, ms)
    assert [v for _, v, _ in ladder] == [float(m) for m in ms]
    # the exact route's float check is the only norms call of a rung
    assert calls["L_m_oracle"] == 0 and calls["norms"] <= len(ms)
    # k_d = L_d: the k estimate without a budget and the k rung m = d take it too
    calls["norms"] = 0
    assert k_m_estimate(b, 9) == lb_ladder(b, [9], kind="k")[0][1:] == L_m_exact(b, 9)
    assert calls["L_m_oracle"] == 0 and calls["norms"] == 3
