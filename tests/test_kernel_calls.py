"""Every norm of a coefficient row restricted to a set goes through
``BasisTruncation.kept_norms`` or ``ratio_norms``: outside ``bases.py`` only
the phi_m routes, which norm 0/1 rows and restrict nothing, call
``synth_norms``.  Every reported witness is built, and scored, in
``conditionality._Best``; only ``witness_from_doc`` builds one besides.  An
L ladder on a recipe basis calls no oracle, nor does its k rung m = d."""

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
WITNESS_BUILDERS = {"conditionality.py": {"_Best", "witness_from_doc"}}


def callers(source: str, name: str) -> set:
    """Names of the top-level definitions (``<module>`` for other statements)
    that call ``name(`` or ``.name(``; passing the function on, as
    ``sign_table(b.synth_norms, d)`` does, is no call."""
    def calls(node) -> bool:
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and name in (getattr(func, "id", None),
                                                       getattr(func, "attr", None))

    return {getattr(top, "name", "<module>") for top in ast.parse(source).body
            if any(calls(n) for n in ast.walk(top))}


def test_scan_finds_planted_calls():
    source = ("def restricted(b, rows, mask):\n    return b.synth_norms(rows * mask)\n"
              "def table(b, d):\n    return sign_table(b.synth_norms, d)\n"
              "class K:\n    def f(self, b):\n        return [b.synth_norms(r) for r in self.rows]\n"
              "VALUES = basis.synth_norms(ROWS)\n")
    assert callers(source, "synth_norms") == {"restricted", "K", "<module>"}


def test_scan_finds_planted_witnesses():
    source = ("def route(b, a, A):\n    return 1.0, Witness(tuple(a), A, 1.0, 'random')\n"
              "def kind_of(w):\n    return isinstance(w, Witness) and w.kind\n"
              "class R:\n    def result(self):\n        return cg.Witness(self.a, (), 1.0, 'oracle')\n"
              "FLOOR = Witness((1.0,), (), 1.0, 'quasi-greedy')\n")
    assert callers(source, "Witness") == {"route", "R", "<module>"}


@pytest.mark.parametrize("module", MODULES)
def test_synth_norms_is_called_only_from_the_allow_list(module):
    assert callers((SRC / module).read_text(), "synth_norms") <= ALLOWED.get(module, set())


@pytest.mark.parametrize("module", MODULES + ["bases.py"])
def test_witnesses_are_built_only_in_the_result_record(module):
    # a route that built its own Witness could report a value its witness does not give
    assert callers((SRC / module).read_text(), "Witness") <= WITNESS_BUILDERS.get(module, set())


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
