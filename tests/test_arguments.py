"""One rule for every count, size, index set and coefficient vector.

A count or size is an integral number that is not a bool, in its range; an
index set holds such numbers without repeats; a coefficient vector holds d
finite values.  ``_search.check_int``, ``check_indices`` and ``check_coeffs``
apply the rule, and every public entry point raises its module's error when
it fails.  The support size ``m`` and the ``budget`` of the estimators are
covered by ``M_ESTIMATORS`` and the budget tests of test_conditionality.py.
"""

from __future__ import annotations

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from condgreedy import (
    BasisError,
    C0Trunc,
    ConditionalityError,
    GreedyError,
    LINEAR_TARGET,
    L_m_estimate,
    L_m_exact,
    L_m_oracle,
    Lp,
    MixedSum,
    SpaceError,
    block_embed_pair,
    block_index_split,
    block_offsets,
    block_sum,
    difference,
    growth_fit,
    half_split_maps,
    interleave_pair,
    interleave_positions,
    k_m_exact,
    lb_ladder,
    lindenstrauss,
    pq_block_sum,
    project,
    sa_ratio,
    summing,
    template_pairs,
    unit_vector_system,
    witness_from_doc,
)

NAN = float("nan")
DOC = {"coeffs": [1.0, 1.0, -1.0, 0.0], "A": [1, 3], "ratio": 1.0, "kind": "oracle"}


def _ladder(m0):
    return [(m0, 1.0), (4, 2.0), (8, 3.0), (16, 4.0)]


# name -> (error, call of the bad value, bad values)
BAD = {
    # 2.5 and True were truncated to a dimension of 2 and 1
    "C0Trunc dim": (SpaceError, C0Trunc, [2.5, True, NAN, 0, -1, "3"]),
    "MixedSum block dim": (SpaceError, lambda v: MixedSum(1.0, ((Lp(1.0), v),)), [2.5, True, NAN, 0]),
    "unit_vector_system d": (BasisError, lambda v: unit_vector_system(v, Lp(2.0)), [2.5, True, NAN, 0, -1]),
    "lindenstrauss d": (BasisError, lindenstrauss, [2.5, True, NAN, 0, -1, math.inf]),
    "summing d": (BasisError, summing, [2.5, True, NAN, 0]),
    "difference d": (BasisError, difference, [2.5, True, NAN, 0]),
    "prefix m": (BasisError, lambda v: difference(4).prefix(v), [2.5, True, NAN, 0, -1, 5]),
    "synth coeffs": (BasisError, lambda v: difference(3).synth(v),
                     [[1.0, NAN, 1.0], [1.0, math.inf, 1.0], [1.0, 1.0], np.ones(4)]),
    "interleave_positions d0": (BasisError, lambda v: interleave_positions(v, 2), [2.5, True, NAN, -1]),
    "block_offsets dims": (BasisError, block_offsets, [[2.5, -1, 3], [True, 2], [NAN], [0, 2], [2, -1]]),
    "block_index_split k": (BasisError, lambda v: block_index_split([2, 4], v), [2.5, True, NAN, 0, 7]),
    "block_index_split dims": (BasisError, lambda v: block_index_split(v, 1), [[2.5, 4], [True], [0, 2]]),
    "block_sum dims": (BasisError, lambda v: block_sum(difference(4), v, 1),
                       [[2.5, 4], [True, 2], [NAN], [0, 2], [2, 5], []]),
    "pq_block_sum dims": (BasisError, lambda v: pq_block_sum(
        difference(4), [(v, half_split_maps(difference(4), 2))], 1, 1), [2.5, True, 0, 5]),
    "half_split_maps dn": (BasisError, lambda v: half_split_maps(difference(4), v), [2.5, True, NAN, 0, 5]),
    "project coeffs": (GreedyError, lambda v: project(difference(3), v, (1,)),
                       [[1.0, NAN, 1.0], [1.0, 1.0], np.ones(4)]),
    "project A": (GreedyError, lambda v: project(difference(3), np.ones(3), v),
                  [(2.5,), (True,), (NAN,), (0,), (4,), (1, 1)]),
    "sa_ratio coeffs": (ConditionalityError, lambda v: sa_ratio(difference(4), v, (1,)),
                        [[1.0, NAN, 1.0, 1.0], np.ones(3)]),
    "sa_ratio A": (ConditionalityError, lambda v: sa_ratio(difference(4), np.ones(4), v),
                   [(2.5,), (True,), (NAN,), (0,), (5,)]),
    "witness_from_doc A": (ConditionalityError, lambda v: witness_from_doc({**DOC, "A": v}),
                           [[1.5], [0.5], [True], [NAN], [0], [-1]]),
    "witness_from_doc B": (ConditionalityError, lambda v: witness_from_doc({**DOC, "B": v}),
                           [[0.5], [True], [0]]),
    "witness_from_doc ratio": (ConditionalityError, lambda v: witness_from_doc({**DOC, "ratio": v}),
                               ["nan", NAN, math.inf]),
    "witness_from_doc coeffs": (ConditionalityError, lambda v: witness_from_doc({**DOC, "coeffs": v}),
                                [[1.0, NAN], [1.0, math.inf]]),
    "interleave_pair side": (ConditionalityError, lambda v: interleave_pair([1.0], [1], v, 1, 1),
                             [True, 2.5, NAN, -1, 2]),
    "interleave_pair d0": (ConditionalityError, lambda v: interleave_pair([1.0, 1.0], [1], 1, v, 2),
                           [2.5, True, NAN, -1]),
    "interleave_pair coeffs": (ConditionalityError, lambda v: interleave_pair(v, [1], 0, 2, 2),
                               [[1.0, NAN], [1.0], np.ones((1, 2))]),
    "interleave_pair A": (ConditionalityError, lambda v: interleave_pair([1.0, 1.0], v, 0, 2, 2),
                          [(2.5,), (True,), (0,), (3,)]),
    "block_embed_pair r": (ConditionalityError, lambda v: block_embed_pair([1.0, 1.0], [1], (3, 2), v),
                           [True, 2.5, NAN, 0, 3]),
    "block_embed_pair dims": (ConditionalityError, lambda v: block_embed_pair([1.0, 1.0], [1], v, 1),
                              [[2.5, 3], [True, 3], [0, 2]]),
    "block_embed_pair coeffs": (ConditionalityError, lambda v: block_embed_pair(v, [1], (2, 3), 1),
                                [[1.0, NAN], [1.0, 1.0, 1.0]]),
    "block_embed_pair A": (ConditionalityError, lambda v: block_embed_pair([1.0, 1.0], v, (2, 3), 1),
                           [(True,), (0,), (3,), (1.5,)]),
    "growth_fit m": (ConditionalityError, lambda v: growth_fit(_ladder(v), LINEAR_TARGET), [2.5, True, NAN, 0]),
    "growth_fit lb": (ConditionalityError, lambda v: growth_fit(
        [(2, 1.0), (4, v), (8, 3.0), (16, 4.0)], LINEAR_TARGET), [math.inf, -math.inf, NAN]),
    # a NaN r2_min passed every fit, as r2 < NaN is False, and -1 passed an R^2 of 0.57
    "growth_fit r2_min": (ConditionalityError, lambda v: growth_fit(
        [(2, 1.0), (4, 3.0), (8, 2.0), (16, 4.0)], LINEAR_TARGET, r2_min=v), [NAN, -1.0, 2.0, "0.9", None]),
    "L_m_oracle guard": (ConditionalityError, lambda v: L_m_oracle(difference(4), 2, guard=v),
                         [None, 2.5, True, NAN, 0]),
    "L_m_estimate guard": (ConditionalityError, lambda v: L_m_estimate(difference(4), 2, guard=v),
                           [None, 2.5, True, NAN, 0, -1]),
    "lb_ladder guard": (ConditionalityError, lambda v: lb_ladder(difference(4), [2], guard=v),
                        [None, 2.5, True, NAN, 0]),
    "L_m_exact m": (ConditionalityError, lambda v: L_m_exact(difference(4), v), [2.5, True, NAN, 0, 5]),
    "k_m_exact m": (ConditionalityError, lambda v: k_m_exact(difference(4), v), [2.5, True, NAN, 0, 5]),
    # template_pairs once raised a bare TypeError at m = 2.5 and gave [] at d = -1
    "template_pairs d": (ConditionalityError, lambda v: template_pairs(("difference", 4), v, 2),
                         [2.5, True, NAN, 0, -1]),
    "template_pairs m": (ConditionalityError, lambda v: template_pairs(("difference", 4), 4, v),
                         [2.5, True, NAN, -1, 5]),
}


def _id(value) -> str:
    return f"array{value.shape}" if isinstance(value, np.ndarray) else repr(value)


@pytest.mark.parametrize("name,value", [pytest.param(n, v, id=f"{n}={_id(v)}")
                                        for n, (_, _, vals) in BAD.items() for v in vals])
def test_bad_argument_raises_the_module_error(name, value):
    # 2.5 used to be truncated or leak a bare TypeError, True ran as 1, a NaN
    # coefficient gave a NaN vector and an inf lower bound a FAIL verdict
    error, run, _ = BAD[name]
    with pytest.raises(error):
        run(value)


def _plain(x):
    """``x`` with every array and dataclass turned into nested tuples, for ==."""
    if isinstance(x, np.ndarray):
        return ("array", x.shape, x.tolist())
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(_plain(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(_plain(i) for i in x)
    return x


# name -> (call of the value, the plain int it must behave as)
ACCEPTED = {
    "C0Trunc dim": (C0Trunc, 3),
    "MixedSum block dim": (lambda v: MixedSum(1.0, ((Lp(1.0), v),)), 3),
    "unit_vector_system d": (lambda v: unit_vector_system(v, Lp(2.0)), 3),
    "lindenstrauss d": (lindenstrauss, 3),
    "prefix m": (lambda v: difference(4).prefix(v), 3),
    "interleave_positions d0": (lambda v: interleave_positions(v, 2), 3),
    "block_offsets dims": (lambda v: block_offsets([2, v]), 3),
    "block_index_split k": (lambda v: block_index_split([2, 4], v), 3),
    "block_sum dims": (lambda v: block_sum(difference(4), [2, v], 1), 3),
    "half_split_maps dn": (lambda v: half_split_maps(difference(4), v), 3),
    "project A": (lambda v: project(difference(4), np.ones(4), (1, v)), 3),
    "sa_ratio A": (lambda v: sa_ratio(lindenstrauss(4), np.ones(4), (1, v)), 3),
    "witness_from_doc A": (lambda v: witness_from_doc({**DOC, "A": [1, v]}), 3),
    "interleave_pair side": (lambda v: interleave_pair([1.0, 1.0], [2], v, 3, 2), 1),
    "block_embed_pair r": (lambda v: block_embed_pair([1.0, -1.0], [2], (3, 2), v), 2),
    "growth_fit m": (lambda v: growth_fit([(v, 1.0), (4, 2.0), (8, 3.0), (16, 4.0)], LINEAR_TARGET), 3),
    "L_m_oracle guard": (lambda v: L_m_oracle(difference(4), 3, guard=v), 3),
    "lb_ladder guard": (lambda v: lb_ladder(difference(4), [2, 3], mode="oracle", guard=v), 3),
    "L_m_exact m": (lambda v: L_m_exact(difference(4), v), 3),
    "template_pairs m": (lambda v: template_pairs(("difference", 4), 4, v), 3),
    "k_m_exact m": (lambda v: k_m_exact(summing(4), v), 3),
}


def test_template_pairs_take_m_zero():
    # the interleave branch asks a part with no position in 1..m for its pairs
    assert template_pairs(("difference", 4), 4, 0) == []


@pytest.mark.parametrize("name", list(ACCEPTED))
@pytest.mark.parametrize("kind", [float, np.int64, np.float64])
def test_integral_argument_of_any_type_gives_the_int_result(name, kind):
    # 3.0 for a side or a block index, or for a length, used to raise a bare
    # TypeError; np.int64(3) was accepted
    run, n = ACCEPTED[name]
    assert _plain(run(kind(n))) == _plain(run(n))


# ---------------------------------------------------------------------------
# the integrality rule is written once, in _search.py
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "condgreedy"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "_search.py")
ALLOWED = {"reportio.py": {"format_cell"}}  # formats a bool cell, rejects nothing


def integrality_checkers(source: str) -> set:
    """Names of the top-level definitions (``<module>`` for other statements)
    that call ``.is_integer()`` or test ``isinstance(..., bool)``, alone or in
    a tuple of types."""
    def is_check(n) -> bool:
        if isinstance(n, ast.Attribute) and n.attr == "is_integer":
            return True
        if isinstance(n, ast.Call) and getattr(n.func, "id", "") == "isinstance" and len(n.args) == 2:
            types = n.args[1].elts if isinstance(n.args[1], ast.Tuple) else [n.args[1]]
            return any(getattr(t, "id", "") == "bool" for t in types)
        return False

    return {getattr(top, "name", "<module>") for top in ast.parse(source).body
            if any(is_check(n) for n in ast.walk(top))}


def test_scan_finds_planted_integrality_checks():
    source = ("def count(x):\n    return float(x).is_integer()\n"
              "def flag(x):\n    return isinstance(x, (int, bool))\n"
              "class C:\n    def f(self, x):\n        return isinstance(x, bool)\n"
              "def clean(x):\n    return isinstance(x, int) and bool(x)\n"
              "OK = isinstance(1.0, float) or (2.0).is_integer()\n")
    assert integrality_checkers(source) == {"count", "flag", "C", "<module>"}


@pytest.mark.parametrize("module", MODULES)
def test_integrality_is_checked_only_in_search(module):
    assert integrality_checkers((SRC / module).read_text()) <= ALLOWED.get(module, set())
