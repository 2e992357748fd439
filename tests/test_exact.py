"""The exact L_m and k_m witnesses against independent references.

``L_m_exact`` and ``k_m_exact`` compute L_m and k_m exactly, by the same DPs
(``_exact``).  Each recipe is held to a
reference that shares nothing with them: the enumeration of ||C D_A C^-1||
over the sets A for the chain recipes (difference in l1, summing in c0), a
vertex enumeration of the unit ball and ``L_m_oracle`` for Lindenstrauss,
and the oracle for unit vectors, interleaves and block sums.  An exact value
is at least the oracle's, and its witness scores the value bitwise.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from condgreedy import (
    L_m_estimate,
    L_m_exact,
    L_m_oracle,
    external_basis,
    k_m_estimate,
    k_m_exact,
    lb_ladder,
    lindenstrauss,
    parse_basis,
    parse_space,
    sa_ratio,
    template_pairs,
    verify_witness,
)
from condgreedy import conditionality as cond_mod
from condgreedy._search import all_subset_masks


def _inverse(C) -> list:
    """The inverse of the square matrix C in Fractions (Gauss-Jordan)."""
    n = len(C)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(C)]
    for k in range(n):
        piv = next(i for i in range(k, n) if rows[i][k] != 0)
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(n):
            if i != k and rows[i][k] != 0:
                rows[i] = [x - rows[i][k] * y for x, y in zip(rows[i], rows[k])]
    return [row[n:] for row in rows]


def _check_exact(b, m, reference=None):
    """Run ``L_m_exact(b, m)``: the witness lives in 1..m, is dyadic, and scores
    the value in floats; the value is at least ``reference``."""
    val, wit = L_m_exact(b, m)
    assert wit.kind == "exact" and wit.ratio == val
    assert verify_witness(b, wit) == val
    assert set(wit.indices) <= set(range(1, m + 1))
    assert not any(wit.coeffs[m:])
    assert all(Fraction(c).denominator & (Fraction(c).denominator - 1) == 0 for c in wit.coeffs)
    if reference is not None:
        assert val >= reference
    return val, wit


def _check_k(b, m) -> float:
    """Run ``k_m_exact(b, m)`` (support 1..d, |A| <= m): the value is the DP's,
    and its witness is dyadic and scores the value bitwise."""
    val, wit = k_m_exact(b, m)
    assert val == cond_mod._exact(b.recipe, b.d, b.d, m)[0]
    assert wit.kind == "exact" and wit.ratio == val
    assert verify_witness(b, wit) == val
    assert len(wit.indices) <= m and set(wit.indices) <= set(range(1, b.d + 1))
    assert all(Fraction(c).denominator & (Fraction(c).denominator - 1) == 0 for c in wit.coeffs)
    return val


# ---------------------------------------------------------------------------
# chain recipes: enumeration of ||C D_A C^-1|| over the sets A
# ---------------------------------------------------------------------------


def _chain_operator_norms(recipe: str, axis: int, m: int):
    """(|A|, ||C D_A C^-1||) of every subset A of 1..m on the square m-prefix:
    the largest column sum (l1, axis 0) or row sum (c0, axis 1); C^-1 is
    integral here, so the enumeration runs exactly in integers."""
    C = parse_basis(f"{recipe}:12").prefix(m).columns
    assert C.shape == (m, m)
    inv = _inverse(C.tolist())
    assert all(x.denominator == 1 for row in inv for x in row)
    C, inv = C.astype(np.int64), np.array(inv, dtype=np.int64)
    masks = all_subset_masks(m).astype(np.int64)
    ops = np.einsum("ij,aj,jk->aik", C, masks, inv)
    return masks.sum(axis=1), np.abs(ops).sum(axis=1 + axis).max(axis=1)


@pytest.mark.parametrize("recipe,axis", [("difference", 0), ("summing", 1)], ids=["l1", "c0"])
@pytest.mark.parametrize("m", range(1, 13))
def test_chain_exact_equals_the_subset_enumeration(recipe, axis, m):
    # the m-prefix C is square: L_m = max over A of ||C D_A C^-1||
    brute = int(_chain_operator_norms(recipe, axis, m)[1].max())
    value, _, _, exact = cond_mod._exact((recipe, 12), 12, m, m)
    assert exact and value == Fraction(brute) == m
    assert _check_exact(parse_basis(f"{recipe}:12"), m)[0] == brute


@pytest.mark.parametrize("recipe,axis", [("difference", 0), ("summing", 1)], ids=["l1", "c0"])
@pytest.mark.parametrize("d", range(1, 11))
def test_chain_k_equals_the_subset_enumeration(recipe, axis, d):
    # the d-prefix is the whole basis: k_m = max over |A| <= m of ||C D_A C^-1||
    sizes, norms = _chain_operator_norms(recipe, axis, d)
    for m in range(1, d + 1):
        brute = int(norms[sizes <= m].max())
        assert brute == min(2 * m, d)
        assert _check_k(parse_basis(f"{recipe}:{d}"), m) == brute


# ---------------------------------------------------------------------------
# Lindenstrauss: the tree DP against vertex enumeration and the oracle
# ---------------------------------------------------------------------------


def _vertex_maximum(m: int, c: int | None = None) -> float:
    """max ||S_A f||_1 / ||f|| over the vertices f of the unit ball of the
    Lindenstrauss m-prefix and every A with |A| <= c (any A by default): each
    vertex is the null direction of m - 1 independent rows of C."""
    C = lindenstrauss(m).prefix(m).columns
    subsets = np.array(list(itertools.combinations(range(C.shape[0]), m - 1)), dtype=np.intp)
    sub = C[subsets] if m > 1 else np.zeros((1, 0, 1))
    _, s, vt = np.linalg.svd(sub)
    rank = (s > 1e-9).sum(axis=1) if m > 1 else np.zeros(1, dtype=int)
    dirs = vt[rank == m - 1, -1, :]
    masks = all_subset_masks(m)
    masks = masks[masks.sum(axis=1) <= (m if c is None else c)]
    kept = np.abs(np.einsum("ij,aj,vj->vai", C, masks, dirs)).sum(axis=2)
    return float((kept.max(axis=1) / np.abs(dirs @ C.T).sum(axis=1)).max())


@pytest.mark.parametrize("m", range(1, 8))
def test_lindenstrauss_exact_equals_the_vertex_enumeration(m):
    val, _ = _check_exact(lindenstrauss(m), m)
    assert val == pytest.approx(_vertex_maximum(m), rel=1e-9)


@pytest.mark.parametrize("m", range(1, 11))
def test_lindenstrauss_exact_reaches_the_oracle(m):
    b = lindenstrauss(10)
    oracle, _ = L_m_oracle(b, m)
    val, _ = _check_exact(b, m, reference=oracle)
    assert val == oracle  # the oracle's grid and ascent already reach it here


def test_lindenstrauss_exact_staircase():
    b = lindenstrauss(64)
    got = [_check_exact(b, m)[0] for m in (4, 8, 16, 32, 64)]
    assert got == [1.25, 2.0, 33 / 16, 3.0, 193 / 64]
    assert [cond_mod._exact(("lindenstrauss", n), n, n, n)[0] for n in (128, 256, 512)] == [
        4, Fraction(1025, 256), 5]


@pytest.mark.parametrize("d", range(1, 9))
def test_lindenstrauss_k_equals_the_vertex_enumeration(d):
    b = lindenstrauss(d)
    for m in range(1, d + 1):
        assert _check_k(b, m) == pytest.approx(_vertex_maximum(d, m), rel=1e-9)


def test_lindenstrauss_k_staircase():
    b = lindenstrauss(64)
    assert [_check_k(b, m) for m in (2, 4, 8, 16, 32)] == [5 / 4, 7 / 4, 35 / 16, 43 / 16, 193 / 64]
    # the seeded k estimate starts from that witness and ends on it
    assert [k_m_estimate(b, m, budget=16, seed=1)[0] for m in (2, 8)] == [5 / 4, 35 / 16]


# ---------------------------------------------------------------------------
# unit vectors and combinators against the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", ["unit:6@lp:1", "unit:6@lp:2", "unit:6@c0:6"])
def test_unit_exact_is_one(spec):
    b = parse_basis(spec)
    for m in range(1, 7):
        assert _check_exact(b, m, reference=L_m_oracle(b, m)[0])[0] == 1.0


@pytest.mark.parametrize("spec", ["interleave(lindenstrauss:4,summing:4)",
                                  "blocksum(summing:4,dims=2..4,p=2)",
                                  "blocksum(difference:4,dims=2..4,p=0)"])
def test_combinator_exact_reaches_the_oracle(spec):
    b = parse_basis(spec)
    for m in range(1, 9):
        _check_exact(b, m, reference=L_m_oracle(b, m)[0])


def test_combinator_exact_is_the_largest_part():
    b = parse_basis("blocksum(lindenstrauss,dims=2^1..2^6,p=3)")
    # 1..30 holds the blocks of length 2, 4, 8 and 16 in full; the largest L is L_16
    val, wit = _check_exact(b, 30)
    assert val == 33 / 16 and set(wit.indices) <= set(range(15, 31))


@pytest.mark.parametrize("spec", ["pqhalf(lindenstrauss,dims=2^1..2^2,p=1,q=1)",
                                  "unit:6@bv", "interleave(difference:3,unit:3@bv)",
                                  "blocksum(unit:3@bv,dims=1..3,p=1)"])
def test_no_exact_route(spec):
    b = parse_basis(spec)
    assert L_m_exact(b, b.d) is None
    # k_m takes support 1..d, so a routeless part anywhere leaves no k route
    assert [k_m_exact(b, m) for m in range(1, b.d + 1)] == [None] * b.d


def test_routeless_part_keeps_the_template_of_the_routed_part():
    # unit on BV has no route, so L_m_exact gives nothing, but the
    # difference side still gives the template of the seeded search
    b = parse_basis("interleave(difference:6,unit:6@bv)")
    assert L_m_exact(b, 12) is None
    (a, A), = template_pairs(b.recipe, b.d, 12)
    assert sa_ratio(b, a, A) == 6.0 and set(A) <= set(range(1, 12, 2))
    assert L_m_estimate(b, 12, budget=64, seed=1)[0] == 6.0
    _, a, A, exact = cond_mod._exact(b.recipe, b.d, b.d, 2)
    assert sa_ratio(b, a, A) == 4.0 and len(A) == 2 and not exact
    assert k_m_exact(b, 2) is None
    assert template_pairs(parse_basis("unit:6@bv").recipe, 6, 6) == []


def test_no_exact_route_on_external_or_prefix_bases():
    b = parse_basis("difference:6")
    ext = external_basis(b.columns, parse_space("lp:1"), "ext")
    assert L_m_exact(ext, 4) is None and k_m_exact(ext, 4) is None
    assert L_m_exact(b.prefix(5), 4) is None and k_m_exact(b.prefix(5), 4) is None


def test_the_dps_import_no_fractions():
    # fractions brings decimal, about 2 ms of every fresh interpreter; the
    # DPs run in ints and dyadic floats, so no estimate path needs it
    code = ("import sys\nfrom condgreedy import L_m_estimate, lindenstrauss\n"
            "L_m_estimate(lindenstrauss(16), 8, budget=64)\n"
            "print('fractions' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_exact_route_raises_when_floats_disagree(monkeypatch):
    real = cond_mod.verify_witness
    monkeypatch.setattr(cond_mod, "verify_witness", lambda b, w: np.nextafter(real(b, w), 9.0))
    with pytest.raises(ArithmeticError, match="exact L_4"):
        L_m_exact(parse_basis("summing:6"), 4)
    with pytest.raises(ArithmeticError, match="exact k_2"):
        k_m_exact(parse_basis("summing:6"), 2)


# ---------------------------------------------------------------------------
# ladders
# ---------------------------------------------------------------------------


def test_auto_ladder_is_exact_past_the_guard():
    b = lindenstrauss(64)
    for budget, seed in ((None, 1), (16, 7)):
        ladder = lb_ladder(b, (4, 8, 16, 32, 64), budget=budget, seed=seed, guard=8)
        assert [(v, w.kind) for _, v, w in ladder] == [
            (v, "exact") for v in (1.25, 2.0, 2.0625, 3.0, 3.015625)]


PQ14 = "pqhalf(lindenstrauss,dims=2^1..2^3,p=1,q=1)"  # d = 14, no exact route
ROUTE_GUARD = 4
# the route of one rung under guard 4 and no budget, at m = 3 (inside the
# guard), 5 (past it) and d; "search" is a witness of kind template or random
ROUTES = [
    ("auto", "L", "difference:20", ("exact", "exact", "exact")),
    ("auto", "k", "difference:20", ("exact", "exact", "exact")),
    ("oracle", "L", "difference:20", ("exact", "exact", "exact")),
    ("oracle", "k", "difference:20", ("exact", "exact", "exact")),
    ("estimate", "L", "difference:20", ("exact", "search", "search")),
    ("estimate", "k", "difference:20", ("search", "search", "search")),
    ("auto", "L", PQ14, ("oracle", "search", "search")),
    ("auto", "k", PQ14, ("search", "search", "search")),
    ("oracle", "L", PQ14, ("oracle", "refused", "refused")),
    ("oracle", "k", PQ14, ("refused", "refused", "refused")),
    ("estimate", "L", PQ14, ("oracle", "search", "search")),
    ("estimate", "k", PQ14, ("search", "search", "search")),
]


@pytest.mark.parametrize("mode,kind,spec,rung,route", [
    pytest.param(mode, kind, spec, rung, route, id=f"{mode}-{kind}-{spec.split('(')[0]}-{rung}")
    for mode, kind, spec, routes in ROUTES
    for rung, route in zip(("inside", "past", "d"), routes)])
def test_ladder_route_rule(mode, kind, spec, rung, route):
    b = parse_basis(spec)
    m = {"inside": 3, "past": 5, "d": b.d}[rung]
    try:
        [(_, _, w)] = lb_ladder(b, (m,), kind=kind, mode=mode, seed=1, guard=ROUTE_GUARD)
    except cond_mod.ConditionalityError as exc:
        why = "" if kind == "k" else f" on {b.label} and exceeds guard {ROUTE_GUARD}"
        assert f"the {kind} rung m={m} has no exact route{why}" in str(exc)
        assert route == "refused"
    else:
        assert {"template": "search", "random": "search"}.get(w.kind, w.kind) == route


def test_refused_oracle_ladder_runs_no_oracle(monkeypatch):
    # every rung is routed before the first runs: the first refused one is
    # named and the rungs before it never reach the oracle
    calls = []
    real = cond_mod.L_m_oracle
    monkeypatch.setattr(cond_mod, "L_m_oracle", lambda *a, **k: calls.append(a) or real(*a, **k))
    pq = parse_basis(PQ14)
    with pytest.raises(cond_mod.ConditionalityError, match="m=13 has no exact route.*exceeds guard 12"):
        lb_ladder(pq, (2, 13), mode="oracle")
    with pytest.raises(cond_mod.ConditionalityError, match="the k rung m=2 has no exact route"):
        lb_ladder(pq, (2, 3), kind="k", mode="oracle")
    assert calls == []
    # an exact route is taken at any m, past the default guard too
    ladder = lb_ladder(parse_basis("difference:20"), range(2, 21), mode="oracle")
    assert [(m, v, w.kind) for m, v, w in ladder] == [(m, m, "exact") for m in range(2, 21)]
    assert [(m, w.kind) for m, _, w in lb_ladder(pq, (2, 3), mode="oracle")] == [
        (2, "oracle"), (3, "oracle")]
    assert len(calls) == 2


def test_estimate_and_k_ladders_and_routeless_bases_still_search():
    # mode "estimate" skips the exact route of L and k rungs alike below 5^m,
    # and a k rung with no exact route searches in mode "auto"
    b = parse_basis("difference:6")
    for kind in ("L", "k"):
        ladder = lb_ladder(b, (2, 6), kind=kind, mode="estimate", budget=16)
        assert "exact" not in {w.kind for _, _, w in ladder}
    pq = parse_basis("pqhalf(lindenstrauss,dims=2^1..2^2,p=1,q=1)")
    assert [w.kind for _, _, w in lb_ladder(pq, (2, 3), mode="oracle")] == ["oracle", "oracle"]
    assert "exact" not in {w.kind for _, _, w in lb_ladder(pq, (2, 3), kind="k", budget=16)}


@pytest.mark.parametrize("mode", ["auto", "oracle"])
def test_k_ladder_is_exact(mode):
    # the k staircase of the Lindenstrauss block of length 64, by k_m_exact at every rung
    b = lindenstrauss(64)
    ladder = lb_ladder(b, (2, 4, 8, 16, 32), kind="k", mode=mode, seed=1)
    assert [(Fraction(v), w.kind) for _, v, w in ladder] == [
        (Fraction(n, d), "exact") for n, d in ((5, 4), (7, 4), (35, 16), (43, 16), (193, 64))]
    assert [verify_witness(b, w) for _, _, w in ladder] == [v for _, v, _ in ladder]
