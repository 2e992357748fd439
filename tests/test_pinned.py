"""Pinned full results of every estimator route.

Each group hashes the complete results (value, coefficients, A, B, kind) of
one route on one basis at seeds 1 and 2, so a refactor that moves any value
or witness names the (basis, route) group that moved.  The hashes pin exact
floats: a numpy or BLAS build that rounds differently needs new pins.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from condgreedy import (
    L_m_estimate,
    L_m_oracle,
    Witness,
    almost_greedy_constant_lb,
    external_basis,
    k_m_estimate,
    lb_ladder,
    parse_basis,
    parse_space,
    quasi_greedy_constant_lb,
)

SEEDS = (1, 2)


def _external(space: str, d: int):
    rng = np.random.default_rng([11, d, len(space)])
    return external_basis(rng.standard_normal((d + 2, d)), parse_space(space), space)


# one basis per estimator tier: d <= 8 exhaustive, 9..12 exhaustive
# quasi-greedy in sign-table chunks and almost-greedy with exact
# denominators, > 12 random blocks (dense, and by event sweep on l1_pairs)
BASES = {
    "external lp:3": lambda: _external("lp:3", 7),
    "external bv": lambda: _external("bv", 10),
    "external lorentz": lambda: _external("lorentz:p=2,q=1", 13),
    "lindenstrauss:16": lambda: parse_basis("lindenstrauss:16"),
    "difference:10": lambda: parse_basis("difference:10"),
}

ROUTES = {
    "oracle": lambda b, s: [L_m_oracle(b, 4)],
    "L": lambda b, s: [L_m_estimate(b, 6, budget=256, seed=s)],
    "k": lambda b, s: [k_m_estimate(b, 3, budget=256, seed=s)],
    "ladder": lambda b, s: [r[1:] for r in lb_ladder(b, (2, 3, 5), budget=256, seed=s, guard=3)],
    "quasi-greedy": lambda b, s: [quasi_greedy_constant_lb(b, budget=256, seed=s)],
    "almost-greedy": lambda b, s: [almost_greedy_constant_lb(b, budget=256, seed=s)],
}

PINS = {
    ('external lp:3', 'oracle'): 'eebc5c869cb4',
    ('external lp:3', 'L'): '1b840708f543',
    ('external lp:3', 'k'): '577355406fd1',
    ('external lp:3', 'ladder'): 'cc7ea3734945',
    ('external lp:3', 'quasi-greedy'): 'f3b165f45208',
    ('external lp:3', 'almost-greedy'): '24fdb04da0e7',
    ('external bv', 'oracle'): '60703ffc892b',
    ('external bv', 'L'): 'b59621fadf54',
    ('external bv', 'k'): '0880d306d6f3',
    ('external bv', 'ladder'): 'e584b2f40c70',
    ('external bv', 'quasi-greedy'): 'a6433d97a714',
    ('external bv', 'almost-greedy'): '820f0306d651',
    ('external lorentz', 'oracle'): '5499878b5513',
    ('external lorentz', 'L'): '5e4b9cc5efe1',
    ('external lorentz', 'k'): '0a6a0695da33',
    ('external lorentz', 'ladder'): 'd8fc63265042',
    ('external lorentz', 'quasi-greedy'): '9eeb0faed18f',
    ('external lorentz', 'almost-greedy'): 'c267f1b36a4d',
    ('lindenstrauss:16', 'oracle'): '76f1aff56acc',
    ('lindenstrauss:16', 'L'): 'c5aa8b496a1f',
    ('lindenstrauss:16', 'k'): '4a5dd4fff185',
    ('lindenstrauss:16', 'ladder'): '3611d9eeac74',
    ('lindenstrauss:16', 'quasi-greedy'): 'bcfdf8a00f29',
    ('lindenstrauss:16', 'almost-greedy'): '0b5b20975923',
    ('difference:10', 'oracle'): '0e332e91d36c',
    ('difference:10', 'L'): '45dcd9a7fcd1',
    ('difference:10', 'k'): 'afdb8fae617a',
    ('difference:10', 'ladder'): '03e628e0f7a8',
    ('difference:10', 'quasi-greedy'): '57e341f0aa87',
    ('difference:10', 'almost-greedy'): '9a6a9667949c',
}
REDUCED_PIN = "110fbcf2d5be"


def _digest(results) -> str:
    material = repr([(float(v), w.coeffs, w.indices, w.b_indices, w.kind, w.ratio)
                     for v, w in results])
    return hashlib.sha256(material.encode()).hexdigest()[:12]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("basis", BASES)
def test_pinned_results(basis, route):
    b = BASES[basis]()
    got = _digest([res for s in SEEDS for res in ROUTES[route](b, s)])
    assert got == PINS[basis, route], f"{basis} / {route} moved"


def test_pinned_reduced_oracle():
    """5^11 pairs lie past the full grid, so the oracle samples its pairs."""
    assert _digest([L_m_oracle(_external("bv", 11), 11)]) == REDUCED_PIN


# ---------------------------------------------------------------------------
# floor witnesses: on a unit basis no route beats f = e_1
# ---------------------------------------------------------------------------


def _e1(d: int) -> tuple:
    return (1.0,) + (0.0,) * (d - 1)


@pytest.mark.parametrize("d", (6, 10, 14))
def test_greedy_floor_witnesses(d):
    val, wit = quasi_greedy_constant_lb(parse_basis(f"unit:{d}@lp:2"), budget=256, seed=1)
    assert (val, wit) == (1.0, Witness(_e1(d), (), 1.0, "quasi-greedy"))
    val, wit = almost_greedy_constant_lb(parse_basis(f"unit:{d}@lp:1"), budget=256, seed=1)
    assert (val, wit) == (1.0, Witness(_e1(d), (), 1.0, "almost-greedy", ()))


@pytest.mark.parametrize("m", (1, 4, 8))
def test_oracle_floor_witness(m):
    val, wit = L_m_oracle(parse_basis("unit:8@lp:2"), m)
    assert (val, wit) == (1.0, Witness(_e1(8), tuple(range(1, m + 1)), 1.0, "oracle"))


def test_estimate_floor_witnesses():
    b = parse_basis("unit:8@lp:2")
    for m in (2, 5):
        assert k_m_estimate(b, m, budget=256, seed=1) == (1.0, Witness(_e1(8), (1,), 1.0, "random"))
    val, wit = L_m_estimate(b, 5, budget=64, seed=1)
    assert (val, wit) == (1.0, Witness(_e1(8), (1, 2, 3, 4, 5), 1.0, "random"))
