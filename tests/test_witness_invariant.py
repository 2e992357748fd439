"""Every reported value is, bitwise, the ``verify_witness`` ratio of its own
witness: ``conditionality._Best`` scores each witness it keeps, so no route
reports a search value that its witness does not give."""

from __future__ import annotations

import numpy as np
import pytest

from condgreedy import (
    L_m_estimate,
    L_m_exact,
    L_m_oracle,
    almost_greedy_constant_lb,
    external_basis,
    k_m_estimate,
    k_m_exact,
    lb_ladder,
    lindenstrauss,
    parse_basis,
    parse_space,
    quasi_greedy_constant_lb,
    verify_witness,
)


def _external(space: str, d: int):
    rng = np.random.default_rng([11, d, len(space)])
    return external_basis(rng.standard_normal((d + 2, d)), parse_space(space), space)


# recipes, pqhalf, a block sum, an interleave and external bases; by d they
# reach every quasi-greedy tier (d <= 12 sign grid, dense and swept random
# blocks) and every almost-greedy tier (d <= 8, exact denominators, candidates)
BASES = {
    "summing:8": lambda: parse_basis("summing:8"),
    "difference:10": lambda: parse_basis("difference:10"),
    "lindenstrauss:16": lambda: parse_basis("lindenstrauss:16"),
    "pqhalf": lambda: parse_basis("pqhalf(lindenstrauss,dims=2^1..2^3,p=1,q=1)"),
    "blocksum": lambda: parse_basis("blocksum(lindenstrauss,dims=2^1..2^4,p=1)"),
    "interleave": lambda: parse_basis("interleave(difference:8,unit:8@lp:2)"),
    "external lp:1": lambda: _external("lp:1", 14),
    "external lp:3": lambda: _external("lp:3", 7),
    "external bv": lambda: _external("bv", 10),
    "external lorentz": lambda: _external("lorentz:p=2,q=1", 13),
}

EXACT_ROUTES = {
    "L_m_exact": lambda b: [L_m_exact(b, 5)],
    "k_m_exact": lambda b: [k_m_exact(b, 3)],
    "L_m_oracle": lambda b: [L_m_oracle(b, 4)],
}

SEEDED_ROUTES = {
    "L_m_estimate": lambda b, s: [L_m_estimate(b, 6, budget=256, seed=s)],
    "L_m_estimate guard=1": lambda b, s: [L_m_estimate(b, 3, budget=256, seed=s, guard=1)],
    "k_m_estimate": lambda b, s: [k_m_estimate(b, 3, budget=256, seed=s)],
    "lb_ladder auto": lambda b, s: [r[1:] for r in lb_ladder(b, (2, 3, 5), budget=256, seed=s,
                                                             guard=3)],
    "lb_ladder oracle": lambda b, s: [r[1:] for r in lb_ladder(b, (2, 4), mode="oracle")],
    "lb_ladder estimate": lambda b, s: [r[1:] for r in lb_ladder(b, (2, 5), mode="estimate",
                                                                 budget=256, seed=s)],
    "lb_ladder k": lambda b, s: [r[1:] for r in lb_ladder(b, (2, 3), kind="k", budget=256,
                                                          seed=s)],
    "quasi-greedy": lambda b, s: [quasi_greedy_constant_lb(b, budget=256, seed=s)],
    "almost-greedy": lambda b, s: [almost_greedy_constant_lb(b, budget=256, seed=s)],
}


def _results(b):
    for name, run in EXACT_ROUTES.items():
        yield name, run(b)
    for name, run in SEEDED_ROUTES.items():
        for seed in (1, 2, 3):
            yield f"{name} seed={seed}", run(b, seed)


@pytest.mark.parametrize("basis", BASES)
def test_every_value_is_its_witness_verified_bitwise(basis):
    b = BASES[basis]()
    for route, results in _results(b):
        for res in results:
            if res is None:  # no exact route on this basis
                continue
            val, wit = res
            assert val == wit.ratio == verify_witness(b, wit), (basis, route, val)


def test_search_estimate_is_not_above_its_witness():
    # the search once reported 1.0000000000000002 here, one ulp above what
    # its witness gives; L_3 = 1
    b = lindenstrauss(16)
    val, wit = L_m_estimate(b, 3, budget=256, seed=1, guard=1)
    assert val == wit.ratio == verify_witness(b, wit) == 1.0
