"""Greedy sets, projections, constants, fundamental function, democracy."""

from __future__ import annotations

import functools
import hashlib
import math
import tracemalloc
from itertools import chain, combinations, islice

import numpy as np
import pytest

from condgreedy import (
    C0Trunc,
    GreedyError,
    Lp,
    almost_greedy_constant_lb,
    democracy_ratio,
    difference,
    fundamental_function,
    greedy_sets,
    lindenstrauss,
    norm,
    project,
    quasi_greedy_constant_lb,
    summing,
    unit_vector_system,
    verify_witness,
    Witness,
)
from condgreedy import _search as search_mod
from condgreedy import greedy as greedy_mod
from condgreedy._search import (
    ASCENT_TOL,
    MAX_SWEEPS,
    SIGN_VALUES,
    all_subset_masks,
    ascend,
    digit_rows,
    scale_moves,
    sign_rows,
)
from condgreedy.bases import BasisTruncation, external_basis, parse_basis
from condgreedy.greedy import (
    QG_EXHAUSTIVE_MAX_D,
    _ag_denominators,
    _ag_exhaustive,
    _ag_random_block,
    _kept_norms_form,
    _last_gain,
    _min_denominators,
    _prefix_residual_ratios,
    _qg_exhaustive,
    _qg_ratios,
    _sum_norm_extremum,
    _swept_ratios,
)
from condgreedy.spaces import norms, parse_space

# measured once on the exhaustive tier and pinned; any drift is a regression
QG_LIND8 = 1.25
QG_SUMMING8 = 4.0
AG_LIND8 = 12.0 / 7.0
AG_SUMMING8 = 5.0
DEM_LIND10 = {2: 4.0 / 3.0, 5: 5.0 / 3.0, 10: 13.0 / 11.0}
PHI_LIND12 = {1: 2.0, 6: 12.0, 12: 16.0}


# ---------------------------------------------------------------------------
# greedy sets and projections
# ---------------------------------------------------------------------------


def test_greedy_sets_canonical():
    fam = greedy_sets([3.0, -1.0, 2.0], 2)
    assert fam.canonical == (1, 3)
    assert fam.all_sets is None and fam.count == 1


def test_greedy_sets_all_enumerates_ties():
    fam = greedy_sets([1.0, -1.0, 2.0], 2, mode="all")
    assert fam.all_sets == ((1, 3), (2, 3))
    assert fam.count == 2
    assert fam.canonical in fam.all_sets


def test_greedy_sets_empty():
    fam = greedy_sets([1.0, 2.0], 0, mode="all")
    assert fam.canonical == ()
    assert fam.all_sets == ((),)


def test_greedy_sets_tie_order_prefers_low_index():
    fam = greedy_sets([2.0, -2.0, 2.0], 2)
    assert fam.canonical == (1, 2)


def test_greedy_sets_validation():
    with pytest.raises(GreedyError):
        greedy_sets([1.0, 2.0], 3)
    with pytest.raises(GreedyError):
        greedy_sets([1.0, 2.0], -1)
    with pytest.raises(GreedyError):
        greedy_sets(np.ones((2, 2)), 1)
    with pytest.raises(GreedyError):
        greedy_sets([1.0, 2.0], 1, mode="bogus")


def test_project_example():
    b = difference(3)
    got = project(b, np.ones(3), (1, 3))
    assert np.array_equal(got, [1.0, -1.0, 1.0])
    assert np.abs(got).sum() == 3.0


def test_project_empty_set_is_zero():
    b = difference(3)
    assert np.array_equal(project(b, np.ones(3), ()), np.zeros(3))


def test_project_validation():
    b = difference(3)
    with pytest.raises(GreedyError, match="integers"):
        project(b, np.ones(3), (2.7,))  # once equal to project(b, ones, (2,))
    with pytest.raises(GreedyError):
        project(b, np.ones(3), (1, 1))
    with pytest.raises(GreedyError):
        project(b, np.ones(3), (0,))
    with pytest.raises(GreedyError):
        project(b, np.ones(3), (4,))
    with pytest.raises(GreedyError):
        project(b, np.ones(2), (1,))


# ---------------------------------------------------------------------------
# quasi-greedy constant
# ---------------------------------------------------------------------------


def test_qg_unit_system_is_unconditional():
    val, wit = quasi_greedy_constant_lb(unit_vector_system(8, Lp(2.0)))
    assert val == pytest.approx(1.0, abs=1e-12)
    assert verify_witness(unit_vector_system(8, Lp(2.0)), wit) == pytest.approx(val)


def test_qg_lindenstrauss8_pinned():
    b = lindenstrauss(8)
    val, wit = quasi_greedy_constant_lb(b)
    assert val == pytest.approx(QG_LIND8, rel=1e-12)
    assert verify_witness(b, wit) == pytest.approx(val, rel=1e-12)


def test_qg_summing8_pinned():
    b = summing(8)
    val, wit = quasi_greedy_constant_lb(b)
    assert val == pytest.approx(QG_SUMMING8, rel=1e-12)
    assert val >= 2.0
    assert verify_witness(b, wit) == pytest.approx(val, rel=1e-12)


def test_qg_witness_is_greedy_set():
    _, wit = quasi_greedy_constant_lb(summing(8))
    a = np.abs(np.asarray(wit.coeffs))
    inside = a[[i - 1 for i in wit.indices]]
    outside = np.delete(a, [i - 1 for i in wit.indices])
    assert inside.min() >= outside.max()


def test_qg_floor_is_one():
    # the empty greedy set always realises ratio 1
    val, _ = quasi_greedy_constant_lb(difference(6))
    assert val >= 1.0


def test_qg_budget_monotone_same_seed():
    b = lindenstrauss(16)
    lo, _ = quasi_greedy_constant_lb(b, budget=256, seed=42)
    hi, _ = quasi_greedy_constant_lb(b, budget=1024, seed=42)
    assert hi >= lo


def test_qg_seed_reproducible():
    b = lindenstrauss(16)
    a = quasi_greedy_constant_lb(b, budget=512, seed=7)[0]
    c = quasi_greedy_constant_lb(b, budget=512, seed=7)[0]
    assert a == c


def test_qg_grid_tier_runs():
    # d between 9 and 12 runs the exhaustive sign-table sweep in chunks
    val, wit = quasi_greedy_constant_lb(lindenstrauss(9), seed=1)
    assert val > 1.0
    assert verify_witness(lindenstrauss(9), wit) == pytest.approx(val, rel=1e-12)


# ---------------------------------------------------------------------------
# almost-greedy constant
# ---------------------------------------------------------------------------


def test_ag_unit_system():
    val, _ = almost_greedy_constant_lb(unit_vector_system(8, Lp(2.0)))
    assert val == pytest.approx(1.0, abs=1e-12)


def test_ag_lindenstrauss8_pinned():
    b = lindenstrauss(8)
    val, wit = almost_greedy_constant_lb(b)
    assert val == pytest.approx(AG_LIND8, rel=1e-12)
    assert verify_witness(b, wit) == pytest.approx(val, rel=1e-12)
    assert wit.b_indices is not None
    assert len(wit.b_indices) <= len(wit.indices)


def test_ag_summing8_pinned():
    val, wit = almost_greedy_constant_lb(summing(8))
    assert val == pytest.approx(AG_SUMMING8, rel=1e-12)
    assert verify_witness(summing(8), wit) == pytest.approx(val, rel=1e-12)


def test_ag_at_most_qg_plus_floor_relation():
    # the almost-greedy denominator minimises over B, so ag <= qg never holds
    # in general, but both are >= 1 and finite on these systems
    for b in (difference(8), summing(8), lindenstrauss(8)):
        val, _ = almost_greedy_constant_lb(b)
        assert np.isfinite(val) and val >= 1.0


def test_ag_search_tier_reproducible():
    b = lindenstrauss(16)
    a = almost_greedy_constant_lb(b, budget=256, seed=5)[0]
    c = almost_greedy_constant_lb(b, budget=256, seed=5)[0]
    assert a == c
    assert np.isfinite(a) and a >= 1.0


@pytest.mark.parametrize("d", [9, 12])
def test_ag_exact_denominators_match_brute_force(d):
    b = lindenstrauss(d)
    masks = all_subset_masks(d)
    sizes = masks.sum(axis=1).astype(np.int64)
    rng = np.random.default_rng(d)
    for _ in range(3):
        a = rng.uniform(0.5, 2.0, d) * rng.choice([-1.0, 1.0], d)
        nrm = b.synth_norms((1.0 - masks) * a)
        got, first = _min_denominators(nrm, sizes, d)
        # per size t, min ||f - S_B f|| over |B| == t, one vector at a time
        by_size = []
        for t in range(d + 1):
            vals = []
            for B in combinations(range(d), t):
                f_minus = a.copy()
                f_minus[list(B)] = 0.0
                vals.append(norm(b.space, b.synth(f_minus)))
            by_size.append(min(vals))
        for m in range(d + 1):
            assert got[m] == pytest.approx(min(by_size[: m + 1]), rel=1e-12)
            # the handed-back B: the first set of size <= m attaining the minimum
            code = first(m)
            assert sizes[code] <= m and nrm[code] == got[m]
            assert not ((sizes[:code] <= m) & (nrm[:code] == got[m])).any()


def test_ag_exact_denominator_tier_reverifies():
    b = lindenstrauss(9)
    val, wit = almost_greedy_constant_lb(b, budget=256, seed=4)
    assert val > 1.0
    assert len(wit.b_indices) <= len(wit.indices)
    assert verify_witness(b, wit) == pytest.approx(val, rel=1e-12)


# (spec, seed) -> (value, A, B) measured on the exact tiers and pinned: the
# comparison set B is part of the certificate, so it must not drift either
AG_EXACT_PINS = {
    ("lindenstrauss:8", None): (1.7142857142857142, (2, 3), (4, 8)),
    ("lindenstrauss:12", 1): (1.7357045936923563, (1, 4, 5, 6, 7, 9, 10, 11, 12),
                              (4, 5, 6, 7, 8, 9, 10, 11, 12)),
    ("lindenstrauss:12", 2): (1.7591047578117858, (1, 2, 4, 5, 6, 12), (1, 3, 6, 7, 9, 12)),
    ("lindenstrauss:12", 3): (1.8026664268459551, (1, 2, 3, 8, 11), (7, 8, 9, 10, 11)),
    ("summing:10", 1): (6.715694291122727, (1, 4, 8), (2, 7, 9)),
    ("summing:10", 2): (6.670412364512161, (3, 6, 9), (1,)),
    ("summing:10", 3): (6.717873674596702, (2, 4, 6, 8), (5, 6, 10)),
    ("difference:11", 1): (4.73649758785744, (1, 2, 4, 5, 6, 7, 8, 10),
                           (4, 5, 6, 7, 8, 9, 10, 11)),
    ("difference:11", 2): (4.709235321122248, (1, 2, 3, 6, 8, 9, 10), (5, 6, 7, 8, 9, 10, 11)),
    ("difference:11", 3): (5.669789473340988, (1, 3, 5, 7, 9), (7, 8, 9, 10, 11)),
    # no block beats the floor witness f = x_1, A = B = empty
    ("unit:10@lp:1", 1): (1.0, (), ()),
    ("unit:10@lp:1", 2): (1.0, (), ()),
    ("unit:10@lp:1", 3): (1.0, (), ()),
    ("blocksum(lindenstrauss,dims=5..6,p=1)", 1): (1.776975101045381, (1, 2, 3, 4, 6, 9, 10, 11),
                                                   (1, 2, 3, 4, 5, 9, 10, 11)),
    ("blocksum(lindenstrauss,dims=5..6,p=1)", 2): (1.6276663777816238, (2, 3, 6, 7, 8, 9, 11),
                                                   (3, 6, 7, 8, 9, 10, 11)),
    ("blocksum(lindenstrauss,dims=5..6,p=1)", 3): (1.6111238764602986,
                                                   (1, 4, 5, 6, 8, 9, 10, 11),
                                                   (4, 5, 6, 7, 8, 9, 10, 11)),
}


@pytest.mark.parametrize("spec,seed", list(AG_EXACT_PINS))
def test_ag_exact_tiers_pinned(spec, seed):
    b = parse_basis(spec)
    if seed is None:
        val, wit = almost_greedy_constant_lb(b)
    else:
        val, wit = almost_greedy_constant_lb(b, budget=512, seed=seed)
    want, A, B = AG_EXACT_PINS[(spec, seed)]
    assert val == pytest.approx(want, rel=1e-12)
    assert (wit.indices, wit.b_indices) == (A, B)
    # the reported value is its own witness's re-verified ratio, to the bit
    assert verify_witness(b, wit) == val


# (spec) -> (value, A, B, coefficient digest) of the candidate-search tier
# (d > 12) at budget 512, seed 1, measured and pinned
AG_CANDIDATE_PINS = {
    "lindenstrauss:14": (1.4769512440993853, (2, 3, 5, 10), (8, 9, 10, 14), "6f8ef94762332135"),
    "summing:16": (4.6636295511440515, (2, 3, 4, 5, 7, 10, 12, 15), (1, 2, 3, 5, 8, 11, 12, 15),
                   "aca35ce15fe2df4b"),
}


@pytest.mark.parametrize("spec", list(AG_CANDIDATE_PINS))
def test_ag_candidate_tier_pinned(spec):
    b = parse_basis(spec)
    val, wit = almost_greedy_constant_lb(b, budget=512, seed=1)
    want, A, B, digest = AG_CANDIDATE_PINS[spec]
    assert val == want
    assert (wit.indices, wit.b_indices) == (A, B)
    assert _coeff_digest(wit.coeffs) == digest
    assert verify_witness(b, wit) == val


def test_ag_witness_reverifies_on_search_tier():
    b = lindenstrauss(14)
    val, wit = almost_greedy_constant_lb(b, budget=256, seed=9)
    # reverification recomputes num/denom from the stored (f, A, B)
    assert verify_witness(b, wit) == pytest.approx(val, rel=1e-9)


# ---------------------------------------------------------------------------
# fundamental function and democracy
# ---------------------------------------------------------------------------


def test_phi_unit_l1_is_m():
    b = unit_vector_system(10, Lp(1.0))
    for m in range(1, 11):
        assert fundamental_function(b, m) == pytest.approx(float(m), rel=1e-15)


def test_phi_unit_sup_is_one():
    b = unit_vector_system(10, C0Trunc(10))
    for m in (1, 5, 10):
        assert fundamental_function(b, m) == pytest.approx(1.0, rel=1e-15)


def test_phi_lindenstrauss12_pinned():
    b = lindenstrauss(12)
    for m, want in PHI_LIND12.items():
        assert fundamental_function(b, m) == pytest.approx(want, rel=1e-12)


def test_phi_lindenstrauss12_stays_in_linear_band():
    b = lindenstrauss(12)
    for m in range(1, 13):
        ratio = fundamental_function(b, m) / m
        assert 0.5 <= ratio <= 2.0


def test_phi_nondecreasing():
    b = lindenstrauss(12)
    vals = [fundamental_function(b, m) for m in range(1, 13)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_phi_search_mode_is_lower_estimate():
    b = lindenstrauss(12)
    for m in (2, 6, 12):
        exact = fundamental_function(b, m)
        est = fundamental_function(b, m, mode="search", budget=256, seed=11)
        assert est <= exact + 1e-12
        assert est >= 2.0  # greedy growth always reaches the best column


def _enumerated_extremum(b, want_max, sizes):
    """The former exact phi_m enumeration: itertools combinations per size."""
    best = -math.inf if want_max else math.inf
    for k in sizes:
        it = combinations(range(b.d), k)
        while combos := list(islice(it, 4096)):
            rows = np.zeros((len(combos), b.d))
            idx = np.fromiter(chain.from_iterable(combos), dtype=np.int64, count=len(combos) * k)
            rows[np.arange(len(combos))[:, None], idx.reshape(len(combos), k)] = 1.0
            vals = b.synth_norms(rows)
            best = max(best, vals.max()) if want_max else min(best, vals.min())
    return float(best)


def test_sum_norm_extremum_matches_combinations_enumeration():
    for spec, ms in (
        ("difference:18", (9, 18)),
        ("summing:16", (3, 8, 16)),
        ("lindenstrauss:12", (1, 5, 12)),
        ("blocksum(lindenstrauss,dims=2^1..2^3,p=1)", (4, 7, 14)),
        ("interleave(difference:5,unit:5@lp:2)", (2, 10)),
        ("unit:1@lp:1", (1,)),
    ):
        b = parse_basis(spec)
        for m in ms:  # m = d included
            sizes = range(1, m + 1)
            assert _sum_norm_extremum(b, True, sizes) == _enumerated_extremum(b, True, sizes)
            assert _sum_norm_extremum(b, False, [m]) == _enumerated_extremum(b, False, [m])


def test_phi_validation():
    b = lindenstrauss(4)
    with pytest.raises(GreedyError):
        fundamental_function(b, 0)
    with pytest.raises(GreedyError):
        fundamental_function(b, 5)
    with pytest.raises(GreedyError):
        fundamental_function(b, 2, mode="bogus")
    with pytest.raises(GreedyError):
        fundamental_function(lindenstrauss(24), 2)  # exact tier capped


def test_democracy_unit_system():
    b = unit_vector_system(12, Lp(1.0))
    for m in (1, 4, 12):
        assert democracy_ratio(b, m) == pytest.approx(1.0, rel=1e-15)


def test_democracy_lindenstrauss10_pinned():
    b = lindenstrauss(10)
    for m, want in DEM_LIND10.items():
        assert democracy_ratio(b, m) == pytest.approx(want, rel=1e-12)


def test_democracy_at_least_one():
    for b in (difference(8), summing(8), lindenstrauss(8)):
        for m in (1, 4, 8):
            assert democracy_ratio(b, m) >= 1.0 - 1e-12


def test_democracy_search_mode_runs():
    b = lindenstrauss(24)
    val = democracy_ratio(b, 6, mode="search", budget=256, seed=13)
    assert np.isfinite(val) and val >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# golden results: any kernel change that moves a greedy value shows here
# ---------------------------------------------------------------------------


def _coeff_digest(coeffs) -> str:
    return hashlib.sha256(repr(tuple(coeffs)).encode()).hexdigest()[:16]


def test_golden_qg_blocksum_random_tier():
    b = parse_basis("blocksum(lindenstrauss,dims=2^1..2^4,p=1)")
    val, wit = quasi_greedy_constant_lb(b, budget=256, seed=1)
    assert val == 1.2636718040935908
    assert wit.indices == (9,)
    assert _coeff_digest(wit.coeffs) == "fd89cf2205e52a58"


def test_golden_qg_blocksum_to_32_budget_512():
    b = parse_basis("blocksum(lindenstrauss,dims=2^1..2^5)")
    val, wit = quasi_greedy_constant_lb(b, budget=512, seed=1)
    assert val == 1.279900609917841
    assert wit.indices == (21,)
    assert _coeff_digest(wit.coeffs) == "d5b56e9586ae5aeb"


# value, witness A and coefficient digest at the default seed, measured with
# one ascent candidate per score call and one block ascent at a time
QG_PINS = {
    ("blocksum(lindenstrauss,dims=2^1..2^5,p=1)", 512):
        (1.247381389417086, (19, 39), "ed5b281bd456e76e"),
    ("blocksum(lindenstrauss,dims=2^1..2^5,p=1)", 4096):
        (1.31880370620626, (19,), "eda911ac24bd6279"),
    ("lindenstrauss:64", 512): (1.2519563471165647, (2, 10, 22), "329dc058eb4bc7a1"),
    ("lindenstrauss:64", 4096): (1.283054723351687, (7,), "8901a25e771b7c1a"),
    ("difference:20", 512): (1.7777777777777777, (1, 7, 12, 16, 19), "66da6ebebbdcd4ee"),
    ("difference:20", 4096): (1.8, (3, 5, 7, 8, 10, 14, 18), "46f7d7a5d0c0363f"),
    ("summing:20", 512): (6.146677738439897, (3, 6, 12, 15), "a0288c982da2abdf"),
    ("summing:20", 4096): (6.146677738439897, (3, 6, 12, 15), "a0288c982da2abdf"),
    ("unit:20@lp:3", 512): (1.0, (), "fe7998e76e0023fb"),
    ("unit:20@lp:3", 4096): (1.0, (), "fe7998e76e0023fb"),
    ("interleave(difference:8,unit:8@lp:2)", 512):
        (2.3333333333333335, (2, 3, 4, 9, 10, 15, 16), "3c0949c3c3dad598"),
    ("interleave(difference:8,unit:8@lp:2)", 4096):
        (3.0, (4, 5, 6, 9, 10, 13, 14, 16), "01ee0ef765795e1d"),
}


@pytest.mark.parametrize("spec,budget", list(QG_PINS), ids=[f"{s}@{n}" for s, n in QG_PINS])
def test_golden_qg_random_tier_lockstep(spec, budget):
    val, wit = quasi_greedy_constant_lb(parse_basis(spec), budget=budget)
    assert (val, wit.indices, _coeff_digest(wit.coeffs)) == QG_PINS[spec, budget]


def _is_greedy_witness(wit) -> bool:
    """A of the witness is one of the greedy sets of its size for f."""
    return wit.indices in greedy_sets(wit.coeffs, len(wit.indices), mode="all").all_sets


def test_golden_qg_lindenstrauss10_sign_grid():
    val, wit = quasi_greedy_constant_lb(lindenstrauss(10), seed=1)
    assert val == 1.25
    assert wit.indices == (2, 3)
    assert wit.coeffs == (1.0,) * 7 + (0.0,) * 3
    assert _is_greedy_witness(wit)


# exact quasi-greedy constants over the sign grid {-1,0,1}^d, d = 9..12
QG_EXACT = {**{f"difference:{d}": float(d) for d in range(9, 13)},
            "summing:9": 5.0, "summing:10": 5.0, "summing:11": 6.0, "summing:12": 6.0}


@pytest.mark.parametrize("spec", list(QG_EXACT))
def test_golden_qg_exhaustive_to_d12(spec):
    b = parse_basis(spec)
    val, wit = quasi_greedy_constant_lb(b, seed=1)
    assert val == QG_EXACT[spec]
    assert verify_witness(b, wit) == val
    assert _is_greedy_witness(wit)


def test_golden_phi_difference18():
    b = difference(18)
    assert fundamental_function(b, 9) == 18.0
    assert _sum_norm_extremum(b, True, range(1, 10)) == 18.0


# ---------------------------------------------------------------------------
# sign-table exhaustive tier against the dense pair reference
# ---------------------------------------------------------------------------

_TINY = 1e-12
# base-5 digit of (coefficient, membership in A) per coordinate of the dense
# reference sweep: 0, +1 in, +1 out, -1 in, -1 out
PAIR_COEF = np.array([0, 1, 1, -1, -1], dtype=np.int8)
PAIR_IN = np.array([False, True, False, True, False])


def _qg_floor(b):
    """The floor of every quasi-greedy tier: f = x_1, A = (), ratio 1."""
    return 1.0, Witness((1.0,) + (0.0,) * (b.d - 1), (), 1.0, "quasi-greedy")


def _qg_exhaustive_dense(b):
    """Reference: synthesise f and f - S_A f for every pair of the 5^d grid."""
    d = b.d
    best, best_wit = _qg_floor(b)
    total = 5**d
    chunk = 1 << 18
    for start in range(0, total, chunk):
        digits = digit_rows(start, min(start + chunk, total), d, 5)
        coefs, inmask = PAIR_COEF[digits].astype(np.float64), PAIR_IN[digits]
        full = b.synth_norms(coefs)
        resid = b.synth_norms(coefs * ~inmask)
        ok = full > _TINY
        ratios = np.where(ok, resid / np.where(ok, full, 1.0), 0.0)
        i = int(np.argmax(ratios))
        if ratios[i] > best + _TINY:
            best = float(ratios[i])
            A = tuple(int(j) + 1 for j in np.flatnonzero(inmask[i]))
            best_wit = Witness(tuple(coefs[i].tolist()), A, best, "quasi-greedy")
    return best, best_wit


def _random_external(space: str, d: int):
    rng = np.random.default_rng([11, d, len(space)])
    return external_basis(rng.standard_normal((d + 2, d)), parse_space(space), space)


@pytest.mark.parametrize("spec", [
    "lindenstrauss", "difference", "summing", "external lp:1", "external lp:3",
    "external bv", "external lorentz:p=2,q=1",
])
def test_qg_exhaustive_matches_dense_reference(spec):
    # 5^d pairs: the dense reference stops at d = 8 here and runs at d = 9 below
    for d in range(1, 9):
        b = _spec_basis(spec, d)
        assert _qg_exhaustive(b) == _qg_exhaustive_dense(b)
    b = parse_basis("interleave(difference:3,unit:3@lp:2)")
    assert _qg_exhaustive(b) == _qg_exhaustive_dense(b)


def _spec_basis(spec: str, d: int):
    """The recipe ``spec:d``, or for "external <space>" a seeded random basis."""
    if spec.startswith("external "):
        return _random_external(spec.split(" ", 1)[1], d)
    return parse_basis(f"{spec}:{d}")


def _basis_d9(spec: str):
    return _spec_basis(spec, 9) if spec.startswith("external ") else parse_basis(spec)


@functools.cache
def _qg_reference_d9(spec: str):
    return _qg_exhaustive_dense(_basis_d9(spec))


@pytest.mark.parametrize("seed,spec", [
    (seed, spec) for seed in (1, 2) for spec in ("lindenstrauss:9", "difference:9", "summing:9",
                                                 "interleave(difference:5,unit:4@lp:2)")
] + [(1, "summing:11"), (1, "external lp:1"), (2, "external bv")])
def test_qg_sign_grid_matches_dense_reference(seed, spec, monkeypatch):
    # d = 9: the whole exhaustive tier, at any seed, against the 5^9 pairs
    # (external bases at d = 9); the 5^11 pairs of summing:11 are too many,
    # so its nine table chunks are checked against one synthesis of all 3^11
    # sign vectors
    if spec == "summing:11":
        b = parse_basis(spec)
        monkeypatch.setattr(search_mod, "SIGN_CHUNK", 3**11)
        ref = quasi_greedy_constant_lb(b, seed=seed)
        monkeypatch.undo()
    else:
        b, ref = _basis_d9(spec), _qg_reference_d9(spec)
    got = quasi_greedy_constant_lb(b, seed=seed)
    assert got == ref
    assert _is_greedy_witness(got[1]) and verify_witness(b, got[1]) == pytest.approx(got[0])


# ---------------------------------------------------------------------------
# the event-sweep prefix kernel against the dense prefix residuals
# ---------------------------------------------------------------------------

SWEPT_SPECS = ["lindenstrauss:9", "difference:9", "blocksum(lindenstrauss,dims=2^1..2^3,p=1)"]


def _dense_prefix_norms(b, rows):
    """Reference: every canonical-prefix residual synthesised and normed."""
    n, d = rows.shape
    order = np.argsort(-np.abs(rows), axis=1, kind="stable")
    resid = np.repeat(rows[:, None, :], d + 1, axis=1)
    for k in range(1, d + 1):
        resid[np.arange(n)[:, None], k:, order[:, :k]] = 0.0
    return b.synth_norms(resid.reshape(n * (d + 1), d)).reshape(n, d + 1), order


@pytest.mark.parametrize("spec", SWEPT_SPECS)
def test_swept_norms_equal_dense_on_sign_rows(spec):
    # sign rows on dyadic columns: both sums are exact; beyond d = 9 a
    # seeded sample of 3^9 of them
    b = parse_basis(spec)
    rng = np.random.default_rng([2, b.d])
    rows = sign_rows(b.d) if b.d <= 9 else SIGN_VALUES[rng.integers(0, 3, (3**9, b.d))]
    ratios, order, resid = _swept_ratios(b, rows)
    want, want_order = _dense_prefix_norms(b, rows)
    assert np.array_equal(resid, want) and np.array_equal(order, want_order)
    assert np.array_equal(ratios, _prefix_residual_ratios(b, rows)[0])


@pytest.mark.parametrize("spec", SWEPT_SPECS + ["unit:9@lp:1", "blocksum(difference,dims=2^1..2^3,p=1)"])
def test_swept_norms_match_dense_on_random_rows(spec):
    b = parse_basis(spec)
    rng = np.random.default_rng([3, b.d])
    rows = rng.uniform(0.5, 2.0, (64, b.d)) * rng.choice([-1.0, 1.0], (64, b.d))
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[rng.random(rows.shape) < 0.1] = -0.0
    rows[:4, :3] = 1.25  # ties in magnitude keep the index order
    _, order, resid = _swept_ratios(b, rows)
    want, want_order = _dense_prefix_norms(b, rows)
    assert np.array_equal(order, want_order)
    assert np.allclose(resid, want, rtol=1e-13, atol=0.0)
    assert np.all(resid[:, -1] == 0.0)


@pytest.mark.parametrize("spec", SWEPT_SPECS)
def test_swept_ratios_are_batch_invariant(spec):
    b = parse_basis(spec)
    rng = np.random.default_rng([4, b.d])
    rows = rng.uniform(0.5, 2.0, (40, b.d)) * rng.choice([-1.0, 0.0, 1.0], (40, b.d))
    ratios, order, resid = _swept_ratios(b, rows)
    for i in range(rows.shape[0]):
        one = _swept_ratios(b, rows[i : i + 1])
        assert np.array_equal(one[0][0], ratios[i]) and np.array_equal(one[2][0], resid[i])
        assert np.array_equal(one[1][0], order[i])


@pytest.mark.parametrize("spec,swept", [
    ("lindenstrauss:12", True),
    ("difference:12", True),
    ("unit:12@lp:1", True),
    ("blocksum(lindenstrauss,dims=2^1..2^3,p=1)", True),
    ("blocksum(difference,dims=2^1..2^3,p=1)", True),
    ("blocksum(unit:8@lp:1,dims=2^1..2^3,p=1)", True),
    ("summing:12", False),
    ("unit:12@lp:2", False),
    ("blocksum(lindenstrauss,dims=2^1..2^3,p=2)", False),
    ("blocksum(lindenstrauss,dims=2^1..2^3,p=0)", False),
    ("pqhalf(lindenstrauss,dims=2^1..2^3,p=1,q=1)", False),
    ("interleave(difference:6,unit:6@lp:1)", False),
    ("external lp:1", False),
])
def test_swept_kernel_selection(spec, swept):
    b = _random_external("lp:1", 12) if spec.startswith("external") else parse_basis(spec)
    assert (b.l1_pairs is not None) == swept


def test_qg_sign_grid_memory_is_bounded():
    # the 3^d-entry norm table, the kernel's few arrays of 3^d entries and
    # one 3^9-row chunk of sign vectors: about 28 MiB at d = 12
    for d, mib in ((10, 8), (12, 40)):
        b = lindenstrauss(d)
        tracemalloc.start()
        try:
            quasi_greedy_constant_lb(b, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20, d


def _count_synth_rows(monkeypatch):
    """Patch ``synth_rows`` to count the rows it synthesises."""
    rows = [0]
    real = BasisTruncation.synth_rows

    def counted(self, coeff_rows):
        rows[0] += np.shape(coeff_rows)[0]
        return real(self, coeff_rows)

    monkeypatch.setattr(BasisTruncation, "synth_rows", counted)
    return rows


def test_qg_sign_grid_synthesises_each_sign_vector_once(monkeypatch):
    # every residual f - S_A f is read from the table of the 3^d sign vectors
    rows = _count_synth_rows(monkeypatch)
    for d in (10, QG_EXHAUSTIVE_MAX_D):
        rows[0] = 0
        quasi_greedy_constant_lb(lindenstrauss(d), seed=1)
        assert rows[0] == 3**d


# ---------------------------------------------------------------------------
# the shared ascent against the quasi-greedy loop it replaced
# ---------------------------------------------------------------------------


def _qg_ratio_of(b, a):
    """The batch objective on one row, scored alone."""
    ratios, payload = _qg_ratios(b, a[None, :])
    return float(ratios[0]), payload(0)


def _qg_ascent_ref(b, a0, ratio_of=_qg_ratio_of):
    """Reference: the quasi-greedy block's inline ascent (both moves tried
    at each coordinate, even after the first one is accepted)."""
    a = np.asarray(a0, dtype=np.float64).copy()
    cur, curA = ratio_of(b, a)
    for _ in range(MAX_SWEEPS):
        improved = False
        for i in range(b.d):
            if a[i] == 0.0:
                continue
            for move in (0.5, 2.0):
                cand = a.copy()
                cand[i] *= move
                val, valA = ratio_of(b, cand)
                if val >= cur + ASCENT_TOL:
                    a, cur, curA = cand, val, valA
                    improved = True
        if not improved:
            break
    return cur, a, curA


@pytest.mark.parametrize("spec", [
    "blocksum(lindenstrauss,dims=2^1..2^3)", "lindenstrauss:14", "difference:13",
    "summing:13", "external lp:3",
])
def test_ascend_matches_qg_loop(spec):
    b = _random_external("lp:3", 13) if spec.startswith("external") else parse_basis(spec)
    rng = np.random.default_rng([5, b.d])
    starts = rng.uniform(0.5, 2.0, (3, b.d)) * rng.choice([-1.0, 0.0, 1.0], (3, b.d))
    starts[~starts.any(axis=1), 0] = 1.0
    calls = {"ref": 0, "got": 0}

    def ratio_of(b, a):
        calls["ref"] += 1
        return _qg_ratio_of(b, a)

    def batched(rows):
        calls["got"] += 1
        return _qg_ratios(b, rows)

    got = ascend(starts, batched, scale_moves, (b.d + 1) * b.ambient_dim)
    for a0, (r, a, A) in zip(starts, got):
        ref = _qg_ascent_ref(b, a0, ratio_of)
        assert r == ref[0] and A == ref[2]
        assert np.array_equal(a, ref[1])
    # the replaced loop also retried x2 right after an accepted x0.5, and
    # one call scores the windows of all three ascents
    assert calls["got"] <= calls["ref"]


# (calls, rows) of _swept_ratios over quasi_greedy_constant_lb at budget
# 512, seeds 1-3
QG_SWEPT_COUNTS = {
    "lindenstrauss:16": (970, 17_383),
    "lindenstrauss:32": (1_337, 18_431),
    "blocksum(lindenstrauss,dims=2^1..2^4,p=1)": (1_034, 14_327),
    "blocksum(lindenstrauss,dims=2^1..2^5,p=1)": (2_709, 17_741),
}


@pytest.mark.parametrize("spec", list(QG_SWEPT_COUNTS))
def test_qg_ascent_swept_calls_and_rows(monkeypatch, spec):
    # every call scores one predicted-path window of each live block
    # ascent; one candidate per call took 4,210 / 7,060 / 6,102 / 12,399
    # calls for 5,740 / 8,590 / 7,632 / 13,929 rows, so the windows trade
    # rows scored past a wrong prediction for about 5x fewer calls
    seen = [0, 0]
    real = greedy_mod._swept_ratios

    def counted(b, coeff_rows):
        seen[0] += 1
        seen[1] += coeff_rows.shape[0]
        return real(b, coeff_rows)

    monkeypatch.setattr(greedy_mod, "_swept_ratios", counted)
    b = parse_basis(spec)
    for seed in (1, 2, 3):
        quasi_greedy_constant_lb(b, budget=512, seed=seed)
    assert tuple(seen) == QG_SWEPT_COUNTS[spec]


def test_qg_swept_basis_keeps_dense_rows_few(monkeypatch):
    # on an l1 block sum only the drop search over the sign half of a block
    # and the re-scores of reported values are synthesised densely; a
    # fallback to dense prefix residuals for every scored row synthesises
    # 880,599 rows, and the dense ||f|| of all 256 rows of a block 5,364
    b = parse_basis("blocksum(lindenstrauss,dims=2^1..2^5,p=1)")
    rows = _count_synth_rows(monkeypatch)
    for seed in (1, 2, 3):
        quasi_greedy_constant_lb(b, budget=512, seed=seed)
    assert 0 < rows[0] <= 4_596


# ---------------------------------------------------------------------------
# almost-greedy exhaustive tier against one norms call per sign code
# ---------------------------------------------------------------------------


def _ag_exhaustive_per_code(b):
    """Reference: synthesise every kept subset of every sign vector."""
    d = b.d
    best = 1.0
    coeffs0 = np.zeros(d)
    coeffs0[0] = 1.0
    best_wit = Witness(tuple(coeffs0.tolist()), (), 1.0, "almost-greedy", b_indices=())
    sign_table = sign_rows(d)
    for code in range(1, 3**d):
        sig = sign_table[code]
        supp = np.flatnonzero(sig != 0.0)
        k = supp.size
        masks = all_subset_masks(k)
        sizes = masks.sum(axis=1).astype(np.int64)
        nrm = norms(b.space, (masks * sig[supp]) @ b.columns[:, supp].T)
        by_size_desc = np.argsort(-sizes, kind="stable")
        run_min = np.minimum.accumulate(nrm[by_size_desc])
        min_for_keep = np.full(k + 1, np.inf)
        for pos, t in enumerate(sizes[by_size_desc]):
            min_for_keep[t] = min(min_for_keep[t], run_min[pos])
        for t in range(k - 1, -1, -1):
            min_for_keep[t] = min(min_for_keep[t], min_for_keep[t + 1])
        num = nrm[np.arange(1 << k) ^ ((1 << k) - 1)]
        denom = min_for_keep[np.maximum(k - sizes, 0)]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where((denom > _TINY) & (num > _TINY), num / denom, 0.0)
        i = int(np.argmax(ratios))
        if ratios[i] > best + _TINY:
            best = float(ratios[i])
            A = tuple(int(supp[j]) + 1 for j in range(k) if (i >> j) & 1)
            cand = np.flatnonzero(sizes >= k - sizes[i])
            bsel = cand[int(np.argmin(nrm[cand]))]
            Bset = tuple(int(supp[j]) + 1 for j in range(k) if not ((bsel >> j) & 1))
            best_wit = Witness(tuple(sig.tolist()), A, best, "almost-greedy", b_indices=Bset)
    return best, best_wit


@pytest.mark.parametrize("spec", [
    "lindenstrauss:7", "difference:7", "summing:7", "interleave(difference:3,unit:3@lp:2)",
    "external lp:1", "external lp:3", "external bv",
])
def test_ag_exhaustive_matches_per_code_reference(spec):
    if spec.startswith("external "):
        space = spec.split(" ", 1)[1]
        # several small seeded bases: on some of them the minimising B is
        # larger than |A|, which only the suffix minimum finds
        bases = [external_basis(np.random.default_rng([seed, d, len(space)])
                                .standard_normal((d + 2, d)), parse_space(space), space)
                 for d in range(2, 8) for seed in range(3)]
    else:
        bases = [parse_basis(spec)]
    for b in bases:
        assert _ag_exhaustive(b) == _ag_exhaustive_per_code(b)


# ---------------------------------------------------------------------------
# almost-greedy denominator matrix: the l1 quadratic form and the winner scan
# ---------------------------------------------------------------------------

L1_PAIR_BASES = [f"{fam}:{d}" for fam in ("lindenstrauss", "difference") for d in range(9, 13)]
L1_PAIR_BASES += [f"unit:{d}@lp:1" for d in range(9, 13)]
L1_PAIR_BASES += [f"blocksum(lindenstrauss,dims={dims},p=1)"
                  for dims in ("4..5", "1..4", "5..6", "3..5")]


@pytest.mark.parametrize("spec", L1_PAIR_BASES)
def test_kept_norms_form_matches_dense(spec):
    b = parse_basis(spec)
    d = b.d
    rng = np.random.default_rng([11, d, len(spec)])
    rows = rng.uniform(0.5, 2.0, (12, d)) * rng.choice([-1.0, 1.0], (12, d))
    rows[rng.random((12, d)) < 0.2] = 0.0
    rows[0] = -0.0
    rows[1, ::2] = -0.0
    rows[2] = rng.choice([-1.5, 1.5], d)  # every magnitude tied
    rows[3, : d // 2] = 0.75
    kept = all_subset_masks(d)
    got = _kept_norms_form(b, kept)(rows)
    want = b.synth_norms((rows[:, None, :] * kept).reshape(-1, d)).reshape(rows.shape[0], -1)
    assert np.all(np.abs(got - want) <= 1e-13 * want)


@pytest.mark.parametrize("spec,form", [(s, True) for s in (
    "lindenstrauss:9", "difference:9", "unit:9@lp:1", "blocksum(lindenstrauss,dims=4..5,p=1)",
)] + [(s, False) for s in (
    "summing:9", "unit:9@lp:2", "pqhalf(lindenstrauss,dims=2^1..2^2,p=1,q=1)",
    "interleave(difference:4,unit:4@lp:1)",
)])
def test_ag_denominators_take_the_form_on_l1_pairs_bases(monkeypatch, spec, form):
    b = parse_basis(spec)
    calls = [0]

    def counted(b, kept):
        calls[0] += 1
        return _kept_norms_form(b, kept)

    monkeypatch.setattr(greedy_mod, "_kept_norms_form", counted)
    rng = np.random.default_rng([12, b.d])
    rows = rng.uniform(0.5, 2.0, (5, b.d)) * rng.choice([-1.0, 1.0], (5, b.d))
    _, _, resid = _prefix_residual_ratios(b, rows)
    denom = _ag_denominators(b, rows, resid, None)
    assert (calls[0] > 0) == form
    # either way, row by row the minimum over |B| <= m of the dense norms
    sizes = all_subset_masks(b.d).sum(axis=1).astype(np.int64)
    for row, got in zip(rows, denom):
        want, _ = _min_denominators(b.synth_norms(row * (1.0 - all_subset_masks(b.d))), sizes, b.d)
        np.testing.assert_allclose(got, want, rtol=1e-13)


def _last_gain_ref(resid, denom):
    """Reference: the block's former per-row, per-m loop."""
    best, hit = 0.0, -1
    n, width = resid.shape
    for i in range(n):
        for m in range(width):
            if denom[i, m] <= _TINY or resid[i, m] <= _TINY:
                continue
            r = resid[i, m] / denom[i, m]
            if r > best + _TINY:
                best, hit = float(r), i * width + m
    return hit


LAST_GAIN_CASES = {
    # ratios 1, 1 + 0.5 TINY (not taken), 1 + 1.2 TINY (taken)
    "near ties": (np.array([[1.0, 1.0 + 0.5e-12], [1.0 + 1.2e-12, 0.5]]), np.ones((2, 2))),
    # a near tie within TINY of the last taken, then one beyond it
    "creeping": (np.array([[1.0, 1.0 + 0.9e-12, 1.0 + 1.8e-12, 1.0 + 2.1e-12]]), np.ones((1, 4))),
    # the biggest ratios sit where a numerator or a denominator is at most TINY
    "skipped": (np.array([[2.0, 1e-12, 3.0], [1.0, 5.0, 0.0]]),
                np.array([[1e-12, 1e-24, 1.0], [0.5, 1e-13, 0.0]])),
    "nothing positive": (np.array([[0.0, 1e-12], [1e-13, 0.0]]), np.ones((2, 2))),
    "zero denominators": (np.ones((2, 3)), np.zeros((2, 3))),
}


@pytest.mark.parametrize("case", list(LAST_GAIN_CASES))
def test_last_gain_matches_sequential_scan(case):
    resid, denom = LAST_GAIN_CASES[case]
    assert _last_gain(resid, denom) == _last_gain_ref(resid, denom)


def test_last_gain_matches_sequential_scan_on_random_blocks():
    rng = np.random.default_rng(13)
    for _ in range(50):
        resid = rng.uniform(0.0, 2.0, (40, 6))
        resid[rng.random(resid.shape) < 0.1] = 0.0
        denom = np.minimum.accumulate(rng.uniform(0.5, 1.5, (40, 6)), axis=1)
        denom[:, -1] = 0.0
        # plant near ties of the running best
        flat = resid.ravel()
        flat[rng.integers(0, flat.size, 30)] = flat.max() * (1 + rng.uniform(-2e-12, 2e-12, 30))
        assert _last_gain(resid, denom) == _last_gain_ref(resid, denom)


def test_ag_block_without_positive_ratio_has_no_winner(monkeypatch):
    def no_residuals(b, rows):
        ratios, order, resid = _prefix_residual_ratios(b, rows)
        return np.zeros_like(ratios), order, np.zeros_like(resid)

    monkeypatch.setattr(greedy_mod, "_prefix_residual_ratios", no_residuals)
    for exact in (True, False):
        assert _ag_random_block(lindenstrauss(9), 1, 0, exact) == (0.0, None)


def test_ag_exact_tier_synthesises_prefixes_and_winners_only(monkeypatch):
    # per block, the 256 x 13 prefix residuals and one re-score of the
    # winner's 4,096 subsets; every subset of every row took 6,311,424 rows
    b = lindenstrauss(12)
    rows = _count_synth_rows(monkeypatch)
    for seed in (1, 2, 3):
        almost_greedy_constant_lb(b, budget=512, seed=seed)
    assert 0 < rows[0] <= 3 * 2 * (256 * 13 + 4096)


def test_ag_exact_block_memory_is_bounded():
    # the block's subset norms go in chunks: all 256 x 4,096 at once take
    # 8 MiB for the norms alone
    b = lindenstrauss(12)
    tracemalloc.start()
    try:
        _ag_random_block(b, 1, 0, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# a budget below 1 is an error in every tier
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("budget", [0, -5])
@pytest.mark.parametrize("d", [6, 10, 14], ids=["exhaustive", "exhaustive d=10", "random"])
def test_qg_rejects_budget_below_one(d, budget):
    with pytest.raises(GreedyError, match="budget"):
        quasi_greedy_constant_lb(lindenstrauss(d), budget=budget)


@pytest.mark.parametrize("budget", [0, -5])
@pytest.mark.parametrize("d", [6, 10, 14], ids=["exhaustive", "exact denominators", "random"])
def test_ag_rejects_budget_below_one(d, budget):
    with pytest.raises(GreedyError, match="budget"):
        almost_greedy_constant_lb(lindenstrauss(d), budget=budget)


@pytest.mark.parametrize("budget", [0, -5])
def test_phi_search_rejects_budget_below_one(budget):
    with pytest.raises(GreedyError, match="budget"):
        fundamental_function(lindenstrauss(12), 4, mode="search", budget=budget)


@pytest.mark.parametrize("budget", [0, -5])
def test_democracy_search_rejects_budget_below_one(budget):
    with pytest.raises(GreedyError, match="budget"):
        democracy_ratio(lindenstrauss(12), 4, mode="search", budget=budget)


@pytest.mark.parametrize("d", [6, 10, 14], ids=["exhaustive", "exhaustive d=10", "random"])
def test_qg_budget_none_is_the_default(d):
    b = lindenstrauss(d)
    assert quasi_greedy_constant_lb(b, budget=None, seed=3) == quasi_greedy_constant_lb(b, seed=3)


@pytest.mark.parametrize("d", [6, 10, 14], ids=["exhaustive", "exact denominators", "random"])
def test_ag_budget_none_is_the_default(d):
    b = lindenstrauss(d)
    assert almost_greedy_constant_lb(b, budget=None, seed=3) == almost_greedy_constant_lb(b, seed=3)


def test_phi_and_democracy_search_budget_none_is_the_default():
    b = lindenstrauss(12)
    assert fundamental_function(b, 4, mode="search", budget=None, seed=3) == fundamental_function(
        b, 4, mode="search", seed=3)
    assert democracy_ratio(b, 4, mode="search", budget=None, seed=3) == democracy_ratio(
        b, 4, mode="search", seed=3)


def test_democracy_rejects_unknown_mode():
    with pytest.raises(GreedyError, match="mode"):
        democracy_ratio(lindenstrauss(12), 4, mode="bogus")
