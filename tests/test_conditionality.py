"""Conditionality constants: oracles, estimates, templates, fits, ladders."""

from __future__ import annotations

import hashlib
import itertools
import math
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from condgreedy import (
    ConditionalityError,
    GreedyError,
    GrowthTarget,
    LINEAR_TARGET,
    LOG_TARGET,
    Lp,
    L_m_estimate,
    L_m_oracle,
    Witness,
    almost_greedy_constant_lb,
    block_embed_pair,
    democracy_ratio,
    difference,
    fundamental_function,
    growth_fit,
    interleave,
    interleave_pair,
    k_m_estimate,
    k_m_exact,
    lb_ladder,
    lindenstrauss,
    quasi_greedy_constant_lb,
    sa_ratio,
    summing,
    target_doubling,
    template_pairs,
    unit_vector_system,
    verify_witness,
    witness_from_doc,
)
from condgreedy import bases as bases_mod
from condgreedy import conditionality as cond_mod
from condgreedy import spaces as spaces_mod
from condgreedy._search import (
    ASCENT_TOL,
    MAX_SWEEPS,
    TINY,
    _sweep_rank,
    ascend,
    digit_rows,
    greedy_order,
    sign_rows,
    signed_moves,
)
from condgreedy.bases import external_basis, parse_basis
from condgreedy.spaces import parse_space

# reference staircase pinned from the full joint sweep; flat segments are the
# odd dyadic generations, the risers interpolate inside the even ones
LIND_ORACLE = {
    1: 1.0,
    2: 1.0,
    3: 1.0,
    4: 1.25,
    5: 1.5,
    6: 1.75,
    7: 2.0,
    8: 2.0,
    11: 2.0,
}


# ---------------------------------------------------------------------------
# witnesses and ratios
# ---------------------------------------------------------------------------


def test_sa_ratio_example():
    b = difference(4)
    # f = e_4 (norm 1); S_{1,3} telescopes to e_1 + e_3 - e_2 (norm 3)
    assert sa_ratio(b, np.ones(4), (1, 3)) == 3.0


def test_sa_ratio_scale_invariant():
    b = lindenstrauss(6)
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal(6)
        r1 = sa_ratio(b, a, (1, 4))
        r2 = sa_ratio(b, 3.0 * a, (1, 4))
        assert r2 == pytest.approx(r1, rel=1e-14)


def test_sa_ratio_validation():
    b = difference(4)
    with pytest.raises(ConditionalityError):
        sa_ratio(b, np.ones(3), (1,))
    with pytest.raises(ConditionalityError):
        sa_ratio(b, np.zeros(4), (1,))


def test_witness_doc_roundtrip():
    w = Witness((1.0, -0.5, 0.0), (1, 3), 1.5, "oracle")
    back = witness_from_doc(w.to_doc())
    assert back == w
    assert "B" not in w.to_doc()


def test_witness_doc_roundtrip_with_b_set():
    w = Witness((1.0, -1.0), (1,), 2.0, "almost-greedy", b_indices=(2,))
    doc = w.to_doc()
    assert doc["B"] == [2]
    assert witness_from_doc(doc) == w


def test_verify_witness_projection_kind():
    b = difference(4)
    w = Witness((1.0, 1.0, 1.0, 1.0), (1, 3), 3.0, "oracle")
    assert verify_witness(b, w) == 3.0


BAD_INDICES = [((0,), "1..4"), ((5,), "1..4"), ((2, 2), "duplicate")]


@pytest.mark.parametrize("A,message", BAD_INDICES, ids=["zero", "d+1", "duplicate"])
def test_index_checks(A, message):
    # index 0 once wrapped round to index d, d + 1 leaked an IndexError and
    # a duplicate passed
    b = difference(4)
    with pytest.raises(ConditionalityError, match=message):
        sa_ratio(b, np.ones(4), A)
    with pytest.raises(ConditionalityError, match=message):
        verify_witness(b, Witness((1.0,) * 4, A, 3.0, "oracle"))
    with pytest.raises(ConditionalityError, match=message):
        verify_witness(b, Witness((1.0, -1.0, 0.5, 0.0), (1,), 1.0, "almost-greedy", A))


@pytest.mark.parametrize("A", [(1.5,), (1.9,), (2.7,), (1, 2.5), (float("nan"),), (np.float64(0.5),)])
def test_fractional_indices_are_rejected(A):
    # int() used to truncate them: [1.5] and [1.9] scored as [1]
    b = lindenstrauss(8)
    with pytest.raises(ConditionalityError, match="integers"):
        sa_ratio(b, np.ones(8), A)
    with pytest.raises(ConditionalityError, match="integers"):
        verify_witness(b, Witness((1.0,) * 8, A, 1.0, "oracle"))
    with pytest.raises(ConditionalityError, match="integers"):
        verify_witness(b, Witness((1.0,) * 8, A, 1.0, "quasi-greedy"))
    with pytest.raises(ConditionalityError, match="integers"):
        verify_witness(b, Witness((1.0,) * 8, (1,), 1.0, "almost-greedy", A))


def test_integral_index_types_are_accepted():
    b = lindenstrauss(8)
    want = sa_ratio(b, np.ones(8), [1, 3])
    for A in ([np.int64(1), np.int32(3)], np.array([1, 3]), [1.0, 3.0]):
        assert sa_ratio(b, np.ones(8), A) == want


BAD_COEFFS = [np.ones(3), np.ones(5), [1.0, np.inf, 0.0, 1.0], [1.0, np.nan, 0.0, 1.0]]


@pytest.mark.parametrize("kind", ["oracle", "template", "random", "quasi-greedy", "almost-greedy"])
@pytest.mark.parametrize("coeffs", BAD_COEFFS, ids=["short", "long", "inf", "nan"])
def test_verify_witness_checks_coefficients_for_every_kind(kind, coeffs):
    # greedy kinds raised BasisError on a short vector, and an inf reached
    # synthesis as "invalid value encountered in matmul"
    b = difference(4)
    w = Witness(tuple(coeffs), (1,), 1.0, kind, () if kind == "almost-greedy" else None)
    with pytest.raises(ConditionalityError, match="4 finite coefficients"):
        verify_witness(b, w)
    with pytest.raises(ConditionalityError, match="4 finite coefficients"):
        cond_mod._pair_ratios(b, [(np.ones(4), (1,)), (coeffs, (1,))])


def test_verify_witness_rejects_almost_greedy_witness_without_b():
    # B = None was once read as the empty set: ratio 1.0 on lindenstrauss(4)
    w = Witness((1.0, 1.0, -1.0, 0.0), (1,), 1.0, "almost-greedy")
    with pytest.raises(ConditionalityError, match="almost-greedy witnesses carry a set B"):
        verify_witness(lindenstrauss(4), w)


@pytest.mark.parametrize("kind", ["oracle", "template", "random", "quasi-greedy"])
@pytest.mark.parametrize("B", [(), (2,)])
def test_verify_witness_rejects_b_on_other_kinds(kind, B):
    # a B here was once ignored without a word
    w = Witness((1.0, 1.0, -1.0, 0.0), (1,), 1.0, kind, b_indices=B)
    with pytest.raises(ConditionalityError, match="no other kind does"):
        verify_witness(lindenstrauss(4), w)


GREEDY_COEFFS = (2.0, -1.0, 0.5, -2.0, 1.0, 0.0)  # ties: |a_1| = |a_4|, |a_2| = |a_5|


@pytest.mark.parametrize("kind", ["quasi-greedy", "almost-greedy"])
@pytest.mark.parametrize("A", [(), (1,), (4,), (1, 4), (1, 2, 4), (1, 4, 5), (1, 2, 3, 4, 5),
                               (1, 2, 3, 4, 5, 6)])
def test_verify_witness_accepts_greedy_sets_with_ties(kind, A):
    b = lindenstrauss(6)
    w = Witness(GREEDY_COEFFS, A, 1.0, kind, () if kind == "almost-greedy" else None)
    assert verify_witness(b, w) >= 0.0


@pytest.mark.parametrize("kind", ["quasi-greedy", "almost-greedy"])
@pytest.mark.parametrize("A", [(2,), (1, 2), (1, 2, 3), (1, 3, 4), (2, 4, 5), (1, 2, 3, 4, 6)])
def test_verify_witness_rejects_a_set_that_is_not_greedy(kind, A):
    # each A misses a coefficient larger than its own smallest one
    b = lindenstrauss(6)
    w = Witness(GREEDY_COEFFS, A, 1.0, kind, () if kind == "almost-greedy" else None)
    with pytest.raises(ConditionalityError, match="not greedy for f"):
        verify_witness(b, w)


@pytest.mark.parametrize("A,B", [((), (1,)), ((1,), (2, 3)), ((1, 2, 4), (1, 2, 3, 6))])
def test_verify_witness_rejects_b_larger_than_a(A, B):
    b = lindenstrauss(6)
    assert verify_witness(b, Witness(GREEDY_COEFFS, A, 1.0, "almost-greedy", B[1:])) > 0.0
    with pytest.raises(ConditionalityError, match=f"[|]B[|] = {len(B)} exceeds [|]A[|] = {len(A)}"):
        verify_witness(b, Witness(GREEDY_COEFFS, A, 1.0, "almost-greedy", B))


@pytest.mark.parametrize("kind", ["quasi-greedy", "almost-greedy"])
def test_mutated_estimator_witnesses_fail(kind):
    # an estimator's own witness passes; A one short of greedy (its largest
    # member swapped for the largest coefficient outside A) and |B| = |A| + 1 raise
    b = lindenstrauss(14 if kind == "quasi-greedy" else 10)
    run = quasi_greedy_constant_lb if kind == "quasi-greedy" else almost_greedy_constant_lb
    val, w = run(b, budget=256, seed=1)
    assert verify_witness(b, w) == val and w.indices
    mags = np.abs(w.coeffs)
    top = max(w.indices, key=lambda i: mags[i - 1])
    out = max(set(range(1, b.d + 1)) - set(w.indices), key=lambda i: mags[i - 1])
    assert mags[top - 1] > mags[out - 1]
    with pytest.raises(ConditionalityError, match="not greedy for f"):
        verify_witness(b, replace(w, indices=tuple(out if i == top else i for i in w.indices)))
    if kind == "almost-greedy":
        B = tuple(range(1, len(w.indices) + 2))
        with pytest.raises(ConditionalityError, match="exceeds"):
            verify_witness(b, replace(w, b_indices=B))


def _restricted(a: np.ndarray, A) -> np.ndarray:
    """The old restriction: a copy of a on the 1-based indices A, zero elsewhere."""
    out = np.zeros_like(a)
    idx = np.asarray(A, dtype=np.int64) - 1
    out[idx] = a[idx]
    return out


@pytest.mark.parametrize("space", ["lp:1", "lp:3", "bv", "lorentz:p=2,q=1", "lp:inf"])
def test_verify_witness_matches_restricted_rows_bitwise(space):
    # every kind is one kept_norms call on (numerator set, denominator set);
    # the reference synthesises the rows S_A f, f - S_A f and f - S_B f.  The
    # greedy kinds take the greedy set G of f of the size of A, and B cut to |G|
    b = _random_external(space, 9)
    rng = np.random.default_rng([8, len(space)])
    for _ in range(12):
        a = rng.standard_normal(9)
        A, B = (tuple(sorted(int(i) + 1 for i in rng.choice(9, size=k, replace=False)))
                for k in rng.integers(0, 9, size=2))
        G = tuple(sorted(int(i) + 1 for i in greedy_order(a)[: len(A)]))
        cases = [(kind, A, None, [_restricted(a, A), a]) for kind in ("oracle", "template", "random")]
        cases += [("quasi-greedy", G, None, [a - _restricted(a, G), a]),
                  ("almost-greedy", G, B[: len(G)], [a - _restricted(a, G), a - _restricted(a, B[: len(G)])])]
        for kind, a_set, b_set, rows in cases:
            num, den = b.synth_norms(np.vstack(rows))
            assert verify_witness(b, Witness(tuple(a), a_set, 0.0, kind, b_set)) == float(num) / float(den)


def test_verify_witness_rejects_unknown_kind():
    b = difference(4)
    with pytest.raises(ConditionalityError):
        verify_witness(b, Witness((1.0, 0.0, 0.0, 0.0), (1,), 1.0, "bogus"))


# ---------------------------------------------------------------------------
# oracle values
# ---------------------------------------------------------------------------


def test_oracle_unit_system_is_flat():
    b = unit_vector_system(8, Lp(2.0))
    for m in range(1, 9):
        val, wit = L_m_oracle(b, m)
        assert val == 1.0
        assert verify_witness(b, wit) == pytest.approx(1.0, rel=1e-12)


def test_oracle_unit_system_reduced_tier_stays_exact():
    # m = 16 is beyond the full joint grid; sampling cannot beat the floor 1
    b = unit_vector_system(16, Lp(2.0))
    val, _ = L_m_oracle(b, 16, guard=16)
    assert val == 1.0


def test_oracle_difference_is_m():
    b = difference(10)
    for m in range(2, 9):
        val, wit = L_m_oracle(b, m)
        assert val == pytest.approx(float(m), rel=1e-12)
        assert verify_witness(b, wit) == pytest.approx(val, rel=1e-12)


def test_oracle_summing_is_m():
    b = summing(10)
    for m in range(2, 9):
        val, _ = L_m_oracle(b, m)
        assert val == pytest.approx(float(m), rel=1e-12)


def test_oracle_difference_matches_templates():
    b = difference(10)
    for m in range(2, 9):
        t = max(sa_ratio(b, a, A) for a, A in template_pairs(b.recipe, b.d, m))
        val, _ = L_m_oracle(b, m)
        assert val == pytest.approx(t, rel=1e-12)


@pytest.mark.parametrize("m,want", sorted(LIND_ORACLE.items()))
def test_oracle_lindenstrauss_staircase(m, want):
    val, wit = L_m_oracle(lindenstrauss(12), m)
    assert val == pytest.approx(want, rel=1e-12)
    assert verify_witness(lindenstrauss(12), wit) == pytest.approx(val, rel=1e-12)


def test_oracle_validation():
    b = difference(10)
    with pytest.raises(ConditionalityError):
        L_m_oracle(b, 0)
    with pytest.raises(ConditionalityError):
        L_m_oracle(b, 11)
    with pytest.raises(ConditionalityError):
        L_m_oracle(difference(20), 15)  # beyond the default guard


# ---------------------------------------------------------------------------
# the sign-table oracle grid against a dense pair sweep
# ---------------------------------------------------------------------------

# base-5 digit of (coefficient, membership in A) per coordinate of the dense
# reference sweep: 0, +1 in, +1 out, -1 in, -1 out
PAIR_COEF = np.array([0, 1, 1, -1, -1], dtype=np.int8)
PAIR_IN = np.array([False, True, False, True, False])


def _dense_oracle_grid(p, best, leaders):
    """Reference: synthesise f and S_A f for every pair of the 5^m sweep.

    The best is the first best pair in sweep order; the leader piece holds
    the ORACLE_TOPK best f with ||f|| > TINY by their best pair, ties by the
    lowest pair index.
    """
    m = p.d
    digits = digit_rows(0, 5**m, m, 5)
    coefs, inmask = PAIR_COEF[digits].astype(np.float64), PAIR_IN[digits]
    dens = p.synth_norms(coefs)
    nums = p.synth_norms(coefs * inmask)
    ok = dens > TINY
    ratios = np.where(ok, nums / np.where(ok, dens, 1.0), 0.0)
    i = int(np.argmax(ratios))
    best.offer(coefs[i], cond_mod._mask_to_set(inmask[i]))
    order = np.flatnonzero(ok)[np.argsort(-ratios[ok], kind="stable")]
    f_codes = (coefs.astype(np.int64) % 3) @ 3 ** np.arange(m)
    first = np.sort(np.unique(f_codes[order], return_index=True)[1])[: cond_mod.ORACLE_TOPK]
    leaders.append((ratios[order[first]], coefs[order[first]]))


@pytest.mark.parametrize("m", range(1, 7))
def test_pair_codes_round_trip_whole_grid(m):
    # every pair index p of the dense sweep names f and S_A f as sign codes,
    # the residual f - S_A f is their difference, and _sweep_rank gives p back
    digits = digit_rows(0, 5**m, m, 5)
    coefs, inmask = PAIR_COEF[digits].astype(np.float64), PAIR_IN[digits]
    place = 3 ** np.arange(m)
    cf = (coefs.astype(np.int64) % 3) @ place
    cs = ((coefs * inmask).astype(np.int64) % 3) @ place
    table = sign_rows(m)
    assert np.array_equal(table[cf], coefs)
    assert np.array_equal(table[cs], coefs * inmask)
    assert np.array_equal(table[cf - cs], coefs * ~inmask)
    assert np.array_equal(_sweep_rank(cf, cs, m), np.arange(5**m))


def _random_external(space: str, m: int):
    rng = np.random.default_rng([7, m, len(space)])
    return external_basis(rng.standard_normal((m + 2, m)), parse_space(space), space)


GRID_BASES = [
    ("difference:7", lambda: parse_basis("difference:7")),
    ("summing:7", lambda: parse_basis("summing:7")),
    ("lindenstrauss:7", lambda: parse_basis("lindenstrauss:7")),
    ("interleave", lambda: parse_basis("interleave(difference:4,unit:4@lp:2)")),
    ("pqhalf", lambda: parse_basis("pqhalf(lindenstrauss,dims=2^1..2^2,p=1,q=1)")),
] + [(f"external {sp}", lambda sp=sp: _random_external(sp, 7))
     for sp in ("lp:1", "lp:2", "lp:3", "bv", "lorentz:p=2,q=1")]


@pytest.mark.parametrize("name,make", GRID_BASES, ids=[n for n, _ in GRID_BASES])
def test_oracle_grid_matches_dense_reference(name, make, monkeypatch):
    b = make()
    for m in range(1, min(b.d, 7) + 1):
        p = b.prefix(m)
        got_best, ref_best = cond_mod._Best(b, "oracle"), cond_mod._Best(b, "oracle")
        got_lead, ref_lead = [], []
        cond_mod._oracle_grid(p, got_best, got_lead)
        _dense_oracle_grid(p, ref_best, ref_lead)
        assert got_best.result() == ref_best.result()
        assert len(got_lead) == len(ref_lead) == 1
        (got_r, got_rows), (ref_r, ref_rows) = got_lead[0], ref_lead[0]
        assert np.array_equal(got_r, ref_r) and np.array_equal(got_rows, ref_rows)
    got = [L_m_oracle(b, m) for m in range(1, min(b.d, 7) + 1)]
    monkeypatch.setattr(cond_mod, "_oracle_grid", _dense_oracle_grid)
    ref = [L_m_oracle(b, m) for m in range(1, min(b.d, 7) + 1)]
    assert got == ref


def test_oracle_memory_stays_below_the_pair_grid():
    # a 5^10-long array of float64 alone takes 74.5 MiB
    b = summing(10)
    tracemalloc.start()
    try:
        L_m_oracle(b, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_oracle_grid_synthesises_sign_vectors_in_chunks():
    # synthesising all 3^10 sign vectors in the 258-wide ambient space at
    # once peaked at 135.5 MiB; 3^9 rows at a time keep it near 46 MiB
    b = parse_basis("blocksum(lindenstrauss,dims=2^1..2^6,p=1)")
    tracemalloc.start()
    try:
        val, wit = L_m_oracle(b, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (val, wit.indices) == (1.25, (3, 6))
    assert peak < 64 * 2**20


def test_oracle_set_sweeps_stay_chunked():
    # 2^14 masks against 64 ambient coordinates: one norms call over all
    # masks would hold 2^14 x (14 + 64) floats, about 9.8 MiB, at once
    b = parse_basis("blocksum(lindenstrauss,dims=2^1..2^4,p=1)")
    tracemalloc.start()
    try:
        L_m_oracle(b, 14, guard=14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10.5 * 2**20


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------


def test_estimate_delegates_to_oracle_inside_guard():
    b = lindenstrauss(16)
    for m in (2, 4, 6, 8):
        est, _ = L_m_estimate(b, m)
        orc, _ = L_m_oracle(b, m)
        assert est == pytest.approx(orc, abs=1e-9)


def test_estimate_search_route_reaches_template_value():
    # a tiny budget forces the search route; templates alone attain L_m here
    for b, m, want in ((difference(10), 6, 6.0), (lindenstrauss(12), 6, 1.75)):
        val, wit = L_m_estimate(b, m, budget=64, guard=1)
        assert val == pytest.approx(want, rel=1e-12)
        assert verify_witness(b, wit) == pytest.approx(val, rel=1e-12)


def test_estimate_seed_reproducible():
    b = lindenstrauss(32)
    a = L_m_estimate(b, 16, budget=512, seed=9)[0]
    c = L_m_estimate(b, 16, budget=512, seed=9)[0]
    assert a == c


def test_estimate_budget_monotone():
    b = lindenstrauss(32)
    lo, _ = L_m_estimate(b, 16, budget=256, seed=5)
    hi, _ = L_m_estimate(b, 16, budget=1024, seed=5)
    assert hi >= lo


def test_k_m_spread_set_bound():
    val, wit = k_m_estimate(difference(8), 4)
    assert val >= 7.0 - 1e-12
    assert len(wit.indices) <= 4
    assert verify_witness(difference(8), wit) == pytest.approx(val, rel=1e-12)


def test_k_m_full_length_equals_l_d():
    b = lindenstrauss(10)
    kv, _ = k_m_estimate(b, 10, budget=512, seed=3)
    lv, _ = L_m_estimate(b, 10, budget=512, seed=3)
    assert kv == lv


def test_k_m_without_budget_means_what_it_means_for_l_m():
    # the default budget was 2048, so k_m_estimate(b, d) took the seeded
    # route (kind "template") while budget=None and the k ladder took the
    # full-grid route, which is the exact one on a recipe basis
    b = lindenstrauss(6)
    val, wit = k_m_estimate(b, 6)
    assert wit.kind == "exact"
    assert (val, wit) == k_m_estimate(b, 6, budget=None) == lb_ladder(b, [6], kind="k")[0][1:]
    assert (val, wit) == L_m_estimate(b, 6)
    assert k_m_estimate(b, 3) == k_m_estimate(b, 3, budget=2048)


def test_k_m_validation():
    with pytest.raises(ConditionalityError):
        k_m_estimate(difference(8), 0)
    with pytest.raises(ConditionalityError):
        k_m_estimate(difference(8), 9)


# ---------------------------------------------------------------------------
# templates: the one exact witness of L_m (support 1..m) and of k_m (|A| <= m)
# ---------------------------------------------------------------------------

# every recipe family, the interleave on two pairs of sides; pqhalf has no templates
TEMPLATE_SPECS = ["difference:12", "summing:12", "lindenstrauss:16",
                  "interleave(difference:8,unit:8@lp:2)", "interleave(summing:6,lindenstrauss:8)",
                  "blocksum(lindenstrauss,dims=2^1..2^4,p=1)",
                  "pqhalf(lindenstrauss,dims=2^1..2^2,p=1,q=1)", "unit:5"]


def _k_template(b, m: int) -> list:
    """The template of ``k_m_estimate``: ``_exact``'s k_m witness (support
    1..d, |A| <= m) as a one-pair list, [] where no part has a route."""
    found = cond_mod._exact(b.recipe, b.d, b.d, m)
    return [] if found is None else [found[1:3]]


def _exact_k(b, m: int, axis: int) -> float:
    """Exact k_m of a square basis in l1 (axis 0) or c0 (axis 1): the largest
    column or row sum of |C D_A C^-1| over every |A| = m."""
    C, Cinv = b.columns, np.linalg.inv(b.columns)
    return max(float(np.abs(C[:, A] @ Cinv[A, :]).sum(axis=axis).max())
               for A in map(list, itertools.combinations(range(b.d), m)))


@pytest.mark.parametrize("spec,axis", [("difference:12", 0), ("summing:12", 1)])
def test_k_ladder_equals_brute_force(spec, axis):
    b = parse_basis(spec)
    for m, val, wit in lb_ladder(b, range(1, 7), kind="k", budget=2048, seed=1):
        assert _exact_k(b, m, axis) == pytest.approx(2 * m, rel=1e-12)
        assert val == 2 * m
        assert len(wit.indices) <= m
        assert verify_witness(b, wit) == val


def test_k_interleave_reaches_its_difference_side():
    b = parse_basis("interleave(difference:8,unit:8@lp:2)")
    for m in (2, 4):
        val, wit = k_m_estimate(b, m, budget=512, seed=1)
        assert val >= 2 * m
        assert len(wit.indices) <= m


def test_k_block_sum_reaches_its_largest_block():
    bs, lin = parse_basis("blocksum(lindenstrauss,dims=2^1..2^4,p=1)"), lindenstrauss(16)
    for m in (2, 4, 8):
        assert k_m_estimate(bs, m, budget=512, seed=1)[0] >= k_m_estimate(lin, m, budget=512, seed=1)[0]


@pytest.mark.parametrize("spec", TEMPLATE_SPECS)
def test_k_template_pairs_are_k_witnesses(spec):
    b = parse_basis(spec)
    total = 0
    for m in range(1, b.d + 1):
        for a, A in _k_template(b, m):
            assert np.asarray(a).shape == (b.d,)
            assert len(set(A)) == len(A) <= m
            assert all(1 <= i <= b.d for i in A)
            total += 1
    assert total == (0 if b.recipe[0] == "pq_block_sum" else b.d)


@pytest.mark.parametrize("spec", TEMPLATE_SPECS)
def test_templates_score_their_exact_value_bitwise(spec):
    b = parse_basis(spec)
    for m in range(1, b.d + 1):
        for n, pairs in ((m, template_pairs(b.recipe, b.d, m)), (b.d, _k_template(b, m))):
            found = cond_mod._exact(b.recipe, b.d, n, m)
            assert len(pairs) == (found is not None)
            for a, A in pairs:
                assert sa_ratio(b, a, A) == found[0]
        # every template here is the sup, so the exact route returns it
        exact = k_m_exact(b, m)
        assert (exact is None) == (b.recipe[0] == "pq_block_sum")
        if exact is not None:
            assert exact[0] == exact[1].ratio == sa_ratio(b, *_k_template(b, m)[0])


@pytest.mark.parametrize("spec", TEMPLATE_SPECS)
def test_pair_ratios_equal_sa_ratio_bitwise(spec, monkeypatch):
    """Dyadic templates synthesise exactly, so one batch of every template
    gives each pair's own one-pair value."""
    b = parse_basis(spec)
    pairs = [pair for m in range(1, b.d + 1)
             for pair in template_pairs(b.recipe, b.d, m) + _k_template(b, m)]
    want = [sa_ratio(b, a, A) for a, A in pairs]
    got = []
    assert _norms_calls(monkeypatch, lambda: got.extend(cond_mod._pair_ratios(b, pairs))) == (1 if pairs else 0)
    assert got == want


def test_pair_ratios_one_pair_is_sa_ratio_on_external_basis():
    b = _random_external("lp:3", 9)
    rng = np.random.default_rng(5)
    for _ in range(8):
        a = rng.standard_normal(9)
        A = tuple(int(i) + 1 for i in rng.choice(9, size=4, replace=False))
        assert cond_mod._pair_ratios(b, [(a, A)])[0] == sa_ratio(b, a, A)


# ---------------------------------------------------------------------------
# transfer helpers
# ---------------------------------------------------------------------------


def test_interleave_pair_maps_positions():
    a = np.array([1.0, -2.0, 3.0])
    out, A = interleave_pair(a, (1, 3), side=0, d0=3, d1=3)
    assert np.array_equal(out, [1.0, 0.0, -2.0, 0.0, 3.0, 0.0])
    assert A == (1, 5)
    out1, A1 = interleave_pair(a, (2,), side=1, d0=3, d1=3)
    assert np.array_equal(out1, [0.0, 1.0, 0.0, -2.0, 0.0, 3.0])
    assert A1 == (4,)


def test_interleave_pair_ratio_transfer_exact():
    b0, b1 = difference(4), unit_vector_system(4, Lp(2.0))
    b = interleave(b0, b1)
    a = np.array([1.0, 1.0, 1.0, 1.0])
    out, A = interleave_pair(a, (1, 3), side=0, d0=4, d1=4)
    assert sa_ratio(b, out, A) == sa_ratio(b0, a, (1, 3))


def test_interleave_pair_validation():
    with pytest.raises(ConditionalityError):
        interleave_pair(np.ones(2), (1,), side=0, d0=3, d1=3)
    # an index past the side's length and a side other than 0 or 1 raised a
    # bare IndexError, and side -1 passed as side 1
    with pytest.raises(ConditionalityError, match="1..1"):
        interleave_pair([1.0], [2], 0, 1, 1)
    for A in ([0], [1, 1], [1.5]):
        with pytest.raises(ConditionalityError):
            interleave_pair(np.ones(3), A, side=1, d0=2, d1=3)
    for side in (2, -1):
        with pytest.raises(ConditionalityError, match="side"):
            interleave_pair([1.0], [1], side, 1, 1)


def test_block_embed_pair_offsets():
    out, A = block_embed_pair(np.array([1.0, -1.0]), (2,), dims=(3, 2), r=2)
    assert np.array_equal(out, [0.0, 0.0, 0.0, 1.0, -1.0])
    assert A == (5,)


def test_block_embed_pair_validation():
    with pytest.raises(ConditionalityError):
        block_embed_pair(np.ones(2), (1,), dims=(3, 2), r=3)
    with pytest.raises(ConditionalityError):
        block_embed_pair(np.ones(3), (1,), dims=(3, 2), r=2)
    # A = (3,) in a block of 2 used to land in block 2 as index 3
    with pytest.raises(ConditionalityError, match="1..2"):
        block_embed_pair([1.0, 2.0], [3], dims=[2, 3], r=1)
    for A in ([0], [2, 2], [1.5]):
        with pytest.raises(ConditionalityError):
            block_embed_pair(np.ones(3), A, dims=(2, 3), r=2)


# ---------------------------------------------------------------------------
# growth targets and fits
# ---------------------------------------------------------------------------


def test_growth_target_deltas():
    assert LOG_TARGET.delta(8) == 3.0
    assert LINEAR_TARGET.delta(5) == 5.0
    assert GrowthTarget("power", 0.5).delta(16) == 4.0


def test_growth_target_validation():
    with pytest.raises(ConditionalityError):
        GrowthTarget("cubic")
    with pytest.raises(ConditionalityError):
        GrowthTarget("power", 1.2)
    with pytest.raises(ConditionalityError):
        LOG_TARGET.delta(0.5)


def test_target_doubling():
    inc, ratio = target_doubling(LOG_TARGET, (4, 8, 16))
    assert inc and ratio == pytest.approx(1.5)
    inc, ratio = target_doubling(LINEAR_TARGET, (4, 8, 16))
    assert inc and ratio == pytest.approx(2.0)


def test_growth_fit_exact_log():
    rows = [(m, 3.0 * math.log2(m), "oracle") for m in (4, 8, 16, 32)]
    rep = growth_fit(rows, LOG_TARGET)
    assert rep.verdict == "PASS"
    assert rep.slope == pytest.approx(3.0, rel=1e-12)
    assert rep.intercept == pytest.approx(0.0, abs=1e-9)
    assert rep.r_squared == pytest.approx(1.0, abs=1e-12)


def test_growth_fit_exact_linear():
    rows = [(m, 2.0 * m + 1.0, "oracle") for m in (2, 4, 6, 8, 10)]
    rep = growth_fit(rows, LINEAR_TARGET)
    assert rep.verdict == "PASS"
    assert rep.slope == pytest.approx(2.0, rel=1e-12)
    assert rep.intercept == pytest.approx(1.0, rel=1e-9)


def test_growth_fit_degenerate_ladder_fails_cleanly():
    rows = [(m, 1.0, "oracle") for m in (2, 4, 8, 16)]
    rep = growth_fit(rows, LOG_TARGET)
    assert rep.verdict == "FAIL"
    assert rep.r_squared is None
    assert "degenerate" in rep.note


def test_growth_fit_low_r2_fails():
    rows = [(2, 1.0, ""), (4, 5.0, ""), (8, 1.5, ""), (16, 6.0, "")]
    rep = growth_fit(rows, LOG_TARGET)
    assert rep.verdict == "FAIL"
    assert "R^2" in rep.note


def test_growth_fit_slope_band():
    rows = [(m, 0.01 * math.log2(m) + 1.0, "") for m in (4, 8, 16, 32)]
    rep = growth_fit(rows, LOG_TARGET)
    assert rep.verdict == "FAIL"
    assert "slope" in rep.note
    rep2 = growth_fit([(m, 0.2 * math.log2(m) + 1.0, "") for m in (4, 8, 16, 32)], LOG_TARGET)
    assert rep2.verdict == "PASS"


def test_growth_fit_validation():
    with pytest.raises(ConditionalityError):
        growth_fit([(2, 1.0, ""), (4, 2.0, ""), (8, 3.0, "")], LOG_TARGET)
    with pytest.raises(ConditionalityError):
        growth_fit([(2, 1.0, ""), (2, 2.0, ""), (4, 3.0, ""), (8, 4.0, "")], LOG_TARGET)


def test_growth_report_serialisation():
    rows = [(m, float(m), "oracle") for m in (2, 4, 8, 16)]
    rep = growth_fit(rows, LINEAR_TARGET)
    csv = rep.csv_rows()
    assert csv[0] == ("m", "lb", "method", "delta_m")
    assert csv[1] == (2, 2.0, "oracle", 2.0)
    doc = rep.to_doc()
    assert doc["target"]["kind"] == "linear"
    assert doc["rows"][0]["m"] == 2
    assert doc["verdict"] == rep.verdict


# ---------------------------------------------------------------------------
# ladders
# ---------------------------------------------------------------------------


def test_lb_ladder_difference_oracle_values():
    b = difference(10)
    ladder = lb_ladder(b, range(2, 9))
    for m, val, wit in ladder:
        assert val == pytest.approx(float(m), rel=1e-12)
        assert wit.kind == "exact"
        assert verify_witness(b, wit) == pytest.approx(val, rel=1e-12)


def test_lb_ladder_nondecreasing_across_the_guard():
    b = lindenstrauss(32)
    ladder = lb_ladder(b, (4, 8, 16), budget=512, seed=1)
    vals = [v for _, v, _ in ladder]
    assert vals == sorted(vals)
    # the m = 16 rung can fall back on the carried m = 8 oracle witness
    assert vals[2] >= vals[1]


def test_lb_ladder_k_kind():
    b = difference(8)
    ladder = lb_ladder(b, (2, 4), kind="k", budget=256, seed=1)
    for m, val, _ in ladder:
        assert val >= 2.0 * m - 1.0 - 1e-12


def test_lb_ladder_k_oracle_mode_refuses_a_rung_without_exact_route():
    # difference has the exact k route; the p,q half-split sum has none
    ladder = lb_ladder(difference(8), (2, 4), kind="k", mode="oracle")
    assert [(v, w.kind) for _, v, w in ladder] == [(4.0, "exact"), (8.0, "exact")]
    pq = parse_basis("pqhalf(lindenstrauss,dims=2^1..2^2,p=1,q=1)")
    with pytest.raises(ConditionalityError, match="the k rung m=2 has no exact route"):
        lb_ladder(pq, (2, 4), kind="k", mode="oracle")


@pytest.mark.parametrize("ms", [[2.7, 4.2], [2, 4.5], [2, float("nan")], [np.float64(1.5)]])
def test_lb_ladder_rejects_non_integral_rungs(ms):
    # int() once turned [2.7, 4.2] into the rungs 2 and 4
    with pytest.raises(ConditionalityError, match="m must lie in 1..8"):
        lb_ladder(difference(8), ms)


M_ESTIMATORS = {
    "oracle": (ConditionalityError, lambda b, m: L_m_oracle(b, m)),
    "L estimate": (ConditionalityError, lambda b, m: L_m_estimate(b, m, budget=64, seed=1, guard=1)),
    "k estimate": (ConditionalityError, lambda b, m: k_m_estimate(b, m, budget=64, seed=1)),
    "phi": (GreedyError, lambda b, m: fundamental_function(b, m)),
    "democracy": (GreedyError, lambda b, m: democracy_ratio(b, m)),
    "ladder": (ConditionalityError, lambda b, m: lb_ladder(b, [m], budget=64, seed=1)),
}


@pytest.mark.parametrize("name", list(M_ESTIMATORS))
@pytest.mark.parametrize("m", [2.5, True, 0, 7, "3"], ids=["fraction", "bool", "zero", "d+1", "str"])
def test_estimators_reject_bad_m(name, m):
    # 2.5 and 3.0 once leaked a bare TypeError, and True ran as m = 1
    error, run = M_ESTIMATORS[name]
    with pytest.raises(error, match="m must lie in 1..6"):
        run(lindenstrauss(6), m)


@pytest.mark.parametrize("name", list(M_ESTIMATORS))
def test_estimators_accept_integral_m_of_any_type(name):
    _, run = M_ESTIMATORS[name]
    b = lindenstrauss(6)
    want = run(b, 3)
    for m in (np.int64(3), 3.0, np.float64(3.0)):
        assert run(b, m) == want


def test_lb_ladder_rejects_a_bool_rung():
    # [True, 2] once ran the rungs 1 and 2
    with pytest.raises(ConditionalityError, match="m must lie in 1..6, got True"):
        lb_ladder(lindenstrauss(6), [True, 2])


def test_lb_ladder_accepts_integral_rungs_of_any_type():
    b = difference(8)
    want = lb_ladder(b, (2, 4))
    for ms in (np.array([2, 4]), [np.int32(2), np.int64(4)], [2.0, 4.0]):
        assert lb_ladder(b, ms) == want


def test_lb_ladder_validation():
    b = difference(8)
    with pytest.raises(ConditionalityError):
        lb_ladder(b, (4, 4))
    with pytest.raises(ConditionalityError):
        lb_ladder(b, (2, 4), kind="x")
    with pytest.raises(ConditionalityError):
        lb_ladder(b, (2, 4), mode="bogus")


# ---------------------------------------------------------------------------
# golden seeded routes: any search change that moves a value or witness shows
# here
# ---------------------------------------------------------------------------

PQHALF = "pqhalf(lindenstrauss,dims=2^1..2^2,p=1,q=1)"


def _coeff_digest(coeffs) -> str:
    return hashlib.sha256(repr(tuple(coeffs)).encode()).hexdigest()[:16]


def _golden_basis(spec):
    return _random_external("bv", 14) if spec == "external bv" else parse_basis(spec)


# the external BV basis has random columns, so BLAS rounds each row with its
# batch, and every value comes from the random blocks and their ascents
@pytest.mark.parametrize("fn,spec,m,seed,want,indices,kind,digest", [
    (L_m_estimate, PQHALF, 6, 1, 1.3060025725803714, (2, 3), "random", "54b1d10461b5344a"),
    (L_m_estimate, "lindenstrauss:16", 13, 1, 2.0, (1, 7, 8, 9, 10, 11, 12, 13), "template",
     "e29886b3c345e030"),
    (k_m_estimate, PQHALF, 3, 1, 1.4162053578738152, (1, 3, 6), "random", "35ad48b158b688d9"),
    (k_m_estimate, "lindenstrauss:16", 4, 1, 1.75, (1, 4, 5, 6), "template", "61ca66ba74b5bb69"),
    (L_m_estimate, "external bv", 13, 1, 3.705508400486132, (1, 3, 4, 5, 8, 10, 11), "random",
     "e24cd2ce2f71923e"),
    (L_m_estimate, "external bv", 13, 2, 4.292932535842053, (4, 5, 7, 8, 9, 10, 12, 13), "random",
     "5ca076e50dbc138d"),
    (L_m_estimate, "external bv", 13, 3, 5.731417933449207, (2, 4, 6, 8, 10, 12), "random",
     "a94bc4623205ec08"),
    (k_m_estimate, "external bv", 4, 1, 3.833526133791524, (1, 2, 3, 6), "random", "70647ca04d893586"),
    (k_m_estimate, "external bv", 4, 2, 4.432001852114224, (1, 3, 5, 7), "random", "ce31ec99637642ea"),
    (k_m_estimate, "external bv", 4, 3, 4.7310288884376925, (1, 3, 5, 7), "random", "4069986bb0ac944a"),
], ids=["L pqhalf m=6", "L lindenstrauss16 m=13", "k pqhalf k=3", "k lindenstrauss16 k=4"]
   + [f"{k} bv14 seed={s}" for k in ("L m=13", "k k=4") for s in (1, 2, 3)])
def test_golden_seeded_estimates(fn, spec, m, seed, want, indices, kind, digest):
    val, wit = fn(_golden_basis(spec), m, budget=512, seed=seed)
    assert val == want
    assert wit.indices == indices
    assert wit.kind == kind
    assert _coeff_digest(wit.coeffs) == digest


# ---------------------------------------------------------------------------
# the shared ascent against the two loops it replaced
# ---------------------------------------------------------------------------


def _mask_sweep_ref(p, a, masks, chunk=8192):
    den = float(p.synth_norms(a[None, :])[0])
    if den <= TINY:
        return 0.0, -1
    best, best_i = -1.0, -1
    for start in range(0, masks.shape[0], chunk):
        nums = p.synth_norms(masks[start : start + chunk] * a)
        i = int(np.argmax(nums))
        if nums[i] > best:
            best, best_i = float(nums[i]), start + i
    return best / den, best_i


def _ascend_masks_ref(p, a0, masks):
    """Reference: the oracle's ascent, rescanning every mask per step."""
    a = np.asarray(a0, dtype=np.float64).copy()
    cur, mi = _mask_sweep_ref(p, a, masks)
    if mi < 0:
        return cur, a, mi
    for _ in range(MAX_SWEEPS):
        improved = False
        for i in range(p.d):
            base = a[i]
            moves = (base * 0.5, base * 2.0, -base, 0.0) if base != 0.0 else (1.0, -1.0)
            for val in moves:
                cand = a.copy()
                cand[i] = val
                if not cand.any():
                    continue
                r, mj = _mask_sweep_ref(p, cand, masks)
                if r >= cur + ASCENT_TOL:
                    a, cur, mi = cand, r, mj
                    improved = True
                    break
        if not improved:
            break
    return cur, a, mi


def _sets_sweep_ref(p, rows, sets):
    n, m = rows.shape
    dens = p.synth_norms(rows)
    prods = rows[:, None, :] * sets[None, :, :]
    nums = p.synth_norms(prods.reshape(n * sets.shape[0], m)).reshape(n, sets.shape[0])
    ok = dens > TINY
    return np.where(ok[:, None], nums / np.where(ok, dens, 1.0)[:, None], 0.0)


def _ascend_sets_ref(p, a0, sets):
    """Reference: the estimates' ascent against a fixed family of sets."""
    a = np.asarray(a0, dtype=np.float64).copy()
    ratios = _sets_sweep_ref(p, a[None, :], sets)[0]
    si = int(np.argmax(ratios))
    cur = float(ratios[si])
    for _ in range(MAX_SWEEPS):
        improved = False
        for i in range(p.d):
            base = a[i]
            moves = (base * 0.5, base * 2.0, -base, 0.0) if base != 0.0 else (1.0, -1.0)
            for val in moves:
                cand = a.copy()
                cand[i] = val
                if not cand.any():
                    continue
                cr = _sets_sweep_ref(p, cand[None, :], sets)[0]
                cj = int(np.argmax(cr))
                if cr[cj] >= cur + ASCENT_TOL:
                    a, cur, si = cand, float(cr[cj]), cj
                    improved = True
                    break
        if not improved:
            break
    return cur, a, si


def _seeded_starts(m, seed, n=4):
    rng = np.random.default_rng([seed, m])
    starts = rng.uniform(0.5, 2.0, (n, m)) * rng.choice([-1.0, 0.0, 1.0], (n, m))
    starts[~starts.any(axis=1), 0] = 1.0
    return starts


ASCENT_BASES = [
    ("difference:7", lambda: parse_basis("difference:7")),
    ("summing:7", lambda: parse_basis("summing:7")),
    ("lindenstrauss:9", lambda: parse_basis("lindenstrauss:9")),
    ("pqhalf", lambda: parse_basis(PQHALF)),
    ("interleave", lambda: parse_basis("interleave(difference:4,unit:4@lp:2)")),
    ("external lp:3", lambda: _random_external("lp:3", 7)),
    ("external bv", lambda: _random_external("bv", 7)),
]


def _same_ratio(name, r, ref_r) -> bool:
    """Bitwise on recipe bases, whose synthesis is exact; within 4 ulp on
    external ones, where BLAS rounds a row with its batch and the ascent
    returns the ratio its window scored."""
    return r == ref_r if not name.startswith("external") else abs(r - ref_r) <= 4 * np.spacing(ref_r)


@pytest.mark.parametrize("name,make", ASCENT_BASES, ids=[n for n, _ in ASCENT_BASES])
def test_ascend_matches_oracle_mask_loop(name, make):
    b = make()
    m = min(b.d, 6)
    p = b.prefix(m)
    masks = cond_mod.all_subset_masks(m)
    for a0 in _seeded_starts(m, 1):
        r, a, mi = cond_mod._ascend(p, a0, masks)
        ref_r, ref_a, ref_mi = _ascend_masks_ref(p, a0, masks)
        assert mi == ref_mi and _same_ratio(name, r, ref_r)
        assert np.array_equal(a, ref_a) and np.array_equal(np.signbit(a), np.signbit(ref_a))
    zero = np.zeros(m)
    assert cond_mod._ascend(p, zero, masks)[2] is None
    assert _ascend_masks_ref(p, zero, masks)[2] == -1


@pytest.mark.parametrize("name,make", ASCENT_BASES, ids=[n for n, _ in ASCENT_BASES])
def test_ascend_matches_estimate_sets_loop(name, make):
    b = make()
    m = b.d
    p = b.prefix(m)
    rng = np.random.default_rng([3, m])
    extra = (rng.random((8, m)) < 0.5).astype(np.float64)
    sets = np.unique(np.vstack([cond_mod._structured_masks(m), extra]), axis=0)
    for a0 in _seeded_starts(m, 2):
        r, a, si = cond_mod._ascend(p, a0, sets)
        ref_r, ref_a, ref_si = _ascend_sets_ref(p, a0, sets)
        assert si == ref_si and _same_ratio(name, r, ref_r)
        assert np.array_equal(a, ref_a) and np.array_equal(np.signbit(a), np.signbit(ref_a))


# ---------------------------------------------------------------------------
# the ascent's bound: candidates proven to miss are left out, nothing else moves
# ---------------------------------------------------------------------------

BOUND_BASES = ASCENT_BASES + [("pqhalf summing", lambda: parse_basis("pqhalf(summing,dims=2..4,p=1,q=1)"))]


def _bound_cases(b):
    """(prefix, sets, starts): the oracle's 2^m masks at m = min(d, 6) and the
    estimates' sets at m = d, from seeded starts."""
    m = min(b.d, 6)
    rng = np.random.default_rng([3, b.d])
    extra = (rng.random((8, b.d)) < 0.5).astype(np.float64)
    sets = np.unique(np.vstack([cond_mod._structured_masks(b.d), extra]), axis=0)
    return [(b.prefix(m), cond_mod.all_subset_masks(m), _seeded_starts(m, 1)),
            (b.prefix(b.d), sets, _seeded_starts(b.d, 2))]


def _logged_ascent(p, sets, a0, col_norms):
    """``ascend`` from a0 on ``_mask_sweep``, with every score call's rows."""
    calls = []

    def score(rows):
        calls.append(rows.copy())
        return cond_mod._mask_sweep(p, rows, sets)

    cost = (sets.shape[0] + 1) * p.ambient_dim
    return ascend([a0], score, signed_moves, cost, col_norms)[0], calls


@pytest.mark.parametrize("name,make", BOUND_BASES, ids=[n for n, _ in BOUND_BASES])
def test_pruned_ascent_matches_the_unpruned_one_bitwise(name, make):
    rows = [0, 0]
    for p, sets, starts in _bound_cases(make()):
        norms_ = cond_mod._bound_norms(p)
        assert norms_ is not None
        for a0 in starts:
            (r, a, si), pruned = _logged_ascent(p, sets, a0, norms_)
            (ref_r, ref_a, ref_si), plain = _logged_ascent(p, sets, a0, None)
            assert r == ref_r and si == ref_si
            assert np.array_equal(a, ref_a) and np.array_equal(np.signbit(a), np.signbit(ref_a))
            got_r, got_a, got_si = cond_mod._ascend(p, a0, sets)
            assert got_r == r and got_si == si and np.array_equal(got_a, a)
            rows[0] += sum(map(len, pruned))
            rows[1] += sum(map(len, plain))
    assert rows[0] < rows[1]


@pytest.mark.parametrize("name,make", BOUND_BASES, ids=[n for n, _ in BOUND_BASES])
def test_pruned_ascent_leaves_out_only_misses_of_the_scalar_loop(name, make):
    from test_search import _scalar_ascend

    left_out = 0
    for p, sets, starts in _bound_cases(make()):
        def fn(a, p=p, sets=sets):
            ratios, payload, _ = cond_mod._mask_sweep(p, a[None], sets)
            return float(ratios[0]), payload(0)

        for a0 in starts:
            log = []
            _scalar_ascend(a0, fn, signed_moves, log)
            _, calls = _logged_ascent(p, sets, a0, cond_mod._bound_norms(p))
            pos = 0
            for call in calls:
                for row in call:  # walked rows follow the scalar loop; the rows between are misses
                    while not (np.array_equal(log[pos][0], row)
                               and np.array_equal(np.signbit(log[pos][0]), np.signbit(row))):
                        assert not log[pos][1]
                        pos, left_out = pos + 1, left_out + 1
                    _, taken, predicted = log[pos]
                    pos += 1
                    if taken != predicted:
                        break
            assert not any(taken for _, taken, _ in log[pos:])
            left_out += len(log) - pos
    assert left_out > 0


def test_ascent_on_a_quasi_norm_takes_no_bound():
    b = _random_external("lorentz:p=1,q=3", 7)
    for p, sets, starts in _bound_cases(b):
        assert cond_mod._bound_norms(p) is None
        for a0 in starts:
            r, a, si = cond_mod._ascend(p, a0, sets)
            (ref_r, ref_a, ref_si), _ = _logged_ascent(p, sets, a0, None)
            assert r == ref_r and si == ref_si
            assert np.array_equal(a, ref_a) and np.array_equal(np.signbit(a), np.signbit(ref_a))


def test_offers_far_below_the_record_are_not_scored(monkeypatch):
    b = parse_basis("pqhalf(lindenstrauss,dims=2^1..2^3,p=1,q=1)")
    got, want = [], []
    calls = _norms_calls(monkeypatch, lambda: got.append(L_m_oracle(b, 6)))
    real = cond_mod._Best.offer
    monkeypatch.setattr(cond_mod._Best, "offer",
                        lambda self, coeffs, A, value=math.inf, **kw: real(self, coeffs, A, **kw))
    every = _norms_calls(monkeypatch, lambda: want.append(L_m_oracle(b, 6)))
    assert got == want and calls < every


OFFER_RUNS = [
    lambda b: L_m_oracle(b, min(b.d, 6)),
    lambda b: L_m_estimate(b, b.d - 1, budget=512, seed=1),
    lambda b: k_m_estimate(b, 3, budget=256, seed=2),
]


# the estimates and ladders of the ladder-estimate benchmark workload, at seeds 1-5
BENCH_OFFER_RUNS = {
    "lindenstrauss:16": [lambda b, sd: L_m_estimate(b, 13, budget=512, seed=sd),
                         lambda b, sd: k_m_estimate(b, 4, budget=512, seed=sd)],
    "interleave(difference:8,unit:8@lp:2)": [lambda b, sd: L_m_estimate(b, 12, budget=512, seed=sd)],
    "pqhalf(lindenstrauss,dims=2^1..2^2,p=1,q=1)": [
        lambda b, sd: lb_ladder(b, (4, 5, 6), mode="estimate", budget=512, seed=sd),
        lambda b, sd: lb_ladder(b, (2, 3, 4), kind="k", budget=512, seed=sd)],
}
OFFER_CASES = [(name, make, OFFER_RUNS) for name, make in BOUND_BASES] + [
    (spec, partial(parse_basis, spec), [partial(run, sd=sd) for run in runs for sd in range(1, 6)])
    for spec, runs in BENCH_OFFER_RUNS.items()]


@pytest.mark.parametrize("name,make,runs", OFFER_CASES, ids=[n for n, *_ in OFFER_CASES])
def test_offers_stay_within_the_skip_margin(name, make, runs, monkeypatch):
    # the skip margin of ``_Best.offer`` covers sum |a_j| ||x_j|| <= 8 (1 + record) ||f||
    real, worst = cond_mod._Best.offer, [0.0]

    def offer(self, coeffs, A, *args, **kwargs):
        a = cond_mod._pad_to(np.asarray(coeffs, dtype=np.float64), self.b.d)
        s = float(np.abs(a) @ self.b.column_norms())
        if self.ratio > -math.inf:
            worst[0] = max(worst[0], s / self.b.synth_norms(a[None])[0] / (1.0 + self.ratio))
        return real(self, coeffs, A, *args, **kwargs)

    monkeypatch.setattr(cond_mod._Best, "offer", offer)
    b = make()
    for run in runs:
        run(b)
    assert 0.0 < worst[0] <= 8.0


# ---------------------------------------------------------------------------
# norms-call ceilings: the batched ascent scores several candidates per call
# ---------------------------------------------------------------------------


def _norms_calls(monkeypatch, run):
    """Number of ``spaces.norms`` calls made by ``run()``, through every
    module that binds the name."""
    calls = [0]
    real = spaces_mod.norms

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    for mod in (spaces_mod, bases_mod):
        monkeypatch.setattr(mod, "norms", counted)
    run()
    return calls[0]


# measured with the batched ascent that leaves out the candidates its bound
# proves to miss and a basis that computes its column norms once (1,028 and
# 828 before the bound, 189 and 192 before the cache); one call per
# candidate made 10,082 and 6,984 calls (the basis build not counted)
@pytest.mark.parametrize("fn,m,ceiling", [(L_m_estimate, 13, 187), (k_m_estimate, 4, 190)],
                         ids=["L m=13", "k k=4"])
def test_seeded_estimate_norms_calls_ceiling(fn, m, ceiling, monkeypatch):
    b = lindenstrauss(16)
    calls = _norms_calls(monkeypatch, lambda: fn(b, m, budget=512, seed=1))
    assert calls <= ceiling


# ``ratio_norms`` takes the norms of the kept sets and of the rows in one
# call; with a norms call for each the same runs made 1,027 and 763.  The
# ascent windows predict each coordinate's move of the sweep before; with
# the first sweep's prediction in every sweep they made 514 and 383.  With
# the exact L_13 witness as its template (not the dyadic-level profile with
# the level-parity sets) the L run made 362 -> 389.  Each of the four
# offers to the result record (the floor, the template, the first ascent,
# the block winner) is one verify_witness norms call, in place of the
# template's own score and two ascents' final re-scores alone: 389 -> 390
# and 311 -> 312.  The ascents leave out the candidates their bound proves
# to miss, each ascent taking one column-norms call, and only scored rows
# fill a window: 390 -> 190 and 312 -> 193; an offer far below the record
# is not scored: 190 -> 189 and 193 -> 192.  A basis computes its column
# norms once, so the three ascents on one prefix share one call: 189 -> 187
# and 192 -> 190
@pytest.mark.parametrize("fn,m,count", [(L_m_estimate, 13, 187), (k_m_estimate, 4, 190)],
                         ids=["L m=13", "k k=4"])
def test_seeded_estimate_norms_calls_pinned(fn, m, count, monkeypatch):
    b = lindenstrauss(16)
    assert _norms_calls(monkeypatch, lambda: fn(b, m, budget=512, seed=1)) == count


@pytest.mark.parametrize("run", [
    lambda: L_m_estimate(lindenstrauss(16), 13, budget=512, seed=1),
    lambda: k_m_estimate(parse_basis("interleave(difference:6,summing:6)"), 4, budget=256, seed=1),
    lambda: L_m_oracle(parse_basis("blocksum(lindenstrauss,dims=2^1..2^3,p=2)"), 6),
], ids=["L", "k", "oracle"])
def test_each_score_call_makes_one_norms_call(run, monkeypatch):
    calls, seen = [0], []
    real = spaces_mod.norms

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    for mod in (spaces_mod, bases_mod):
        monkeypatch.setattr(mod, "norms", counted)
    for name in ("_mask_sweep", "_block_best"):
        def spied(*args, fn=getattr(cond_mod, name), name=name):
            before = calls[0]
            out = fn(*args)
            seen.append((name, calls[0] - before))
            return out
        monkeypatch.setattr(cond_mod, name, spied)
    run()
    assert seen and {n for _, n in seen} == {1}


@pytest.mark.parametrize("budget", [2.5, True, np.float64(300.7), "300", float("inf"), np.float64("inf")])
def test_estimates_and_ladders_reject_non_integral_budgets(budget):
    b = lindenstrauss(16)
    for run in (lambda: L_m_estimate(b, 13, budget=budget),
                lambda: k_m_estimate(b, 4, budget=budget),
                lambda: lb_ladder(b, (2, 4), kind="L", budget=budget),
                lambda: lb_ladder(b, (2, 4), kind="k", budget=budget)):
        with pytest.raises(ConditionalityError, match="budget must be an integer"):
            run()


def test_estimates_accept_numpy_integer_budgets():
    b = lindenstrauss(16)
    for fn, m in ((L_m_estimate, 13), (k_m_estimate, 4)):
        assert fn(b, m, budget=np.int64(300), seed=2) == fn(b, m, budget=300, seed=2)
    assert lb_ladder(b, (13, 14), budget=np.int32(300)) == lb_ladder(b, (13, 14), budget=300)


@pytest.mark.parametrize("budget", [0, -5])
def test_estimates_reject_budget_below_one(budget):
    b = lindenstrauss(16)
    with pytest.raises(ConditionalityError, match="budget"):
        L_m_estimate(b, 13, budget=budget)
    with pytest.raises(ConditionalityError, match="budget"):
        k_m_estimate(b, 4, budget=budget)


@pytest.mark.parametrize("kind", ["L", "k"])
@pytest.mark.parametrize("budget", [0, -5])
def test_lb_ladder_rejects_budget_below_one(kind, budget):
    with pytest.raises(ConditionalityError, match="budget"):
        lb_ladder(lindenstrauss(16), (2, 4), kind=kind, budget=budget)
