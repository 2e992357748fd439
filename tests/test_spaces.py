"""Norm evaluation: axioms, frozen values, parsing round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condgreedy.bases import parse_basis
from condgreedy.spaces import (
    BV,
    C0Trunc,
    ExplicitWeights,
    Lorentz,
    LorentzPQ,
    Lp,
    MixedSum,
    SpaceError,
    format_space,
    is_norm,
    nonincreasing_rearrangement,
    norm,
    norms,
    parse_space,
    space_dim,
)

INF = float("inf")


def test_frozen_values():
    assert norm(Lp(1.0), [3, -1, 2]) == 6.0
    assert norm(Lorentz(1.0, LorentzPQ(1.0, 1.0)), [3, 1, 2]) == 6.0
    assert norm(BV(), [1, 0, 1, 0]) == 4.0
    got = norm(Lorentz(2.0, ExplicitWeights((1.0, 0.5, 1.0 / 3.0))), [1, 2, 3])
    assert got == pytest.approx(math.sqrt(34.0 / 3.0), abs=1e-12)


def test_lorentz_explicit_weights_brute_force_rearrangement():
    # the sorted evaluation must dominate every permutation's raw moment
    import itertools

    w = np.array([1.0, 0.5, 1.0 / 3.0])
    v = np.array([1.0, 2.0, 3.0])
    best = max(
        float(np.sum(np.abs(np.array(p)) ** 2 * w)) ** 0.5
        for p in itertools.permutations(v)
    )
    assert norm(Lorentz(2.0, ExplicitWeights(tuple(w))), v) == pytest.approx(best, abs=1e-12)


def test_rearrangement_examples():
    assert np.array_equal(nonincreasing_rearrangement([0, -3, 1]), [3, 1, 0])
    assert np.array_equal(nonincreasing_rearrangement([0, 0, 0]), [0, 0, 0])
    assert np.array_equal(nonincreasing_rearrangement([2, 2, -2]), [2, 2, 2])


NORM_FAMILIES = [
    (Lp(1.0), True), (Lp(3.5), True), (Lp(INF), True), (C0Trunc(4), True), (BV(), True),
    (Lorentz(1.0, LorentzPQ(2.0, 1.0)), True), (Lorentz(2.0, LorentzPQ(2.0, 2.0)), True),
    (Lorentz(3.0, LorentzPQ(1.0, 3.0)), False),
    (Lorentz(2.0, ExplicitWeights((1.0, 0.5, 0.5))), True),
    (Lorentz(1.0, ExplicitWeights((1.0, 100.0))), False),
    (MixedSum(1.0, ((Lp(1.0), 2), (BV(), 3))), True),
    (MixedSum(0.0, ((Lp(2.0), 2), (MixedSum(2.0, ((Lorentz(3.0, LorentzPQ(1.0, 3.0)), 2),)), 2))),
     False),
]


@pytest.mark.parametrize("space,want", NORM_FAMILIES, ids=[format_space(s) for s, _ in NORM_FAMILIES])
def test_is_norm_on_each_family(space, want):
    assert is_norm(space) is want


def test_increasing_lorentz_weights_break_the_triangle_inequality():
    space = Lorentz(1.0, ExplicitWeights((1.0, 100.0)))
    assert norm(space, [1.0, 1.0]) > norm(space, [1.0, 0.0]) + norm(space, [0.0, 1.0])


def test_lp_examples_and_inf():
    assert norm(Lp(2.0), [3, 4]) == 5.0
    assert norm(Lp(INF), [3, -7, 2]) == 7.0
    assert norm(C0Trunc(3), [3, -7, 2]) == 7.0


def test_invalid_parameters():
    with pytest.raises(SpaceError):
        Lp(0.5)
    with pytest.raises(SpaceError):
        C0Trunc(0)
    with pytest.raises(SpaceError):
        MixedSum(0.5, ((Lp(1.0), 2),))
    with pytest.raises(SpaceError):
        LorentzPQ(0.9, 1.0)
    with pytest.raises(SpaceError):
        ExplicitWeights((1.0, -1.0))
    with pytest.raises(SpaceError):
        norm(Lorentz(2.0, ExplicitWeights((1.0,))), [1, 2])


SPACES = [
    Lp(1.0),
    Lp(2.0),
    Lp(3.5),
    Lp(INF),
    C0Trunc(6),
    MixedSum(1.0, ((Lp(1.0), 2), (Lp(2.0), 4))),
    MixedSum(0.0, ((Lp(INF), 3), (Lp(1.0), 3))),
    Lorentz(2.0, LorentzPQ(2.0, 2.0)),
    Lorentz(1.0, LorentzPQ(2.0, 1.0)),
    BV(),
]


@pytest.mark.parametrize("space", SPACES, ids=format_space)
def test_norm_axioms_random(space):
    rng = np.random.default_rng(7)
    for _ in range(1000):
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        t = float(rng.uniform(-3, 3))
        nu, nv = norm(space, u), norm(space, v)
        assert nu >= 0.0
        assert norm(space, t * u) == pytest.approx(abs(t) * nu, rel=1e-12, abs=1e-300)
        assert norm(space, u + v) <= nu + nv + 1e-12
    assert norm(space, np.zeros(6)) == 0.0
    assert norm(space, np.eye(6)[0]) > 0.0


@given(
    v=st.lists(st.floats(-1e6, 1e6, allow_nan=False, width=32), min_size=1, max_size=8),
    p=st.sampled_from([1.0, 1.5, 2.0, 4.0]),
)
@settings(max_examples=200, deadline=None)
def test_lorentz_preset_pq_equal_reduces_to_lp(v, p):
    a = np.asarray(v)
    lz = norm(Lorentz(p, LorentzPQ(p, p)), a)
    lp = norm(Lp(p), a)
    assert abs(lz - lp) <= 1e-12 * max(lp, 1e-300)


@given(v=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=7))
@settings(max_examples=200, deadline=None)
def test_lorentz_rearrangement_invariance(v):
    rng = np.random.default_rng(3)
    a = np.asarray(v)
    space = Lorentz(1.0, LorentzPQ(2.0, 1.0))
    base = norm(space, a)
    for _ in range(5):
        assert norm(space, rng.permutation(a)) == base


def test_mixed_single_block_equals_block_norm():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(5)
    assert norm(MixedSum(2.0, ((Lp(1.0), 5),)), v) == norm(Lp(1.0), v)
    assert norm(MixedSum(0.0, ((Lp(2.0), 5),)), v) == norm(Lp(2.0), v)


def test_mixed_sum_block_arithmetic():
    # q=2 over (l1 pair, linf pair): sqrt((|1|+|1|)^2 + max(3,4)^2)
    space = MixedSum(2.0, ((Lp(1.0), 2), (Lp(INF), 2)))
    assert norm(space, [1, 1, 3, -4]) == pytest.approx(math.hypot(2.0, 4.0), abs=1e-12)
    sup = MixedSum(0.0, ((Lp(1.0), 2), (Lp(INF), 2)))
    assert norm(sup, [1, 1, 3, -4]) == 4.0


def test_norms_batch_matches_scalar():
    rng = np.random.default_rng(23)
    V = rng.standard_normal((40, 6))
    for space in SPACES:
        batch = norms(space, V)
        single = np.array([norm(space, row) for row in V])
        # BLAS may vectorize the batch differently; semantics must agree
        assert np.allclose(batch, single, rtol=1e-13, atol=0.0)


def test_norm_rejects_nan():
    with pytest.raises(SpaceError):
        norm(Lp(1.0), [1.0, float("nan")])


INF_SPACES = [
    Lp(3.0),
    Lp(1.0),
    Lp(INF),
    Lorentz(2.0, LorentzPQ(3.0, 2.0)),
    BV(),
    parse_space("mixed:q=3[lp:1^2,lp:3^2]"),
    MixedSum(0.0, ((BV(), 2), (MixedSum(1.0, ((Lp(2.0), 1), (C0Trunc(1), 1))), 2))),
]


@pytest.mark.parametrize("space", INF_SPACES, ids=format_space)
def test_rows_holding_inf_have_norm_inf(space):
    import warnings

    rng = np.random.default_rng(9)
    V = rng.standard_normal((6, 4))
    finite = norms(space, V)
    V[1, :] = INF
    V[3, 2] = -INF
    V[4, 0] = INF
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for overwrite in (False, True):
            X = V.copy()
            got = norms(space, X, overwrite=overwrite)
            assert np.array_equal(np.isinf(got), [False, True, False, True, True, False])
            keep = [0, 2, 5]
            assert np.array_equal(got[keep], finite[keep])
            if not overwrite:
                assert np.array_equal(X, V)
    assert norm(space, [INF, INF, 0.0, 0.0]) == INF
    with pytest.raises(SpaceError):
        norms(space, np.array([[INF, 0.0, 0.0, 0.0], [float("nan"), 0.0, 0.0, 0.0]]))


@pytest.mark.parametrize("space", INF_SPACES + [Lorentz(3.0, LorentzPQ(1.5, 3.0))], ids=format_space)
def test_row_norms_do_not_depend_on_the_batch(space):
    # a row's norm is the same alone and at any place in a batch, so rows
    # synthesised apart can share one norms call
    V = np.random.default_rng(12).standard_normal((23, 4))
    alone = np.array([norms(space, V[i : i + 1])[0] for i in range(len(V))])
    for start in range(5):
        assert np.array_equal(norms(space, V[start:]), alone[start:])


# ---------------------------------------------------------------------------
# flat MixedSum evaluation and the overwrite switch
# ---------------------------------------------------------------------------


def _reference_norms(space, V):
    """Block-by-block evaluation through the public function, one call per block."""
    if not isinstance(space, MixedSum):
        return norms(space, V)
    cols, off = [], 0
    for sub, d in space.blocks:
        cols.append(_reference_norms(sub, V[:, off : off + d]))
        off += d
    block_norms = np.stack(cols, axis=1)
    if space.outer_q == 0.0:
        return block_norms.max(axis=1)
    return norms(Lp(space.outer_q), block_norms)


NESTED = MixedSum(2.0, ((Lp(1.0), 2), (MixedSum(0.0, ((BV(), 2), (C0Trunc(2), 2))), 4)))

NESTED_SPECS = [
    "pqhalf(lindenstrauss,dims=2^1..2^2,p=1,q=1)",
    "interleave(difference:8,unit:8@lp:2)",
    "blocksum(lindenstrauss,dims=2^1..2^3,p=2)",
]

NESTED_SPACES = [pytest.param(parse_basis(spec).space, id=spec) for spec in NESTED_SPECS] + [
    NESTED,
    # Lorentz and BV leaves under an outer q = 3.5 over three blocks
    MixedSum(3.5, ((Lp(1.0), 3), (Lorentz(2.0, LorentzPQ(3.0, 2.0)), 4), (BV(), 5))),
    MixedSum(1.0, ((Lorentz(1.0, LorentzPQ(2.0, 1.0)), 4), (NESTED, 6))),
    # q = 1 over 3 and 9 blocks: np.add.reduceat differs from the stacked
    # row sum from 3 terms on, a left fold from 8 terms on
    MixedSum(1.0, ((Lp(1.0), 3), (Lp(2.0), 4), (Lp(INF), 5))),
    MixedSum(1.0, tuple((Lp(1.0 + (j % 3)), 1 + j % 4) for j in range(9))),
]


@pytest.mark.parametrize("space", NESTED_SPACES, ids=format_space)
def test_nested_mixed_norms_match_reference_bitwise(space):
    width = space_dim(space)
    rng = np.random.default_rng(31)
    for n in (0, 1, 7, 300):
        V = rng.standard_normal((n, width)) * rng.uniform(0.0, 3.0, (n, 1))
        V[rng.random(V.shape) < 0.1] = -0.0
        before = V.copy()
        want = _reference_norms(space, V)
        got = norms(space, V)
        assert got.shape == (n,)
        assert np.array_equal(got, want)
        assert np.array_equal(V, before) and np.array_equal(np.signbit(V), np.signbit(before))
        assert np.array_equal(norms(space, V.copy(), overwrite=True), want)


def test_mixed_evaluator_is_built_once_per_space_object(monkeypatch):
    from condgreedy import spaces

    built = []
    compile_mixed = spaces._compile_mixed
    monkeypatch.setattr(spaces, "_compile_mixed", lambda s: built.append(s) or compile_mixed(s))
    text = "mixed:q=0[mixed:q=1[lp:1^3,lp:1^5]^8,bv^3]"
    space = parse_space(text)
    V = np.random.default_rng(3).standard_normal((5, 11))
    first = norms(space, V)
    for _ in range(4):
        assert np.array_equal(norms(space, V), first)
        assert np.array_equal(norms(space, V.copy(), overwrite=True), first)
    assert built == [space]  # the inner MixedSum is part of the outer evaluator
    twin = parse_space(text)
    assert twin == space and hash(twin) == hash(space)
    assert np.array_equal(norms(twin, V), first)
    assert len(built) == 2
    for bad in (np.ones((2, 10)), np.ones((2, 12)), np.ones((0, 0))):
        with pytest.raises(SpaceError):
            norms(space, bad)
    assert len(built) == 2


def test_mixed_space_pickles_after_evaluation():
    import pickle

    V = np.random.default_rng(4).standard_normal((3, 6))
    want = norms(NESTED, V)
    copy = pickle.loads(pickle.dumps(NESTED))
    assert copy == NESTED
    assert np.array_equal(norms(copy, V), want)


def test_nested_mixed_nan_in_inner_block_raises():
    inner = MixedSum(1.0, ((Lp(1.0), 2), (BV(), 3)))
    space = MixedSum(0.0, ((Lp(2.0), 2), (inner, 5)))
    V = np.ones((4, 7))
    V[2, 5] = float("nan")
    for overwrite in (False, True):
        with pytest.raises(SpaceError):
            norms(space, V.copy(), overwrite=overwrite)


@pytest.mark.parametrize("space", SPACES + [NESTED], ids=format_space)
def test_norms_leave_input_unchanged_without_overwrite(space):
    rng = np.random.default_rng(41)
    V = rng.standard_normal((25, 6))
    before = V.copy()
    got = norms(space, V)
    assert np.array_equal(V, before)
    assert np.array_equal(norms(space, V.copy(), overwrite=True), got)


@pytest.mark.parametrize("space", SPACES, ids=format_space)
def test_format_parse_roundtrip(space):
    txt = format_space(space)
    assert parse_space(txt) == space


def test_parse_canonical_forms():
    assert parse_space("lp:1") == Lp(1.0)
    assert parse_space("lp:inf") == Lp(INF)
    assert parse_space("bv") == BV()
    assert parse_space("lorentz:p=2,q=1") == Lorentz(1.0, LorentzPQ(2.0, 1.0))
    mixed = parse_space("mixed:q=2[lp:1^4,lp:1^8]")
    assert mixed == MixedSum(2.0, ((Lp(1.0), 4), (Lp(1.0), 8)))
    with pytest.raises(SpaceError):
        parse_space("lq:3")
