"""Constructors, combinators, index bookkeeping, and the lift/retract pair."""

from __future__ import annotations

import json

import numpy as np
import pytest

from condgreedy import bases as bases_mod
from condgreedy import (
    BV,
    BasisError,
    BlockMapPair,
    C0Trunc,
    Lp,
    MixedSum,
    basis_from_doc,
    basis_to_doc,
    block_index_split,
    block_offsets,
    block_sum,
    difference,
    external_basis,
    format_space,
    half_split_maps,
    interleave,
    interleave_positions,
    lindenstrauss,
    lorentz_lift,
    lorentz_retract,
    norm,
    parse_basis,
    parse_dims,
    pq_block_sum,
    sa_ratio,
    summing,
    unit_vector_system,
)
from condgreedy.spaces import parse_space


# ---------------------------------------------------------------------------
# atomic constructors
# ---------------------------------------------------------------------------


def test_unit_vector_system_is_identity():
    b = unit_vector_system(3, Lp(2.0))
    assert b.d == 3 and b.ambient_dim == 3
    assert np.array_equal(b.columns, np.eye(3))
    assert np.allclose(b.column_norms(), 1.0)
    assert b.seminorm_c == 1.0


def test_unit_vector_system_bv_single():
    b = unit_vector_system(1, BV())
    assert np.array_equal(b.columns, [[1.0]])
    assert b.column_norms()[0] == 1.0


def test_unit_vector_system_l1_norms():
    b = unit_vector_system(4, Lp(1.0))
    assert np.allclose(b.column_norms(), 1.0)


def test_unit_vector_system_rejects_dim_mismatch():
    with pytest.raises(BasisError):
        unit_vector_system(3, C0Trunc(4))


def test_lindenstrauss_columns():
    b = lindenstrauss(2)
    assert b.ambient_dim == 5
    assert np.array_equal(b.columns[:, 0], [1.0, -0.5, -0.5, 0.0, 0.0])
    assert np.array_equal(b.columns[:, 1], [0.0, 1.0, 0.0, -0.5, -0.5])


def test_lindenstrauss_column_l1_norm_is_two():
    b = lindenstrauss(7)
    assert np.allclose(b.column_norms(), 2.0)
    assert b.seminorm_c == 2.0


def test_lindenstrauss_full_rank():
    b = lindenstrauss(2)
    assert np.linalg.matrix_rank(b.columns) == 2


def test_summing_columns():
    b = summing(3)
    assert np.array_equal(b.columns[:, 1], [1.0, 1.0, 0.0])
    assert np.allclose(b.column_norms(), 1.0)


def test_summing_single_is_identity():
    b = summing(1)
    assert np.array_equal(b.columns, [[1.0]])


def test_difference_columns():
    b = difference(3)
    expect = np.array([[1, -1, 0], [0, 1, -1], [0, 0, 1]], dtype=float)
    assert np.array_equal(b.columns, expect)


def test_difference_telescopes_to_unit_vector():
    b = difference(6)
    e6 = np.zeros(6)
    e6[5] = 1.0
    assert np.array_equal(b.synth(np.ones(6)), e6)


def test_difference_column_norms():
    b = difference(5)
    got = b.column_norms()
    assert got[0] == 1.0
    assert np.allclose(got[1:], 2.0)


@pytest.mark.parametrize("spec", ["lindenstrauss:16", "summing:6", "blocksum(lindenstrauss,dims=2^1..2^3,p=2)"])
def test_column_norms_are_one_read_only_array_per_basis(spec, monkeypatch):
    calls, real = [0], bases_mod.norms

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(bases_mod, "norms", counted)
    b = parse_basis(spec)
    for basis in (b, b.prefix(b.d - 2)):
        before = calls[0]
        got = basis.column_norms()
        assert basis.column_norms() is got and not got.flags.writeable
        assert calls[0] == before + 1
        assert np.array_equal(got, real(basis.space, basis.columns.T))
        with pytest.raises(ValueError):
            got[0] = 0.0


@pytest.mark.parametrize("ctor", [lindenstrauss, summing, difference])
def test_constructors_reject_nonpositive_d(ctor):
    with pytest.raises(BasisError):
        ctor(0)


def test_external_basis_rejects_dependent_columns():
    cols = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(BasisError):
        external_basis(cols, Lp(1.0), "dep")


def test_external_basis_rejects_zero_column():
    cols = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(BasisError):
        external_basis(cols, Lp(1.0), "zero")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_external_basis_rejects_non_finite_entries(bad):
    cols = np.eye(3)
    cols[2, 1] = bad
    with pytest.raises(BasisError, match=f"column 1 of 'ext' has the non-finite entry {bad} at row 2"):
        external_basis(cols, Lp(1.0), "ext")
    doc = {"label": "ext", "space": "lp:1", "columns": cols.T.tolist()}
    with pytest.raises(BasisError, match="non-finite"):
        basis_from_doc(json.dumps(doc).replace("Infinity", "1e999"))
    with pytest.raises(BasisError, match="non-finite"):
        basis_from_doc(doc)


def test_external_basis_rejects_non_matrix():
    with pytest.raises(BasisError):
        external_basis(np.ones(3), Lp(1.0), "flat")


def test_columns_are_immutable():
    b = difference(3)
    with pytest.raises(ValueError):
        b.columns[0, 0] = 7.0


def test_synth_shape_checks():
    b = difference(3)
    with pytest.raises(BasisError):
        b.synth([1.0, 2.0])
    with pytest.raises(BasisError):
        b.synth_rows(np.ones(3))


# ---------------------------------------------------------------------------
# prefixes and kept-set norms
# ---------------------------------------------------------------------------


def _touched_external(space, amb=9, d=5):
    """Columns j < 3 touch rows 0..j + 2 only, later ones every row."""
    rng = np.random.default_rng([13, amb, d])
    cols = rng.standard_normal((amb, d))
    for j in range(3):
        cols[j + 3 :, j] = 0.0
    return external_basis(cols, space, "touched")


@pytest.mark.parametrize("make,m,amb,space", [
    (lambda: lindenstrauss(8), 3, 7, Lp(1.0)),
    (lambda: difference(6), 4, 4, Lp(1.0)),
    (lambda: summing(6), 2, 2, C0Trunc(2)),
    (lambda: _touched_external(parse_space("lorentz:p=2,q=1")), 2, 4, None),
    (lambda: _touched_external(Lp(3.0)), 3, 5, Lp(3.0)),
    (lambda: _touched_external(Lp(3.0)), 4, 9, Lp(3.0)),
    (lambda: _touched_external(BV()), 1, 9, BV()),
    (lambda: interleave(difference(3), summing(3)), 2, 6, None),
], ids=["lindenstrauss", "difference", "summing c0", "lorentz", "lp:3", "lp:3 late", "bv", "mixed"])
def test_prefix_trims_to_the_last_touched_row(make, m, amb, space):
    b = make()
    p = b.prefix(m)
    assert (p.d, p.ambient_dim, p.columns.shape) == (m, amb, (amb, m))
    assert p.space == (b.space if space is None else space)
    assert np.array_equal(p.columns, b.columns[:amb, :m])
    assert not b.columns[amb:, :m].any()
    assert p.label == f"{b.label}[1..{m}]" and p.recipe == ("prefix", b.recipe, m)
    rng = np.random.default_rng([5, m])
    rows = rng.standard_normal((16, m))
    padded = np.hstack([rows, np.zeros((16, b.d - m))])
    assert np.allclose(p.synth_norms(rows), b.synth_norms(padded), rtol=1e-14, atol=0.0)


def test_prefix_rejects_lengths_outside_one_to_d_and_is_read_only():
    b = difference(4)
    for m in (0, -1, 5):
        with pytest.raises(BasisError, match="1..4"):
            b.prefix(m)
    p = b.prefix(2)
    with pytest.raises(ValueError):
        p.columns[0, 0] = 7.0
    # column-major, so synthesis multiplies by a C-contiguous transpose
    assert p.columns.flags.f_contiguous and p.columns.T.flags.c_contiguous


def _kept_loop(b, rows, sets):
    shared = sets.ndim == 2
    return np.array([[b.synth_norms((row * (sets if shared else sets[i])[k])[None])[0]
                      for k in range((sets if shared else sets[i]).shape[0])]
                     for i, row in enumerate(rows)])


@pytest.mark.parametrize("chunk", [8192, 3], ids=["one chunk", "chunk 3"])
def test_kept_norms_equals_a_per_set_loop(chunk, monkeypatch):
    monkeypatch.setattr(bases_mod, "KEPT_CHUNK", chunk)
    b = parse_basis("interleave(difference:4,summing:3)")  # exact synthesis
    rng = np.random.default_rng(21)
    rows = rng.integers(-4, 5, size=(6, b.d)).astype(np.float64)
    shared = (rng.random((10, b.d)) < 0.5).astype(np.float64)
    per_row = rng.random((6, 7, b.d)) < 0.5
    for sets in (shared, per_row):
        got = b.kept_norms(rows, sets)
        assert got.shape == (6, sets.shape[-2])
        assert np.array_equal(got, _kept_loop(b, rows, sets))


def test_kept_norms_chunks_keep_their_batches(monkeypatch):
    # every product holds the rows times one slice of KEPT_CHUNK sets
    monkeypatch.setattr(bases_mod, "KEPT_CHUNK", 4)
    b = _touched_external(Lp(3.0))
    rng = np.random.default_rng(8)
    rows, sets = rng.standard_normal((3, b.d)), (rng.random((10, b.d)) < 0.5).astype(np.float64)
    calls = []
    real = bases_mod.BasisTruncation.synth_norms
    synth_rows = bases_mod.BasisTruncation.synth_rows
    monkeypatch.setattr(bases_mod.BasisTruncation, "synth_rows",
                        lambda self, X, out=None: calls.append(X.shape) or synth_rows(self, X, out))
    got = b.kept_norms(rows, sets)
    assert calls == [(12, b.d), (12, b.d), (6, b.d)]
    want = np.hstack([real(b, (rows[:, None, :] * sets[s : s + 4]).reshape(-1, b.d)).reshape(3, -1)
                      for s in (0, 4, 8)])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("make", [
    lambda: _touched_external(Lp(3.0)),
    lambda: _touched_external(BV()),
    lambda: _touched_external(parse_space("lorentz:p=2,q=1")),
    lambda: _touched_external(parse_space("lorentz:p=3,q=2")),
    lambda: block_sum(_touched_external(Lp(3.0), amb=11, d=7), [3, 7], 2.0),
], ids=["lp:3", "bv", "lorentz", "lorentz q=2", "mixed"])
@pytest.mark.parametrize("k", [1, 15, 11], ids=["K=1", "K=15", "K>KEPT_CHUNK"])
def test_ratio_norms_equal_kept_and_synth_norms_bitwise(make, k, monkeypatch):
    # one norms call per chunk of sets, the rows' own norms in the last one
    if k == 11:
        monkeypatch.setattr(bases_mod, "KEPT_CHUNK", 4)
    b = make()
    p = b.prefix(b.d - 1)
    rng = np.random.default_rng(k)
    calls = []
    real = bases_mod.norms
    monkeypatch.setattr(bases_mod, "norms", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    for n in (1, 3, 13):
        rows = rng.standard_normal((n, p.d))
        for sets in ((rng.random((k, p.d)) < 0.5).astype(np.float64), rng.random((n, k, p.d)) < 0.5):
            calls.clear()
            nums, dens = p.ratio_norms(rows, sets)
            assert len(calls) == -(-k // bases_mod.KEPT_CHUNK)
            assert np.array_equal(nums, p.kept_norms(rows, sets))
            assert np.array_equal(dens, p.synth_norms(rows))


# ---------------------------------------------------------------------------
# interleave
# ---------------------------------------------------------------------------


def test_interleave_unit_example():
    b = interleave(unit_vector_system(2, Lp(1.0)), unit_vector_system(2, Lp(2.0)))
    assert b.d == 4 and b.ambient_dim == 4
    expect = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ],
        dtype=float,
    )
    assert np.array_equal(b.columns, expect)
    assert isinstance(b.space, MixedSum) and b.space.outer_q == 0.0


def test_interleave_preserves_column_norms():
    b0, b1 = difference(4), unit_vector_system(4, Lp(2.0))
    b = interleave(b0, b1)
    pos0, pos1 = interleave_positions(4, 4)
    got = b.column_norms()
    assert np.array_equal(got[[k - 1 for k in pos0]], b0.column_norms())
    assert np.array_equal(got[[k - 1 for k in pos1]], b1.column_norms())


def test_interleave_positions_alternate_then_append():
    assert interleave_positions(3, 1) == ((1, 3, 4), (2,))
    assert interleave_positions(1, 3) == ((1,), (2, 3, 4))
    assert interleave_positions(2, 2) == ((1, 3), (2, 4))


@pytest.mark.parametrize("d0", range(1, 7))
@pytest.mark.parametrize("d1", range(1, 7))
def test_interleave_positions_bijection(d0, d1):
    pos0, pos1 = interleave_positions(d0, d1)
    assert len(pos0) == d0 and len(pos1) == d1
    assert sorted(pos0 + pos1) == list(range(1, d0 + d1 + 1))
    # strictly alternating while both sides still have columns
    for k in range(2 * min(d0, d1)):
        src = pos0 if k % 2 == 0 else pos1
        assert (k + 1) in src


def test_interleave_transfers_projection_ratios_exactly():
    # a vector supported on one side sees only its own block in the max norm
    b0 = difference(5)
    b = interleave(b0, unit_vector_system(5, Lp(2.0)))
    pos0, _ = interleave_positions(5, 5)
    rng = np.random.default_rng(7)
    for _ in range(25):
        f = rng.standard_normal(5)
        A = [int(i) for i in rng.choice(5, size=2, replace=False) + 1]
        lifted = np.zeros(10)
        lifted[[k - 1 for k in pos0]] = f
        A_lift = [pos0[i - 1] for i in A]
        assert sa_ratio(b, lifted, A_lift) == sa_ratio(b0, f, A)


# ---------------------------------------------------------------------------
# block sums
# ---------------------------------------------------------------------------


def test_block_offsets():
    assert block_offsets((2, 4)) == (0, 2)
    assert block_offsets((3, 1, 5)) == (0, 3, 4)


def test_block_index_split_exhaustive():
    dims = (2, 4, 3)
    for k in range(1, sum(dims) + 1):
        r, j = block_index_split(dims, k)
        assert 1 <= j <= dims[r - 1]
        assert k == j + sum(dims[: r - 1])
    with pytest.raises(BasisError):
        block_index_split(dims, 0)
    with pytest.raises(BasisError):
        block_index_split(dims, 10)


def test_block_sum_shape_and_space():
    b = block_sum(difference(4), (2, 4), 1.0)
    assert b.d == 6 and b.ambient_dim == 6
    assert isinstance(b.space, MixedSum) and b.space.outer_q == 1.0
    assert [sz for _, sz in b.space.blocks] == [2, 4]


def test_block_sum_single_block_is_plain_truncation():
    base = difference(4)
    b = block_sum(base, (4,), 2.0)
    assert np.array_equal(b.columns, base.columns)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((20, 4))
    assert np.allclose(b.synth_norms(A), base.synth_norms(A), rtol=1e-15)


def test_block_sum_in_block_ratio_matches_base():
    base = difference(4)
    b = block_sum(base, (2, 4), 1.0)
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal(4)
        full = np.concatenate([np.zeros(2), a])
        A_base = [1, 3]
        A_full = [2 + i for i in A_base]
        assert sa_ratio(b, full, A_full) == sa_ratio(base, a, A_base)


def test_block_sum_rejects_oversized_block():
    with pytest.raises(BasisError):
        block_sum(difference(4), (5,), 1.0)
    with pytest.raises(BasisError):
        block_sum(difference(4), (), 1.0)
    with pytest.raises(BasisError):
        block_sum(difference(4), (0, 2), 1.0)


# ---------------------------------------------------------------------------
# split block sums
# ---------------------------------------------------------------------------


def test_pq_block_sum_with_trivial_q_reduces_to_block_sum():
    base = difference(4)
    dims = (2, 4)
    blocks = []
    for dn in dims:
        blocks.append(
            (dn, BlockMapPair(np.eye(dn), np.zeros((0, dn)), Lp(1.0), Lp(1.0)))
        )
    got = pq_block_sum(base, blocks, 1.0, 1.0)
    want = block_sum(base, dims, 1.0)
    assert np.array_equal(got.columns, want.columns)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((30, 6))
    assert np.array_equal(got.synth_norms(A), want.synth_norms(A))


def test_half_split_distortion_bound():
    base = difference(8)
    dn = 8
    pair = half_split_maps(base, dn)
    b = pq_block_sum(base, [(dn, pair)], 1.0, 1.0)
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = rng.standard_normal(dn)
        f = base.synth(a)
        split = norm(b.space, b.synth(a))
        whole = norm(Lp(1.0), f)
        assert split <= whole + 1e-12
        assert whole <= 2.0 * split + 1e-12


@pytest.mark.parametrize("space", ["lp:1", "lp:3", "bv", "lorentz:p=2,q=1"])
def test_pq_block_sum_random_maps_on_external_basis(space):
    # the stored rows are the stacked product [P; Q] times the row-major view
    # of the block's columns that the rank check saw: a one-row P alone, or
    # prefix's column-major copy, can round differently
    b = _touched_external(parse_space(space))
    rng = np.random.default_rng(len(space))
    blocks, ys, zs = [], [], []
    for dn, py in ((2, 3), (5, 1)):
        k = b.prefix(dn).ambient_dim
        P, Q = rng.standard_normal((py, k)), rng.standard_normal((k - 1, k))
        blocks.append((dn, BlockMapPair(P, Q, Lp(1.0), Lp(2.0))))
        stacked = np.vstack([P, Q]) @ b.columns[:k, :dn]
        ys.append(stacked[:py])
        zs.append(stacked[py:])
    got = pq_block_sum(b, blocks, 1.0, 2.0)
    want = np.zeros_like(got.columns)
    z0 = 4 + zs[0].shape[0]
    want[:3, :2], want[3:4, 2:], want[4:z0, :2], want[z0:, 2:] = *ys, *zs
    assert np.array_equal(got.columns, want)


def test_pq_block_sum_rejects_rank_deficient_maps():
    base = difference(4)
    P = np.array([[1.0, 1.0]])  # collapses a 2-dim block onto a line
    pair = BlockMapPair(P, np.zeros((0, 2)), Lp(1.0), Lp(1.0))
    with pytest.raises(BasisError):
        pq_block_sum(base, [(2, pair)], 1.0, 1.0)


def test_pq_block_sum_sup_and_l2_targets_construct():
    # canonical projections of a product block onto sup-normed head and
    # hilbertian tail, outer q = 0
    n = 3
    dn = 2**n - 2
    base = unit_vector_system(dn, Lp(2.0))
    P = np.eye(dn)[:n]
    Q = np.eye(dn)[n:]
    pair = BlockMapPair(P, Q, C0Trunc(n), Lp(2.0))
    b = pq_block_sum(base, [(dn, pair)], 1.0, 0.0)
    assert b.d == dn
    assert Q.shape[0] == 2**n - n - 2
    assert np.linalg.matrix_rank(b.columns) == dn


# ---------------------------------------------------------------------------
# lift / retract
# ---------------------------------------------------------------------------


def test_lift_example():
    assert np.array_equal(lorentz_lift([1.0, 2.0]), [1.0, 0.0, 2.0, 0.0])


def test_retract_example():
    assert np.array_equal(lorentz_retract([1.0, 0.0, 2.0, 0.0]), [1.0, 2.0])


def test_retract_pads_odd_length():
    assert np.array_equal(lorentz_retract([1.0, 0.0, 2.0]), [1.0, 2.0])


def test_retract_after_lift_is_identity():
    rng = np.random.default_rng(23)
    for size in (1, 2, 7, 16):
        v = rng.standard_normal(size)
        assert np.array_equal(lorentz_retract(lorentz_lift(v)), v)


def test_lift_bv_norm_is_twice_l1():
    # each lifted entry contributes |a| on the way up and |a| back to zero
    assert norm(BV(), lorentz_lift([1.0, 2.0])) == 6.0
    rng = np.random.default_rng(29)
    for _ in range(200):
        v = rng.standard_normal(int(rng.integers(1, 12)))
        lifted = lorentz_lift(v)
        assert norm(BV(), lifted) == pytest.approx(2.0 * np.abs(v).sum(), rel=1e-12)


def test_retract_contracts_bv_on_even_lengths():
    # pair differences are disjoint variation steps; needs full pairs, an odd
    # tail element pairs with the zero pad and can exceed the variation
    rng = np.random.default_rng(31)
    for _ in range(1000):
        g = rng.standard_normal(2 * int(rng.integers(1, 9)))
        assert np.abs(lorentz_retract(g)).sum() <= norm(BV(), g) + 1e-12


def test_retract_sup_bound():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        g = rng.standard_normal(int(rng.integers(1, 17)))
        r = lorentz_retract(g)
        assert np.abs(r).max() <= 2.0 * np.abs(g).max() + 1e-12


def test_lift_retract_reject_matrices():
    with pytest.raises(BasisError):
        lorentz_lift(np.ones((2, 2)))
    with pytest.raises(BasisError):
        lorentz_retract(np.ones((2, 2)))


# ---------------------------------------------------------------------------
# partial-sum sanity for the perturbed-unit system
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [8, 32, 64])
def test_lindenstrauss_partial_sums_bounded(d):
    b = lindenstrauss(d)
    rng = np.random.default_rng(41)
    F = rng.standard_normal((200, d))
    dens = b.synth_norms(F)
    worst = 0.0
    for m in range(1, d + 1):
        masked = F.copy()
        masked[:, m:] = 0.0
        worst = max(worst, float((b.synth_norms(masked) / dens).max()))
    assert worst <= 3.0


# ---------------------------------------------------------------------------
# spec strings and serialisation
# ---------------------------------------------------------------------------


def test_parse_dims_forms():
    assert parse_dims("2^1..2^6") == (2, 4, 8, 16, 32, 64)
    assert parse_dims("2..5") == (2, 3, 4, 5)
    assert parse_dims("3,5,8") == (3, 5, 8)
    with pytest.raises(BasisError):
        parse_dims("2^1..6")
    for bad in ("a..b", "2^1..x", "2^3..2^1", "5..2", "3,x"):
        with pytest.raises(BasisError):
            parse_dims(bad)


def test_parse_basis_atoms():
    b = parse_basis("difference:10")
    assert b.d == 10 and b.label == "difference:10"
    assert format_space(parse_basis("unit:16").space) == "lp:2"
    assert format_space(parse_basis("unit:8@lp:1").space) == "lp:1"
    assert parse_basis("lindenstrauss:4").ambient_dim == 9
    assert parse_basis("summing:6").d == 6


def test_parse_basis_composites():
    assert parse_basis("interleave(difference:8,unit:8@lp:2)").d == 16
    bs = parse_basis("blocksum(lindenstrauss,dims=2^1..2^3,p=1)")
    assert bs.d == 2 + 4 + 8
    pq = parse_basis("pqhalf(difference,dims=2^1..2^2,p=1,q=1)")
    assert pq.d == 2 + 4


@pytest.mark.parametrize(
    "bad",
    [
        "difference",
        "unknown:4",
        "difference:x",
        "difference:4@lp:1",
        "interleave(difference:4)",
        "blocksum(difference:4)",
        "blocksum(difference:4,p=1)",
        "blocksum(lindenstrauss,dims=2^1..2^3,r=5)",
        "blocksum(lindenstrauss,dims=2^1..2^3,p=1,q=0)",
        "blocksum(lindenstrauss,dims=2^1..2^3,p=1,p=2)",
        "pqhalf(difference,dims=2^1..2^2,q=1,q=1)",
        "interleave(difference:4,unit:4,)",
        "blocksum(lindenstrauss,,dims=2^1..2^3)",
        "blocksum(lindenstrauss,dims=2^3..2^1)",
        "blocksum(lindenstrauss,dims=5..2)",
        "blocksum(lindenstrauss,dims=2^1..x)",
        "interleave(difference:4,unit:4@lp:2))",
    ],
)
def test_parse_basis_rejects_malformed(bad):
    with pytest.raises(BasisError):
        parse_basis(bad)


@pytest.mark.parametrize("spec,key", [
    ("blocksum(lindenstrauss,dims=2^1..2^3,p=x)", "p"),
    ("blocksum(lindenstrauss,dims=2^1..2^3,p=0.5)", "p"),
    ("blocksum(lindenstrauss,dims=2^1..2^3,p=-1)", "p"),
    ("blocksum(lindenstrauss,dims=2^1..2^3,p=nan)", "p"),
    ("blocksum(lindenstrauss,dims=2^1..2^3,p=inf)", "p"),
    ("pqhalf(lindenstrauss,dims=2^1..2^2,p=x,q=1)", "p"),
    ("pqhalf(lindenstrauss,dims=2^1..2^2,p=0.5,q=1)", "p"),
    ("pqhalf(lindenstrauss,dims=2^1..2^2,p=1,q=y)", "q"),
    ("pqhalf(lindenstrauss,dims=2^1..2^2,p=1,q=inf)", "q"),
    ("pqhalf(lindenstrauss,dims=2^1..2^2,p=1,q=-1)", "q"),
    ("pqhalf(lindenstrauss,dims=2^1..2^2,p=1,q=nan)", "q"),
    # a one-coordinate block leaves the Z-stack empty; its q is checked all the same
    ("pqhalf(summing,dims=1,q=0.5)", "q"),
    ("pqhalf(unit:2,dims=1,q=nan)", "q"),
])
def test_parse_basis_rejects_bad_exponents(spec, key):
    with pytest.raises(BasisError, match=rf"^{key} must be"):
        parse_basis(spec)


@pytest.mark.parametrize("spec,outer", [
    ("blocksum(lindenstrauss,dims=2^1..2^3,p=0)", 0.0),
    ("blocksum(lindenstrauss,dims=2^1..2^3,p=1e0)", 1.0),
    ("blocksum(lindenstrauss,dims=2^1..2^3,p= 2.5)", 2.5),
    ("blocksum(lindenstrauss,dims=2^1..2^3)", 1.0),
    ("pqhalf(lindenstrauss,dims=2^1..2^2,p=3,q=0)", None),
    # a one-coordinate block leaves the Z-stack empty
    ("pqhalf(summing,dims=1,q=1)", None),
])
def test_parse_basis_keeps_accepted_exponents(spec, outer):
    b = parse_basis(spec)
    if outer is not None:
        assert b.space.outer_q == outer


def test_block_sum_exponent_errors_name_the_key():
    with pytest.raises(BasisError, match="^p must be 0 or in"):
        block_sum(lindenstrauss(4), (2, 4), 0.5)
    pair = half_split_maps(lindenstrauss(4), 4)
    with pytest.raises(BasisError, match="^q must be a number"):
        pq_block_sum(lindenstrauss(4), [(4, pair)], 1.0, "x")


@pytest.mark.parametrize(
    "spec",
    ["difference:6", "lindenstrauss:5", "blocksum(difference:4,dims=2^1..2^2,p=1)"],
)
def test_doc_roundtrip(spec):
    b = parse_basis(spec)
    doc = basis_to_doc(b)
    back = basis_from_doc(json.dumps(doc))
    assert back.d == b.d and back.ambient_dim == b.ambient_dim
    assert np.array_equal(back.columns, b.columns)
    assert format_space(back.space) == format_space(b.space)
    rng = np.random.default_rng(43)
    A = rng.standard_normal((10, b.d))
    assert np.array_equal(back.synth_norms(A), b.synth_norms(A))
