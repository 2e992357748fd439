"""The shared search engine: ascent, guarded ratio and block sampler."""

from __future__ import annotations

import numpy as np
import pytest

from condgreedy._search import (
    ASCENT_TOL,
    BLOCK,
    MAX_SWEEPS,
    TINY,
    ascend,
    guarded_ratio,
    rng_stream,
    sample_block,
    scale_moves,
    signed_moves,
)

# ---------------------------------------------------------------------------
# ascend on toy objectives
# ---------------------------------------------------------------------------


class Recorder:
    """Objective a -> (scale * a[0], "p") that keeps every vector it sees."""

    def __init__(self, scale=1.0, payload="p"):
        self.scale = scale
        self.payload = payload
        self.seen = []

    def __call__(self, a):
        self.seen.append(a.copy())
        return self.scale * float(a[0]), self.payload


def test_ascend_rejects_gains_below_tolerance():
    # doubling a[0] = 1 gains 0.5 * ASCENT_TOL: never taken
    score = Recorder(scale=0.5 * ASCENT_TOL)
    r, a, p = ascend(np.array([1.0, 0.0]), score, scale_moves)
    assert a.tolist() == [1.0, 0.0]
    assert r == 0.5 * ASCENT_TOL and p == "p"
    assert len(score.seen) == 3  # the start, x0.5 and x2 on the nonzero coordinate


def test_ascend_takes_first_improving_move_per_coordinate():
    score = Recorder()
    ascend(np.array([1.0]), score, signed_moves)
    # start, then x0.5 (worse) and x2 (taken); the next sweep starts over at 2
    assert [float(v[0]) for v in score.seen[:5]] == [1.0, 0.5, 2.0, 1.0, 4.0]


def test_ascend_skips_all_zero_candidates():
    seen = []

    def peak_at_one(a):  # the start is already the maximum
        seen.append(float(a[0]))
        return -abs(float(a[0]) - 1.0), "p"

    r, a, _ = ascend(np.array([1.0]), peak_at_one, signed_moves)
    assert a.tolist() == [1.0] and r == 0.0
    assert seen == [1.0, 0.5, 2.0, -1.0]  # the move to 0.0 is never scored


def test_ascend_returns_none_payload_start_unchanged():
    score = Recorder(payload=None)
    a0 = np.array([3.0, -1.0])
    r, a, p = ascend(a0, score, signed_moves)
    assert (r, p) == (3.0, None)
    assert a.tolist() == [3.0, -1.0] and a is not a0
    assert len(score.seen) == 1


def test_ascend_stops_after_max_sweeps():
    score = Recorder()  # unbounded: every sweep doubles a[0] once
    r, a, _ = ascend(np.array([1.0]), score, scale_moves)
    assert a[0] == 2.0**MAX_SWEEPS and r == 2.0**MAX_SWEEPS
    assert len(score.seen) == 1 + 2 * MAX_SWEEPS


def test_move_sets():
    assert signed_moves(3.0) == (1.5, 6.0, -3.0, 0.0)
    assert signed_moves(0.0) == (1.0, -1.0)
    assert scale_moves(-3.0) == (-1.5, -6.0)
    assert scale_moves(0.0) == ()


# ---------------------------------------------------------------------------
# guarded_ratio
# ---------------------------------------------------------------------------


def test_guarded_ratio_zeroes_vanishing_denominators():
    nums = np.array([1.0, 2.0, 3.0, 4.0])
    dens = np.array([2.0, 0.0, TINY, 2 * TINY])
    got = guarded_ratio(nums, dens)
    assert got.tolist() == [0.5, 0.0, 0.0, 4.0 / (2 * TINY)]


def test_guarded_ratio_broadcasts_over_trailing_axes():
    nums = np.arange(6.0).reshape(2, 3)
    dens = np.array([2.0, 0.0])
    got = guarded_ratio(nums, dens)
    assert got.shape == (2, 3)
    assert got.tolist() == [[0.0, 0.5, 1.0], [0.0, 0.0, 0.0]]
    cube = guarded_ratio(np.ones((2, 2, 2)), np.array([4.0, 1e-13]))
    assert cube.tolist() == [[[0.25, 0.25], [0.25, 0.25]], [[0.0, 0.0], [0.0, 0.0]]]


def test_guarded_ratio_matches_inline_form():
    rng = np.random.default_rng(4)
    nums = rng.random((50, 7))
    dens = np.where(rng.random(50) < 0.3, 0.0, rng.random(50))
    ok = dens > TINY
    want = np.where(ok[:, None], nums / np.where(ok, dens, 1.0)[:, None], 0.0)
    assert np.array_equal(guarded_ratio(nums, dens), want)


# ---------------------------------------------------------------------------
# sample_block against the preludes it replaced
# ---------------------------------------------------------------------------


def _kept_prelude(rng, d, keep):
    # the L (keep 0.8) and quasi-greedy (keep 0.85) blocks
    mags = rng.uniform(0.5, 2.0, size=(BLOCK, d))
    signs = np.where(rng.random((BLOCK, d)) < 0.5, 1.0, -1.0)
    kept = rng.random((BLOCK, d)) < keep
    kept[~kept.any(axis=1), 0] = True
    rows = mags * signs * kept
    half = BLOCK // 2
    rows[half:] = signs[half:] * kept[half:]
    return rows


def _full_prelude(rng, d):
    # the k block
    mags = rng.uniform(0.5, 2.0, size=(BLOCK, d))
    signs = np.where(rng.random((BLOCK, d)) < 0.5, 1.0, -1.0)
    rows = mags * signs
    half = BLOCK // 2
    rows[half:] = signs[half:]
    return rows


@pytest.mark.parametrize("keep", [0.8, 0.85, None])
@pytest.mark.parametrize("d", [1, 6, 62])
def test_sample_block_matches_old_preludes(keep, d):
    for bi in range(3):
        rng_new, rng_old = rng_stream(7, "blk", d, bi), rng_stream(7, "blk", d, bi)
        got = sample_block(rng_new, d, keep=keep)
        want = _full_prelude(rng_old, d) if keep is None else _kept_prelude(rng_old, d, keep)
        assert got.shape == (BLOCK, d)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 stays -0.0
        # the stream is left where the old prelude left it
        assert np.array_equal(rng_new.random(4), rng_old.random(4))


def test_sample_block_keeps_one_coordinate_per_row():
    rows = sample_block(rng_stream(1, "blk"), 3, keep=0.05)
    assert (rows != 0.0).any(axis=1).all()
    assert np.isin(np.abs(rows[BLOCK // 2 :]), [0.0, 1.0]).all()
