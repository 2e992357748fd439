"""The shared search engine: batched ascent, guarded ratio and block sampler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condgreedy import _search as search_mod
from condgreedy._search import (
    ASCENT_TOL,
    BATCH_ENTRIES,
    BLOCK,
    MAX_SWEEPS,
    TINY,
    ascend,
    best_subcodes,
    digit_rows,
    distinct_leaders,
    greedy_order,
    guarded_ratio,
    parallel_block_max,
    rng_stream,
    sample_block,
    scale_moves,
    sign_row,
    sign_rows,
    sign_table,
    signed_moves,
    top_positions,
)

# ---------------------------------------------------------------------------
# ascend on toy objectives, against the scalar loop it replaced
# ---------------------------------------------------------------------------

ONE = BATCH_ENTRIES  # cost that allows one candidate per call
COSTS = (ONE, BATCH_ENTRIES // 3, BATCH_ENTRIES // 7, 1)  # batches of 1, 3, 7, 8192


def _scalar_ascend(a0, score, moves, log=None):
    """Reference: the one-candidate-per-call ascent; ``score(a)`` gives
    (ratio, payload).  ``log`` collects (row, accepted, predicted accepted)
    per scored row, with the prediction ``ascend`` learns: ``moves.predicted``
    in the first sweep, then each coordinate's move of the sweep before
    unless it turned a[i] zero or nonzero."""
    a = np.asarray(a0, dtype=np.float64).copy()
    cur, payload = score(a)
    if log is not None:
        log.append((a.copy(), False, False))
    if payload is None:
        return cur, a, payload
    guess = [moves.predicted] * a.size
    for _ in range(MAX_SWEEPS):
        improved, prior, guess = False, guess, [None] * a.size
        for i in range(a.size):
            for m, val in enumerate(moves(a[i])):
                cand = a.copy()
                cand[i] = val
                if not cand.any():
                    continue
                r, p = score(cand)
                taken = r >= cur + ASCENT_TOL
                if log is not None:
                    log.append((cand.copy(), taken, m == prior[i]))
                if taken:
                    guess[i] = m if (a[i] == 0.0) == (val == 0.0) else None
                    a, cur, payload = cand, r, p
                    improved = True
                    break
        if not improved:
            break
    return cur, a, payload


def batch_of(fn):
    """Batch scorer that applies the scalar objective ``fn`` row by row."""
    def score(rows):
        out = [fn(row) for row in rows]
        return np.array([r for r, _ in out]), lambda k: out[k][1]
    return score


class Recorder:
    """Batch objective rows -> scale * rows[:, 0] with a fixed payload that
    keeps every call's rows."""

    def __init__(self, scale=1.0, payload="p"):
        self.scale = scale
        self.payload = payload
        self.calls = []

    def __call__(self, rows):
        self.calls.append(rows.copy())
        return self.scale * rows[:, 0], lambda k: self.payload

    @property
    def seen(self):
        return [row for call in self.calls for row in call]


def ascend_one(a0, score, moves, cost):
    """``ascend`` from the single start a0."""
    return ascend([a0], score, moves, cost)[0]


def assert_sequential(calls, log):
    """Each call's window, up to its first wrong prediction, is the next
    rows the scalar loop scored; the rest of the window is dropped, and no
    call follows the last window."""
    pos = 0
    for call in calls:
        assert pos < len(log)
        for row in call:
            want, taken, predicted = log[pos]
            assert np.array_equal(row, want) and np.array_equal(np.signbit(row), np.signbit(want))
            pos += 1
            if taken != predicted:
                break
    assert pos == len(log)


def test_ascend_rejects_gains_below_tolerance():
    # doubling a[0] = 1 gains 0.5 * ASCENT_TOL: never taken
    for cost in (ONE, 1):
        score = Recorder(scale=0.5 * ASCENT_TOL)
        r, a, p = ascend_one(np.array([1.0, 0.0]), score, scale_moves, cost)
        assert a.tolist() == [1.0, 0.0]
        assert r == 0.5 * ASCENT_TOL and p == "p"
        # the start, x0.5 and x2 on the nonzero coordinate
        assert [v.tolist() for v in score.seen] == [[1.0, 0.0], [0.5, 0.0], [2.0, 0.0]]


def test_ascend_takes_first_improving_move_per_coordinate():
    score = Recorder()
    ascend_one(np.array([1.0]), score, signed_moves, ONE)
    # start, then x0.5 (worse) and x2 (taken); the next sweep starts over at 2
    assert [float(v[0]) for v in score.seen[:5]] == [1.0, 0.5, 2.0, 1.0, 4.0]
    batched = Recorder()
    ascend_one(np.array([1.0]), batched, signed_moves, 1)
    # the whole first sweep in one call, the move to 0.0 left out; x2 is
    # taken, so the next sweep's window ends at the x2 it predicts taken
    assert [c[:, 0].tolist() for c in batched.calls[:4]] == [
        [1.0], [0.5, 2.0, -1.0], [1.0, 4.0], [2.0, 8.0]]


@pytest.mark.parametrize("cost", COSTS)
def test_ascend_scores_in_sequential_order(cost):
    for a0 in ([1.0], [1.0, 0.0, -2.0], [0.0, 3.0]):
        log, score = [], Recorder()
        want = _scalar_ascend(a0, lambda a: (float(a[0]), "p"), signed_moves, log)
        got = ascend_one(np.array(a0), score, signed_moves, cost)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        assert_sequential(score.calls, log)


def test_ascend_skips_all_zero_candidates():
    seen = []

    def peak_at_one(a):  # the start is already the maximum
        seen.append(float(a[0]))
        return -abs(float(a[0]) - 1.0), "p"

    for cost in (ONE, 1):
        seen.clear()
        r, a, _ = ascend_one(np.array([1.0]), batch_of(peak_at_one), signed_moves, cost)
        assert a.tolist() == [1.0] and r == 0.0
        assert seen == [1.0, 0.5, 2.0, -1.0]  # the move to 0.0 is never scored


def test_ascend_scores_zero_moves_with_another_nonzero_coordinate():
    # a[0] -> 0 leaves a[1] nonzero, so it is a real candidate; once
    # accepted, a[1] -> 0 would vanish and is skipped
    def fn(a):
        return float(a[1]) - abs(float(a[0])), "p"

    for cost in COSTS:
        calls, log = [], []
        score = batch_of(fn)
        got = ascend_one(np.array([1.0, 1.0]),
                         lambda rows: calls.append(rows.copy()) or score(rows), signed_moves, cost)
        want = _scalar_ascend([1.0, 1.0], fn, signed_moves, log)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        assert not any((~row.any()) for call in calls for row in call)
        assert_sequential(calls, log)


def test_ascend_returns_none_payload_start_unchanged():
    for cost in (ONE, 1):
        score = Recorder(payload=None)
        a0 = np.array([3.0, -1.0])
        r, a, p = ascend_one(a0, score, signed_moves, cost)
        assert (r, p) == (3.0, None)
        assert a.tolist() == [3.0, -1.0] and a is not a0
        assert len(score.seen) == 1


def test_ascend_stops_after_max_sweeps():
    score = Recorder()  # unbounded: every sweep doubles a[0] once
    r, a, _ = ascend_one(np.array([1.0]), score, scale_moves, ONE)
    assert a[0] == 2.0**MAX_SWEEPS and r == 2.0**MAX_SWEEPS
    assert len(score.seen) == 1 + 2 * MAX_SWEEPS
    batched = Recorder()
    r, a, _ = ascend_one(np.array([1.0]), batched, signed_moves, 1)
    assert a[0] == 2.0**MAX_SWEEPS and r == 2.0**MAX_SWEEPS
    # one call per sweep: the first sweep's three moves (the move to 0.0
    # left out), then x0.5 and the x2 taken the sweep before, after which
    # the window ends (with the prediction of the first sweep only, the
    # calls held 3 rows each)
    assert [len(c) for c in batched.calls] == [1, 3] + [2] * (MAX_SWEEPS - 1)
    # the first sweep's window ends at the halving that scale_moves predicts
    # taken, and the x2 follows alone; from then on each window is x0.5 and
    # the predicted x2 (with the prior alone, every call held one row)
    batched = Recorder()
    r, a, _ = ascend_one(np.array([1.0]), batched, scale_moves, 1)
    assert a[0] == 2.0**MAX_SWEEPS and r == 2.0**MAX_SWEEPS
    assert [len(c) for c in batched.calls] == [1, 1, 1] + [2] * (MAX_SWEEPS - 1)


def test_ascend_stale_predictions_cost_calls_not_trajectories():
    # a[0] moves to 0.0, then back to +1 (moves(0.0) index 0, which on a
    # nonzero a[0] is the halving: not predicted); a[1] doubles, then
    # flips, so each sweep after the first predicts a move that no longer
    # gains and its window ends there
    table = {(1.0, 1.0): 1.0, (0.0, 1.0): 2.0, (0.0, 2.0): 3.0,
             (1.0, 2.0): 4.0, (1.0, -2.0): 5.0}
    fn = _table_objective(table)
    log = []
    want = _scalar_ascend([1.0, 1.0], fn, signed_moves, log)
    assert want[1].tolist() == [1.0, -2.0] and want[0] == 5.0
    assert [row.tolist() for row, taken, _ in log if taken] == [
        [0.0, 1.0], [0.0, 2.0], [1.0, 2.0], [1.0, -2.0]]
    assert [row.tolist() for row, _, predicted in log if predicted] == [[1.0, 4.0], [1.0, 2.0]]
    calls = []
    score = batch_of(fn)
    got = ascend_one(np.array([1.0, 1.0]), lambda rows: calls.append(rows.copy()) or score(rows),
                     signed_moves, 1)
    assert got[0] == want[0] and np.array_equal(got[1], want[1])
    assert_sequential(calls, log)
    # each stale prediction ends a window, one call more per sweep than
    # the prior alone takes (1, 8, 3, 5, 4, 8)
    assert [len(c) for c in calls] == [1, 8, 3, 4, 2, 2, 7, 1]

    # any prior, stale from the first sweep on, gives the same trajectory
    for prior in (None, 0, 1, 2, 3):
        def moves(x):
            return signed_moves(x)
        moves.predicted = prior
        for cost in COSTS:
            log, calls = [], []
            assert _scalar_ascend([1.0, 1.0], fn, moves, log)[1].tolist() == [1.0, -2.0]
            got = ascend_one(np.array([1.0, 1.0]),
                             lambda rows: calls.append(rows.copy()) or score(rows), moves, cost)
            assert got[0] == want[0] and np.array_equal(got[1], want[1])
            assert_sequential(calls, log)


def _table_objective(table, default=0.0):
    def fn(a):
        return table.get(tuple(a.tolist()), default), "p"
    return fn


@pytest.mark.parametrize("cost", COSTS)
def test_ascend_tolerance_boundary(cost):
    cur = 0.5
    edge = cur + ASCENT_TOL
    below, above = np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)
    next_edge = edge + ASCENT_TOL
    table = {
        (1.0, 1.0): cur,
        (0.5, 1.0): below,  # one ulp short of the gain: rejected
        (2.0, 1.0): edge,  # exactly ASCENT_TOL (as computed): taken
        (-1.0, 1.0): above,  # would be taken, but comes after the first gain
        (2.0, 0.5): np.nextafter(next_edge, -np.inf),  # rejected
        (2.0, 2.0): np.nextafter(next_edge, np.inf),  # one ulp over: taken
    }
    fn = _table_objective(table)
    want = _scalar_ascend([1.0, 1.0], fn, signed_moves)
    got = ascend_one(np.array([1.0, 1.0]), batch_of(fn), signed_moves, cost)
    assert got[1].tolist() == [2.0, 2.0] == want[1].tolist()
    assert got[0] == want[0] == np.nextafter(next_edge, np.inf)


def _toy(seed, d):
    """Seeded smooth objective with a payload; None when a[0] vanishes."""
    rng = np.random.default_rng([seed, d])
    w, c = rng.uniform(0.5, 2.0, d), rng.uniform(-4.0, 4.0, d)

    def fn(a):
        val = float(w @ np.abs(a)) / (1.0 + float(((a - c) ** 2).sum()))
        return val, (None if a[0] == 0.0 else int(np.argmax(np.abs(a))))
    return fn


@pytest.mark.parametrize("cost", COSTS)
@pytest.mark.parametrize("moves", [signed_moves, scale_moves], ids=["signed", "scale"])
def test_ascend_matches_scalar_loop_on_seeded_toys(cost, moves):
    for seed in range(6):
        d = 1 + seed
        fn = _toy(seed, d)
        rng = np.random.default_rng([seed, 99])
        for a0 in rng.uniform(0.5, 2.0, (3, d)) * rng.choice([-1.0, 0.0, 1.0], (3, d)):
            log, calls = [], []
            want = _scalar_ascend(a0, fn, moves, log)
            score = batch_of(fn)
            got = ascend_one(a0, lambda rows: calls.append(rows.copy()) or score(rows), moves, cost)
            assert got[0] == want[0] and got[2] == want[2]
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(np.signbit(got[1]), np.signbit(want[1]))
            assert_sequential(calls, log)


@pytest.mark.parametrize("cost", COSTS)
@pytest.mark.parametrize("moves", [signed_moves, scale_moves], ids=["signed", "scale"])
@pytest.mark.parametrize("n_starts", [1, 2, 5])
def test_ascend_lockstep_matches_scalar_loop_per_start(n_starts, moves, cost):
    staggered = nones = 0
    for seed in range(6):
        d = 2 + seed
        fn = _toy(seed, d)
        rng = np.random.default_rng([seed, n_starts, 7])
        starts = rng.uniform(0.5, 2.0, (n_starts, d)) * rng.choice([-1.0, 1.0], (n_starts, d))
        if n_starts > 1 and seed % 2:
            starts[-1, 0] = 0.0  # its payload is None: it comes back unchanged
        logs = [[] for _ in starts]
        wants = [_scalar_ascend(a0, fn, moves, log) for a0, log in zip(starts, logs)]
        calls, score = [], batch_of(fn)
        got = ascend(starts, lambda rows: calls.append(rows.copy()) or score(rows), moves, cost)
        assert len(got) == n_starts
        for (r, a, p), (want_r, want_a, want_p) in zip(got, wants):
            assert r == want_r and p == want_p
            assert np.array_equal(a, want_a) and np.array_equal(np.signbit(a), np.signbit(want_a))
        assert np.array_equal(calls[0], starts)
        # the live starts share BATCH_ENTRIES // cost candidates, one row each at least
        assert all(len(call) <= max(BATCH_ENTRIES // cost, n_starts) for call in calls)
        nones += sum(want[2] is None for want in wants)
        # a start finished while another one went on
        staggered += len({len(log) for log in logs if len(log) > 1}) > 1
        if cost == ONE:
            # one candidate of every live start per call, in start order,
            # and no call after the last round
            rounds = max(len(log) for log in logs)
            assert len(calls) == rounds
            for k in range(1, rounds):
                want = [log[k][0] for log in logs if len(log) > k]
                assert np.array_equal(calls[k], np.array(want))
    assert n_starts == 1 or (staggered > 0 and nones > 0)


def test_move_sets():
    assert signed_moves(3.0) == (1.5, 6.0, -3.0, 0.0)
    assert signed_moves(0.0) == (1.0, -1.0)
    assert scale_moves(-3.0) == (-1.5, -6.0)
    assert scale_moves(0.0) == ()


def test_greedy_order_prefers_low_index_among_ties():
    assert greedy_order(np.array([2.0, -2.0, 2.0])).tolist() == [0, 1, 2]
    assert greedy_order(np.array([[3.0, -1.0, 2.0], [1.0, -2.0, 2.0]])).tolist() == [[0, 2, 1], [1, 2, 0]]


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


# ---------------------------------------------------------------------------
# the block maximum
# ---------------------------------------------------------------------------


def test_block_max_keeps_first_best_block_in_order():
    calls = []

    def block(i):
        calls.append(i)
        return [1.0, 3.0, 2.0, 3.0, -1.0][i], f"payload {i}"

    assert parallel_block_max(block, 5) == (3.0, "payload 1")
    assert calls == [0, 1, 2, 3, 4]
    # a lone block is kept even below zero; no blocks gives (0.0, None)
    assert parallel_block_max(lambda i: (-1.0, "only"), 1) == (-1.0, "only")
    assert parallel_block_max(block, 0) == (0.0, None)


# ---------------------------------------------------------------------------
# the oracle's leader pick
# ---------------------------------------------------------------------------


class _TopK:
    """Reference: the incremental best-k tracker that ``distinct_leaders``
    replaces; each update keeps the stable best k of the old and new rows."""

    def __init__(self, k: int, width: int):
        self.k = k
        self.ratios = np.empty(0)
        self.coefs = np.empty((0, width))

    def update(self, ratios, coefs):
        if ratios.size == 0:
            return
        sel = top_positions(ratios, self.k)
        self.ratios = np.concatenate([self.ratios, ratios[sel]])
        self.coefs = np.vstack([self.coefs, coefs[sel]])
        order = np.argsort(-self.ratios, kind="stable")[: self.k]
        self.ratios = self.ratios[order]
        self.coefs = self.coefs[order]

    def distinct_starts(self, tol: float = 1e-13):
        picked = []
        for i in range(self.ratios.size):
            if all(abs(self.ratios[i] - self.ratios[j]) > tol for j in picked):
                picked.append(i)
        return [self.coefs[i].copy() for i in picked]


@pytest.mark.parametrize("seed", range(40))
def test_distinct_leaders_matches_incremental_topk(seed):
    rng = np.random.default_rng(seed)
    k, width = int(rng.integers(1, 8)), 3
    ref, pieces = _TopK(k, width), []
    for _ in range(int(rng.integers(0, 8))):
        n = int(rng.choice([0, 1, int(rng.integers(2, 50))]))
        # few distinct values, some within the 1e-13 distinctness tolerance
        ratios = rng.integers(0, 4, size=n) / 4.0 + rng.choice([0.0, 1e-14, 1e-12], size=n)
        rows = rng.standard_normal((n, width))
        ref.update(ratios, rows)
        sel = top_positions(ratios, k)  # each piece pre-cut, as the reduced tier does
        pieces.append((ratios[sel], rows[sel]))
    got, want = distinct_leaders(pieces, k), ref.distinct_starts()
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_distinct_leaders_of_no_rows():
    assert distinct_leaders([], 6) == []
    assert distinct_leaders([(np.empty(0), np.empty((0, 4)))] * 3, 6) == []


# ---------------------------------------------------------------------------
# best sub-codes of the exhaustive routes, against brute force
# ---------------------------------------------------------------------------


def _best_subcodes_brute(values, m, prefer_wide):
    """Every sub-code of every code, best by value, ties by the 5-adic width."""
    digits = digit_rows(0, 3**m, m, 3)
    width = (digits != 0) @ 5 ** np.arange(m)
    out = np.empty(3**m, dtype=np.int64)
    for c in range(3**m):
        subs = np.flatnonzero(((digits == 0) | (digits == digits[c])).all(axis=1))
        key = width[subs] if prefer_wide else -width[subs]
        out[c] = subs[np.lexsort((-key, -values[subs]))[0]]
    return out


@pytest.mark.parametrize("prefer_wide", (True, False))
@pytest.mark.parametrize("m", range(1, 7))
def test_best_subcodes_match_brute_force(m, prefer_wide):
    rng = np.random.default_rng([m, prefer_wide])
    for values in (rng.random(3**m), rng.integers(0, 3, 3**m).astype(np.float64),
                   np.zeros(3**m)):
        got = best_subcodes(values, m, prefer_wide)
        assert np.array_equal(got, _best_subcodes_brute(values, m, prefer_wide))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=3**m, max_size=3**m),
    st.booleans())))
def test_best_subcodes_break_forced_ties(case):
    m, values, prefer_wide = case
    values = np.array(values)
    got = best_subcodes(values, m, prefer_wide)
    assert np.array_equal(got, _best_subcodes_brute(values, m, prefer_wide))


# ---------------------------------------------------------------------------
# the chunked sign-vector table and its decoder
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,chunk", [(1, 3**9), (7, 3**9), (7, 1000), (10, 3**9)])
def test_sign_table_fills_every_code_in_chunks(m, chunk, monkeypatch):
    # 3^7 = 2187 rows in chunks of 1000 leave a short last chunk; 3^10 is
    # three whole chunks of 3^9
    monkeypatch.setattr(search_mod, "SIGN_CHUNK", chunk)
    weights = np.random.default_rng(m).integers(1, 100, m).astype(np.float64)  # exact sums
    sizes = []

    def norms_of(rows):
        sizes.append(rows.shape[0])
        return np.abs(rows) @ weights + rows @ weights

    table = sign_table(norms_of, m)
    whole = sign_rows(m)
    assert sizes == [min(chunk, 3**m - s) for s in range(0, 3**m, chunk)]
    assert np.array_equal(table, np.abs(whole) @ weights + whole @ weights)
    assert np.array_equal(sign_row(np.arange(3**m), m), whole)
    assert np.array_equal(sign_row(3**m - 1, m), whole[-1])
    assert sign_row(np.empty(0, dtype=np.int64), m).shape == (0, m)
