"""The search engine of every lower-bound estimator: the block sampler
``sample_block``, ``guarded_ratio``, ``greedy_order``, the lockstep coordinate
ascent ``ascend`` with its move sets, the block maximum ``parallel_block_max``,
the oracle's leader pick ``distinct_leaders``, the input checks and the
sign-vector tables of the exhaustive routes.
What is specific to one family of constants stays beside its estimators:
``conditionality._seeded_search`` for L_m and k_m, ``greedy._drop_search``
and ``greedy._min_denominators`` for the greedy constants.

Determinism contract: every random draw comes from a counter-based Philox
stream keyed by (seed, tag, indices), so results do not depend on chunk
sizes or evaluation order.  Estimates are running maxima and
sample index ranges are nested in the budget, which makes every estimator
monotone in its budget.
"""

from __future__ import annotations

import zlib

import numpy as np

DEFAULT_SEED = 0xC0FFEE
DEFAULT_BUDGET = 2048
BLOCK = 256  # coefficient samples per random block
ASCENT_TOL = 1e-10
MAX_SWEEPS = 200
BATCH_ENTRIES = 8192  # product entries per batched ascent call
TINY = 1e-12  # norms at or below this count as zero


def rng_stream(seed: int, *key) -> np.random.Generator:
    """Philox generator keyed by seed plus arbitrary (str|int) parts."""
    parts = [int(seed) & 0xFFFFFFFF]
    for part in key:
        if isinstance(part, str):
            parts.append(zlib.crc32(part.encode("utf-8")))
        else:
            parts.append(int(part) & 0xFFFFFFFF)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(parts)))


def check_budget(budget, error: type, default: int = DEFAULT_BUDGET) -> int:
    """The sample budget (``default`` for None); ``error`` for one below 1."""
    if budget is not None and budget < 1:
        raise error(f"budget must be at least 1, got {budget}")
    return default if budget is None else budget


def check_indices(A, d: int, error: type) -> np.ndarray:
    """The sorted 0-based positions of the 1-based indices ``A``; ``error``
    for a duplicate or an index outside 1..d."""
    idx = sorted(int(i) for i in A)
    if len(set(idx)) != len(idx):
        raise error(f"duplicate indices in {A!r}")
    if idx and (idx[0] < 1 or idx[-1] > d):
        raise error(f"indices must lie in 1..{d}")
    return np.asarray(idx, dtype=np.int64) - 1


def guarded_ratio(nums, dens) -> np.ndarray:
    """nums / dens where dens > TINY, else 0; dens broadcasts over the
    trailing axes of nums."""
    dens = np.asarray(dens).reshape(np.shape(dens) + (1,) * (np.ndim(nums) - np.ndim(dens)))
    ok = dens > TINY
    return np.where(ok, nums / np.where(ok, dens, 1.0), 0.0)


def sample_block(rng: np.random.Generator, d: int, keep: float | None = None) -> np.ndarray:
    """BLOCK rows of random magnitudes in [0.5, 2] times random signs, the
    second half bare signs; with ``keep`` each coordinate survives with that
    probability, at least one per row.  Draws magnitudes, signs, then keep."""
    mags = rng.uniform(0.5, 2.0, size=(BLOCK, d))
    signs = np.where(rng.random((BLOCK, d)) < 0.5, 1.0, -1.0)
    rows = mags * signs
    if keep is not None:
        kept = rng.random((BLOCK, d)) < keep
        kept[~kept.any(axis=1), 0] = True
        rows = rows * kept
        signs = signs * kept
    half = BLOCK // 2
    rows[half:] = signs[half:]
    return rows


def signed_moves(x: float) -> tuple:
    """Halve, double, flip or zero a coefficient; a zero one tries +-1."""
    return (x * 0.5, x * 2.0, -x, 0.0) if x != 0.0 else (1.0, -1.0)


def scale_moves(x: float) -> tuple:
    """Halve or double a nonzero coefficient; zeros stay put."""
    return (x * 0.5, x * 2.0) if x != 0.0 else ()


signed_moves.predicted = None  # the L and k ascents take about 10 % of their moves
scale_moves.predicted = 0  # the halving: the quasi-greedy ascent takes 77 % of them


def _climb(rec: list, moves, width: list):
    """One start of ``ascend``: yields its windows (None when done), takes back (ratios,
    payload, offset, call size), keeps rec = [ratio, a, (payload, row), call size] current."""
    for _ in range(MAX_SWEEPS):
        a = rec[1].tolist()  # a move at coordinate j leaves a[i] for i > j as it was
        cands = [(i, v, m == moves.predicted)
                 for i in range(len(a)) for m, v in enumerate(moves(a[i]))]
        past = {i: n + 1 for n, (i, _, _) in enumerate(cands)}  # position past i's moves
        end, improved, k = len(cands), False, 0
        while k < end:
            path, n, pnz = [], k, np.count_nonzero(rec[1])  # pnz: nonzeros on the path
            for _ in range(width[0]):
                if n == end:
                    break
                i, v, taken = cands[n]
                n += 1
                if v == 0.0 and pnz == (a[i] != 0.0):  # a move to 0.0 of the only nonzero
                    continue
                path.append(n - 1)
                if taken:
                    pnz, n = pnz + (v != 0.0) - (a[i] != 0.0), past[i]
            k = n
            if not path:
                continue
            rows = rec[1][None].repeat(len(path), 0)
            for r, m in enumerate(path):
                i, v, taken = cands[m]
                rows[r, i] = v
                if taken:
                    rows[r + 1 :, i] = v
            ratios, payload, off, size = yield rows
            for h, m in enumerate(path, off):
                i, v, taken = cands[m]
                gain = ratios[h] >= rec[0] + ASCENT_TOL
                if gain:
                    rec[:], improved = (ratios[h], rows[h - off], (payload, h), size), True
                if gain != taken:  # go on where the scalar loop goes on
                    k = past[i] if gain else m + 1
                    break
        if not improved:
            break
    yield None


def ascend(starts, score, moves, cost) -> list:
    """First-improvement coordinate ascent from each row of ``starts`` (S, d);
    returns one (ratio, a, payload) per start.

    ``score(rows)`` is a batch scorer: (n, d) candidate rows -> (ratios (n,),
    payload), with ``payload(k)`` built on demand for row k.  A sweep tries
    the moves ``moves(a[i])`` of every coordinate in order, skipping
    all-zero rows; the first that gains at least ASCENT_TOL is taken and the
    sweep goes on at coordinate i + 1.  Sweeps repeat until one takes no
    move or MAX_SWEEPS; a start whose payload is None comes back unchanged.

    Each score call holds a window of every live start: the next candidates
    as if the move ``moves.predicted`` of each coordinate were taken and no
    other, BATCH_ENTRIES product entries at ``cost`` per row shared among
    the live starts (one row at least).  A window is walked up to its first
    wrong prediction, so for a batch-invariant scorer every trajectory is
    that of one candidate per call.  BLAS may round a row differently with
    its batch, which can only turn a gain within rounding of ASCENT_TOL; a
    final vector scored beside other rows is scored again alone.
    """
    a = np.array(starts, dtype=np.float64)
    ratios, payload = score(a)
    recs = [[r, a[s], (payload, s), len(a)] for s, r in enumerate(ratios.tolist())]
    total, width = max(1, BATCH_ENTRIES // cost), [1]  # width: candidates per window
    climbs = [_climb(rec, moves, width) for rec in recs if payload(rec[2][1]) is not None]
    width[0] = max(1, total // max(1, len(climbs)))
    live = [(c, rows) for c in climbs if (rows := next(c)) is not None]
    while live:
        rows = live[0][1] if len(live) == 1 else np.concatenate([rows for _, rows in live])
        ratios, payload = score(rows)
        ratios, width[0] = ratios.tolist(), max(1, total // len(live))
        windows, live, off = live, [], 0
        for c, rows in windows:
            if (nxt := c.send((ratios, payload, off, len(ratios)))) is not None:
                live.append((c, nxt))
            off += len(rows)
    for rec in recs:
        if rec[3] > 1:
            ratios, payload = score(rec[1][None])
            rec[0], rec[2] = float(ratios[0]), (payload, 0)
    return [(cur, a, payload(h)) for cur, a, (payload, h), _ in recs]


def digit_rows(start: int, stop: int, n_digits: int, base: int) -> np.ndarray:
    """Rows start..stop-1 of the base-``base`` digit table with ``n_digits``."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((idx.size, n_digits), dtype=np.int8)
    for j in range(n_digits):
        out[:, j] = (idx // base**j) % base
    return out


# ternary sign coding per coordinate: 0 -> 0, 1 -> +1, 2 -> -1
SIGN_VALUES = np.array([0.0, 1.0, -1.0])


def sign_rows(m: int) -> np.ndarray:
    """All 3^m vectors of {-1,0,1}^m; row c carries the ternary digits of c."""
    return SIGN_VALUES[digit_rows(0, 3**m, m, 3)]


# base-5 joint coding of (coefficient, membership) per coordinate:
#   0 -> coeff  0 (membership irrelevant)
#   1 -> coeff +1, in the set        2 -> coeff +1, out
#   3 -> coeff -1, in the set        4 -> coeff -1, out
PAIR_COEF = np.array([0, 1, 1, -1, -1], dtype=np.int8)
PAIR_IN = np.array([False, True, False, True, False])
# ternary sign digit of f and of S_A f for each pair digit
_PAIR_F = np.array([0, 1, 1, 2, 2], dtype=np.int32)
_PAIR_S = np.array([0, 1, 0, 2, 0], dtype=np.int32)


def _pair_codes(n_digits: int, shift: int):
    """Sign codes of f and S_A f for every n_digits-long pair index, scaled
    to start at ternary digit ``shift``."""
    digits = digit_rows(0, 5**n_digits, n_digits, 5)
    weights = (3 ** np.arange(shift, shift + n_digits)).astype(np.int32)
    return _PAIR_F[digits] @ weights, _PAIR_S[digits] @ weights


def pair_chunk(start: int, stop: int, m: int):
    """Sign codes (cf, cs) of f and S_A f for pair indices start..stop-1.

    Both index ``sign_rows(m)``; since the codes are digit-wise linear, the
    residual f - S_A f has code ``cf - cs``.  A pair index splits into its
    high and low base-5 digits, so the codes are sums of two half-digit
    tables over the few high-digit values the range spans; nothing of
    length 5^m is allocated.
    """
    low = m // 2
    lo_f, lo_s = _pair_codes(low, 0)
    hi_f, hi_s = _pair_codes(m - low, low)
    h0, l0 = divmod(start, 5**low)
    h1 = -(-stop // 5**low)
    cut = slice(l0, l0 + stop - start)
    return (hi_f[h0:h1, None] + lo_f).ravel()[cut], (hi_s[h0:h1, None] + lo_s).ravel()[cut]


def pair_rows(idx, m: int):
    """(coefficients, membership) rows of the given pair indices."""
    digits = (np.asarray(idx, dtype=np.int64)[:, None] // 5 ** np.arange(m)) % 5
    return PAIR_COEF[digits].astype(np.float64), PAIR_IN[digits]


def all_subset_masks(m: int) -> np.ndarray:
    """All 2^m membership rows as float 0/1, one subset per row."""
    idx = np.arange(2**m, dtype=np.int64)
    out = np.empty((idx.size, m), dtype=np.float64)
    for j in range(m):
        out[:, j] = (idx >> j) & 1
    return out


def greedy_order(rows: np.ndarray) -> np.ndarray:
    """Canonical greedy order of the last axis: |a| descending, ties by index."""
    return np.argsort(-np.abs(rows), axis=-1, kind="stable")


def top_positions(ratios: np.ndarray, k: int) -> np.ndarray:
    """Positions of the best k ratios, best first (ties as np.argpartition leaves them)."""
    if ratios.size <= k:
        return np.arange(ratios.size)
    part = np.argpartition(-ratios, k - 1)[:k]
    return part[np.argsort(-ratios[part], kind="stable")]


def distinct_leaders(pieces, k: int) -> list:
    """Rows of the best k ratios over the (ratios, rows) ``pieces``, ties in
    offer order, with pairwise-distinct ratios (trims redundant ascent seeds);
    a piece may first be cut to its own ``top_positions``, bounding memory."""
    ratios = np.concatenate([np.empty(0)] + [r for r, _ in pieces])
    picked = []
    for i in np.argsort(-ratios, kind="stable")[:k].tolist():
        if all(abs(ratios[i] - ratios[j]) > 1e-13 for j in picked):
            picked.append(i)
    rows = [row for _, part in pieces for row in part]
    return [np.array(rows[i], dtype=np.float64) for i in picked]


def parallel_block_max(block_fn, n_blocks: int):
    """Evaluate ``block_fn(i)`` for i in range(n_blocks) and keep the best.

    ``block_fn`` returns (ratio, payload); ties break toward the lowest
    block index.  Returns (0.0, None) when there are no blocks.
    """
    best = (0.0, None)
    for i in range(n_blocks):
        result = block_fn(i)
        if i == 0 or result[0] > best[0]:
            best = result
    return best
