"""The search engine of every lower-bound estimator: the block sampler
``sample_block``, ``guarded_ratio``, ``greedy_order``, the lockstep coordinate
ascent ``ascend`` with its move sets (one window walk, ``_window``, predicts
every coordinate's move of its previous sweep and, given column norms, also
leaves out the candidates that a triangle-inequality bound from their last
score proves to miss), the block maximum ``parallel_block_max``, the oracle's
leader pick ``distinct_leaders``, the argument checks, and the chunked
sign-vector table ``sign_table`` and kernel ``sign_leaders`` of the routes
over every sign vector.  What is specific to one family of constants stays
beside its estimators: ``conditionality._seeded_search`` for L_m and k_m,
``greedy._min_denominators`` for the greedy constants.

Determinism contract: every random draw comes from a counter-based Philox
stream keyed by (seed, tag, indices), so results do not depend on chunk
sizes or evaluation order.  Estimates are running maxima and
sample index ranges are nested in the budget, which makes every estimator
monotone in its budget.
"""

from __future__ import annotations

import math
import zlib
from itertools import accumulate

import numpy as np

DEFAULT_SEED = 0xC0FFEE
DEFAULT_BUDGET = 2048
BLOCK = 256  # coefficient samples per random block
ASCENT_TOL = 1e-10
MAX_SWEEPS = 200
BATCH_ENTRIES = 8192  # product entries per batched ascent call
TINY = 1e-12  # norms at or below this count as zero
ROUNDING = 2.0**-36  # relative rounding ``ascend``'s bound allows per norm, 2^17 units of 2^-53
BOUND_SLACK = 16.0 * ROUNDING
BOUND_SLOPE = 3.0 + 2.0 * BOUND_SLACK


def rng_stream(seed: int, *key) -> np.random.Generator:
    """Philox generator keyed by seed plus arbitrary (str|int) parts."""
    parts = [int(seed) & 0xFFFFFFFF]
    for part in key:
        if isinstance(part, str):
            parts.append(zlib.crc32(part.encode("utf-8")))
        else:
            parts.append(int(part) & 0xFFFFFFFF)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(parts)))


def _as_int(x):
    """``x`` as an int when it is an integral number that is not a bool, else None."""
    if isinstance(x, (float, np.floating)) and float(x).is_integer():
        return int(x)
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    return None


def check_int(x, lo: int, hi, error: type, name: str) -> int:
    """``x`` as an int; ``error`` unless integral, not bool, in lo..hi (``hi``
    may be math.inf).  The one rule of every count, size and index argument."""
    n = _as_int(x)
    if n is None or not lo <= n <= hi:
        rule = f"be an integer of at least {lo}" if hi == math.inf else f"lie in {lo}..{hi}"
        raise error(f"{name} must {rule}, got {x if n is None else n!r}")
    return n


def check_budget(budget, error: type, default: int = DEFAULT_BUDGET) -> int:
    """The sample budget as an int (``default`` for None); ``error`` unless integral, not bool, >= 1."""
    return default if budget is None else check_int(budget, 1, math.inf, error, "budget")


def check_seed(seed, error: type) -> int:
    """The seed as an int; ``error`` unless integral, not bool, in 0..2^32 - 1:
    ``rng_stream`` keys on 32 bits, so a wider seed would alias a narrower one."""
    return check_int(seed, 0, 0xFFFFFFFF, error, "seed")


def check_m(m, d: int, error: type) -> int:
    """The support size ``m`` as an int; ``error`` unless integral, not bool, in 1..d."""
    return check_int(m, 1, d, error, "m")


def check_indices(A, d: int, error: type) -> np.ndarray:
    """The sorted 0-based positions of the 1-based indices ``A``; ``error``
    for a non-integral or bool, duplicate or out-of-range index (outside 1..d)."""
    A = list(A)
    idx = [_as_int(i) for i in A]
    if None in idx:
        raise error(f"indices must be integers, got {A!r}")
    idx.sort()
    if len(set(idx)) != len(idx):
        raise error(f"duplicate indices in {A!r}")
    if idx and (idx[0] < 1 or idx[-1] > d):
        raise error(f"indices must lie in 1..{d}")
    return np.asarray(idx, dtype=np.int64) - 1


def check_coeffs(coeffs, d: int, error: type) -> np.ndarray:
    """``coeffs`` as a float array; ``error`` unless d finite values."""
    a = np.asarray(coeffs, dtype=np.float64)
    if a.shape != (d,) or not np.isfinite(a).all():
        raise error(f"expected {d} finite coefficients")
    return a


def guarded_ratio(nums, dens) -> np.ndarray:
    """nums / dens where dens > TINY, else 0; dens broadcasts over the
    trailing axes of nums."""
    dens = np.asarray(dens)
    dens = dens.reshape(dens.shape + (1,) * (np.ndim(nums) - dens.ndim))
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


# first-sweep priors; later sweeps predict each coordinate's own last move
signed_moves.predicted = None  # the L and k ascents take about 10 % of their moves
scale_moves.predicted = 0  # the halving: the quasi-greedy ascent takes 77 % of them


def _window(cands, past, k: int, width: int, pnz: int, a: list, slots, drift: float,
            col_norms) -> tuple:
    """The next window from candidate k, ``width`` scored candidates at most, each
    predicted move jumping past its coordinate; a move to 0.0 of the only nonzero
    (``pnz`` counts the path's nonzeros) is left out.  With the room ``slots`` and the
    column norms list of a bounded climb (see ``_climb``) it also leaves out each
    candidate (i, v, _, m) proven to miss, BOUND_SLOPE (drift + its predicted moves'
    drift) < slots[i][m], taking a predicted move among them as a miss (see ``ascend``).
    Returns (positions, the position after, each position's predicted moves' drift
    when bounded)."""
    path, preds, pred, reach, n, end = [], [], 0.0, BOUND_SLOPE * drift, k, len(cands)
    while len(path) < width and n < end:
        i, v, taken, m = cands[n]
        n += 1
        if v == 0.0 and pnz == (a[i] != 0.0):
            continue
        if slots:
            if reach < slots[i][m]:
                continue
            preds.append(pred)
        path.append(n - 1)
        if taken:
            pnz, n = pnz + (v != 0.0) - (a[i] != 0.0), past[i]
            if slots:
                pred += abs(v - a[i]) * col_norms[i]
                reach = BOUND_SLOPE * (drift + pred)
    return path, n, preds


def _climb(rec: list, moves, width: list, col_norms):
    """One start of ``ascend``: yields its ``_window`` walks (None when done), takes back
    (ratios, payload, norms of the rows, offset), keeps rec = [ratio, a, (payload, row)]
    current.  Each sweep builds its candidates (i, value, predicted, move index) and
    ``past`` once.  Only with ``col_norms`` does it keep ``drift`` and each candidate's
    room from its last score, in the slot memo[i][a[i] == 0.0][move index] (``moves(1.0)``
    and ``moves(0.0)`` size the slots: every nonzero x takes as many moves as 1.0):
    ``ascend``'s bound proves a candidate to miss while BOUND_SLOPE (drift + predicted
    drift) stays below its room, at the walk's threshold (no later one is lower);
    without them the walk takes no bound clause."""
    guess = [moves.predicted] * rec[1].size  # the first sweep's prior
    drift, pnz = 0.0, int(np.count_nonzero(rec[1]))  # pnz: nonzeros of rec[1]
    if col_norms is not None:
        scale = float(np.abs(rec[1]) @ col_norms)  # sum |a_j| ||x_j|| <= scale + drift
        col_norms = col_norms.tolist()
        memo = [([-math.inf] * len(moves(1.0)), [-math.inf] * len(moves(0.0))) for _ in guess]
    for _ in range(MAX_SWEEPS):
        a = rec[1].tolist()  # a move at coordinate j leaves a[i] for i > j as it was
        options = [moves(x) for x in a]
        cands = [(i, v, m == g, m) for i, (vs, g) in enumerate(zip(options, guess))
                 for m, v in enumerate(vs)]
        guess = [None] * len(a)  # the next sweep's: the move each coordinate takes now
        past = list(accumulate(map(len, options)))  # the position past i's moves
        end, improved, k, slots = len(cands), False, 0, None
        if col_norms is not None:  # a sweep walks each candidate once: its slot holds till then
            slots = [memo[i][x == 0.0] for i, x in enumerate(a)]
        while k < end:
            path, k, preds = _window(cands, past, k, width[0], pnz, a, slots, drift, col_norms)
            if not path:
                continue
            rows = rec[1][None].repeat(len(path), 0)
            for r, m in enumerate(path):
                i, v, taken, _ = cands[m]
                rows[r, i] = v
                if taken:
                    rows[r + 1 :, i] = v
            ratios, payload, dens, off = yield rows
            for h, m in enumerate(path, off):
                i, v, taken, move = cands[m]
                gain = ratios[h] >= rec[0] + ASCENT_TOL
                if gain:
                    rec[:], improved = (ratios[h], rows[h - off], (payload, h)), True
                    guess[i] = move if (a[i] == 0.0) == (v == 0.0) else None
                    pnz += (v != 0.0) - (a[i] != 0.0)
                if gain != taken:  # go on where the scalar loop goes on
                    k = past[i] if gain else m + 1
                    break
            if col_norms is not None:  # each walked row's room, then the walk's moves
                thr = rec[0] + ASCENT_TOL
                for r in range(h - off + 1):
                    i, v, _, move = cands[path[r]]
                    step = abs(v - a[i]) * col_norms[i]
                    if dens[off + r] > TINY:
                        slots[i][move] = (
                            dens[off + r] * (thr - ratios[off + r]) / (1.0 + thr)
                            + 3.0 * (drift + preds[r]) - BOUND_SLACK * (scale + step))
                drift += preds[r] + (step if gain else 0.0)
        if not improved:
            break
    yield None


def ascend(starts, score, moves, cost, col_norms=None) -> list:
    """First-improvement coordinate ascent from each row of ``starts`` (S, d);
    returns one (ratio, a, payload) per start.

    ``score(rows)`` is a batch scorer: (n, d) candidate rows -> (ratios (n,),
    payload), with ``payload(k)`` built on demand for row k.  A sweep tries
    the moves ``moves(a[i])`` of every coordinate in order, skipping
    all-zero rows; the first that gains at least ASCENT_TOL is taken and the
    sweep goes on at coordinate i + 1.  Sweeps repeat until one takes no
    move or MAX_SWEEPS; a start whose payload is None comes back unchanged.

    Each score call holds a window of every live start: the next candidates
    as if each coordinate took its predicted move and no other, BATCH_ENTRIES
    product entries at ``cost`` per row shared among the live starts (one
    row at least).  The first sweep predicts ``moves.predicted``; a later one
    predicts the move a coordinate took in the sweep before, unless that
    move turned a[i] zero or nonzero (``moves(0.0)`` indexes other moves),
    and no move for a coordinate that did not move then.  A window is walked
    up to its first wrong prediction, so for a batch-invariant scorer every
    trajectory is that of one candidate per call, whatever the predictions.
    BLAS may round a row differently with its batch, which can only turn a
    gain within rounding of ASCENT_TOL; each returned ratio is the one its
    window scored.

    With ``col_norms``, the column norms ||x_j||, ``score`` also returns
    ||f|| of each row, and a window leaves out the candidates proven to
    miss.  This needs R(r) = max over a fixed family S of ||S_A f|| / ||f||,
    f = sum r_j x_j, in a norm: for rows r, r0 at D = sum |r_j - r0_j|
    ||x_j|| < ||f0||, the triangle inequality gives R(r) <= (R(r0) ||f0|| +
    D) / (||f0|| - D).  Each start keeps ``drift``, the sum of |delta|
    ||x_j|| over its moves, and in the slot (i, a[i] == 0, move index) the
    last score with the drift then.  A move index maps a[i] to at most twice
    it, or to a constant where a[i] == 0, so D <= 3 (drift now - drift then + the
    drift of the window's predicted moves before it).  A candidate whose
    bound is below rec + ASCENT_TOL is left out, a predicted move among them
    taken as the miss the scalar loop finds, and only scored rows fill its
    window; so each trajectory is that of the ascent without ``col_norms``,
    bitwise for a batch-invariant scorer.  Rounding: in any batch, a
    computed norm of row r is within ROUNDING s(r) of the exact one, s(r) =
    sum |r_j| ||x_j||, while n = d (2 ambient_dim + MAX_SWEEPS) + 8
    ambient_dim + 8 roundings of 2^-53 stay within ROUNDING / 2 (d per
    synthesised coordinate, times 2 ambient_dim under BV; 8 ambient_dim + 8
    in a norm; MAX_SWEEPS d in the drift sums).  So D also carries 16
    ROUNDING (s(r0) + drift + predicted drift).  ``conditionality._bound_norms``
    passes ``col_norms`` only where both conditions hold; the quasi-greedy
    ascent passes none, as its sets follow each row's greedy order and are
    no fixed family.
    """
    a = np.array(starts, dtype=np.float64)
    ratios, payload = score(a)[:2]
    recs = [[r, a[s], (payload, s)] for s, r in enumerate(ratios.tolist())]
    total, width = max(1, BATCH_ENTRIES // cost), [1]  # width: candidates per window
    climbs = [_climb(rec, moves, width, col_norms) for rec in recs if payload(rec[2][1]) is not None]
    width[0] = max(1, total // max(1, len(climbs)))
    live = [(c, rows) for c in climbs if (rows := next(c)) is not None]
    while live:
        rows = live[0][1] if len(live) == 1 else np.concatenate([rows for _, rows in live])
        ratios, payload, *dens = score(rows)
        ratios, width[0] = ratios.tolist(), max(1, total // len(live))
        dens = dens[0].tolist() if col_norms is not None else None
        windows, live, off = live, [], 0
        for c, rows in windows:
            if (nxt := c.send((ratios, payload, dens, off))) is not None:
                live.append((c, nxt))
            off += len(rows)
    return [(cur, a, payload(h)) for cur, a, (payload, h) in recs]


def digit_rows(start: int, stop: int, n_digits: int, base: int) -> np.ndarray:
    """Rows start..stop-1 of the base-``base`` digit table with ``n_digits``."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((idx.size, n_digits), dtype=np.int8)
    for j in range(n_digits):
        out[:, j] = (idx // base**j) % base
    return out


# ternary sign coding per coordinate: 0 -> 0, 1 -> +1, 2 -> -1
SIGN_VALUES = np.array([0.0, 1.0, -1.0])
SIGN_CHUNK = 3**9  # sign vectors per norms call of ``sign_table``


def sign_rows(m: int) -> np.ndarray:
    """All 3^m vectors of {-1,0,1}^m; row c carries the ternary digits of c."""
    return SIGN_VALUES[digit_rows(0, 3**m, m, 3)]


def sign_row(code, m: int) -> np.ndarray:
    """Row ``code`` of ``sign_rows(m)``; an array of codes gives one row each."""
    return SIGN_VALUES[np.asarray(code)[..., None] // 3 ** np.arange(m) % 3]


def sign_table(norms_of, m: int) -> np.ndarray:
    """The norms ``norms_of(rows)`` of all 3^m rows of ``sign_rows(m)``,
    filled SIGN_CHUNK rows per call, so no more than a chunk of them is
    synthesised at once."""
    total = 3**m
    table = np.empty(total)
    for start in range(0, total, SIGN_CHUNK):
        stop = min(start + SIGN_CHUNK, total)
        table[start:stop] = norms_of(SIGN_VALUES[digit_rows(start, stop, m, 3)])
    return table


def best_subcodes(values: np.ndarray, m: int, prefer_wide: bool) -> np.ndarray:
    """For every ternary sign code c < 3^m, the sub-code s (each digit s_j
    either 0 or c_j) with the largest ``values[s]``; ties go to the widest s
    when ``prefer_wide``, else to the narrowest (s is wider than s' if its
    highest differing digit is nonzero).  Pass j lets each code take the
    winner of its code with digit j zeroed when that is better: about m 3^m
    work."""
    subs = np.arange(3**m)
    vals = np.array(values, dtype=np.float64)
    for j in range(m):
        v, s = vals.reshape(-1, 3, 3**j), subs.reshape(-1, 3, 3**j)
        take = v[:, :1] > v[:, 1:] if prefer_wide else v[:, :1] >= v[:, 1:]
        np.copyto(v[:, 1:], v[:, :1], where=take)
        np.copyto(s[:, 1:], s[:, :1], where=take)
    return subs


def _sweep_rank(codes, in_codes, m: int) -> np.ndarray:
    """Rank of the witness (f, A), f with sign codes ``codes`` and S_A f with
    ``in_codes``, in the canonical order: coordinate m first, each ordered
    0 < +1 in A < +1 out < -1 in < -1 out."""
    c, s = np.asarray(codes, dtype=np.int64), np.asarray(in_codes, dtype=np.int64)
    rank = np.zeros(c.shape, dtype=np.int64)
    for j in range(m):
        rank += (2 * (c % 3) - (s % 3 != 0)) * 5**j
        c, s = c // 3, s // 3
    return rank


def sign_leaders(table: np.ndarray, m: int, k: int, residual: bool):
    """The k sign codes c with table[c] > TINY and the largest ratio
    table[s] / table[c] over their sub-codes s, best first, ties by the
    lowest ``_sweep_rank``: (codes, their s, ratios).  ``table`` is the
    ``sign_table`` of m; s is S_A f, or f - S_A f when ``residual``.

    The kernel of both every-sign-vector routes (the oracle grid and the d <= 12
    quasi-greedy sweep): ``best_subcodes`` gives each c its best s, and
    dividing by table[c] keeps the order."""
    subs = best_subcodes(table, m, prefer_wide=not residual)
    ratios = guarded_ratio(table[subs], table)
    kept = np.flatnonzero(table > TINY)
    if kept.size > k:
        kept = kept[ratios[kept] >= np.partition(ratios[kept], -k)[-k]]
    in_codes = kept - subs[kept] if residual else subs[kept]
    top = kept[np.lexsort((_sweep_rank(kept, in_codes, m), -ratios[kept]))[:k]]
    return top, subs[top], ratios[top]


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
    offer order, with pairwise-distinct ratios (trims redundant ascent seeds).
    The oracle grid offers one piece of its k best sign vectors; each batch
    of the reduced tier is first cut to its own ``top_positions``, bounding
    memory."""
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
