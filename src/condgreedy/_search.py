"""The search engine of every lower-bound estimator: the block sampler
``sample_block``, ``guarded_ratio``, ``greedy_order``, the lockstep coordinate
ascent ``ascend`` with its move sets, the block maximum ``parallel_block_max``,
the oracle's leader pick ``distinct_leaders``, the input checks, and the
chunked sign-vector table ``sign_table`` and kernel ``sign_leaders`` of the
exhaustive routes.  What is specific to one family of constants stays
beside its estimators: ``conditionality._seeded_search`` for L_m and k_m,
``greedy._min_denominators`` for the greedy constants.

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
    for a non-integral, duplicate or out-of-range index (outside 1..d)."""
    A = list(A)
    if not all(float(i).is_integer() for i in A):
        raise error(f"indices must be integers, got {A!r}")
    idx = sorted(int(i) for i in A)
    if len(set(idx)) != len(idx):
        raise error(f"duplicate indices in {A!r}")
    if idx and (idx[0] < 1 or idx[-1] > d):
        raise error(f"indices must lie in 1..{d}")
    return np.asarray(idx, dtype=np.int64) - 1


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

    The kernel of both exhaustive routes (the oracle grid and the d <= 12
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
