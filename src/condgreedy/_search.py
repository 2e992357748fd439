"""The search engine of every lower-bound estimator: the block sampler
``sample_block``, ``guarded_ratio``, the batched coordinate ascent ``ascend``
with its move sets, the block maximum ``parallel_block_max``, and the
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


def check_budget(budget, error: type) -> None:
    """Raise ``error`` for a sample budget below 1 (None means the default)."""
    if budget is not None and budget < 1:
        raise error(f"budget must be at least 1, got {budget}")


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


def ascend(a0, score, moves, cost):
    """First-improvement coordinate ascent; returns (ratio, a, payload).

    ``score(rows)`` is a batch scorer: (n, d) candidate rows -> (ratios (n,),
    payload), with ``payload(k)`` built on demand for row k.  A sweep lists
    the moves ``moves(a[i])`` of every coordinate once (a move taken at j
    changes only a[j]) and scores them in order, skipping all-zero ones, as
    many per call as fit in BATCH_ENTRIES product entries at ``cost`` each.
    The first that gains at least ASCENT_TOL is taken and the sweep goes on
    at coordinate j + 1.  Sweeps repeat until one takes no move or
    MAX_SWEEPS; a start whose payload is None comes back unchanged.  For a
    batch-invariant scorer this is the trajectory of one candidate per
    call.  BLAS may round a row differently with its batch, which can only
    turn a gain within rounding of ASCENT_TOL; a final vector scored beside
    others is scored again alone, so the returned ratio and payload are
    those of a one-row call.
    """
    a = np.asarray(a0, dtype=np.float64).copy()
    ratios, payload = score(a[None])
    cur, pay = float(ratios[0]), payload(0)
    if pay is None:
        return cur, a, pay
    batch = max(1, BATCH_ENTRIES // cost)
    rescore = False
    for _ in range(MAX_SWEEPS):
        cands = [(i, v) for i in range(a.size) for v in moves(a[i])]
        improved, k, nz = False, 0, np.count_nonzero(a)
        while k < len(cands):
            # a move to 0.0 leaves the zero vector when a[i] is a's only nonzero
            part = [(i, v) for i, v in cands[k : k + batch] if v != 0.0 or nz > (a[i] != 0.0)]
            k += batch
            if not part:
                continue
            rows = np.empty((len(part), a.size))
            rows[:] = a
            for r, (i, v) in enumerate(part):
                rows[r, i] = v
            ratios, payload = score(rows)
            h = next((n for n, r in enumerate(ratios.tolist()) if r >= cur + ASCENT_TOL), None)
            if h is not None:
                j = part[h][0]
                a, cur, pay = rows[h].copy(), float(ratios[h]), payload(h)
                improved, rescore, nz = True, len(part) > 1, np.count_nonzero(a)
                # go on at the first move of coordinate j + 1
                k = next((n for n in range(k - batch, len(cands)) if cands[n][0] > j), len(cands))
        if not improved:
            break
    if rescore:
        ratios, payload = score(a[None])
        cur, pay = float(ratios[0]), payload(0)
    return cur, a, pay


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


class TopK:
    """Running best-K (ratio, payload-rows) tracker with deterministic ties."""

    def __init__(self, k: int, width: int):
        self.k = k
        self.ratios = np.empty(0)
        self.coefs = np.empty((0, width))
        self.masks = np.empty((0, width), dtype=bool)

    def select(self, ratios: np.ndarray) -> np.ndarray:
        """Positions of the best k ratios, best first, ties in position order."""
        if ratios.size <= self.k:
            return np.arange(ratios.size)
        part = np.argpartition(-ratios, self.k - 1)[: self.k]
        return part[np.argsort(-ratios[part], kind="stable")]

    def update(self, ratios, coefs, masks):
        if ratios.size == 0:
            return
        sel = self.select(ratios)
        self.ratios = np.concatenate([self.ratios, ratios[sel]])
        self.coefs = np.vstack([self.coefs, coefs[sel]])
        self.masks = np.vstack([self.masks, masks[sel].astype(bool)])
        order = np.argsort(-self.ratios, kind="stable")[: self.k]
        self.ratios = self.ratios[order]
        self.coefs = self.coefs[order]
        self.masks = self.masks[order]

    def distinct_starts(self, tol: float = 1e-13):
        """Entries with pairwise-distinct ratios; trims redundant ascent seeds."""
        picked = []
        for i in range(self.ratios.size):
            if all(abs(self.ratios[i] - self.ratios[j]) > tol for j in picked):
                picked.append(i)
        return [(self.coefs[i].copy(), self.masks[i].copy()) for i in picked]


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
