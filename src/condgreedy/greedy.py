"""Thresholding-greedy machinery.

Greedy sets of a coefficient vector, coordinate projections, and seeded
lower-bound estimators for the quasi-greedy constant
``sup ||f - S_A f|| / ||f||`` and the almost-greedy constant
``sup ||f - S_A f|| / min_{|B| <= |A|} ||f - S_B f||`` (sup over greedy A),
plus the fundamental function ``phi_m = sup_{|A| <= m} ||sum_{j in A} x_j||``
and the democracy ratio.

Estimator tiers, chosen by the basis length d:

* d <= 8   -- exhaustive sweep over the sign grid {-1,0,1}^d and every greedy
              set (for sign vectors every subset of the support is greedy);
              the budget and the seed are not consulted.  Quasi-greedy
              keeps this sweep up to d = 12: the oracle grid's kernel
              ``_search.sign_leaders`` on the chunked ``_search.sign_table``
              of the 3^d sign vectors.
* d <= 12  -- almost-greedy: random blocks as below, but with exact
              denominators.
* d >  12  -- seeded random magnitude/sign sampling in blocks, with
              multiplicative coordinate ascent on the block winners (for
              quasi-greedy, every block's ascent in one lockstep ``ascend``).

The block sampler, the greedy order, the ascent and the block maximum are
the shared search engine of ``_search``; the ascent objective is ``_qg_ratios``.

The quasi-greedy random tier scores the d+1 canonical greedy prefixes of a
row with one of two evaluators, chosen by the basis alone.
``_swept_ratios`` is an event sweep in O(nnz) per row; it applies when the
ambient norm is a plain l1 sum (``Lp(1)``, or a ``MixedSum`` with
``outer_q == 1`` over such blocks) and every ambient row of the columns
touches at most two of them (``BasisTruncation.l1_pairs``): Lindenstrauss,
difference, unit@lp:1 and their p=1 block sums.  Every other basis uses the
dense ``_prefix_residual_ratios``, which synthesises all d+1 residuals
through ``BasisTruncation.kept_norms``.
The sweep only selects: the value of the block winner and of the ascent's
final vector is scored again densely, so every reported value and every
value compared with one is dense.  The almost-greedy random tiers
(d > 8) take their numerators from the synthesised prefix residual norms,
fill one (rows x d+1) denominator matrix per block (``_ag_denominators``)
and select the winning (row, m) by one scan (``_last_gain``).  On an
``l1_pairs`` basis the norm of f restricted to a set is a quadratic form in
the set's 0/1 mask (``_kept_norms_form``), so the 2^d exact denominators of
a chunk of rows are one matrix product; every other basis synthesises them
densely through ``kept_norms``.  Here too the matrix only selects:
the winner's candidate sets are scored again densely, alone, and give the
reported value, A and B.  ``_min_denominators`` is the minimum over
|B| <= t of every reported almost-greedy value, and also hands back the
minimising B of the witness.

Every tier builds its result in ``conditionality._Best`` from the floor
f = e_1, A = B = (); the exhaustive tiers offer only a gain of more than
TINY, which also decides when the winner is decoded.  All reported values are
running-max lower bounds and are reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import _search
from ._search import (BLOCK, DEFAULT_BUDGET, DEFAULT_SEED, TINY, ascend, check_budget,
                      check_indices, greedy_order, guarded_ratio, rng_stream, sample_block,
                      scale_moves)
from .bases import BasisTruncation
from .conditionality import _Best
from .spaces import norms

__all__ = [
    "GreedyError",
    "GreedySetFamily",
    "greedy_sets",
    "project",
    "quasi_greedy_constant_lb",
    "almost_greedy_constant_lb",
    "fundamental_function",
    "democracy_ratio",
]

QG_EXHAUSTIVE_MAX_D = 12
AG_EXHAUSTIVE_MAX_D = 8
AG_EXACT_DENOM_MAX_D = 12
FUND_EXACT_MAX_D = 20
AG_DEFAULT_BUDGET = 512
AG_CHUNK_ENTRIES = 1 << 17  # subset norms (times the ambient width if dense) per chunk
PHI_CHUNK_ROWS = 4096  # candidate subsets per synth_norms call of exact phi_m


class GreedyError(ValueError):
    """Parameter outside the supported range."""


@dataclass(frozen=True)
class GreedySetFamily:
    """Greedy sets of size m for one coefficient vector (1-based indices)."""

    coeffs: tuple
    m: int
    canonical: tuple
    all_sets: tuple | None = None

    @property
    def count(self) -> int:
        return len(self.all_sets) if self.all_sets is not None else 1


def greedy_sets(coeffs, m: int, mode: str = "canonical") -> GreedySetFamily:
    """Sets A with min_{k in A} |a_k| >= max_{j not in A} |a_j|, |A| = m."""
    a = np.asarray(coeffs, dtype=np.float64)
    if a.ndim != 1:
        raise GreedyError("expected a 1-d coefficient vector")
    d = a.size
    if not (0 <= m <= d):
        raise GreedyError(f"m must lie in 0..{d}, got {m}")
    if mode not in ("canonical", "all"):
        raise GreedyError(f"mode must be 'canonical' or 'all', got {mode!r}")
    order = greedy_order(a)
    canonical = tuple(sorted(int(i) + 1 for i in order[:m]))
    if mode == "canonical":
        return GreedySetFamily(tuple(a.tolist()), m, canonical)
    if m == 0:
        return GreedySetFamily(tuple(a.tolist()), m, canonical, ((),))
    mags = np.abs(a)
    threshold = mags[order[m - 1]]
    above = [int(i) + 1 for i in np.flatnonzero(mags > threshold)]
    ties = [int(i) + 1 for i in np.flatnonzero(mags == threshold)]
    need = m - len(above)
    all_sets = tuple(tuple(sorted(above + list(combo))) for combo in combinations(ties, need))
    return GreedySetFamily(tuple(a.tolist()), m, canonical, all_sets)


def project(b: BasisTruncation, coeffs, A) -> np.ndarray:
    """S_A f = sum_{j in A} a_j x_j in ambient coordinates (A is 1-based)."""
    a = np.asarray(coeffs, dtype=np.float64)
    if a.shape != (b.d,):
        raise GreedyError(f"expected {b.d} coefficients")
    idx = check_indices(A, b.d, GreedyError)
    out = np.zeros(b.ambient_dim)
    if idx.size:
        out += b.columns[:, idx] @ a[idx]
    return out


def _greedy_rank(rows: np.ndarray):
    """Canonical greedy order of each row and the rank of each coordinate in it."""
    n, d = rows.shape
    order = greedy_order(rows)
    rank = np.empty_like(order)
    rank[np.arange(n)[:, None], order] = np.arange(d)
    return order, rank


def _prefix_residual_ratios(b: BasisTruncation, rows: np.ndarray):
    """Residual ratios ||f - S_A f||/||f|| for the d+1 canonical greedy
    prefixes of each coefficient row, synthesised densely.

    Returns (ratios (n, d+1), order, resid) where ``resid`` holds the
    residual norms: the empty prefix keeps every coefficient, so ||f|| is
    column 0.
    """
    order, rank = _greedy_rank(rows)
    resid = b.kept_norms(rows, rank[:, None, :] >= np.arange(rows.shape[1] + 1)[:, None])
    return guarded_ratio(resid, resid[:, 0]), order, resid


def _qg_exhaustive(b: BasisTruncation):
    """Complete sweep over sign vectors and all their greedy sets (d <= 12).

    Every subset A of a sign vector's support is greedy, and f - S_A f is a
    sub-code of f, so one table of the norms of the 3^d sign vectors holds
    every ratio (``_search.sign_leaders``).
    """
    d = b.d
    best = _Best(d, "quasi-greedy")
    table = _search.sign_table(b.synth_norms, d)
    codes, res, ratios = _search.sign_leaders(table, d, 1, residual=True)
    if codes.size and ratios[0] > best.ratio + TINY:
        f = _search.sign_row(codes[0], d)
        best.offer(ratios[0], f, np.flatnonzero(f != _search.sign_row(res[0], d)) + 1)
    return best.result()


def _swept_ratios(b: BasisTruncation, rows: np.ndarray):
    """Canonical-prefix residual ratios by event sweep over ``b.l1_pairs``.

    Returns (ratios (n, d+1), order, resid) as ``_prefix_residual_ratios``
    does.

    Removing a_j x_j changes only the ambient rows that x_j touches, and a
    row touching columns j and p contributes |e_j + e_p| while both are kept,
    |e_p| once only p is, and 0 after (e = a C[i, .]).  Each nonzero C[i, j]
    adds its share |e_j + e_p| - |e_p| (e_p = 0 unless p is removed after j)
    to the bin of its removal step; the reversed cumulative sum of the bins
    is N_k = ||f - S_{A_k} f|| for k = 0..d.  Every row's bins add up in the
    same order in any batch, so a row's values do not depend on its batch.
    Ratios are taken over the sweep's own N_0.
    """
    col, coef, partner, pcoef = b.l1_pairs
    n, d = rows.shape
    order, rank = _greedy_rank(rows)
    e_p = np.where(rank[:, partner] > rank[:, col], rows[:, partner] * pcoef, 0.0)
    share = np.abs(rows[:, col] * coef + e_p) - np.abs(e_p)
    bins = rank[:, col] + (d + 1) * np.arange(n)[:, None]
    sums = np.bincount(bins.ravel(), weights=share.ravel(), minlength=n * (d + 1))
    resid = np.cumsum(sums.reshape(n, d + 1)[:, ::-1], axis=1)[:, ::-1]
    return guarded_ratio(resid, resid[:, 0]), order, resid


def _dense_ratio(b: BasisTruncation, row: np.ndarray, k: int) -> float:
    """||f - S_A f|| / ||f|| for the canonical prefix of length k, dense."""
    return float(_prefix_residual_ratios(b, row[None])[0][0, k])


def _qg_ratios(b: BasisTruncation, rows: np.ndarray):
    """Batch ascent objective: the best canonical-prefix residual ratio of
    each row, and a payload k -> that prefix of row k as a 1-based set."""
    evaluate = _prefix_residual_ratios if b.l1_pairs is None else _swept_ratios
    ratios, order, _ = evaluate(b, rows)
    best = ratios.argmax(axis=1)
    return ratios[np.arange(best.size), best], lambda k: tuple(
        sorted(int(j) + 1 for j in order[k, : best[k]]))


def _qg_block_head(b: BasisTruncation, seed: int, block_i: int):
    """(ratio, (row, A)) of a block's first best prefix, or of the last
    strict gain over it by more than TINY in four rounds of random
    sub-supports A of the block's sign rows (every subset of a sign row's
    support is a greedy set)."""
    rng = rng_stream(seed, "qg", block_i)
    rows = sample_block(rng, b.d, keep=0.85)
    ratios, prefix = _qg_ratios(b, rows)
    i = int(np.argmax(ratios))
    pair = (rows[i].copy(), prefix(i))
    best = float(ratios[i]) if b.l1_pairs is None else _dense_ratio(b, rows[i], len(pair[1]))
    signs = rows[BLOCK // 2 :]
    full = b.synth_norms(signs)
    for _ in range(4):
        drop = rng.random(signs.shape) < 0.5
        ratios = guarded_ratio(b.synth_norms(signs * drop), full)
        i = int(np.argmax(ratios))
        if ratios[i] > best + TINY:
            A = tuple(int(j) + 1 for j in np.flatnonzero(~drop[i] & (signs[i] != 0.0)))
            best, pair = float(ratios[i]), (signs[i].copy(), A)
    return best, pair


def quasi_greedy_constant_lb(
    b: BasisTruncation, budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED
):
    """Lower bound for the quasi-greedy constant with its witness.

    For d <= QG_EXHAUSTIVE_MAX_D (12) the value is the largest ratio
    ||f - S_A f|| / ||f|| over every sign vector f and every greedy set A
    (``_qg_exhaustive``), the same for every budget and seed; beyond that,
    the best of ceil(budget / BLOCK) seeded random blocks and of a lockstep
    ascent from each block's winner.
    """
    budget = check_budget(budget, GreedyError)
    d = b.d
    if d <= QG_EXHAUSTIVE_MAX_D:
        return _qg_exhaustive(b)
    heads = [_qg_block_head(b, seed, i) for i in range(math.ceil(budget / BLOCK))]
    # product entries per row: the d+1 dense residuals, or ~6 per column nonzero of the sweep
    cost = (d + 1) * b.ambient_dim if b.l1_pairs is None else 6 * b.l1_pairs[0].size
    climbs = ascend([p[0] for _, p in heads], lambda rows: _qg_ratios(b, rows), scale_moves, cost)
    tails = [(_dense_ratio(b, a, len(A)), (a, A)) for _, a, A in climbs]  # reported densely
    best = _Best(d, "quasi-greedy")
    val, (a, A) = _search.parallel_block_max(
        lambda i: tails[i] if tails[i][0] > heads[i][0] else heads[i], len(heads))
    best.offer(val, a, A)
    return best.result()


# ---------------------------------------------------------------------------
# almost greedy
# ---------------------------------------------------------------------------


def _code_set(code: int, idx) -> tuple:
    """The 1-based indices idx[j] + 1 of the set bits j of ``code``."""
    return tuple(int(idx[j]) + 1 for j in range(len(idx)) if (code >> j) & 1)


def _ag_exhaustive(b: BasisTruncation):
    """Sign-grid sweep with exact denominators (d <= 8).

    Every numerator and denominator is the norm of f restricted to a subset
    T of its support, a sign vector with the ternary code
    ``masks @ (digits[supp] * 3**supp)``, so one table over the 3^d sign
    vectors serves the whole sweep.
    """
    d = b.d
    best = _Best(d, "almost-greedy")
    digits = _search.digit_rows(0, 3**d, d, 3)
    signs = _search.SIGN_VALUES[digits]
    table = b.synth_norms(signs)
    place = 3 ** np.arange(d)
    mask_cache = {}
    for code in range(1, 3**d):
        sig = signs[code]
        supp = np.flatnonzero(sig != 0.0)
        k = supp.size
        if k not in mask_cache:
            masks = _search.all_subset_masks(k).astype(np.int64)
            mask_cache[k] = (masks, masks.sum(axis=1))
        masks, sizes = mask_cache[k]
        # nrm[T] = ||f restricted to T|| is the residual of the complement of
        # T: the kernel reads it with |B| = k - |T|, and nrm[::-1][i] is the
        # residual of A = code i
        nrm = table[masks @ (digits[code, supp] * place[supp])]
        denom, first = _min_denominators(nrm, k - sizes, k)
        ratios = guarded_ratio(nrm[::-1], denom[sizes])
        i = int(np.argmax(ratios))
        if ratios[i] > best.ratio + TINY:
            best.offer(ratios[i], sig, _code_set(i, supp),
                       b_indices=_code_set((1 << k) - 1 - first(sizes[i]), supp))
    return best.result()


def _min_denominators(nrm: np.ndarray, sizes: np.ndarray, n: int):
    """min ||f - S_B f|| over |B| <= t for t = 0..n, from the residual norms
    ``nrm`` of candidate sets B of sizes ``sizes``.

    Also returns ``first(t)``: the position of the first candidate with
    |B| <= t that attains the minimum.
    """
    denom = np.full(n + 1, np.inf)
    np.minimum.at(denom, sizes, nrm)  # minimum over |B| == t
    denom = np.minimum.accumulate(denom)
    return denom, lambda t: int(np.flatnonzero((sizes <= t) & (nrm == denom[t]))[0])


def _kept_norms_form(b: BasisTruncation, kept: np.ndarray):
    """||f restricted to T|| for the 0/1 sets ``kept`` (K, d) on a basis
    with ``b.l1_pairs``, as one product per batch of rows.

    An ambient row touching columns j and p adds |e_j + e_p| while both are
    kept, |e_j| or |e_p| while one is, and 0 else (e = a C[i, .]), so the
    norm is the quadratic form
    sum_j w_j [j in T] + sum_(j,p) W_jp [j in T][p in T] with
    w_j = sum_i |e_j| and W_jp = |e_j + e_p| - |e_j| - |e_p| per row of two.
    Returns ``kept_norms(rows)`` -> (n, K): the rows' weights times the
    features [T, T_j T_p] of the sets.
    """
    col, coef, partner, pcoef = b.l1_pairs
    two = (pcoef != 0.0) & (col < partner)  # one entry per row of two
    j, p, cj, cp = col[two], partner[two], coef[two], pcoef[two]
    features = np.vstack([kept.T, (kept[:, j] * kept[:, p]).T])  # (d + pairs, K)
    col_l1 = np.bincount(col, weights=np.abs(coef), minlength=b.d)

    def kept_norms(rows):
        e_j, e_p = rows[:, j] * cj, rows[:, p] * cp
        w = np.hstack([np.abs(rows) * col_l1, np.abs(e_j + e_p) - np.abs(e_j) - np.abs(e_p)])
        return w @ features

    return kept_norms


def _by_chunks(fn, n: int, step: int) -> np.ndarray:
    """``fn(s)`` for consecutive slices s of at most ``step`` of n rows, stacked."""
    return np.vstack([fn(slice(s, s + step)) for s in range(0, n, step)])


def _ag_denominators(b: BasisTruncation, rows: np.ndarray, resid: np.ndarray, extra):
    """(n, d+1) matrix of min ||f - S_B f|| over the candidate sets |B| <= m
    of each row: every subset when ``extra`` is None, else the d+1 greedy
    prefixes (residual norms ``resid``) and the row's sets ``extra`` (n, K, d).

    Every subset is scored through ``_kept_norms_form`` on an ``l1_pairs``
    basis and densely on any other, its kept sets ordered by |B| once so
    that one ``minimum.reduceat`` takes the minimum per size.  Rows go in
    chunks of about AG_CHUNK_ENTRIES entries.
    """
    n, d = rows.shape
    if extra is None:
        subsets = _search.all_subset_masks(d)
        sizes = subsets.sum(axis=1)
        by_size = np.argsort(sizes, kind="stable")
        kept = 1.0 - subsets[by_size]
        starts = np.searchsorted(sizes[by_size], np.arange(d + 1))
        if b.l1_pairs is not None:
            kept_norms, width = _kept_norms_form(b, kept), 1
        else:
            kept_norms, width = (lambda r: b.kept_norms(r, kept)), b.ambient_dim
        denom = _by_chunks(lambda s: np.minimum.reduceat(kept_norms(rows[s]), starts, axis=1),
                           n, max(1, AG_CHUNK_ENTRIES // (kept.shape[0] * width)))
    else:
        k = extra.shape[1]
        nrm = _by_chunks(lambda s: b.kept_norms(rows[s], ~extra[s]),
                         n, max(1, AG_CHUNK_ENTRIES // (k * b.ambient_dim)))
        denom = resid.copy()  # the greedy prefix of size m has norm resid[:, m]
        at = np.arange(n)[:, None] * (d + 1) + extra.sum(axis=2)
        np.minimum.at(denom.reshape(-1), at.ravel(), nrm.ravel())
    return np.minimum.accumulate(denom, axis=1)


def _last_gain(resid: np.ndarray, denom: np.ndarray) -> int:
    """Flat position in (n, d+1) of the winner of the sequential scan over
    rows, and m = 0..d within a row: the ratio resid/denom, where both
    exceed TINY, is taken when it beats the last one taken (from 0) by
    more than TINY.  Returns -1 when none is taken.

    A taken ratio exceeds every earlier one, so only the strict running
    records are visited.
    """
    r = np.where(resid > TINY, guarded_ratio(resid, denom), 0.0).ravel()
    records = np.flatnonzero(r > np.maximum.accumulate(np.r_[0.0, r[:-1]]))
    best, hit = 0.0, -1
    for k in records.tolist():
        if r[k] > best + TINY:
            best, hit = r[k], k
    return hit


def _ag_random_block(b: BasisTruncation, seed: int, block_i: int, exact_denom: bool):
    """Numerators at the canonical greedy prefixes A of seeded rows over
    the minimum of ||f - S_B f|| over one family of comparison sets
    |B| <= |A| per row: every subset when ``exact_denom``, else the d+1
    greedy prefixes, then 32 seeded random subsets in stable size order.

    The denominators of the block fill one matrix and ``_last_gain``
    selects the winning (row, m); only the winner's family is scored again,
    densely and alone, and gives the value, A and B.
    """
    d = b.d
    rng = rng_stream(seed, "ag", block_i)
    mags = rng.uniform(0.5, 2.0, size=(BLOCK, d))
    sig = np.where(rng.random((BLOCK, d)) < 0.5, 1.0, -1.0)
    rows = mags * sig
    _, order, resid = _prefix_residual_ratios(b, rows)  # ||f - S_{A_m} f|| for prefixes
    extra = None if exact_denom else np.stack(
        [rng.random((32, d)) < rng.random((32, 1)) for _ in range(BLOCK)])
    hit = _last_gain(resid, _ag_denominators(b, rows, resid, extra))
    if hit < 0:
        return 0.0, None  # no ratio was positive
    i, m = divmod(hit, d + 1)
    if exact_denom:
        family = _search.all_subset_masks(d) > 0.5  # row k: the set of code k
        nrm = b.synth_norms(rows[i] * ~family)
    else:
        by_size = np.argsort(extra[i].sum(axis=1), kind="stable")
        family = np.vstack([np.argsort(order[i]) < np.arange(d + 1)[:, None], extra[i][by_size]])
        nrm = np.concatenate([resid[i], b.synth_norms(rows[i] * ~extra[i])[by_size]])
    denom, first = _min_denominators(nrm, family.sum(axis=1), d)
    A = tuple(sorted(int(j) + 1 for j in order[i, :m]))
    B = tuple(int(j) + 1 for j in np.flatnonzero(family[first(m)]))
    return float(resid[i, m] / denom[m]), (rows[i].copy(), A, B)


def almost_greedy_constant_lb(
    b: BasisTruncation, budget: int = AG_DEFAULT_BUDGET, seed: int = DEFAULT_SEED
):
    """Lower bound for the almost-greedy constant with its witness.

    Denominators are minimised exactly over every candidate set for
    d <= 12 and by seeded candidate search beyond that, so each reported
    ratio is a certified lower bound for its (f, A) pair.  For 8 < d each
    block selects its winner from a matrix of all its rows' denominators,
    built on ``l1_pairs`` bases (d <= 12) from a quadratic form in the
    sets' masks, and reports the winner's dense norms.
    """
    budget = check_budget(budget, GreedyError, AG_DEFAULT_BUDGET)
    d = b.d
    if d <= AG_EXHAUSTIVE_MAX_D:
        return _ag_exhaustive(b)
    exact = d <= AG_EXACT_DENOM_MAX_D
    val, payload = _search.parallel_block_max(
        lambda i: _ag_random_block(b, seed, i, exact), math.ceil(budget / BLOCK)
    )
    best = _Best(d, "almost-greedy")
    if payload is not None:  # None when no block had a positive ratio
        best.offer(val, payload[0], payload[1], b_indices=payload[2])
    return best.result()


# ---------------------------------------------------------------------------
# fundamental function and democracy
# ---------------------------------------------------------------------------


def _sum_norm_extremum(b: BasisTruncation, want_max: bool, exact_sizes) -> float:
    """Extremal ||sum_{j in A} x_j|| over |A| in ``exact_sizes``.

    Every subset's 0/1 row joins a row of the low-half and of the high-half
    subset tables; chunks of PHI_CHUNK_ROWS rows keep the wanted sizes.
    """
    d, h = b.d, b.d // 2
    lo, hi = _search.all_subset_masks(h), _search.all_subset_masks(d - h)
    wanted = np.isin(lo.sum(axis=1)[:, None] + hi.sum(axis=1), list(exact_sizes))
    step = min(hi.shape[0], max(1, PHI_CHUNK_ROWS >> h))  # divides 2^(d-h)
    rows = np.empty((lo.shape[0], step, d))
    rows[:, :, :h] = lo[:, None, :]
    pick, best = (np.max, -math.inf) if want_max else (np.min, math.inf)
    for j in range(0, hi.shape[0], step):
        rows[:, :, h:] = hi[None, j : j + step]
        sel = rows[wanted[:, j : j + step]]
        if len(sel):
            best = pick(b.synth_norms(sel), initial=best)
    return float(best)


def _sum_norm_search(b: BasisTruncation, m: int, want_max: bool, budget: int, seed: int) -> float:
    budget = check_budget(budget, GreedyError)
    d = b.d
    pick, best = (max, -math.inf) if want_max else (min, math.inf)
    # greedy growth (for the minimum only the final size-m set counts)
    chosen: list = []
    cur = np.zeros(b.ambient_dim)
    for _ in range(m):
        rest = [j for j in range(d) if j not in chosen]
        cand = cur[None, :] + b.columns[:, rest].T
        vals = norms(b.space, cand)
        i = int(np.argmax(vals) if want_max else np.argmin(vals))
        chosen.append(rest[i])
        cur = cand[i]
        if want_max or len(chosen) == m:
            best = pick(best, float(vals[i]))
    # seeded random subsets
    rng = rng_stream(seed, "fund", int(want_max), m)
    sizes = rng.integers(1, m + 1, size=budget) if want_max else np.full(budget, m)
    rows = np.zeros((budget, d))
    for i in range(budget):
        rows[i, rng.permutation(d)[: sizes[i]]] = 1.0
    vals = norms(b.space, rows @ b.columns.T)
    return pick(best, float(vals.max() if want_max else vals.min()))


def _sum_norm(b: BasisTruncation, m: int, want_max: bool, mode: str, budget, seed: int) -> float:
    """The max of ||sum_{j in A} x_j|| over |A| <= m or its min over |A| = m,
    in ``mode`` 'exact' (d <= 20) or 'search'."""
    if not (1 <= m <= b.d):
        raise GreedyError(f"m must lie in 1..{b.d}")
    if mode == "search":
        return _sum_norm_search(b, m, want_max, budget, seed)
    if mode != "exact":
        raise GreedyError(f"mode must be 'exact' or 'search', got {mode!r}")
    if b.d > FUND_EXACT_MAX_D:
        raise GreedyError(f"exact mode supports d <= {FUND_EXACT_MAX_D}; use mode='search'")
    return _sum_norm_extremum(b, want_max, range(1, m + 1) if want_max else [m])


def fundamental_function(
    b: BasisTruncation,
    m: int,
    mode: str = "exact",
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
) -> float:
    """phi_m = sup ||sum_{j in A} x_j|| over |A| <= m (exact needs d <= 20)."""
    return _sum_norm(b, m, True, mode, budget, seed)


def democracy_ratio(
    b: BasisTruncation,
    m: int,
    mode: str = "exact",
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
) -> float:
    """phi_m divided by the minimal ||sum_{j in A} x_j|| over |A| = m.

    In search mode the numerator is a lower estimate and the denominator an
    upper one, so the returned value is a lower estimate of the true ratio.
    """
    top, low = (_sum_norm(b, m, want_max, mode, budget, seed) for want_max in (True, False))
    if low <= TINY:
        raise GreedyError("degenerate minimal sum norm")
    return top / low
