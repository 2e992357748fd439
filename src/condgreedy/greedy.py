"""Thresholding-greedy machinery.

Coordinate projections and seeded lower-bound estimators for the quasi-greedy
constant ``sup ||f - S_A f|| / ||f||`` and the almost-greedy constant
``sup ||f - S_A f|| / min_{|B| <= |A|} ||f - S_B f||`` (sup over greedy A),
plus the fundamental function ``phi_m = sup_{|A| <= m} ||sum_{j in A} x_j||``
and the democracy ratio.

Estimator tiers, chosen by the basis length d:

* d <= 8   -- every sign vector of {-1,0,1}^d and every greedy set (for sign
              vectors every subset of the support is greedy) from the chunked
              ``_search.sign_table``: a lower bound for any budget and seed.
              Almost-greedy takes its winner by ``_last_gain``; quasi-greedy
              keeps this tier up to d = 12 with the oracle grid's kernel
              ``_search.sign_leaders``.
* d <= 12  -- almost-greedy: random blocks as below, but with exact
              denominators.
* d >  12  -- seeded random magnitude/sign sampling in blocks, with
              multiplicative coordinate ascent on the block winners (for
              quasi-greedy, every block's ascent in one lockstep ``ascend``,
              whose windows predict each coordinate's move of the sweep before).

The block sampler, the greedy order, the ascent and the block maximum are
the shared search engine of ``_search``; the ascent objective is ``_qg_ratios``.

The random tiers score the d+1 canonical greedy prefixes of a row with
one of two evaluators, chosen by the basis alone (``_prefix_residuals``).
``_swept_ratios`` is an event sweep in O(nnz) per row; it applies when the
ambient norm is a plain l1 sum (``Lp(1)``, or a ``MixedSum`` with
``outer_q == 1`` over such blocks) and every ambient row of the columns
touches at most two of them (``BasisTruncation.l1_pairs``): Lindenstrauss,
difference, unit@lp:1 and their p=1 block sums; every other basis uses the
dense ``_prefix_residual_ratios``.  The almost-greedy random tiers (d > 8)
take their numerators from those prefix residuals, fill one (rows x d+1)
denominator matrix per block (``_ag_denominators``) and select the winning
(row, m) by one scan (``_last_gain``).  On an ``l1_pairs`` basis the norm
of f restricted to a set is a quadratic form in the set's 0/1 mask
(``_kept_norms_form``), so the 2^d exact denominators of a chunk of rows
are one matrix product.  The matrix only selects: the winner's candidate
sets are scored again densely, alone, and ``_min_denominators`` (the
minimum over |B| <= t, and the minimising B) finds B.

Every dense norm of a row restricted to a set (dense prefix residuals, the
block heads' drop rounds, the winners' candidate sets) comes from
``BasisTruncation.kept_norms`` or ``ratio_norms``; only the sign tables and
phi_m, which restrict nothing, call ``synth_norms``.

Every tier builds its result in ``conditionality._Best`` from the floor
f = e_1, A = B = ().  The search values only choose the witness it is
offered; ``_Best`` scores that witness with ``verify_witness``, which also
checks that A is greedy for f and |B| <= |A|, and reports that score.  The
sign-vector tiers offer only a gain of more than TINY, which also decides
when the winner is decoded.  All reported values are running-max lower
bounds and are reproducible for a fixed seed.
"""

from __future__ import annotations

import math

import numpy as np

from . import _search
from ._search import (BLOCK, DEFAULT_BUDGET, DEFAULT_SEED, TINY, ascend, check_budget,
                      check_coeffs, check_indices, check_m, greedy_order, guarded_ratio,
                      rng_stream, sample_block, scale_moves)
from .bases import BasisTruncation
from .conditionality import _Best

__all__ = [
    "GreedyError",
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


def project(b: BasisTruncation, coeffs, A) -> np.ndarray:
    """S_A f = sum_{j in A} a_j x_j in ambient coordinates (A is 1-based)."""
    a = check_coeffs(coeffs, b.d, GreedyError)
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
    """Every sign vector and all its greedy sets (d <= 12): a lower bound.

    Every subset A of a sign vector's support is greedy, and f - S_A f is a
    sub-code of f, so one table of the norms of the 3^d sign vectors holds
    every ratio (``_search.sign_leaders``).
    """
    d = b.d
    best = _Best(b, "quasi-greedy")
    table = _search.sign_table(b.synth_norms, d)
    codes, res, ratios = _search.sign_leaders(table, d, 1, residual=True)
    if codes.size and ratios[0] > best.ratio + TINY:
        f = _search.sign_row(codes[0], d)
        best.offer(f, np.flatnonzero(f != _search.sign_row(res[0], d)) + 1)
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


def _prefix_residuals(b: BasisTruncation, rows: np.ndarray):
    """The canonical-prefix residuals of ``rows``: ``_swept_ratios`` on an
    ``l1_pairs`` basis, else ``_prefix_residual_ratios``."""
    return (_prefix_residual_ratios if b.l1_pairs is None else _swept_ratios)(b, rows)


def _qg_ratios(b: BasisTruncation, rows: np.ndarray):
    """Batch ascent objective: the best canonical-prefix residual ratio of
    each row, and a payload k -> that prefix of row k as a 1-based set."""
    ratios, order, _ = _prefix_residuals(b, rows)
    best = ratios.argmax(axis=1)
    return ratios[np.arange(best.size), best], lambda k: tuple(
        sorted(int(j) + 1 for j in order[k, : best[k]]))


def _qg_block_head(b: BasisTruncation, seed: int, block_i: int):
    """(ratio, (row, A)) of a block's first best prefix, or of the last
    strict gain over it by more than TINY in four rounds of random
    sub-supports A of the block's sign rows (every subset of a sign row's
    support is a greedy set).  One draw (the stream of four) gives the
    rounds' kept sets and one ``ratio_norms`` call scores them, in order."""
    rng = rng_stream(seed, "qg", block_i)
    rows = sample_block(rng, b.d, keep=0.85)
    ratios, prefix = _qg_ratios(b, rows)
    i = int(np.argmax(ratios))
    best, pair = float(ratios[i]), (rows[i].copy(), prefix(i))
    signs = rows[BLOCK // 2 :]
    drops = rng.random((4,) + signs.shape) < 0.5  # the kept sets of the four rounds
    nums, full = b.ratio_norms(signs, drops.transpose(1, 0, 2))
    for drop, ratios in zip(drops, guarded_ratio(nums, full).T):
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
    # product entries per row: the d+1 dense residuals, or the sweep's one bincount entry per
    # column nonzero (a sweep call costs about 50 us plus 40 ns per nonzero and row, so wide
    # windows save more in calls than their rows scored past a wrong prediction cost)
    cost = (d + 1) * b.ambient_dim if b.l1_pairs is None else b.l1_pairs[0].size
    climbs = ascend([p[0] for _, p in heads], lambda rows: _qg_ratios(b, rows), scale_moves, cost)
    tails = [(r, (a, A)) for r, a, A in climbs]
    best = _Best(b, "quasi-greedy")
    _, (a, A) = _search.parallel_block_max(
        lambda i: tails[i] if tails[i][0] > heads[i][0] else heads[i], len(heads))
    best.offer(a, A)
    return best.result()


# ---------------------------------------------------------------------------
# almost greedy
# ---------------------------------------------------------------------------


def _ag_exhaustive(b: BasisTruncation):
    """Every sign vector and greedy set, exact denominators (d <= 8): a lower bound.

    f - S_X f is a sub-code of f, so column X of ``nrm``, ||f - S_X f||, is
    read from the ``_search.sign_table``; the minimum over all |B| <= t is
    that over B inside the support, and A counts only inside it.  Each code
    keeps its first best A, ``_last_gain`` carries the winner across chunks
    and ``_min_denominators`` gives its B (the last B code among ties)."""
    d = b.d
    best = _Best(b, "almost-greedy")
    table = _search.sign_table(b.synth_norms, d)
    subsets, sizes, by_size, starts = _subsets_by_size(d)
    kept = (1 - subsets.T).astype(np.int64) * 3 ** np.arange(d)[:, None]  # sub-code of f kept off X
    codes, step = np.arange(2**d), max(1, AG_CHUNK_ENTRIES >> d)  # step: codes per chunk
    for start in range(0, 3**d, step):
        digits = _search.digit_rows(start, min(start + step, 3**d), d, 3)
        nrm = table[digits.astype(np.int64) @ kept]
        denom = np.minimum.accumulate(np.minimum.reduceat(nrm[:, by_size], starts, axis=1), axis=1)
        outside = codes & ~((digits != 0) @ (1 << np.arange(d)))[:, None]  # X off the support
        ratios = np.where(outside == 0, guarded_ratio(nrm, denom[:, sizes]), 0.0)
        a, rows = ratios.argmax(axis=1), np.arange(digits.shape[0])
        hit = _last_gain(nrm[rows, a, None], denom[rows, sizes[a], None], best.ratio)
        if hit >= 0:
            A, cand = a[hit], np.flatnonzero(outside[hit] == 0)[::-1]  # B in the support, last first
            _, first = _min_denominators(nrm[hit, cand], sizes[cand], d)
            best.offer(_search.sign_row(start + hit, d), np.flatnonzero(subsets[A]) + 1,
                       b_indices=np.flatnonzero(subsets[cand[first(sizes[A])]]) + 1)
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


def _subsets_by_size(d: int):
    """The 2^d subset masks (row X: the set of code X), their sizes, the
    codes stably sorted by size and where each size starts in that order."""
    subsets = _search.all_subset_masks(d)
    sizes = subsets.sum(axis=1).astype(np.int64)
    by_size = np.argsort(sizes, kind="stable")
    return subsets, sizes, by_size, np.searchsorted(sizes[by_size], np.arange(d + 1))


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
        subsets, _, by_size, starts = _subsets_by_size(d)
        kept = 1.0 - subsets[by_size]
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


def _last_gain(resid: np.ndarray, denom: np.ndarray, floor: float = 0.0) -> int:
    """Flat position in (n, d+1) of the winner of the sequential scan over
    rows, and m = 0..d within a row: the ratio resid/denom, where both
    exceed TINY, is taken when it beats the last one taken (from ``floor``)
    by more than TINY.  Returns -1 when none is taken.

    A taken ratio exceeds the floor and every earlier ratio, so only the
    strict running records above the floor are visited.
    """
    r = np.where(resid > TINY, guarded_ratio(resid, denom), 0.0).ravel()
    records = np.flatnonzero(r > np.maximum.accumulate(np.r_[floor, r[:-1]]))
    best, hit = floor, -1
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
    densely and alone, to find B.  Returns the winner's ratio (which picks
    the block maximum) and (row, A, B).
    """
    d = b.d
    rng = rng_stream(seed, "ag", block_i)
    mags = rng.uniform(0.5, 2.0, size=(BLOCK, d))
    sig = np.where(rng.random((BLOCK, d)) < 0.5, 1.0, -1.0)
    rows = mags * sig
    _, order, resid = _prefix_residuals(b, rows)  # ||f - S_{A_m} f|| for prefixes
    extra = None if exact_denom else np.stack(
        [rng.random((32, d)) < rng.random((32, 1)) for _ in range(BLOCK)])
    hit = _last_gain(resid, _ag_denominators(b, rows, resid, extra))
    if hit < 0:
        return 0.0, None  # no ratio was positive
    i, m = divmod(hit, d + 1)
    if exact_denom:
        family = _search.all_subset_masks(d) > 0.5  # row k: the set of code k
        nrm = b.kept_norms(rows[i : i + 1], ~family)[0]
    else:
        by_size = np.argsort(extra[i].sum(axis=1), kind="stable")
        family = np.vstack([np.argsort(order[i]) < np.arange(d + 1)[:, None], extra[i][by_size]])
        nrm = np.concatenate([resid[i], b.kept_norms(rows[i : i + 1], ~extra[i])[0, by_size]])
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
    sets' masks; the reported value is the ``verify_witness`` ratio of
    the best block's witness.
    """
    budget = check_budget(budget, GreedyError, AG_DEFAULT_BUDGET)
    d = b.d
    if d <= AG_EXHAUSTIVE_MAX_D:
        return _ag_exhaustive(b)
    exact = d <= AG_EXACT_DENOM_MAX_D
    _, payload = _search.parallel_block_max(
        lambda i: _ag_random_block(b, seed, i, exact), math.ceil(budget / BLOCK)
    )
    best = _Best(b, "almost-greedy")
    if payload is not None:  # None when no block had a positive ratio
        best.offer(payload[0], payload[1], b_indices=payload[2])
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
    d = b.d
    pick, best = (max, -math.inf) if want_max else (min, math.inf)
    # greedy growth (for the minimum only the final size-m set counts)
    chosen = np.zeros(d)
    for size in range(1, m + 1):
        cand = np.maximum(chosen, np.eye(d)[chosen == 0.0])  # chosen plus one more, in index order
        vals = b.synth_norms(cand)
        i = int(np.argmax(vals) if want_max else np.argmin(vals))
        chosen = cand[i]
        if want_max or size == m:
            best = pick(best, float(vals[i]))
    # seeded random subsets
    rng = rng_stream(seed, "fund", int(want_max), m)
    sizes = rng.integers(1, m + 1, size=budget) if want_max else np.full(budget, m)
    rows = np.zeros((budget, d))
    for i in range(budget):
        rows[i, rng.permutation(d)[: sizes[i]]] = 1.0
    vals = b.synth_norms(rows)
    return pick(best, float(vals.max() if want_max else vals.min()))


def _sum_norm(b: BasisTruncation, m: int, want_max: bool, mode: str, budget, seed: int) -> float:
    """The max of ||sum_{j in A} x_j|| over |A| <= m or its min over |A| = m,
    in ``mode`` 'exact' (d <= 20) or 'search'."""
    m = check_m(m, b.d, GreedyError)
    budget = check_budget(budget, GreedyError)  # in exact mode too, as every estimator does
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
