"""Conditionality constants k_m and L_m with growth-fit reporting.

L_m is the supremum of ||S_A f|| / ||f|| over vectors f supported in the
first m basis positions; since S_A f = S_{A cap [1..m]} f for such f, the
search restricts A to subsets of {1..m} without loss.  k_m takes the
supremum over |A| <= m with unrestricted support instead.

Three search routes return certified lower bounds with a witness, and two
exact routes return the value itself:

* ``L_m_exact``, ``k_m_exact`` -- L_m and k_m exactly, with a dyadic
  witness, for every recipe basis but pqhalf: a chain DP (difference,
  summing), a heap-tree DP (Lindenstrauss), 1 for unit vectors on lattice
  norms, and the largest part for interleaves and block sums.  None
  elsewhere.  Both are one DP, ``_exact``, with support 1..n and a cap c on
  |A|, and its witnesses are the recipe templates of both estimates.
* ``L_m_oracle``   -- reference sweep: structured coefficient profiles at
  every support size up to m, the recipe's template pairs, the full joint
  grid over {-1,0,1} coefficients and subset membership when m <= 10
  (deterministic reduced sampling otherwise), then multiplicative
  coordinate ascent on the leading candidates, each rescanned against all
  2^m subsets.  Deterministic; no user seed enters.  On the full grid both
  f and S_A f are sign vectors, so one norm table over the 3^m sign
  vectors holds every ratio, and each f's best A takes about m steps.
* ``L_m_estimate`` -- the exact route, else the oracle, when m is inside the
  guard and the budget covers the full grid; otherwise template evaluation
  plus seeded random sampling with ascent against a fixed family of
  structured sets.
* ``k_m_estimate`` -- like the estimate but with full-support samples and
  sets capped at m elements; coincides with L_d when m = d.  Its template is
  the exact k_m witness.

Every search route evaluates on ``BasisTruncation.prefix(m)`` (``prefix(d)`` for
k_m).  Its objective is ``_mask_sweep``, which scores a batch of
coefficient rows against a family of sets, as ``_block_best`` does, in one
``ratio_norms`` pass; the sampler, the coordinate ascent, the block maximum,
the oracle's leader pick and the grid kernel come from ``_search``.  Every
ascent here, of both estimates, their blocks and the oracle's 2^m masks,
runs through ``_ascend``, which hands ``ascend`` the prefix's column norms
where the ambient is a norm (``_bound_norms``), so it leaves out the
candidates its bound proves to miss without changing any trajectory.  Both
estimates share one body, ``_seeded_search``, and one block body,
``_block_best`` then ``_block_ascent``.  Every estimator, the greedy ones
too, builds its result in one record, ``_Best``, the one scorer of every
reported value: search values only choose the witnesses it is offered (and
pass over one far below its record), and it reports each one's
``verify_witness`` ratio.

Estimates are reproducible for fixed (inputs, seed), and never decrease
when the budget grows with the seed held fixed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ._search import (
    BLOCK,
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    MAX_SWEEPS,
    ROUNDING,
    TINY,
    all_subset_masks,
    ascend,
    check_budget,
    check_coeffs,
    check_indices,
    check_int,
    check_m,
    distinct_leaders,
    greedy_order,
    guarded_ratio,
    parallel_block_max,
    rng_stream,
    sample_block,
    sign_leaders,
    sign_row,
    sign_table,
    signed_moves,
    top_positions,
)
from .bases import BasisTruncation, block_offsets, interleave_positions
from .spaces import C0Trunc, Lorentz, Lp, is_norm, parse_space

__all__ = [
    "ConditionalityError",
    "Witness",
    "witness_from_doc",
    "verify_witness",
    "sa_ratio",
    "L_m_oracle",
    "L_m_exact",
    "k_m_exact",
    "L_m_estimate",
    "k_m_estimate",
    "template_pairs",
    "recipe_dim",
    "interleave_pair",
    "block_embed_pair",
    "GrowthTarget",
    "GrowthReport",
    "LINEAR_TARGET",
    "LOG_TARGET",
    "growth_fit",
    "target_doubling",
    "lb_ladder",
]

DEFAULT_GUARD = 12
FULL_GRID_MAX_M = 10  # largest m of the full sign grid; the reduced tier samples beyond
REDUCED_PAIRS = 131_072
ORACLE_TOPK = 6
_ORACLE_SEED = 0x0C0FFEE  # internal; keeps the reference sweep user-seed free


class ConditionalityError(ValueError):
    """Parameter outside the supported range."""


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A certified ratio: coefficients, the projected set A (1-based) and the
    kind of ratio.  Projection kinds (exact/oracle/template/random) certify
    ||S_A f||/||f||; kind quasi-greedy certifies ||f - S_A f||/||f||; kind
    almost-greedy adds the comparison set B for ||f - S_A f||/||f - S_B f||.
    """

    coeffs: tuple
    indices: tuple
    ratio: float
    kind: str
    b_indices: tuple | None = None

    def to_doc(self) -> dict:
        doc = {
            "coeffs": [float(x) for x in self.coeffs],
            "A": [int(i) for i in self.indices],
            "ratio": self.ratio,
            "kind": self.kind,
        }
        if self.b_indices is not None:
            doc["B"] = [int(i) for i in self.b_indices]
        return doc


def witness_from_doc(doc) -> Witness:
    """The witness of a ``Witness.to_doc`` document; ConditionalityError for
    coefficients or a ratio that are not finite, or an index that is not an
    integer of at least 1."""
    def indices(A):
        return tuple(check_int(i, 1, math.inf, ConditionalityError, "index") for i in A)

    ratio, b = float(doc["ratio"]), doc.get("B")
    if not math.isfinite(ratio):
        raise ConditionalityError(f"witness ratio must be finite, got {ratio!r}")
    coeffs = check_coeffs(doc["coeffs"], len(doc["coeffs"]), ConditionalityError)
    return Witness(tuple(coeffs.tolist()), indices(doc["A"]), ratio, str(doc["kind"]),
                   None if b is None else indices(b))


def _mask(d: int, indices) -> np.ndarray:
    """The 0/1 row of the 1-based set ``indices``, checked by ``check_indices``."""
    mask = np.zeros(d)
    mask[check_indices(indices, d, ConditionalityError)] = 1.0
    return mask


def _set_ratios(b: BasisTruncation, rows: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Each row's kept norms on its 0/1 (numerator, denominator) sets (n, 2, d), divided."""
    num, den = b.kept_norms(rows, sets).T
    if np.any(den <= TINY):
        raise ConditionalityError("witness denominator vanishes")
    return num / den


def _pair_ratios(b: BasisTruncation, pairs) -> np.ndarray:
    """||S_A f|| / ||f|| of each (coefficients, A) pair on the sets (A, every
    index); one pair is ``sa_ratio``, and more pairs give the same values
    where synthesis is exact, as on the shipped recipes."""
    if not pairs:
        return np.zeros(0)
    rows = np.array([check_coeffs(a, b.d, ConditionalityError) for a, _ in pairs])
    return _set_ratios(b, rows, np.array([[_mask(b.d, A), np.ones(b.d)] for _, A in pairs]))


def sa_ratio(b: BasisTruncation, coeffs, indices) -> float:
    """||S_A f|| / ||f|| for f synthesised from ``coeffs``."""
    return float(_pair_ratios(b, [(coeffs, indices)])[0])


def verify_witness(b: BasisTruncation, w: Witness) -> float:
    """Recompute the witness ratio from scratch (same norm pipeline) on the
    sets (A, every index) of the projection kinds, (not A, every index) of
    quasi-greedy or (not A, not B) of almost-greedy; ConditionalityError
    unless a greedy witness has A greedy for f and |B| <= |A|."""
    a = check_coeffs(w.coeffs, b.d, ConditionalityError)
    if (w.b_indices is None) == (w.kind == "almost-greedy"):
        raise ConditionalityError(f"B = {w.b_indices!r} on a {w.kind!r} witness: "
                                  "almost-greedy witnesses carry a set B, no other kind does")
    A = _mask(b.d, w.indices)
    if w.kind in ("exact", "oracle", "template", "random"):
        sets = [A, np.ones(b.d)]
    elif w.kind in ("quasi-greedy", "almost-greedy"):  # quasi-greedy: B = () keeps f whole
        B, mags = _mask(b.d, w.b_indices or ()), np.abs(a)
        if mags[A > 0.5].min(initial=math.inf) < mags[A < 0.5].max(initial=0.0):  # ties allowed
            raise ConditionalityError(f"A = {w.indices!r} is not greedy for f: min over A of |a| "
                                      "is below the max outside A")
        if B.sum() > A.sum():
            raise ConditionalityError(f"|B| = {int(B.sum())} exceeds |A| = {int(A.sum())}")
        sets = [1.0 - A, 1.0 - B]
    else:
        raise ConditionalityError(f"unknown witness kind {w.kind!r}")
    return float(_set_ratios(b, a[None], np.array([sets]))[0])


# ---------------------------------------------------------------------------
# coefficient profiles and structured sets
# ---------------------------------------------------------------------------


def _levels(m: int) -> np.ndarray:
    """The heap-tree level floor(log2 j) of each j in 1..m."""
    return np.array([j.bit_length() - 1 for j in range(1, m + 1)], dtype=np.int64)


def _alternating(m: int, last: float = 1.0) -> np.ndarray:
    a = (-1.0) ** np.arange(m)
    a[-1] *= last
    return a


# the oracle's coefficient profiles of support m: ones, alternating signs with
# the last one whole or halved, the dyadic level weights 2^-level(j), 2^-(j-1)
PROFILES = (
    np.ones,
    _alternating,
    lambda m: _alternating(m, 0.5),
    lambda m: 2.0 ** -_levels(m),
    lambda m: 2.0 ** -np.arange(m, dtype=np.float64),
)


def _structured_masks(m: int) -> np.ndarray:
    """The distinct nonempty 0/1 rows of the parity, level-parity, half and
    full sets of 1..m, sorted."""
    j = np.arange(1, m + 1)
    odd, low, odd_level = j % 2 == 1, j <= m // 2, _levels(m) % 2 == 1
    rows = np.array([odd, ~odd, ~odd_level, odd_level, low, ~low, j > 0], dtype=np.float64)
    return np.unique(rows[rows.any(axis=1)], axis=0)


# ---------------------------------------------------------------------------
# support-restricted evaluation
# ---------------------------------------------------------------------------


def _mask_sweep(p: BasisTruncation, rows: np.ndarray, sets: np.ndarray):
    """Batch ascent objective of the oracle and of both estimates on the
    prefix ``p``: the best ||S_A f||/||f|| over the set rows for each row f,
    a payload k -> the index of row k's first best set (None when f
    vanishes), and ||f|| of each row."""
    nums, dens = p.ratio_norms(rows, sets)
    return (guarded_ratio(nums.max(axis=1), dens),
            lambda k: int(nums[k].argmax()) if dens[k] > TINY else None, dens)


def _bound_norms(p: BasisTruncation):
    """The column norms of ``ascend``'s bound on the prefix ``p`` (its cached
    ``column_norms()``), or None where the bound does not hold: an ambient
    that is only a quasi-norm, or more roundings than ROUNDING covers (see
    ``ascend``)."""
    roundings = p.d * (2 * p.ambient_dim + MAX_SWEEPS) + 8 * p.ambient_dim + 8
    return p.column_norms() if is_norm(p.space) and roundings * 2.0**-52 <= ROUNDING else None


def _ascend(p: BasisTruncation, a0: np.ndarray, sets: np.ndarray):
    """Signed-move ``ascend`` from ``a0`` on ``_mask_sweep`` over ``sets``, with
    the column norms of its bound where it holds."""
    cost = (sets.shape[0] + 1) * p.ambient_dim
    return ascend([a0], lambda rows: _mask_sweep(p, rows, sets), signed_moves, cost,
                  _bound_norms(p))[0]


def _mask_to_set(mask_row) -> tuple:
    return tuple(int(j) + 1 for j in np.flatnonzero(np.asarray(mask_row) > 0.5))


class _Best:
    """The running witness of every estimator, from f = ``coeffs`` (the floor
    e_1) with the set ``A`` (B = () for almost-greedy): ``offer`` builds a
    Witness, scores it with ``verify_witness`` (which raises on an f that
    vanishes) and keeps it on a strict gain.

    An offer's ``value``, the search's own ratio of the witness, skips the
    score where it lies below the record by more than 16 ROUNDING (1 +
    record)^2: two evaluations of one ratio differ by at most 2 ROUNDING
    (s / ||f||) (1 + ratio), s = sum |a_j| ||x_j|| (see ``ascend``), so such
    an offer cannot gain while s <= 8 (1 + record) ||f||, which the offers
    on the test bases keep (``test_offers_stay_within_the_skip_margin``)."""

    def __init__(self, b: BasisTruncation, kind: str, A=(), coeffs=(1.0,)):
        self.b, self.kind, self.ratio = b, kind, -math.inf
        self.offer(coeffs, A, b_indices=() if kind == "almost-greedy" else None)

    def offer(self, coeffs, A, value: float = math.inf, kind: str | None = None, b_indices=None):
        if value < self.ratio - 16.0 * ROUNDING * (1.0 + self.ratio) ** 2:
            return
        B = None if b_indices is None else tuple(sorted(int(i) for i in b_indices))
        w = Witness(tuple(_pad_to(np.asarray(coeffs, dtype=np.float64), self.b.d).tolist()),
                    tuple(sorted(int(i) for i in A)), math.nan, kind or self.kind, B)
        ratio = verify_witness(self.b, w)
        if ratio > self.ratio:
            self.ratio, self.witness = ratio, replace(w, ratio=ratio)

    def result(self) -> tuple:
        """(ratio, Witness)."""
        return self.ratio, self.witness


# ---------------------------------------------------------------------------
# L_m oracle
# ---------------------------------------------------------------------------


def L_m_oracle(b: BasisTruncation, m: int, guard: int = DEFAULT_GUARD):
    """Reference lower bound for L_m; deterministic, independent of any seed.

    The full joint grid (m <= FULL_GRID_MAX_M) covers every sign vector f
    and every A, reading all norms from one table of the 3^m sign vectors
    (``_oracle_grid``).  Where every synthesised coordinate is exact, as on
    the shipped recipes, its best equals that of synthesising every (f, A)
    pair.  Otherwise BLAS may round a row differently with the batch it
    sits in, and they agree to a few ulps; either way the grid only picks
    the witness, and ``_Best`` scores it.  For larger m the reduced tier
    samples REDUCED_PAIRS pairs and cuts each batch to its own leaders.
    """
    m = check_m(m, b.d, ConditionalityError)
    guard = check_int(guard, 1, math.inf, ConditionalityError, "guard")
    if m > guard:
        raise ConditionalityError(f"oracle refused: m={m} exceeds guard {guard}")
    p = b.prefix(m)
    masks = all_subset_masks(m)
    best = _Best(b, "oracle", range(1, m + 1))  # A = {1..m} reproduces f = e_1 itself
    leaders = []  # (ratios, rows) pieces in offer order

    # structured profiles at every support size (keeps the values monotone in m)
    for s in range(1, m + 1):
        p_s, masks_s = (p if s == m else b.prefix(s)), masks[: 2**s, :s]
        for profile in PROFILES:
            a_s = profile(s)
            ratios, payload, _ = _mask_sweep(p_s, a_s[None], masks_s)
            r, mi = ratios[0], payload(0)
            if mi is not None:
                a_full = _pad_to(a_s, m)
                best.offer(a_full, _mask_to_set(masks_s[mi]), r)
                leaders.append(([r], a_full[None]))

    # recipe templates, swept over the same support sizes in one batch
    pairs = [pair for s in range(1, m + 1) for pair in template_pairs(b.recipe, b.d, s)]
    for r, (a_t, A_t) in zip(_pair_ratios(b, pairs), pairs):
        best.offer(a_t, A_t, r)
        leaders.append(([r], a_t[None, :m]))

    # joint coefficient/membership grid
    if m <= FULL_GRID_MAX_M:
        _oracle_grid(p, best, leaders)
    else:
        rng = rng_stream(_ORACLE_SEED, "oracle-pairs", m)
        for _ in range(REDUCED_PAIRS // 4096):
            coefs = rng.integers(-1, 2, size=(4096, m)).astype(np.float64)
            inmask = rng.random((4096, m)) < 0.5
            nums, dens = p.ratio_norms(coefs, inmask[:, None, :])
            ratios = guarded_ratio(nums[:, 0], dens)
            i = int(np.argmax(ratios))
            best.offer(coefs[i], _mask_to_set(inmask[i]), ratios[i])
            kept = np.flatnonzero(dens > TINY)
            sel = kept[top_positions(ratios[kept], ORACLE_TOPK)]
            leaders.append((ratios[sel], coefs[sel]))

    # ascent from the distinct leaders, rescanning all subsets each step
    for a_start in distinct_leaders(leaders, ORACLE_TOPK):
        r, a_fin, mi = _ascend(p, a_start, masks)
        if mi is not None:
            best.offer(a_fin, _mask_to_set(masks[mi]), r)

    return best.result()


def _oracle_grid(p: BasisTruncation, best: _Best, leaders: list):
    """Every sign vector f of the support m against every A in {1..m}.

    S_A f is a sub-code of f, so one table of the norms of the 3^m sign
    vectors holds every ratio (``sign_leaders``).  Offers the best f and
    one leader piece, the ORACLE_TOPK best f by their best A.
    """
    m = p.d
    codes, subs, ratios = sign_leaders(sign_table(p.synth_norms, m), m, ORACLE_TOPK, residual=False)
    rows = sign_row(codes, m)
    if codes.size:
        best.offer(rows[0], np.flatnonzero(sign_row(subs[0], m)) + 1, ratios[0])
    leaders.append((ratios, rows))


# ---------------------------------------------------------------------------
# L_m estimate
# ---------------------------------------------------------------------------


def _seeded_search(b: BasisTruncation, p: BasisTruncation, floor_set, sets, found, block_fn,
                   budget: int | None):
    """Body of both seeded estimates on the prefix ``p`` of ``b``.

    Starts at the floor (e_1, ``floor_set``), offers the template ``found``
    (an ``_exact`` result, or None), whose set joins the sorted family
    ``sets``; ascends from the best offer; then offers the best of
    ceil(budget / BLOCK) random blocks ``block_fn(sets, i)``.
    """
    m = p.d
    best = _Best(b, "random", floor_set)
    if found is not None:
        v_t, a_t, A_t, _ = found
        best.offer(a_t, A_t, v_t, kind="template")
        sets = np.unique(np.vstack([sets, _mask(m, A_t)]), axis=0)

    # deterministic ascent from the best template before spending the budget
    r, a_fin, si = _ascend(p, np.array(best.witness.coeffs[:m]), sets)
    best.offer(a_fin, _mask_to_set(sets[si]), r)

    n_blocks = math.ceil((DEFAULT_BUDGET if budget is None else budget) / BLOCK)
    r, payload = parallel_block_max(lambda i: block_fn(sets, i), n_blocks)
    if payload is not None:
        best.offer(payload[0], _mask_to_set(payload[1]), r)
    return best.result()


def _block_best(p: BasisTruncation, rows: np.ndarray, sets: np.ndarray):
    """First best (ratio, (row, set)) of ``rows`` against ``sets``; ||f|| of each row."""
    nums, dens = p.ratio_norms(rows, sets)
    ratios = guarded_ratio(nums, dens)
    i, j = np.unravel_index(np.argmax(ratios), ratios.shape)
    return float(ratios[i, j]), (rows[i].copy(), sets[j]), dens


def _block_ascent(p: BasisTruncation, sets: np.ndarray, ratio: float, best: tuple):
    """Ascend from the row of ``best``; keep the ascent on a strict gain over ``ratio``."""
    r, a, si = _ascend(p, best[0], sets)
    return (r, (a, sets[si])) if r > ratio else (ratio, best)


def _L_block(p: BasisTruncation, sets: np.ndarray, seed: int, bi: int):
    m = p.d
    rng = rng_stream(seed, "L", m, bi)
    rows = sample_block(rng, m, keep=0.8)
    sets = np.vstack([sets, (rng.random((8, m)) < 0.5).astype(np.float64)])
    return _block_ascent(p, sets, *_block_best(p, rows, sets)[:2])


def L_m_estimate(
    b: BasisTruncation,
    m: int,
    budget: int | None = None,
    seed: int = DEFAULT_SEED,
    guard: int = DEFAULT_GUARD,
):
    """Lower bound for L_m: the exact route, else the oracle, when m is within
    the guard and the budget is None or at least 5^m (the full grid); else
    the recipe's template plus seeded search."""
    m = check_m(m, b.d, ConditionalityError)
    check_budget(budget, ConditionalityError)
    guard = check_int(guard, 1, math.inf, ConditionalityError, "guard")
    if m <= guard and (budget is None or budget >= 5**m):
        return L_m_exact(b, m) or L_m_oracle(b, m, guard=guard)

    p = b.prefix(m)
    return _seeded_search(
        b, p, tuple(range(1, m + 1)), _structured_masks(m), _exact(b.recipe, b.d, m, m),
        lambda sets, i: _L_block(p, sets, seed, i), budget,
    )


# ---------------------------------------------------------------------------
# k_m estimate
# ---------------------------------------------------------------------------


def _cap_sets(sets: np.ndarray, m: int) -> np.ndarray:
    """Trim each 0/1 row to its first m set positions (|A| <= m constraint)."""
    return np.unique(sets * (np.cumsum(sets > 0.5, axis=1) <= m), axis=0)


def _k_block(p: BasisTruncation, sets: np.ndarray, m: int, seed: int, bi: int):
    """The L block body on full-support rows and sets capped at m, plus each
    row's own top-m set (|A| <= m by construction) in one ``kept_norms`` call."""
    d = p.d
    rng = rng_stream(seed, "k", m, bi)
    rows = sample_block(rng, d)
    extra = _cap_sets((rng.random((8, d)) < min(0.5, m / d)).astype(np.float64), m)
    sets = np.vstack([sets, extra])
    best_r, best, dens = _block_best(p, rows, sets)
    tops = np.zeros_like(rows)
    np.put_along_axis(tops, greedy_order(rows)[:, :m], 1.0, axis=1)
    tr = guarded_ratio(p.kept_norms(rows, tops[:, None])[:, 0], dens)
    ti = int(np.argmax(tr))
    if tr[ti] > best_r:
        best_r, best = float(tr[ti]), (rows[ti].copy(), tops[ti])
    return _block_ascent(p, sets, best_r, best)


def k_m_estimate(
    b: BasisTruncation, m: int, budget: int | None = None, seed: int = DEFAULT_SEED
):
    """Lower bound for k_m = sup over |A| <= m of the projection norm: the
    recipe's exact k_m witness (``_exact`` with support 1..d and |A| <= m) as
    the template of the seeded search; at m = d, where k_d = L_d,
    ``L_m_estimate`` with the same budget and seed and the default guard."""
    m = check_m(m, b.d, ConditionalityError)
    check_budget(budget, ConditionalityError)
    if m == b.d:
        # identical optimisation domain: A free inside {1..d}, support free
        return L_m_estimate(b, m, budget=budget, seed=seed)
    d = b.d
    p = b.prefix(d)
    return _seeded_search(
        b, p, (1,), _cap_sets(_structured_masks(d), m), _exact(b.recipe, d, d, m),
        lambda sets, i: _k_block(p, sets, m, seed, i), budget,
    )


# ---------------------------------------------------------------------------
# templates: the exact witnesses
# ---------------------------------------------------------------------------


def recipe_dim(recipe: tuple) -> int | None:
    tag = recipe[0]
    if tag in ("unit", "lindenstrauss", "summing", "difference"):
        return int(recipe[1])
    if tag == "interleave":
        d0, d1 = recipe_dim(recipe[1]), recipe_dim(recipe[2])
        return None if d0 is None or d1 is None else d0 + d1
    if tag in ("block_sum", "pq_block_sum"):
        return int(sum(recipe[2]))
    return None


def _pad_to(a: np.ndarray, d: int) -> np.ndarray:
    out = np.zeros(d)
    out[: a.size] = a
    return out


def template_pairs(recipe: tuple, d: int, m: int) -> list:
    """The recipe's witness for L_m as a one-pair list: ``_exact`` with support
    and A inside [1..m], coefficients of length d.  [] where no part of the
    recipe has a route, and at m = 0."""
    d = check_int(d, 1, math.inf, ConditionalityError, "d")
    m = check_int(m, 0, d, ConditionalityError, "m")
    found = _exact(recipe, d, m, m) if m else None
    return [] if found is None else [found[1:3]]


def interleave_pair(coeffs, indices, side: int, d0: int, d1: int):
    """Transfer a one-component pair onto the interleaved system (exact)."""
    side = check_int(side, 0, 1, ConditionalityError, "side")
    d0, d1 = (check_int(n, 0, math.inf, ConditionalityError, "part length") for n in (d0, d1))
    a = check_coeffs(coeffs, (d0, d1)[side], ConditionalityError)
    pos = interleave_positions(d0, d1)[side]
    out = np.zeros(d0 + d1)
    for j, c in enumerate(a):
        out[pos[j] - 1] = c
    return out, tuple(pos[i] for i in check_indices(indices, a.size, ConditionalityError))


def block_embed_pair(coeffs, indices, dims, r: int):
    """Place a pair inside block r of a block sum (1-based; exact transfer)."""
    dims = tuple(check_int(dn, 1, math.inf, ConditionalityError, "block dimension") for dn in dims)
    r = check_int(r, 1, len(dims), ConditionalityError, "block index")
    a = check_coeffs(coeffs, dims[r - 1], ConditionalityError)
    off = block_offsets(dims)[r - 1]
    out = np.zeros(sum(dims))
    out[off : off + a.size] = a
    return out, tuple(off + 1 + int(i) for i in check_indices(indices, a.size, ConditionalityError))


# ---------------------------------------------------------------------------
# exact L_m and k_m
# ---------------------------------------------------------------------------


def _chain_string(n: int, c: int) -> tuple:
    """(changes, b): a 0/1 string b_1..b_n with at most c ones and the most
    changes sum_i |b_i - b_{i+1}| under the closing b_{n+1} = 0.  A one makes
    at most two changes and there are n places, so the ones at n, n - 2, ...
    make the most, min(2c, n)."""
    ones = range(n, max(n - 2 * c, 0), -2)
    return min(2 * c, n), tuple(int(i in ones) for i in range(1, n + 1))


def _tree_profile(n: int, c: int) -> tuple:
    """(value, phi, A): the sup of ||S_A f|| / ||f|| of the Lindenstrauss
    system over f supported in 1..n and |A| <= c, by a DP on the heap tree 1..n.

    For a fixed A the ratio is convex in f, so it peaks at a vertex of the
    unit ball {f : ||Cf||_1 <= 1}.  There n - 1 independent rows of C vanish,
    so a vertex is, up to sign and scale, a halving profile: phi_j =
    2^-(depth j - depth r) on a subtree S rooted at r, 0 elsewhere, with
    ||C phi||_1 = 2 (Kraft).  ||S_A phi||_1 is 1 if r is in A, plus phi_c for
    each edge inside S with exactly one end in A, plus phi_p / 2 for each edge
    leaving S from a p in A; members of A outside S add nothing.  W[j, a][t]
    is the best such mass below j, scaled to phi_j = 1, when j lies in S with
    [j in A] = a and at most t members of A lie in S at or below j.  On a
    subtree of height h it is k / 2^h with 0 <= k <= n 2^h, so every value
    and sum is exact in floats.  Ties keep the largest budget of the first
    child, so a budget that does not bind gives the witness of the DP
    without one.
    """
    size = [0] * (2 * n + 2)  # subtree sizes, 0 past n
    for j in range(n, 0, -1):
        size[j] = 1 + size[2 * j] + size[2 * j + 1]
    W = {}  # (j, a) -> per budget t: (W, each child's (gain, [k in A] or None, budget))

    def gains(k: int, a: int) -> list:
        # per budget, child k's first best of: leaving S (None), then in S with [k in A] = 0, 1
        out = [(a, None, 0)] * (min(c, size[k]) + 1)
        for bk in (0, 1):
            for t, (w, _) in enumerate(W.get((k, bk), ())):
                if (a != bk) + w > out[t][0]:
                    out[t] = ((a != bk) + w, bk, t)
        return out

    for j in range(n, 0, -1):
        for a in (0, 1):
            g1, g2 = gains(2 * j, a), gains(2 * j + 1, a)
            row = [(-math.inf, None)] * a  # budget 0 cannot hold j itself
            for t in range(a, min(c, size[j]) + 1):
                u = min(t - a, len(g1) + len(g2) - 2)  # the children's budget
                # the first best split, from the largest share of child 2j down
                s = max(range(min(u, len(g1) - 1), max(u - len(g2) + 1, 0) - 1, -1),
                        key=lambda s: g1[s][0] + g2[u - s][0])
                row.append(((g1[s][0] + g2[u - s][0]) / 2, (g1[s], g2[u - s])))
            W[j, a] = row
    # the first best root r, then a = 1 on a tie
    value, neg_r, a = max(((a + W[r, a][-1][0]) / 2, -r, a) for r in range(1, n + 1) for a in (0, 1))
    phi, A, todo = np.zeros(n), [], [(-neg_r, a, min(c, size[-neg_r]), 1.0)]
    while todo:
        j, a, t, w = todo.pop()
        phi[j - 1] = w
        A += [j] * a
        todo += [(k, pick, tk, w / 2) for k, (_, pick, tk) in zip((2 * j, 2 * j + 1), W[j, a][t][1])
                 if pick is not None]
    return value, phi, tuple(sorted(A))


def _exact(recipe: tuple, d: int, n: int, c: int):
    """(value, dyadic coefficients of length d with support in 1..n, A with
    |A| <= c, exact) for a recipe basis of length d.  The value is the
    witness's ||S_A f|| / ||f||, an exact int or dyadic float; exact says it
    is the sup over all such f and A: L_m at n = c = m, k_m at n = d, c = m.
    A combinator with a routeless part in 1..n gives its best routed part's
    witness with exact False; None where no part has a route."""
    tag = recipe[0]
    if tag == "unit":  # monotone norms, and |S_A f| <= |f| coordinatewise
        if not isinstance(parse_space(recipe[2]), (Lp, C0Trunc, Lorentz)):
            return None
        return 1, _pad_to(np.ones(1), d), (1,), True
    if tag in ("difference", "summing"):
        # the n-prefix C is square, so the sup is the max over |A| <= c of
        # ||C D_A C^-1||; each column (l1) or row (c0) counts the changes of a 0/1 string
        value, bits = _chain_string(n, c)
        if tag == "difference":  # column n: C 1_A, from f = C^-1 e_n
            a, A = np.ones(n), bits
        else:  # row 1: the changes x of 1_A opened by 0, attained by f = C^-1 x
            A = bits[::-1]
            x = np.diff(np.r_[0.0, A])
            a = x - np.r_[x[1:], 0.0]
        return value, _pad_to(a, d), tuple(i + 1 for i, s in enumerate(A) if s), True
    if tag == "lindenstrauss":
        value, phi, A = _tree_profile(n, c)
        return value, _pad_to(phi, d), A, True
    # a combinator's ratio is at most its largest part's and is attained in one
    # part, so the sup is the largest part's at its share of 1..n
    if tag == "interleave":
        d0, d1 = recipe_dim(recipe[1]), recipe_dim(recipe[2])
        if d0 is None or d1 is None:
            return None
        parts = [(recipe[1 + side], (d0, d1)[side], sum(1 for p in pos if p <= n),
                  lambda a, A, side=side: interleave_pair(a, A, side, d0, d1))
                 for side, pos in enumerate(interleave_positions(d0, d1))]
    elif tag == "block_sum":
        base, dims = recipe[1], recipe[2]
        parts = [(base, dn, min(dn, n - off), lambda a, A, r=r: block_embed_pair(a, A, dims, r))
                 for r, (dn, off) in enumerate(zip(dims, block_offsets(dims)), start=1)]
    else:
        return None
    best, exact = None, True
    for r_in, d_in, s, embed in parts:
        if s < 1:  # the part holds no position of 1..n
            continue
        found = _exact(r_in, d_in, s, min(c, s))
        exact = exact and found is not None and found[3]
        if found is not None and (best is None or found[0] > best[0]):
            best = (found[0], *embed(*found[1:3]))
    return None if best is None else (*best, exact)


def _exact_witness(b: BasisTruncation, n: int, c: int, name: str):
    """``_exact``'s (value, Witness of kind "exact") where it is the sup; the
    witness must score the value bitwise, else ArithmeticError on ``name``."""
    found = _exact(b.recipe, b.d, n, c)
    if found is None or not found[3]:
        return None
    value, coeffs, A, _ = found
    best = _Best(b, "exact", A, coeffs)
    if best.ratio != float(value):
        raise ArithmeticError(f"exact {name} = {value} but its witness scores {best.ratio!r}")
    return best.result()


def L_m_exact(b: BasisTruncation, m: int):
    """Exact L_m with a dyadic witness of kind "exact", or None where no exact
    route exists (pqhalf and external bases, unit vectors on BV, and a
    combinator with such a part inside 1..m).

    Computed exactly, in ints and dyadic floats: a chain DP for difference
    (l1) and summing (c0), a heap-tree DP for Lindenstrauss, 1 for unit
    vectors on Lp, c0 and Lorentz ambients, and for interleaves and block
    sums the largest part's value.  The witness must score the value bitwise
    in floats, else ArithmeticError.
    """
    m = check_m(m, b.d, ConditionalityError)
    return _exact_witness(b, m, m, f"L_{m}")


def k_m_exact(b: BasisTruncation, m: int):
    """``L_m_exact``'s route for k_m, over support 1..d and |A| <= m: None
    also for a combinator with a routeless part anywhere in 1..d."""
    m = check_m(m, b.d, ConditionalityError)
    return _exact_witness(b, b.d, m, f"k_{m}")


# ---------------------------------------------------------------------------
# growth targets and fits
# ---------------------------------------------------------------------------

_SLOPE_BANDS = {"log": (0.1, 10.0), "linear": (0.1, 10.0), "power": (0.01, 100.0)}


@dataclass(frozen=True)
class GrowthTarget:
    """Doubling growth shape delta(m): log2 m, m, or m^a with a in (0,1)."""

    kind: str
    exponent: float = 1.0

    def __post_init__(self):
        if self.kind not in ("log", "linear", "power"):
            raise ConditionalityError(f"unknown growth kind {self.kind!r}")
        if self.kind == "power" and not (0.0 < self.exponent < 1.0):
            raise ConditionalityError("power exponent must lie in (0, 1)")

    def delta(self, m: float) -> float:
        if m < 1:
            raise ConditionalityError("delta is defined for m >= 1")
        if self.kind == "log":
            return math.log2(m)
        if self.kind == "linear":
            return float(m)
        return float(m) ** self.exponent


LOG_TARGET = GrowthTarget("log")
LINEAR_TARGET = GrowthTarget("linear")


def ladder_table(rows, target: GrowthTarget) -> list:
    """The table of a ladder's (m, lb, method) rows: the header, then
    (m, lb, method, delta_m) per rung."""
    return [("m", "lb", "method", "delta_m")] + [
        (m, lb, method, target.delta(m)) for m, lb, method in rows]


def ladder_records(rows, target: GrowthTarget) -> list:
    """The rungs of ``ladder_table`` as dicts keyed by its header."""
    head, *body = ladder_table(rows, target)
    return [dict(zip(head, row)) for row in body]


def target_doubling(target: GrowthTarget, ms) -> tuple:
    """(increasing?, observed doubling constant) of delta on the ladder."""
    deltas = [target.delta(m) for m in ms]
    increasing = all(b > a for a, b in zip(deltas, deltas[1:]))
    ratios = [
        target.delta(2 * m) / target.delta(m) for m in ms if target.delta(m) > TINY
    ]
    return increasing, (max(ratios) if ratios else None)


@dataclass(frozen=True)
class GrowthReport:
    """Ladder of certified lower bounds with a least-squares fit verdict."""

    target: GrowthTarget
    rows: tuple  # of (m, lb, method)
    slope: float
    intercept: float
    r_squared: float | None
    verdict: str
    note: str

    def csv_rows(self) -> list:
        return ladder_table(self.rows, self.target)

    def to_doc(self) -> dict:
        return {
            "target": {"kind": self.target.kind, "exponent": self.target.exponent},
            "rows": ladder_records(self.rows, self.target),
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "verdict": self.verdict,
            "note": self.note,
        }


def growth_fit(
    series,
    target: GrowthTarget,
    r2_min: float = 0.95,
) -> GrowthReport:
    """Least-squares fit of the lower bounds against delta(m) with a verdict;
    ``r2_min`` must be a number in [0, 1]."""
    if not (isinstance(r2_min, numbers.Real) and 0.0 <= r2_min <= 1.0):  # NaN passed every fit
        raise ConditionalityError(f"r2_min must be a number in [0, 1], got {r2_min!r}")
    rows = []
    for item in series:
        m, lb = check_int(item[0], 1, math.inf, ConditionalityError, "m"), float(item[1])
        if not math.isfinite(lb):
            raise ConditionalityError(f"lower bound at m={m} must be finite, got {lb!r}")
        method = str(item[2]) if len(item) > 2 else ""
        rows.append((m, lb, method))
    if len(rows) < 4:
        raise ConditionalityError("need at least 4 ladder points")
    ms = [m for m, _, _ in rows]
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise ConditionalityError("ladder m values must be strictly increasing")

    x = np.array([target.delta(m) for m in ms])
    y = np.array([lb for _, lb, _ in rows])
    band = _SLOPE_BANDS[target.kind]

    if float(np.ptp(y)) <= 1e-12:
        return GrowthReport(
            target, tuple(rows), 0.0, float(y.mean()), None, "FAIL",
            "degenerate ladder: constant lower bounds",
        )

    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ np.array([slope, intercept])
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    problems = []
    if r2 < r2_min:
        problems.append(f"R^2 {r2:.4f} < {r2_min:g}")
    if not (band[0] <= slope <= band[1]):
        problems.append(f"slope {slope:.4g} outside [{band[0]:g}, {band[1]:g}]")
    verdict = "PASS" if not problems else "FAIL"
    return GrowthReport(
        target, tuple(rows), float(slope), float(intercept), r2, verdict,
        "; ".join(problems),
    )


# ---------------------------------------------------------------------------
# ladders
# ---------------------------------------------------------------------------


def lb_ladder(
    b: BasisTruncation,
    ms,
    kind: str = "L",
    mode: str = "auto",
    budget: int | None = None,
    seed: int = DEFAULT_SEED,
    guard: int = DEFAULT_GUARD,
):
    """Lower-bound ladder [(m, value, witness)] with witnesses carried forward.

    Every rung's route is chosen before any oracle or search runs.  Modes
    "auto" and "oracle" take ``L_m_exact`` or ``k_m_exact`` wherever it
    exists, at any m.  Elsewhere an L rung takes ``L_m_oracle`` inside the
    guard; past it "auto" searches (``L_m_estimate``).  Mode "estimate" takes
    ``L_m_estimate`` at every L rung.  "auto" and "estimate" take
    ``k_m_estimate`` at a k rung below d, and at m = d, where k_d = L_d,
    ``L_m_estimate`` under the ladder's guard.  Mode "oracle" refuses every
    other rung, naming the first.

    A witness valid at support m stays valid at every larger support, so each
    rung reports the running maximum; ladder values are therefore
    non-decreasing by construction, matching the sup over a growing class.
    """
    ms = list(ms)
    if any(b2 <= a2 for a2, b2 in zip(ms, ms[1:])):
        raise ConditionalityError("ladder m values must be strictly increasing")
    if kind not in ("L", "k"):
        raise ConditionalityError(f"ladder kind must be 'L' or 'k', got {kind!r}")
    if mode not in ("auto", "oracle", "estimate"):
        raise ConditionalityError(f"unknown ladder mode {mode!r}")
    check_budget(budget, ConditionalityError)
    guard = check_int(guard, 1, math.inf, ConditionalityError, "guard")
    ms = [check_m(m, b.d, ConditionalityError) for m in ms]
    routes = []  # per rung, the call that gives its (value, witness)
    for m in ms:
        exact = None if mode == "estimate" else (L_m_exact if kind == "L" else k_m_exact)(b, m)
        if exact is not None:
            routes.append(lambda exact=exact: exact)
        elif mode == "oracle" and (kind == "k" or m > guard):
            why = f" and exceeds guard {guard}" if kind == "L" else ""
            raise ConditionalityError(f"oracle refused: the {kind} rung m={m} has no exact route "
                                      f"on {b.label}{why}")
        elif kind == "k" and m < b.d:
            routes.append(partial(k_m_estimate, b, m, budget=budget, seed=seed))
        elif kind == "L" and mode != "estimate" and m <= guard:
            routes.append(partial(L_m_oracle, b, m, guard=guard))
        else:
            routes.append(partial(L_m_estimate, b, m, budget=budget, seed=seed, guard=guard))
    out, carry = [], None  # the (value, witness) of the last strict gain
    for m, route in zip(ms, routes):
        val, wit = route()
        if carry is None or val > carry[0]:
            carry = (val, wit)
        elif carry[0] > val:
            val, wit = carry
        out.append((m, val, wit))
    return out
