"""Conditionality constants k_m and L_m with growth-fit reporting.

L_m is the supremum of ||S_A f|| / ||f|| over vectors f supported in the
first m basis positions; since S_A f = S_{A cap [1..m]} f for such f, the
search restricts A to subsets of {1..m} without loss.  k_m takes the
supremum over |A| <= m with unrestricted support instead.

Three evaluation routes, all returning certified lower bounds with a
witness:

* ``L_m_oracle``   -- reference sweep: structured coefficient profiles at
  every support size up to m, the recipe's template pairs, the full joint
  grid over {-1,0,1} coefficients and subset membership when m <= 10
  (deterministic reduced sampling otherwise), then multiplicative
  coordinate ascent on the leading candidates, each rescanned against all
  2^m subsets.  Deterministic; no user seed enters.  On the full grid both
  f and S_A f are sign vectors, so one norm table over the 3^m sign
  vectors holds every ratio, and each f's best A takes about m steps.
* ``L_m_estimate`` -- the oracle route when m is inside the guard and the
  budget covers the full grid; otherwise template evaluation plus seeded
  random sampling with ascent against a fixed family of structured sets.
* ``k_m_estimate`` -- like the estimate but with full-support samples and
  sets capped at m elements; coincides with L_d when m = d.  Its templates
  are the L templates of supports m..d, A cut to its first m indices.

Every route evaluates on ``BasisTruncation.prefix(m)`` (``prefix(d)`` for
k_m).  Its objective is ``_mask_sweep``, which scores a batch of
coefficient rows against a family of sets through ``kept_norms``; the
sampler, the coordinate ascent, the block maximum, the oracle's leader pick
and the grid kernel come from ``_search``.  Both estimates share one body,
``_seeded_search``, and one block body, ``_block_best`` then
``_block_ascent``.  Every estimator, the greedy ones too, builds its result
in one record, ``_Best``.

Estimates are reproducible for fixed (inputs, seed), and never decrease
when the budget grows with the seed held fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import (
    BLOCK,
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    TINY,
    all_subset_masks,
    ascend,
    check_budget,
    check_indices,
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

__all__ = [
    "ConditionalityError",
    "Witness",
    "witness_from_doc",
    "verify_witness",
    "sa_ratio",
    "L_m_oracle",
    "L_m_estimate",
    "k_m_estimate",
    "template_pairs",
    "k_template_pairs",
    "recipe_dim",
    "interleave_pair",
    "block_embed_pair",
    "GrowthTarget",
    "GrowthReport",
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
    kind of ratio.  Projection kinds (oracle/template/random) certify
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
    b = doc.get("B")
    return Witness(
        tuple(float(x) for x in doc["coeffs"]),
        tuple(int(i) for i in doc["A"]),
        float(doc["ratio"]),
        str(doc["kind"]),
        None if b is None else tuple(int(i) for i in b),
    )


def _restrict(coeffs: np.ndarray, indices) -> np.ndarray:
    out = np.zeros_like(coeffs)
    idx = check_indices(indices, coeffs.size, ConditionalityError)
    out[idx] = coeffs[idx]
    return out


def _coeffs(b: BasisTruncation, coeffs) -> np.ndarray:
    """``coeffs`` as a float array; ConditionalityError unless d finite values."""
    a = np.asarray(coeffs, dtype=np.float64)
    if a.shape != (b.d,) or not np.isfinite(a).all():
        raise ConditionalityError(f"expected {b.d} finite coefficients")
    return a


def _pair_ratios(b: BasisTruncation, pairs) -> np.ndarray:
    """||S_A f|| / ||f|| of each (coefficients, A) pair in one norms call; one
    pair is ``sa_ratio``'s 2-row batch, and more pairs give the same values
    where synthesis is exact, as on the shipped recipes."""
    rows = []
    for coeffs, indices in pairs:
        a = _coeffs(b, coeffs)
        rows += [_restrict(a, indices), a]
    out = b.synth_norms(np.vstack(rows)) if rows else np.zeros(0)
    if np.any(out[1::2] <= TINY):
        raise ConditionalityError("zero vector has no projection ratio")
    return out[0::2] / out[1::2]


def sa_ratio(b: BasisTruncation, coeffs, indices) -> float:
    """||S_A f|| / ||f|| for f synthesised from ``coeffs``."""
    return float(_pair_ratios(b, [(coeffs, indices)])[0])


def verify_witness(b: BasisTruncation, w: Witness) -> float:
    """Recompute the witness ratio from scratch (same norm pipeline)."""
    a = _coeffs(b, w.coeffs)
    if w.kind in ("oracle", "template", "random"):
        return sa_ratio(b, a, w.indices)
    rows = [a - _restrict(a, w.indices)]
    if w.kind == "quasi-greedy":
        rows.append(a)
    elif w.kind == "almost-greedy":
        rows.append(a - _restrict(a, w.b_indices or ()))
    else:
        raise ConditionalityError(f"unknown witness kind {w.kind!r}")
    num, den = b.synth_norms(np.vstack(rows))
    if den <= TINY:
        raise ConditionalityError("witness denominator vanishes")
    return float(num) / float(den)


# ---------------------------------------------------------------------------
# coefficient profiles and structured sets
# ---------------------------------------------------------------------------


def _level(j: int) -> int:
    return j.bit_length() - 1


def profile_ones(m: int) -> np.ndarray:
    return np.ones(m)


def profile_alternating(m: int) -> np.ndarray:
    return (-1.0) ** np.arange(m)


def profile_alternating_half_last(m: int) -> np.ndarray:
    a = profile_alternating(m)
    a[-1] *= 0.5
    return a


def profile_dyadic_levels(m: int) -> np.ndarray:
    return np.array([2.0 ** -_level(j) for j in range(1, m + 1)])


def profile_geometric(m: int) -> np.ndarray:
    return 2.0 ** -np.arange(m, dtype=np.float64)


PROFILES = (
    profile_ones,
    profile_alternating,
    profile_alternating_half_last,
    profile_dyadic_levels,
    profile_geometric,
)


def parity_set(m: int, parity: int) -> tuple:
    return tuple(j for j in range(1, m + 1) if j % 2 == parity % 2)


def level_parity_set(m: int, parity: int) -> tuple:
    return tuple(j for j in range(1, m + 1) if _level(j) % 2 == parity % 2)


def _set_to_mask(m: int, indices) -> np.ndarray:
    mask = np.zeros(m)
    for i in indices:
        mask[int(i) - 1] = 1.0
    return mask


def _structured_masks(m: int) -> np.ndarray:
    half = m // 2
    sets = [
        parity_set(m, 1),
        parity_set(m, 0),
        level_parity_set(m, 0),
        level_parity_set(m, 1),
        tuple(range(1, half + 1)),
        tuple(range(half + 1, m + 1)),
        tuple(range(1, m + 1)),
    ]
    rows = {tuple(_set_to_mask(m, s)) for s in sets if s}
    return np.array(sorted(rows))


# ---------------------------------------------------------------------------
# support-restricted evaluation
# ---------------------------------------------------------------------------


def _mask_sweep(p: BasisTruncation, rows: np.ndarray, sets: np.ndarray):
    """Batch ascent objective of the oracle and of both estimates on the
    prefix ``p``: the best ||S_A f||/||f|| over the set rows for each row f,
    and a payload k -> the index of row k's first best set (None when f
    vanishes)."""
    nums, dens = p.kept_norms(rows, sets), p.synth_norms(rows)
    return (guarded_ratio(nums.max(axis=1), dens),
            lambda k: int(nums[k].argmax()) if dens[k] > TINY else None)


def _ascend(p: BasisTruncation, a0: np.ndarray, sets: np.ndarray):
    """Signed-move ``ascend`` from ``a0`` on ``_mask_sweep`` over ``sets``."""
    cost = (sets.shape[0] + 1) * p.ambient_dim
    return ascend([a0], lambda rows: _mask_sweep(p, rows, sets), signed_moves, cost)[0]


def _mask_to_set(mask_row) -> tuple:
    return tuple(int(j) + 1 for j in np.flatnonzero(np.asarray(mask_row) > 0.5))


class _Best:
    """The running (ratio, coefficients, A[, B]) of every estimator: from the
    floor ratio 1 of f = e_1 with the set ``A`` (B = () for almost-greedy), or
    from a given ``ratio`` and ``coeffs``; ``offer`` takes only strict gains."""

    def __init__(self, d: int, kind: str, A=(), ratio: float = 1.0, coeffs=(1.0,)):
        self.d, self.ratio = d, -math.inf
        self.offer(ratio, coeffs, A, kind, () if kind == "almost-greedy" else None)

    def offer(self, ratio: float, coeffs, A, kind: str | None = None, b_indices=None):
        if ratio <= self.ratio:
            return
        self.ratio = float(ratio)
        self.coeffs = np.asarray(coeffs, dtype=np.float64).copy()
        self.indices = tuple(sorted(int(i) for i in A))
        self.b_indices = None if b_indices is None else tuple(sorted(int(i) for i in b_indices))
        self.kind = kind or self.kind

    def result(self) -> tuple:
        """(ratio, Witness) with the coefficients padded to d."""
        padded = np.zeros(self.d)
        padded[: self.coeffs.size] = self.coeffs
        return self.ratio, Witness(tuple(padded.tolist()), self.indices, self.ratio, self.kind,
                                   self.b_indices)


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
    sits in, and they agree to a few ulps, well inside the 1e-12 to which a
    witness re-verifies.  For larger m the reduced tier samples
    REDUCED_PAIRS pairs and cuts each batch to its own leaders.
    """
    if not (1 <= m <= b.d):
        raise ConditionalityError(f"m must lie in 1..{b.d}, got {m}")
    if m > guard:
        raise ConditionalityError(f"oracle refused: m={m} exceeds guard {guard}")
    p = b.prefix(m)
    masks = all_subset_masks(m)
    best = _Best(b.d, "oracle", range(1, m + 1))  # A = {1..m} reproduces f = e_1 itself
    leaders = []  # (ratios, rows) pieces in offer order

    # structured profiles at every support size (keeps the values monotone in m)
    for s in range(1, m + 1):
        p_s, masks_s = (p if s == m else b.prefix(s)), masks[: 2**s, :s]
        for profile in PROFILES:
            a_s = profile(s)
            ratios, payload = _mask_sweep(p_s, a_s[None], masks_s)
            r, mi = ratios[0], payload(0)
            if mi is not None:
                a_full = _pad_to(a_s, m)
                best.offer(r, a_full, _mask_to_set(masks_s[mi]))
                leaders.append(([r], a_full[None]))

    # recipe templates, swept over the same support sizes in one batch
    pairs = [pair for s in range(1, m + 1) for pair in template_pairs(b.recipe, b.d, s)]
    for r, (a_t, A_t) in zip(_pair_ratios(b, pairs), pairs):
        best.offer(r, a_t[:m], A_t)
        leaders.append(([r], a_t[None, :m]))

    # joint coefficient/membership grid
    if m <= FULL_GRID_MAX_M:
        _oracle_grid(p, best, leaders)
    else:
        rng = rng_stream(_ORACLE_SEED, "oracle-pairs", m)
        for _ in range(REDUCED_PAIRS // 4096):
            coefs = rng.integers(-1, 2, size=(4096, m)).astype(np.float64)
            inmask = rng.random((4096, m)) < 0.5
            dens = p.synth_norms(coefs)
            ratios = guarded_ratio(p.synth_norms(coefs * inmask), dens)
            i = int(np.argmax(ratios))
            best.offer(ratios[i], coefs[i], _mask_to_set(inmask[i]))
            kept = np.flatnonzero(dens > TINY)
            sel = kept[top_positions(ratios[kept], ORACLE_TOPK)]
            leaders.append((ratios[sel], coefs[sel]))

    # ascent from the distinct leaders, rescanning all subsets each step
    for a_start in distinct_leaders(leaders, ORACLE_TOPK):
        r, a_fin, mi = _ascend(p, a_start, masks)
        if mi is not None:
            best.offer(r, a_fin, _mask_to_set(masks[mi]))

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
        best.offer(ratios[0], rows[0], np.flatnonzero(sign_row(subs[0], m)) + 1)
    leaders.append((ratios, rows))


# ---------------------------------------------------------------------------
# L_m estimate
# ---------------------------------------------------------------------------


def _seeded_search(b: BasisTruncation, p: BasisTruncation, floor_set, sets, pairs, block_fn,
                   budget: int | None):
    """Body of both seeded estimates on the prefix ``p`` of ``b``.

    Starts at the floor (e_1, ``floor_set``), offers every template pair, of
    which the first best one's set joins the family ``sets``; ascends from the
    best offer; then offers the best of ceil(budget / BLOCK) random blocks
    ``block_fn(sets, i)`` (DEFAULT_BUDGET when ``budget`` is None).
    """
    m = p.d
    best = _Best(b.d, "random", floor_set)
    ratios = _pair_ratios(b, pairs)
    for r, (a_t, A_t) in zip(ratios, pairs):
        best.offer(r, a_t[:m], A_t, kind="template")
    top = [_set_to_mask(m, pairs[int(np.argmax(ratios))][1])] if pairs else []
    sets = np.unique(np.vstack([sets, *top]), axis=0)

    # deterministic ascent from the best template before spending the budget
    r, a_fin, si = _ascend(p, _pad_to(best.coeffs, m), sets)
    best.offer(r, a_fin, _mask_to_set(sets[si]), kind="random")

    n_blocks = math.ceil((DEFAULT_BUDGET if budget is None else budget) / BLOCK)
    val, payload = parallel_block_max(lambda i: block_fn(sets, i), n_blocks)
    if payload is not None:
        best.offer(val, payload[0], _mask_to_set(payload[1]), kind="random")
    return best.result()


def _block_best(p: BasisTruncation, rows: np.ndarray, sets: np.ndarray):
    """First best (ratio, (row, set)) of ``rows`` against ``sets``; ||f|| of each row."""
    nums, dens = p.kept_norms(rows, sets), p.synth_norms(rows)
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
    templates=None,
    guard: int = DEFAULT_GUARD,
):
    """Lower bound for L_m from templates plus seeded search (oracle route
    when m is within the guard and the budget covers the full grid); the
    support and A of each caller template must lie inside 1..m."""
    if not (1 <= m <= b.d):
        raise ConditionalityError(f"m must lie in 1..{b.d}, got {m}")
    check_budget(budget, ConditionalityError)
    pairs = [] if templates is None else [(np.asarray(a, dtype=np.float64), A) for a, A in templates]
    for a, A in pairs:
        if a.shape != (b.d,) or np.any(a[m:]):
            raise ConditionalityError(f"template coefficients need length {b.d}, support in 1..{m}")
        check_indices(A, m, ConditionalityError)

    if m <= guard and (budget is None or budget >= 5**m):
        # the oracle has swept the recipe's templates already
        value, wit = L_m_oracle(b, m, guard=guard)
        best = _Best(b.d, wit.kind, wit.indices, value, wit.coeffs)
        for r, (a_t, A_t) in zip(_pair_ratios(b, pairs), pairs):
            best.offer(r, a_t[:m], A_t, kind="template")
        return best.result()

    p = b.prefix(m)
    return _seeded_search(
        b, p, tuple(range(1, m + 1)), _structured_masks(m),
        pairs + template_pairs(b.recipe, b.d, m),
        lambda sets, i: _L_block(p, sets, seed, i), budget,
    )


# ---------------------------------------------------------------------------
# k_m estimate
# ---------------------------------------------------------------------------


def _cap_sets(sets: np.ndarray, m: int) -> np.ndarray:
    """Trim each 0/1 row to its first m set positions (|A| <= m constraint)."""
    return np.unique(sets * (np.cumsum(sets > 0.5, axis=1) <= m), axis=0)


def _k_block(p: BasisTruncation, sets: np.ndarray, m: int, seed: int, bi: int):
    d = p.d
    rng = rng_stream(seed, "k", m, bi)
    rows = sample_block(rng, d)
    extra = _cap_sets((rng.random((8, d)) < min(0.5, m / d)).astype(np.float64), m)
    sets = np.vstack([sets, extra])
    best_r, best, dens = _block_best(p, rows, sets)
    # per-row largest-coefficient sets obey |A| <= m by construction
    tops = np.zeros_like(rows)
    np.put_along_axis(tops, greedy_order(rows)[:, :m], 1.0, axis=1)
    tr = guarded_ratio(p.synth_norms(rows * tops), dens)
    ti = int(np.argmax(tr))
    if tr[ti] > best_r:
        best_r, best = float(tr[ti]), (rows[ti].copy(), tops[ti])
    return _block_ascent(p, sets, best_r, best)


def k_m_estimate(
    b: BasisTruncation, m: int, budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED
):
    """Lower bound for k_m = sup over |A| <= m of the projection norm."""
    if not (1 <= m <= b.d):
        raise ConditionalityError(f"m must lie in 1..{b.d}, got {m}")
    check_budget(budget, ConditionalityError)
    if m == b.d:
        # identical optimisation domain: A free inside {1..d}, support free
        return L_m_estimate(b, m, budget=budget, seed=seed)
    d = b.d
    p = b.prefix(d)
    return _seeded_search(
        b, p, (1,), _cap_sets(_structured_masks(d), m), k_template_pairs(b.recipe, d, m),
        lambda sets, i: _k_block(p, sets, m, seed, i), budget,
    )


# ---------------------------------------------------------------------------
# template families
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
    """Hand-built (coefficients, A) lower-bound witnesses for L_m.

    Coefficient arrays have length d with support inside [1..m]; A is a
    1-based tuple inside [1..m].  Families are frozen against the oracle at
    small m (the pair values are exact there) and generalise the observed
    maximisers upward.
    """
    m = min(m, d)
    if m < 1:
        return []
    tag = recipe[0]
    out = []
    if tag == "difference":
        # f = e_m has norm 1; spread sets telescope to 2|A| (or 2|A|-1 with 1 in A)
        a = _pad_to(profile_ones(m), d)
        out.append((a, parity_set(m, 1)))
        out.append((a, parity_set(m, 0)))
    elif tag == "summing":
        # alternating partial sums of height 1; halving the last step makes
        # every kept block stack to the full m
        for prof in (profile_alternating_half_last, profile_alternating):
            a = _pad_to(prof(m), d)
            out.append((a, parity_set(m, 1)))
            out.append((a, parity_set(m, 0)))
    elif tag == "lindenstrauss":
        # level-weighted tree vector telescopes to mass 2; alternating level
        # bands avoid parent-child cancellation inside S_A
        a = _pad_to(profile_dyadic_levels(m), d)
        out.append((a, level_parity_set(m, 0)))
        out.append((a, level_parity_set(m, 1)))
    elif tag == "interleave":
        r0, r1 = recipe[1], recipe[2]
        d0, d1 = recipe_dim(r0), recipe_dim(r1)
        if d0 is not None and d1 is not None:
            for side, (r_in, d_in) in enumerate(((r0, d0), (r1, d1))):
                pos = interleave_positions(d0, d1)[side]
                s = sum(1 for p in pos if p <= m)
                for a_in, A_in in template_pairs(r_in, d_in, min(s, d_in)):
                    a_out, A_out = interleave_pair(a_in[:d_in], A_in, side, d0, d1)
                    out.append((_pad_to(a_out, d), A_out))
    elif tag == "block_sum":
        base, dims = recipe[1], recipe[2]
        for r_idx, (dn, off) in enumerate(zip(dims, block_offsets(dims)), start=1):
            if off >= m:
                break
            s = min(int(dn), m - off)
            for a_in, A_in in template_pairs(base, int(dn), s):
                a_out, A_out = block_embed_pair(a_in[: int(dn)], A_in, dims, r_idx)
                out.append((_pad_to(a_out, d), A_out))
    return out


def k_template_pairs(recipe: tuple, d: int, m: int) -> list:
    """(coefficients, A) witnesses for k_m: ``template_pairs`` at every support
    m..d, A cut to its first m indices (|A| <= m is all a k_m witness needs)."""
    return [(a, tuple(A)[:m]) for s in range(min(m, d), d + 1)
            for a, A in template_pairs(recipe, d, s)]


def interleave_pair(coeffs, indices, side: int, d0: int, d1: int):
    """Transfer a one-component pair onto the interleaved system (exact)."""
    if side not in (0, 1):
        raise ConditionalityError(f"side must be 0 or 1, got {side!r}")
    pos = interleave_positions(d0, d1)[side]
    a = np.asarray(coeffs, dtype=np.float64)
    if a.size != (d0, d1)[side]:
        raise ConditionalityError(f"expected {(d0, d1)[side]} coefficients for side {side}")
    out = np.zeros(d0 + d1)
    for j, c in enumerate(a):
        out[pos[j] - 1] = c
    return out, tuple(pos[i] for i in check_indices(indices, a.size, ConditionalityError))


def block_embed_pair(coeffs, indices, dims, r: int):
    """Place a pair inside block r of a block sum (1-based; exact transfer)."""
    dims = tuple(int(x) for x in dims)
    if not (1 <= r <= len(dims)):
        raise ConditionalityError(f"block index {r} outside 1..{len(dims)}")
    a = np.asarray(coeffs, dtype=np.float64)
    if a.size != dims[r - 1]:
        raise ConditionalityError(f"expected {dims[r - 1]} coefficients for block {r}")
    off = block_offsets(dims)[r - 1]
    out = np.zeros(sum(dims))
    out[off : off + a.size] = a
    return out, tuple(off + 1 + int(i) for i in check_indices(indices, a.size, ConditionalityError))


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
    """Least-squares fit of the lower bounds against delta(m) with a verdict."""
    rows = []
    for item in series:
        m, lb = int(item[0]), float(item[1])
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

    A witness valid at support m stays valid at every larger support, so each
    rung reports the running maximum; ladder values are therefore
    non-decreasing by construction, matching the sup over a growing class.
    """
    ms = [int(m) for m in ms]
    if any(b2 <= a2 for a2, b2 in zip(ms, ms[1:])):
        raise ConditionalityError("ladder m values must be strictly increasing")
    if kind not in ("L", "k"):
        raise ConditionalityError(f"ladder kind must be 'L' or 'k', got {kind!r}")
    if mode not in ("auto", "oracle", "estimate"):
        raise ConditionalityError(f"unknown ladder mode {mode!r}")
    if kind == "k" and mode == "oracle":
        raise ConditionalityError("k ladders have no oracle route; use mode 'auto' or 'estimate'")
    check_budget(budget, ConditionalityError)
    for m in ms:
        if not (1 <= m <= b.d):
            raise ConditionalityError(f"m must lie in 1..{b.d}, got {m}")
        if mode == "oracle" and m > guard:
            raise ConditionalityError(f"oracle refused: m={m} exceeds guard {guard}")
    out, carry = [], None  # the (value, witness) of the last strict gain
    for m in ms:
        if kind == "k":
            val, wit = k_m_estimate(b, m, budget=budget, seed=seed)
        elif mode == "oracle" or (mode == "auto" and m <= guard):
            val, wit = L_m_oracle(b, m, guard=guard)
        else:
            val, wit = L_m_estimate(b, m, budget=budget, seed=seed, guard=guard)
        if carry is None or val > carry[0]:
            carry = (val, wit)
        elif carry[0] > val:
            val, wit = carry
        out.append((m, val, wit))
    return out
