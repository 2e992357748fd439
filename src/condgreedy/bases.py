"""Finite basis truncations realised as synthesis matrices.

A :class:`BasisTruncation` holds the first ``d`` vectors of a sequence-space
basis as columns of an ``ambient_dim x d`` matrix together with the ambient
norm.  Everything downstream (projections, constants, experiments) works on
this representation.  Index conventions are 1-based at the API surface to
match the usual position numbering of basis elements; columns are stored
0-based internally.

Constructors: unit vectors, the Lindenstrauss system
``l_j = e_j - (e_{2j} + e_{2j+1})/2``, the summing system
``s_j = e_1 + ... + e_j``, and the difference system ``d_j = e_j - e_{j-1}``.
Combinators: alternating interleave into a max-norm product, block direct
sums ``(+ X^{d_n})_p``, and split block sums that push each block through a
pair of maps ``(P_n, Q_n)`` into separate p- and q-summed stacks.  The
coordinate lift/retract pair for Lorentz-style embeddings lives here too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spaces import (
    INF,
    BV,
    C0Trunc,
    Lorentz,
    Lp,
    MixedSum,
    SpaceDesc,
    _split_top,
    format_space,
    norms,
    outer_q_ok,
    parse_space,
    space_dim,
)

__all__ = [
    "BasisError",
    "BasisTruncation",
    "BlockMapPair",
    "unit_vector_system",
    "lindenstrauss",
    "summing",
    "difference",
    "interleave",
    "interleave_positions",
    "block_sum",
    "block_offsets",
    "block_index_split",
    "pq_block_sum",
    "half_split_maps",
    "external_basis",
    "basis_to_doc",
    "basis_from_doc",
    "lorentz_lift",
    "lorentz_retract",
    "parse_basis",
    "parse_dims",
]

RANK_TOL = 1e-10
KEPT_CHUNK = 8192  # sets per ``synth_norms`` call of ``BasisTruncation.kept_norms``


class BasisError(ValueError):
    """Degenerate column set or malformed construction parameters."""


@dataclass(frozen=True)
class BasisTruncation:
    """First ``d`` basis vectors as columns over an ambient normed space.

    ``seminorm_c`` records the semi-normalisation constant: every column has
    ambient norm in [1/c, c].
    """

    d: int
    ambient_dim: int
    columns: np.ndarray  # (ambient_dim, d), read-only
    space: SpaceDesc
    label: str
    recipe: tuple
    seminorm_c: float

    def synth(self, coeffs) -> np.ndarray:
        """Vector sum(coeffs[j] * x_j) in ambient coordinates."""
        a = np.asarray(coeffs, dtype=np.float64)
        if a.shape != (self.d,):
            raise BasisError(f"expected {self.d} coefficients, got shape {a.shape}")
        return self.columns @ a

    def synth_rows(self, coeff_rows) -> np.ndarray:
        """Batch version of :meth:`synth` for an (N, d) array."""
        A = np.asarray(coeff_rows, dtype=np.float64)
        if A.ndim != 2 or A.shape[1] != self.d:
            raise BasisError(f"expected (N, {self.d}) coefficient rows")
        return A @ self.columns.T

    def synth_norms(self, coeff_rows) -> np.ndarray:
        return norms(self.space, self.synth_rows(coeff_rows), overwrite=True)

    def column_norms(self) -> np.ndarray:
        return norms(self.space, self.columns.T)

    def kept_norms(self, rows: np.ndarray, sets: np.ndarray) -> np.ndarray:
        """(n, K) norms of the coefficient rows (n, d) restricted to the 0/1
        sets: one family (K, d) for every row, or one per row (n, K, d).  The
        sets go KEPT_CHUNK per ``synth_norms`` call, which bounds the
        temporaries of 2^m-set sweeps."""
        (n, d), k = rows.shape, sets.shape[-2]
        if k > KEPT_CHUNK:
            return np.concatenate([self.kept_norms(rows, sets[..., s : s + KEPT_CHUNK, :])
                                   for s in range(0, k, KEPT_CHUNK)], axis=1)
        return self.synth_norms((rows[:, None, :] * sets).reshape(-1, d)).reshape(n, k)

    def prefix(self, m: int) -> BasisTruncation:
        """The first m columns on the smallest ambient prefix that carries them.

        Only prefix-stable norms are cut: Lp and Lorentz as they are, C0Trunc
        to ``C0Trunc(k)``.  BV and mixed ambients keep every coordinate (zero
        padding is not norm-neutral for BV, and cutting a mixed sum mid-block
        changes its structure), so a row supported on 1..m has the norm it
        has on the whole basis.  The columns are stored column-major:
        ``synth_rows`` then multiplies by a C-contiguous transpose.
        """
        if not (1 <= m <= self.d):
            raise BasisError(f"prefix length {m} outside 1..{self.d}")
        sub, space = self.columns[:, :m], self.space
        nz = np.flatnonzero(np.abs(sub).max(axis=1) > 0.0)
        k = int(nz.max()) + 1 if nz.size else 1
        if isinstance(space, (Lp, Lorentz, C0Trunc)):
            sub, space = sub[:k], C0Trunc(k) if isinstance(space, C0Trunc) else space
        cols = np.asfortranarray(sub)
        cols.flags.writeable = False
        return BasisTruncation(m, cols.shape[0], cols, space, f"{self.label}[1..{m}]",
                               ("prefix", self.recipe, m), self.seminorm_c)

    @cached_property
    def l1_pairs(self):
        """Nonzeros of ``columns`` paired within their ambient row, or None.

        Defined when the ambient norm is a plain l1 sum and every ambient row
        touches at most two columns.  Returns (col, coef, partner, pcoef),
        one entry per nonzero C[i, j] in row-major order: j, C[i, j], the
        other column p of row i and C[i, p]; a row's only nonzero is its own
        partner with pcoef 0.
        """
        if not _is_l1_sum(self.space):
            return None
        rows, col = np.nonzero(self.columns)
        counts = np.bincount(rows, minlength=self.ambient_dim)
        if counts.max() > 2:
            return None
        pair = counts[rows] == 2
        partner = np.arange(rows.size)
        starts = np.r_[True, rows[1:] != rows[:-1]]
        partner[pair & starts] += 1
        partner[pair & ~starts] -= 1
        coef = self.columns[rows, col]
        return col, coef, col[partner], np.where(pair, coef[partner], 0.0)


def _is_l1_sum(space: SpaceDesc) -> bool:
    """Whether ``space`` is the sum of |v_i| over all coordinates."""
    if isinstance(space, Lp):
        return space.p == 1.0
    if isinstance(space, MixedSum):
        return space.outer_q == 1.0 and all(_is_l1_sum(s) for s, _ in space.blocks)
    return False


def _make(columns: np.ndarray, space: SpaceDesc, label: str, recipe: tuple) -> BasisTruncation:
    cols = np.ascontiguousarray(columns, dtype=np.float64)
    amb, d = cols.shape
    if d < 1:
        raise BasisError("need at least one basis vector")
    req = space_dim(space)
    if req is not None and req != amb:
        raise BasisError(f"ambient space {format_space(space)} wants dim {req}, got {amb}")
    if np.linalg.matrix_rank(cols, tol=RANK_TOL) < d:
        raise BasisError(f"columns of {label!r} are linearly dependent (tol {RANK_TOL})")
    col_norms = norms(space, cols.T)
    low, high = float(col_norms.min()), float(col_norms.max())
    if low <= RANK_TOL:
        raise BasisError(f"{label!r} has a column of (near-)zero norm")
    c = max(high, 1.0 / low)
    cols.flags.writeable = False
    return BasisTruncation(d, amb, cols, space, label, recipe, c)


# ---------------------------------------------------------------------------
# atomic systems
# ---------------------------------------------------------------------------


def unit_vector_system(d: int, space: SpaceDesc) -> BasisTruncation:
    """Unit vectors e_1..e_d measured in ``space``."""
    if d < 1:
        raise BasisError("d must be >= 1")
    req = space_dim(space)
    if req is not None and req != d:
        raise BasisError(f"space {format_space(space)} wants dim {req}, not {d}")
    label = f"unit:{d}@{format_space(space)}"
    return _make(np.eye(d), space, label, ("unit", d, format_space(space)))


def lindenstrauss(d: int) -> BasisTruncation:
    """l_j = e_j - (e_{2j} + e_{2j+1})/2 in l_1, ambient dimension 2d+1."""
    if d < 1:
        raise BasisError("d must be >= 1")
    amb = 2 * d + 1
    cols = np.zeros((amb, d))
    for j in range(1, d + 1):
        cols[j - 1, j - 1] = 1.0
        cols[2 * j - 1, j - 1] = -0.5
        cols[2 * j, j - 1] = -0.5
    return _make(cols, Lp(1.0), f"lindenstrauss:{d}", ("lindenstrauss", d))


def summing(d: int) -> BasisTruncation:
    """s_j = e_1 + ... + e_j in the d-dimensional truncation of c_0."""
    if d < 1:
        raise BasisError("d must be >= 1")
    cols = np.triu(np.ones((d, d)))
    return _make(cols, C0Trunc(d), f"summing:{d}", ("summing", d))


def difference(d: int) -> BasisTruncation:
    """d_j = e_j - e_{j-1} (with e_0 = 0) in l_1."""
    if d < 1:
        raise BasisError("d must be >= 1")
    cols = np.eye(d)
    for j in range(2, d + 1):
        cols[j - 2, j - 1] = -1.0
    return _make(cols, Lp(1.0), f"difference:{d}", ("difference", d))


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


def interleave_positions(d0: int, d1: int) -> tuple:
    """1-based output positions of each part: x1, y1, x2, y2, ... then the tail."""
    pos0, pos1 = [], []
    i = j = 0
    k = 1
    while i < d0 or j < d1:
        if i < d0:
            pos0.append(k)
            k += 1
            i += 1
        if j < d1:
            pos1.append(k)
            k += 1
            j += 1
    return tuple(pos0), tuple(pos1)


def interleave(b0: BasisTruncation, b1: BasisTruncation) -> BasisTruncation:
    """Alternate the two systems inside the max-norm product of their ambients."""
    amb = b0.ambient_dim + b1.ambient_dim
    d = b0.d + b1.d
    cols = np.zeros((amb, d))
    pos0, pos1 = interleave_positions(b0.d, b1.d)
    for j, k in enumerate(pos0):
        cols[: b0.ambient_dim, k - 1] = b0.columns[:, j]
    for j, k in enumerate(pos1):
        cols[b0.ambient_dim :, k - 1] = b1.columns[:, j]
    space = MixedSum(0.0, ((b0.space, b0.ambient_dim), (b1.space, b1.ambient_dim)))
    label = f"interleave({b0.label},{b1.label})"
    return _make(cols, space, label, ("interleave", b0.recipe, b1.recipe))


def block_offsets(dims) -> tuple:
    """Coefficient-index offsets: block r starts at offset[r-1] (0-based)."""
    dims = tuple(int(x) for x in dims)
    off, acc = [], 0
    for dn in dims:
        off.append(acc)
        acc += dn
    return tuple(off)


def block_index_split(dims, k: int) -> tuple:
    """Invert k = j + d_1 + ... + d_{r-1}; returns 1-based (r, j)."""
    dims = tuple(int(x) for x in dims)
    total = sum(dims)
    if not (1 <= k <= total):
        raise BasisError(f"index {k} outside 1..{total}")
    acc = 0
    for r, dn in enumerate(dims, start=1):
        if k <= acc + dn:
            return r, k - acc
        acc += dn
    raise AssertionError("unreachable")


def _check_dims(b: BasisTruncation, dims) -> tuple:
    dims = tuple(int(x) for x in dims)
    if not dims:
        raise BasisError("need at least one block dimension")
    for dn in dims:
        if not (1 <= dn <= b.d):
            raise BasisError(f"block dimension {dn} outside 1..{b.d}")
    return dims


def _exponent(key: str, value) -> float:
    """The outer exponent ``key`` of a block sum as a float: 0 or in [1, inf)."""
    try:
        outer = float(value)
    except (TypeError, ValueError):
        raise BasisError(f"{key} must be a number, got {value!r}") from None
    if not outer_q_ok(outer):
        raise BasisError(f"{key} must be 0 or in [1, inf), got {outer!r}")
    return outer


def block_sum(b: BasisTruncation, dims, p: float) -> BasisTruncation:
    """Direct sum of the d_n-truncations of ``b`` with an outer l_p (0 = sup)."""
    dims = _check_dims(b, dims)
    p = _exponent("p", p)
    subs = [b.prefix(dn) for dn in dims]
    cols = np.zeros((sum(s.ambient_dim for s in subs), sum(dims)))
    aoff = koff = 0
    for s in subs:
        cols[aoff : aoff + s.ambient_dim, koff : koff + s.d] = s.columns
        aoff += s.ambient_dim
        koff += s.d
    space = MixedSum(p, tuple((s.space, s.ambient_dim) for s in subs))
    dims_txt = ",".join(str(x) for x in dims)
    label = f"blocksum({b.label},dims=[{dims_txt}],p={p:g})"
    return _make(cols, space, label, ("block_sum", b.recipe, dims, p))


@dataclass(frozen=True)
class BlockMapPair:
    """Maps (P, Q) applied to one block, with the target block norms.

    ``P``/``Q`` act on the prefix-restricted ambient coordinates of the block
    (the representation produced by the block-sum constructor).  Either map
    may have zero rows; such targets occupy no coordinates downstream.
    """

    P: np.ndarray
    Q: np.ndarray
    target_y: SpaceDesc
    target_z: SpaceDesc


def pq_block_sum(b: BasisTruncation, blocks, p: float, q: float) -> BasisTruncation:
    """Split block sum: block r lands as (P_r x_j, Q_r x_j) in a max-norm pair
    of a p-summed Y-stack and a q-summed Z-stack; both exponents are checked
    even when a stack is empty and builds no space."""
    dims = _check_dims(b, [dn for dn, _ in blocks])
    pairs = [bm for _, bm in blocks]
    p, q = _exponent("p", p), _exponent("q", q)

    y_parts, z_parts = [], []
    for dn, bm in zip(dims, pairs):
        kdim = b.prefix(dn).ambient_dim
        sub = b.columns[:kdim, :dn]  # row-major: a one-row P can round otherwise on prefix's copy
        P = np.asarray(bm.P, dtype=np.float64).reshape(-1, kdim) if np.size(bm.P) else np.zeros((0, kdim))
        Q = np.asarray(bm.Q, dtype=np.float64).reshape(-1, kdim) if np.size(bm.Q) else np.zeros((0, kdim))
        stacked = np.vstack([P, Q]) @ sub
        if np.linalg.matrix_rank(stacked, tol=RANK_TOL) < dn:
            raise BasisError(f"(P,Q) not injective on a block of dimension {dn}")
        y_parts.append((P @ sub, bm.target_y))
        z_parts.append((Q @ sub, bm.target_z))

    def stack(parts, outer):
        sizes = [m.shape[0] for m, _ in parts]
        total = sum(sizes)
        if total == 0:
            return None, 0, []
        specs = tuple((sp, sz) for (m, sp), sz in zip(parts, sizes) if sz > 0)
        return MixedSum(outer, specs), total, sizes

    yspace, ytot, _ = stack(y_parts, p)
    zspace, ztot, _ = stack(z_parts, q)
    if ytot == 0 and ztot == 0:
        raise BasisError("both map stacks are empty")

    total_d = sum(dims)
    cols = np.zeros((ytot + ztot, total_d))
    koff, yoff, zoff = 0, 0, ytot
    for (ym, _), (zm, _), dn in zip(y_parts, z_parts, dims):
        cols[yoff : yoff + ym.shape[0], koff : koff + dn] = ym
        cols[zoff : zoff + zm.shape[0], koff : koff + dn] = zm
        yoff += ym.shape[0]
        zoff += zm.shape[0]
        koff += dn

    if ytot == 0:
        space = zspace
    elif ztot == 0:
        space = yspace
    else:
        space = MixedSum(0.0, ((yspace, ytot), (zspace, ztot)))
    dims_txt = ",".join(str(x) for x in dims)
    label = f"pqblocksum({b.label},dims=[{dims_txt}],p={p:g},q={q:g})"
    return _make(cols, space, label, ("pq_block_sum", b.recipe, dims, p, q))


def half_split_maps(b: BasisTruncation, dn: int) -> BlockMapPair:
    """Coordinate restrictions onto the first/second half of the block prefix."""
    pre = b.prefix(dn)
    kdim, sub_space = pre.ambient_dim, pre.space
    h = (kdim + 1) // 2
    P = np.eye(kdim)[:h]
    Q = np.eye(kdim)[h:]
    if isinstance(sub_space, C0Trunc):
        ty = C0Trunc(h) if h else sub_space
        tz = C0Trunc(kdim - h) if kdim - h else sub_space
    else:
        ty = tz = sub_space
    return BlockMapPair(P, Q, ty, tz)


# ---------------------------------------------------------------------------
# external bases and serialisation
# ---------------------------------------------------------------------------


def external_basis(columns, space: SpaceDesc, label: str) -> BasisTruncation:
    """Wrap externally supplied columns; the plug-in point for bases built
    elsewhere."""
    cols = np.asarray(columns, dtype=np.float64)
    if cols.ndim != 2:
        raise BasisError("columns must be a 2-d array (ambient_dim x d)")
    if not np.isfinite(cols).all():
        i, j = np.argwhere(~np.isfinite(cols))[0]
        raise BasisError(f"column {j} of {label!r} has the non-finite entry {cols[i, j]} at row {i}")
    return _make(cols, space, label, ("external", label))


def basis_to_doc(b: BasisTruncation) -> dict:
    return {
        "label": b.label,
        "d": b.d,
        "ambient_dim": b.ambient_dim,
        "space": format_space(b.space),
        "columns": [[float(x) for x in b.columns[:, j]] for j in range(b.d)],
    }


def basis_from_doc(doc) -> BasisTruncation:
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    cols = np.asarray(doc["columns"], dtype=np.float64).T
    return external_basis(cols, parse_space(doc["space"]), str(doc["label"]))


# ---------------------------------------------------------------------------
# basis spec mini-language
# ---------------------------------------------------------------------------


def parse_dims(txt: str) -> tuple:
    """Block dimension spec: ``2^1..2^6`` (dyadic ladder), ``a..b`` (integer
    range), or an explicit comma list."""
    txt = txt.strip()
    try:
        if ".." not in txt:
            return tuple(int(x) for x in txt.split(","))
        bounds = [t.strip() for t in txt.split("..", 1)]
        dyadic = [t.startswith("2^") for t in bounds]
        lo, hi = (int(t[2:] if e else t) for t, e in zip(bounds, dyadic))
    except ValueError:
        raise BasisError(f"non-integer dims spec {txt!r}") from None
    if dyadic[0] != dyadic[1]:
        raise BasisError(f"mixed dims spec {txt!r}")
    if hi < lo:
        raise BasisError(f"descending dims range {txt!r}")
    return tuple(2**n if dyadic[0] else n for n in range(lo, hi + 1))


def _kv_args(head: str, parts, keys) -> dict:
    out = {}
    for part in parts:
        if "=" not in part:
            raise BasisError(f"expected key=value, got {part!r}")
        key, val = (t.strip() for t in part.split("=", 1))
        if key not in keys:
            raise BasisError(f"{head} takes {', '.join(keys)}, not {key!r}")
        if key in out:
            raise BasisError(f"duplicate key {key!r} in {head}")
        out[key] = val
    return out


def parse_basis(spec: str) -> BasisTruncation:
    """Build a basis from the CLI mini-language.

    Atomic: ``lindenstrauss:32``, ``summing:10``, ``difference:10``,
    ``unit:16`` (default ambient lp:2) or ``unit:16@lp:1``.
    Composite: ``interleave(a,b)``, ``blocksum(base,dims=2^1..2^6,p=1)``,
    ``pqhalf(base,dims=2^1..2^5,p=1,q=1)``.  A bare base name inside
    ``blocksum``/``pqhalf`` gets its length from the largest block.
    """
    spec = spec.strip()
    for head, keys in (("interleave", ()), ("blocksum", ("dims", "p")),
                       ("pqhalf", ("dims", "p", "q"))):
        if spec.startswith(head + "(") and spec.endswith(")"):
            parts = [p.strip() for p in _split_top(spec[len(head) + 1 : -1], BasisError)]
            if not all(parts):
                raise BasisError(f"empty part in basis spec {spec!r}")
            if head == "interleave":
                if len(parts) != 2:
                    raise BasisError("interleave needs exactly two components")
                return interleave(parse_basis(parts[0]), parse_basis(parts[1]))
            if len(parts) < 2:
                raise BasisError(f"{head} needs a base and dims")
            kv = _kv_args(head, parts[1:], keys)
            if "dims" not in kv:
                raise BasisError(f"{head} needs dims=...")
            dims = parse_dims(kv["dims"])
            base_spec = parts[0]
            if ":" not in base_spec and "(" not in base_spec:
                base_spec = f"{base_spec}:{max(dims)}"
            base = parse_basis(base_spec)
            if head == "blocksum":
                return block_sum(base, dims, kv.get("p", 1))
            blocks = [(dn, half_split_maps(base, dn)) for dn in dims]
            return pq_block_sum(base, blocks, kv.get("p", 1), kv.get("q", 1))

    if "@" in spec:
        left, space_txt = spec.split("@", 1)
        space = parse_space(space_txt)
    else:
        left, space = spec, None
    if ":" not in left:
        raise BasisError(f"malformed basis spec {spec!r}")
    name, d_txt = left.split(":", 1)
    try:
        d = int(d_txt)
    except ValueError:
        raise BasisError(f"bad length in basis spec {spec!r}") from None
    name = name.strip()
    if name == "unit":
        return unit_vector_system(d, space if space is not None else Lp(2.0))
    if space is not None:
        raise BasisError(f"{name} does not take an ambient space override")
    if name == "lindenstrauss":
        return lindenstrauss(d)
    if name == "summing":
        return summing(d)
    if name == "difference":
        return difference(d)
    raise BasisError(f"unknown basis name {name!r}")


# ---------------------------------------------------------------------------
# coordinate lift / retract
# ---------------------------------------------------------------------------


def lorentz_lift(v) -> np.ndarray:
    """(a_1, a_2, ...) -> (a_1, 0, a_2, 0, ...)."""
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise BasisError("expected a 1-d vector")
    out = np.zeros(2 * a.size)
    out[0::2] = a
    return out


def lorentz_retract(v) -> np.ndarray:
    """(b_1, b_2, b_3, b_4, ...) -> (b_1 - b_2, b_3 - b_4, ...).

    Odd-length input is padded with a trailing zero before pairing.
    """
    b = np.asarray(v, dtype=np.float64)
    if b.ndim != 1:
        raise BasisError("expected a 1-d vector")
    if b.size % 2:
        b = np.append(b, 0.0)
    return b[0::2] - b[1::2]
