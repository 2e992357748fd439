"""Sequence-space norms on finite coefficient vectors.

Five families of ambient norms are supported:

* ``Lp(p)``            -- (sum |v_i|^p)^(1/p), with ``p = math.inf`` meaning sup.
* ``C0Trunc(dim)``     -- sup norm on a fixed-length truncation of c_0.
* ``MixedSum(q, ...)`` -- blocks measured in their own norms, then combined
                          with an outer l_q norm; ``outer_q = 0`` means the
                          sup over blocks (c_0-style combination).
* ``Lorentz(q, w)``    -- (sum a_n^q w_n)^(1/q) over the non-increasing
                          rearrangement ``a`` of |v|; weights either explicit
                          or the preset w_n = n^(q/p - 1).
* ``BV()``             -- |v_1| + sum_{j>=2} |v_j - v_{j-1}|.

The infinite exponent is kept symbolic (``math.inf`` compared by identity,
never exponentiated).  All evaluators accept a single vector through
:func:`norm` or a 2-d batch of row vectors through :func:`norms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Union

import numpy as np

from ._search import check_int

INF = math.inf

__all__ = [
    "INF",
    "Lp",
    "C0Trunc",
    "MixedSum",
    "Lorentz",
    "LorentzPQ",
    "ExplicitWeights",
    "BV",
    "SpaceDesc",
    "SpaceError",
    "is_norm",
    "norm",
    "norms",
    "space_dim",
    "nonincreasing_rearrangement",
    "format_space",
    "parse_space",
]


class SpaceError(ValueError):
    """Malformed space descriptor or vector/space mismatch."""


@dataclass(frozen=True)
class Lp:
    """l_p norm; ``p`` in [1, inf]."""

    p: float

    def __post_init__(self):
        if self.p != INF and not (isinstance(self.p, (int, float)) and self.p >= 1.0):
            raise SpaceError(f"Lp exponent must be >= 1 or inf, got {self.p!r}")
        object.__setattr__(self, "p", float(self.p))


@dataclass(frozen=True)
class C0Trunc:
    """Truncation of c_0 to the first ``dim`` coordinates (sup norm)."""

    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", check_int(self.dim, 1, INF, SpaceError, "C0Trunc dimension"))


def outer_q_ok(q) -> bool:
    """Whether ``q`` is a valid outer exponent of a MixedSum: 0 or in [1, inf)."""
    q = float(q)
    return q == 0.0 or 1.0 <= q < INF


@dataclass(frozen=True)
class MixedSum:
    """Outer l_q combination of block norms; ``outer_q = 0`` is the sup."""

    outer_q: float
    blocks: tuple  # tuple of (SpaceDesc, dim) pairs

    def __post_init__(self):
        if not outer_q_ok(self.outer_q):
            raise SpaceError(f"outer_q must be 0 or in [1, inf), got {self.outer_q!r}")
        blocks = tuple((s, check_int(d, 1, INF, SpaceError, "block dimension"))
                       for s, d in self.blocks)
        if not blocks:
            raise SpaceError("MixedSum needs at least one block")
        for s, d in blocks:
            inner = space_dim(s)
            if inner is not None and inner != d:
                raise SpaceError(f"block space {format_space(s)} wants dim {inner}, got {d}")
        object.__setattr__(self, "outer_q", float(self.outer_q))
        object.__setattr__(self, "blocks", blocks)

    @cached_property
    def _evaluator(self):
        # kept in the instance dict, so no call re-hashes the descriptor
        return _compile_mixed(self)

    def __getstate__(self):  # the evaluator's closures are rebuilt on use
        return {"outer_q": self.outer_q, "blocks": self.blocks}


@dataclass(frozen=True)
class LorentzPQ:
    """Weight preset w_n = n^(q/p - 1); non-increasing exactly when q <= p."""

    p: float
    q: float

    def __post_init__(self):
        if not (1.0 <= float(self.p) < INF):
            raise SpaceError(f"Lorentz preset needs p in [1, inf), got {self.p!r}")
        if not (1.0 <= float(self.q) < INF):
            raise SpaceError(f"Lorentz preset needs q in [1, inf), got {self.q!r}")
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "q", float(self.q))

    def values(self, n: int) -> np.ndarray:
        idx = np.arange(1, n + 1, dtype=np.float64)
        return idx ** (self.q / self.p - 1.0)


@dataclass(frozen=True)
class ExplicitWeights:
    """Explicit positive weight list; must cover the vector length at use."""

    values_tuple: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values_tuple)
        if not vals or any(not (v > 0.0) or math.isinf(v) for v in vals):
            raise SpaceError("weights must be a non-empty list of positive finite numbers")
        object.__setattr__(self, "values_tuple", vals)

    def values(self, n: int) -> np.ndarray:
        if n > len(self.values_tuple):
            raise SpaceError(f"vector length {n} exceeds weight list length {len(self.values_tuple)}")
        return np.asarray(self.values_tuple[:n], dtype=np.float64)


WeightSpec = Union[LorentzPQ, ExplicitWeights]


@dataclass(frozen=True)
class Lorentz:
    """Lorentz norm d_q(w): l_q moment of the decreasing rearrangement."""

    q: float
    weights: WeightSpec

    def __post_init__(self):
        if not (1.0 <= float(self.q) < INF):
            raise SpaceError(f"Lorentz q must be in [1, inf), got {self.q!r}")
        if not isinstance(self.weights, (LorentzPQ, ExplicitWeights)):
            raise SpaceError("weights must be LorentzPQ or ExplicitWeights")
        object.__setattr__(self, "q", float(self.q))


@dataclass(frozen=True)
class BV:
    """Bounded-variation norm |v_1| + sum |v_j - v_{j-1}|."""


SpaceDesc = Union[Lp, C0Trunc, MixedSum, Lorentz, BV]


def space_dim(space: SpaceDesc):
    """Required vector length, or None when the space accepts any length."""
    if isinstance(space, C0Trunc):
        return space.dim
    if isinstance(space, MixedSum):
        return sum(d for _, d in space.blocks)
    return None


def is_norm(space: SpaceDesc) -> bool:
    """Whether ``space`` satisfies the triangle inequality: every family does
    but a Lorentz space whose weights increase somewhere (``LorentzPQ`` with
    q > p, or ``ExplicitWeights`` that are not non-increasing), which is only
    a quasi-norm; a mixed sum is a norm when each of its blocks is."""
    if isinstance(space, MixedSum):
        return all(is_norm(s) for s, _ in space.blocks)
    if isinstance(space, Lorentz):
        w = space.weights
        if isinstance(w, LorentzPQ):
            return w.q <= w.p
        return all(x >= y for x, y in zip(w.values_tuple, w.values_tuple[1:]))
    return True


def nonincreasing_rearrangement(v) -> np.ndarray:
    """Absolute values sorted in non-increasing order."""
    a = np.abs(np.asarray(v, dtype=np.float64))
    if a.ndim != 1:
        raise SpaceError("expected a 1-d vector")
    return np.sort(a)[::-1]


def _powsum_norm(X: np.ndarray, p: float) -> np.ndarray:
    # scale by the row max so v**p stays in range for large p
    if p == 1.0:
        return X.sum(axis=1)
    if p == 2.0:
        return np.sqrt((X * X).sum(axis=1))
    m = X.max(axis=1) if X.shape[1] else np.zeros(X.shape[0])
    out = np.zeros_like(m)
    pos = m > 0.0
    if pos.any():
        scaled = X[pos] / m[pos, None]
        out[pos] = m[pos] * ((scaled**p).sum(axis=1)) ** (1.0 / p)
    return out


def norms(space: SpaceDesc, V, *, overwrite: bool = False) -> np.ndarray:
    """Row-wise norms of a 2-d array under ``space``.

    ``V`` is checked once here (shape, length, NaN); rows holding +-inf
    have norm inf.  A :class:`MixedSum` runs the evaluator cached on its
    descriptor.  With ``overwrite=True`` the caller hands over ``V``: its
    entries may be replaced by their absolute values instead of copied,
    which saves one array of V's size per call.  Pass it only for an array
    nothing else reads afterwards.
    """
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2:
        raise SpaceError("expected a 2-d batch of row vectors")
    req = space._evaluator[0] if isinstance(space, MixedSum) else space_dim(space)
    if req is not None and V.shape[1] != req:
        raise SpaceError(f"space {format_space(space)} wants length {req}, got {V.shape[1]}")
    inf_rows = None
    if not np.isfinite(V).all():
        if np.isnan(V).any():
            raise SpaceError("vector contains NaN")
        inf_rows = np.isinf(V).any(axis=1)
        V, overwrite = np.where(inf_rows[:, None], 0.0, V), True
    if isinstance(space, MixedSum):
        out = space._evaluator[1](V, overwrite)
    elif isinstance(space, BV):
        out = _bv_norms(V)
    else:
        out = _abs_norms(space, np.abs(V, out=V) if overwrite else np.abs(V))
    if inf_rows is not None:
        out[inf_rows] = INF
    return out


def _bv_norms(V: np.ndarray) -> np.ndarray:
    return np.abs(V[:, :1]).sum(axis=1) + np.abs(np.diff(V, axis=1)).sum(axis=1)


def _abs_norms(space: SpaceDesc, A: np.ndarray) -> np.ndarray:
    """Row norms of ``A = |V|`` under an Lp, C0Trunc or Lorentz space."""
    k = A.shape[1]
    if isinstance(space, Lp):
        if space.p == INF:
            return A.max(axis=1) if k else np.zeros(A.shape[0])
        return _powsum_norm(A, space.p)
    if isinstance(space, C0Trunc):
        return A.max(axis=1)
    if isinstance(space, Lorentz):
        w = space.weights.values(k)
        A = np.sort(A, axis=1)[:, ::-1]
        if space.q == 1.0:
            return A @ w
        m = A[:, 0] if k else np.zeros(A.shape[0])
        out = np.zeros_like(m)
        pos = m > 0.0
        if pos.any():
            scaled = A[pos] / m[pos, None]
            out[pos] = m[pos] * ((scaled**space.q) * w).sum(axis=1) ** (1.0 / space.q)
        return out
    raise SpaceError(f"unknown space descriptor {space!r}")


def _compile_mixed(space: MixedSum):
    """(width, run): ``run(V, overwrite)`` gives the row norms of ``space``.

    BV leaves read the signed V, then |V| is taken once for the other leaves.
    A row sum of three or more block norms depends on the order, so only
    q = 1 over two blocks is written a0 + a1; the rest reduce stacked rows.
    """
    bv_cols = []

    def build(sub, cols: slice):
        if isinstance(sub, BV):
            bv_cols.append(cols)
            return lambda A, pre, i=len(bv_cols) - 1: pre[i]
        if not isinstance(sub, MixedSum):
            p = sub.p if isinstance(sub, Lp) else INF if isinstance(sub, C0Trunc) else None
            if red := {1.0: np.add.reduce, INF: np.maximum.reduce}.get(p):
                return lambda A, pre: red(A[:, cols], axis=1)
            return lambda A, pre: _abs_norms(sub, A[:, cols])
        parts, off, q = [], cols.start, sub.outer_q
        for block, d in sub.blocks:
            parts.append(build(block, slice(off, off + d)))
            off += d
        if q == 0.0:
            return lambda A, pre: reduce(np.maximum, [f(A, pre) for f in parts])
        if q == 1.0 and len(parts) == 2:
            f0, f1 = parts
            return lambda A, pre: f0(A, pre) + f1(A, pre)

        def stacked(A, pre):
            block_norms = np.empty((A.shape[0], len(parts)))
            for j, f in enumerate(parts):
                block_norms[:, j] = f(A, pre)
            return _powsum_norm(block_norms, q)

        return stacked

    width = space_dim(space)
    root = build(space, slice(0, width))

    def run(V: np.ndarray, overwrite: bool) -> np.ndarray:
        pre = [_bv_norms(V[:, cols]) for cols in bv_cols]
        return root(np.abs(V, out=V) if overwrite else np.abs(V), pre)

    return width, run


def norm(space: SpaceDesc, v) -> float:
    """Norm of a single vector under ``space``."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise SpaceError("expected a 1-d vector")
    return float(norms(space, v[None, :])[0])


# ---------------------------------------------------------------------------
# canonical textual form
# ---------------------------------------------------------------------------


def _fmt_num(x: float) -> str:
    if x == INF:
        return "inf"
    if float(x) == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def format_space(space: SpaceDesc) -> str:
    """Canonical text form, the inverse of :func:`parse_space`."""
    if isinstance(space, Lp):
        return f"lp:{_fmt_num(space.p)}"
    if isinstance(space, C0Trunc):
        return f"c0:{space.dim}"
    if isinstance(space, MixedSum):
        inner = ",".join(f"{format_space(s)}^{d}" for s, d in space.blocks)
        return f"mixed:q={_fmt_num(space.outer_q)}[{inner}]"
    if isinstance(space, Lorentz):
        if isinstance(space.weights, LorentzPQ):
            return f"lorentz:p={_fmt_num(space.weights.p)},q={_fmt_num(space.weights.q)}"
        ws = ",".join(_fmt_num(w) for w in space.weights.values_tuple)
        return f"lorentz:q={_fmt_num(space.q)},w=[{ws}]"
    if isinstance(space, BV):
        return "bv"
    raise SpaceError(f"unknown space descriptor {space!r}")


def _split_top(s: str, error: type) -> list:
    """Split on commas outside any brackets; raise ``error`` on unbalanced
    brackets.  Parts are returned as written, empty ones included."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise error(f"unbalanced brackets in {s!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise error(f"unbalanced brackets in {s!r}")
    parts.append("".join(cur))
    return parts


def _parse_num(s: str) -> float:
    s = s.strip()
    if s == "inf":
        return INF
    try:
        return float(s)
    except ValueError:
        raise SpaceError(f"bad number {s!r}") from None


def parse_space(text: str) -> SpaceDesc:
    """Parse the canonical textual form, e.g. ``lp:1`` or ``mixed:q=2[lp:1^4,lp:1^8]``."""
    s = text.strip()
    if s == "bv":
        return BV()
    if s.startswith("lp:"):
        return Lp(_parse_num(s[3:]))
    if s.startswith("c0:"):
        try:
            return C0Trunc(int(s[3:]))
        except ValueError:
            raise SpaceError(f"bad c0 dimension in {text!r}") from None
    if s.startswith("lorentz:"):
        body = s[len("lorentz:") :]
        kv = {}
        for part in _split_top(body, SpaceError):
            if "=" not in part:
                raise SpaceError(f"bad lorentz parameter {part!r}")
            key, val = part.split("=", 1)
            kv[key.strip()] = val.strip()
        if "w" in kv:
            wtxt = kv["w"]
            if not (wtxt.startswith("[") and wtxt.endswith("]")):
                raise SpaceError("explicit weights must be bracketed, w=[...]")
            weights = ExplicitWeights(tuple(_parse_num(t) for t in wtxt[1:-1].split(",")))
            if "q" not in kv:
                raise SpaceError("lorentz with explicit weights needs q=")
            return Lorentz(_parse_num(kv["q"]), weights)
        if "p" in kv and "q" in kv:
            p, q = _parse_num(kv["p"]), _parse_num(kv["q"])
            return Lorentz(q, LorentzPQ(p, q))
        raise SpaceError(f"lorentz needs p=,q= or q=,w=[...]: {text!r}")
    if s.startswith("mixed:"):
        body = s[len("mixed:") :]
        if not body.startswith("q="):
            raise SpaceError(f"mixed needs q=..., got {text!r}")
        lb = body.find("[")
        if lb < 0 or not body.endswith("]"):
            raise SpaceError(f"mixed needs a [block,...] list: {text!r}")
        q = _parse_num(body[2:lb])
        blocks = []
        for part in _split_top(body[lb + 1 : -1], SpaceError):
            if "^" not in part:
                raise SpaceError(f"mixed block {part!r} needs space^dim")
            sub, dim = part.rsplit("^", 1)
            blocks.append((parse_space(sub), int(dim)))
        return MixedSum(q, tuple(blocks))
    raise SpaceError(f"cannot parse space {text!r}")
