"""Benchmark workloads and the certified-value gate.

A workload builds its bases once per process (set-up) and then runs one
*pass*: a list of operations whose inputs come from the workload seed and
the pass index.  Every operation is checked afterwards, outside the timed
region, and yields one or more :class:`Outcome` records.

Gate: an operation fails if it raises, returns a non-finite value, its
witness does not re-verify through ``verify_witness`` to 1e-12 relative, or
the witness breaks the structural constraint of its constant:

* ``L_m``: the coefficient support and ``A`` lie in ``[1..m]``;
* ``k_m``: ``|A| <= m``;
* quasi- and almost-greedy: ``A`` is a greedy set for ``f``;
* almost-greedy: ``|B| <= |A|``.

For ``oracle-cli`` a scenario fails if its verdict is not PASS, a bundle file
is missing or does not match the manifest digest, a ladder rung lies below
its recipe's floor (``m-1`` for difference, ``m/4`` for summing) or below
the best template value, or, on a difference basis, differs from it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

REL_TOL = 1e-12
# estimator budget: two random blocks of 256 samples, so the block search
# (parallel_block_max) does more than one block per call
BUDGET = 512


class GateError(Exception):
    """A returned value or witness that does not certify what it claims."""


@dataclass
class Outcome:
    label: str
    ok: bool
    why: str = ""
    values: list = field(default_factory=list)
    material: bytes = b""  # fingerprint input


@dataclass
class Op:
    label: str
    run: object  # () -> result
    check: object  # result -> list[Outcome]


def sub_seed(seed: int, pass_index: int, i: int) -> int:
    """Estimator seed for operation ``i`` of pass ``pass_index``."""
    return int(np.random.SeedSequence([seed, pass_index, i]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# witness checks
# ---------------------------------------------------------------------------


def _finite(val) -> float:
    val = float(val)
    if not math.isfinite(val):
        raise GateError(f"non-finite value {val!r}")
    return val


def _reverify(cg, b, val: float, wit) -> None:
    if wit.ratio != val:
        raise GateError(f"witness ratio {wit.ratio!r} differs from value {val!r}")
    re = cg.verify_witness(b, wit)
    if abs(re - val) > REL_TOL * abs(val):
        raise GateError(f"witness re-verifies to {re!r}, value {val!r}")


def _index_set(indices, d: int) -> set:
    idx = [int(i) for i in indices]
    if len(set(idx)) != len(idx) or any(not 1 <= i <= d for i in idx):
        raise GateError(f"index set {tuple(idx)} not distinct inside [1..{d}]")
    return set(idx)


def _is_greedy(coeffs, A: set) -> bool:
    a = np.abs(np.asarray(coeffs, dtype=np.float64))
    inside = [a[i - 1] for i in A]
    outside = [a[j] for j in range(a.size) if j + 1 not in A]
    return min(inside, default=math.inf) >= max(outside, default=0.0)


def check_L(cg, b, m: int, val, wit) -> None:
    val = _finite(val)
    A = _index_set(wit.indices, b.d)
    if any(i > m for i in A):
        raise GateError(f"A={sorted(A)} leaves [1..{m}]")
    support = np.flatnonzero(np.asarray(wit.coeffs)) + 1
    if support.size and support.max() > m:
        raise GateError(f"coefficient support reaches {support.max()} > m={m}")
    _reverify(cg, b, val, wit)


def check_k(cg, b, m: int, val, wit) -> None:
    val = _finite(val)
    A = _index_set(wit.indices, b.d)
    if len(A) > m:
        raise GateError(f"|A|={len(A)} exceeds m={m}")
    _reverify(cg, b, val, wit)


def check_qg(cg, b, val, wit) -> None:
    val = _finite(val)
    A = _index_set(wit.indices, b.d)
    if wit.kind != "quasi-greedy" or not _is_greedy(wit.coeffs, A):
        raise GateError(f"A={sorted(A)} is not greedy for f")
    _reverify(cg, b, val, wit)


def check_ag(cg, b, val, wit) -> None:
    val = _finite(val)
    A = _index_set(wit.indices, b.d)
    if wit.kind != "almost-greedy" or wit.b_indices is None:
        raise GateError("almost-greedy witness without a comparison set B")
    B = _index_set(wit.b_indices, b.d)
    if not _is_greedy(wit.coeffs, A):
        raise GateError(f"A={sorted(A)} is not greedy for f")
    if len(B) > len(A):
        raise GateError(f"|B|={len(B)} exceeds |A|={len(A)}")
    _reverify(cg, b, val, wit)


def check_phi(cg, b, m: int, val) -> None:
    """phi_m is a sup over |A| <= m: at least the first-m sum norm, at most
    the sum of the m largest column norms."""
    val = _finite(val)
    low = cg.norm(b.space, b.columns[:, :m].sum(axis=1))
    high = float(np.sort(b.column_norms())[::-1][:m].sum())
    if not low * (1 - REL_TOL) <= val <= high * (1 + REL_TOL):
        raise GateError(f"phi_{m}={val!r} outside [{low!r}, {high!r}]")


def _witness_op(label, run, checker) -> Op:
    """Op returning (value, witness); material is the value and index sets."""

    def check(result):
        val, wit = result
        checker(val, wit)
        material = repr((float(val), tuple(wit.indices), wit.b_indices)).encode()
        return [Outcome(label, True, values=[float(val)], material=material)]

    return Op(label, run, check)


def _ladder_op(cg, label, b, kind, run) -> Op:
    """Op returning an L or k ladder; every rung is checked."""
    checker = check_L if kind == "L" else check_k

    def check(ladder):
        material = []
        for m, val, wit in ladder:
            checker(cg, b, m, val, wit)
            material.append((m, float(val), tuple(wit.indices)))
        return [Outcome(label, True, values=[float(v) for _, v, _ in ladder],
                        material=repr(material).encode())]

    return Op(label, run, check)


def _phi_op(cg, label, b, m) -> Op:
    def check(val):
        check_phi(cg, b, m, val)
        return [Outcome(label, True, values=[float(val)], material=repr(float(val)).encode())]

    return Op(label, lambda: cg.fundamental_function(b, m), check)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    reseeded = True  # every pass draws fresh estimator seeds

    def prepare(self, tmp: str, scale: str, seed: int) -> None:
        """Write any input files the worker reads (none by default)."""


class GreedyBlocksum(Workload):
    """Greedy hot path: prefix residuals through synth_rows and MixedSum."""

    SCALES = {
        "full": dict(blocks="2^1..2^5", grid_d=10, ag_d=12, phi=(18, 9)),
        "smoke": dict(blocks="2^1..2^3", grid_d=9, ag_d=9, phi=(8, 4)),
    }

    def build(self, cg, scale: str, tmp: str) -> dict:
        s = self.SCALES[scale]
        return {
            "s": s,
            "blocksum": cg.parse_basis(f"blocksum(lindenstrauss,dims={s['blocks']},p=1)"),
            "grid": cg.lindenstrauss(s["grid_d"]),
            "ag": cg.lindenstrauss(s["ag_d"]),
            "phi": cg.difference(s["phi"][0]),
        }

    def ops(self, cg, ctx, seed: int, p: int) -> list:
        s, bs, grid, ag, phi = ctx["s"], ctx["blocksum"], ctx["grid"], ctx["ag"], ctx["phi"]
        sd = [sub_seed(seed, p, i) for i in range(3)]
        ops = [_witness_op(
            f"qg-random[{bs.label}]",
            lambda: cg.quasi_greedy_constant_lb(bs, budget=BUDGET, seed=sd[0]),
            lambda v, w: check_qg(cg, bs, v, w))]
        ops.append(_witness_op(
            f"qg-sign-grid[{grid.label}]",
            lambda: cg.quasi_greedy_constant_lb(grid, seed=sd[1]),
            lambda v, w: check_qg(cg, grid, v, w)))
        ops.append(_witness_op(
            f"ag-exact-denominator[{ag.label}]",
            lambda: cg.almost_greedy_constant_lb(ag, budget=BUDGET, seed=sd[2]),
            lambda v, w: check_ag(cg, ag, v, w)))
        ops.append(_phi_op(cg, f"phi-exact[{phi.label}]", phi, s["phi"][1]))
        return ops


class LadderEstimate(Workload):
    """Seeded coordinate ascent: many tiny norms calls.

    The Lindenstrauss and interleave bases have templates that the random
    search does not beat; the p,q half-split sum has none, so its L and k
    values come from the block search alone and move with its strength.
    """

    SCALES = {
        "full": dict(rounds=2, lin=16, ladder=(4, 8, 16), k=4, inter=8, m=12,
                     pq_L=(4, 5, 6), pq_k=(2, 3, 4)),
        "smoke": dict(rounds=1, lin=8, ladder=(4, 8), k=2, inter=4, m=6,
                      pq_L=(4,), pq_k=(2,)),
    }
    PQ = "pqhalf(lindenstrauss,dims=2^1..2^2,p=1,q=1)"

    def build(self, cg, scale: str, tmp: str) -> dict:
        s = self.SCALES[scale]
        n = s["inter"]
        return {
            "s": s,
            "lin": cg.lindenstrauss(s["lin"]),
            "inter": cg.parse_basis(f"interleave(difference:{n},unit:{n}@lp:2)"),
            "pq": cg.parse_basis(self.PQ),
        }

    def ops(self, cg, ctx, seed: int, p: int) -> list:
        s, lin, inter, pq = ctx["s"], ctx["lin"], ctx["inter"], ctx["pq"]
        k, m = s["k"], s["m"]
        ops = []
        for r in range(s["rounds"]):
            sd = [sub_seed(seed, p, 5 * r + j) for j in range(5)]
            ops.append(_ladder_op(
                cg, f"L-ladder[{lin.label}]", lin, "L", lambda sd=sd: cg.lb_ladder(
                    lin, s["ladder"], mode="estimate", budget=BUDGET, seed=sd[0])))
            ops.append(_witness_op(
                f"k_{k}-estimate[{lin.label}]",
                lambda sd=sd: cg.k_m_estimate(lin, k, budget=BUDGET, seed=sd[1]),
                lambda v, w: check_k(cg, lin, k, v, w)))
            ops.append(_witness_op(
                f"L_{m}-estimate[{inter.label}]",
                lambda sd=sd: cg.L_m_estimate(inter, m, budget=BUDGET, seed=sd[2]),
                lambda v, w: check_L(cg, inter, m, v, w)))
            ops.append(_ladder_op(
                cg, f"L-ladder[{pq.label}]", pq, "L", lambda sd=sd: cg.lb_ladder(
                    pq, s["pq_L"], mode="estimate", budget=BUDGET, seed=sd[3])))
            ops.append(_ladder_op(
                cg, f"k-ladder[{pq.label}]", pq, "k", lambda sd=sd: cg.lb_ladder(
                    pq, s["pq_k"], kind="k", budget=BUDGET, seed=sd[4])))
        return ops


class OracleCli(Workload):
    """``condgreedy experiment`` on l1 and c0 bases: exhaustive 5^m grid.

    One CLI call per scenario, so the reference kernel can be timed between
    them.
    """

    reseeded = False  # the oracle takes no seed; every pass is identical
    SCALES = {
        "full": dict(bases=("difference:9", "summing:9"), ladder="2..9"),
        "smoke": dict(bases=("difference:5", "summing:5"), ladder="2..5"),
    }

    @staticmethod
    def _config(tmp: str, name: str) -> str:
        return os.path.join(tmp, f"{name}.ini")

    def prepare(self, tmp: str, scale: str, seed: int) -> None:
        """Write the scenario configs: the generated input of this workload."""
        s = self.SCALES[scale]
        for spec in s["bases"]:
            name = spec.replace(":", "")
            with open(self._config(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(f"[scenario:{name}]\nrecipe = {spec}\nladder = {s['ladder']}\n"
                         f"target = linear\nseed = {seed}\n")

    def build(self, cg, scale: str, tmp: str) -> dict:
        specs = self.SCALES[scale]["bases"]
        return {"specs": specs, "names": [spec.replace(":", "") for spec in specs], "tmp": tmp}

    def ops(self, cg, ctx, seed: int, p: int) -> list:
        ops = []
        for spec, name in zip(ctx["specs"], ctx["names"]):
            out = os.path.join(ctx["tmp"], f"bundle-{name}-{p}-{os.getpid()}")
            argv = ["experiment", "--config", self._config(ctx["tmp"], name),
                    "--seed", str(seed), "--no-timestamp", "--out", out]
            ops.append(Op(f"experiment[{name}]", lambda argv=argv: cg.cli.main(argv),
                          lambda rc, out=out, name=name, spec=spec:
                          [_check_scenario(cg, out, name, spec)]))
        return ops


# lower bounds every oracle rung must reach, by recipe (the floors of the
# built-in difference-linear and summing-linear scenarios)
FLOORS = {"difference": lambda m: m - 1, "summing": lambda m: m / 4}
ABS_TOL = 1e-9


def _check_ladder(cg, spec: str, rows) -> list:
    """Each rung reaches its recipe's floor and the best template value (the
    oracle sweeps the templates too); on difference bases it equals the
    template value, because the templates are exact there."""
    b = cg.parse_basis(spec)
    floor = FLOORS[b.recipe[0]]
    values = []
    for row in rows:
        m, lb = int(row["m"]), _finite(row["lb"])
        if lb < floor(m) - ABS_TOL:
            raise GateError(f"LB_{m}={lb!r} below the floor {floor(m)!r}")
        tv = max(cg.sa_ratio(b, a, A) for a, A in cg.template_pairs(b.recipe, b.d, m))
        if lb < tv - ABS_TOL or (b.recipe[0] == "difference" and lb > tv + ABS_TOL):
            raise GateError(f"LB_{m}={lb!r} against the template value {tv!r}")
        values.append(lb)
    return values


def _check_scenario(cg, out: str, name: str, spec: str) -> Outcome:
    label = f"scenario[{name}]"
    try:
        with open(os.path.join(out, "manifest.json"), "rb") as fh:
            manifest = json.load(fh)
        blobs = {}
        for suffix in ("checks.csv", "ladder.csv", "plot.svg", "report.json"):
            fname = f"{name}-{suffix}"
            entry = manifest["files"].get(fname)
            if entry is None:
                raise GateError(f"{fname} missing from the manifest")
            with open(os.path.join(out, fname), "rb") as fh:
                blobs[suffix] = fh.read()
            if hashlib.sha256(blobs[suffix]).hexdigest() != entry["sha256"]:
                raise GateError(f"{fname} does not match its manifest digest")
        report = json.loads(blobs["report.json"])
        if report["verdict"] != "PASS":
            failed = [c["check"] for c in report["checks"] if c["verdict"] != "PASS"]
            raise GateError(f"verdict {report['verdict']} ({', '.join(failed)})")
        values = _check_ladder(cg, spec, report["ladder"])
    except (OSError, KeyError, ValueError, GateError) as exc:
        return Outcome(label, False, f"{type(exc).__name__}: {exc}")
    return Outcome(label, True, values=values,
                   material=blobs["checks.csv"] + blobs["ladder.csv"])


WORKLOADS = {
    "oracle-cli": OracleCli(),
    "greedy-blocksum": GreedyBlocksum(),
    "ladder-estimate": LadderEstimate(),
}
