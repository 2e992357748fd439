"""Named, reproducible experiment pipelines.

Each scenario builds its bases, computes constant ladders and property
checks, and returns a :class:`ScenarioResult` whose verdict aggregates the
checks.  Failures become FAIL verdicts, never exceptions, so a batch run
always completes.  For a fixed seed the emitted CSV bytes are identical
between runs.

Custom one-off scenarios can be loaded from an INI-style config; they run a
generic ladder-plus-fit pipeline over any basis the mini-language can build.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from ._search import DEFAULT_SEED, check_seed, rng_stream
from .bases import (
    BasisTruncation,
    Lp,
    block_index_split,
    block_sum,
    difference,
    half_split_maps,
    interleave,
    lindenstrauss,
    lorentz_lift,
    lorentz_retract,
    parse_basis,
    pq_block_sum,
    summing,
    unit_vector_system,
)
from .conditionality import (
    GrowthReport,
    GrowthTarget,
    L_m_exact,
    L_m_oracle,
    LINEAR_TARGET,
    LOG_TARGET,
    block_embed_pair,
    growth_fit,
    interleave_pair,
    ladder_table,
    lb_ladder,
    sa_ratio,
    verify_witness,
)
from .greedy import _qg_search, fundamental_function, quasi_greedy_constant_lb
from .reportio import csv_bytes, json_bytes, svg_polyline
from .spaces import norm

__all__ = [
    "ScenarioResult",
    "constant_chain",
    "list_scenarios",
    "run_scenario",
    "load_scenarios_config",
    "run_config_scenario",
    "result_files",
]

_REL_TOL = 1e-12
_ABS_TOL = 1e-9


def constant_chain(c2: float, c3: float, big_d: float) -> float:
    """Combined distortion C4 = C2*C3*D^2/(D-1) of the block split argument."""
    if big_d <= 1:
        raise ValueError("dimension growth factor D must exceed 1")
    return c2 * c3 * big_d * big_d / (big_d - 1.0)


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome bundle: ordered checks, optional ladder rows and growth fit."""

    name: str
    verdict: str
    checks: tuple  # of (check, verdict, detail)
    ladder: tuple  # of (m, lb, method) or ()
    fit: GrowthReport | None
    meta: dict

    def to_doc(self) -> dict:
        doc = {
            "name": self.name,
            "verdict": self.verdict,
            "checks": [
                {"check": c, "verdict": v, "detail": d} for c, v, d in self.checks
            ],
            "meta": self.meta,
        }
        if self.ladder:
            doc["ladder"] = [
                {"m": m, "lb": lb, "method": method} for m, lb, method in self.ladder
            ]
        if self.fit is not None:
            doc["fit"] = self.fit.to_doc()
        return doc


class _Checks:
    def __init__(self):
        self.rows = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.rows.append((name, "PASS" if ok else "FAIL", detail))

    def verdict(self) -> str:
        return "PASS" if all(v == "PASS" for _, v, _ in self.rows) else "FAIL"


def _ladder_rows(ladder) -> tuple:
    return tuple((m, val, wit.kind) for m, val, wit in ladder)


def _check_witnesses(b: BasisTruncation, ladder, checks: _Checks):
    worst = 0.0
    for _, val, wit in ladder:
        re = verify_witness(b, wit)
        worst = max(worst, abs(re - wit.ratio) / max(1.0, abs(wit.ratio)))
    checks.add("witness-reverify", worst <= _REL_TOL, f"max rel dev {worst:.2e}")


def _finish(name, checks, ladder=(), fit=None, meta=None) -> ScenarioResult:
    return ScenarioResult(
        name, checks.verdict(), tuple(checks.rows), tuple(ladder), fit, meta or {}
    )


def _fit_finish(name, b: BasisTruncation, ladder, checks: _Checks, target: GrowthTarget,
                meta: dict, r2_min: float = 0.95) -> ScenarioResult:
    """Tail of every fitted ladder: re-verify the witnesses, fit, finish."""
    _check_witnesses(b, ladder, checks)
    rows = _ladder_rows(ladder)
    fit = growth_fit(rows, target, r2_min=r2_min)
    checks.add("growth-fit", fit.verdict == "PASS",
               fit.note or f"slope {fit.slope:.4g}, R^2 {fit.r_squared:.4f}")
    return _finish(name, checks, rows, fit, meta)


# ---------------------------------------------------------------------------
# individual scenarios
# ---------------------------------------------------------------------------


def _run_unit_control(budget, seed):
    b = unit_vector_system(16, Lp(2.0))
    ladder = lb_ladder(b, (2, 4, 8, 16), kind="L", mode="oracle")
    checks = _Checks()
    dev = max(abs(val - 1.0) for _, val, _ in ladder)
    checks.add("constant-one", dev <= _ABS_TOL, f"max |L_m - 1| = {dev:.2e}")
    _check_witnesses(b, ladder, checks)
    return _finish("unit-control", checks, _ladder_rows(ladder),
                   meta={"basis": b.label, "seed": seed})


def _run_difference_linear(budget, seed):
    b = difference(10)
    ladder = lb_ladder(b, tuple(range(2, 11)), kind="L", mode="oracle")
    checks = _Checks()
    floor_ok = all(val >= m - 1 - _ABS_TOL for m, val, _ in ladder)
    checks.add("lb-floor", floor_ok, "LB_m >= m-1 at every rung")
    dev = max(abs(val - m) for m, val, _ in ladder)  # the closed form, not the exact route
    checks.add("closed-form", dev <= _ABS_TOL, f"max |L_m - m| = {dev:.2e}")
    return _fit_finish("difference-linear", b, ladder, checks, LINEAR_TARGET,
                       {"basis": b.label, "seed": seed})


def _run_summing_linear(budget, seed):
    b = summing(10)
    ladder = lb_ladder(b, tuple(range(2, 11)), kind="L", mode="oracle")
    checks = _Checks()
    floor_ok = all(val >= m / 4 - _ABS_TOL for m, val, _ in ladder)
    checks.add("lb-floor", floor_ok, "LB_m >= m/4 at every rung")
    vals = [val for _, val, _ in ladder]
    checks.add("monotone", all(b2 >= a2 - _ABS_TOL for a2, b2 in zip(vals, vals[1:])),
               "LB_m non-decreasing")
    return _fit_finish("summing-linear", b, ladder, checks, LINEAR_TARGET,
                       {"basis": b.label, "seed": seed})


def _run_lindenstrauss_log(budget, seed):
    budget = budget if budget is not None else 4096
    b = lindenstrauss(64)
    ladder = lb_ladder(b, (4, 8, 16, 32, 64), kind="L", mode="auto",
                       budget=budget, seed=seed)
    checks = _Checks()
    by_m = {m: val for m, val, _ in ladder}
    ratio = by_m[64] / by_m[8]
    checks.add("sublinear-ratio", ratio <= 4.0 + _ABS_TOL, f"LB_64/LB_8 = {ratio:.3f}")
    band = [(m, val / math.log2(m)) for m, val, _ in ladder]
    band_ok = all(0.45 - _ABS_TOL <= r <= 1.25 + _ABS_TOL for _, r in band)
    checks.add("log-band", band_ok,
               "LB_m/log2(m) in "
               f"[{min(r for _, r in band):.3f}, {max(r for _, r in band):.3f}]")
    b12 = lindenstrauss(12)
    phi_ratios = [fundamental_function(b12, m, mode="exact") / m for m in range(1, 13)]
    phi_ok = all(0.5 - _ABS_TOL <= r <= 2.0 + _ABS_TOL for r in phi_ratios)
    checks.add("phi-linear", phi_ok,
               f"phi_m/m in [{min(phi_ratios):.3f}, {max(phi_ratios):.3f}] for m <= 12")
    density = 32  # random-search budget per truncation size
    qg16, _ = quasi_greedy_constant_lb(lindenstrauss(16), budget=16 * density, seed=seed)
    qg64, _ = quasi_greedy_constant_lb(b, budget=64 * density, seed=seed)
    checks.add("qg-stable", qg64 <= 1.5 * qg16 + _ABS_TOL,
               f"qg(64) {qg64:.4f} vs 1.5*qg(16) {1.5 * qg16:.4f}")
    return _fit_finish("lindenstrauss-log", b, ladder, checks, LOG_TARGET,
                       {"basis": b.label, "seed": seed, "budget": budget})


def _run_interleave_transfer(budget, seed):
    b0 = difference(8)
    b1 = unit_vector_system(8, Lp(2.0))
    bi = interleave(b0, b1)
    checks = _Checks()
    base_ladder = lb_ladder(b0, tuple(range(2, 9)), kind="L", mode="oracle")
    worst = 0.0
    for m, val, wit in base_ladder:
        a2, A2 = interleave_pair(np.asarray(wit.coeffs), wit.indices, 0, b0.d, b1.d)
        r2 = sa_ratio(bi, a2, A2)
        worst = max(worst, abs(r2 - wit.ratio) / max(1.0, wit.ratio))
    checks.add("transfer-exact", worst <= _REL_TOL, f"max rel dev {worst:.2e}")
    twice = lb_ladder(bi, tuple(2 * m for m, _, _ in base_ladder), kind="L",
                      mode="auto", budget=budget, seed=seed)
    dominated = all(
        v2 >= v1 - _ABS_TOL for (_, v1, _), (_, v2, _) in zip(base_ladder, twice)
    )
    checks.add("ladder-dominates", dominated, "LB_2m[interleave] >= LB_m[base]")
    return _fit_finish("interleave-transfer", bi, twice, checks, LINEAR_TARGET,
                       {"basis": bi.label, "seed": seed})


def _index_relation(dims, c: float) -> bool:
    """m <= c * d_r for every m in 2..sum(dims), where r >= 1 counts the
    blocks lying fully inside 1..m."""
    cums = np.cumsum(dims)
    return all(m <= c * dims[max(int(np.searchsorted(cums, m, side="right")), 1) - 1]
               for m in range(2, int(cums[-1]) + 1))


def _run_blocksum_l1(budget, seed):
    budget = budget if budget is not None else 4096
    dims = tuple(2**n for n in range(1, 7))
    base = lindenstrauss(64)
    bs = block_sum(base, dims, 1.0)
    checks = _Checks()

    checks.add("index-relation", _index_relation(dims, 4),
               f"m <= 4*d_r for all m <= {sum(dims)}")

    split_ok = all(
        block_index_split(dims, k) == (r, j)
        for r, dn in enumerate(dims, start=1)
        for j in range(1, dn + 1)
        for k in [j + int(sum(dims[: r - 1]))]
    )
    checks.add("index-bijection", split_ok, "k = j + sum of earlier dims, exhaustively")

    worst = 0.0
    for r, dn in enumerate(dims, start=1):
        val, wit = L_m_exact(base, dn)
        a_in = np.asarray(wit.coeffs)[:dn]
        a2, A2 = block_embed_pair(a_in, wit.indices, dims, r)
        r2 = sa_ratio(bs, a2, A2)
        worst = max(worst, abs(r2 - val) / max(1.0, val))
    checks.add("witness-embed", worst <= _REL_TOL, f"max rel dev {worst:.2e}")

    qg_l, _ = quasi_greedy_constant_lb(base, budget=budget, seed=seed)
    qg_bs, _ = _qg_search(bs, budget, seed)  # the direct search: its parts would give qg_l
    checks.add("qg-bounded", qg_bs <= 1.1 * qg_l + _ABS_TOL,
               f"qg[blocksum] {qg_bs:.4f} vs 1.1*qg[base] {1.1 * qg_l:.4f}")

    phi_ratios = [
        fundamental_function(bs, m, mode="search", budget=256, seed=seed) / m
        for m in (4, 8, 16, 32)
    ]
    checks.add("phi-linear",
               all(0.5 - _ABS_TOL <= r <= 2.0 + _ABS_TOL for r in phi_ratios),
               f"phi_m/m in [{min(phi_ratios):.3f}, {max(phi_ratios):.3f}]")

    ladder = lb_ladder(bs, (4, 8, 16, 32, 64), kind="L", mode="auto",
                       budget=budget, seed=seed)
    return _fit_finish("blocksum-L1", bs, ladder, checks, LOG_TARGET,
                       {"basis": bs.label, "seed": seed, "budget": budget})


def _run_pq_split(budget, seed):
    dims = tuple(2**n for n in range(1, 6))
    base = difference(64)
    checks = _Checks()
    blocks = [(dn, half_split_maps(base, dn)) for dn in dims]
    try:
        pq = pq_block_sum(base, blocks, 1.0, 1.0)
        checks.add("isomorphism-rank", True, "stacked (P,Q) full rank on every block")
    except Exception as exc:  # noqa: BLE001 - verdict, not crash
        checks.add("isomorphism-rank", False, str(exc))
        return _finish("pq-split", checks)

    worst_low, worst_high = 0.0, 0.0
    for dn, bm in blocks:
        kdim = bm.P.shape[1]
        rng = rng_stream(seed, "pq", dn)
        for _ in range(200):
            f = rng.standard_normal(kdim)
            l1 = float(np.abs(f).sum())
            halves = max(float(np.abs(bm.P @ f).sum()), float(np.abs(bm.Q @ f).sum()))
            worst_low = max(worst_low, halves - l1)
            worst_high = max(worst_high, l1 - 2.0 * halves)
    checks.add("distortion-2",
               worst_low <= _ABS_TOL and worst_high <= _ABS_TOL,
               "max(|Pf|,|Qf|) <= |f| <= 2 max(|Pf|,|Qf|)")

    c4 = constant_chain(1.0, 1.0, 2.0)
    checks.add("constant-chain", abs(c4 - 4.0) <= _ABS_TOL, f"C4 = {c4:g}")
    checks.add("index-relation", _index_relation(dims, c4),
               f"m <= C4*d_r for all m <= {sum(dims)}")

    val, wit = L_m_oracle(pq, 4)
    re = verify_witness(pq, wit)
    checks.add("witness-reverify", abs(re - val) / max(1.0, val) <= _REL_TOL,
               f"L_4 = {val:.4f}")
    return _finish("pq-split", checks, meta={"basis": pq.label, "seed": seed})


def _run_lorentz_embed(budget, seed):
    checks = _Checks()
    rng = rng_stream(seed, "lorentz")
    n_vec = 1000
    id_ok = True
    lift_bv, lift_sup, ret_l1, ret_sup = 0.0, 0.0, 0.0, 0.0
    from .spaces import BV as BVSpace

    bv = BVSpace()
    for _ in range(n_vec):
        k = int(rng.integers(1, 17))
        f = rng.standard_normal(k)
        lifted = lorentz_lift(f)
        if not np.array_equal(lorentz_retract(lifted), f):
            id_ok = False
        l1 = float(np.abs(f).sum())
        lift_bv = max(lift_bv, norm(bv, lifted) - 2.0 * l1)
        lift_sup = max(lift_sup, float(np.abs(lifted).max()) - float(np.abs(f).max()))
        g = rng.standard_normal(2 * k)  # even length: pairs align with variation steps
        r = lorentz_retract(g)
        ret_l1 = max(ret_l1, float(np.abs(r).sum()) - norm(bv, g))
        ret_sup = max(ret_sup, float(np.abs(r).max()) - 2.0 * float(np.abs(g).max()))
    checks.add("retract-lift-identity", id_ok, f"exact on {n_vec} vectors")
    checks.add("lift-bv-le-2l1", lift_bv <= _REL_TOL,
               "lift doubles the l1 mass: |lift f|_BV <= 2|f|_1 (constant 2 attained)")
    checks.add("lift-sup", lift_sup <= _REL_TOL, "|lift f|_inf <= |f|_inf")
    checks.add("retract-l1-le-bv", ret_l1 <= _REL_TOL, "|retract g|_1 <= |g|_BV, even length")
    checks.add("retract-sup-le-2sup", ret_sup <= _REL_TOL, "|retract g|_inf <= 2|g|_inf")
    return _finish("lorentz-embed", checks, meta={"seed": seed, "vectors": n_vec})


_SCENARIOS = {
    "unit-control": (_run_unit_control, "unit vectors: L_m identically 1"),
    "difference-linear": (_run_difference_linear, "difference system: L_m grows like m"),
    "summing-linear": (_run_summing_linear, "summing system: L_m grows like m"),
    "lindenstrauss-log": (_run_lindenstrauss_log, "lindenstrauss system: L_m grows like log m"),
    "interleave-transfer": (_run_interleave_transfer, "ratios transfer exactly onto a direct sum"),
    "blocksum-L1": (_run_blocksum_l1, "dyadic block sum keeps log growth and quasi-greediness"),
    "pq-split": (_run_pq_split, "half-split maps are a bounded isomorphism per block"),
    "lorentz-embed": (_run_lorentz_embed, "coordinate lift/retract norm inequalities"),
}


def list_scenarios() -> list:
    return [(name, desc) for name, (_, desc) in sorted(_SCENARIOS.items())]


def run_scenario(name: str, budget: int | None = None, seed: int = DEFAULT_SEED) -> ScenarioResult:
    if name not in _SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}")
    fn, _ = _SCENARIOS[name]
    seed = check_seed(seed, ValueError)
    try:
        return fn(budget, seed)
    except Exception as exc:  # noqa: BLE001 - failed invariants become verdicts
        return ScenarioResult(
            name, "FAIL", (("scenario-run", "FAIL", f"{type(exc).__name__}: {exc}"),),
            (), None, {"seed": seed},
        )


# ---------------------------------------------------------------------------
# config-driven generic scenarios
# ---------------------------------------------------------------------------


def parse_ladder(txt: str) -> tuple:
    """Ladder spec: ``2..10`` or an explicit comma list like ``4,8,16``."""
    txt = txt.strip()
    if ".." not in txt:
        return tuple(int(x) for x in txt.split(","))
    lo, hi = (int(t) for t in txt.split("..", 1))
    if hi < lo:
        raise ValueError(f"descending ladder range {txt!r}")
    return tuple(range(lo, hi + 1))


def parse_target(txt: str) -> GrowthTarget:
    """Growth target spec: ``log``, ``linear`` or ``power:a``."""
    txt = txt.strip().lower()
    if txt.startswith("power:"):
        return GrowthTarget("power", float(txt.split(":", 1)[1]))
    return GrowthTarget(txt)


_CONFIG_KEYS = ("recipe", "ladder", "kind", "target", "budget", "seed", "r2_min")


def load_scenarios_config(path: str) -> list:
    """Read [scenario:<name>] sections: recipe, ladder, and optional kind,
    target, budget, seed, r2_min; any other key, a recipe that does not
    build, a rung outside 1..d of its basis, or an r2_min outside [0, 1] is
    an error."""
    cp = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    specs = []
    for section in cp.sections():
        if not section.startswith("scenario:"):
            continue
        sec = cp[section]
        unknown = [key for key in sec if key not in _CONFIG_KEYS]
        if unknown:
            raise ValueError(f"section {section} has unknown key(s): {', '.join(unknown)}")
        spec = {
            "name": section.split(":", 1)[1],
            "recipe": sec.get("recipe"),
            "ladder": parse_ladder(sec.get("ladder", "2..8")),
            "kind": sec.get("kind", "L"),
            "target": parse_target(sec.get("target", "log")),
            "budget": sec.getint("budget", fallback=None),
            "seed": check_seed(sec.getint("seed", fallback=DEFAULT_SEED), ValueError),
            "r2_min": sec.getfloat("r2_min", fallback=0.95),
        }
        if not spec["recipe"]:
            raise ValueError(f"section {section} needs a recipe")
        try:
            d = parse_basis(spec["recipe"]).d
        except ValueError as exc:
            raise ValueError(f"section {section}: bad recipe {spec['recipe']!r}: {exc}") from exc
        if outside := [m for m in spec["ladder"] if not 1 <= m <= d]:
            raise ValueError(f"section {section}: ladder rung {outside[0]} outside 1..{d}")
        if spec["budget"] is not None and spec["budget"] < 1:
            raise ValueError(f"section {section} needs a budget of at least 1")
        if not 0.0 <= spec["r2_min"] <= 1.0:  # growth_fit's rule; NaN fails it too
            raise ValueError(f"section {section}: r2_min must be a number in [0, 1], "
                             f"got {spec['r2_min']!r}")
        if spec["kind"] not in ("L", "k"):
            raise ValueError(f"section {section}: kind must be 'L' or 'k', got {spec['kind']!r}")
        specs.append(spec)
    return specs


def run_config_scenario(spec: dict) -> ScenarioResult:
    """Generic pipeline: build basis, compute a ladder, fit the target."""
    name = spec["name"]
    try:
        b = parse_basis(spec["recipe"])
        ladder = lb_ladder(b, spec["ladder"], kind=spec.get("kind", "L"),
                           mode="auto", budget=spec.get("budget"),
                           seed=spec.get("seed", DEFAULT_SEED))
        checks = _Checks()
        vals = [val for _, val, _ in ladder]
        checks.add("monotone", all(y >= x - _ABS_TOL for x, y in zip(vals, vals[1:])),
                   "LB non-decreasing")
        return _fit_finish(name, b, ladder, checks, spec.get("target", LOG_TARGET),
                           {"basis": b.label, "seed": spec.get("seed", DEFAULT_SEED)},
                           spec.get("r2_min", 0.95))
    except Exception as exc:  # noqa: BLE001
        return ScenarioResult(
            name, "FAIL", (("scenario-run", "FAIL", f"{type(exc).__name__}: {exc}"),),
            (), None, {},
        )


# ---------------------------------------------------------------------------
# result serialisation
# ---------------------------------------------------------------------------


def result_files(result: ScenarioResult) -> dict:
    """Render a result into named byte blobs ready for a bundle."""
    files = {}
    check_rows = [("check", "verdict", "detail")] + list(result.checks)
    files[f"{result.name}-checks.csv"] = csv_bytes(check_rows)
    if result.ladder:
        # a ladder without a fit takes the linear target, delta_m = m
        rows = (result.fit.csv_rows() if result.fit is not None
                else ladder_table(result.ladder, LINEAR_TARGET))
        files[f"{result.name}-ladder.csv"] = csv_bytes(rows)
        pts = [(m, lb) for m, lb, _ in result.ladder]
        files[f"{result.name}-plot.svg"] = svg_polyline(
            pts, title=result.name, xlabel="m", ylabel="lower bound"
        )
    files[f"{result.name}-report.json"] = json_bytes(result.to_doc())
    return files
