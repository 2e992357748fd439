"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Every test records its verdict in RESULTS before asserting, so the summary
hook in conftest.py prints the full scoreboard even when a criterion fails.
Tolerances and runtime ceilings are asserted as stated, not loosened to fit
the measured behaviour; a criterion that the mathematics cannot meet fails
here with the measured value in its detail line.
"""
from __future__ import annotations

import math
import time

import numpy as np

from condgreedy import (
    BV,
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    L_m_estimate,
    L_m_oracle,
    LINEAR_TARGET,
    LOG_TARGET,
    Lp,
    block_embed_pair,
    block_index_split,
    block_sum,
    difference,
    fundamental_function,
    growth_fit,
    interleave,
    interleave_pair,
    lb_ladder,
    lindenstrauss,
    lorentz_lift,
    lorentz_retract,
    norm,
    quasi_greedy_constant_lb,
    sa_ratio,
    summing,
    unit_vector_system,
)
from condgreedy.cli import main as cli_main
from condgreedy.greedy import _qg_search

RESULTS: dict[int, tuple[bool, str]] = {}

ABS_TOL = 1e-9
REL_TOL = 1e-12


def _record(n: int, ok: bool, detail: str) -> None:
    RESULTS[n] = (bool(ok), detail)
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line, flush=True)
    assert ok, line


def _ladder_vals(ladder) -> dict:
    return {m: val for m, val, _ in ladder}


def test_criterion_01_unit_vector_control():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (1.0, 2.0, math.inf):
        b = unit_vector_system(16, Lp(p))
        for m in (2, 4, 8, 16):
            val, _ = L_m_oracle(b, m, guard=16)
            worst = max(worst, abs(val - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= ABS_TOL and elapsed < 10.0
    _record(1, ok, f"max |L_m - 1| = {worst:.2e} over p in {{1,2,inf}}, "
                   f"m in {{2,4,8,16}}; {elapsed:.1f}s (< 10s)")


def test_criterion_02_difference_linear_growth():
    t0 = time.perf_counter()
    b = difference(10)
    ladder = lb_ladder(b, tuple(range(2, 11)), kind="L", mode="oracle", guard=10)
    floor_ok = all(val >= m - 1 - ABS_TOL for m, val, _ in ladder)
    worst = 0.0
    for m, val, _ in ladder:
        # guard below m forces the template-plus-search route
        est, _ = L_m_estimate(b, m, budget=64, seed=DEFAULT_SEED, guard=1)
        worst = max(worst, abs(est - val))
    elapsed = time.perf_counter() - t0
    ok = floor_ok and worst <= ABS_TOL and elapsed < 120.0
    _record(2, ok, f"LB_m >= m-1: {floor_ok}; max |template est - oracle| = "
                   f"{worst:.2e}; {elapsed:.0f}s (< 120s)")


def test_criterion_03_summing_linear_growth():
    b = summing(10)
    ladder = lb_ladder(b, tuple(range(2, 11)), kind="L", mode="oracle", guard=10)
    vals = [val for _, val, _ in ladder]
    floor_ok = all(val >= m / 4.0 - ABS_TOL for m, val, _ in ladder)
    mono_ok = all(v2 >= v1 - REL_TOL for v1, v2 in zip(vals, vals[1:]))
    fit = growth_fit([(m, val) for m, val, _ in ladder], LINEAR_TARGET)
    r2 = fit.r_squared if fit.r_squared is not None else 0.0
    ok = floor_ok and mono_ok and r2 >= 0.95
    _record(3, ok, f"LB_m >= m/4: {floor_ok}; non-decreasing: {mono_ok}; "
                   f"linear-fit R^2 = {r2:.4f} (>= 0.95)")


def test_criterion_04_lindenstrauss_log_growth():
    t0 = time.perf_counter()
    b = lindenstrauss(64)
    ladder = lb_ladder(b, (4, 8, 16, 32, 64), kind="L", mode="auto",
                       budget=4096, seed=DEFAULT_SEED)
    vals = _ladder_vals(ladder)
    ratio = vals[64] / vals[8]
    fit = growth_fit([(m, val) for m, val, _ in ladder], LOG_TARGET)
    r2 = fit.r_squared if fit.r_squared is not None else 0.0
    elapsed = time.perf_counter() - t0
    ok = r2 >= 0.95 and ratio <= 4.0 + ABS_TOL and elapsed < 300.0
    _record(4, ok, f"log-fit R^2 = {r2:.4f} (needs >= 0.95; the certified "
                   f"staircase is flat across odd dyadic generations, so a "
                   f"pure log fit undershoots); LB_64/LB_8 = {ratio:.3f} "
                   f"(<= 4); {elapsed:.0f}s (< 300s)")


def test_criterion_05_quasi_greedy_stability():
    density = 32  # search budget per coordinate of the truncation
    qg = {}
    for d in (8, 16, 32, 64):
        val, _ = quasi_greedy_constant_lb(lindenstrauss(d), budget=density * d,
                                          seed=DEFAULT_SEED)
        qg[d] = val
    floor_ok = all(v >= 1.0 - ABS_TOL for v in qg.values())
    stable_ok = qg[64] <= 1.5 * qg[16] + ABS_TOL
    b12 = lindenstrauss(12)
    ratios = [fundamental_function(b12, m, mode="exact") / m
              for m in range(1, 13)]
    band_ok = all(0.5 - ABS_TOL <= r <= 2.0 + ABS_TOL for r in ratios)
    ok = floor_ok and stable_ok and band_ok
    _record(5, ok, f"qg lb = {qg[8]:.4f}/{qg[16]:.4f}/{qg[32]:.4f}/{qg[64]:.4f} "
                   f"at d = 8/16/32/64 (all >= 1); qg(64) <= 1.5*qg(16): "
                   f"{stable_ok}; phi_m/m in [{min(ratios):.3f}, "
                   f"{max(ratios):.3f}] for m <= 12 (within [1/2, 2])")


def test_criterion_06_interleave_transfer():
    b0 = difference(8)
    b1 = unit_vector_system(8, Lp(2.0))
    bi = interleave(b0, b1)
    base = lb_ladder(b0, tuple(range(2, 9)), kind="L", mode="oracle")
    worst = 0.0
    for _, val, wit in base:
        a2, A2 = interleave_pair(np.asarray(wit.coeffs), wit.indices, 0,
                                 b0.d, b1.d)
        worst = max(worst, abs(sa_ratio(bi, a2, A2) - val) / max(1.0, val))
    twice = lb_ladder(bi, tuple(2 * m for m, _, _ in base), kind="L",
                      mode="auto", seed=DEFAULT_SEED)
    dominated = all(v2 >= v1 - ABS_TOL
                    for (_, v1, _), (_, v2, _) in zip(base, twice))
    ok = worst <= REL_TOL and dominated
    _record(6, ok, f"max relative transfer deviation = {worst:.2e} "
                   f"(<= 1e-12); LB_2m[interleave] >= LB_m[base] across "
                   f"m = 2..8: {dominated}")


def test_criterion_07_block_sum_transfer():
    dims = tuple(2 ** n for n in range(1, 7))
    base = lindenstrauss(64)
    bs = block_sum(base, dims, 1.0)
    total = sum(dims)
    idx_ok = all(m <= 4 * dims[block_index_split(dims, m)[0] - 1]
                 for m in range(2, total + 1))
    worst = 0.0
    for r, dn in enumerate(dims, start=1):
        val, wit = L_m_oracle(base, min(dn, 8))
        a2, A2 = block_embed_pair(np.asarray(wit.coeffs)[:dn], wit.indices,
                                  dims, r)
        worst = max(worst, abs(sa_ratio(bs, a2, A2) - val) / max(1.0, val))
    # the direct search on the sum: quasi_greedy_constant_lb takes the
    # largest part, lindenstrauss(64) itself, and the check would be an identity
    qg_bs, _ = _qg_search(bs, DEFAULT_BUDGET, DEFAULT_SEED)
    qg_base, _ = quasi_greedy_constant_lb(base, budget=DEFAULT_BUDGET,
                                          seed=DEFAULT_SEED)
    qg_ok = qg_bs <= 1.1 * qg_base + ABS_TOL
    ok = idx_ok and worst <= REL_TOL and qg_ok
    _record(7, ok, f"m <= 4*d_r for all m <= {total}: {idx_ok}; max relative "
                   f"embed deviation = {worst:.2e}; qg[blocksum] {qg_bs:.4f} "
                   f"<= 1.1 * qg[base] {1.1 * qg_base:.4f}: {qg_ok}")


def test_criterion_08_lorentz_lift_retract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(DEFAULT_SEED)
    id_exact = True
    lift_bv_gap = 0.0
    lift_sup_gap = 0.0
    retract_l1_gap = 0.0
    retract_sup_gap = 0.0
    for _ in range(1000):
        f = rng.standard_normal(int(rng.integers(1, 17)))
        lifted = lorentz_lift(f)
        id_exact = id_exact and np.array_equal(lorentz_retract(lifted), f)
        lift_bv_gap = max(lift_bv_gap,
                          norm(BV(), lifted) - float(np.abs(f).sum()))
        lift_sup_gap = max(lift_sup_gap,
                           float(np.abs(lifted).max() - np.abs(f).max()))
        # retraction pairs coordinates, so feed it whole pairs
        g = rng.standard_normal(2 * int(rng.integers(1, 9)))
        back = lorentz_retract(g)
        retract_l1_gap = max(retract_l1_gap,
                             float(np.abs(back).sum()) - norm(BV(), g))
        retract_sup_gap = max(retract_sup_gap,
                              float(np.abs(back).max() - 2.0 * np.abs(g).max()))
    elapsed = time.perf_counter() - t0
    ok = (id_exact and lift_bv_gap <= REL_TOL and lift_sup_gap <= 0.0
          and retract_l1_gap <= REL_TOL and retract_sup_gap <= REL_TOL
          and elapsed < 10.0)
    _record(8, ok, f"retract(lift(f)) = f exactly: {id_exact}; max "
                   f"BV(lift f) - l1(f) = {lift_bv_gap:.4f} (needs <= 1e-12; "
                   f"the lift doubles variation, BV(lift f) = 2*l1(f)); "
                   f"sup(lift f) <= sup(f): {lift_sup_gap <= 0.0}; max "
                   f"l1(retract g) - BV(g) = {retract_l1_gap:.2e}; "
                   f"sup(retract g) <= 2 sup(g): {retract_sup_gap <= REL_TOL}; "
                   f"{elapsed:.1f}s (< 10s)")


def test_criterion_09_estimate_matches_oracle_on_full_grid():
    bases = (
        lindenstrauss(12),
        summing(12),
        difference(12),
        interleave(difference(6), unit_vector_system(6, Lp(2.0))),
    )
    worst = 0.0
    for b in bases:
        for m in range(1, 9):
            oracle_val, _ = L_m_oracle(b, m)
            est_val, _ = L_m_estimate(b, m, budget=5 ** m, seed=DEFAULT_SEED)
            worst = max(worst, abs(est_val - oracle_val))
    ok = worst <= ABS_TOL
    _record(9, ok, f"max |estimate - oracle| = {worst:.2e} over "
                   f"{len(bases)} systems, m <= 8, full-grid budget")


def test_criterion_10_experiment_determinism(tmp_path):
    runs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = cli_main(["experiment", "lindenstrauss-log", "--seed", "42",
                         "--out", str(out)])
        csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        runs.append((code, csvs))
    (code1, csv1), (code2, csv2) = runs
    identical = csv1 == csv2 and len(csv1) >= 1
    ok = identical and code1 == code2
    _record(10, ok, f"{len(csv1)} CSV files byte-identical across repeated "
                    f"runs: {identical}; exit code {code1} both times")
