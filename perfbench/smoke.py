"""Smoke test for the benchmark itself, on tiny inputs (about a minute).

Usage (from the root of a checkout): python3 perfbench/smoke.py

Checks that every workload runs at ``--scale smoke`` with and without
tracing, passes the gate and reports exactly the metrics of BENCHMARK.json;
that the gate rejects broken witnesses and oracle rungs; that
ladder-estimate has values that only the block search reaches; that the
tracer rebinds every import site; and that the benchmark refuses to run
without ``src/``.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED {what}")
    print(f"ok  {what}")


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_runs(bench: dict) -> None:
    want = {0: [m["name"] for m in bench["end_to_end"]],
            1: [m["name"] for m in bench["per_layer"]]}
    for w in (entry["name"] for entry in bench["workloads"]):
        for trace in (0, 1):
            proc = run_bench(w, trace)
            tag = f"{w} trace={trace}"
            expect(proc.returncode == 0, f"{tag} exits 0")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{tag} result keys")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{tag} passes the gate ({res['attempted']} operations)")
            expect(sorted(res["metrics"]) == sorted(want[trace]),
                   f"{tag} reports the BENCHMARK.json metrics")
            expect(all(math.isfinite(m["value"]) for m in res["metrics"].values()),
                   f"{tag} values are finite")
            if trace == 0:
                expect(all(m["value"] > 0 for m in res["metrics"].values()), f"{tag} values are positive")


def check_gate() -> None:
    import condgreedy as cg
    import workloads as wl

    def rejects(fn, *args) -> bool:
        try:
            fn(cg, *args)
        except wl.GateError:
            return True
        return False

    b = cg.lindenstrauss(12)
    val, wit = cg.L_m_estimate(b, 6, budget=256, seed=1)
    wl.check_L(cg, b, 6, val, wit)
    expect(rejects(wl.check_L, b, 6, val + 1e-9, wit), "gate rejects a value its witness does not give")
    W = cg.Witness
    expect(rejects(wl.check_L, b, 6, val, W(wit.coeffs, wit.indices + (7,), val, wit.kind)),
           "gate rejects A outside [1..m]")
    spread = W(wit.coeffs[:6] + (1.0,) * 6, wit.indices, val, wit.kind)
    expect(rejects(wl.check_L, b, 6, val, spread), "gate rejects coefficient support outside [1..m]")
    kval, kwit = cg.k_m_estimate(b, 3, budget=256, seed=1)
    wl.check_k(cg, b, 3, kval, kwit)
    expect(rejects(wl.check_k, b, 3, kval, W(kwit.coeffs, (1, 2, 3, 4), kval, kwit.kind)),
           "gate rejects |A| > m")
    expect(rejects(wl.check_L, b, 6, math.inf, wit), "gate rejects a non-finite value")

    q = cg.lindenstrauss(14)
    qval, qwit = cg.quasi_greedy_constant_lb(q, budget=256, seed=1)
    wl.check_qg(cg, q, qval, qwit)
    coeffs = list(qwit.coeffs)
    inside = [i - 1 for i in qwit.indices]
    outside = [j for j in range(q.d) if j not in inside]
    if inside and outside:
        coeffs[outside[0]] = 10 * max(abs(c) for c in coeffs)
        bad = cg.Witness(tuple(coeffs), qwit.indices, qval, qwit.kind)
        expect(rejects(wl.check_qg, q, qval, bad), "gate rejects an A that is not greedy for f")
    aval, awit = cg.almost_greedy_constant_lb(cg.lindenstrauss(10), budget=256, seed=1)
    wl.check_ag(cg, cg.lindenstrauss(10), aval, awit)
    big_b = cg.Witness(awit.coeffs, awit.indices, aval, awit.kind,
                           b_indices=tuple(range(1, len(awit.indices) + 2)))
    expect(rejects(wl.check_ag, cg.lindenstrauss(10), aval, big_b), "gate rejects |B| > |A|")
    expect(rejects(wl.check_phi, cg.difference(8), 4, 0.5), "gate rejects phi_m below its floor")
    wl._check_ladder(cg, "summing:6", [{"m": 6, "lb": 6.0}])
    expect(rejects(lambda cg, spec, rows: wl._check_ladder(cg, spec, rows), "summing:6",
                   [{"m": 6, "lb": 1.4}]), "gate rejects an oracle rung below its floor")
    expect(rejects(lambda cg, spec, rows: wl._check_ladder(cg, spec, rows), "difference:6",
                   [{"m": 6, "lb": 5.5}]), "gate rejects an oracle rung off the template value")


def check_search_matters() -> None:
    """ladder-estimate's p,q half-split sum has no templates, so its values
    drop when the random block search is switched off."""
    import condgreedy as cg
    from condgreedy import conditionality
    from workloads import BUDGET, LadderEstimate

    pq = cg.parse_basis(LadderEstimate.PQ)

    def values():
        return (cg.L_m_estimate(pq, 6, budget=BUDGET, seed=1)[0],
                cg.k_m_estimate(pq, 3, budget=BUDGET, seed=1)[0])

    full = values()
    real = conditionality.parallel_block_max
    conditionality.parallel_block_max = lambda block_fn, n_blocks: (0.0, None)
    try:
        weak = values()
    finally:
        conditionality.parallel_block_max = real
    expect(all(w < f for w, f in zip(weak, full)),
           f"p,q half-split L_6 and k_3 come from the block search ({full} vs {weak} without it)")


def check_tracer() -> None:
    import condgreedy as cg
    import condgreedy.cli
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    sites = set(tracer.rebound)
    for mod, attr in [("condgreedy.bases", "norms"), ("condgreedy.conditionality", "norms"),
                      ("condgreedy.greedy", "norms"), ("condgreedy.conditionality", "pair_chunk"),
                      ("condgreedy.conditionality", "parallel_block_max"),
                      ("condgreedy.scenarios", "lb_ladder"), ("condgreedy.cli", "lb_ladder"),
                      ("condgreedy.cli", "run_config_scenario"), ("condgreedy", "L_m_estimate")]:
        expect((mod, attr) in sites, f"tracer rebinds {mod}.{attr}")
    tracer.enabled = True
    b = cg.parse_basis("blocksum(lindenstrauss,dims=2^1..2^3,p=1)")
    cg.quasi_greedy_constant_lb(b, budget=256, seed=1)
    tracer.enabled = False
    s = tracer.summary()
    expect(s["spaces.norms"]["nested"] > 0, "MixedSum recursion shows as nested norms calls")
    expect(s["_search.block"]["calls"] == 1, "each random block gets a span")
    expect(s["bases.synth_rows"]["rows"] > 0, "synth_rows rows are counted")
    top = s["greedy.quasi_greedy_constant_lb"]
    expect(0 <= top["self_s"] <= top["total_s"], "self time lies inside the span")


def check_refuses_without_src(bench_path: str) -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as bare:
        shutil.copy(bench_path, bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("oracle-cli", 0, cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "refuses to run without src/ and prints no result")


def main() -> int:
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    check_gate()
    check_search_matters()
    check_tracer()
    check_refuses_without_src(bench_path)
    check_runs(bench)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
