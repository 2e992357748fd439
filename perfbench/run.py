"""condgreedy benchmark: wall time to certified values at a fixed budget.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py):

* ``oracle-cli``       -- ``condgreedy experiment --config`` over difference
  and summing bases up to m=9: the exhaustive 5^m grid in large batches,
  through cli, scenarios and reportio; never touches greedy.
* ``greedy-blocksum``  -- quasi-greedy on a dyadic Lindenstrauss block sum
  (random tier), on the sign-grid tier, almost-greedy on the
  exact-denominator tier and phi_m in exact mode: prefix residuals through
  synth_rows and the MixedSum recursion.
* ``ladder-estimate``  -- estimate-mode L and k ladders, k_m and L_m
  estimates: seeded coordinate ascent, many norms calls of a few rows each;
  on the p,q half-split sum, which has no templates, the values come from
  the random block search alone.

Each pass runs in a fresh interpreter (worker.py) against ``src/`` with
``CONDGREEDY_THREADS=1`` and single-threaded BLAS.  Passes repeat until
``--seconds`` is spent (at least six).  The seeded workloads draw fresh
estimator seeds from (seed, pass) every pass, so a run averages over many
inputs; oracle-cli repeats one deterministic pass.

End-to-end metrics (``--trace 0``): ``wall_s`` (median pass time),
``setup_s`` (median of interpreter start + import + basis construction),
``peak_rss_mb`` (median per-pass peak RSS) and ``bound_geomean`` (geometric
mean of the certified values of the first six passes).

The two timings are corrected for the speed of the host during the pass.
On a shared host that speed drifts: on a 2-vCPU virtual machine, identical
passes took up to 1.5 times longer for minutes at a stretch.  Every pass
therefore also times a fixed reference kernel that uses no condgreedy code
(worker.py), in slices between its operations, and the pass's times are
scaled by ``REF_S / kernel time``: seconds on a host where the kernel takes
0.1 s.  The uncorrected medians are printed above the result line.

Per-layer metrics (``--trace 1``) come from passes run with spans.py, each
paired with an untraced pass on the same inputs; their fingerprints must
agree.

The last stdout line is one JSON object: correct, attempted, failed,
metrics, with the units that BENCHMARK.json declares.  Lines before it give
the environment, every pass and the fingerprint of the first six passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from spans import BUILDERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

MIN_PASSES = 6  # the fingerprint and bound_geomean cover these passes
REF_S = 0.1  # nominal reference-kernel time that timings are rescaled to
DEADLINE_S = 170.0  # the whole run must end well inside 180 s


def _layer(summary: dict, name: str, key: str) -> float:
    return float(summary.get(name, {}).get(key, 0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(s: dict) -> dict:
    """Per-layer metric values from one traced pass's span summary."""
    norms_self = _layer(s, "spaces.norms", "self_s")
    norms_calls = _layer(s, "spaces.norms", "calls")
    norms_rows = _layer(s, "spaces.norms", "rows")
    norms_elems = _layer(s, "spaces.norms", "elems")
    build = sum(_layer(s, f"bases.{name}", "self_s") for name in BUILDERS)
    return {
        "spaces.norms.calls": norms_calls,
        "spaces.norms.rows": norms_rows,
        "spaces.norms.rows_per_call": _ratio(norms_rows, norms_calls),
        "spaces.norms.self_s": norms_self,
        "spaces.norms.nested_calls": _layer(s, "spaces.norms", "nested"),
        "spaces.norms.bytes_in": 8 * norms_elems,
        "spaces.norms.ns_per_elem": _ratio(1e9 * norms_self, norms_elems),
        "bases.synth_rows.calls": _layer(s, "bases.synth_rows", "calls"),
        "bases.synth_rows.rows": _layer(s, "bases.synth_rows", "rows"),
        "bases.synth_rows.self_s": _layer(s, "bases.synth_rows", "self_s"),
        "bases.synth_rows.flops": _layer(s, "bases.synth_rows", "flops"),
        "bases.build.self_s": build,
        "search.pair_chunk.rows": _layer(s, "_search.pair_chunk", "rows"),
        "search.pair_chunk.self_s": _layer(s, "_search.pair_chunk", "self_s"),
        "search.digit_rows.self_s": _layer(s, "_search.digit_rows", "self_s"),
        "search.parallel_block_max.blocks": _layer(s, "_search.parallel_block_max", "blocks"),
        "search.block.self_s": _layer(s, "_search.block", "self_s"),
        "conditionality.L_m_oracle.calls": _layer(s, "conditionality.L_m_oracle", "calls"),
        "conditionality.L_m_oracle.self_s": _layer(s, "conditionality.L_m_oracle", "self_s"),
        "conditionality.verify_witness.calls": _layer(s, "conditionality.verify_witness", "calls"),
        "conditionality.verify_witness.self_s": _layer(s, "conditionality.verify_witness", "self_s"),
        "conditionality.L_m_estimate.self_s": _layer(s, "conditionality.L_m_estimate", "self_s"),
        "conditionality.k_m_estimate.self_s": _layer(s, "conditionality.k_m_estimate", "self_s"),
        "conditionality.sa_ratio.calls": _layer(s, "conditionality.sa_ratio", "calls"),
        "greedy.quasi_greedy_constant_lb.self_s": _layer(s, "greedy.quasi_greedy_constant_lb", "self_s"),
        "greedy.almost_greedy_constant_lb.self_s": _layer(s, "greedy.almost_greedy_constant_lb", "self_s"),
        "greedy.fundamental_function.self_s": _layer(s, "greedy.fundamental_function", "self_s"),
        "scenarios.run_config_scenario.self_s": _layer(s, "scenarios.run_config_scenario", "self_s"),
        "scenarios.result_files.self_s": _layer(s, "scenarios.result_files", "self_s"),
        "reportio.write_bundle.self_s": _layer(s, "reportio.write_bundle", "self_s"),
        "reportio.write_bundle.bytes": _layer(s, "reportio.write_bundle", "bytes"),
        "cli.main.self_s": _layer(s, "cli.main", "self_s"),
    }


def declared_metrics(root: str, trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_pass(root: str, spec: dict, timeout: float) -> dict:
    """Run one pass in a fresh interpreter; adds setup_s and the pass record."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for pass {spec['pass']} exited with {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["t_ready"] - t_spawn
    rec["elapsed_s"] = time.monotonic() - t_spawn
    return rec


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for checking the benchmark itself")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "condgreedy", "__init__.py")):
        print(f"perfbench: no src/condgreedy under {root}; run from a checkout root",
              file=sys.stderr)
        return 2

    units = declared_metrics(root, args.trace)
    start = time.monotonic()
    wl = WORKLOADS[args.workload]
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        wl.prepare(tmp, args.scale, args.seed)
        plain, traced = [], []
        while True:
            used = time.monotonic() - start
            if len(plain) >= MIN_PASSES:
                step = statistics.median(r["elapsed_s"] for r in plain) * (1 + args.trace)
                if used + step > args.seconds:
                    break
            spec = {"workload": args.workload, "scale": args.scale, "seed": args.seed,
                    "pass": len(plain), "tmp": tmp, "root": root, "trace": 0}
            plain.append(run_pass(root, spec, DEADLINE_S - used))
            if args.trace:
                spec["trace"] = 1
                traced.append(run_pass(root, spec, DEADLINE_S - (time.monotonic() - start)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures = [f for r in plain + traced for f in r["failures"]]
    attempted = sum(r["attempted"] for r in plain + traced)
    if not wl.reseeded:
        # identical inputs every pass: results must be byte-identical
        failures += [f"pass {i}: fingerprint differs from pass 0"
                     for i, r in enumerate(plain) if r["fingerprint"] != plain[0]["fingerprint"]]
    failures += [f"pass {i}: traced fingerprint differs from untraced"
                 for i, (p, t) in enumerate(zip(plain, traced)) if p["fingerprint"] != t["fingerprint"]]

    env = plain[0]["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale}")
    print(f"env: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"OPENBLAS_NUM_THREADS={env['openblas_threads']} "
          f"CONDGREEDY_THREADS={env['condgreedy_threads']}")
    for i, r in enumerate(plain):
        line = (f"pass {i}: setup {r['setup_s']:.4f} s  wall {r['wall_s']:.4f} s  "
                f"ref {r['ref_s']:.4f} s  "
                f"rss {r['maxrss_kb'] / 1024:.1f} MB  ops {r['attempted'] - len(r['failures'])}"
                f"/{r['attempted']}  fp {r['fingerprint'][:12]}")
        if args.trace:
            line += f"  traced wall {traced[i]['wall_s']:.4f} s"
        print(line)
    for f in failures:
        print(f"FAILED {f}")
    print("raw medians: " + "  ".join(
        f"{key} {statistics.median(r[key] for r in plain):.4f} s" for key in ("setup_s", "wall_s", "ref_s")))
    first = plain[:MIN_PASSES]
    fp = "".join(r["fingerprint"] for r in first).encode()
    print(f"fingerprint (passes 0-{len(first) - 1}): {hashlib.sha256(fp).hexdigest()}")

    if args.trace:
        layers = [per_layer(r["layers"]) for r in traced]
        values = {name: statistics.fmean(x[name] for x in layers) for name in layers[0]}
        values["trace.overhead_s"] = statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] * REF_S / r["ref_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] * REF_S / r["ref_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in plain) / 1024,
            "bound_geomean": geomean([v for r in first for v in r["values"]]),
        }
    if set(values) != set(units):
        raise SystemExit(f"perfbench: measured metrics {sorted(values)} "
                         f"differ from BENCHMARK.json {sorted(units)}")
    metrics = {name: {"value": val, "unit": units[name]} for name, val in values.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
