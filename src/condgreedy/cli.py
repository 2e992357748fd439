"""Command line front end.

Subcommands: ``construct`` emits a basis as JSON, ``constants`` computes a
conditionality lower-bound ladder, ``greedy-check`` runs the greedy property
suite on one basis, ``experiment`` executes named scenarios into a report
bundle, ``list-scenarios`` prints the registry.

Exit codes: 0 on success, 1 when a scenario or property check fails, 2 on
usage errors, among them a parameter out of range (``ConditionalityError``).
Data goes to stdout or files, diagnostics to stderr.  With a fixed seed,
output bytes are identical between runs (timestamps appear only in bundle
manifests and can be suppressed).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ._search import DEFAULT_BUDGET, DEFAULT_SEED, check_seed
from .bases import basis_to_doc, parse_basis
from .conditionality import (
    ConditionalityError,
    GrowthTarget,
    growth_fit,
    ladder_records,
    ladder_table,
    lb_ladder,
    DEFAULT_GUARD,
)
from .greedy import (
    almost_greedy_constant_lb,
    democracy_ratio,
    fundamental_function,
    quasi_greedy_constant_lb,
    FUND_EXACT_MAX_D,
)
from .reportio import csv_bytes, json_bytes, svg_polyline, write_bundle
from .scenarios import (
    list_scenarios,
    load_scenarios_config,
    parse_ladder,
    parse_target,
    result_files,
    run_config_scenario,
    run_scenario,
)

__all__ = ["main", "console_main"]


class _UsageError(ValueError):
    pass


def _seed_arg(txt: str) -> int:
    try:  # decimal and 0x... forms
        return check_seed(int(txt, 0), argparse.ArgumentTypeError)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed: {txt!r}") from None


def _positive_int(txt: str) -> int:
    try:
        n = int(txt)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {txt!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="condgreedy",
        description="Greedy-approximation and conditionality constants "
        "for truncated sequence-space bases.",
    )
    sub = p.add_subparsers(dest="cmd", required=True, metavar="SUBCOMMAND")

    c = sub.add_parser("construct", help="build a basis and emit its JSON document")
    c.add_argument("--basis", required=True, metavar="SPEC",
                   help="e.g. lindenstrauss:16, difference:10, "
                        "blocksum(lindenstrauss,dims=2^1..2^6,p=1), interleave(a,b)")
    c.add_argument("--out", default="-", help="output path, or - for stdout")

    c = sub.add_parser("constants", help="compute a lower-bound ladder for L_m or k_m")
    c.add_argument("--basis", required=True, metavar="SPEC")
    c.add_argument("--kind", choices=("L", "k"), default="L")
    c.add_argument("--m", required=True, metavar="LADDER",
                   help="rungs: 2..10 or a comma list like 4,8,16")
    c.add_argument("--oracle", action="store_true",
                   help="exact route at every rung where the basis has one (every "
                        "recipe but pqhalf and unit on bv), else the oracle for an "
                        "L rung inside --guard; exit code 2 naming any other rung")
    c.add_argument("--estimate", action="store_true",
                   help="search route, but an L rung (and the k rung m = d) inside "
                        "--guard takes the exact route, else the oracle, unless "
                        "--budget is below 5^m")
    c.add_argument("--budget", type=_positive_int, default=None)
    c.add_argument("--seed", type=_seed_arg, default=DEFAULT_SEED)
    c.add_argument("--guard", type=_positive_int, default=DEFAULT_GUARD,
                   help="largest m at which an L rung, or the k rung m = d (k_d = L_d), "
                        "takes the oracle (with --estimate also the exact route); "
                        "otherwise the exact route ignores it (default %(default)s)")
    c.add_argument("--target", default="log",
                   help="growth target for the delta_m column: log, linear, power:a")
    c.add_argument("--out", default="-")
    c.add_argument("--format", choices=("csv", "json", "svg"), default="csv")

    c = sub.add_parser("greedy-check",
                       help="greedy property suite: quasi-greedy, almost-greedy, "
                            "fundamental function, democracy")
    c.add_argument("--basis", required=True, metavar="SPEC")
    c.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    c.add_argument("--seed", type=_seed_arg, default=DEFAULT_SEED)
    c.add_argument("--phi-max", type=int, default=None,
                   help="largest m for the fundamental-function scan")
    c.add_argument("--out", default="-")
    c.add_argument("--format", choices=("csv", "json"), default="csv")

    c = sub.add_parser("experiment", help="run named scenarios into a report bundle")
    c.add_argument("names", nargs="*", metavar="NAME",
                   help="scenario names ('all' for every registered one)")
    c.add_argument("--config", default=None, metavar="FILE",
                   help="INI file with [scenario:NAME] sections to run instead")
    c.add_argument("--budget", type=_positive_int, default=None)
    c.add_argument("--seed", type=_seed_arg, default=DEFAULT_SEED)
    c.add_argument("--out", default="./reports", help="bundle directory")
    c.add_argument("--no-timestamp", action="store_true",
                   help="omit the creation time from the manifest")

    sub.add_parser("list-scenarios", help="list registered scenarios")
    return p


def _emit(data: bytes, out: str) -> None:
    if out == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(out).write_bytes(data)


def _parse_basis_arg(spec: str):
    try:
        return parse_basis(spec)
    except Exception as exc:  # noqa: BLE001 - any build failure is a usage error
        raise _UsageError(f"bad basis spec {spec!r}: {exc}") from exc


def _parse_target_arg(txt: str) -> GrowthTarget:
    try:
        return parse_target(txt)
    except ValueError as exc:
        raise _UsageError(f"bad growth target {txt!r}: {exc}") from exc


def _cmd_construct(ns) -> int:
    b = _parse_basis_arg(ns.basis)
    _emit(json_bytes(basis_to_doc(b)), ns.out)
    return 0


def _cmd_constants(ns) -> int:
    b = _parse_basis_arg(ns.basis)
    try:
        ms = parse_ladder(ns.m)
    except Exception as exc:  # noqa: BLE001
        raise _UsageError(f"bad ladder spec {ns.m!r}: {exc}") from exc
    if ns.oracle and ns.estimate:
        raise _UsageError("--oracle and --estimate are mutually exclusive")
    mode = "oracle" if ns.oracle else ("estimate" if ns.estimate else "auto")
    if mode == "oracle" and ns.budget is not None:
        raise _UsageError("--budget has no effect with --oracle: the oracle route takes no budget")
    target = _parse_target_arg(ns.target)

    ladder = lb_ladder(b, ms, kind=ns.kind, mode=mode, budget=ns.budget,
                       seed=ns.seed, guard=ns.guard)
    rows = [(m, val, wit.kind) for m, val, wit in ladder]

    if ns.format == "csv":
        _emit(csv_bytes(ladder_table(rows, target)), ns.out)
    elif ns.format == "svg":
        _emit(svg_polyline([(m, lb) for m, lb, _ in rows],
                           title=b.label, xlabel="m", ylabel="lower bound"), ns.out)
    else:
        doc = {
            "basis": b.label,
            "kind": ns.kind,
            "mode": mode,
            "seed": ns.seed,
            "ladder": ladder_records(rows, target),
        }
        if len(rows) >= 4:
            try:
                doc["fit"] = growth_fit(rows, target).to_doc()
            except Exception as exc:  # noqa: BLE001 - fit is advisory here
                doc["fit_error"] = str(exc)
        _emit(json_bytes(doc), ns.out)
    return 0


def _cmd_greedy_check(ns) -> int:
    b = _parse_basis_arg(ns.basis)
    phi_max = ns.phi_max if ns.phi_max is not None else min(b.d, 8)
    if not (1 <= phi_max <= b.d):
        raise _UsageError(f"--phi-max must lie in 1..{b.d}")
    tol = 1e-9
    checks = []

    qg, _ = quasi_greedy_constant_lb(b, budget=ns.budget, seed=ns.seed)
    checks.append(("quasi-greedy-lb", qg >= 1.0 - tol, f"value {qg:.6g}"))

    ag, _ = almost_greedy_constant_lb(b, budget=max(ns.budget // 4, 64), seed=ns.seed)
    checks.append(("almost-greedy-lb",
                   ag >= 1.0 - tol and np.isfinite(ag),
                   f"value {ag:.6g}"))

    mode = "exact" if b.d <= FUND_EXACT_MAX_D else "search"
    phis = [fundamental_function(b, m, mode=mode, budget=ns.budget, seed=ns.seed)
            for m in range(1, phi_max + 1)]
    mono = all(y >= x - tol for x, y in zip(phis, phis[1:]))
    checks.append(("phi-nondecreasing", mono,
                   f"phi_1..phi_{phi_max} ({mode}): "
                   + ", ".join(f"{v:.4g}" for v in phis)))

    dem = democracy_ratio(b, phi_max, mode=mode, budget=ns.budget, seed=ns.seed)
    checks.append(("democracy-ratio", dem >= 1.0 - tol, f"value {dem:.6g} at m={phi_max}"))

    rows = [("check", "verdict", "detail")] + [
        (name, "PASS" if ok else "FAIL", detail) for name, ok, detail in checks
    ]
    if ns.format == "csv":
        _emit(csv_bytes(rows), ns.out)
    else:
        doc = {
            "basis": b.label,
            "budget": ns.budget,
            "seed": ns.seed,
            "checks": [
                {"check": n, "verdict": v, "detail": d} for n, v, d in rows[1:]
            ],
        }
        _emit(json_bytes(doc), ns.out)
    return 0 if all(ok for _, ok, _ in checks) else 1


def _cmd_experiment(ns) -> int:
    if ns.config is not None:
        if ns.names:
            raise _UsageError("give scenario names or --config, not both")
        if ns.budget is not None:
            raise _UsageError("--budget has no effect with --config: each section sets its own budget")
        try:
            specs = load_scenarios_config(ns.config)
        except Exception as exc:  # noqa: BLE001
            raise _UsageError(f"bad config {ns.config!r}: {exc}") from exc
        if not specs:
            raise _UsageError(f"no [scenario:NAME] sections in {ns.config!r}")
        results = [run_config_scenario(spec) for spec in specs]
        seed = {spec["name"]: spec["seed"] for spec in specs}  # each section runs at its own
    else:
        names = list(ns.names)
        if not names:
            raise _UsageError("name at least one scenario (or 'all', or --config)")
        known = [n for n, _ in list_scenarios()]
        if names == ["all"]:
            names = known
        unknown = [n for n in names if n not in known]
        if unknown:
            raise _UsageError(f"unknown scenario(s): {', '.join(unknown)}")
        results = [run_scenario(n, budget=ns.budget, seed=ns.seed) for n in names]
        seed = ns.seed

    files = {}
    for res in results:
        files.update(result_files(res))
    meta = {
        "command": "experiment",
        "seed": seed,
        "budget": ns.budget,
        "scenarios": {r.name: r.verdict for r in results},
    }
    write_bundle(ns.out, files, meta, timestamp=not ns.no_timestamp)
    for res in results:
        print(f"{res.name}: {res.verdict}")
    print(f"wrote {len(files) + 1} files to {ns.out}", file=sys.stderr)
    return 0 if all(r.verdict == "PASS" for r in results) else 1


def _cmd_list_scenarios(ns) -> int:
    for name, desc in list_scenarios():
        print(f"{name}\t{desc}")
    return 0


_DISPATCH = {
    "construct": _cmd_construct,
    "constants": _cmd_constants,
    "greedy-check": _cmd_greedy_check,
    "experiment": _cmd_experiment,
    "list-scenarios": _cmd_list_scenarios,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    try:
        return _DISPATCH[ns.cmd](ns)
    except (_UsageError, ConditionalityError) as exc:
        sys.stderr.write(parser.format_usage())
        sys.stderr.write(f"condgreedy: error: {exc}\n")
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
