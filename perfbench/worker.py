"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, scale, seed, pass index, scratch directory and
whether to trace.  ``run.py`` starts this script with ``PYTHONPATH`` set to
the checkout's ``src``.  The script pins the thread settings itself, so an
inherited value cannot leak in, imports condgreedy, builds the workload's bases, records the moment set-up ended
(``time.monotonic``, one clock for every process), runs the pass, checks
every result with the gate and prints one JSON line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

# set before numpy loads: one condgreedy worker, single-threaded BLAS
PINNED_ENV = {
    "CONDGREEDY_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def main() -> int:
    spec = json.loads(sys.argv[1])
    os.environ.update(PINNED_ENV)
    import numpy as np

    import condgreedy as cg
    import condgreedy.cli  # noqa: F401 - cli is not imported by the package root

    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(cg.__file__).startswith(src + os.sep):
        raise SystemExit(f"condgreedy imported from {cg.__file__}, not from {src}")

    import workloads

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
    wl = workloads.WORKLOADS[spec["workload"]]
    ctx = wl.build(cg, spec["scale"], spec["tmp"])
    t_ready = time.monotonic()

    ops = wl.ops(cg, ctx, spec["seed"], spec["pass"])
    # reference slices before every operation and after the last one sample
    # the machine's speed across the whole pass
    slices = len(ops) + 1
    ref_s = 0.0
    wall = 0.0
    results = []
    sink = io.StringIO()  # the CLI's own report lines are not ours to print
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for op in ops:
            ref_s += reference_kernel(slices)
            t0 = time.perf_counter()
            try:
                results.append((op, op.run(), None))
            except Exception as exc:  # noqa: BLE001 - a raising operation is a gate failure
                results.append((op, None, f"{type(exc).__name__}: {exc}"))
            wall += time.perf_counter() - t0
        ref_s += reference_kernel(slices)
    if tracer is not None:
        tracer.enabled = False

    outcomes = []
    for op, result, error in results:
        if error is None:
            try:
                outcomes.extend(op.check(result))
                continue
            except workloads.GateError as exc:
                error = f"GateError: {exc}"
            except Exception as exc:  # noqa: BLE001 - e.g. verify_witness raising
                error = f"{type(exc).__name__}: {exc}"
        outcomes.append(workloads.Outcome(op.label, False, error))

    digest = hashlib.sha256()
    for o in outcomes:
        digest.update(o.label.encode() + b"\0" + o.material + b"\0")
    blas = _blas_info(np)
    out = {
        "t_ready": t_ready,
        "wall_s": wall,
        "ref_s": ref_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": len(outcomes),
        "failures": [f"{o.label}: {o.why}" for o in outcomes if not o.ok],
        "values": [v for o in outcomes if o.ok for v in o.values],
        "fingerprint": digest.hexdigest(),
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas,
            "condgreedy_threads": os.environ.get("CONDGREEDY_THREADS"),
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if tracer is not None:
        out["layers"] = tracer.summary()
    print(json.dumps(out))
    return 0


def reference_kernel(slices: int = 1) -> float:
    """Time 1/slices of a fixed mix of interpreter, small-array and
    large-array work.

    The kernel uses no condgreedy code.  Its time tracks how fast the host
    runs at the moment, which run.py divides out.
    """
    import numpy as np

    small = np.linspace(-1.0, 1.0, 297).reshape(9, 33)
    big = np.linspace(-1.0, 1.0, 1 << 16).reshape(-1, 16)
    t0 = time.perf_counter()
    acc = 0
    for i in range(350_000 // slices):
        acc += i * i
    for _ in range(3500 // slices):
        np.abs(small).max(axis=1)
        (small * small).sum(axis=1)
    for _ in range(max(1, 210 // slices)):
        np.abs(big).sum(axis=1)
    return time.perf_counter() - t0


def _blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
