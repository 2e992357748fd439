"""Outside-in span tracer for the condgreedy layers.

The tracer wraps the public functions of each layer module, plus
``BasisTruncation.synth_rows``, and rebinds every module attribute that
refers to a wrapped function, so calls through ``from .spaces import norms``
style imports are counted too.  Each call records a span
``[name, start, end, parent]`` in memory; :meth:`Tracer.summary` turns the
spans into per-name totals at the end of the pass.

Private helpers (``mask_sweep``, ``_prefix_residual_ratios``,
``_ascend_sets``, ...) are not wrapped: their cost is the self time of the
public function that encloses them.  Spans assume one thread
(``CONDGREEDY_THREADS=1``): children of a span are disjoint, so its self
time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("spaces", "bases", "_search", "conditionality", "greedy", "scenarios", "reportio", "cli")

# public basis constructors; their self time is reported as bases.build
BUILDERS = (
    "unit_vector_system",
    "lindenstrauss",
    "summing",
    "difference",
    "interleave",
    "block_sum",
    "pq_block_sum",
    "external_basis",
    "basis_from_doc",
    "parse_basis",
)


def _norms_meter(space, V, *args, **kwargs):
    shape = getattr(V, "shape", ())
    rows = shape[0] if len(shape) == 2 else 0
    return {"rows": rows, "elems": rows * (shape[1] if len(shape) == 2 else 0)}


def _synth_rows_meter(basis, coeff_rows, *args, **kwargs):
    shape = getattr(coeff_rows, "shape", ())
    rows = shape[0] if len(shape) == 2 else 0
    return {"rows": rows, "flops": 2 * rows * basis.d * basis.ambient_dim}


def _pair_chunk_meter(start, stop, *args, **kwargs):
    return {"rows": stop - start}


def _block_meter(block_fn, n_blocks, *args, **kwargs):
    return {"blocks": n_blocks}


def _bundle_meter(outdir, files, *args, **kwargs):
    return {"bytes": sum(len(data) for data in files.values())}


METERS = {
    "spaces.norms": _norms_meter,
    "bases.synth_rows": _synth_rows_meter,
    "_search.pair_chunk": _pair_chunk_meter,
    "_search.parallel_block_max": _block_meter,
    "reportio.write_bundle": _bundle_meter,
}


class Tracer:
    """In-memory span recorder; create one per pass, then :meth:`install`."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = {}  # name -> {counter: total}
        self.enabled = False
        self.rebound = []  # (module, attribute) pairs that now hold a wrapper

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        meter = METERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if meter is not None:
                totals = counters.setdefault(name, {})
                for key, val in meter(*args, **kwargs).items():
                    totals[key] = totals.get(key, 0) + val
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _block_shim(self, original):
        # each block_fn handed to parallel_block_max gets its own span
        def parallel_block_max(block_fn, n_blocks):
            return original(self.wrap("_search.block", block_fn), n_blocks)

        return parallel_block_max

    def install(self) -> None:
        """Wrap every public layer function and rebind all its import sites."""
        pkg = importlib.import_module("condgreedy")
        mods = {layer: importlib.import_module(f"condgreedy.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                target = self._block_shim(fn) if attr == "parallel_block_max" else fn
                wrappers[fn] = self.wrap(f"{layer}.{attr}", target)
        for mod in (pkg, *mods.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self.rebound.append((mod.__name__, attr))
        cls = mods["bases"].BasisTruncation
        cls.synth_rows = self.wrap("bases.synth_rows", cls.synth_rows)

    def summary(self) -> dict:
        """Per span name: calls, total_s, self_s, nested calls and counters."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "nested": 0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_s[i]
            if parent >= 0 and spans[parent][0] == name:
                row["nested"] += 1
        for name, totals in self.counters.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "nested": 0}).update(totals)
        return out
