"""Span tracer for the liesym CLI, installed from outside the program.

Run one traced command as

    python3 perfbench/tracer.py TRACE_FILE <liesym arguments...>

with `src` on PYTHONPATH.  The tracer wraps the public functions of each
liesym module at every module-level name they are imported under, runs
`liesym.cli.main`, and writes its spans and counters to TRACE_FILE as
JSON.  It writes nothing to stdout, so the command's stdout is the same
as without it.  Spans are (name, start, end, parent); the command id is
the file's.  The parent process passes the moment it spawned this
process in PERFBENCH_T0 (CLOCK_MONOTONIC is shared by all processes), so
the `startup` span covers interpreter start and `import liesym.cli`.

`pass_metrics` turns the trace files of one pass over a workload into
per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import types

LAYERS = ("files", "geometry", "jets", "symmetry", "linalg", "liealg",
          "optimal", "numeric", "reporting")
KERNEL = "symexpr"
KERNEL_MODULES = ("calculus", "canonical", "nodes", "parser", "printer", "poly")
# Counted on every call, the kernel's own recursion included, without spans.
COUNT_ONLY = ("poly_gcd",)


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _fields_verified(counters, args, result):
    _add(counters, "symmetry.fields_verified", 1)
    _add(counters, "symmetry.fields_passed", bool(result.passed))


def _nullspace_sizes(counters, args, result):
    rows, ncols = args[0], args[1]
    _add(counters, "linalg.rows", len(rows))
    _add(counters, "linalg.cols", ncols)
    _add(counters, "linalg.nnz", sum(len(r) for r in rows))
    _add(counters, "linalg.nullity", len(result))


def _optimal_cover(counters, args, result):
    _add(counters, "optimal.matched_total", result["matched_total"])
    _add(counters, "optimal.valid_total", result["valid_total"])


# Sizes read from a layer call's arguments and result.
HOOKS = {
    "symmetry.determining_system":
        lambda c, a, r: _add(c, "symmetry.determining_equations", len(r)),
    "symmetry.default_ansatz": lambda c, a, r: _add(c, "symmetry.ansatz_size", len(r)),
    "symmetry.verify_liepoint": _fields_verified,
    "symmetry.verify_noether": _fields_verified,
    "linalg.sparse_nullspace": _nullspace_sizes,
    "optimal.verify_optimal_cover": _optimal_cover,
    "numeric.integrate_geodesic":
        lambda c, a, r: _add(c, "numeric.rk4_steps", len(r.samples) - 1),
    "symexpr.is_zero": lambda c, a, r: _add(c, "symexpr.is_zero.true", bool(r)),
}


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = []

    def span(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = HOOKS.get(name)
        clock = time.monotonic

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Replace public functions by traced ones at every module-level name.

        Layer functions are replaced in every liesym module, their own
        included, so calls inside a layer are spans too.  Kernel
        functions are replaced only outside the kernel: a kernel span is
        an entry into the kernel, not a step of its recursion."""
        layer_mods = [importlib.import_module(f"liesym.{m}") for m in LAYERS]
        kernel_pkg = importlib.import_module(f"liesym.{KERNEL}")
        kernel_mods = [importlib.import_module(f"liesym.{KERNEL}.{m}") for m in KERNEL_MODULES]
        outside = [importlib.import_module("liesym.cli"), kernel_pkg, *layer_mods]

        replace = {}
        for layer, mod in zip(LAYERS, layer_mods):
            for name, fn in _public_functions(mod):
                replace[id(fn)] = self.span(f"{layer}.{name}", fn)
        counted = {}
        for mod in kernel_mods:
            for name, fn in _public_functions(mod):
                if name in COUNT_ONLY:
                    counted[id(fn)] = self.count(f"{KERNEL}.{name}.calls", fn)
                else:
                    replace[id(fn)] = self.span(f"{KERNEL}.{name}", fn)
        replace.update(counted)
        for mod in outside:
            _rebind(mod, replace)
        for mod in kernel_mods:
            _rebind(mod, counted)
        poly = importlib.import_module(f"liesym.{KERNEL}.poly")
        poly.Poly.__mul__ = self.count(f"{KERNEL}.poly_mul.calls", poly.Poly.__mul__)

    def dump(self, path, t0, t_end):
        with open(path, "w") as fh:
            json.dump({"t0": t0, "t_end": t_end, "spans": self.spans,
                       "counters": self.counters}, fh)


def _public_functions(mod):
    for name, obj in list(vars(mod).items()):
        if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                and obj.__module__ == mod.__name__):
            yield name, obj


def _rebind(mod, replace):
    for name, obj in list(vars(mod).items()):
        wrapper = replace.get(id(obj))
        if wrapper is not None:
            setattr(mod, name, wrapper)


# ---------------------------------------------------------------------------
# Per-layer metrics from the trace files of one pass.

def _span_times(spans):
    """Per span: name, layer, duration, self time, whether no ancestor has
    its name, whether no ancestor is in its layer, and its parent."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        outer_name = outer_layer = True
        p = parent
        while p >= 0 and (outer_name or outer_layer):
            pname = spans[p][0]
            outer_name &= pname != name
            outer_layer &= pname.split(".", 1)[0] != layer
            p = spans[p][3]
        yield name, layer, end - start, end - start - child[i], outer_name, outer_layer, parent


def pass_metrics(trace_paths) -> dict:
    """Sums over the commands of one pass.

    For a span name N: `N.s` is the time inside its outermost spans,
    `N.self_s` that time minus child spans, `N.calls` its call count.
    For a layer L: `L.s` is the time inside its outermost spans.
    Counters and ratios keep their own names; `trace.coverage` is the
    lowest share of a command's wall time covered by top-level spans.
    A name that does not occur was not reached and reads 0."""
    m = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    coverage = 1.0
    for path in trace_paths:
        with open(path) as fh:
            trace = json.load(fh)
        top = 0.0
        for name, layer, dur, own, outer_name, outer_layer, parent in _span_times(trace["spans"]):
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", own)
            if outer_name:
                add(f"{name}.s", dur)
            if outer_layer:
                add(f"{layer}.s", dur)
            if parent < 0:
                top += dur
        coverage = min(coverage, top / (trace["t_end"] - trace["t0"]))
        for key, value in trace["counters"].items():
            add(key, value)

    def ratio(num, den):
        return m.get(num, 0) / m[den] if m.get(den) else 0.0

    m["files.load.s"] = m.get("files.s", 0.0)
    m["symmetry.pass_ratio"] = ratio("symmetry.fields_passed", "symmetry.fields_verified")
    m["optimal.matched_ratio"] = ratio("optimal.matched_total", "optimal.valid_total")
    m["symexpr.is_zero.true_ratio"] = ratio("symexpr.is_zero.true", "symexpr.is_zero.calls")
    m["trace.coverage"] = coverage
    return m


def main(argv):
    t0 = float(os.environ.get("PERFBENCH_T0", time.monotonic()))
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    import liesym.cli

    tracer.spans.append(["startup", t0, time.monotonic(), -1])
    tracer.install()
    code = 1
    try:
        code = liesym.cli.main(cli_args)
    finally:
        tracer.dump(trace_path, t0, time.monotonic())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
