"""Double-precision evaluation and the RK4 geodesic integrator.

`compile_numeric` compiles a system of canonical RatFuncs once into one
Python function of positional floats that returns every component.
Each numerator and denominator is rendered to Python source as its
expression tree, with no rewriting or reassociation, so a value is the
same float however many components share the function.  Components are
evaluated in order, each as: its denominator, the guard
|denominator| < 1e-12, then its numerator divided by the denominator.
The integrator is classical fixed-step RK4, which keeps drift
measurements deterministic; it calls the compiled right-hand side once
per stage, and `drift_along_trace` evaluates every watched function in
one compiled call per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IntegrationError
from .geometry import GeodesicSystem
from .symexpr import Expr, render_ratfunc, substitute_function
from .symexpr.poly import RatFunc

_SINGULAR = 1e-12
# span/step above this is rejected before any step is taken: every
# sample is stored, and 10^6 samples on a four-dimensional chart take
# about 0.4 GB.
MAX_STEPS = 10**6

# Kernel function name -> math function, a global `_<name>` of the
# compiled code.
_MATH = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "ln": math.log,
    "arctan": math.atan,
}


def _py_src(e: Expr, args: dict) -> str:
    """Python source of a tree; `args` maps a symbol to its parameter."""
    from .symexpr.nodes import Add, Fn, Mul, Num, Op, Pow, Sym

    if isinstance(e, Num):
        return f"({e.value.numerator}/{e.value.denominator})"
    if isinstance(e, Sym):
        arg = args.get(e.name)
        if arg is None:
            raise IntegrationError(f"symbol {e.name} is not an argument of the compiled function")
        return arg
    if isinstance(e, Add):
        return "(" + " + ".join(_py_src(t, args) for t in e.terms) + ")"
    if isinstance(e, Mul):
        return "(" + " * ".join(_py_src(f, args) for f in e.factors) + ")"
    if isinstance(e, Pow):
        q = e.exponent
        return f"({_py_src(e.base, args)} ** ({q.numerator}/{q.denominator}))"
    if isinstance(e, Fn):
        if e.name not in _MATH:
            raise IntegrationError(f"cannot compile function {e.name}")
        return f"_{e.name}({_py_src(e.arg, args)})"
    if isinstance(e, Op):
        raise IntegrationError(
            f"opaque function {e.name} must be bound before numeric evaluation"
        )
    raise TypeError(f"unknown node {e!r}")


def compile_numeric(rfs, names):
    """Compile canonical RatFuncs into f(*values) -> tuple of floats.

    `names` are the symbols bound, in order, to the positional
    arguments.  A denominator within 1e-12 of zero, and a ValueError,
    OverflowError or ZeroDivisionError of the arithmetic, raise
    IntegrationError from the first component that meets one."""
    args = {name: f"_x{i}" for i, name in enumerate(names)}
    body = []
    for k, rf in enumerate(rfs):
        num_src = _py_src(render_ratfunc(RatFunc.from_poly(rf.num)), args)
        if rf.den.is_const():
            body.append(f"        _c{k} = {num_src}")
            continue
        den_src = _py_src(render_ratfunc(RatFunc.from_poly(rf.den)), args)
        body += [
            f"        _d = {den_src}",
            "        if abs(_d) < _SINGULAR:",
            "            raise IntegrationError('denominator within 1e-12 of zero')",
            f"        _c{k} = {num_src} / _d",
        ]
    outputs = "".join(f"_c{k}, " for k in range(len(rfs)))
    src = "\n".join([
        f"def _compiled({', '.join(args.values())}):",
        "    try:",
        *(body or ["        pass"]),
        "    except (ValueError, OverflowError, ZeroDivisionError) as exc:",
        "        raise IntegrationError(f'numeric evaluation failed: {exc}')",
        f"    return ({outputs})",
    ])
    scope = {f"_{name}": fn for name, fn in _MATH.items()}
    scope.update(IntegrationError=IntegrationError, _SINGULAR=_SINGULAR)
    exec(src, scope)
    return scope["_compiled"]


@dataclass
class GeodesicTrace:
    """Fixed-step trace; samples are (s, coordinates, velocities)."""

    step: float
    samples: list


def step_count(step: float, span: float) -> int:
    """round(span / step), the number of RK4 steps, at most MAX_STEPS."""
    ratio = span / step
    if not (math.isfinite(ratio) and round(ratio) <= MAX_STEPS):
        raise IntegrationError(f"span/step = {ratio!r} is not a step count <= {MAX_STEPS}")
    return round(ratio)


def _state_names(chart) -> list:
    return [chart.param, *chart.coords, *chart.jets1]


def _bound(rf: RatFunc, function_bindings) -> RatFunc:
    return substitute_function(rf, function_bindings) if function_bindings else rf


def integrate_geodesic(system: GeodesicSystem, function_bindings: dict,
                       initial_position, initial_velocity,
                       step: float, span: float) -> GeodesicTrace:
    """Classical RK4 on xddot^i = G^i(s, x, xdot).

    `function_bindings` instantiates every opaque function (name ->
    RatFunc in its declared arguments).  Raises IntegrationError on a
    span/step over MAX_STEPS, near-singular denominators or non-finite
    state.
    """
    chart = system.chart
    n = chart.dim
    if len(initial_position) != n or len(initial_velocity) != n:
        raise IntegrationError(f"initial state must have {n} + {n} numbers")
    steps = step_count(step, span)
    accel = compile_numeric([_bound(g, function_bindings) for g in system.accelerations],
                            _state_names(chart))
    isfinite = math.isfinite
    x = [float(c) for c in initial_position]
    v = [float(c) for c in initial_velocity]
    s = 0.0
    samples = [(s, tuple(x), tuple(v))]
    h = float(step)
    # (0.5 * h) * d and (h / 6.0) * (...) are how Python groups
    # 0.5 * h * d and h / 6.0 * (...), so hoisting them is exact.
    half = 0.5 * h
    sixth = h / 6.0
    for k in range(steps):
        a1 = accel(s, *x, *v)
        x2 = [xi + half * d for xi, d in zip(x, v)]
        v2 = [vi + half * d for vi, d in zip(v, a1)]
        a2 = accel(s + half, *x2, *v2)
        x3 = [xi + half * d for xi, d in zip(x, v2)]
        v3 = [vi + half * d for vi, d in zip(v, a2)]
        a3 = accel(s + half, *x3, *v3)
        x4 = [xi + h * d for xi, d in zip(x, v3)]
        v4 = [vi + h * d for vi, d in zip(v, a3)]
        a4 = accel(s + h, *x4, *v4)
        x = [
            xi + sixth * (d1 + 2 * d2 + 2 * d3 + d4)
            for xi, d1, d2, d3, d4 in zip(x, v, v2, v3, v4)
        ]
        v = [
            vi + sixth * (d1 + 2 * d2 + 2 * d3 + d4)
            for vi, d1, d2, d3, d4 in zip(v, a1, a2, a3, a4)
        ]
        s = (k + 1) * h
        if not (all(map(isfinite, x)) and all(map(isfinite, v))):
            raise IntegrationError(f"non-finite state at s = {s}")
        samples.append((s, tuple(x), tuple(v)))
    return GeodesicTrace(step=h, samples=samples)


def drift_along_trace(rfs, trace: GeodesicTrace, chart,
                      function_bindings: dict | None = None) -> list:
    """Max absolute deviation of each rf(s, x, xdot) in `rfs` from its
    initial value, all evaluated by one compiled call per sample."""
    f = compile_numeric([_bound(rf, function_bindings) for rf in rfs], _state_names(chart))
    first = None
    worst = [0.0] * len(rfs)
    for s, x, v in trace.samples:
        vals = f(s, *x, *v)
        if first is None:
            first = vals
        else:
            worst = [max(w, abs(val - f0)) for w, val, f0 in zip(worst, vals, first)]
    return worst
