"""Double-precision evaluation and the RK4 geodesic integrator.

Expressions are compiled once into Python callables; the integrator is
classical fixed-step RK4, which keeps drift measurements deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IntegrationError
from .geometry import GeodesicSystem
from .symexpr import Expr, substitute_function, to_canonical
from .symexpr.canonical import canonical_ratfunc, render_ratfunc
from .symexpr.poly import RatFunc

_SINGULAR = 1e-12

_MATH_NAMES = {
    "sin": "math.sin",
    "cos": "math.cos",
    "exp": "math.exp",
    "ln": "math.log",
    "arctan": "math.atan",
}


def _py_src(e: Expr) -> str:
    from .symexpr.nodes import Add, Fn, Mul, Num, Op, Pow, Sym

    if isinstance(e, Num):
        return f"({e.value.numerator}/{e.value.denominator})"
    if isinstance(e, Sym):
        return f"_v[{e.name!r}]"
    if isinstance(e, Add):
        return "(" + " + ".join(_py_src(t) for t in e.terms) + ")"
    if isinstance(e, Mul):
        return "(" + " * ".join(_py_src(f) for f in e.factors) + ")"
    if isinstance(e, Pow):
        q = e.exponent
        return f"({_py_src(e.base)} ** ({q.numerator}/{q.denominator}))"
    if isinstance(e, Fn):
        fn = _MATH_NAMES.get(e.name)
        if fn is None:
            raise IntegrationError(f"cannot compile function {e.name}")
        return f"{fn}({_py_src(e.arg)})"
    if isinstance(e, Op):
        raise IntegrationError(
            f"opaque function {e.name} must be bound before numeric evaluation"
        )
    raise TypeError(f"unknown node {e!r}")


def compile_numeric(e: Expr):
    """Compile an expression into f(values: dict) -> float with a
    singular-denominator guard on the canonical denominator."""
    rf = canonical_ratfunc(to_canonical(e))
    num_src = _py_src(render_ratfunc(RatFunc.from_poly(rf.num)))
    num_fn = eval(f"lambda _v: {num_src}", {"math": math})
    den_fn = None
    if not rf.den.is_const():
        den_src = _py_src(render_ratfunc(RatFunc.from_poly(rf.den)))
        den_fn = eval(f"lambda _v: {den_src}", {"math": math})

    def call(values):
        try:
            if den_fn is None:
                return num_fn(values)
            d = den_fn(values)
            if abs(d) < _SINGULAR:
                raise IntegrationError("denominator within 1e-12 of zero")
            return num_fn(values) / d
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise IntegrationError(f"numeric evaluation failed: {exc}")

    return call


@dataclass
class GeodesicTrace:
    """Fixed-step trace; samples are (s, coordinates, velocities)."""

    step: float
    samples: list


def integrate_geodesic(system: GeodesicSystem, function_bindings: dict,
                       initial_position, initial_velocity,
                       step: float, span: float) -> GeodesicTrace:
    """Classical RK4 on xddot^i = G^i(s, x, xdot).

    `function_bindings` instantiates every opaque function (name ->
    expression in its declared arguments).  Raises IntegrationError on
    near-singular denominators or non-finite state.
    """
    chart = system.chart
    n = chart.dim
    if len(initial_position) != n or len(initial_velocity) != n:
        raise IntegrationError(f"initial state must have {n} + {n} numbers")
    rhs_exprs = [
        substitute_function(g, function_bindings) if function_bindings else to_canonical(g)
        for g in system.rhs
    ]
    rhs = [compile_numeric(g) for g in rhs_exprs]
    names = [chart.param, *chart.coords, *chart.jets1]

    def accel(s, x, v):
        values = dict(zip(names, [s, *x, *v]))
        return [f(values) for f in rhs]

    steps = int(round(span / step))
    x = [float(c) for c in initial_position]
    v = [float(c) for c in initial_velocity]
    s = 0.0
    samples = [(s, tuple(x), tuple(v))]
    h = float(step)
    for k in range(steps):
        a1 = accel(s, x, v)
        k1x, k1v = v, a1
        x2 = [xi + 0.5 * h * d for xi, d in zip(x, k1x)]
        v2 = [vi + 0.5 * h * d for vi, d in zip(v, k1v)]
        a2 = accel(s + 0.5 * h, x2, v2)
        k2x, k2v = v2, a2
        x3 = [xi + 0.5 * h * d for xi, d in zip(x, k2x)]
        v3 = [vi + 0.5 * h * d for vi, d in zip(v, k2v)]
        a3 = accel(s + 0.5 * h, x3, v3)
        k3x, k3v = v3, a3
        x4 = [xi + h * d for xi, d in zip(x, k3x)]
        v4 = [vi + h * d for vi, d in zip(v, k3v)]
        a4 = accel(s + h, x4, v4)
        k4x, k4v = v4, a4
        x = [
            xi + h / 6.0 * (d1 + 2 * d2 + 2 * d3 + d4)
            for xi, d1, d2, d3, d4 in zip(x, k1x, k2x, k3x, k4x)
        ]
        v = [
            vi + h / 6.0 * (d1 + 2 * d2 + 2 * d3 + d4)
            for vi, d1, d2, d3, d4 in zip(v, k1v, k2v, k3v, k4v)
        ]
        s = (k + 1) * h
        if not all(math.isfinite(c) for c in (*x, *v)):
            raise IntegrationError(f"non-finite state at s = {s}")
        samples.append((s, tuple(x), tuple(v)))
    return GeodesicTrace(step=h, samples=samples)


def drift_along_trace(e: Expr, trace: GeodesicTrace, chart,
                      function_bindings: dict | None = None) -> float:
    """Max absolute deviation of e(s, x, xdot) from its initial value."""
    expr = substitute_function(e, function_bindings) if function_bindings else to_canonical(e)
    f = compile_numeric(expr)
    names = [chart.param, *chart.coords, *chart.jets1]
    first = None
    worst = 0.0
    for s, x, v in trace.samples:
        val = f(dict(zip(names, [s, *x, *v])))
        if first is None:
            first = val
        else:
            worst = max(worst, abs(val - first))
    return worst
