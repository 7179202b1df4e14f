"""List-form RK4 and an unshared numeric compiler: a reference for tests.

`liesym.numeric` generates one straight-line function per system that
runs the whole RK4 loop on scalar locals, binds each repeated Pow or Fn
subtree once per evaluation, and stores the trace in one flat array.
This module keeps the earlier design: each component rendered as its
own expression tree with nothing shared, one compiled call per RK4
stage, lists for the stage states and a list of (s, x, xdot) tuples for
the trace.  Tests assert that both give the same floats, bit for bit,
and the same IntegrationError messages.
"""

import math

from liesym.errors import IntegrationError
from liesym.numeric import _MATH, _SINGULAR, _bound, _state_names, step_count
from liesym.symexpr import render_ratfunc
from liesym.symexpr.nodes import Add, Fn, Mul, Num, Op, Pow, Sym
from liesym.symexpr.poly import RatFunc


def _py_src(e, args):
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
    """f(*values) -> tuple of floats, every subtree computed where it occurs."""
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


def integrate_geodesic(system, function_bindings, initial_position, initial_velocity,
                       step, span):
    """(step, samples): classical RK4, samples a list of (s, x, xdot) tuples."""
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
    return h, samples


def drift_along_samples(rfs, samples, chart, function_bindings=None):
    """Max absolute deviation of each rf from its value at the first sample."""
    f = compile_numeric([_bound(rf, function_bindings) for rf in rfs], _state_names(chart))
    first = None
    worst = [0.0] * len(rfs)
    for s, x, v in samples:
        vals = f(s, *x, *v)
        if first is None:
            first = vals
        else:
            worst = [max(w, abs(val - f0)) for w, val, f0 in zip(worst, vals, first)]
    return worst
