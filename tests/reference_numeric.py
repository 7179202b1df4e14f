"""List-form RK4 and an unshared numeric compiler: a reference for tests.

`liesym.numeric` generates one straight-line function per system that
runs the whole RK4 loop on scalar locals, binds each repeated power or
function application once per evaluation, and watches functions of the
state at every step without storing a sample.  This module keeps the
earlier design: each component written from its Poly terms with nothing
shared, one compiled call per RK4 stage, lists for the stage states, a
list of (s, x, xdot) tuples for the trace, and the drifts measured over
that list afterwards.  A polynomial is the sum of its terms in descending
monomial order, each the coefficient times its atoms to their powers,
left to right, as the kernel lays it out; a function argument is its
numerator over its denominator.  Tests assert that both give the same
floats, bit for bit, and the same IntegrationError messages, on
functions whose arguments have no denominator.
"""

import math

from liesym.errors import IntegrationError
from liesym.numeric import _MATH, _SINGULAR, _bound, _state_names, step_count


def _number(c):
    return f"({c.numerator}/{c.denominator})"


def _poly_src(p, args):
    terms = []
    for mono, c in p.printed_terms():
        factors = [_number(c)] if c != 1 or not mono else []
        for a, e in mono:
            atom = _atom_src(a, args)
            factors.append(atom if e == 1 else f"({atom} ** ({e}/1))")
        terms.append(factors[0] if len(factors) == 1 else "(" + " * ".join(factors) + ")")
    if not terms:
        return _number(0)
    return terms[0] if len(terms) == 1 else "(" + " + ".join(terms) + ")"


def _atom_src(a, args):
    if a.kind == "sym":
        arg = args.get(a.payload)
        if arg is None:
            raise IntegrationError(
                f"symbol {a.payload} is not an argument of the compiled function")
        return arg
    if a.kind == "op":
        raise IntegrationError(
            f"opaque function {a.payload[0]} must be bound before numeric evaluation")
    if a.kind == "fn":
        name, arg = a.payload
        src = _poly_src(arg.num, args)
        if not arg.den.is_const():
            src = f"({src} / {_poly_src(arg.den, args)})"
        return f"_{name}({src})"
    base, q = a.payload
    return f"({_poly_src(base, args)} ** ({q.numerator}/{q.denominator}))"


def compile_numeric(rfs, names):
    """f(*values) -> tuple of floats, every power and function computed
    where it occurs."""
    args = {name: f"_x{i}" for i, name in enumerate(names)}
    body = []
    for k, rf in enumerate(rfs):
        num_src = _poly_src(rf.num, args)
        if rf.den.is_const():
            body.append(f"        _c{k} = {num_src}")
            continue
        body += [
            f"        _d = {_poly_src(rf.den, args)}",
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
