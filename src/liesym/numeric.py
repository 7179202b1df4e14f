"""Double-precision evaluation and the RK4 geodesic integrator.

One code generator serves every numeric entry point.  It renders a
system of canonical RatFuncs as straight-line Python statements, one
component after another, each as: its denominator `_d`, the guard
|_d| < 1e-12, then its numerator divided by `_d` (a constant denominator
has neither).  Numerators and denominators are rendered as their
expression trees with no rewriting or reassociation (`x ** (2/1)` stays
a pow), so a value is the same float however the code around it is laid
out.  A Pow or Fn subtree that occurs more than once in one evaluation
is computed once: its first occurrence binds it, `(_tK := ...)`, and
later ones read `_tK`.  The memo is keyed on the tree node, and a
denominator is rendered before its numerator, the order in which they
run, so every binding precedes its uses.

`compile_numeric` wraps one such body into a function of positional
floats that returns every component.  `integrate_geodesic` is classical
fixed-step RK4 (Hairer, Norsett & Wanner, Solving ODEs I, II.1), which
keeps drift measurements deterministic.  It generates one function per
system that runs the whole loop on scalar locals, with the body inlined
once per stage, and appends every sample (s, x, xdot) to one flat
array('d'); `GeodesicTrace.samples` is a read-only view over it.
`drift_along_trace` evaluates every watched function in one compiled
call per sample, reading the flat array directly.
"""

from __future__ import annotations

import math
import operator
from array import array

from .errors import IntegrationError
from .geometry import GeodesicSystem
from .symexpr import render_ratfunc, substitute_function
from .symexpr.nodes import Add, Fn, Mul, Num, Op, Pow, Sym
from .symexpr.poly import RatFunc

_SINGULAR = 1e-12
# span/step above this is rejected before any step is taken: every
# sample is stored, and 10^6 samples on a four-dimensional chart take
# 10^6 x 9 doubles, about 72 MB.
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
_SCOPE = {f"_{name}": fn for name, fn in _MATH.items()}
_SCOPE.update(IntegrationError=IntegrationError, _SINGULAR=_SINGULAR,
              _isfinite=math.isfinite)


def _trees(rfs) -> list:
    """(numerator tree, denominator tree or None) per RatFunc."""
    return [
        (render_ratfunc(RatFunc.from_poly(rf.num)),
         None if rf.den.is_const() else render_ratfunc(RatFunc.from_poly(rf.den)))
        for rf in rfs
    ]


def _tally(e, args: dict, counts: dict) -> None:
    """Count the rendered occurrences of each Pow and Fn subtree of `e`,
    and reject what cannot compile, first offender first.

    A repeated subtree renders as a name, so its inside is counted once."""
    if isinstance(e, Num):
        return
    if isinstance(e, Sym):
        if e.name not in args:
            raise IntegrationError(f"symbol {e.name} is not an argument of the compiled function")
        return
    if isinstance(e, (Add, Mul)):
        for sub in (e.terms if isinstance(e, Add) else e.factors):
            _tally(sub, args, counts)
        return
    if isinstance(e, Fn) and e.name not in _MATH:
        raise IntegrationError(f"cannot compile function {e.name}")
    if isinstance(e, (Pow, Fn)):
        seen = counts.get(e, 0)
        counts[e] = seen + 1
        if not seen:
            _tally(e.base if isinstance(e, Pow) else e.arg, args, counts)
        return
    if isinstance(e, Op):
        raise IntegrationError(
            f"opaque function {e.name} must be bound before numeric evaluation"
        )
    raise TypeError(f"unknown node {e!r}")


def _py_src(e, args: dict, counts: dict, bound: dict) -> str:
    """Python source of a tallied tree; `args` maps a symbol to its
    variable, `bound` the repeated subtrees rendered so far to theirs."""
    if isinstance(e, Num):
        return f"({e.value.numerator}/{e.value.denominator})"
    if isinstance(e, Sym):
        return args[e.name]
    if isinstance(e, Add):
        return "(" + " + ".join(_py_src(t, args, counts, bound) for t in e.terms) + ")"
    if isinstance(e, Mul):
        return "(" + " * ".join(_py_src(f, args, counts, bound) for f in e.factors) + ")"
    name = bound.get(e)
    if name is not None:
        return name
    if isinstance(e, Pow):
        q = e.exponent
        src = f"({_py_src(e.base, args, counts, bound)} ** ({q.numerator}/{q.denominator}))"
    else:
        src = f"_{e.name}({_py_src(e.arg, args, counts, bound)})"
    if counts[e] < 2:
        return src
    name = bound[e] = f"_t{len(bound)}"
    return f"({name} := {src})"


def _emit(trees, args: dict, outputs, indent: str) -> list:
    """Statements that assign component k of `trees` to outputs[k]."""
    counts = {}
    for num, den in trees:
        _tally(num, args, counts)
        if den is not None:
            _tally(den, args, counts)
    bound = {}
    lines = []
    for out, (num, den) in zip(outputs, trees):
        if den is None:
            lines.append(f"{out} = {_py_src(num, args, counts, bound)}")
            continue
        lines += [
            f"_d = {_py_src(den, args, counts, bound)}",
            "if abs(_d) < _SINGULAR:",
            "    raise IntegrationError('denominator within 1e-12 of zero')",
            f"{out} = {_py_src(num, args, counts, bound)} / _d",
        ]
    return [indent + line for line in lines]


def _define(name: str, params, body):
    """exec `def name(params)` whose body is one try around `body`."""
    src = "\n".join([
        f"def {name}({', '.join(params)}):",
        "    try:",
        *body,
        "    except (ValueError, OverflowError, ZeroDivisionError, TypeError) as exc:",
        "        raise IntegrationError(f'numeric evaluation failed: {exc}')",
    ])
    scope = dict(_SCOPE)
    exec(src, scope)
    return scope[name]


def compile_numeric(rfs, names):
    """Compile canonical RatFuncs into f(*values) -> tuple of floats.

    `names` are the symbols bound, in order, to the positional
    arguments.  A denominator within 1e-12 of zero, and a ValueError,
    OverflowError, ZeroDivisionError or TypeError (a complex value that
    reaches a float operation) of the arithmetic, raise IntegrationError
    from the first component that meets one."""
    args = {name: f"_x{i}" for i, name in enumerate(names)}
    outputs = [f"_c{k}" for k in range(len(rfs))]
    body = _emit(_trees(rfs), args, outputs, " " * 8)
    body.append(f"        return ({''.join(o + ', ' for o in outputs)})")
    return _define("_compiled", args.values(), body)


class TraceSamples:
    """Read-only sequence view of a flat trace: item k is the sample
    (s, x, xdot), with x and xdot tuples of `dim` floats."""

    __slots__ = ("_flat", "_dim")

    def __init__(self, flat: array, dim: int):
        self._flat = flat
        self._dim = dim

    def __len__(self) -> int:
        return len(self._flat) // (1 + 2 * self._dim)

    def __getitem__(self, k):
        n = len(self)
        k = operator.index(k)
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError("trace sample index out of range")
        return self._sample(k * (1 + 2 * self._dim))

    def __iter__(self):
        for i in range(0, len(self._flat), 1 + 2 * self._dim):
            yield self._sample(i)

    def _sample(self, i: int):
        f, d = self._flat, self._dim
        return f[i], tuple(f[i + 1:i + 1 + d]), tuple(f[i + 1 + d:i + 1 + 2 * d])


class GeodesicTrace:
    """Fixed-step trace of a geodesic on a `dim`-dimensional chart.

    `flat` holds sample k as s, x^0..x^(dim-1), xdot^0..xdot^(dim-1) at
    offset k * (1 + 2 * dim)."""

    def __init__(self, step: float, dim: int, flat: array):
        self.step = step
        self.dim = dim
        self.flat = flat

    @property
    def samples(self) -> TraceSamples:
        return TraceSamples(self.flat, self.dim)


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


def _rk4_loop(trees, names, n: int):
    """f(s, x..., v..., h, steps, out): `steps` RK4 steps of xddot = the
    components of `trees`, appending each new sample to `out`.

    `names` are the parameter, coordinate and velocity symbols.  Each
    stage evaluates the accelerations inline; the arithmetic is that of
    xi + half * d and xi + sixth * (d1 + 2 * d2 + 2 * d3 + d4) per
    component, as a list-based RK4 writes it."""
    pad = " " * 12

    def local(prefix):
        return [f"{prefix}{i}" for i in range(n)]

    x, v = local("x"), local("v")
    x2, v2, x3, v3, x4, v4 = map(local, ("x2_", "v2_", "x3_", "v3_", "x4_", "v4_"))
    a1, a2, a3, a4 = map(local, ("a1_", "a2_", "a3_", "a4_"))

    def stage(s, xs, vs, acc):
        return _emit(trees, dict(zip(names, [s, *xs, *vs])), acc, pad)

    def move(dst, base, coef, slope):
        return [f"{pad}{d} = {b} + {coef} * {m}" for d, b, m in zip(dst, base, slope)]

    def combine(dst, k1, k2, k3, k4):
        return [f"{pad}{d} = {d} + sixth * ({p} + 2 * {q} + 2 * {r} + {t})"
                for d, p, q, r, t in zip(dst, k1, k2, k3, k4)]

    state = [*x, *v]
    body = [
        "        half = 0.5 * h",
        "        sixth = h / 6.0",
        "        for k in range(steps):",
        *stage("s", x, v, a1),
        *move(x2, x, "half", v), *move(v2, v, "half", a1),
        f"{pad}s2 = s + half",
        *stage("s2", x2, v2, a2),
        *move(x3, x, "half", v2), *move(v3, v, "half", a2),
        *stage("s2", x3, v3, a3),
        *move(x4, x, "h", v3), *move(v4, v, "h", a3),
        f"{pad}s4 = s + h",
        *stage("s4", x4, v4, a4),
        # Every new position reads the old velocity, so positions go first.
        *combine(x, v, v2, v3, v4),
        *combine(v, a1, a2, a3, a4),
        f"{pad}s = (k + 1) * h",
        f"{pad}if not ({' and '.join(f'_isfinite({z})' for z in state)}):",
        f"{pad}    raise IntegrationError(f'non-finite state at s = {{s}}')",
        f"{pad}out.extend((s, {', '.join(state)}))",
    ]
    return _define("_rk4", ["s", *state, "h", "steps", "out"], body)


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
    trees = _trees([_bound(g, function_bindings) for g in system.accelerations])
    rk4 = _rk4_loop(trees, _state_names(chart), n)
    state = [0.0, *map(float, initial_position), *map(float, initial_velocity)]
    flat = array("d", state)
    h = float(step)
    rk4(*state, h, steps, flat)
    return GeodesicTrace(step=h, dim=n, flat=flat)


def drift_along_trace(rfs, trace: GeodesicTrace, chart,
                      function_bindings: dict | None = None) -> list:
    """Max absolute deviation of each rf(s, x, xdot) in `rfs` from its
    initial value, all evaluated by one compiled call per sample."""
    names = _state_names(chart)
    f = compile_numeric([_bound(rf, function_bindings) for rf in rfs], names)
    rows = zip(*[iter(trace.flat)] * len(names))
    first = f(*next(rows))
    worst = [0.0] * len(rfs)
    for row in rows:
        vals = f(*row)
        worst = [max(w, abs(val - f0)) for w, val, f0 in zip(worst, vals, first)]
    return worst
