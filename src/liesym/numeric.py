"""Double-precision evaluation and the RK4 geodesic integrator.

One code generator serves every numeric entry point.  It writes a
system of canonical RatFuncs as straight-line Python statements, one
component after another, each as: its denominator `_d`, the guard
`-1e-12 < _d < 1e-12` (|_d| < 1e-12 for every float, NaN included,
with both bounds constants of the code), then its numerator divided by
`_d` (a constant denominator has neither).  Numerator and denominator
are written term by term as their printed text reads, with no
rewriting or reassociation (`x ** (2/1)` stays a pow), so a value is
the same float however the code around it is laid out.  A power of an
atom, a fractional-power atom or a function application that occurs
more than once in one evaluation is computed once: its first
occurrence binds it, `(_tK := ...)`, and later ones read `_tK`.  The
memo is keyed on the atom, on (atom, exponent), which atom interning
makes exact, and, for the inverse of a sum in a function argument, on
(its Poly, -1).  A denominator is written before its numerator, the
order in which they run, so every binding precedes its uses.

`compile_numeric` wraps one such body into a function of positional
floats that returns every component.  `integrate_geodesic` is classical
fixed-step RK4 (Hairer, Norsett & Wanner, Solving ODEs I, II.1), which
keeps drift measurements deterministic.  It generates one function per
system that runs the whole loop on scalar locals, with the body inlined
once per stage, and appends every sample (s, x, xdot) to one flat
array('d'); `GeodesicTrace.samples` is a read-only view over it.
`drift_along_trace` evaluates the watched functions at the first sample
with `compile_numeric`, then generates one loop from the same body that
runs over every later sample of the flat array and keeps each running
maximum deviation in a local.
"""

from __future__ import annotations

import math
import operator
from array import array

from .errors import IntegrationError
from .geometry import GeodesicSystem
from .symexpr import substitute_function
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
_SCOPE.update(IntegrationError=IntegrationError, _isfinite=math.isfinite)


class _Source:
    """Python source of Polys and RatFuncs, term by term as they print.

    It runs twice over one system: a counting pass that tallies each
    shared node (function application, fractional-power atom, power of
    an atom, inverse of a denominator) and rejects what cannot compile,
    first offender first, then an emitting pass that binds each node met
    more than once at its first use.  A repeated node is written as a
    name, so its inside is counted once."""

    def __init__(self, args: dict):
        self.args = args
        self.counts = {}
        self.bound = None  # node -> name, once emitting

    def shared(self, key, build) -> str:
        if self.bound is None:
            seen = self.counts.get(key, 0)
            self.counts[key] = seen + 1
            return "" if seen else build()
        name = self.bound.get(key)
        if name is not None:
            return name
        src = build()
        if self.counts[key] < 2:
            return src
        name = self.bound[key] = f"_t{len(self.bound)}"
        return f"({name} := {src})"

    def poly(self, p) -> str:
        if not p.terms:
            return "(0/1)"
        terms = [self.product(self.factors(m, c)) for m, c in p.printed_terms()]
        return terms[0] if len(terms) == 1 else "(" + " + ".join(terms) + ")"

    def factors(self, mono, c) -> list:
        head = [f"({c.numerator}/{c.denominator})"] if c != 1 or not mono else []
        return head + [self.power(a, e) for a, e in mono]

    @staticmethod
    def product(factors) -> str:
        return factors[0] if len(factors) == 1 else "(" + " * ".join(factors) + ")"

    def power(self, a, e: int) -> str:
        if e == 1:
            return self.atom(a)
        return self.shared((a, e), lambda: f"({self.atom(a)} ** ({e}/1))")

    def atom(self, a) -> str:
        if a.kind == "sym":
            name = self.args.get(a.payload)
            if name is None:
                raise IntegrationError(
                    f"symbol {a.payload} is not an argument of the compiled function")
            return name
        if a.kind == "op":
            raise IntegrationError(
                f"opaque function {a.payload[0]} must be bound before numeric evaluation")
        if a.kind == "fn":
            fname, arg = a.payload
            return self.shared(a, lambda: f"_{fname}({self.ratfunc(arg)})")
        base, q = a.payload
        return self.shared(a, lambda: f"({self.poly(base)} ** ({q.numerator}/{q.denominator}))")

    def ratfunc(self, rf) -> str:
        """A function argument: over a monomial, the numerator times
        each atom to its negative power; over a sum, the numerator's
        factors times the sum to the power -1."""
        num, den = rf.num, rf.den
        if den.is_const():
            return self.poly(num)
        if len(den.terms) == 1:
            (mono, _), = den.terms.items()
            one = num.is_const() and num.const_value() == 1
            factors = [] if one else [self.poly(num)]
            factors += [self.power(a, -e) for a, e in mono]
        else:
            factors = self.factors(*num.rational_terms()[0]) if len(num.terms) == 1 \
                else [self.poly(num)]
            factors.append(self.shared((den, -1), lambda: f"({self.poly(den)} ** (-1/1))"))
        return self.product(factors)


def _emit(rfs, args: dict, outputs, indent: str) -> list:
    """Statements that assign component k of `rfs` to outputs[k]."""
    src = _Source(args)
    for rf in rfs:
        src.poly(rf.num)
        if not rf.den.is_const():
            src.poly(rf.den)
    src.bound = {}
    lines = []
    for out, rf in zip(outputs, rfs):
        if rf.den.is_const():
            lines.append(f"{out} = {src.poly(rf.num)}")
            continue
        lines += [
            f"_d = {src.poly(rf.den)}",
            f"if {-_SINGULAR!r} < _d < {_SINGULAR!r}:",
            "    raise IntegrationError('denominator within 1e-12 of zero')",
            f"{out} = {src.poly(rf.num)} / _d",
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
    body = _emit(rfs, args, outputs, " " * 8)
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


def _rk4_loop(rfs, names, n: int):
    """f(s, x..., v..., h, steps, out): `steps` RK4 steps of xddot = the
    components of `rfs`, appending each new sample to `out`.

    `names` are the parameter, coordinate and velocity symbols.  Each
    stage evaluates the accelerations inline; the arithmetic is that of
    xi + half * d and xi + sixth * (d1 + 2 * d2 + 2 * d3 + d4) per
    component, as a list-based RK4 writes it, with the factor 2 written
    2.0: the same product, without converting an int on every step."""
    pad = " " * 12

    def local(prefix):
        return [f"{prefix}{i}" for i in range(n)]

    x, v = local("x"), local("v")
    x2, v2, x3, v3, x4, v4 = map(local, ("x2_", "v2_", "x3_", "v3_", "x4_", "v4_"))
    a1, a2, a3, a4 = map(local, ("a1_", "a2_", "a3_", "a4_"))

    def stage(s, xs, vs, acc):
        return _emit(rfs, dict(zip(names, [s, *xs, *vs])), acc, pad)

    def move(dst, base, coef, slope):
        return [f"{pad}{d} = {b} + {coef} * {m}" for d, b, m in zip(dst, base, slope)]

    def combine(dst, k1, k2, k3, k4):
        return [f"{pad}{d} = {d} + sixth * ({p} + 2.0 * {q} + 2.0 * {r} + {t})"
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
    rfs = [_bound(g, function_bindings) for g in system.accelerations]
    rk4 = _rk4_loop(rfs, _state_names(chart), n)
    state = [0.0, *map(float, initial_position), *map(float, initial_velocity)]
    flat = array("d", state)
    h = float(step)
    rk4(*state, h, steps, flat)
    return GeodesicTrace(step=h, dim=n, flat=flat)


def _drift_loop(rfs, names):
    """f(flat, f0...): max |component k - f0[k]| over every sample of a
    flat trace after its first; `if e > w: w = e` is max(w, e), NaN
    included."""
    args = {name: f"_x{i}" for i, name in enumerate(names)}
    k = range(len(rfs))
    pad = " " * 12
    body = [
        *(f"        _w{i} = 0.0" for i in k),
        f"        _rows = zip(*[iter(flat)] * {len(names)})",
        "        next(_rows)",
        f"        for {''.join(x + ', ' for x in args.values())}in _rows:",
        *_emit(rfs, args, [f"_c{i}" for i in k], pad),
        *(line for i in k for line in (f"{pad}_e = abs(_c{i} - _f{i})",
                                       f"{pad}if _e > _w{i}:",
                                       f"{pad}    _w{i} = _e")),
        *([] if rfs else [f"{pad}pass"]),
        f"        return [{', '.join(f'_w{i}' for i in k)}]",
    ]
    return _define("_drift", ["flat", *(f"_f{i}" for i in k)], body)


def drift_along_trace(rfs, trace: GeodesicTrace, chart,
                      function_bindings: dict | None = None) -> list:
    """Max absolute deviation of each rf(s, x, xdot) in `rfs` from its
    value at the first sample: that value by `compile_numeric`, every
    later sample in one compiled loop over the flat trace."""
    names = _state_names(chart)
    rfs = [_bound(rf, function_bindings) for rf in rfs]
    first = compile_numeric(rfs, names)(*trace.flat[:len(names)])
    return _drift_loop(rfs, names)(trace.flat, *first)
