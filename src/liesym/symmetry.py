"""Noether and Lie point symmetry machinery.

Residual conventions:

  * Noether: X^[1] L + (D_s xi) L, with D_s = d_s + xdot d_x; a
    field is a Noether point symmetry iff the residual vanishes.
  * Lie point: X^[2] (xddot^i - G^i) on the solution manifold
    xddot = G, which is Dhat eta_(1)^i - G^i Dhat xi - X^[1] G^i with
    Dhat = D_s + G^a d_{xdot^a}; all residuals vanish iff the field
    generates a point symmetry.

Lagrangians, residuals, first integrals, determining equations
and ansatz functions are canonical RatFuncs; the unknown coefficient
functions xi, eta^a are opaque-function atoms.  Determining equations
are the coefficients of the residuals over velocity monomials.  Each is
linear in the unknown jets, so the solver expands the unknowns in a
finite ansatz: the equation's numerator is split by unknown jet once,
each basis derivative is derived once from the next-lower order, and
the rows are the kernel-monomial coefficients of their products.
Equations are assembled in order, and columns their rows force to zero
are pinned before the next one, which builds products only for the
free columns.  It returns the exact rational nullspace as vector
fields.
"""

from __future__ import annotations

import itertools
import math

from .charts import CoordChart
from .errors import AnsatzError, VerificationError
from .geometry import GeodesicSystem, Metric, geodesic_lagrangian
from .jets import BundleVectorField, prolong, symbol, total_coefficients
from .linalg import ZeroPins, sparse_nullspace
from .symexpr import collect_ratfunc, derive, fn_ratfunc, split_monomials, substitute_atoms
from .symexpr.nodes import op_atom, sym_atom
from .symexpr.poly import RAT_ONE, RAT_ZERO, Poly, RatFunc, poly_divexact, poly_lcm, rat_sum

UNKNOWN_XI = "xi"
# The --ansatz-degree cap: analyze on a bundled 4D metric takes about
# 17 s at this degree on a 2-vCPU host.
MAX_ANSATZ_DEGREE = 26


def _unknown_names(chart: CoordChart):
    return [UNKNOWN_XI] + [f"eta{i + 1}" for i in range(chart.dim)]


def _assert_velocity_degree(rf, chart: CoordChart, bound: int, what: str):
    """Residual degree bounds hold on every run; a violation signals a
    prolongation bug upstream.  The velocity degree is
    read from the numerator's monomials, with the checks of
    `collect_ratfunc`."""
    degree = max((sum(e) for e, _, _ in split_monomials(rf, chart.jets1)), default=0)
    if degree > bound:
        raise VerificationError(f"{what} exceeds velocity degree {bound}")


def noether_residual(field: BundleVectorField, lagrangian: RatFunc) -> RatFunc:
    """X^[1] L + (D_s xi) L."""
    chart = field.chart
    out = (derive(lagrangian, prolong(field))
           + derive(field.xi, total_coefficients(chart)) * lagrangian)
    _assert_velocity_degree(out, chart, 3, "invariance residual")
    return out


def liepoint_residuals(field: BundleVectorField, system: GeodesicSystem) -> tuple:
    """X^[2] (xddot^i - G^i) on the solution manifold, per coordinate:
    Dhat eta_(1)^i - G^i Dhat xi - X^[1] G^i, with Dhat the total
    derivative on that manifold."""
    chart = field.chart
    x1 = prolong(field)
    on_shell = total_coefficients(chart, system.accelerations)
    dxi = derive(field.xi, on_shell)
    out = []
    for v, g in zip(chart.jets1, system.accelerations):
        residual = derive(x1[v], on_shell) - g * dxi - derive(g, x1)
        _assert_velocity_degree(residual, chart, 3, "point-symmetry residual")
        out.append(residual)
    return tuple(out)


def _constant_functions_pass(residuals) -> bool:
    """Whether every residual vanishes once each opaque-function
    derivative (order >= 1) is set to 0; False when none occurs."""
    def image(a):
        return RAT_ZERO if a.kind == "op" and any(a.payload[2]) else None

    if not any(image(a) is not None for rf in residuals for a in rf.atoms()):
        return False
    return all(substitute_atoms(rf, image).is_zero() for rf in residuals)


class SymmetryReport:
    def __init__(self, field: BundleVectorField, mode: str, residuals: tuple, passed: bool,
                 first_integral: RatFunc | None = None, constant_functions_pass: bool = False):
        self.field = field
        self.mode = mode  # "noether" | "liepoint"
        self.residuals = residuals
        self.passed = passed
        self.first_integral = first_integral
        self.constant_functions_pass = constant_functions_pass

    @property
    def notes(self):
        out = []
        if not self.passed and self.constant_functions_pass:
            out.append(
                "residual vanishes when every opaque function is constant; "
                "the field is a symmetry only for constant instantiations"
            )
        return out


def verify_noether(field: BundleVectorField, lagrangian: RatFunc) -> SymmetryReport:
    """Noether check of one field against a geodesic Lagrangian, with
    its first integral when it passes."""
    residual = noether_residual(field, lagrangian)
    passed = residual.is_zero()
    integral = noether_first_integral(field, lagrangian) if passed else None
    const_pass = not passed and _constant_functions_pass([residual])
    return SymmetryReport(field, "noether", (residual,), passed,
                          first_integral=integral,
                          constant_functions_pass=const_pass)


def verify_liepoint(field: BundleVectorField, system: GeodesicSystem) -> SymmetryReport:
    """Lie point check of one field against a geodesic system."""
    residuals = liepoint_residuals(field, system)
    passed = all(r.is_zero() for r in residuals)
    const_pass = not passed and _constant_functions_pass(residuals)
    return SymmetryReport(field, "liepoint", residuals, passed,
                          constant_functions_pass=const_pass)


def noether_first_integral(field: BundleVectorField, lagrangian: RatFunc) -> RatFunc:
    """I = -xi L - (eta^a - xi xdot^a) dL/dxdot^a for a field that
    passed verify_noether; it is conserved only for such a field.

    The sign convention makes the d_s-translation integral equal to the
    Lagrangian itself for quadratic geodesic Lagrangians.
    """
    chart = field.chart
    xi = field.xi
    terms = [-(xi * lagrangian)]
    for c, comp in zip(chart.coords, field.eta):
        p = derive(lagrangian, {chart.jet1(c): RAT_ONE})
        terms.append(-((comp - xi * symbol(chart.jet1(c))) * p))
    return rat_sum(terms)


# ---------------------------------------------------------------------------
# Determining equations and the finite-ansatz solver.


class DeterminingSystem:
    """Collected coefficient equations, each required to vanish.

    Equations are nonzero canonical RatFuncs in (s, x) and the unknown
    function atoms; `sources` records the velocity monomial each
    equation came from."""

    def __init__(self, chart: CoordChart, mode: str, equations: tuple, sources: tuple,
                 unknowns: tuple):
        self.chart = chart
        self.mode = mode
        self.equations = equations
        self.sources = sources
        self.unknowns = unknowns

    def __len__(self):
        return len(self.equations)


def determining_system(target: Metric | GeodesicSystem, mode: str) -> DeterminingSystem:
    """Collect determining equations, with symbolic xi, eta unknowns,
    for a Metric's geodesic Lagrangian (noether) or for a geodesic
    system (liepoint)."""
    if mode == "noether":
        lagrangian = geodesic_lagrangian(target)
    elif mode != "liepoint":
        raise ValueError("mode must be 'noether' or 'liepoint'")
    chart = target.chart
    names = _unknown_names(chart)
    clash = set(names) & ({chart.param} | set(chart.coords))
    if clash:
        raise AnsatzError(f"chart names collide with unknown functions: {sorted(clash)}")
    args = (chart.param, *chart.coords)
    generic = BundleVectorField(
        chart, tuple(RatFunc.atom(op_atom(name, args, (0,) * len(args))) for name in names))
    if mode == "noether":
        residuals = [noether_residual(generic, lagrangian)]
    else:
        residuals = liepoint_residuals(generic, target)
    equations = []
    sources = []
    seen = set()
    for eq_index, residual in enumerate(residuals):
        for mono, coeff in collect_ratfunc(residual, chart.jets1).items():
            key = coeff.key()
            if key in seen:
                continue
            seen.add(key)
            equations.append(coeff)
            sources.append((eq_index, mono))
    return DeterminingSystem(chart, mode, tuple(equations), tuple(sources), tuple(names))


class Ansatz:
    """Finite basis of (s, x) functions, as canonical RatFuncs, spanning
    each unknown."""

    def __init__(self, basis: tuple, degree: int = 2, kernels: tuple = ()):
        self.basis = basis
        self.degree = degree
        self.kernels = kernels

    def __len__(self):
        return len(self.basis)


def default_ansatz(chart: CoordChart, degree: int = 2) -> Ansatz:
    """Polynomials of total degree <= `degree` in the parameter and the
    non-angle coordinates, times per-angle trig kernels.

    The first declared angle carries {1, sin, cos, cot, 1/sin}; later
    angles carry {1, sin, cos}.
    """
    poly_vars = [chart.param] + [c for c in chart.coords if c not in chart.angles]
    monos = []
    for exps in itertools.product(range(degree + 1), repeat=len(poly_vars)):
        if sum(exps) > degree:
            continue
        mono = RAT_ONE
        for v, e in zip(poly_vars, exps):
            if e:
                mono = mono * symbol(v) ** e
        monos.append(mono)
    kernel_lists = []
    kernel_names = []
    for pos, a in enumerate(chart.angles):
        if pos == 0:
            sin = fn_ratfunc("sin", symbol(a))
            kern = [RAT_ONE, sin, fn_ratfunc("cos", symbol(a)),
                    fn_ratfunc("cot", symbol(a)), sin.inverse()]
            kernel_names.append(f"{a}: 1, sin, cos, cot, csc")
        else:
            kern = [RAT_ONE, fn_ratfunc("sin", symbol(a)), fn_ratfunc("cos", symbol(a))]
            kernel_names.append(f"{a}: 1, sin, cos")
        kernel_lists.append(kern)
    basis = []
    seen = set()
    for mono in monos:
        for kerns in itertools.product(*kernel_lists) if kernel_lists else [()]:
            rf = mono
            for k in kerns:
                rf = rf * k
            if rf.key() not in seen:
                seen.add(rf.key())
                basis.append(rf)
    return Ansatz(tuple(basis), degree=degree, kernels=tuple(kernel_names))


def _check_derivative_closure(ansatz: Ansatz, chart: CoordChart):
    """Every first derivative of each kernel atom of the basis lies in
    the basis atoms and the chart symbols, so every derivative of every
    basis function does too."""
    args = (chart.param, *chart.coords)
    atoms = sorted(set().union(*(b.atoms() for b in ansatz.basis)), key=lambda a: a.key())
    allowed = set(atoms) | {sym_atom(v) for v in args}
    for a in atoms:
        for v in args:
            extra = derive(RatFunc.atom(a), {v: RAT_ONE}).atoms() - allowed
            if extra:
                raise AnsatzError(
                    f"ansatz is not derivative-closed: d/d{v} of {RatFunc.atom(a)} introduces "
                    f"{sorted(e.key() for e in extra)}"
                )


def _basis_derivatives(basis, args):
    """derivative(k, orders) -> canonical RatFunc of d^orders basis[k].

    Each derivative is derived from the next-lower order and cached by
    (k, orders), so every one is computed once; the atom derivatives of
    each d/dv are shared across the basis."""
    cache = {}
    memos = [{} for _ in args]

    def entry(k, orders):
        hit = cache.get((k, orders))
        if hit is None:
            if any(orders):
                i = max(j for j, o in enumerate(orders) if o)
                lower = orders[:i] + (orders[i] - 1,) + orders[i + 1:]
                hit = derive(entry(k, lower), {args[i]: RAT_ONE}, memos[i])
            else:
                hit = basis[k]
            cache[(k, orders)] = hit
        return hit

    return entry


def _mentions_unknown(atom, names) -> bool:
    if atom.kind == "op":
        return atom.payload[0] in names
    if atom.kind == "fn":
        return any(_mentions_unknown(a, names) for a in atom.payload[1].atoms())
    if atom.kind == "pow":
        return any(_mentions_unknown(a, names) for a in atom.payload[0].atoms())
    return False


def _split_by_unknown(rf, names, args) -> dict:
    """Coefficients A[(name, orders)] of a canonical equation num/den that
    is linear and homogeneous in the unknown jets: num * num.den = sum
    A * jet, so every A is integral; a common factor leaves the
    equation's rows unchanged."""
    for a in rf.atoms():
        if a.kind == "op" and a.payload[0] in names and a.payload[1] != args:
            raise AnsatzError(f"unexpected unknown arguments {a.payload[1]}")
    nonlinear = AnsatzError("determining equations must be linear in the unknowns")
    if any(_mentions_unknown(a, names) for a in rf.den.atoms()):
        raise nonlinear
    parts = {}
    for mono, coeff in rf.num.terms.items():
        jet = None
        rest = []
        for atom, exp in mono:
            if not _mentions_unknown(atom, names):
                rest.append((atom, exp))
            elif atom.kind == "op" and jet is None and exp == 1:
                jet = (atom.payload[0], atom.payload[2])
            else:
                raise nonlinear
        if jet is None:
            raise AnsatzError("inhomogeneous term in a determining equation")
        parts.setdefault(jet, {})[tuple(rest)] = coeff
    return {jet: Poly(terms) for jet, terms in parts.items()}


def solve_determining(system: DeterminingSystem, ansatz: Ansatz) -> list:
    """Expand each unknown in the ansatz, collect over all kernel
    monomials, and return the exact nullspace as vector fields
    (reduced echelon pivot order).

    Rows are assembled on canonical forms: each equation's numerator is
    split once into integral coefficients A of the unknown jets d^a u;
    with the basis derivatives d^a b_k brought over one common
    denominator, the coefficient of each kernel monomial in
    sum A * d^a b_k gives one integer row over the columns (u, k).  A
    cleared derivative depends only on (k, a) and that denominator, so
    equations sharing one reuse it.

    After each equation, every column its rows force to zero is pinned
    (`linalg.ZeroPins`), and later equations build products only for
    the columns still free.  A pinned column is 0 in every solution, so
    an equation restricted to the free columns keeps its solutions, and
    the kept rows plus one unit row per pinned column have the row
    space, hence the RREF, of the rows over all columns."""
    if not ansatz.basis:
        raise AnsatzError("empty ansatz")
    chart = system.chart
    args = (chart.param, *chart.coords)
    _check_derivative_closure(ansatz, chart)
    derivative = _basis_derivatives(ansatz.basis, args)
    nb = len(ansatz.basis)
    unknowns = list(system.unknowns)
    names = set(unknowns)
    col_of = {(u, k): i * nb + k for i, u in enumerate(unknowns) for k in range(nb)}

    pins = ZeroPins()
    cleared = {}  # (k, orders, lcm key) -> d^orders b_k brought over the lcm
    for eq in system.equations:
        coeffs = _split_by_unknown(eq, names, args)
        terms = [
            (col, A, k, orders, d)
            for (name, orders), A in coeffs.items()
            for k in range(nb)
            if (col := col_of[(name, k)]) not in pins.pinned
            and not (d := derivative(k, orders)).is_zero()
        ]
        dens = {d.den.key(): d.den for *_, d in terms}
        lcm = poly_lcm(dens.values())
        cofactor = {key: poly_divexact(lcm, den) for key, den in dens.items()}
        products = []
        for col, A, k, orders, d in terms:
            ck = (k, orders, lcm.key())
            if ck not in cleared:
                cleared[ck] = d.num * cofactor[d.den.key()]
            products.append((col, A * cleared[ck]))
        # one integer scale for the whole equation keeps its rows integral
        scale = math.lcm(*(P.den for _, P in products))
        buckets = {}
        for col, P in products:
            f = scale // P.den
            for mono, c in P.terms.items():
                row = buckets.setdefault(mono, {})
                row[col] = row.get(col, 0) + c * f
        pins.add(buckets.values())
    basis_vectors = sparse_nullspace(pins.system(), len(col_of))
    zero = (0,) * len(args)
    fields = []
    for i, vec in enumerate(basis_vectors):
        comps = [
            rat_sum(
                RatFunc.const(c) * derivative(k, zero)
                for k in range(nb) if (c := vec[col_of[(u, k)]])
            )
            for u in unknowns
        ]
        fields.append(BundleVectorField(chart, comps, name=f"X{i + 1}"))
    return fields
