"""Noether and Lie point symmetry machinery.

Residual conventions:

  * Noether: X^[1] L + (D_s xi) L - D_s A, with D_s = d_s + xdot d_x;
    a field is a Noether point symmetry iff the residual vanishes.
  * Lie point: X^[2] E_i restricted to the solution manifold by
    substituting the solved-form accelerations; all residuals vanish
    iff the field generates a point symmetry.

Determining equations come from collecting the residuals (with unknown
coefficient functions kept as opaque atoms) over velocity monomials.
Each equation is linear in the unknown jets, so the solver expands the
unknowns in a finite ansatz on canonical forms alone: the equation's
numerator is split by unknown jet once, each basis derivative is
canonicalized once, and the rows are the kernel-monomial coefficients
of their products.  It returns the exact rational nullspace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .charts import CoordChart
from .errors import AnsatzError, VerificationError
from .geometry import GeodesicSystem, Metric, geodesic_lagrangian, geodesic_system
from .jets import BundleVectorField, prolong, apply_prolonged
from .linalg import sparse_nullspace
from .symexpr import (
    Add,
    Expr,
    Fn,
    Mul,
    Num,
    Op,
    Pow,
    Sym,
    collect,
    differentiate,
    is_zero,
    substitute,
    to_canonical,
)
from .symexpr.canonical import canonical_ratfunc
from .symexpr.nodes import as_expr
from .symexpr.poly import POLY_ONE, Poly, poly_divexact, poly_gcd

UNKNOWN_XI = "xi"


def _unknown_names(chart: CoordChart):
    return [UNKNOWN_XI] + [f"eta{i + 1}" for i in range(chart.dim)]


def _truncated_total(e: Expr, chart: CoordChart) -> Expr:
    """d_s + xdot d_x, enough for jet-free xi and gauge functions."""
    terms = [differentiate(e, chart.param)]
    for c in chart.coords:
        terms.append(Mul.of(Sym(chart.jet1(c)), differentiate(e, c)))
    return to_canonical(Add.of(*terms))


def _assert_velocity_degree(expr: Expr, chart: CoordChart, bound: int, what: str):
    """Residual degree bounds hold on every run; a violation signals a
    prolongation or restriction bug upstream."""
    if expr.free_symbols() & set(chart.jets2):
        raise VerificationError(f"{what} still contains acceleration symbols")
    degrees = [sum(mono) for mono in collect(expr, chart.jets1)]
    if degrees and max(degrees) > bound:
        raise VerificationError(f"{what} exceeds velocity degree {bound}")


def noether_residual(field: BundleVectorField, lagrangian: Expr,
                     gauge: Expr | None = None) -> Expr:
    """X^[1] L + (D_s xi) L - D_s A, canonicalized."""
    chart = field.chart
    pf = prolong(field, 1)
    acted = apply_prolonged(pf, lagrangian)
    out = Add.of(acted, Mul.of(_truncated_total(field.xi, chart), lagrangian))
    if gauge is not None:
        out = Add.of(out, Mul.of(Num(-1), _truncated_total(as_expr(gauge), chart)))
    residual = to_canonical(out)
    _assert_velocity_degree(residual, chart, 3, "invariance residual")
    return residual


def liepoint_residuals(field: BundleVectorField, system: GeodesicSystem) -> tuple:
    """Second prolongation applied to each solved-form equation, then
    restricted to the solution manifold."""
    pf = prolong(field, 2)
    on_shell = system.solved_bindings()
    out = []
    for eq in system.equations:
        acted = apply_prolonged(pf, eq)
        restricted = substitute(acted, on_shell)
        _assert_velocity_degree(restricted, field.chart, 3, "point-symmetry residual")
        out.append(restricted)
    return tuple(out)


def _zero_derivative_bindings(exprs):
    """Bindings sending every opaque-derivative atom (order >= 1) to 0."""
    bindings = {}
    for e in exprs:
        for a in canonical_ratfunc(e).atoms():
            if a.kind == "op":
                name, args, orders = a.payload
                if any(orders):
                    bindings[Op(name, args, orders)] = Num(0)
    return bindings


@dataclass
class SymmetryReport:
    field: BundleVectorField
    mode: str  # "noether" | "liepoint"
    residuals: tuple
    passed: bool
    first_integral: Expr | None = None
    constant_functions_pass: bool = False

    @property
    def notes(self):
        out = []
        if not self.passed and self.constant_functions_pass:
            out.append(
                "residual vanishes when every opaque function is constant; "
                "the field is a symmetry only for constant instantiations"
            )
        return out


def verify_noether(field: BundleVectorField, metric: Metric,
                   gauge: Expr | None = None,
                   with_first_integral: bool = True) -> SymmetryReport:
    lagrangian = geodesic_lagrangian(metric)
    residual = noether_residual(field, lagrangian, gauge)
    passed = is_zero(residual)
    const_pass = False
    integral = None
    if passed:
        if with_first_integral:
            integral = noether_first_integral(field, lagrangian, gauge, _verified=True)
    else:
        binds = _zero_derivative_bindings([residual])
        if binds:
            const_pass = is_zero(substitute(residual, binds))
    return SymmetryReport(field, "noether", (residual,), passed,
                          first_integral=integral,
                          constant_functions_pass=const_pass)


def verify_liepoint(field: BundleVectorField, metric_or_system) -> SymmetryReport:
    system = (
        metric_or_system
        if isinstance(metric_or_system, GeodesicSystem)
        else geodesic_system(metric_or_system)
    )
    residuals = liepoint_residuals(field, system)
    passed = all(is_zero(r) for r in residuals)
    const_pass = False
    if not passed:
        binds = _zero_derivative_bindings(residuals)
        if binds:
            const_pass = all(is_zero(substitute(r, binds)) for r in residuals)
    return SymmetryReport(field, "liepoint", residuals, passed,
                          constant_functions_pass=const_pass)


def noether_first_integral(field: BundleVectorField, lagrangian: Expr,
                           gauge: Expr | None = None, _verified: bool = False) -> Expr:
    """I = A - xi L - (eta^a - xi xdot^a) dL/dxdot^a.

    The sign convention makes the d_s-translation integral equal to the
    Lagrangian itself for quadratic geodesic Lagrangians.
    """
    chart = field.chart
    if not _verified and not is_zero(noether_residual(field, lagrangian, gauge)):
        raise VerificationError("first integral requested for a non-symmetry")
    terms = [Mul.of(Num(-1), field.xi, lagrangian)]
    if gauge is not None:
        terms.append(as_expr(gauge))
    for c, comp in zip(chart.coords, field.eta):
        p = differentiate(lagrangian, chart.jet1(c))
        shifted = Add.of(comp, Mul.of(Num(-1), field.xi, Sym(chart.jet1(c))))
        terms.append(Mul.of(Num(-1), shifted, p))
    return to_canonical(Add.of(*terms))


# ---------------------------------------------------------------------------
# Determining equations and the finite-ansatz solver.


@dataclass(frozen=True)
class DeterminingSystem:
    """Collected coefficient equations, each required to vanish.

    Entries are canonical nonzero expressions in (s, x) and the unknown
    function atoms; `sources` records the velocity monomial each
    equation came from."""

    chart: CoordChart
    mode: str
    equations: tuple
    sources: tuple
    unknowns: tuple

    def __len__(self):
        return len(self.equations)


def determining_system(target, mode: str) -> DeterminingSystem:
    """Collect determining equations for a metric's Lagrangian (noether)
    or geodesic system (liepoint) with symbolic xi, eta unknowns."""
    if mode == "noether":
        chart = target.chart
        lagrangian = geodesic_lagrangian(target) if isinstance(target, Metric) else target
    elif mode == "liepoint":
        if isinstance(target, Metric):
            target = geodesic_system(target)
        chart = target.chart
    else:
        raise ValueError("mode must be 'noether' or 'liepoint'")
    names = _unknown_names(chart)
    clash = set(names) & ({chart.param} | set(chart.coords))
    if clash:
        raise AnsatzError(f"chart names collide with unknown functions: {sorted(clash)}")
    args = (chart.param, *chart.coords)
    unknown = {
        name: Op(name, args) for name in names
    }
    generic = BundleVectorField(
        chart, unknown[UNKNOWN_XI], tuple(unknown[n] for n in names[1:])
    )
    if mode == "noether":
        residual = noether_residual(generic, lagrangian)
        residuals = [residual]
    else:
        residuals = list(liepoint_residuals(generic, target))
    equations = []
    sources = []
    seen = set()
    for eq_index, residual in enumerate(residuals):
        for mono, coeff in collect(residual, chart.jets1).items():
            if is_zero(coeff):
                continue
            canon = to_canonical(coeff)
            key = canonical_ratfunc(canon).key()
            if key in seen:
                continue
            seen.add(key)
            equations.append(canon)
            sources.append((eq_index, mono))
    return DeterminingSystem(chart, mode, tuple(equations), tuple(sources), tuple(names))


@dataclass(frozen=True)
class Ansatz:
    """Finite basis of (s, x) functions spanning each unknown."""

    basis: tuple
    degree: int = 2
    kernels: tuple = ()

    def __len__(self):
        return len(self.basis)


def default_ansatz(chart: CoordChart, degree: int = 2,
                   angle_kernels: dict | None = None) -> Ansatz:
    """Polynomials of total degree <= `degree` in the parameter and the
    non-angle coordinates, times per-angle trig kernels.

    The first declared angle carries {1, sin, cos, cot, 1/sin}; later
    angles carry {1, sin, cos}.  `angle_kernels` overrides the kernel
    list per angle name.
    """
    poly_vars = [chart.param] + [c for c in chart.coords if c not in chart.angles]
    monos = []
    for exps in itertools.product(range(degree + 1), repeat=len(poly_vars)):
        if sum(exps) > degree:
            continue
        factors = [Pow(Sym(v), Fraction(e)) for v, e in zip(poly_vars, exps) if e]
        monos.append(Mul.of(*factors) if factors else Num(1))
    kernel_lists = []
    kernel_names = []
    for pos, a in enumerate(chart.angles):
        if angle_kernels and a in angle_kernels:
            kern = list(angle_kernels[a])
        elif pos == 0:
            kern = [
                Num(1),
                Fn("sin", Sym(a)),
                Fn("cos", Sym(a)),
                Fn("cot", Sym(a)),
                Pow(Fn("sin", Sym(a)), Fraction(-1)),
            ]
            kernel_names.append(f"{a}: 1, sin, cos, cot, csc")
        else:
            kern = [Num(1), Fn("sin", Sym(a)), Fn("cos", Sym(a))]
            kernel_names.append(f"{a}: 1, sin, cos")
        kernel_lists.append(kern)
    basis = []
    seen = set()
    for mono in monos:
        for kerns in itertools.product(*kernel_lists) if kernel_lists else [()]:
            b = to_canonical(Mul.of(mono, *kerns)) if kerns else to_canonical(mono)
            key = canonical_ratfunc(b).key()
            if key not in seen:
                seen.add(key)
                basis.append(b)
    return Ansatz(tuple(basis), degree=degree, kernels=tuple(kernel_names))


def _check_derivative_closure(ansatz: Ansatz, chart: CoordChart, derivative):
    args = (chart.param, *chart.coords)
    allowed = set()
    for k in range(len(ansatz.basis)):
        allowed |= derivative(k, (0,) * len(args)).atoms()
    for v in args:
        allowed |= canonical_ratfunc(Sym(v)).atoms()
    for k, b in enumerate(ansatz.basis):
        for i, v in enumerate(args):
            orders = tuple(int(j == i) for j in range(len(args)))
            extra = derivative(k, orders).atoms() - allowed
            if extra:
                raise AnsatzError(
                    f"ansatz is not derivative-closed: d/d{v} of {b} introduces {sorted(a.key() for a in extra)}"
                )


def _basis_derivatives(basis, args):
    """derivative(k, orders) -> canonical RatFunc of d^orders basis[k].

    Each derivative is taken from the next-lower order and cached by
    (k, orders), so every one is differentiated and canonicalized once."""
    cache = {}

    def entry(k, orders):
        hit = cache.get((k, orders))
        if hit is None:
            if any(orders):
                i = max(j for j, o in enumerate(orders) if o)
                lower = orders[:i] + (orders[i] - 1,) + orders[i + 1:]
                tree = differentiate(entry(k, lower)[0], args[i])
            else:
                tree = basis[k]
            hit = cache[(k, orders)] = (tree, canonical_ratfunc(tree))
        return hit

    return lambda k, orders: entry(k, orders)[1]


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
    is linear and homogeneous in the unknown jets: num = sum A * jet."""
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


def _poly_lcm(polys) -> Poly:
    out = POLY_ONE
    for p in polys:
        out = out * poly_divexact(p, poly_gcd(out, p))
    return out


def solve_determining(system: DeterminingSystem, ansatz: Ansatz) -> list:
    """Expand each unknown in the ansatz, collect over all kernel
    monomials, and return the exact nullspace rendered as vector fields
    (reduced echelon pivot order).

    Rows are assembled on canonical forms: each equation's numerator is
    split once into coefficients A of the unknown jets d^a u; with the
    basis derivatives d^a b_k brought over one common denominator, the
    coefficient of each kernel monomial in sum A * d^a b_k gives one row
    over the columns (u, k)."""
    if not ansatz.basis:
        raise AnsatzError("empty ansatz")
    chart = system.chart
    args = (chart.param, *chart.coords)
    derivative = _basis_derivatives(ansatz.basis, args)
    _check_derivative_closure(ansatz, chart, derivative)
    nb = len(ansatz.basis)
    unknowns = list(system.unknowns)
    names = set(unknowns)
    col_of = {(u, k): i * nb + k for i, u in enumerate(unknowns) for k in range(nb)}

    rows = []
    for eq in system.equations:
        coeffs = _split_by_unknown(canonical_ratfunc(eq), names, args)
        terms = [
            (col_of[(name, k)], A, d)
            for (name, orders), A in coeffs.items()
            for k in range(nb)
            if not (d := derivative(k, orders)).is_zero()
        ]
        dens = {d.den.key(): d.den for _, _, d in terms}
        lcm = _poly_lcm(dens.values())
        cofactor = {key: poly_divexact(lcm, den) for key, den in dens.items()}
        buckets = {}
        for col, A, d in terms:
            for mono, c in (A * (d.num * cofactor[d.den.key()])).terms.items():
                row = buckets.setdefault(mono, {})
                row[col] = row.get(col, 0) + c
        for row in buckets.values():
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
    basis_vectors = sparse_nullspace(rows, len(col_of))
    fields = []
    for i, vec in enumerate(basis_vectors):
        comps = []
        for u in unknowns:
            terms = [Num(0)]
            for k in range(nb):
                c = vec[col_of[(u, k)]]
                if c:
                    terms.append(Mul.of(Num(c), ansatz.basis[k]))
            comps.append(to_canonical(Add.of(*terms)))
        fields.append(
            BundleVectorField(chart, comps[0], tuple(comps[1:]), name=f"X{i + 1}")
        )
    return fields
