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
and the rows are the kernel-monomial coefficients of its products with
the basis derivatives.  An ansatz function is a product of factors
that share no symbol (a monomial, one kernel per angle), so each
factor is derived once per order into a table, and a basis derivative
is the product of its factors' derivatives, reduced as it stands.
The products' terms go straight into integer row buckets, one integer
scale per equation.  Equations are assembled in order, and columns
their rows force to zero are pinned before the next one, which builds
products only for the free columns.  It returns the exact rational
nullspace as vector fields.
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
from .symexpr.poly import (
    RAT_ONE,
    RAT_ZERO,
    Poly,
    RatFunc,
    _mono_mul,
    _reduce_monomial,
    poly_divexact,
    poly_lcm,
    rat_sum,
)

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
    each unknown.

    `factors[k]` is a tuple of RatFuncs whose product is basis[k]; the
    solver derives factors that share no symbol apart (see
    `_basis_derivatives`).  `default_ansatz` gives each function its
    monomial and its angle kernels; by default a function is its own
    single factor."""

    def __init__(self, basis: tuple, degree: int = 2, kernels: tuple = (), factors=None):
        self.basis = basis
        self.degree = degree
        self.kernels = kernels
        self.factors = tuple((b,) for b in basis) if factors is None else factors

    def __len__(self):
        return len(self.basis)


def _product(parts) -> RatFunc:
    """The product of RatFuncs in pairwise disjoint atoms, as Polys.

    No rewrite rule acts on a monomial of atoms from different factors,
    so the products of the numerators and of the denominators are
    already reduced; the denominators are integral, primitive, with
    positive leads, and so is their product, which shares no atom with
    the numerators' product."""
    num, den = parts[0].num, parts[0].den
    for p in parts[1:]:
        num = num * p.num
        if not p.den.is_const():
            den = p.den if den.is_const() else den * p.den
    return RatFunc(num, den, reduced=True)


def default_ansatz(chart: CoordChart, degree: int = 2) -> Ansatz:
    """Polynomials of total degree <= `degree` in the parameter and the
    non-angle coordinates, times per-angle trig kernels.

    The first declared angle carries {1, sin, cos, cot, 1/sin}; later
    angles carry {1, sin, cos}.  Each function's factors are its
    monomial and its non-constant kernels.
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
    factors = []
    seen = set()
    for mono in monos:
        for kerns in itertools.product(*kernel_lists):
            parts = tuple(f for f in (mono, *kerns) if f is not RAT_ONE) or (RAT_ONE,)
            rf = _product(parts)
            if rf.key() not in seen:
                seen.add(rf.key())
                basis.append(rf)
                factors.append(parts)
    return Ansatz(tuple(basis), degree=degree, kernels=tuple(kernel_names),
                  factors=tuple(factors))


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


def _owned_args(factors, args, known):
    """Per factor, the positions in `args` of its symbols, when every
    atom of every factor names a symbol and no two factors share one;
    else None.  `known` caches each factor's symbols by identity, None
    when an atom names none."""
    taken = set()
    out = []
    for f in factors:
        if id(f) not in known:
            per_atom = [a.free_symbols() for a in f.atoms()]
            known[id(f)] = frozenset().union(*per_atom) if all(per_atom) else None
        symbols = known[id(f)]
        if symbols is None or symbols & taken:
            return None
        taken |= symbols
        out.append(tuple(i for i, v in enumerate(args) if v in symbols))
    return tuple(out)


def _basis_derivatives(ansatz: Ansatz, args):
    """derivative(k, orders) -> canonical RatFunc of d^orders basis[k].

    Each factor is derived once per order, from the next-lower order,
    into a table keyed by the factor's identity; factors are shared
    across the basis, and the atom derivatives of each d/dv across the
    factors.  d^orders basis[k] is the product of each factor's
    derivative in the orders of its own symbols (`_product`), and 0
    when an order falls on a symbol of no factor.  That needs factors
    that share no symbol and no symbol-free atom (such as 2^(1/2)),
    which is checked once; a function whose factors fail it is derived
    as one factor.  Derivatives of a factor stay within its symbols,
    and by derivative closure (`_check_derivative_closure`) within
    atoms that name a symbol, so the products stay disjoint.
    Products are not cached: each is built for a free column only."""
    memos = [{} for _ in args]
    zero = (0,) * len(args)
    tables = {}  # id(factor) -> {orders: derivative}, the factor at zero
    known = {}
    specs = []  # per function: (its factors' tables, the args each factor owns)
    for b, factors in zip(ansatz.basis, ansatz.factors):
        owned = _owned_args(factors, args, known)
        if owned is None:
            factors = (b,)
            owned = (tuple(i for i, v in enumerate(args) if v in b.free_symbols()),)
        specs.append((tuple(tables.setdefault(id(f), {zero: f}) for f in factors), owned))
    projections = {}  # (owned, orders) -> per-factor orders, None if 0

    def factor_derivative(table, orders):
        hit = table.get(orders)
        if hit is None:
            i = max(j for j, o in enumerate(orders) if o)
            lower = orders[:i] + (orders[i] - 1,) + orders[i + 1:]
            hit = derive(factor_derivative(table, lower), {args[i]: RAT_ONE}, memos[i])
            table[orders] = hit
        return hit

    def entry(k, orders):
        factor_tables, owned = specs[k]
        key = (owned, orders)
        if key not in projections:
            inside = sum(orders) == sum(orders[i] for own in owned for i in own)
            projections[key] = tuple(
                tuple(o if i in own else 0 for i, o in enumerate(orders)) for own in owned
            ) if inside else None
        subs = projections[key]
        if subs is None:
            return RAT_ZERO
        parts = []
        for table, sub in zip(factor_tables, subs):
            d = factor_derivative(table, sub)
            if d.is_zero():
                return RAT_ZERO
            parts.append(d)
        return parts[0] if len(parts) == 1 else _product(parts)

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
    with the basis derivatives d^a b_k (`_basis_derivatives`) brought
    over one common denominator L, the coefficient of each kernel
    monomial in sum A * (L / den) * num(d^a b_k) gives one integer row
    over the columns (u, k).  A * (L / den) is formed once per jet and
    denominator; its terms times those of each numerator go straight
    into the row buckets, monomials merged by `_mono_mul` and rewritten
    by `_reduce_monomial` where a rule acts, every entry scaled by one
    integer of the equation.  Such a row is a positive multiple of the
    row of the product polynomials, so the RREF is the same.

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
    derivative = _basis_derivatives(ansatz, args)
    nb = len(ansatz.basis)
    unknowns = list(system.unknowns)
    names = set(unknowns)
    offset = {u: i * nb for i, u in enumerate(unknowns)}  # column of (u, k): offset[u] + k

    pins = ZeroPins()
    for eq in system.equations:
        coeffs = _split_by_unknown(eq, names, args)
        terms = [
            (col, jet, d)
            for jet in coeffs
            for k in range(nb)
            if (col := offset[jet[0]] + k) not in pins.pinned
            and not (d := derivative(k, jet[1])).is_zero()
        ]
        dens = {d.den.key(): d.den for *_, d in terms}
        lcm = poly_lcm(dens.values())
        cofactor = {key: poly_divexact(lcm, den) for key, den in dens.items()}
        scaled = {}  # (jet, den key) -> A * lcm / den
        products = []
        for col, jet, d in terms:
            sk = (jet, d.den.key())
            if sk not in scaled:
                scaled[sk] = coeffs[jet] * cofactor[sk[1]]
            products.append((col, scaled[sk], d.num))
        # one integer scale for the whole equation keeps its rows integral
        scale = math.lcm(*{P.den * num.den for _, P, num in products})
        buckets = {}
        for col, P, num in products:
            f = scale // (P.den * num.den)
            for m1, c1 in P.terms.items():
                c1 *= f
                for m2, c2 in num.terms.items():
                    mono, fold = _mono_mul(m1, m2)
                    if fold:
                        for m3, c3 in _reduce_monomial(mono).terms.items():
                            row = buckets.setdefault(m3, {})
                            row[col] = row.get(col, 0) + c1 * c2 * c3
                    else:
                        row = buckets.setdefault(mono, {})
                        row[col] = row.get(col, 0) + c1 * c2
        pins.add(buckets.values())
    basis_vectors = sparse_nullspace(pins.system(), len(unknowns) * nb)
    fields = []
    for i, vec in enumerate(basis_vectors):
        comps = [
            rat_sum(
                RatFunc.const(c) * ansatz.basis[k]
                for k in range(nb) if (c := vec[offset[u] + k])
            )
            for u in unknowns
        ]
        fields.append(BundleVectorField(chart, comps, name=f"X{i + 1}"))
    return fields
