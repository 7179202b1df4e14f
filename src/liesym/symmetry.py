"""Noether and Lie point symmetry machinery.

Residual conventions:

  * Noether: X^[1] L + (D_s xi) L, with D_s = d_s + xdot d_x; a
    field is a Noether point symmetry iff the residual vanishes.
  * Lie point: X^[2] (xddot^i - G^i) on the solution manifold
    xddot = G, which is Dhat eta_(1)^i - G^i Dhat xi - X^[1] G^i with
    Dhat = D_s + G^a d_{xdot^a}; all residuals vanish iff the field
    generates a point symmetry.

Lagrangians, residuals, first integrals and ansatz functions are
canonical RatFuncs.  The residuals are linear in the unknowns xi,
eta^a, so the generic field's residuals are built as linear forms, maps
from unknown jets (u, orders) to coefficients that hold no unknown; a
determining equation is one residual's map of coefficients of one
velocity monomial.  The solver expands the unknowns in a finite ansatz
of products of factors that share no symbol (a monomial, one kernel per
angle), derives each factor once per order, and puts the products of
each equation's cleared coefficients with the basis derivatives
straight into integer row buckets.  Columns that an equation's rows
force to zero are pinned before the next equation, which runs over the
free columns only, and so does the nullspace.  It returns the exact
rational nullspace as vector fields.
"""

from __future__ import annotations

import itertools
import math

from .charts import CoordChart
from .errors import AnsatzError, VerificationError
from .geometry import GeodesicSystem, Metric, geodesic_lagrangian
from .jets import BundleVectorField, prolong, symbol, total_coefficients
from .linalg import ZeroPins
from .symexpr import collect_ratfunc, derive, fn_ratfunc, split_monomials, substitute_atoms
from .symexpr.nodes import sym_atom
from .symexpr.poly import (
    RAT_ONE,
    RAT_ZERO,
    RatFunc,
    _mono_mul,
    _reduce_monomial,
    poly_divexact,
    poly_lcm,
    rat_sum,
)

# The --ansatz-degree cap: analyze on a bundled 4D metric takes about
# 17 s at this degree on a 2-vCPU host.
MAX_ANSATZ_DEGREE = 26


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

    An equation sum A * d^orders u is the map {(u, orders): A}, its
    jets sorted, each A a nonzero RatFunc in (s, x).  `sources` holds
    the residual and velocity monomial of each equation; `unknowns`
    labels the columns: xi, eta1, ..."""

    def __init__(self, chart: CoordChart, mode: str, equations: tuple, sources: tuple,
                 unknowns: tuple):
        self.chart = chart
        self.mode = mode
        self.equations = equations
        self.sources = sources
        self.unknowns = unknowns

    def __len__(self):
        return len(self.equations)


def _combine(terms) -> dict:
    """sum c * form over (RatFunc c, linear form) pairs, with no zero
    entry; a linear form maps unknown jets (u, orders) to RatFuncs."""
    parts = {}
    for c, form in terms:
        for jet, a in form.items():
            parts.setdefault(jet, []).append(a if c is RAT_ONE else c * a)
    return {jet: a for jet, ps in parts.items()
            if not (a := ps[0] if len(ps) == 1 else rat_sum(ps)).is_zero()}


def _derive_form(form: dict, coefficients: dict, args) -> dict:
    """The derivation sum_v c_v d/dv of a linear form, by the Leibniz
    rule: each coefficient is derived, and each jet's orders are raised
    by the derivation's (s, x) coefficients."""
    terms = [(RAT_ONE, {jet: derive(a, coefficients) for jet, a in form.items()})]
    for i, v in enumerate(args):
        if v in coefficients:
            terms.append((coefficients[v], {(u, o[:i] + (o[i] + 1,) + o[i + 1:]): a
                                            for (u, o), a in form.items()}))
    return _combine(terms)


def _residual_forms(target, mode: str, unknowns) -> list:
    """The residuals of the field with components `unknowns`, as linear
    forms in their jets, term by term as `jets.prolong`,
    `noether_residual` and `liepoint_residuals` write them."""
    chart = target.chart
    args = (chart.param, *chart.coords)
    xi, *eta = ({(u, (0,) * len(args)): RAT_ONE} for u in unknowns)
    total = total_coefficients(chart)
    dxi = _derive_form(xi, total, args)
    x1 = dict(zip(args, (xi, *eta)))
    for v, form in zip(chart.jets1, eta):
        x1[v] = _combine([(RAT_ONE, _derive_form(form, total, args)), (-symbol(v), dxi)])
    if mode == "noether":
        lagrangian = geodesic_lagrangian(target)
        return [_combine([(derive(lagrangian, {v: RAT_ONE}), form) for v, form in x1.items()]
                         + [(lagrangian, dxi)])]
    on_shell = total_coefficients(chart, target.accelerations)
    dxi = _derive_form(xi, on_shell, args)
    return [
        _combine([(RAT_ONE, _derive_form(x1[v], on_shell, args)), (-g, dxi)]
                 + [(-derive(g, {w: RAT_ONE}), form) for w, form in x1.items()])
        for v, g in zip(chart.jets1, target.accelerations)
    ]


def determining_system(target: Metric | GeodesicSystem, mode: str) -> DeterminingSystem:
    """Collect the determining equations of a Metric's geodesic
    Lagrangian (noether) or of a geodesic system (liepoint): per residual
    and velocity monomial, the coefficient of each unknown jet."""
    if mode not in ("noether", "liepoint"):
        raise ValueError("mode must be 'noether' or 'liepoint'")
    chart = target.chart
    unknowns = ("xi", *(f"eta{i + 1}" for i in range(chart.dim)))
    kept = {}  # each distinct map -> (it, its first source)
    for eq_index, form in enumerate(_residual_forms(target, mode, unknowns)):
        by_mono = {}
        for jet, a in sorted(form.items()):
            for mono, coeff in collect_ratfunc(a, chart.jets1).items():
                by_mono.setdefault(mono, {})[jet] = coeff
        for mono, eq in sorted(by_mono.items()):
            kept.setdefault(tuple((jet, c.key()) for jet, c in eq.items()), (eq, (eq_index, mono)))
    return DeterminingSystem(chart, mode, tuple(eq for eq, _ in kept.values()),
                             tuple(source for _, source in kept.values()), unknowns)


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
    Each product is built once, when a free column first asks for it."""
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
    products = {}  # (k, orders) -> d^orders basis[k]

    def factor_derivative(table, orders):
        hit = table.get(orders)
        if hit is None:
            i = max(j for j, o in enumerate(orders) if o)
            lower = orders[:i] + (orders[i] - 1,) + orders[i + 1:]
            hit = derive(factor_derivative(table, lower), {args[i]: RAT_ONE}, memos[i])
            table[orders] = hit
        return hit

    def product(k, orders):
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

    def entry(k, orders):
        hit = products.get((k, orders))
        if hit is None:
            hit = products[k, orders] = product(k, orders)
        return hit

    return entry


def solve_determining(system: DeterminingSystem, ansatz: Ansatz) -> list:
    """Expand each unknown in the ansatz, collect over all kernel
    monomials, and return the exact nullspace as vector fields
    (reduced echelon pivot order).

    Rows are assembled on canonical forms.  An equation's coefficients
    are cleared over the lcm of their denominators into polynomials A;
    with the basis derivatives d^a b_k (`_basis_derivatives`) over one
    common denominator L, the coefficient of each kernel monomial in
    sum A * (L / den) * num(d^a b_k) is one integer row over the
    columns (u, k).  A * (L / den) is formed once per jet and
    denominator, and its terms times those of each numerator go
    straight into row buckets (`_mono_mul`, `_reduce_monomial` where a
    rule acts), scaled by one integer per equation: a positive multiple
    of the row of the product polynomials, with the same RREF.

    After each equation, every column its rows force to zero is pinned
    (`linalg.ZeroPins`), and later equations run each jet over its
    unknown's free basis indices only; an equation that reaches no free
    column is skipped before its coefficients are cleared.  A pinned
    column is 0 in every solution, so an equation restricted to the
    free columns keeps its solutions.  The nullspace is that of the
    kept rows over the free columns, with 0 at each pinned column
    (`ZeroPins.nullspace`): the kept rows plus one unit row per pinned
    column have the row space, hence the RREF and the nullspace basis,
    of the rows over all columns."""
    if not ansatz.basis:
        raise AnsatzError("empty ansatz")
    chart = system.chart
    args = (chart.param, *chart.coords)
    _check_derivative_closure(ansatz, chart)
    derivative = _basis_derivatives(ansatz, args)
    nb = len(ansatz.basis)
    offset = {u: i * nb for i, u in enumerate(system.unknowns)}  # column of (u, k): offset[u] + k

    pins = ZeroPins()
    free = {u: range(nb) for u in system.unknowns}  # u -> basis indices k of free columns
    for eq in system.equations:
        terms = [
            (offset[jet[0]] + k, jet, d)
            for jet in eq
            for k in free[jet[0]]
            if not (d := derivative(k, jet[1])).is_zero()
        ]
        if not terms:
            continue
        common = poly_lcm({a.den.key(): a.den for a in eq.values()}.values())
        coeffs = {jet: a.num * poly_divexact(common, a.den) for jet, a in eq.items()}
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
        pinned = len(pins.pinned)
        pins.add(buckets.values())
        if len(pins.pinned) > pinned:
            free = {u: [k for k in ks if offset[u] + k not in pins.pinned]
                    for u, ks in free.items()}
    basis_vectors = pins.nullspace(len(offset) * nb)
    fields = []
    for i, vec in enumerate(basis_vectors):
        comps = [
            rat_sum(
                RatFunc.const(c) * ansatz.basis[k]
                for k in range(nb) if (c := vec[offset[u] + k])
            )
            for u in system.unknowns
        ]
        fields.append(BundleVectorField(chart, comps, name=f"X{i + 1}"))
    return fields
