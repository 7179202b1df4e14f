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
whose functions are a monomial times one kernel per angle, takes the
monomials' derivatives in closed form and each kernel's once per order,
and puts the products of each equation's cleared coefficients with the
basis derivatives straight into integer row buckets.  Columns that an
equation's rows force to zero are pinned before the next equation,
which runs over the free columns only, and so does the nullspace.  It returns the exact
rational nullspace as vector fields.
"""

from __future__ import annotations

import itertools
import math
from functools import cache

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

    basis[k] is a monomial in `poly_vars` times one kernel per angle:
    `parts[k]` holds its exponents, one per poly var, and its kernel
    indices, one per pair (angle, kernels) of `angle_kernels`.  The poly
    vars and angles are distinct symbols, and every atom of a kernel
    names its angle alone, so the factors of a function share no symbol
    (`_product`).  `kernels` names each angle's kernels for reports."""

    def __init__(self, poly_vars: tuple, angle_kernels: tuple, parts: tuple, degree: int = 2,
                 kernels: tuple = ()):
        names = (*poly_vars, *(a for a, _ in angle_kernels))
        if len(set(names)) != len(names) or any(
                atom.free_symbols() != {a}
                for a, ks in angle_kernels for k in ks for atom in k.atoms()):
            raise AnsatzError("ansatz factors must share no symbol")
        self.poly_vars = poly_vars
        self.angle_kernels = angle_kernels
        self.parts = parts
        self.degree = degree
        self.kernels = kernels
        monos = {}
        basis = []
        for exps, kerns in parts:
            if exps not in monos:
                monos[exps] = _monomial(poly_vars, exps)
            chosen = (ks[i] for (_, ks), i in zip(angle_kernels, kerns))
            basis.append(_product([monos[exps], *chosen]))
        self.basis = tuple(basis)

    def __len__(self):
        return len(self.basis)


def _monomial(names, exps) -> RatFunc:
    """prod names[i]^exps[i]."""
    out = RAT_ONE
    for v, e in zip(names, exps):
        if e:
            out = out * symbol(v) ** e
    return out


def _product(parts) -> RatFunc:
    """The product of RatFuncs in pairwise disjoint atoms, as Polys;
    RAT_ONE factors are skipped.

    No rewrite rule acts on a monomial of atoms from different factors,
    so the products of the numerators and of the denominators are
    already reduced; the denominators are integral, primitive, with
    positive leads, and so is their product, which shares no atom with
    the numerators' product."""
    parts = [p for p in parts if p is not RAT_ONE]
    if len(parts) < 2:
        return parts[0] if parts else RAT_ONE
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
    angles carry {1, sin, cos}.  The basis runs over the monomials, in
    `itertools.product` order of their exponents, and per monomial over
    the kernel choices in the same order.
    """
    poly_vars = (chart.param, *(c for c in chart.coords if c not in chart.angles))
    angle_kernels = []
    names = []
    for pos, a in enumerate(chart.angles):
        sin, cos = fn_ratfunc("sin", symbol(a)), fn_ratfunc("cos", symbol(a))
        if pos == 0:
            angle_kernels.append((a, (RAT_ONE, sin, cos, fn_ratfunc("cot", symbol(a)),
                                      sin.inverse())))
            names.append(f"{a}: 1, sin, cos, cot, csc")
        else:
            angle_kernels.append((a, (RAT_ONE, sin, cos)))
            names.append(f"{a}: 1, sin, cos")
    parts = tuple(
        (exps, kerns)
        for exps in itertools.product(range(degree + 1), repeat=len(poly_vars))
        if sum(exps) <= degree
        for kerns in itertools.product(*(range(len(ks)) for _, ks in angle_kernels))
    )
    return Ansatz(poly_vars, tuple(angle_kernels), parts, degree=degree, kernels=tuple(names))


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


def _basis_derivatives(ansatz: Ansatz, args):
    """derivative(k, orders) -> canonical RatFunc of d^orders basis[k].

    basis[k] is a monomial times one kernel per angle, factors in
    disjoint symbols (`Ansatz`), so d^orders basis[k] is the product
    (`_product`) of the monomial's derivative in the orders of the poly
    vars, a falling factorial times the lowered monomial, and of each
    kernel's derivative in its angle's order; it is 0 when an order
    falls on a symbol of neither.  Each kernel is derived once per
    order, from the next-lower order; monomial derivatives and products
    are cached as well, a product built when a free column first asks
    for it.  By derivative closure (`_check_derivative_closure`) a
    kernel's derivatives stay within the atoms of its angle, so the
    products stay disjoint."""
    at = {v: i for i, v in enumerate(args)}
    mono_at = tuple(at[v] for v in ansatz.poly_vars)
    angle_at = tuple(at[a] for a, _ in ansatz.angle_kernels)
    outside = tuple(i for i in range(len(args)) if i not in mono_at + angle_at)
    memos = [{} for _ in angle_at]

    @cache
    def kernel(j, i, order):
        if order == 0:
            return ansatz.angle_kernels[j][1][i]
        return derive(kernel(j, i, order - 1), {args[angle_at[j]]: RAT_ONE}, memos[j])

    @cache
    def monomial(exps, orders):
        c = math.prod(math.perm(e, o) for e, o in zip(exps, orders))
        lowered = _monomial(ansatz.poly_vars, [e - o for e, o in zip(exps, orders)])
        return lowered if c == 1 else RatFunc.const(c) * lowered

    @cache
    def product(k, orders):
        exps, kerns = ansatz.parts[k]
        mono_orders = tuple(orders[i] for i in mono_at)
        if any(orders[i] for i in outside) or any(o > e for e, o in zip(exps, mono_orders)):
            return RAT_ZERO
        parts = [monomial(exps, mono_orders)]
        for j, i in enumerate(kerns):
            d = kernel(j, i, orders[angle_at[j]])
            if d.is_zero():
                return RAT_ZERO
            parts.append(d)
        return _product(parts)

    return product


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
