"""The unpruned ansatz row assembly: a reference for tests.

`liesym.symmetry.solve_determining` pins the columns that single-entry
rows force to zero while it assembles, builds later products only for
the free columns, and solves the kept rows over those.  This module
assembles every (jet, basis) product of every equation over all
columns, as the solver did before pinning, so tests can check that
both row sets have one RREF and give the same fields; `pinned_system`
writes the solver's rows over all columns.  It derives the basis
functions whole, each derivative from the next-lower order
(`basis_derivatives`), where the solver multiplies derivatives of each
function's factors.
"""

import math

from liesym.errors import AnsatzError
from liesym.jets import BundleVectorField
from liesym.linalg import sparse_nullspace
from liesym.symexpr import derive
from liesym.symexpr.poly import RAT_ONE, RatFunc, poly_divexact, poly_lcm, rat_sum
from liesym.symmetry import _check_derivative_closure


def basis_derivatives(basis, args):
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


def pinned_system(pins):
    """The rows a `ZeroPins` stands for: its kept rows, then one unit row
    {c: 1} per pinned column.  They have the RREF of every row added."""
    return pins.kept() + [{c: 1} for c in sorted(pins.pinned)]


def solve(system, ansatz):
    """(rows, ncols, fields): one integer row per kernel monomial of every
    equation, over every column (u, k), and their nullspace as vector
    fields in the solver's order and naming."""
    if not ansatz.basis:
        raise AnsatzError("empty ansatz")
    args = (system.chart.param, *system.chart.coords)
    _check_derivative_closure(ansatz, system.chart)
    derivative = basis_derivatives(ansatz.basis, args)
    nb = len(ansatz.basis)
    col_of = {(u, k): i * nb + k
              for i, u in enumerate(system.unknowns) for k in range(nb)}
    rows = []
    cleared = {}
    for eq in system.equations:
        # the equation's coefficients over their common denominator
        common = poly_lcm({a.den.key(): a.den for a in eq.values()}.values())
        coeffs = {jet: a.num * poly_divexact(common, a.den) for jet, a in eq.items()}
        terms = [
            (col_of[(name, k)], A, k, orders, d)
            for (name, orders), A in coeffs.items()
            for k in range(nb)
            if not (d := derivative(k, orders)).is_zero()
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
        scale = math.lcm(*(P.den for _, P in products))
        buckets = {}
        for col, P in products:
            f = scale // P.den
            for mono, c in P.terms.items():
                row = buckets.setdefault(mono, {})
                row[col] = row.get(col, 0) + c * f
        for row in buckets.values():
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
    zero = (0,) * len(args)
    fields = []
    for i, vec in enumerate(sparse_nullspace(rows, len(col_of))):
        comps = [
            rat_sum(
                RatFunc.const(c) * derivative(k, zero)
                for k in range(nb) if (c := vec[col_of[(u, k)]])
            )
            for u in system.unknowns
        ]
        fields.append(BundleVectorField(system.chart, comps, name=f"X{i + 1}"))
    return rows, len(col_of), fields
