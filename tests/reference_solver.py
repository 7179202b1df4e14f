"""The unpruned ansatz row assembly: a reference for tests.

`liesym.symmetry.solve_determining` pins the columns that single-entry
rows force to zero while it assembles, and builds later products only
for the free columns.  This module assembles every (jet, basis) product
of every equation over all columns, as the solver did before pinning,
so tests can check that both row sets have one RREF and give the same
fields.
"""

import math

from liesym.errors import AnsatzError
from liesym.jets import BundleVectorField
from liesym.linalg import sparse_nullspace
from liesym.symexpr.poly import RatFunc, poly_divexact, poly_lcm, rat_sum
from liesym.symmetry import (
    _basis_derivatives,
    _check_derivative_closure,
    _split_by_unknown,
)


def solve(system, ansatz):
    """(rows, ncols, fields): one integer row per kernel monomial of every
    equation, over every column (u, k), and their nullspace as vector
    fields in the solver's order and naming."""
    if not ansatz.basis:
        raise AnsatzError("empty ansatz")
    args = (system.chart.param, *system.chart.coords)
    _check_derivative_closure(ansatz, system.chart)
    derivative = _basis_derivatives(ansatz.basis, args)
    nb = len(ansatz.basis)
    col_of = {(u, k): i * nb + k
              for i, u in enumerate(system.unknowns) for k in range(nb)}
    names = set(system.unknowns)
    rows = []
    cleared = {}
    for eq in system.equations:
        coeffs = _split_by_unknown(eq, names, args)
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
