"""Reference subspace routines for the Lie-algebra layer.

Each routine answers its question the long way, one elimination per
bracket or per unit vector, with its own derived-chain loop:

- `is_subalgebra` / `is_ideal` express every nonzero bracket in the
  given vectors with `express_in_basis`;
- `derived_series` and `is_solvable_subspace` each iterate the span of
  pairwise brackets `[v_a, v_b]`, a < b;
- `validate_structure` checks antisymmetry entry by entry and sums the
  Jacobi identity over all m^3 ordered triples (i, j, k).

`liesym.liealg` answers the same questions by rank comparisons, one
shared derived chain and the Jacobi sum over i < j < k only;
tests/test_liealg_reference.py checks that both agree.

Two oracles check the closed-form adjoint maps of `liealg.adjoint_exp`:
`adjoint_series_truncation` sums the alternating series term by term,
and `orbit_invariants_check` substitutes each map into candidate
invariants of the coefficients.
"""

from fractions import Fraction

from liesym.errors import NonClosureError
from liesym.jets import symbol
from liesym.liealg import _identity, _mat_mul, ad_matrix, adjoint_exp, span_rref
from liesym.linalg import express_in_basis
from liesym.symexpr import substitute_atoms
from liesym.symexpr.nodes import sym_atom
from liesym.symexpr.poly import RAT_ZERO, RatFunc, rat_sum


def _unit(m, i):
    v = [Fraction(0)] * m
    v[i] = Fraction(1)
    return v


def _pair_brackets(g, vectors):
    out = []
    for a in range(len(vectors)):
        for b in range(a + 1, len(vectors)):
            w = g.bracket_coeffs(vectors[a], vectors[b])
            if any(w):
                out.append(w)
    return out


def is_subalgebra(g, vectors) -> bool:
    if not vectors:
        return True
    for a in range(len(vectors)):
        for b in range(a + 1, len(vectors)):
            w = g.bracket_coeffs(vectors[a], vectors[b])
            if any(w) and express_in_basis([list(v) for v in vectors], w) is None:
                return False
    return True


def is_ideal(g, vectors) -> bool:
    m = g.dim
    if not vectors:
        return True
    for v in vectors:
        for i in range(m):
            w = g.bracket_coeffs(list(v), _unit(m, i))
            if any(w) and express_in_basis([list(x) for x in vectors], w) is None:
                return False
    return True


def derived_series(g):
    """(dims of g >= [g, g] >= ..., the RREF bases, is_solvable)."""
    m = g.dim
    current = span_rref([_unit(m, i) for i in range(m)])
    chain = [current]
    while True:
        nxt = span_rref(_pair_brackets(g, current))
        chain.append(nxt)
        if len(nxt) == 0 or len(nxt) == len(current):
            break
        current = nxt
    return tuple(len(s) for s in chain), chain, len(chain[-1]) == 0


def is_solvable_subspace(g, vectors) -> bool:
    current = [list(v) for v in vectors]
    while current:
        nxt = span_rref(_pair_brackets(g, current))
        if len(nxt) == len(current):
            return False
        current = nxt
    return True


def validate_structure(g):
    """Raise NonClosureError unless c_ij^k = -c_ji^k and the Jacobi sum
    c_ij^l c_lk^t + c_jk^l c_li^t + c_ki^l c_lj^t vanishes for every
    ordered (i, j, k) and every t, summed over nonzero constants."""
    m = g.dim
    c = g.c
    nz = g.nonzero
    for i in range(m):
        for j in range(m):
            for k, x in nz[i][j]:
                if c[j][i][k] != -x:
                    raise NonClosureError("antisymmetry violated in structure constants")
    for i in range(m):
        for j in range(m):
            for k in range(m):
                total = {}
                for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, x in nz[a][b]:
                        for target, y in nz[l][d]:
                            total[target] = total.get(target, 0) + x * y
                if any(total.values()):
                    raise NonClosureError("Jacobi identity violated")


def adjoint_series_truncation(g, index: int, parameter: str, order: int):
    """Partial sum of the alternating adjoint series as polynomial
    matrices in the parameter: sum_{l<=order} (-q)^l ad^l / l!.

    Returned with the same row-orientation as AdjointMap."""
    m = g.dim
    a = ad_matrix(g, _unit(m, index))
    minus_q = -symbol(parameter)
    out = [[RAT_ZERO] * m for _ in range(m)]
    power = _identity(m)
    fact = 1
    for l in range(order + 1):
        for i in range(m):
            for j in range(m):
                if power[i][j]:
                    out[i][j] = out[i][j] + RatFunc.const(power[i][j] / fact) * minus_q ** l
        power = _mat_mul(power, a)
        fact *= l + 1
    return tuple(tuple(out[i][j] for i in range(m)) for j in range(m))


def orbit_invariants_check(g, candidates=None, parameter="q") -> dict:
    """Canonical invariance of candidate functions of the coefficients
    under every one-parameter adjoint map.

    Default candidates: a1, a2, a3^2 + a4^2 + a5^2."""
    m = g.dim
    syms = [symbol(f"a{i + 1}") for i in range(m)]
    if candidates is None:
        candidates = {
            "a1": syms[0],
            "a2": syms[1],
            "a3^2 + a4^2 + a5^2": rat_sum(syms[i] * syms[i] for i in (2, 3, 4)),
        }
    maps = [adjoint_exp(g, i, parameter) for i in range(m)]
    report = {}
    for label, expr in candidates.items():
        invariant = True
        failing = []
        for i, amap in enumerate(maps):
            transformed = {
                sym_atom(f"a{k + 1}"): rat_sum(syms[j] * amap.matrix[j][k] for j in range(m))
                for k in range(m)
            }
            image = substitute_atoms(expr, transformed.get)
            if not (image - expr).is_zero():
                invariant = False
                failing.append(i + 1)
        report[label] = {"invariant": invariant, "failing_generators": failing}
    return report
