"""Reference subspace routines for the Lie-algebra layer.

Each routine answers its question the long way, one elimination per
bracket or per unit vector, with its own derived-chain loop:

- `is_subalgebra` / `is_ideal` express every nonzero bracket in the
  given vectors with `express_in_basis`;
- `derived_series` and `is_solvable_subspace` each iterate the span of
  pairwise brackets `[v_a, v_b]`, a < b;
- `levi_complement` keeps the unit vectors that `express_in_basis`
  cannot write in the radical's rows.

`liesym.liealg` answers the same questions by rank comparisons and one
shared derived chain; tests/test_liealg_reference.py checks that both
agree.
"""

from fractions import Fraction

from liesym.liealg import span_rref
from liesym.linalg import express_in_basis


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


def levi_complement(g, rad_vectors):
    """Unit vectors outside the span of the radical's rows."""
    m = g.dim
    rad = [list(v) for v in rad_vectors]
    return [_unit(m, i) for i in range(m)
            if not rad or express_in_basis(rad, _unit(m, i)) is None]
