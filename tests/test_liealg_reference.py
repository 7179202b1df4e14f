"""The rank-based subspace routines of `liesym.liealg` and the complement
guess of `algebra` against the per-bracket reference in
tests/reference_liealg.py.

Subspaces are drawn, seeded, from unit-vector subsets, small rational
combinations, and the subalgebras and ideals those generate, in sl(4),
`vb_general` and the scaling algebra.  Basis changes are seeded
unimodular integer matrices (GL(m, Z)) applied to the structure
constants of `vb_general` and sl(4); on them the complement guess must
pick the same unit vectors as the reference, and the basis invariants
(derived-series dims, radical dimension, semisimplicity, solvability)
must not move.  The Levi verdict itself is basis-dependent and is not
asserted.  The same basis changes, with and without one antisymmetric
perturbation of a structure constant, check that the Jacobi sum over
increasing triples gives the verdict of the sum over all ordered ones.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import reference_liealg as ref
from liesym.cli import _heuristic_levi_split
from liesym.errors import NonClosureError
from liesym.files import load_generators, load_metric
from liesym.liealg import (
    LieAlgebra,
    _derived_chain,
    _is_ideal,
    _is_solvable_subspace,
    _is_subalgebra,
    _validate_structure,
    derived_series,
    radical,
    span_rref,
    structure_constants,
)

DATA = Path(__file__).parent / "data"
SMALL = [Fraction(n, d) for n in (-2, -1, 1, 2) for d in (1, 2)]


def _structure(gens, metric):
    metric = load_metric(metric)
    return structure_constants(load_generators(gens, metric.chart, metric.functions))


@pytest.fixture(scope="module")
def algebras(scaling_fields):
    return {
        "sl4": _structure(str(DATA / "sl4.gens"), str(DATA / "flat_plane.metric")),
        "vb_general": _structure("vb_general.gens", "vaidya_bonner.metric"),
        "scaling": structure_constants(scaling_fields),
    }


def _close(g, vectors, with_basis):
    """The subalgebra (with_basis False) or ideal (True) generated by
    the vectors, as an RREF basis, by bracketing until the span stops
    growing."""
    m = g.dim
    units = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    span = span_rref(vectors)
    while True:
        partners = units if with_basis else span
        grown = span_rref(span + [g.bracket_coeffs(u, v) for u in span for v in partners])
        if len(grown) == len(span):
            return span
        span = grown


def _subspaces(g, rng):
    """Seeded subspaces of g, as lists of Fraction vectors: unit-vector
    subsets, small rational combinations (possibly dependent), and the
    subalgebras and ideals those generate."""
    m = g.dim
    out = []
    for _ in range(12):
        idx = rng.sample(range(m), rng.randint(0, m))
        out.append([[Fraction(int(i == j)) for j in range(m)] for i in sorted(idx)])
    for _ in range(12):
        k = rng.randint(1, min(m, 4))
        vecs = []
        for _ in range(k):
            support = rng.sample(range(m), rng.randint(1, 3))
            vecs.append([rng.choice(SMALL) if j in support else Fraction(0)
                         for j in range(m)])
        if rng.random() < 0.25:
            vecs.append([2 * x for x in vecs[0]])
        out.append(vecs)
    out += [_close(g, v, with_basis=False) for v in out[:12:2]]
    out += [_close(g, v, with_basis=True) for v in out[1:12:3]]
    return out


@pytest.mark.parametrize("name", ["sl4", "vb_general", "scaling"])
@pytest.mark.parametrize("seed", range(4))
def test_subspace_predicates_match_reference(algebras, name, seed):
    g = algebras[name]
    rng = random.Random(1000 * seed + len(name))
    seen = {"sub": set(), "ideal": set(), "solvable": set()}
    for vectors in _subspaces(g, rng):
        sub = ref.is_subalgebra(g, vectors)
        assert _is_subalgebra(g, vectors) == sub
        ideal = ref.is_ideal(g, vectors)
        assert _is_ideal(g, vectors) == ideal
        seen["sub"].add(sub)
        seen["ideal"].add(ideal)
        if sub:
            solvable = ref.is_solvable_subspace(g, vectors)
            assert _is_solvable_subspace(g, vectors) == solvable
            seen["solvable"].add(solvable)
            chain = _derived_chain(g, vectors)
            assert chain[0] == span_rref(vectors)
            assert all(len(b) < len(a) for a, b in zip(chain, chain[1:-1]))
    # the draws reach both outcomes of every predicate
    assert all(outcomes == {True, False} for outcomes in seen.values())


@pytest.mark.parametrize("name", ["sl4", "vb_general", "scaling"])
def test_derived_series_matches_reference(algebras, name):
    g = algebras[name]
    chain, solvable = derived_series(g)
    dims, ref_chain, ref_solvable = ref.derived_series(g)
    assert chain.dims == dims
    assert [list(map(list, s)) for s in chain.subspaces] == ref_chain
    assert solvable == ref_solvable


def _unimodular(m, rng):
    """A seeded GL(m, Z) matrix and its inverse: a signed permutation
    times elementary row additions with multipliers in {-2, -1, 1, 2}."""
    perm = rng.sample(range(m), m)
    a = [[0] * m for _ in range(m)]
    inv = [[0] * m for _ in range(m)]
    for i in range(m):
        a[i][perm[i]] = inv[perm[i]][i] = rng.choice((-1, 1))
    for _ in range(m + 2):
        i, j = rng.sample(range(m), 2)
        k = rng.choice((-2, -1, 1, 2))
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        for row in inv:
            row[j] -= k * row[i]
    return a, inv


def _changed_basis(g, a, inv):
    """g in the basis Y_i = sum_j a[i][j] X_j: [Y_i, Y_j] is read in the
    X coordinates and mapped back by the inverse."""
    m = g.dim
    c = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            w = [(l, x) for l, x in enumerate(g.bracket_coeffs(a[i], a[j])) if x]
            for k in range(m):
                c[i][j][k] = sum(x * inv[l][k] for l, x in w)
                c[j][i][k] = -c[i][j][k]
    return LieAlgebra(g.basis, tuple(tuple(map(tuple, plane)) for plane in c))


def _invariants(g, rad):
    chain, solvable = g.derived
    return chain.dims, len(rad), g.killing[1], solvable


@pytest.mark.parametrize("name", ["sl4", "vb_general"])
def test_basis_changes_keep_invariants_and_complement(algebras, name):
    g0 = algebras[name]
    expected = _invariants(g0, radical(g0))
    rng = random.Random(20211 + len(name))
    for _ in range(20):
        g = _changed_basis(g0, *_unimodular(g0.dim, rng))
        rad = radical(g)
        assert _invariants(g, rad) == expected
        h = _heuristic_levi_split(g, rad)
        assert [list(e) for e in h] == ref.levi_complement(g, rad)
        assert ref.is_ideal(g, rad) and ref.is_solvable_subspace(g, rad)


def _verdict(validate, g):
    try:
        validate(g)
    except NonClosureError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name, trials", [("sl4", 2), ("vb_general", 20), ("scaling", 20)])
def test_jacobi_on_increasing_triples_matches_reference(algebras, name, trials):
    g0 = algebras[name]
    m = g0.dim
    rng = random.Random(3141 + len(name))
    rejected = 0
    for _ in range(trials):
        g = _changed_basis(g0, *_unimodular(m, rng))
        assert _verdict(_validate_structure, g) is None
        assert _verdict(ref.validate_structure, g) is None
        c = [[list(row) for row in plane] for plane in g.c]
        i, j = rng.sample(range(m), 2)
        k = rng.randrange(m)
        delta = rng.choice(SMALL)
        c[i][j][k] += delta
        c[j][i][k] -= delta
        bent = LieAlgebra(g.basis, tuple(tuple(map(tuple, plane)) for plane in c))
        verdict = _verdict(_validate_structure, bent)
        assert verdict == _verdict(ref.validate_structure, bent)
        rejected += verdict == "Jacobi identity violated"
    assert rejected > trials // 2
