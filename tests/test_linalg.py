"""The single elimination routine against a reference and the definitions.

`liesym.linalg.sparse_rref` is the only elimination in the library.  A
seeded suite of rational matrices, with duplicate, proportional, zero
and empty rows, compares its pivots and pivot rows, the nullspace,
`rank`, `span_rref` and `express_in_basis` with the dense Gauss-Jordan
of `reference_linalg`, and checks them against the definitions:
A v = 0, rank + nullity = ncols, and a target outside the span has no
coordinates.  A second seeded suite of sparse integer systems, fed to
`ZeroPins` in batches, checks that pinning forced-zero columns keeps
the RREF, and that the nullspace of the kept rows over the free columns
is the nullspace of every row added.
"""

import random
from fractions import Fraction

import pytest

import reference_linalg as ref
from reference_solver import pinned_system
from liesym.liealg import span_rref
from liesym.linalg import ZeroPins, express_in_basis, rank, sparse_nullspace, sparse_rref

SEEDS = range(250)


def _entry(rng):
    if rng.random() < 0.55:
        return Fraction(0)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def random_matrix(seed):
    """(dense rows, ncols): random rows, then rows copied, scaled, summed
    or zeroed, so ranks fall short of both dimensions."""
    rng = random.Random(seed)
    ncols = rng.randint(1, 7)
    rows = [[_entry(rng) for _ in range(ncols)] for _ in range(rng.randint(0, 6))]
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(("copy", "scale", "sum", "zero"))
        if kind == "zero" or not rows:
            rows.append([Fraction(0)] * ncols)
        elif kind == "copy":
            rows.append(list(rng.choice(rows)))
        elif kind == "scale":
            c = Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))
            rows.append([c * x for x in rng.choice(rows)])
        else:
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append([x + y for x, y in zip(a, b)])
    rng.shuffle(rows)
    return rows, ncols


def as_input(rows, seed):
    """Half the seeds pass dict rows (a zero row becomes {} or keeps
    explicit zeros), the other half dense lists."""
    if seed % 2:
        return rows
    return [{c: v for c, v in enumerate(r) if v or seed % 4 == 0} for r in rows]


def matmul(rows, v):
    return [sum(a * b for a, b in zip(r, v)) for r in rows]


def test_suite_covers_the_edge_cases():
    mats = [random_matrix(s)[0] for s in SEEDS]
    assert sum(not m for m in mats) >= 5
    assert sum(any(not any(r) for r in m) for m in mats) >= 50
    assert sum(any(m.count(r) > 1 for r in m if any(r)) for m in mats) >= 20


@pytest.mark.parametrize("seed", SEEDS)
def test_rref_matches_reference(seed):
    rows, ncols = random_matrix(seed)
    pivot_rows, pivots = sparse_rref(as_input(rows, seed), ncols)
    red, ref_pivots = ref.rref(rows)
    assert pivots == ref_pivots
    assert sorted(pivot_rows) == pivots
    for p, expected in zip(pivots, red):
        row = pivot_rows[p]
        assert all(isinstance(v, int) and v for v in row.values())
        assert min(row) == p
        assert [Fraction(row.get(j, 0), row[p]) for j in range(ncols)] == expected
    assert rank(as_input(rows, seed), ncols) == len(ref_pivots)
    assert span_rref(rows) == red


@pytest.mark.parametrize("seed", SEEDS)
def test_nullspace_matches_reference_and_definition(seed):
    rows, ncols = random_matrix(seed)
    basis = sparse_nullspace(as_input(rows, seed), ncols)
    assert basis == ref.nullspace(rows, ncols)
    for v in basis:
        assert not any(matmul(rows, v))
    assert len(basis) + rank(rows, ncols) == ncols
    assert ref.rank(basis) == len(basis)


@pytest.mark.parametrize("seed", SEEDS)
def test_express_in_basis_matches_reference_and_definition(seed):
    rng = random.Random(10_000 + seed)
    rows, dim = random_matrix(seed)
    vectors = rows  # vectors of length dim, possibly dependent or zero
    inside = [Fraction(0)] * dim
    for v in vectors:
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        inside = [x + c * y for x, y in zip(inside, v)]
    outside_dirs = ref.nullspace(vectors, dim)  # orthogonal to every vector
    targets = [inside, [_entry(rng) for _ in range(dim)]] + outside_dirs[:1]
    for target in targets:
        coeffs = express_in_basis(vectors, target)
        assert coeffs == ref.express_in_basis(vectors, target)
        if coeffs is not None:
            combo = [sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(dim)]
            assert combo == target
    assert express_in_basis(vectors, inside) is not None
    for w in outside_dirs:
        # w . w > 0 while w is orthogonal to the span
        assert express_in_basis(vectors, w) is None


PIN_SEEDS = range(150)


def random_pinned_system(seed):
    """(batches of integer dict rows, ncols).  A singleton row starts a
    chain {a}, {a, b}, {b, c}, ... that pins column after column; rows
    over chain columns only empty out once the chain is pinned; other
    rows are sparse and free; some rows repeat.  The rows arrive
    shuffled, in batches."""
    rng = random.Random(seed)
    ncols = rng.randint(2, 12)

    def value():
        return rng.choice((-5, -3, -2, -1, 1, 2, 3, 4, 7))

    chain = rng.sample(range(ncols), rng.randint(0, ncols))
    rows = [{c: value()} if i == 0 else {chain[i - 1]: value(), c: value()}
            for i, c in enumerate(chain)]
    for _ in range(rng.randint(0, 3) if chain else 0):
        rows.append({c: value() for c in rng.sample(chain, rng.randint(1, len(chain)))})
    for _ in range(rng.randint(0, 6)):
        rows.append({c: value() for c in rng.sample(range(ncols), rng.randint(1, min(4, ncols)))})
    for _ in range(rng.randint(0, 3) if rows else 0):
        rows.append(dict(rng.choice(rows)))
    rng.shuffle(rows)
    batches = []
    while rows:
        n = rng.randint(1, len(rows))
        batches.append(rows[:n])
        rows = rows[n:]
    return batches, ncols


def _pinned(seed):
    batches, ncols = random_pinned_system(seed)
    pins = ZeroPins()
    for batch in batches:
        pins.add(batch)
    return [r for b in batches for r in b], ncols, pins


def test_pin_suite_covers_the_edge_cases():
    cases = [_pinned(s) for s in PIN_SEEDS]
    assert sum(len(pins.pinned) >= 3 for *_, pins in cases) >= 30
    assert sum(any(len(r) > 1 and r.keys() <= pins.pinned for r in rows)
               for rows, _, pins in cases) >= 30
    assert sum(any(rows.count(r) > 1 for r in rows) for rows, *_ in cases) >= 30
    assert sum(0 < len(pins.pinned) < ncols and len(pins.kept()) > 0
               for _, ncols, pins in cases) >= 30


@pytest.mark.parametrize("seed", PIN_SEEDS)
def test_zero_pins_keep_the_rref(seed):
    rows, ncols, pins = _pinned(seed)
    system = pinned_system(pins)
    pivot_rows, pivots = sparse_rref(system, ncols)
    assert (pivot_rows, pivots) == sparse_rref(rows, ncols)
    dense = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    red, ref_pivots = ref.rref(dense)
    assert pivots == ref_pivots
    for p, expected in zip(pivots, red):
        row = pivot_rows[p]
        assert [Fraction(row.get(j, 0), row[p]) for j in range(ncols)] == expected
    # a pinned column is 0 in every solution; no kept row holds one, and
    # none is left with a single entry
    for v in ref.nullspace(dense, ncols):
        assert not any(v[c] for c in pins.pinned)
    assert all(len(r) > 1 and not r.keys() & pins.pinned for r in pins.kept())


@pytest.mark.parametrize("seed", PIN_SEEDS)
def test_free_column_nullspace_is_the_full_nullspace(seed):
    rows, ncols, pins = _pinned(seed)
    basis = pins.nullspace(ncols)
    assert basis == sparse_nullspace(rows, ncols)
    assert basis == sparse_nullspace(pinned_system(pins), ncols)
    assert all(type(x) is Fraction for v in basis for x in v)
    assert all(not v[c] for v in basis for c in pins.pinned)


UNIT_SEEDS = range(40)


def unit_heavy_system(seed):
    """(integer dict rows, ncols) shaped like `pinned_system`: a few
    dense rows, some of them sums of others, then unit rows {c: 1} for
    most columns.  Dense rows reach into unit-row columns in half the
    seeds, so back substitution clears pivots out of earlier rows."""
    rng = random.Random(seed)
    ncols = rng.randint(8, 30)
    units = sorted(rng.sample(range(ncols), rng.randint(ncols // 2, ncols - 2)))
    cols = range(ncols) if seed % 2 else [c for c in range(ncols) if c not in units]
    dense = []
    for _ in range(rng.randint(1, 5)):
        dense.append({c: rng.choice((-4, -2, -1, 1, 3, 5))
                      for c in rng.sample(cols, rng.randint(2, min(6, len(cols))))})
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(dense), rng.choice(dense)
        dense.append({c: a.get(c, 0) + b.get(c, 0) for c in a.keys() | b.keys()})
    return dense + [{c: 1} for c in units], ncols


def test_unit_heavy_rref_rank_and_coordinates_match_reference():
    reaching = 0
    for seed in UNIT_SEEDS:
        rows, ncols = unit_heavy_system(seed)
        dense = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
        pivot_rows, pivots = sparse_rref(rows, ncols)
        red, ref_pivots = ref.rref(dense)
        assert pivots == ref_pivots
        for p, expected in zip(pivots, red):
            row = pivot_rows[p]
            assert [Fraction(row.get(j, 0), row[p]) for j in range(ncols)] == expected
        assert rank(rows, ncols) == ref.rank(dense)
        units = {c for r in rows if len(r) == 1 for c in r}
        reaching += any(len(r) > 1 and r.keys() & units for r in rows)
        rng = random.Random(seed)
        coeffs = [rng.randint(-3, 3) for _ in dense]
        inside = [sum(c * v[i] for c, v in zip(coeffs, dense)) for i in range(ncols)]
        for target in (inside, [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]):
            assert express_in_basis(dense, target) == ref.express_in_basis(dense, target)
        assert express_in_basis(dense, inside) is not None
    assert reaching >= 15
