"""Brackets, structure constants, Killing form, Levi split, adjoints."""

import math
from fractions import Fraction

import pytest

from liesym.charts import CoordChart
from liesym.errors import (
    ChartError,
    DependentBasisError,
    NonClosureError,
    UnsupportedAdjointError,
)
from liesym.jets import BundleVectorField
from liesym.liealg import (
    LieAlgebra,
    _validate_structure,
    adjoint_exp,
    ad_matrix,
    derived_series,
    field_bracket,
    killing_form,
    levi_check,
    levi_split,
    radical,
    span_rref,
    structure_constants,
)
from liesym.symexpr import derive, substitute_atoms
from liesym.symexpr.nodes import sym_atom
from liesym.symexpr.poly import RAT_ONE, RAT_ZERO, RatFunc, rat_sum

from conftest import make_field, rf
from reference_liealg import adjoint_series_truncation, is_subalgebra


def at(e, name, value):
    """e with the symbol `name` replaced by the RatFunc value."""
    return substitute_atoms(e, {sym_atom(name): value}.get)


def unit(m, i):
    v = [Fraction(0)] * m
    v[i] = Fraction(1)
    return v


@pytest.fixture(scope="module")
def general_algebra(general_fields):
    return structure_constants(general_fields)


@pytest.fixture(scope="module")
def rotation_algebra(rotation_fields):
    return structure_constants(rotation_fields)


@pytest.fixture(scope="module")
def scaling_algebra(scaling_fields):
    return structure_constants(scaling_fields)


class TestFieldBracket:
    def test_self_bracket_vanishes(self, general_fields):
        for X in general_fields:
            assert field_bracket(X, X).is_zero_field()

    def test_rotation_pair(self, rotation_fields):
        # bracket of the azimuthal rotation with the first tilt gives the
        # second tilt
        br = field_bracket(rotation_fields[1], rotation_fields[2])
        diff = [a - b for a, b in zip(br.components, rotation_fields[3].components)]
        assert all(d.is_zero() for d in diff)

    def test_scaling_and_translation(self, chart, scaling_fields):
        # [d_s, s d_s + t d_t + r d_r] = d_s
        br = field_bracket(scaling_fields[1], scaling_fields[0])
        assert (br.xi - rf("1")).is_zero()
        assert all(c.is_zero() for c in br.eta)

    def test_chart_mismatch(self, chart):
        other = CoordChart("u", ("x",))
        X = make_field(chart, "X", "1", ["0", "0", "0", "0"])
        Y = BundleVectorField(other, (rf("1"), rf("0")))
        with pytest.raises(ChartError):
            field_bracket(X, Y)


class TestStructureConstants:
    def test_commuting_translations(self, chart):
        Xa = make_field(chart, "A", "1", ["0", "0", "0", "0"])
        Xb = make_field(chart, "B", "0", ["1", "0", "0", "0"])
        g = structure_constants([Xa, Xb])
        assert all(
            g.c[i][j][k] == 0 for i in range(2) for j in range(2) for k in range(2)
        )

    def test_rotation_table(self, rotation_algebra):
        g = rotation_algebra
        # [X2, X3] = X4, [X2, X4] = -X3, [X3, X4] = X2
        assert g.c[1][2][3] == 1 and g.c[1][3][2] == -1 and g.c[2][3][1] == 1
        for (i, j, k) in [(1, 2, 3), (1, 3, 2), (2, 3, 1)]:
            row = [g.c[i][j][t] for t in range(4)]
            assert sum(1 for v in row if v) == 1

    def test_general_table(self, general_algebra):
        g = general_algebra
        assert g.c[2][3][4] == 1
        assert g.c[2][4][3] == -1
        assert g.c[3][4][2] == 1
        for i in (0, 1):
            for j in range(5):
                assert all(g.c[i][j][k] == 0 for k in range(5))

    def test_scaling_table(self, scaling_algebra):
        g = scaling_algebra
        assert g.c[0][1][1] == -1
        assert g.c[1][0][1] == 1

    def test_non_closure_reported(self, chart):
        Xa = make_field(chart, "A", "0", ["0", "0", "1", "0"])
        Xb = make_field(chart, "B", "0", ["0", "0", "0", "sin(theta)"])
        with pytest.raises(NonClosureError) as err:
            structure_constants([Xa, Xb])
        assert err.value.pair == (0, 1)

    def test_dependent_basis_rejected(self, chart):
        Xa = make_field(chart, "A", "1", ["0", "0", "0", "0"])
        Xb = make_field(chart, "B", "2", ["0", "0", "0", "0"])
        with pytest.raises(DependentBasisError):
            structure_constants([Xa, Xb])

    def test_antisymmetry_and_jacobi(self, general_algebra, rotation_algebra,
                                     scaling_algebra):
        for g in (general_algebra, rotation_algebra, scaling_algebra):
            m = g.dim
            for i in range(m):
                for j in range(m):
                    for k in range(m):
                        assert g.c[i][j][k] == -g.c[j][i][k]
            for i in range(m):
                for j in range(m):
                    for k in range(m):
                        for t in range(m):
                            total = Fraction(0)
                            for l in range(m):
                                total += g.c[i][j][l] * g.c[l][k][t]
                                total += g.c[j][k][l] * g.c[l][i][t]
                                total += g.c[k][i][l] * g.c[l][j][t]
                            assert total == 0


def _table(m, brackets):
    """Dense c[i][j][k] from {(i, j): {k: c_ij^k}}, mirrored by antisymmetry."""
    c = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for (i, j), image in brackets.items():
        for k, v in image.items():
            c[i][j][k] = Fraction(v)
            c[j][i][k] = -Fraction(v)
    return c


def _algebra_of(chart, c):
    """LieAlgebra with table c; the basis fields only carry names here."""
    basis = tuple(make_field(chart, f"e{i}", "0", ["0", "0", "0", "0"])
                  for i in range(len(c)))
    return LieAlgebra(basis, tuple(tuple(tuple(r) for r in p) for p in c))


SO3 = {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}}

# Semidirect sums R e0 + V with V abelian: [e0, v] = M v is a Lie
# algebra for any matrix M, and ad e0 has minimal polynomial
# lcm(x, minpoly(M)).  One table per spectrum that the adjoint maps
# interpolate on.
SPECTRA = {
    # e1 -> e2 -> e3 -> 0: minimal polynomial x^3
    "nilpotent_order_3": (4, {(0, 1): {2: 1}, (0, 2): {3: 1}}),
    # e1 -> e1 + e2, e2 -> e2: x (x - 1)^2
    "jordan_block": (3, {(0, 1): {1: 1, 2: 1}, (0, 2): {2: 1}}),
    # (ad e0)^2 = -2 on span(e1, e2): x (x^2 + 2)
    "rotation_sqrt2": (3, {(0, 1): {2: 1}, (0, 2): {1: -2}}),
    # x (x^2 + 2) (x^2 + 9)
    "two_imaginary_pairs": (5, {(0, 1): {2: 1}, (0, 2): {1: -2},
                                (0, 3): {4: 1}, (0, 4): {3: -9}}),
    # x (x - 2) (x - 1/2) (x + 1)
    "mixed_rational_roots": (4, {(0, 1): {1: 2}, (0, 2): {2: Fraction(1, 2)},
                                 (0, 3): {3: -1}}),
    # x^2 (x - 1)^2 (x^2 + 2): every kind of factor at once
    "mixed_spectrum": (7, {(0, 1): {1: 1, 2: 1}, (0, 2): {2: 1},
                           (0, 3): {4: 1}, (0, 4): {3: -2}, (0, 5): {6: 1}}),
}


@pytest.fixture(scope="module")
def spectrum_algebras(chart):
    out = []
    for name in sorted(SPECTRA):
        m, brackets = SPECTRA[name]
        out.append(_algebra_of(chart, _table(m, brackets)))
        _validate_structure(out[-1])
    return out


class TestStructureChecks:
    """_validate_structure rejects tables that are not Lie algebras."""

    def test_so3_passes(self, chart):
        _validate_structure(_algebra_of(chart, _table(3, SO3)))

    def test_rescaled_so3_passes(self, chart):
        # [e2, e0] = 2 e1: every cyclic 3-dimensional table is a Lie algebra
        _validate_structure(_algebra_of(chart, _table(3, {**SO3, (2, 0): {1: 2}})))

    @pytest.mark.parametrize("entry, value", [
        ((1, 0, 2), Fraction(-2)),  # [e1, e0] = -2 e2 against [e0, e1] = e2
        ((1, 0, 2), Fraction(0)),   # nonzero on one side only
        ((0, 0, 1), Fraction(1)),   # [e0, e0] = e1
    ])
    def test_broken_antisymmetry_rejected(self, chart, entry, value):
        c = _table(3, SO3)
        i, j, k = entry
        c[i][j][k] = value
        with pytest.raises(NonClosureError, match="antisymmetry violated"):
            _validate_structure(_algebra_of(chart, c))

    def test_deformed_so3_violates_jacobi(self, chart):
        # [e1, e2] = e0 + e1: the Jacobi sum of (e0, e1, e2) is [e1, e0] = -e2
        c = _table(3, {**SO3, (1, 2): {0: 1, 1: 1}})
        with pytest.raises(NonClosureError, match="Jacobi identity violated"):
            _validate_structure(_algebra_of(chart, c))


def _free_particle_fields():
    """The 15 Lie point symmetries of the free particle in the plane, a
    basis of sl(4), the projective algebra of (s, x, y): the translations,
    the nine linear fields z^j d_{z^i} and the three z^j (z^k d_{z^k})."""
    z = ("s", "x", "y")
    comps = []
    for i in range(3):
        comps.append(tuple("1" if k == i else "0" for k in range(3)))
    for i in range(3):
        for j in range(3):
            comps.append(tuple(z[j] if k == i else "0" for k in range(3)))
    for j in range(3):
        comps.append(tuple(f"{z[j]}*{z[k]}" for k in range(3)))
    plane = CoordChart("s", ("x", "y"))
    return [make_field(plane, f"X{n + 1}", xi, list(eta))
            for n, (xi, *eta) in enumerate(comps)]


@pytest.fixture(scope="module")
def sl4_algebra():
    return structure_constants(_free_particle_fields())


class TestFreeParticleAlgebra:
    """sl(4): 15 dimensions, 114 nonzero structure constants out of 15^3."""

    def test_sparse_view_matches_table(self, sl4_algebra):
        g = sl4_algebra
        m = g.dim
        assert m == 15
        for i in range(m):
            for j in range(m):
                assert list(g.nonzero[i][j]) == [
                    (k, g.c[i][j][k]) for k in range(m) if g.c[i][j][k]]
        assert sum(len(pair) for plane in g.nonzero for pair in plane) == 114

    def test_perfect_with_zero_radical(self, sl4_algebra):
        chain, solvable = derived_series(sl4_algebra)
        assert chain.dims == (15, 15)
        assert not solvable
        assert radical(sl4_algebra) == []
        assert levi_check(sl4_algebra, [], [unit(15, i) for i in range(15)])

    def test_killing_form_nondegenerate(self, sl4_algebra):
        g = sl4_algebra
        m = g.dim
        K, semisimple = killing_form(g)
        assert semisimple
        # tr(ad X_i ad X_j) from the dense table, (ad X_i)_ab = c_ib^a
        for i in range(m):
            for j in range(m):
                assert K[i, j] == sum(g.c[i][b][a] * g.c[j][a][b]
                                      for a in range(m) for b in range(m))


class TestDerivedSeries:
    def test_abelian(self, chart):
        Xa = make_field(chart, "A", "1", ["0", "0", "0", "0"])
        Xb = make_field(chart, "B", "0", ["1", "0", "0", "0"])
        g = structure_constants([Xa, Xb])
        chain, solvable = derived_series(g)
        assert chain.dims == (2, 0)
        assert solvable

    def test_general_algebra_chain(self, general_algebra):
        chain, solvable = derived_series(general_algebra)
        assert chain.dims[:2] == (5, 3)
        assert not solvable
        # first derived subalgebra is the rotation triple
        for v in chain.subspaces[1]:
            assert v[0] == 0 and v[1] == 0

    def test_scaling_algebra_chain(self, scaling_algebra):
        chain, solvable = derived_series(scaling_algebra)
        assert chain.dims == (5, 4, 3, 3)
        assert not solvable

    def test_perfect_rotation_triple(self, chart):
        fields = [
            make_field(chart, "R1", "0", ["0", "0", "0", "1"]),
            make_field(chart, "R2", "0", ["0", "0", "-cos(phi)", "sin(phi)*cot(theta)"]),
            make_field(chart, "R3", "0", ["0", "0", "sin(phi)", "cos(phi)*cot(theta)"]),
        ]
        g = structure_constants(fields)
        chain, solvable = derived_series(g)
        assert chain.dims == (3, 3)
        assert not solvable


class TestKillingForm:
    def test_general_algebra(self, general_algebra):
        K, semisimple = killing_form(general_algebra)
        expected = [0, 0, -2, -2, -2]
        for i in range(5):
            for j in range(5):
                assert K[i, j] == (expected[i] if i == j else 0)
        assert not semisimple

    def test_rotation_algebra(self, rotation_algebra):
        K, semisimple = killing_form(rotation_algebra)
        expected = [0, -2, -2, -2]
        for i in range(4):
            assert K[i, i] == expected[i]
        assert not semisimple

    def test_scaling_algebra(self, scaling_algebra):
        K, semisimple = killing_form(scaling_algebra)
        expected = [1, 0, -2, -2, -2]
        for i in range(5):
            assert K[i, i] == expected[i]
        assert not semisimple

    def test_symmetry_and_ad_invariance(self, general_algebra, scaling_algebra):
        for g in (general_algebra, scaling_algebra):
            K, _ = killing_form(g)
            m = g.dim
            for i in range(m):
                for j in range(m):
                    assert K[i, j] == K[j, i]
            # K([z, x], y) + K(x, [z, y]) = 0 on basis triples
            for z in range(m):
                for x in range(m):
                    for y in range(m):
                        t1 = sum(g.c[z][x][k] * K[k, y] for k in range(m))
                        t2 = sum(g.c[z][y][k] * K[x, k] for k in range(m))
                        assert t1 + t2 == 0


class TestRadicalAndLevi:
    def test_semisimple_triple_has_zero_radical(self, chart):
        fields = [
            make_field(chart, "R1", "0", ["0", "0", "0", "1"]),
            make_field(chart, "R2", "0", ["0", "0", "-cos(phi)", "sin(phi)*cot(theta)"]),
            make_field(chart, "R3", "0", ["0", "0", "sin(phi)", "cos(phi)*cot(theta)"]),
        ]
        g = structure_constants(fields)
        assert radical(g) == []

    def test_general_algebra_radical(self, general_algebra):
        rad = radical(general_algebra)
        assert [list(v) for v in rad] == [list(unit(5, 0)), list(unit(5, 1))]

    def test_scaling_algebra_radical(self, scaling_algebra):
        rad = radical(scaling_algebra)
        assert [list(v) for v in rad] == [list(unit(5, 0)), list(unit(5, 1))]

    def test_levi_split_general(self, general_algebra):
        r = [unit(5, 0), unit(5, 1)]
        h = [unit(5, 2), unit(5, 3), unit(5, 4)]
        assert levi_check(general_algebra, r, h)

    def test_levi_split_rotation_instance(self, rotation_algebra):
        assert levi_check(rotation_algebra, [unit(4, 0)],
                          [unit(4, 1), unit(4, 2), unit(4, 3)])

    def test_swapped_split_fails(self, general_algebra):
        r = [unit(5, 2), unit(5, 3), unit(5, 4)]
        h = [unit(5, 0), unit(5, 1)]
        assert not levi_check(general_algebra, r, h)

    def test_levi_split_of_the_bundled_bases(self, general_algebra, scaling_algebra):
        for g in (general_algebra, scaling_algebra):
            rad, complement, verified = levi_split(g)
            assert rad == [tuple(unit(5, 0)), tuple(unit(5, 1))]
            assert complement == [unit(5, 2), unit(5, 3), unit(5, 4)]
            assert verified

    def test_levi_factor_acting_on_the_radical(self, similitude_fields):
        g = structure_constants(similitude_fields)
        rad, complement, verified = levi_split(g)
        assert verified
        assert len(rad) == 4 and len(complement) == 3
        # g^(oo) holds the translations too, so it is no complement
        chain, _ = g.derived
        assert chain.dims == (7, 6, 6)
        # rotations about one centre: a subalgebra, off the radical
        assert is_subalgebra(g, complement)
        assert len(span_rref(list(rad) + complement)) == 7

    def test_dimension_mismatch(self, general_algebra):
        with pytest.raises(ValueError):
            levi_check(general_algebra, [unit(5, 0)], [unit(5, 2)])


class TestAdMatrix:
    def test_central_element(self, general_algebra):
        assert ad_matrix(general_algebra, unit(5, 0)) == [[Fraction(0)] * 5] * 5

    def test_rotation_generator_block(self, rotation_algebra):
        a = ad_matrix(rotation_algebra, unit(4, 1))
        # [X2, X3] = X4 and [X2, X4] = -X3: column 2 row 3 carries 1,
        # column 3 row 2 carries -1
        assert a[3][2] == 1 and a[2][3] == -1
        assert a[1][2] == 0 and a[2][1] == 0

    def test_scaling_action(self, scaling_algebra):
        a = ad_matrix(scaling_algebra, unit(5, 0))
        assert a[1][1] == -1
        assert sum(1 for i in range(5) for j in range(5) if a[i][j]) == 1


class TestAdjointExp:
    def test_central_generators_give_identity(self, general_algebra):
        for idx in (0, 1):
            amap = adjoint_exp(general_algebra, idx, f"s{idx + 1}")
            for i in range(5):
                for j in range(5):
                    expected = rf("1") if i == j else rf("0")
                    assert (amap.matrix[i][j] - expected).is_zero()

    def test_azimuthal_rotation_matrix(self, general_algebra):
        amap = adjoint_exp(general_algebra, 2, "q")
        expected = {
            (3, 3): rf("cos(q)"),
            (3, 4): rf("-sin(q)"),
            (4, 3): rf("sin(q)"),
            (4, 4): rf("cos(q)"),
        }
        for i in range(5):
            for j in range(5):
                want = expected.get((i, j), rf("1") if i == j else rf("0"))
                assert (amap.matrix[i][j] - want).is_zero(), (i, j)

    def test_tilt_rotation_matrices(self, general_algebra):
        m4 = adjoint_exp(general_algebra, 3, "q")
        assert (m4.matrix[2][4] - rf("sin(q)")).is_zero()
        assert (m4.matrix[4][2] - rf("-sin(q)")).is_zero()
        m5 = adjoint_exp(general_algebra, 4, "q")
        assert (m5.matrix[2][3] - rf("-sin(q)")).is_zero()
        assert (m5.matrix[3][2] - rf("sin(q)")).is_zero()

    def test_scaling_exponential(self, scaling_algebra):
        amap = adjoint_exp(scaling_algebra, 0, "q")
        assert (amap.matrix[1][1] - rf("exp(q)")).is_zero()
        for i in range(5):
            for j in range(5):
                if (i, j) == (1, 1):
                    continue
                expected = rf("1") if i == j else rf("0")
                assert (amap.matrix[i][j] - expected).is_zero()

    def test_nilpotent_case(self, chart):
        # heisenberg-like: [A, B] = C with C central gives a linear-in-q
        # adjoint action
        fields = [
            make_field(chart, "A", "0", ["1", "0", "0", "0"]),
            make_field(chart, "B", "0", ["t", "0", "0", "0"]),
            make_field(chart, "C", "0", ["0", "0", "0", "0"]),
        ]
        # B = t d_t does not close with A into a central C; use a direct
        # structure-constant construction instead
        z = Fraction(0)
        one = Fraction(1)
        c = [[[z] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2] = one
        c[1][0][2] = -one
        g = LieAlgebra((fields[0], fields[1], fields[2]),
                       tuple(tuple(tuple(r) for r in p) for p in c))
        amap = adjoint_exp(g, 0, "q")
        assert (amap.matrix[1][2] - rf("-q")).is_zero()
        assert (amap.matrix[1][1] - rf("1")).is_zero()

    def test_mixed_rational_eigenvalues(self, chart):
        # [A, B] = 2B and [A, C] = (1/2) C: minimal polynomial of ad A
        # is x^2 - (5/2)x + 1, whose roots need the denominator-cleared
        # rational root search
        z = Fraction(0)
        fields = [
            make_field(chart, "A", "1", ["0", "0", "0", "0"]),
            make_field(chart, "B", "0", ["1", "0", "0", "0"]),
            make_field(chart, "C", "0", ["0", "1", "0", "0"]),
        ]
        c = [[[z] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][1] = Fraction(2)
        c[1][0][1] = Fraction(-2)
        c[0][2][2] = Fraction(1, 2)
        c[2][0][2] = Fraction(-1, 2)
        g = LieAlgebra(tuple(fields), tuple(tuple(tuple(r) for r in p) for p in c))
        amap = adjoint_exp(g, 0, "q")
        assert (amap.matrix[1][1] - rf("exp(-2*q)")).is_zero()
        assert (amap.matrix[2][2] - rf("exp(-q/2)")).is_zero()
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert amap.matrix[i][j].is_zero()

    def test_unsupported_spectrum(self, chart):
        # [A, B] = B + C, [A, C] = -B + C gives eigenvalues -1 +/- i
        z = Fraction(0)
        one = Fraction(1)
        fields = [
            make_field(chart, "A", "1", ["0", "0", "0", "0"]),
            make_field(chart, "B", "0", ["1", "0", "0", "0"]),
            make_field(chart, "C", "0", ["0", "1", "0", "0"]),
        ]
        c = [[[z] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][1] = one
        c[0][1][2] = one
        c[1][0][1] = -one
        c[1][0][2] = -one
        c[0][2][1] = -one
        c[0][2][2] = one
        c[2][0][1] = one
        c[2][0][2] = -one
        g = LieAlgebra(tuple(fields), tuple(tuple(tuple(r) for r in p) for p in c))
        with pytest.raises(UnsupportedAdjointError):
            adjoint_exp(g, 0, "q")

    def test_identity_at_zero(self, general_algebra, scaling_algebra, spectrum_algebras):
        for g in (general_algebra, scaling_algebra, *spectrum_algebras):
            for idx in range(g.dim):
                amap = adjoint_exp(g, idx, "q")
                for i in range(g.dim):
                    for j in range(g.dim):
                        v = at(amap.matrix[i][j], "q", RAT_ZERO)
                        assert (v - (rf("1") if i == j else rf("0"))).is_zero()


class TestAdjointApply:
    def test_apply_row_rotates_coefficients(self, general_algebra):
        # a coefficient row transforms as a' = a . M(q)
        amap = adjoint_exp(general_algebra, 2, "q")
        coeffs = [Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(0)]
        at0, atq = amap.at(rf("0")), amap.at(rf("q"))
        out = [rat_sum(RatFunc.const(c) * row[k] for c, row in zip(coeffs, at0) if c)
               for k in range(5)]
        assert [str(v) for v in out] == ["0", "0", "0", "1", "0"]
        rotated = [rat_sum(RatFunc.const(c) * row[k] for c, row in zip(coeffs, atq) if c)
                   for k in range(5)]
        assert (rotated[3] - rf("cos(q)")).is_zero()
        assert (rotated[4] - rf("-sin(q)")).is_zero()


class TestAdjointProperties:
    def _matrices(self, g, idx, param="q"):
        return [list(row) for row in adjoint_exp(g, idx, param).matrix]

    def test_automorphism_property(self, general_algebra, scaling_algebra):
        for g in (general_algebra, scaling_algebra):
            m = g.dim
            for idx in range(m):
                mat = self._matrices(g, idx)
                for i in range(m):
                    for j in range(m):
                        for k in range(m):
                            lhs = rf("0")
                            for a in range(m):
                                for b in range(m):
                                    if g.c[a][b][k]:
                                        lhs = lhs + RatFunc.const(
                                            g.c[a][b][k]) * mat[i][a] * mat[j][b]
                            rhs = rf("0")
                            for l in range(m):
                                if g.c[i][j][l]:
                                    rhs = rhs + RatFunc.const(g.c[i][j][l]) * mat[l][k]
                            assert (lhs - rhs).is_zero()

    def test_group_law(self, general_algebra, scaling_algebra):
        for g in (general_algebra, scaling_algebra):
            m = g.dim
            for idx in range(m):
                m1 = self._matrices(g, idx, "q1")
                m2 = [[at(e, "q1", rf("q2")) for e in row] for row in m1]
                m12 = [[at(e, "q1", rf("q1 + q2")) for e in row] for row in m1]
                for i in range(m):
                    for j in range(m):
                        prod = rf("0")
                        for k in range(m):
                            prod = prod + m1[i][k] * m2[k][j]
                        assert (prod - m12[i][j]).is_zero()

    def test_killing_invariance_under_adjoint(self, general_algebra, scaling_algebra):
        for g in (general_algebra, scaling_algebra):
            K, _ = killing_form(g)
            m = g.dim
            for idx in range(m):
                mat = self._matrices(g, idx)
                # rows are images: K(Ad X_i, Ad X_j) == K(X_i, X_j)
                for i in range(m):
                    for j in range(m):
                        acc = rf("0")
                        for a in range(m):
                            for b in range(m):
                                if K[a, b]:
                                    acc = acc + RatFunc.const(K[a, b]) * mat[i][a] * mat[j][b]
                        assert (acc - RatFunc.const(K[i, j])).is_zero()

    def test_series_truncation_matches_taylor_expansion(self, general_algebra,
                                                        scaling_algebra, spectrum_algebras):
        order = 6
        for g in (general_algebra, scaling_algebra, *spectrum_algebras):
            m = g.dim
            for idx in range(m):
                closed = adjoint_exp(g, idx, "q").matrix
                series = adjoint_series_truncation(g, idx, "q", order)
                for i in range(m):
                    for j in range(m):
                        taylor = rf("0")
                        d = closed[i][j]
                        fact = 1
                        for l in range(order + 1):
                            at0 = at(d, "q", RAT_ZERO)
                            taylor = taylor + RatFunc.const(Fraction(1, fact)) * at0 * rf("q") ** l
                            d = derive(d, {"q": RAT_ONE})
                            fact *= l + 1
                        assert (taylor - series[i][j]).is_zero()
