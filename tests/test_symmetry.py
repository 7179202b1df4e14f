"""Noether/Lie point residuals, determining equations, ansatz solver."""

import random
from fractions import Fraction

import pytest

from liesym.charts import CoordChart
from liesym.errors import AnsatzError, VerificationError
from liesym.geometry import Metric, geodesic_lagrangian, geodesic_system
from liesym.files import load_metric
from liesym.jets import total
from liesym.linalg import express_in_basis, sparse_rref
from liesym.symexpr import (
    NonPolynomialError,
    collect_ratfunc,
    derive,
    substitute_atoms,
)
from liesym.symexpr.poly import RAT_ONE, RAT_ZERO
from liesym.symmetry import (
    Ansatz,
    _assert_velocity_degree,
    DeterminingSystem,
    default_ansatz,
    determining_system,
    noether_first_integral,
    noether_residual,
    liepoint_residuals,
    solve_determining,
    verify_liepoint,
    verify_noether,
)
from liesym.liealg import field_bracket, _coordinates

import liesym.symmetry
import reference_solver
from conftest import make_field, rf
from reference_calculus import evaluate_rational
from reference_linalg import rank as reference_rank


class TestNoetherResidual:
    def test_parameter_translation(self, chart, vb_lagrangian):
        X = make_field(chart, "X", "1", ["0", "0", "0", "0"])
        assert noether_residual(X, vb_lagrangian).is_zero()

    def test_cyclic_coordinate(self, chart, vb_lagrangian):
        X = make_field(chart, "X", "0", ["0", "0", "0", "1"])
        assert noether_residual(X, vb_lagrangian).is_zero()

    def test_time_translation_residual(self, chart, vb_lagrangian):
        X = make_field(chart, "X", "0", ["1", "0", "0", "0"])
        res = noether_residual(X, vb_lagrangian)
        expected = rf("(D(M, t)/r - D(Q, t)/r^2)*tdot^2")
        assert (res - expected).is_zero()

    def test_degree_bound(self, chart, vb_lagrangian):
        rng = random.Random(31)
        for _ in range(10):
            from test_jets import random_polynomial_field

            X = random_polynomial_field(chart, rng)
            res = noether_residual(X, vb_lagrangian)
            monos = collect_ratfunc(res, chart.jets1)
            assert all(sum(k) <= 3 for k in monos)


class TestVerifyNoether:
    def test_general_passing_fields(self, vb_lagrangian, general_fields):
        passing = [general_fields[0], general_fields[2], general_fields[3],
                   general_fields[4]]
        for X in passing:
            rep = verify_noether(X, vb_lagrangian)
            assert rep.passed, X.name

    def test_time_translation_fails_generally(self, vb_lagrangian, general_fields):
        rep = verify_noether(general_fields[1], vb_lagrangian)
        assert not rep.passed
        assert rep.constant_functions_pass
        assert rep.notes

    def test_time_translation_fails_on_growing_charge(self, chart, vb_m1_qt):
        X = make_field(chart, "X", "0", ["1", "0", "0", "0"])
        rep = verify_noether(X, geodesic_lagrangian(vb_m1_qt))
        assert not rep.passed
        assert (rep.residuals[0] - rf("-tdot^2/r^2")).is_zero()

    def test_zero_field_passes(self, chart, vb_lagrangian):
        X = make_field(chart, "Z", "0", ["0", "0", "0", "0"])
        assert verify_noether(X, vb_lagrangian).passed

    def test_csc_variant_fails(self, chart, vb_lagrangian, vb_system):
        X = make_field(chart, "X", "0",
                       ["0", "0", "sin(phi)", "cos(phi)/sin(theta)"])
        assert not verify_noether(X, vb_lagrangian).passed
        assert not verify_liepoint(X, vb_system).passed


class TestFirstIntegrals:
    def test_azimuthal_momentum(self, chart, vb_lagrangian, vb_system):
        X = make_field(chart, "X", "0", ["0", "0", "0", "1"])
        integral = noether_first_integral(X, vb_lagrangian)
        assert (integral - rf("-2*r^2*sin(theta)^2*phidot")).is_zero()
        d = substitute_atoms(total(integral, chart), vb_system.on_shell.get)
        assert d.is_zero()

    def test_parameter_translation_gives_lagrangian(self, chart, vb_lagrangian):
        X = make_field(chart, "X", "1", ["0", "0", "0", "0"])
        assert (noether_first_integral(X, vb_lagrangian) - vb_lagrangian).is_zero()

    def test_rotation_integral(self, chart, vb_lagrangian, vb_system):
        X = make_field(chart, "X", "0",
                       ["0", "0", "-cos(phi)", "sin(phi)*cot(theta)"])
        integral = noether_first_integral(X, vb_lagrangian)
        expected = rf(
            "2*r^2*cos(phi)*thetadot - 2*r^2*sin(phi)*cos(theta)*sin(theta)*phidot"
        )
        assert (integral - expected).is_zero()
        d = substitute_atoms(total(integral, chart), vb_system.on_shell.get)
        assert d.is_zero()

    def test_failing_field_has_no_first_integral(self, chart, vb_lagrangian):
        X = make_field(chart, "X", "0", ["1", "0", "0", "0"])
        rep = verify_noether(X, vb_lagrangian)
        assert not rep.passed
        assert rep.first_integral is None


class TestLiepointResiduals:
    def test_parameter_translation(self, chart, vb_system):
        X = make_field(chart, "X", "1", ["0", "0", "0", "0"])
        assert all(r.is_zero() for r in liepoint_residuals(X, vb_system))

    def test_azimuthal_rotation(self, chart, vb_system):
        X = make_field(chart, "X", "0", ["0", "0", "0", "1"])
        assert all(r.is_zero() for r in liepoint_residuals(X, vb_system))

    def test_scaling_field_on_homothetic_instance(self, chart, vb_mt_qt2):
        X = make_field(chart, "X", "s", ["t", "r", "0", "0"])
        assert verify_liepoint(X, geodesic_system(vb_mt_qt2)).passed

    def test_degree_bound_after_restriction(self, chart, vb_system):
        rng = random.Random(32)
        from test_jets import random_polynomial_field

        for _ in range(5):
            X = random_polynomial_field(chart, rng)
            for res in liepoint_residuals(X, vb_system):
                monos = collect_ratfunc(res, chart.jets1)
                assert all(sum(k) <= 3 for k in monos)


class TestVelocityDegreeCheck:
    """The residual check reads the degree from the numerator's
    monomials and keeps every error of the collection it replaced."""

    def test_degree_matches_collection(self, chart, vb_system):
        rng = random.Random(33)
        from test_jets import random_polynomial_field

        degrees = []
        for _ in range(3):
            X = random_polynomial_field(chart, rng)
            for res in liepoint_residuals(X, vb_system):
                monos = collect_ratfunc(res, chart.jets1)
                degree = max((sum(k) for k in monos), default=0)
                _assert_velocity_degree(res, chart, degree, "residual")
                if degree:
                    with pytest.raises(VerificationError, match="exceeds velocity degree"):
                        _assert_velocity_degree(res, chart, degree - 1, "residual")
                degrees.append(degree)
        assert degrees and all(d == 3 for d in degrees)

    def test_acceleration_symbols_raise(self, chart):
        with pytest.raises(VerificationError, match="acceleration symbols"):
            _assert_velocity_degree(rf("tdot + r*rddot"), chart, 3, "residual")

    def test_degree_above_bound_raises(self, chart):
        _assert_velocity_degree(rf("tdot^2*rdot/r + M(t)", {"M": ("t",)}), chart, 3, "residual")
        with pytest.raises(VerificationError, match="exceeds velocity degree 3"):
            _assert_velocity_degree(rf("tdot^2*rdot^2/r + 1"), chart, 3, "residual")

    def test_velocity_in_denominator_raises(self, chart):
        with pytest.raises(NonPolynomialError, match="denominator"):
            _assert_velocity_degree(rf("r/(1 + tdot)"), chart, 3, "residual")

    def test_velocity_inside_kernel_raises(self, chart):
        with pytest.raises(NonPolynomialError, match="inside a kernel"):
            _assert_velocity_degree(rf("r*sin(phidot) + tdot"), chart, 3, "residual")


class TestDeterminingSystem:
    def test_free_particle_classical_set(self):
        chart = CoordChart("s", ("x",))
        flat = Metric(chart, ((rf("1"),),))
        ds = determining_system(geodesic_system(flat), "liepoint")
        assert len(ds.equations) == 4
        assert ds.mode == "liepoint"

    def test_no_jets_remain(self, vb_general):
        ds = determining_system(vb_general, "noether")
        jets = set(vb_general.chart.jets1) | set(vb_general.chart.jets2)
        for eq in ds.equations:
            assert not (eq.free_symbols() & jets)
            assert not eq.is_zero()

    def test_velocity_squared_equation_mentions_radial_unknown(self, vb_general):
        # the thetadot^2 coefficient couples eta2 and the theta-derivative
        # of eta3 in the invariant-action system
        ds = determining_system(vb_general, "noether")
        tagged = dict(zip(ds.sources, ds.equations))
        eq = tagged[(0, (0, 0, 2, 0))]
        names = {
            a.payload[0]
            for a in eq.atoms()
            if a.kind == "op"
        }
        assert "eta2" in names and "eta3" in names

    def test_cross_velocity_equation(self, vb_general):
        ds = determining_system(vb_general, "noether")
        tagged = dict(zip(ds.sources, ds.equations))
        eq = tagged[(0, (1, 0, 1, 0))]
        atoms = {
            a.payload[:2] + (a.payload[2],)
            for a in eq.atoms()
            if a.kind == "op" and a.payload[0] == "eta1"
        }
        # contains the theta-derivative of the time component eta1
        assert any(orders[3] == 1 for (_, _, orders) in atoms)


def brute_force_nullity(metric, degree, rows_per_equation=8):
    """Independent oracle: nullity of the determining map from the rank
    of rows sampled at random rational points, bypassing the symbolic
    monomial-collection path entirely."""
    chart = metric.chart
    ds = determining_system(geodesic_system(metric), "liepoint")
    ansatz = default_ansatz(chart, degree)
    nb = len(ansatz.basis)
    unknowns = list(ds.unknowns)
    args = (chart.param, *chart.coords)
    col = {(u, k): i * nb + k for i, u in enumerate(unknowns) for k in range(nb)}
    ncols = nb * len(unknowns)

    rng = random.Random(919)
    rows = []
    deriv_cache = {}
    for eq in ds.equations:
        atoms = [a for a in eq.atoms() if a.kind == "op"]
        coeff_of = {}
        for a in atoms:
            picks = {b: RAT_ONE if b == a else RAT_ZERO for b in atoms}
            coeff_of[a] = substitute_atoms(eq, picks.get)
        for a in atoms:
            orders = a.payload[2]
            for k in range(nb):
                if (orders, k) not in deriv_cache:
                    b = ansatz.basis[k]
                    for sym, order in zip(args, orders):
                        for _ in range(order):
                            b = derive(b, {sym: RAT_ONE})
                    deriv_cache[(orders, k)] = b
        produced = 0
        attempts = 0
        while produced < rows_per_equation and attempts < 50:
            attempts += 1
            point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for v in args}
            try:
                row = [Fraction(0)] * ncols
                for a in atoms:
                    name, _, orders = a.payload
                    cval = evaluate_rational(coeff_of[a], point)
                    if not cval:
                        continue
                    for k in range(nb):
                        bval = evaluate_rational(deriv_cache[(orders, k)], point)
                        if bval:
                            row[col[(name, k)]] += cval * bval
                rows.append(row)
                produced += 1
            except ZeroDivisionError:
                continue
    return ncols - reference_rank(rows)


class TestFreeParticleSolver:
    def test_one_dimensional_nullity_is_8(self):
        chart = CoordChart("s", ("x",))
        flat = Metric(chart, ((rf("1"),),))
        oracle = brute_force_nullity(flat, 2)
        assert oracle == 8
        ds = determining_system(geodesic_system(flat), "liepoint")
        sols = solve_determining(ds, default_ansatz(chart, 2))
        assert len(sols) == oracle

    def test_two_dimensional_nullity_is_15(self):
        chart = CoordChart("s", ("x", "y"))
        flat = Metric(chart, ((rf("1"), rf("0")), (rf("0"), rf("1"))))
        oracle = brute_force_nullity(flat, 2)
        assert oracle == 15
        ds = determining_system(geodesic_system(flat), "liepoint")
        sols = solve_determining(ds, default_ansatz(chart, 2))
        assert len(sols) == oracle


def _diagonal_metric(coords, diagonal, name):
    chart = CoordChart("s", coords)
    n = len(coords)
    return Metric(chart, tuple(tuple(rf(diagonal[i]) if i == j else rf("0")
                                     for j in range(n)) for i in range(n)), name=name)


PINNING_CASES = [
    # (metric, mode, nullspace dimension)
    ("vaidya_bonner.metric", "noether", 4),
    ("vaidya_bonner.metric", "liepoint", 5),
    ("vaidya_bonner_M1_Qt.metric", "noether", 4),
    ("vaidya_bonner_M1_Qt.metric", "liepoint", 5),
    ("vaidya_bonner_Mt_Qt2.metric", "noether", 5),
    ("vaidya_bonner_Mt_Qt2.metric", "liepoint", 6),
    ("flat_plane", "noether", 5),
    ("flat_plane", "liepoint", 15),
    ("minkowski4", "noether", 12),
    ("minkowski4", "liepoint", 35),
    ("de_sitter2", "noether", 3),
    ("de_sitter2", "liepoint", 4),
]


def _pinning_metric(name):
    if name == "flat_plane":
        return _diagonal_metric(("x", "y"), ("1", "1"), name)
    if name == "minkowski4":
        return _diagonal_metric(("t", "x", "y", "z"), ("-1", "1", "1", "1"), name)
    if name == "de_sitter2":
        return _diagonal_metric(("t", "x"), ("-1", "exp(2*t)"), name)
    return load_metric(name)


class TestPinnedAssembly:
    """The solver pins forced-zero columns while it assembles; the rows it
    hands to the nullspace must have the RREF of every row of the
    unpruned assembly, and give the same fields."""

    @pytest.mark.parametrize("name, mode, dim", PINNING_CASES)
    def test_matches_unpruned_assembly(self, monkeypatch, name, mode, dim):
        metric = _pinning_metric(name)
        target = metric if mode == "noether" else geodesic_system(metric)
        system = determining_system(target, mode)
        ansatz = default_ansatz(metric.chart, 2)
        handed = []
        nullspace = liesym.symmetry.sparse_nullspace

        def spy(rows, ncols):
            handed.append((rows, ncols))
            return nullspace(rows, ncols)

        monkeypatch.setattr(liesym.symmetry, "sparse_nullspace", spy)
        fields = solve_determining(system, ansatz)
        (rows, ncols), = handed
        ref_rows, ref_ncols, ref_fields = reference_solver.solve(system, ansatz)
        assert ncols == ref_ncols
        assert sparse_rref(rows, ncols) == sparse_rref(ref_rows, ref_ncols)
        assert len(fields) == len(ref_fields) == dim
        assert [[c.key() for c in f.components] for f in fields] == \
            [[c.key() for c in f.components] for f in ref_fields]


class TestSolverOnConcreteMetrics:

    def test_invariant_action_solve_dimension(self, m1qt_noether_solve):
        assert len(m1qt_noether_solve) == 4

    def test_span_matches_golden_fields(self, m1qt_noether_solve, rotation_fields):
        vecs = _coordinates(list(m1qt_noether_solve) + list(rotation_fields))[2]
        solved = [list(v) for v in vecs[:4]]
        golden = [list(v) for v in vecs[4:]]
        for v in golden:
            assert express_in_basis(solved, v) is not None
        for v in solved:
            assert express_in_basis(golden, v) is not None

    def test_solver_soundness(self, vb_m1_qt, m1qt_noether_solve):
        lagrangian = geodesic_lagrangian(vb_m1_qt)
        for f in m1qt_noether_solve:
            assert verify_noether(f, lagrangian).passed

    def test_solver_closure_under_bracket(self, vb_m1_qt, m1qt_noether_solve):
        fields = list(m1qt_noether_solve)
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                br = field_bracket(fields[i], fields[j])
                if br.is_zero_field():
                    continue
                *vecs, target = _coordinates([*fields, br])[2]
                assert express_in_basis([list(v) for v in vecs], list(target)) is not None

    def test_liepoint_solve_contains_affine_reparametrizations(self, vb_m1_qt):
        # the point-symmetry span always carries d_s and s d_s on top of
        # the invariant-action fields
        ds = determining_system(geodesic_system(vb_m1_qt), "liepoint")
        sols = solve_determining(ds, default_ansatz(vb_m1_qt.chart, 2))
        assert len(sols) == 5
        chart = vb_m1_qt.chart
        scaling = make_field(chart, "S", "s", ["0", "0", "0", "0"])
        *vecs, target = _coordinates([*sols, scaling])[2]
        assert express_in_basis([list(v) for v in vecs], list(target)) is not None


class TestOpaqueProfileSolve:
    def test_invariant_action_solve_with_arbitrary_profiles(self, vb_general,
                                                            general_fields):
        # determining equations must vanish identically in the
        # mass/charge derivative atoms, which excludes the time
        # translation automatically
        ds = determining_system(vb_general, "noether")
        sols = solve_determining(ds, default_ansatz(vb_general.chart, 2))
        assert len(sols) == 4
        golden = [general_fields[0], general_fields[2], general_fields[3],
                  general_fields[4]]
        vecs = _coordinates(list(sols) + golden)[2]
        solved = [list(v) for v in vecs[:4]]
        for v in vecs[4:]:
            assert express_in_basis(solved, list(v)) is not None


class TestDifferentChart:
    def test_sphere_point_symmetries(self):
        # two-coordinate chart: affine reparametrizations plus the
        # rotation triple, every returned field verified sound
        chart = CoordChart("s", ("theta", "phi"), ("theta", "phi"))
        sphere = Metric(
            chart, ((rf("1"), rf("0")), (rf("0"), rf("sin(theta)^2"))),
            name="sphere",
        )
        system = geodesic_system(sphere)
        ds = determining_system(system, "liepoint")
        sols = solve_determining(ds, default_ansatz(chart, 2))
        assert len(sols) == 5
        for f in sols:
            assert verify_liepoint(f, system).passed
        from liesym.liealg import killing_form, structure_constants

        rotations = [f for f in sols if f.xi.is_zero()]
        assert len(rotations) == 3
        K, semisimple = killing_form(structure_constants(rotations))
        assert semisimple
        assert all(K[i, i] == -2 for i in range(3))


class TestGeneralityMonotonicity:
    def test_general_solutions_pass_on_instances(self, chart, vb_lagrangian,
                                                 vb_m1_qt, vb_mt_qt2,
                                                 general_fields):
        passing = [f for f in general_fields
                   if verify_noether(f, vb_lagrangian).passed]
        assert len(passing) == 4
        for inst in (vb_m1_qt, vb_mt_qt2):
            lagrangian, system = geodesic_lagrangian(inst), geodesic_system(inst)
            for f in passing:
                assert verify_noether(f, lagrangian).passed, f.name
                assert verify_liepoint(f, system).passed, f.name


class TestAnsatz:
    def test_default_size_for_radiating_chart(self, chart):
        a = default_ansatz(chart, 2)
        assert len(a.basis) == 150

    def test_not_derivative_closed_rejected(self, chart, vb_general):
        # d/dr sin(r^2) introduces the kernel cos(r^2) that the basis
        # cannot express
        bad = Ansatz((rf("sin(r^2)"),), degree=0)
        ds = determining_system(vb_general, "noether")
        with pytest.raises(AnsatzError):
            solve_determining(ds, bad)

    def test_empty_rejected(self, vb_general):
        ds = determining_system(vb_general, "noether")
        with pytest.raises(AnsatzError):
            solve_determining(ds, Ansatz((), degree=0))


class TestDeterminingEquationShape:
    """solve_determining rejects equations that are not linear and
    homogeneous in the unknown jets with the declared arguments."""

    UNKNOWNS = {"xi": ("s", "x"), "eta1": ("s", "x")}

    @classmethod
    def _solve(cls, *equations, functions=UNKNOWNS):
        chart = CoordChart("s", ("x",))
        system = DeterminingSystem(
            chart, "liepoint",
            tuple(rf(e, functions) for e in equations),
            tuple((0, (k,)) for k in range(len(equations))),
            tuple(cls.UNKNOWNS),
        )
        return solve_determining(system, default_ansatz(chart, 1))

    def test_linear_homogeneous_accepted(self):
        # xi_s = 0 and eta1 = 0 leave xi = c0 + c1*x
        sols = self._solve("D(xi, s)", "eta1(s, x)")
        assert len(sols) == 2

    @pytest.mark.parametrize("eq", [
        "xi(s, x)^2",
        "xi(s, x)*D(eta1, x)",
        "sin(xi(s, x))",
        "D(xi, s)/xi(s, x)",
    ])
    def test_nonlinear_rejected(self, eq):
        with pytest.raises(AnsatzError, match="linear in the unknowns"):
            self._solve(eq)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(AnsatzError, match="inhomogeneous"):
            self._solve("xi(s, x) + 1")

    @pytest.mark.parametrize("eq", ["xi(s)", "eta1(x, s)"])
    def test_wrong_unknown_arguments_rejected(self, eq):
        with pytest.raises(AnsatzError, match="unexpected unknown arguments"):
            self._solve(eq, functions=None)

    @pytest.mark.parametrize("eq, message, functions", [
        ("xi(s, x)^2", "linear in the unknowns", UNKNOWNS),
        ("D(xi, s)*D(xi, x)", "linear in the unknowns", UNKNOWNS),
        ("xi(s, x) + 1", "inhomogeneous", UNKNOWNS),
        ("xi(s)", "unexpected unknown arguments", None),
    ])
    def test_malformed_equation_rejected_after_its_columns_are_pinned(self, eq, message,
                                                                      functions):
        # xi = 0 and eta1 = 0 pin every column before the last equation,
        # which is still split and rejected
        with pytest.raises(AnsatzError, match=message):
            self._solve("xi(s, x)", "eta1(s, x)", eq, functions=functions)
