"""Noether/Lie point residuals, determining equations, ansatz solver."""

import random
from fractions import Fraction

import pytest

from liesym.charts import CoordChart
from liesym.errors import AnsatzError, VerificationError
from liesym.geometry import Metric, geodesic_lagrangian, geodesic_system
from liesym.jets import BundleVectorField, total_derivative
from liesym.linalg import express_in_basis, rank_dense
from liesym.symexpr import (
    Num,
    Sym,
    collect,
    differentiate,
    evaluate_rational,
    is_zero,
    parse_expr,
    substitute,
)
from liesym.symexpr.canonical import canonical_ratfunc
from liesym.symmetry import (
    Ansatz,
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
from liesym.liealg import field_bracket, _component_vectors

from conftest import make_field


class TestNoetherResidual:
    def test_parameter_translation(self, chart, vb_lagrangian):
        X = make_field(chart, "X", "1", ["0", "0", "0", "0"])
        assert is_zero(noether_residual(X, vb_lagrangian))

    def test_cyclic_coordinate(self, chart, vb_lagrangian):
        X = make_field(chart, "X", "0", ["0", "0", "0", "1"])
        assert is_zero(noether_residual(X, vb_lagrangian))

    def test_time_translation_residual(self, chart, vb_lagrangian):
        X = make_field(chart, "X", "0", ["1", "0", "0", "0"])
        res = noether_residual(X, vb_lagrangian)
        expected = parse_expr("(D(M, t)/r - D(Q, t)/r^2)*tdot^2")
        assert is_zero(res - expected)

    def test_degree_bound(self, chart, vb_lagrangian):
        rng = random.Random(31)
        for _ in range(10):
            from test_jets import random_polynomial_field

            X = random_polynomial_field(chart, rng)
            res = noether_residual(X, vb_lagrangian)
            monos = collect(res, chart.jets1)
            assert all(sum(k) <= 3 for k in monos)


class TestVerifyNoether:
    def test_general_passing_fields(self, vb_general, general_fields):
        passing = [general_fields[0], general_fields[2], general_fields[3],
                   general_fields[4]]
        for X in passing:
            rep = verify_noether(X, vb_general)
            assert rep.passed, X.name

    def test_time_translation_fails_generally(self, vb_general, general_fields):
        rep = verify_noether(general_fields[1], vb_general)
        assert not rep.passed
        assert rep.constant_functions_pass
        assert rep.notes

    def test_time_translation_fails_on_growing_charge(self, chart, vb_m1_qt):
        X = make_field(chart, "X", "0", ["1", "0", "0", "0"])
        rep = verify_noether(X, vb_m1_qt)
        assert not rep.passed
        assert is_zero(rep.residuals[0] - parse_expr("-tdot^2/r^2"))

    def test_zero_field_passes(self, chart, vb_general):
        X = make_field(chart, "Z", "0", ["0", "0", "0", "0"])
        assert verify_noether(X, vb_general).passed

    def test_gauge_shift_invariance(self, chart, vb_general, general_fields):
        # adding a gauge function with vanishing total derivative (a
        # constant) never flips the verdict
        for X in general_fields[:3]:
            with_gauge = verify_noether(X, vb_general, gauge=Num(7))
            without = verify_noether(X, vb_general)
            assert with_gauge.passed == without.passed

    def test_csc_variant_fails(self, chart, vb_general):
        X = make_field(chart, "X", "0",
                       ["0", "0", "sin(phi)", "cos(phi)/sin(theta)"])
        assert not verify_noether(X, vb_general).passed
        assert not verify_liepoint(X, vb_general).passed


class TestFirstIntegrals:
    def test_azimuthal_momentum(self, chart, vb_lagrangian, vb_system):
        X = make_field(chart, "X", "0", ["0", "0", "0", "1"])
        integral = noether_first_integral(X, vb_lagrangian)
        assert is_zero(integral - parse_expr("-2*r^2*sin(theta)^2*phidot"))
        d = substitute(total_derivative(integral, chart), vb_system.solved_bindings())
        assert is_zero(d)

    def test_parameter_translation_gives_lagrangian(self, chart, vb_lagrangian):
        X = make_field(chart, "X", "1", ["0", "0", "0", "0"])
        assert is_zero(noether_first_integral(X, vb_lagrangian) - vb_lagrangian)

    def test_rotation_integral(self, chart, vb_lagrangian, vb_system):
        X = make_field(chart, "X", "0",
                       ["0", "0", "-cos(phi)", "sin(phi)*cot(theta)"])
        integral = noether_first_integral(X, vb_lagrangian)
        expected = parse_expr(
            "2*r^2*cos(phi)*thetadot - 2*r^2*sin(phi)*cos(theta)*sin(theta)*phidot"
        )
        assert is_zero(integral - expected)
        d = substitute(total_derivative(integral, chart), vb_system.solved_bindings())
        assert is_zero(d)

    def test_non_symmetry_rejected(self, chart, vb_lagrangian):
        X = make_field(chart, "X", "0", ["1", "0", "0", "0"])
        with pytest.raises(VerificationError):
            noether_first_integral(X, vb_lagrangian)


class TestLiepointResiduals:
    def test_parameter_translation(self, chart, vb_system):
        X = make_field(chart, "X", "1", ["0", "0", "0", "0"])
        assert all(is_zero(r) for r in liepoint_residuals(X, vb_system))

    def test_azimuthal_rotation(self, chart, vb_system):
        X = make_field(chart, "X", "0", ["0", "0", "0", "1"])
        assert all(is_zero(r) for r in liepoint_residuals(X, vb_system))

    def test_scaling_field_on_homothetic_instance(self, chart, vb_mt_qt2):
        X = make_field(chart, "X", "s", ["t", "r", "0", "0"])
        assert verify_liepoint(X, vb_mt_qt2).passed

    def test_degree_bound_after_restriction(self, chart, vb_system):
        rng = random.Random(32)
        from test_jets import random_polynomial_field

        for _ in range(5):
            X = random_polynomial_field(chart, rng)
            for res in liepoint_residuals(X, vb_system):
                monos = collect(res, chart.jets1)
                assert all(sum(k) <= 3 for k in monos)


class TestDeterminingSystem:
    def test_free_particle_classical_set(self):
        chart = CoordChart("s", ("x",))
        flat = Metric(chart, ((Num(1),),))
        ds = determining_system(flat, "liepoint")
        assert len(ds.equations) == 4
        assert ds.mode == "liepoint"

    def test_no_jets_remain(self, vb_general):
        ds = determining_system(vb_general, "noether")
        jets = set(vb_general.chart.jets1) | set(vb_general.chart.jets2)
        for eq in ds.equations:
            assert not (eq.free_symbols() & jets)
            assert not is_zero(eq)

    def test_velocity_squared_equation_mentions_radial_unknown(self, vb_general):
        # the thetadot^2 coefficient couples eta2 and the theta-derivative
        # of eta3 in the invariant-action system
        ds = determining_system(vb_general, "noether")
        tagged = dict(zip(ds.sources, ds.equations))
        eq = tagged[(0, (0, 0, 2, 0))]
        names = {
            a.payload[0]
            for a in canonical_ratfunc(eq).atoms()
            if a.kind == "op"
        }
        assert "eta2" in names and "eta3" in names

    def test_cross_velocity_equation(self, vb_general):
        ds = determining_system(vb_general, "noether")
        tagged = dict(zip(ds.sources, ds.equations))
        eq = tagged[(0, (1, 0, 1, 0))]
        atoms = {
            a.payload[:2] + (a.payload[2],)
            for a in canonical_ratfunc(eq).atoms()
            if a.kind == "op" and a.payload[0] == "eta1"
        }
        # contains the theta-derivative of the time component eta1
        assert any(orders[3] == 1 for (_, _, orders) in atoms)


def brute_force_nullity(metric, degree, rows_per_equation=8):
    """Independent oracle: nullity of the determining map from the rank
    of rows sampled at random rational points, bypassing the symbolic
    monomial-collection path entirely."""
    from liesym.symexpr import Op

    chart = metric.chart
    ds = determining_system(metric, "liepoint")
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
        atoms = [a for a in canonical_ratfunc(eq).atoms() if a.kind == "op"]
        zero_all = {Op(*a.payload): Num(0) for a in atoms}
        coeff_of = {}
        for a in atoms:
            picks = dict(zero_all)
            picks[Op(*a.payload)] = Num(1)
            coeff_of[a] = substitute(eq, picks)
        for a in atoms:
            orders = a.payload[2]
            for k in range(nb):
                if (orders, k) not in deriv_cache:
                    b = ansatz.basis[k]
                    for sym, order in zip(args, orders):
                        for _ in range(order):
                            b = differentiate(b, sym)
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
    return ncols - rank_dense(rows)


class TestFreeParticleSolver:
    def test_one_dimensional_nullity_is_8(self):
        chart = CoordChart("s", ("x",))
        flat = Metric(chart, ((Num(1),),))
        oracle = brute_force_nullity(flat, 2)
        assert oracle == 8
        ds = determining_system(flat, "liepoint")
        sols = solve_determining(ds, default_ansatz(chart, 2))
        assert len(sols) == oracle

    def test_two_dimensional_nullity_is_15(self):
        chart = CoordChart("s", ("x", "y"))
        flat = Metric(chart, ((Num(1), Num(0)), (Num(0), Num(1))))
        oracle = brute_force_nullity(flat, 2)
        assert oracle == 15
        ds = determining_system(flat, "liepoint")
        sols = solve_determining(ds, default_ansatz(chart, 2))
        assert len(sols) == oracle


class TestSolverOnConcreteMetrics:

    def test_invariant_action_solve_dimension(self, m1qt_noether_solve):
        assert len(m1qt_noether_solve) == 4

    def test_span_matches_golden_fields(self, m1qt_noether_solve, rotation_fields):
        vecs, _ = _component_vectors(list(m1qt_noether_solve) + list(rotation_fields))
        solved = [list(v) for v in vecs[:4]]
        golden = [list(v) for v in vecs[4:]]
        for v in golden:
            assert express_in_basis(solved, v) is not None
        for v in solved:
            assert express_in_basis(golden, v) is not None

    def test_solver_soundness(self, vb_m1_qt, m1qt_noether_solve):
        for f in m1qt_noether_solve:
            assert verify_noether(f, vb_m1_qt).passed

    def test_solver_closure_under_bracket(self, vb_m1_qt, m1qt_noether_solve):
        fields = list(m1qt_noether_solve)
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                br = field_bracket(fields[i], fields[j])
                if br.is_zero_field():
                    continue
                vecs, target = _component_vectors(fields, extra=br)
                assert express_in_basis([list(v) for v in vecs], list(target)) is not None

    def test_liepoint_solve_contains_affine_reparametrizations(self, vb_m1_qt):
        # the point-symmetry span always carries d_s and s d_s on top of
        # the invariant-action fields
        ds = determining_system(vb_m1_qt, "liepoint")
        sols = solve_determining(ds, default_ansatz(vb_m1_qt.chart, 2))
        assert len(sols) == 5
        chart = vb_m1_qt.chart
        scaling = make_field(chart, "S", "s", ["0", "0", "0", "0"])
        vecs, target = _component_vectors(sols, extra=scaling)
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
        vecs, _ = _component_vectors(list(sols) + golden)
        solved = [list(v) for v in vecs[:4]]
        for v in vecs[4:]:
            assert express_in_basis(solved, list(v)) is not None


class TestDifferentChart:
    def test_sphere_point_symmetries(self):
        # two-coordinate chart: affine reparametrizations plus the
        # rotation triple, every returned field verified sound
        chart = CoordChart("s", ("theta", "phi"), ("theta", "phi"))
        sphere = Metric(
            chart, ((Num(1), Num(0)), (Num(0), parse_expr("sin(theta)^2"))),
            name="sphere",
        )
        ds = determining_system(sphere, "liepoint")
        sols = solve_determining(ds, default_ansatz(chart, 2))
        assert len(sols) == 5
        for f in sols:
            assert verify_liepoint(f, sphere).passed
        from liesym.liealg import killing_form, structure_constants

        rotations = [f for f in sols if is_zero(f.xi)]
        assert len(rotations) == 3
        K, semisimple = killing_form(structure_constants(rotations))
        assert semisimple
        assert all(K[i, i] == -2 for i in range(3))


class TestGeneralityMonotonicity:
    def test_general_solutions_pass_on_instances(self, chart, vb_general,
                                                 vb_m1_qt, vb_mt_qt2,
                                                 general_fields):
        passing = [f for f in general_fields
                   if verify_noether(f, vb_general).passed]
        assert len(passing) == 4
        for inst in (vb_m1_qt, vb_mt_qt2):
            for f in passing:
                assert verify_noether(f, inst).passed, f.name
                assert verify_liepoint(f, inst).passed, f.name


class TestAnsatz:
    def test_default_size_for_radiating_chart(self, chart):
        a = default_ansatz(chart, 2)
        assert len(a.basis) == 150

    def test_not_derivative_closed_rejected(self, chart, vb_general):
        # d/dr sin(r^2) introduces the kernel cos(r^2) that the basis
        # cannot express
        bad = Ansatz((parse_expr("sin(r^2)"),), degree=0)
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
            tuple(parse_expr(e, functions) for e in equations),
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
