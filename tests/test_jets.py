"""Total derivative and first prolongation."""

import random
from fractions import Fraction

import pytest

from liesym.charts import CoordChart
from liesym.errors import ChartError
from liesym.jets import BundleVectorField, prolong, symbol, total_coefficients
from liesym.symexpr import collect_ratfunc, derive
from liesym.symexpr.poly import RAT_ONE, RatFunc
from liesym.symmetry import liepoint_residuals

from conftest import make_field, rf
from reference_calculus import add, fold, mul, num, sym


def first(X) -> tuple:
    """The velocity coefficients eta_(1)^a of X's first prolongation."""
    x1 = prolong(X)
    return tuple(x1[v] for v in X.chart.jets1)


def total(rf, chart):
    return derive(rf, total_coefficients(chart))


class TestTotalDerivative:
    def test_coordinate(self, chart):
        assert (total(rf("t"), chart) - rf("tdot")).is_zero()

    def test_square(self, chart):
        assert (total(rf("r^2"), chart) - rf("2*r*rdot")).is_zero()

    def test_velocity(self, chart, vb_system):
        on_shell = total_coefficients(chart, vb_system.accelerations)
        assert (derive(rf("tdot"), on_shell) - vb_system.accelerations[0]).is_zero()


class TestProlong:
    def test_rotation_generator_constant(self, chart):
        X = make_field(chart, "X", "0", ["0", "0", "0", "1"])
        assert all(c.is_zero() for c in first(X))

    def test_parameter_scaling(self, chart):
        X = make_field(chart, "X", "s", ["0", "0", "0", "0"])
        for c, e1 in zip(chart.coords, first(X)):
            assert (e1 + symbol(chart.jet1(c))).is_zero()

    def test_prolongation_extends_the_field(self, chart):
        X = make_field(chart, "X", "s", ["t", "r", "0", "1"])
        x1 = prolong(X)
        assert set(x1) == {chart.param, *chart.coords, *chart.jets1}
        assert all(x1[k] == v for k, v in X.coefficients().items())

    def test_rotation_field_recursion_equals_direct_expansion(self, chart):
        X = make_field(chart, "X", "0",
                       ["0", "0", "-cos(phi)", "sin(phi)*cot(theta)"])
        e1 = first(X)
        assert (e1[2] - rf("sin(phi)*phidot")).is_zero()
        expected_phi = rf(
            "-thetadot*sin(phi)/sin(theta)^2 + cot(theta)*cos(phi)*phidot"
        )
        assert (e1[3] - expected_phi).is_zero()

    def test_zero_field_prolongs_to_zero(self, chart):
        X = make_field(chart, "Z", "0", ["0", "0", "0", "0"])
        assert all(c.is_zero() for c in prolong(X).values())

    def test_jet_symbols_rejected_in_components(self, chart):
        with pytest.raises(ChartError):
            BundleVectorField(chart, (rf("tdot"),) + (rf("0"),) * 4)


class TestChartValidation:
    def test_jet_name_collision(self):
        with pytest.raises(ChartError):
            CoordChart("s", ("t", "tdot"))

    def test_duplicate_names(self):
        with pytest.raises(ChartError):
            CoordChart("s", ("x", "x"))
        with pytest.raises(ChartError):
            CoordChart("x", ("x",))

    def test_angle_must_be_coordinate(self):
        with pytest.raises(ChartError):
            CoordChart("s", ("x",), ("theta",))

    def test_repeated_angle(self):
        # the ansatz would multiply two kernels of one angle as if they
        # shared no symbol
        with pytest.raises(ChartError, match="angle 'phi' is declared twice"):
            CoordChart("s", ("r", "phi"), ("phi", "phi"))

    def test_unknown_function_name_clash(self):
        # the unknowns are column labels, not atoms, so a coordinate may
        # be named xi: the free particle's eight point symmetries
        from liesym.geometry import Metric, geodesic_system
        from liesym.symmetry import default_ansatz, determining_system, solve_determining

        chart = CoordChart("s", ("xi",))
        system = geodesic_system(Metric(chart, ((rf("1"),),)))
        fields = solve_determining(determining_system(system, "liepoint"),
                                   default_ansatz(chart, 2))
        assert len(fields) == 8


def random_polynomial_field(chart, rng):
    """Random polynomial (s, x)-field of low degree."""
    vars_ = [chart.param, *chart.coords]

    def poly():
        terms = [num(rng.randint(-3, 3))]
        for _ in range(rng.randint(1, 3)):
            factors = [num(rng.randint(-2, 2))]
            for _ in range(rng.randint(1, 2)):
                factors.append(sym(rng.choice(vars_)))
            terms.append(mul(*factors))
        return fold(add(*terms))

    return BundleVectorField(chart, [poly() for _ in range(chart.dim + 1)])


class TestRecursionConsistency:
    def test_first_prolongation_matches_expanded_form_on_200_fields(self, chart):
        # eta_(1)^a = eta^a_s + eta^a_b xdot^b - xi_s xdot^a
        #             - xi_b xdot^b xdot^a
        rng = random.Random(777)
        for _ in range(200):
            X = random_polynomial_field(chart, rng)
            e1 = first(X)
            for idx, c in enumerate(chart.coords):
                expected = derive(X.eta[idx], {chart.param: RAT_ONE})
                for b in chart.coords:
                    expected = expected + derive(X.eta[idx], {b: RAT_ONE}) * symbol(chart.jet1(b))
                expected = expected - derive(X.xi, {chart.param: RAT_ONE}) * symbol(chart.jet1(c))
                for b in chart.coords:
                    expected = expected - (
                        derive(X.xi, {b: RAT_ONE}) * symbol(chart.jet1(b)) * symbol(chart.jet1(c))
                    )
                assert (e1[idx] - expected).is_zero()

    def test_prolongation_degree_bounds(self, chart):
        rng = random.Random(999)
        for _ in range(25):
            X = random_polynomial_field(chart, rng)
            for e1 in first(X):
                degrees = [sum(m) for m in collect_ratfunc(e1, chart.jets1)]
                assert all(d <= 2 for d in degrees)

    def test_linearity_of_prolongation(self, chart, vb_system):
        rng = random.Random(888)
        for _ in range(30):
            X = random_polynomial_field(chart, rng)
            Y = random_polynomial_field(chart, rng)
            a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            ra, rb = RatFunc.const(a), RatFunc.const(b)
            combo = BundleVectorField(
                chart, [ra * x + rb * y for x, y in zip(X.components, Y.components)])
            pc, px, py = first(combo), first(X), first(Y)
            for i in range(chart.dim):
                assert (pc[i] - (ra * px[i] + rb * py[i])).is_zero()
            rc, rx, ry = (liepoint_residuals(F, vb_system) for F in (combo, X, Y))
            for i in range(chart.dim):
                assert (rc[i] - (ra * rx[i] + rb * ry[i])).is_zero()
