"""Total derivative and prolongation."""

import random
from fractions import Fraction

import pytest

from liesym.charts import CoordChart
from liesym.errors import ChartError, JetOrderError
from liesym.jets import BundleVectorField, prolong, symbol, total
from liesym.symexpr import Add, Mul, Num, Sym, canonical_ratfunc, collect_ratfunc, derive
from liesym.symexpr.poly import RAT_ONE, RatFunc

from conftest import make_field, rf


class TestTotalDerivative:
    def test_coordinate(self, chart):
        assert (total(rf("t"), chart) - rf("tdot")).is_zero()

    def test_square(self, chart):
        assert (total(rf("r^2"), chart) - rf("2*r*rdot")).is_zero()

    def test_velocity(self, chart):
        assert (total(rf("tdot"), chart) - rf("tddot")).is_zero()

    def test_order_cap(self, chart):
        with pytest.raises(JetOrderError):
            total(rf("tddot"), chart)


class TestProlong:
    def test_rotation_generator_constant(self, chart):
        X = make_field(chart, "X", "0", ["0", "0", "0", "1"])
        pf = prolong(X, 2)
        assert all(c.is_zero() for c in pf.first)
        assert all(c.is_zero() for c in pf.second)

    def test_parameter_scaling(self, chart):
        X = make_field(chart, "X", "s", ["0", "0", "0", "0"])
        pf = prolong(X, 2)
        for c, e1, e2 in zip(chart.coords, pf.first, pf.second):
            assert (e1 + symbol(chart.jet1(c))).is_zero()
            assert (e2 + rf("2") * symbol(chart.jet2(c))).is_zero()

    def test_rotation_field_recursion_equals_direct_expansion(self, chart):
        X = make_field(chart, "X", "0",
                       ["0", "0", "-cos(phi)", "sin(phi)*cot(theta)"])
        pf = prolong(X, 1)
        assert (pf.first[2] - rf("sin(phi)*phidot")).is_zero()
        expected_phi = rf(
            "-thetadot*sin(phi)/sin(theta)^2 + cot(theta)*cos(phi)*phidot"
        )
        assert (pf.first[3] - expected_phi).is_zero()

    def test_zero_field_prolongs_to_zero(self, chart):
        X = make_field(chart, "Z", "0", ["0", "0", "0", "0"])
        pf = prolong(X, 2)
        assert all(c.is_zero() for c in pf.first + pf.second)

    def test_order_validation(self, chart):
        X = make_field(chart, "X", "1", ["0", "0", "0", "0"])
        with pytest.raises(JetOrderError):
            prolong(X, 3)

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

    def test_unknown_function_name_clash(self):
        from liesym.errors import AnsatzError
        from liesym.geometry import Metric
        from liesym.symmetry import determining_system

        chart = CoordChart("s", ("xi",))
        flat = Metric(chart, ((rf("1"),),))
        with pytest.raises(AnsatzError):
            determining_system(flat, "liepoint")


def random_polynomial_field(chart, rng):
    """Random polynomial (s, x)-field of low degree."""
    vars_ = [chart.param, *chart.coords]

    def poly():
        terms = [Num(Fraction(rng.randint(-3, 3)))]
        for _ in range(rng.randint(1, 3)):
            factors = [Num(Fraction(rng.randint(-2, 2)))]
            for _ in range(rng.randint(1, 2)):
                factors.append(Sym(rng.choice(vars_)))
            terms.append(Mul.of(*factors))
        return canonical_ratfunc(Add.of(*terms))

    return BundleVectorField(chart, [poly() for _ in range(chart.dim + 1)])


class TestRecursionConsistency:
    def test_first_prolongation_matches_expanded_form_on_200_fields(self, chart):
        # eta_(1)^a = eta^a_s + eta^a_b xdot^b - xi_s xdot^a
        #             - xi_b xdot^b xdot^a
        rng = random.Random(777)
        for _ in range(200):
            X = random_polynomial_field(chart, rng)
            pf = prolong(X, 1)
            for idx, c in enumerate(chart.coords):
                expected = derive(X.eta[idx], {chart.param: RAT_ONE})
                for b in chart.coords:
                    expected = expected + derive(X.eta[idx], {b: RAT_ONE}) * symbol(chart.jet1(b))
                expected = expected - derive(X.xi, {chart.param: RAT_ONE}) * symbol(chart.jet1(c))
                for b in chart.coords:
                    expected = expected - (
                        derive(X.xi, {b: RAT_ONE}) * symbol(chart.jet1(b)) * symbol(chart.jet1(c))
                    )
                assert (pf.first[idx] - expected).is_zero()

    def test_prolongation_degree_bounds(self, chart):
        rng = random.Random(999)
        for _ in range(25):
            X = random_polynomial_field(chart, rng)
            pf = prolong(X, 2)
            for e1 in pf.first:
                degrees = [sum(m) for m in collect_ratfunc(e1, chart.jets1)]
                assert all(d <= 2 for d in degrees)
            for e2 in pf.second:
                both = list(chart.jets1) + list(chart.jets2)
                for mono in collect_ratfunc(e2, both):
                    assert sum(mono[:4]) <= 3
                    assert sum(mono[4:]) <= 1

    def test_linearity_of_prolongation(self, chart):
        rng = random.Random(888)
        for _ in range(30):
            X = random_polynomial_field(chart, rng)
            Y = random_polynomial_field(chart, rng)
            a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            ra, rb = RatFunc.const(a), RatFunc.const(b)
            combo = BundleVectorField(
                chart, [ra * x + rb * y for x, y in zip(X.components, Y.components)])
            pc = prolong(combo, 2)
            px = prolong(X, 2)
            py = prolong(Y, 2)
            for i in range(chart.dim):
                assert (pc.first[i] - (ra * px.first[i] + rb * py.first[i])).is_zero()
                assert (pc.second[i] - (ra * px.second[i] + rb * py.second[i])).is_zero()
