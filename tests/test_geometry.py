"""Geometry pipeline: inverses, Christoffel symbols, geodesics, EL."""

import pytest

from liesym import geometry
from liesym.charts import CoordChart
from liesym.errors import ChartError, SingularMetricError
from liesym.files import load_metric
from liesym.geometry import (
    Metric,
    christoffel,
    geodesic_lagrangian,
    geodesic_system,
    inverse_metric,
)
from liesym.symexpr import collect_ratfunc

from conftest import geodesic_equations, rf
from reference_geometry import covariant_metric_derivative_is_zero, euler_lagrange


@pytest.fixture(scope="module")
def chart2():
    return CoordChart("s", ("x", "y"))


@pytest.fixture(scope="module")
def flat2(chart2):
    return Metric(chart2, ((rf("1"), rf("0")), (rf("0"), rf("1"))))


@pytest.fixture(scope="module")
def polar():
    chart = CoordChart("s", ("rho", "psi"), ("psi",))
    return Metric(chart, ((rf("1"), rf("0")), (rf("0"), rf("rho^2"))))


class TestInverseMetric:
    def test_identity(self, flat2):
        inv = inverse_metric(flat2)
        assert (inv[0][0] - rf("1")).is_zero() and (inv[1][1] - rf("1")).is_zero()
        assert (inv[0][1] - rf("0")).is_zero()

    def test_diagonal(self):
        chart = CoordChart("s", ("x", "y"))
        fns = {"a": ("x",), "b": ("y",)}
        g = Metric(
            chart,
            ((rf("a(x)", fns), rf("0")), (rf("0"), rf("b(y)", fns))),
            fns,
        )
        inv = inverse_metric(g)
        assert (inv[0][0] - rf("1/a(x)", fns)).is_zero()
        assert (inv[1][1] - rf("1/b(y)", fns)).is_zero()

    def test_null_cross_block(self, chart2):
        f = rf("1 - M(x)/y + Q(x)/y^2", {"M": ("x",), "Q": ("x",)})
        g = Metric(chart2, ((-f, rf("-1")), (rf("-1"), rf("0"))),
                   {"M": ("x",), "Q": ("x",)})
        inv = inverse_metric(g)
        assert (inv[0][0] - rf("0")).is_zero()
        assert (inv[0][1] - rf("-1")).is_zero()
        assert (inv[1][1] - f).is_zero()
        # product with g canonicalizes to the identity
        for i in range(2):
            for j in range(2):
                acc = rf("0")
                for k in range(2):
                    acc = acc + g[i, k] * inv[k][j]
                assert (acc - (rf("1") if i == j else rf("0"))).is_zero()

    def test_singular_rejected(self, chart2):
        g = Metric(chart2, ((rf("1"), rf("1")), (rf("1"), rf("1"))))
        with pytest.raises(SingularMetricError):
            inverse_metric(g)

    def test_determinant_is_expanded_once(self, monkeypatch):
        # the loader's singular check and the inverse share one det g
        full = []
        original = geometry._det

        def counting(a):
            if len(a) == 4:
                full.append(a)
            return original(a)

        monkeypatch.setattr(geometry, "_det", counting)
        inverse_metric(load_metric("vaidya_bonner.metric"))
        assert len(full) == 1

    def test_full_metric_inverse(self, vb_general):
        inv = inverse_metric(vb_general)
        n = vb_general.chart.dim
        for i in range(n):
            for j in range(n):
                acc = rf("0")
                for k in range(n):
                    acc = acc + vb_general[i, k] * inv[k][j]
                assert (acc - (rf("1") if i == j else rf("0"))).is_zero()


class TestChristoffel:
    def test_flat_is_zero(self, flat2):
        gam = christoffel(flat2)
        assert all(
            (gam[i][j][k] - rf("0")).is_zero()
            for i in range(2) for j in range(2) for k in range(2)
        )

    def test_polar(self, polar):
        gam = christoffel(polar)
        assert (gam[0][1][1] - rf("-rho")).is_zero()
        assert (gam[1][0][1] - rf("1/rho")).is_zero()
        assert (gam[1][1][0] - rf("1/rho")).is_zero()
        assert covariant_metric_derivative_is_zero(polar)

    def test_radiating_metric_sphere_block(self, vb_general):
        gam = christoffel(vb_general)
        assert (gam[2][3][3] - rf("-sin(theta)*cos(theta)")).is_zero()
        assert (gam[3][2][3] - rf("cot(theta)")).is_zero()
        assert (gam[2][1][2] - rf("1/r")).is_zero()

    def test_lower_index_symmetry(self, vb_general):
        gam = christoffel(vb_general)
        n = vb_general.chart.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert (gam[i][j][k] - gam[i][k][j]).is_zero()

    def test_metric_compatibility(self, vb_general):
        assert covariant_metric_derivative_is_zero(vb_general)


class TestGeodesicSystem:
    def test_flat(self, flat2):
        eqs = geodesic_equations(geodesic_system(flat2))
        assert (eqs[0] - rf("xddot")).is_zero()
        assert (eqs[1] - rf("yddot")).is_zero()

    def test_sphere_block(self, vb_system):
        # thetaddot + (2/r) rdot thetadot - sin cos phidot^2 = 0
        expected = rf(
            "thetaddot + 2*rdot*thetadot/r - sin(theta)*cos(theta)*phidot^2"
        )
        assert (geodesic_equations(vb_system)[2] - expected).is_zero()

    def test_azimuthal_equation(self, vb_system):
        expected = rf(
            "phiddot + 2*rdot*phidot/r + 2*cot(theta)*thetadot*phidot"
        )
        assert (geodesic_equations(vb_system)[3] - expected).is_zero()

    def test_unit_leading_acceleration(self, vb_system):
        chart = vb_system.chart
        for c, eq in zip(chart.coords, geodesic_equations(vb_system)):
            coeffs = collect_ratfunc(eq, [chart.jet2(c)])
            assert (coeffs[(1,)] - rf("1")).is_zero()


class TestLagrangian:
    def test_flat(self, flat2):
        assert (geodesic_lagrangian(flat2) - rf("xdot^2 + ydot^2")).is_zero()

    def test_radiating_quadratic_form(self, vb_lagrangian):
        expected = rf(
            "-(1 - M(t)/r + Q(t)/r^2)*tdot^2 - 2*tdot*rdot"
            " + r^2*(thetadot^2 + sin(theta)^2*phidot^2)",
            {"M": ("t",), "Q": ("t",)},
        )
        assert (vb_lagrangian - expected).is_zero()

    def test_concrete_instance(self, vb_m1_qt):
        expected = rf(
            "-(1 - 1/r + t/r^2)*tdot^2 - 2*tdot*rdot"
            " + r^2*(thetadot^2 + sin(theta)^2*phidot^2)"
        )
        assert (geodesic_lagrangian(vb_m1_qt) - expected).is_zero()


class TestEulerLagrange:
    def test_single_coordinate(self):
        chart = CoordChart("s", ("x",))
        el = euler_lagrange(rf("xdot^2"), chart)
        assert (el[0] - rf("2*xddot")).is_zero()

    def test_unit_sphere(self):
        chart = CoordChart("s", ("theta", "phi"), ("theta", "phi"))
        L = rf("thetadot^2 + sin(theta)^2*phidot^2")
        el = euler_lagrange(L, chart)
        assert (el[0] - rf(
            "2*thetaddot - 2*sin(theta)*cos(theta)*phidot^2")).is_zero()
        assert (el[1] - rf(
            "2*sin(theta)^2*phiddot + 4*sin(theta)*cos(theta)*thetadot*phidot")).is_zero()

    @pytest.mark.parametrize("fixture", ["vb_general", "vb_m1_qt", "vb_mt_qt2"])
    def test_contraction_identity(self, request, fixture):
        # EL_i = 2 g_{i mu} (xddot^mu + Gamma^mu_{ab} xdot^a xdot^b)
        metric = request.getfixturevalue(fixture)
        el = euler_lagrange(geodesic_lagrangian(metric), metric.chart)
        eqs = geodesic_equations(geodesic_system(metric))
        n = metric.chart.dim
        for i in range(n):
            expr = el[i]
            for mu in range(n):
                expr = expr - rf("2") * metric[i, mu] * eqs[mu]
            assert expr.is_zero()


class TestMetricValidation:
    def test_asymmetric_rejected(self, chart2):
        with pytest.raises(ChartError):
            Metric(chart2, ((rf("1"), rf("2")), (rf("3"), rf("1"))))

    def test_undeclared_symbol_rejected(self, chart2):
        with pytest.raises(ChartError):
            Metric(chart2, ((rf("w"), rf("0")), (rf("0"), rf("1"))))
