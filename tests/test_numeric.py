"""RK4 integration and first-integral drift measurements."""

import math

import pytest

from liesym.charts import CoordChart
from liesym.errors import IntegrationError
from liesym.geometry import Metric, geodesic_lagrangian, geodesic_system
from liesym.numeric import compile_numeric, drift_along_trace, integrate_geodesic
from liesym.symexpr import derive
from liesym.symexpr.poly import RAT_ONE

from conftest import rf


@pytest.fixture(scope="module")
def polar_system():
    chart = CoordChart("s", ("rho", "psi"), ("psi",))
    metric = Metric(chart, ((rf("1"), rf("0")), (rf("0"), rf("rho^2"))))
    return geodesic_system(metric)


class TestCompile:
    def test_plain_expression(self):
        f = compile_numeric(rf("r^2*sin(theta)"))
        assert abs(f({"r": 2.0, "theta": math.pi / 2}) - 4.0) < 1e-12

    def test_denominator_guard(self):
        f = compile_numeric(rf("1/r"))
        with pytest.raises(IntegrationError):
            f({"r": 1e-15})

    def test_unbound_opaque_rejected(self):
        with pytest.raises(IntegrationError):
            compile_numeric(rf("M(t)"))


class TestIntegrate:
    def test_flat_straight_line(self):
        chart = CoordChart("s", ("x", "y"))
        flat = Metric(chart, ((rf("1"), rf("0")), (rf("0"), rf("1"))))
        sys = geodesic_system(flat)
        trace = integrate_geodesic(sys, {}, [0.0, 0.0], [1.0, 0.0], 0.01, 1.0)
        s_end, x_end, v_end = trace.samples[-1]
        assert abs(x_end[0] - 1.0) < 1e-12
        assert abs(v_end[0] - 1.0) < 1e-12

    def test_polar_convergence_order(self, polar_system):
        # straight line x = 1, y = s in polar coordinates
        def exact(s):
            return (math.sqrt(1 + s * s), math.atan(s))

        errors = []
        for h in (0.02, 0.01):
            trace = integrate_geodesic(polar_system, {}, [1.0, 0.0], [0.0, 1.0], h, 1.0)
            _, x_end, _ = trace.samples[-1]
            ex = exact(1.0)
            errors.append(max(abs(x_end[0] - ex[0]), abs(x_end[1] - ex[1])))
        order = math.log2(errors[0] / errors[1])
        assert 3.7 <= order <= 4.3

    def test_singularity_detected(self, polar_system):
        # heading straight into the origin
        with pytest.raises(IntegrationError):
            integrate_geodesic(polar_system, {}, [1.0, 0.0], [-1.0, 0.0], 0.01, 2.0)

    def test_bad_state_length(self, polar_system):
        with pytest.raises(IntegrationError):
            integrate_geodesic(polar_system, {}, [1.0], [0.0], 0.01, 1.0)


@pytest.fixture(scope="module")
def equatorial_trace(vb_m1_qt):
    sys = geodesic_system(vb_m1_qt)
    return integrate_geodesic(
        sys, {}, [0.0, 10.0, math.pi / 2, 0.0], [1.0, 0.0, 0.0, 0.05],
        1e-3, 10.0,
    )


class TestRadiatingInstance:

    def test_equatorial_plane_preserved(self, equatorial_trace):
        worst = max(abs(x[2] - math.pi / 2) for _, x, _ in equatorial_trace.samples)
        assert worst < 1e-8

    def test_azimuthal_momentum_conserved(self, vb_m1_qt, equatorial_trace):
        drift = drift_along_trace(
            rf("2*r^2*sin(theta)^2*phidot"), equatorial_trace, vb_m1_qt.chart
        )
        assert drift < 1e-6

    def test_time_translation_charge_drifts(self, vb_m1_qt, equatorial_trace):
        # momentum conjugate to t is not conserved when the charge grows
        lagrangian = geodesic_lagrangian(vb_m1_qt)
        candidate = derive(lagrangian, {"tdot": RAT_ONE})
        drift = drift_along_trace(candidate, equatorial_trace, vb_m1_qt.chart)
        assert drift > 1e-3
