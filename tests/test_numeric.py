"""RK4 integration and first-integral drift measurements."""

import math
import random
from fractions import Fraction

import pytest

from liesym.charts import CoordChart
from liesym.errors import IntegrationError
from liesym.geometry import Metric, geodesic_lagrangian, geodesic_system
from liesym.numeric import (
    MAX_STEPS,
    compile_numeric,
    drift_along_trace,
    integrate_geodesic,
    step_count,
)
from liesym.symexpr import derive, evaluate_rational, render_ratfunc
from liesym.symexpr.poly import RAT_ONE

from conftest import rf


@pytest.fixture(scope="module")
def polar_system():
    chart = CoordChart("s", ("rho", "psi"), ("psi",))
    metric = Metric(chart, ((rf("1"), rf("0")), (rf("0"), rf("rho^2"))))
    return geodesic_system(metric)


class TestCompile:
    def test_plain_expression(self):
        f = compile_numeric([rf("r^2*sin(theta)")], ["r", "theta"])
        assert abs(f(2.0, math.pi / 2)[0] - 4.0) < 1e-12

    def test_denominator_guard(self):
        f = compile_numeric([rf("1/r")], ["r"])
        with pytest.raises(IntegrationError):
            f(1e-15)

    def test_unbound_opaque_rejected(self):
        with pytest.raises(IntegrationError):
            compile_numeric([rf("M(t)")], ["t"])

    def test_components_agree_with_exact_evaluation(self):
        comps = [rf("x^2*y + 1/3"), rf("(x + y)/(x - 2*y)"), rf("y^3/(1 + x^2) - x/7")]
        f = compile_numeric(comps, ["x", "y"])
        rng = random.Random(909)
        for _ in range(50):
            point = {"x": Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                     "y": Fraction(rng.randint(-20, 20), rng.randint(1, 9))}
            if point["x"] == 2 * point["y"]:
                continue
            got = f(float(point["x"]), float(point["y"]))
            assert len(got) == len(comps)
            for value, c in zip(got, comps):
                exact = float(evaluate_rational(render_ratfunc(c), point))
                assert value == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_singular_second_component(self):
        f = compile_numeric([rf("x + 1"), rf("1/(x - 1)")], ["x"])
        assert f(2.0) == (3.0, 1.0)
        with pytest.raises(IntegrationError, match="denominator within 1e-12 of zero"):
            f(1.0)

    def test_domain_error(self):
        f = compile_numeric([rf("ln(x)")], ["x"])
        with pytest.raises(IntegrationError, match="numeric evaluation failed"):
            f(-1.0)

    def test_undeclared_symbol_rejected(self):
        with pytest.raises(IntegrationError, match="symbol y"):
            compile_numeric([rf("x + y")], ["x"])


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

    @pytest.mark.parametrize("step, span", [(1e-300, 1e300), (1.0, MAX_STEPS + 1.0)])
    def test_step_count_capped(self, polar_system, step, span):
        with pytest.raises(IntegrationError, match="is not a step count"):
            step_count(step, span)
        with pytest.raises(IntegrationError, match="is not a step count"):
            integrate_geodesic(polar_system, {}, [1.0, 0.0], [0.0, 1.0], step, span)

    def test_step_count_at_cap(self):
        assert step_count(1.0, float(MAX_STEPS)) == MAX_STEPS
        assert step_count(0.01, 1.0) == 100


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
        [drift] = drift_along_trace(
            [rf("2*r^2*sin(theta)^2*phidot")], equatorial_trace, vb_m1_qt.chart
        )
        assert drift < 1e-6

    def test_time_translation_charge_drifts(self, vb_m1_qt, equatorial_trace):
        # momentum conjugate to t is not conserved when the charge grows
        lagrangian = geodesic_lagrangian(vb_m1_qt)
        candidate = derive(lagrangian, {"tdot": RAT_ONE})
        [drift] = drift_along_trace([candidate], equatorial_trace, vb_m1_qt.chart)
        assert drift > 1e-3

    def test_one_pass_equals_separate_passes(self, vb_m1_qt, equatorial_trace):
        chart = vb_m1_qt.chart
        lagrangian = geodesic_lagrangian(vb_m1_qt)
        watches = [lagrangian, derive(lagrangian, {"tdot": RAT_ONE})]
        together = drift_along_trace(watches, equatorial_trace, chart)
        apart = [drift_along_trace([w], equatorial_trace, chart)[0] for w in watches]
        assert together == apart
