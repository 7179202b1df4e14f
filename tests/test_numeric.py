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
from liesym.symexpr import derive
from liesym.symexpr.poly import RAT_ONE

import reference_numeric as reference
from conftest import rf
from reference_calculus import evaluate_rational


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
                exact = float(evaluate_rational(c, point))
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


def _outcome(f, *values):
    """f(*values), or the message of the IntegrationError it raises."""
    try:
        return f(*values)
    except IntegrationError as exc:
        return str(exc)


class TestSharedSubtrees:
    """Repeated powers and function applications are computed once per
    evaluation; every value and every error must match the unshared
    reference."""

    POINTS = [1.5, 0.5, 1.0, 0.0, -0.5, 1e-13, 1e200,
              float("nan"), float("inf"), -float("inf")]

    def _agree(self, comps, names, points):
        f = compile_numeric(comps, names)
        g = reference.compile_numeric(comps, names)
        for values in points:
            # repr tells every float apart, and a NaN equal to a NaN
            assert repr(_outcome(f, *values)) == repr(_outcome(g, *values))

    def test_first_use_in_a_later_denominator(self):
        # ln(x) first occurs in the denominator of the second component
        # and recurs in its numerator and in the third component: a
        # denominator must be written, and bound, before its numerator.
        comps = [rf("y + 1"), rf("ln(x)/(1 + ln(x)^2)"), rf("y*ln(x)^2 - sin(y)^2*ln(x)")]
        f = compile_numeric(comps, ["x", "y"])
        assert f(math.e, 2.0)[1] == 1 / (1 + 1.0 ** 2)
        self._agree(comps, ["x", "y"], [(x, y) for x in self.POINTS for y in (0.25, -2.0)])

    def test_shared_subtree_in_guarded_denominators(self):
        comps = [rf("sin(x)^2/(x - 1)"), rf("cos(x)/sin(x)^2 + sin(x)"), rf("x^(1/2)/(x^2 - sin(x)^2)")]
        self._agree(comps, ["x"], [(x,) for x in self.POINTS])

    @pytest.mark.parametrize("comps, x, message", [
        (["ln(x)^2", "1/x"], 0.0, "numeric evaluation failed: math domain error"),
        (["1/x", "ln(x)^2"], 0.0, "denominator within 1e-12 of zero"),
        (["x + 1", "ln(x)/(x - 1)", "ln(x)"], 1.0, "denominator within 1e-12 of zero"),
        (["x + 1", "ln(x)/(x - 1)", "ln(x)"], -1.0, "numeric evaluation failed: math domain error"),
        (["exp(x)^2", "exp(x)/x"], 1e3, "numeric evaluation failed: math range error"),
        (["x^(-1)*(x + 1)^(-1)", "(x + 1)^(-1)"], -1.0, "denominator within 1e-12 of zero"),
    ])
    def test_first_component_that_raises_is_unchanged(self, comps, x, message):
        comps = [rf(c) for c in comps]
        assert _outcome(compile_numeric(comps, ["x"]), x) == message
        assert _outcome(reference.compile_numeric(comps, ["x"]), x) == message


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


class TestTraceView:
    def test_len_index_and_iteration(self, polar_system):
        trace = integrate_geodesic(polar_system, {}, [1.0, 0.0], [0.0, 1.0], 0.1, 1.0)
        samples = trace.samples
        assert len(samples) == 11
        assert len(trace.flat) == 11 * 5
        listed = list(samples)
        assert len(listed) == 11
        assert listed[0] == (0.0, (1.0, 0.0), (0.0, 1.0))
        assert samples[0] == listed[0]
        assert samples[-1] == listed[-1] == samples[10]
        assert samples[-11] == listed[0]
        assert listed[-1][0] == 10 * 0.1
        for s, x, v in samples:
            assert type(s) is float and len(x) == len(v) == 2

    @pytest.mark.parametrize("k", [11, -12, 10**9])
    def test_index_out_of_range(self, polar_system, k):
        trace = integrate_geodesic(polar_system, {}, [1.0, 0.0], [0.0, 1.0], 0.1, 1.0)
        with pytest.raises(IndexError):
            trace.samples[k]

    def test_read_only(self, polar_system):
        trace = integrate_geodesic(polar_system, {}, [1.0, 0.0], [0.0, 1.0], 0.1, 1.0)
        with pytest.raises(TypeError):
            trace.samples[0] = (0.0, (0.0, 0.0), (0.0, 0.0))

    def test_zero_steps_keep_the_initial_sample(self, polar_system):
        trace = integrate_geodesic(polar_system, {}, [1.0, 0.5], [0.25, 1.0], 0.1, 0.01)
        assert list(trace.samples) == [(0.0, (1.0, 0.5), (0.25, 1.0))]
        assert drift_along_trace([rf("rho")], trace, polar_system.chart) == [0.0]


def _flat_plane():
    chart = CoordChart("s", ("x", "y"))
    return geodesic_system(Metric(chart, ((rf("1"), rf("0")), (rf("0"), rf("1")))))


def _log_metric():
    # xddot = -ln(x) xdot^2 / (x (1 + ln(x)^2)): ln(x) is shared by the
    # numerator and the denominator, and undefined for x <= 0.
    chart = CoordChart("s", ("x", "y"))
    return geodesic_system(Metric(chart, ((rf("ln(x)^2 + 1"), rf("0")), (rf("0"), rf("1")))))


VB_M1_QT = {"M": rf("1"), "Q": rf("t")}


def _outcomes(system, bindings, x0, v0, step, span):
    """(kernel, reference): each the samples, or the IntegrationError message."""
    try:
        trace = integrate_geodesic(system, bindings, x0, v0, step, span)
        got = (trace.step, list(trace.samples))
    except IntegrationError as exc:
        got = str(exc)
    try:
        want = reference.integrate_geodesic(system, bindings, x0, v0, step, span)
    except IntegrationError as exc:
        want = str(exc)
    return got, want


class TestAgainstReference:
    """The straight-line kernel against the list-form RK4: the same
    floats (== on every sample) and the same error messages."""

    @pytest.mark.parametrize("seed", range(3))
    def test_flat_plane(self, seed):
        rng = random.Random(7100 + seed)
        x0 = [rng.uniform(-1, 1) for _ in range(2)]
        v0 = [rng.uniform(-1, 1) for _ in range(2)]
        got, want = _outcomes(_flat_plane(), {}, x0, v0, rng.choice([0.01, 0.03]), 1.0)
        assert isinstance(got, tuple)
        assert got == want

    @pytest.mark.parametrize("seed", range(3))
    def test_polar_chart(self, polar_system, seed):
        rng = random.Random(7200 + seed)
        x0 = [rng.uniform(1, 2), rng.uniform(-math.pi, math.pi)]
        v0 = [rng.uniform(-0.3, 0.3), rng.uniform(-1, 1)]
        got, want = _outcomes(polar_system, {}, x0, v0, rng.choice([0.01, 0.02]), 2.0)
        assert isinstance(got, tuple)
        assert got == want

    @pytest.mark.parametrize("equator", [True, False])
    @pytest.mark.parametrize("seed", range(2))
    def test_vaidya_bonner_m1_qt(self, vb_system, seed, equator):
        rng = random.Random(7300 + seed)
        theta = math.pi / 2 if equator else rng.uniform(1.0, 1.4)
        thetadot = 0.0 if equator else rng.uniform(-0.01, 0.01)
        x0 = [0.0, rng.uniform(9.5, 10.5), theta, rng.uniform(0.0, 1.0)]
        v0 = [rng.uniform(0.95, 1.05), rng.uniform(-0.01, 0.01), thetadot,
              rng.uniform(0.045, 0.055)]
        got, want = _outcomes(vb_system, VB_M1_QT, x0, v0, 0.01, 3.0)
        assert isinstance(got, tuple)
        assert got == want
        if equator:
            assert all(x[2] == math.pi / 2 for _, x, _ in got[1])

    def test_drift_matches_reference(self, vb_system, vb_lagrangian):
        trace = integrate_geodesic(vb_system, VB_M1_QT, [0.0, 10.0, 1.2, 0.0],
                                   [1.0, 0.0, 0.01, 0.05], 0.01, 3.0)
        watches = [vb_lagrangian, derive(vb_lagrangian, {"phidot": RAT_ONE}),
                   derive(vb_lagrangian, {"tdot": RAT_ONE})]
        chart = vb_system.chart
        assert (drift_along_trace(watches, trace, chart, VB_M1_QT)
                == reference.drift_along_samples(watches, trace.samples, chart, VB_M1_QT))

    def test_singular_denominator_mid_step(self, polar_system):
        # rho = 0.99 - s reaches 0 at the second stage of step 50
        got, want = _outcomes(polar_system, {}, [0.99, 0.0], [-1.0, 0.0], 0.02, 2.0)
        assert got == want == "denominator within 1e-12 of zero"

    def test_non_finite_state(self):
        got, want = _outcomes(_flat_plane(), {}, [1e308, 0.0], [1e308, 0.0], 1.0, 3.0)
        assert got == want == "non-finite state at s = 1.0"

    def test_ln_of_a_negative(self):
        got, want = _outcomes(_log_metric(), {}, [0.5, 0.0], [-1.0, 0.2], 0.01, 2.0)
        assert got == want == "numeric evaluation failed: math domain error"

    def test_log_metric_before_the_boundary(self):
        got, want = _outcomes(_log_metric(), {}, [2.0, 0.0], [-0.5, 0.2], 0.01, 1.0)
        assert isinstance(got, tuple)
        assert got == want


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
