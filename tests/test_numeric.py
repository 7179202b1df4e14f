"""RK4 integration and first-integral drift measurements."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from liesym.charts import CoordChart
from liesym.errors import IntegrationError
from liesym.geometry import Metric, geodesic_lagrangian, geodesic_system
from liesym.numeric import MAX_STEPS, integrate_watching, step_count
from liesym.symexpr import derive
from liesym.symexpr.poly import RAT_ONE

import reference_numeric as reference
from conftest import compile_numeric, rf
from reference_calculus import evaluate_rational


@pytest.fixture(scope="module")
def polar_metric():
    chart = CoordChart("s", ("rho", "psi"), ("psi",))
    return Metric(chart, ((rf("1"), rf("0")), (rf("0"), rf("rho^2"))))


@pytest.fixture(scope="module")
def polar_system(polar_metric):
    return geodesic_system(polar_metric)


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
        (s_end, x_end, v_end), drifts = integrate_watching(
            geodesic_system(_flat_plane()), {}, [], [0.0, 0.0], [1.0, 0.0], 0.01, 1.0)
        assert abs(x_end[0] - 1.0) < 1e-12
        assert abs(v_end[0] - 1.0) < 1e-12
        assert drifts == []

    def test_polar_convergence_order(self, polar_system):
        # straight line x = 1, y = s in polar coordinates
        def exact(s):
            return (math.sqrt(1 + s * s), math.atan(s))

        errors = []
        for h in (0.02, 0.01):
            (_, x_end, _), _ = integrate_watching(
                polar_system, {}, [], [1.0, 0.0], [0.0, 1.0], h, 1.0)
            ex = exact(1.0)
            errors.append(max(abs(x_end[0] - ex[0]), abs(x_end[1] - ex[1])))
        order = math.log2(errors[0] / errors[1])
        assert 3.7 <= order <= 4.3

    def test_singularity_detected(self, polar_system):
        # heading straight into the origin
        with pytest.raises(IntegrationError):
            integrate_watching(polar_system, {}, [], [1.0, 0.0], [-1.0, 0.0], 0.01, 2.0)

    def test_bad_state_length(self, polar_system):
        with pytest.raises(IntegrationError):
            integrate_watching(polar_system, {}, [], [1.0], [0.0], 0.01, 1.0)

    @pytest.mark.parametrize("step, span", [(1e-300, 1e300), (1.0, MAX_STEPS + 1.0)])
    def test_step_count_capped(self, polar_system, step, span):
        with pytest.raises(IntegrationError, match="is not a step count"):
            step_count(step, span)
        with pytest.raises(IntegrationError, match="is not a step count"):
            integrate_watching(polar_system, {}, [], [1.0, 0.0], [0.0, 1.0], step, span)

    def test_step_count_at_cap(self):
        assert step_count(1.0, float(MAX_STEPS)) == MAX_STEPS
        assert step_count(0.01, 1.0) == 100

    def test_first_failure_in_step_order_is_reported(self):
        # The state is non-finite after step 1, but the Lagrangian
        # xdot^2 + ydot^2 already overflows at the initial state.
        metric = _flat_plane()
        system = geodesic_system(metric)
        with pytest.raises(IntegrationError, match="non-finite state at s = 1.0"):
            integrate_watching(system, {}, [], [1e308, 0.0], [1e308, 0.0], 1.0, 3.0)
        with pytest.raises(IntegrationError, match="numeric evaluation failed: .*out of range"):
            integrate_watching(system, {}, [geodesic_lagrangian(metric)],
                               [1e308, 0.0], [1e308, 0.0], 1.0, 3.0)

    def test_zero_steps_keep_the_initial_state(self, polar_metric, polar_system):
        final, drifts = integrate_watching(polar_system, {}, _state_watches(polar_metric),
                                           [1.0, 0.5], [0.25, 1.0], 0.1, 0.01)
        assert final == (0.0, (1.0, 0.5), (0.25, 1.0))
        assert drifts == [0.0] * 6

    def test_memory_does_not_grow_with_the_step_count(self):
        # No sample is stored: 20,000 steps peak where 200 do.  A stored
        # trace of s, x, xdot would add 20,000 x 5 doubles, about 800 KB.
        metric = _flat_plane()
        system, watches = geodesic_system(metric), _state_watches(metric)

        def peak(span):
            tracemalloc.start()
            try:
                integrate_watching(system, {}, watches, [0.1, 0.2], [0.3, 0.4], 0.01, span)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2.0)  # first call: whatever is cached on first use
        assert peak(200.0) - peak(2.0) < 64 * 1024


def _flat_plane():
    chart = CoordChart("s", ("x", "y"))
    return Metric(chart, ((rf("1"), rf("0")), (rf("0"), rf("1"))))


def _log_metric():
    # xddot = -ln(x) xdot^2 / (x (1 + ln(x)^2)): ln(x) is shared by the
    # numerator and the denominator, and undefined for x <= 0.
    chart = CoordChart("s", ("x", "y"))
    return Metric(chart, ((rf("ln(x)^2 + 1"), rf("0")), (rf("0"), rf("1"))))


def _state_watches(metric):
    """One watch on each state variable s, x, xdot, then the Lagrangian."""
    chart = metric.chart
    return [*(rf(name) for name in (chart.param, *chart.coords, *chart.jets1)),
            geodesic_lagrangian(metric)]


VB_M1_QT = {"M": rf("1"), "Q": rf("t")}


def _outcomes(metric, bindings, x0, v0, step, span, watches=None):
    """(kernel, reference): each the last state and the drifts of
    `watches`, `_state_watches(metric)` by default, or the
    IntegrationError message."""
    system = geodesic_system(metric)
    watches = _state_watches(metric) if watches is None else watches
    try:
        got = integrate_watching(system, bindings, watches, x0, v0, step, span)
    except IntegrationError as exc:
        got = str(exc)
    try:
        _, samples = reference.integrate_geodesic(system, bindings, x0, v0, step, span)
        want = (samples[-1],
                reference.drift_along_samples(watches, samples, system.chart, bindings))
    except IntegrationError as exc:
        want = str(exc)
    return got, want


def _agree_at_every_step(metric, x0, v0, step, steps=50):
    """Integrating k steps, for each k up to `steps`, ends on the
    reference's sample k with its drifts over samples 0..k."""
    system, watches = geodesic_system(metric), _state_watches(metric)
    _, samples = reference.integrate_geodesic(system, {}, x0, v0, step, steps * step)
    assert len(samples) == steps + 1
    for k, sample in enumerate(samples):
        got = integrate_watching(system, {}, watches, x0, v0, step, k * step)
        want = (sample, reference.drift_along_samples(watches, samples[:k + 1], system.chart))
        assert got == want, k


class TestAgainstReference:
    """The straight-line kernel against the list-form RK4: the same
    floats (== on the last state and on every drift, and on every
    sample in the step-by-step cases) and the same error messages."""

    @pytest.mark.parametrize("seed", range(3))
    def test_flat_plane(self, seed):
        rng = random.Random(7100 + seed)
        x0 = [rng.uniform(-1, 1) for _ in range(2)]
        v0 = [rng.uniform(-1, 1) for _ in range(2)]
        step = rng.choice([0.01, 0.03])
        got, want = _outcomes(_flat_plane(), {}, x0, v0, step, 1.0)
        assert isinstance(got, tuple)
        assert got == want
        if seed == 0:
            _agree_at_every_step(_flat_plane(), x0, v0, step)

    @pytest.mark.parametrize("seed", range(3))
    def test_polar_chart(self, polar_metric, seed):
        rng = random.Random(7200 + seed)
        x0 = [rng.uniform(1, 2), rng.uniform(-math.pi, math.pi)]
        v0 = [rng.uniform(-0.3, 0.3), rng.uniform(-1, 1)]
        step = rng.choice([0.01, 0.02])
        got, want = _outcomes(polar_metric, {}, x0, v0, step, 2.0)
        assert isinstance(got, tuple)
        assert got == want
        if seed == 0:
            _agree_at_every_step(polar_metric, x0, v0, step)

    @pytest.mark.parametrize("equator", [True, False])
    @pytest.mark.parametrize("seed", range(2))
    def test_vaidya_bonner_m1_qt(self, vb_general, seed, equator):
        rng = random.Random(7300 + seed)
        theta = math.pi / 2 if equator else rng.uniform(1.0, 1.4)
        thetadot = 0.0 if equator else rng.uniform(-0.01, 0.01)
        x0 = [0.0, rng.uniform(9.5, 10.5), theta, rng.uniform(0.0, 1.0)]
        v0 = [rng.uniform(0.95, 1.05), rng.uniform(-0.01, 0.01), thetadot,
              rng.uniform(0.045, 0.055)]
        got, want = _outcomes(vb_general, VB_M1_QT, x0, v0, 0.01, 3.0)
        assert isinstance(got, tuple)
        assert got == want
        if equator:
            # watches: s, t, r, theta, ...; theta stays pi/2 at every step
            assert got[1][3] == 0.0

    def test_drift_matches_reference(self, vb_system, vb_lagrangian):
        watches = [vb_lagrangian, derive(vb_lagrangian, {"phidot": RAT_ONE}),
                   derive(vb_lagrangian, {"tdot": RAT_ONE})]
        x0, v0 = [0.0, 10.0, 1.2, 0.0], [1.0, 0.0, 0.01, 0.05]
        _, drifts = integrate_watching(vb_system, VB_M1_QT, watches, x0, v0, 0.01, 3.0)
        _, samples = reference.integrate_geodesic(vb_system, VB_M1_QT, x0, v0, 0.01, 3.0)
        assert drifts == reference.drift_along_samples(watches, samples, vb_system.chart,
                                                       VB_M1_QT)

    def test_singular_denominator_mid_step(self, polar_metric):
        # rho = 0.99 - s reaches 0 at the second stage of step 50
        got, want = _outcomes(polar_metric, {}, [0.99, 0.0], [-1.0, 0.0], 0.02, 2.0)
        assert got == want == "denominator within 1e-12 of zero"

    def test_non_finite_state(self):
        # The Lagrangian xdot^2 + ydot^2 overflows at the initial state,
        # before any step, so only the state variables are watched here.
        metric = _flat_plane()
        got, want = _outcomes(metric, {}, [1e308, 0.0], [1e308, 0.0], 1.0, 3.0,
                              watches=_state_watches(metric)[:-1])
        assert got == want == "non-finite state at s = 1.0"

    def test_ln_of_a_negative(self):
        got, want = _outcomes(_log_metric(), {}, [0.5, 0.0], [-1.0, 0.2], 0.01, 2.0)
        assert got == want == "numeric evaluation failed: math domain error"

    def test_log_metric_before_the_boundary(self):
        got, want = _outcomes(_log_metric(), {}, [2.0, 0.0], [-0.5, 0.2], 0.01, 1.0)
        assert isinstance(got, tuple)
        assert got == want


def _equatorial_drifts(metric, watches):
    """Drifts of `watches` along the equatorial geodesic of `metric`."""
    _, drifts = integrate_watching(
        geodesic_system(metric), {}, watches, [0.0, 10.0, math.pi / 2, 0.0],
        [1.0, 0.0, 0.0, 0.05], 1e-3, 10.0,
    )
    return drifts


class TestRadiatingInstance:

    def test_equatorial_plane_preserved(self, vb_m1_qt):
        assert _equatorial_drifts(vb_m1_qt, [rf("theta")]) == [0.0]

    def test_azimuthal_momentum_conserved(self, vb_m1_qt):
        [drift] = _equatorial_drifts(vb_m1_qt, [rf("2*r^2*sin(theta)^2*phidot")])
        assert drift < 1e-6

    def test_time_translation_charge_drifts(self, vb_m1_qt):
        # momentum conjugate to t is not conserved when the charge grows
        lagrangian = geodesic_lagrangian(vb_m1_qt)
        candidate = derive(lagrangian, {"tdot": RAT_ONE})
        [drift] = _equatorial_drifts(vb_m1_qt, [candidate])
        assert drift > 1e-3

    def test_one_pass_equals_separate_passes(self, vb_m1_qt):
        lagrangian = geodesic_lagrangian(vb_m1_qt)
        watches = [lagrangian, derive(lagrangian, {"tdot": RAT_ONE})]
        together = _equatorial_drifts(vb_m1_qt, watches)
        apart = [_equatorial_drifts(vb_m1_qt, [w])[0] for w in watches]
        assert together == apart
