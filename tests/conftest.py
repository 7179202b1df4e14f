"""Shared fixtures: charts, metrics, and golden generator lists."""

import pytest

from liesym.charts import CoordChart
from liesym.geometry import Metric, geodesic_lagrangian, geodesic_system
from liesym.jets import BundleVectorField
from liesym.symexpr import parse_expr
from liesym.symmetry import default_ansatz, determining_system, solve_determining


def rf(text, functions=None):
    """The canonical RatFunc of an expression written as text."""
    return parse_expr(text, functions)[0]


@pytest.fixture(scope="session")
def chart():
    return CoordChart("s", ("t", "r", "theta", "phi"), ("theta", "phi"))


def _radiating_metric(chart, f_text, functions, name):
    f = rf(f_text, functions)
    zero, one = rf("0"), rf("1")
    comps = (
        (-f, -one, zero, zero),
        (-one, zero, zero, zero),
        (zero, zero, rf("r^2"), zero),
        (zero, zero, zero, rf("r^2*sin(theta)^2")),
    )
    return Metric(chart, comps, functions, name=name)


@pytest.fixture(scope="session")
def vb_general(chart):
    return _radiating_metric(
        chart, "1 - M(t)/r + Q(t)/r^2", {"M": ("t",), "Q": ("t",)}, "vaidya_bonner"
    )


@pytest.fixture(scope="session")
def vb_m1_qt(chart):
    return _radiating_metric(chart, "1 - 1/r + t/r^2", {}, "vaidya_bonner_M1_Qt")


@pytest.fixture(scope="session")
def vb_mt_qt2(chart):
    return _radiating_metric(chart, "1 - t/r + t^2/r^2", {}, "vaidya_bonner_Mt_Qt2")


def _noether_solve(metric):
    ds = determining_system(metric, "noether")
    return solve_determining(ds, default_ansatz(metric.chart, 2))


@pytest.fixture(scope="session")
def m1qt_noether_solve(vb_m1_qt):
    """Gauge-free invariant-action solve of the M = 1, Q = t instance."""
    return _noether_solve(vb_m1_qt)


@pytest.fixture(scope="session")
def mtqt2_noether_solve(vb_mt_qt2):
    """Gauge-free invariant-action solve of the M = t, Q = t^2 instance."""
    return _noether_solve(vb_mt_qt2)


def make_field(chart, name, xi, eta):
    return BundleVectorField(chart, [rf(c) for c in (xi, *eta)], name=name)


@pytest.fixture(scope="session")
def general_fields(chart):
    """The five candidate generators of the opaque metric (cot variant)."""
    return [
        make_field(chart, "X1", "1", ["0", "0", "0", "0"]),
        make_field(chart, "X2", "0", ["1", "0", "0", "0"]),
        make_field(chart, "X3", "0", ["0", "0", "0", "1"]),
        make_field(chart, "X4", "0", ["0", "0", "-cos(phi)", "sin(phi)*cot(theta)"]),
        make_field(chart, "X5", "0", ["0", "0", "sin(phi)", "cos(phi)*cot(theta)"]),
    ]


@pytest.fixture(scope="session")
def scaling_fields(chart):
    """Point symmetries of the homothetic M = t, Q = t^2 instance, led by
    the scaling field s d_s + t d_t + r d_r.

    They are Lie point symmetries spanning a 5-dimensional subalgebra of
    the 6-dimensional point algebra, which s d_s completes.  They are not
    the Noether algebra: its scaling element is 2 s d_s + t d_t + r d_r,
    and X1 leaves the Noether residual L.
    """
    return [
        make_field(chart, "X1", "s", ["t", "r", "0", "0"]),
        make_field(chart, "X2", "1", ["0", "0", "0", "0"]),
        make_field(chart, "X3", "0", ["0", "0", "0", "1"]),
        make_field(chart, "X4", "0", ["0", "0", "-cos(phi)", "sin(phi)*cot(theta)"]),
        make_field(chart, "X5", "0", ["0", "0", "sin(phi)", "cos(phi)*cot(theta)"]),
    ]


@pytest.fixture(scope="session")
def rotation_fields(chart):
    """Invariant-action generators of the M = 1, Q = t instance."""
    return [
        make_field(chart, "X1", "1", ["0", "0", "0", "0"]),
        make_field(chart, "X2", "0", ["0", "0", "0", "1"]),
        make_field(chart, "X3", "0", ["0", "0", "-cos(phi)", "sin(phi)*cot(theta)"]),
        make_field(chart, "X4", "0", ["0", "0", "sin(phi)", "cos(phi)*cot(theta)"]),
    ]


@pytest.fixture(scope="session")
def similitude_fields():
    """Rotations about shifted centres, translations and the dilation of
    flat 3-space: so(3) acts on the radical spanned by the translations
    and the dilation, whose derived series has length 3, so no Levi
    factor is a coordinate block or the last derived term."""
    chart = CoordChart("s", ("x", "y", "z"))
    return [
        make_field(chart, "R1", "0", ["0", "-z", "y"]),
        make_field(chart, "T1", "0", ["1", "0", "0"]),
        make_field(chart, "R2", "0", ["z + 1", "0", "-x"]),
        make_field(chart, "T2", "0", ["1", "1", "0"]),
        make_field(chart, "R3", "0", ["-y", "x + 2", "0"]),
        make_field(chart, "T3", "0", ["0", "0", "1"]),
        make_field(chart, "D", "0", ["x", "y", "z"]),
    ]


@pytest.fixture(scope="session")
def vb_lagrangian(vb_general):
    return geodesic_lagrangian(vb_general)


@pytest.fixture(scope="session")
def vb_system(vb_general):
    return geodesic_system(vb_general)
