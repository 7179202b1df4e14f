"""Rendering a canonical RatFunc and canonicalizing the tree again gives
the same RatFunc.

Values are computed on RatFuncs and rendered only for reports, so a
report prints the tree of the computed value.  On the values below the
round trip is the identity; a kernel change that breaks it is named
here, where the golden reports would only show a changed byte.
"""

from importlib import resources
from pathlib import Path

import pytest

from liesym.files import load_metric
from liesym.geometry import geodesic_lagrangian, geodesic_system
from liesym.symexpr import canonical_ratfunc, render_ratfunc
from liesym.symmetry import default_ansatz

METRICS = sorted(
    [str(p) for p in resources.files("liesym").joinpath("data").iterdir()
     if p.name.endswith(".metric")]
    + [str(Path(__file__).parent / "data" / "flat_plane.metric")]
)


def assert_round_trip(label, rf):
    assert canonical_ratfunc(render_ratfunc(rf)) == rf, (label, str(rf))


@pytest.mark.parametrize("path", METRICS, ids=lambda p: Path(p).stem)
def test_metric_values_round_trip(path):
    metric = load_metric(path)
    n = metric.chart.dim
    for i in range(n):
        for j in range(n):
            assert_round_trip(f"g[{i}][{j}]", metric[i, j])
    for c, g in zip(metric.chart.coords, geodesic_system(metric).accelerations):
        assert_round_trip(f"acceleration of {c}", g)
    assert_round_trip("lagrangian", geodesic_lagrangian(metric))


@pytest.mark.parametrize("degree", range(4))
@pytest.mark.parametrize("path", METRICS, ids=lambda p: Path(p).stem)
def test_ansatz_basis_round_trips(path, degree):
    chart = load_metric(path).chart
    for k, b in enumerate(default_ansatz(chart, degree).basis):
        assert_round_trip(f"basis[{k}]", b)
