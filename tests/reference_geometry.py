"""Geometry oracles for tests.

- `euler_lagrange` derives the geodesic equations a second way, from
  the Lagrangian: EL_i = 2 g_{i mu} (xddot^mu + Gamma^mu_{ab} xdot^a
  xdot^b) checks `geometry.geodesic_system` against it.
- `covariant_metric_derivative_is_zero` checks metric compatibility,
  nabla g = 0, of `geometry.christoffel`.
"""

from liesym.geometry import christoffel
from liesym.jets import symbol
from liesym.symexpr import derive
from liesym.symexpr.poly import RAT_ONE, rat_sum


def total(rf, chart):
    """D rf = d_s rf + xdot^a d_a rf + xddot^a d_{xdot^a} rf."""
    coefficients = {chart.param: RAT_ONE}
    for c in chart.coords:
        coefficients[c] = symbol(chart.jet1(c))
        coefficients[chart.jet1(c)] = symbol(chart.jet2(c))
    return derive(rf, coefficients)


def euler_lagrange(lagrangian, chart) -> tuple:
    """d/ds (dL/dxdot^i) - dL/dx^i for each coordinate."""
    return tuple(
        total(derive(lagrangian, {chart.jet1(c): RAT_ONE}), chart)
        - derive(lagrangian, {c: RAT_ONE})
        for c in chart.coords
    )


def covariant_metric_derivative_is_zero(metric) -> bool:
    """Metric compatibility nabla g = 0, a full internal consistency check."""
    n = metric.chart.dim
    coords = metric.chart.coords
    g = metric.components
    gamma = christoffel(metric)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                expr = derive(g[i][j], {coords[k]: RAT_ONE}) - rat_sum(
                    gamma[l][k][i] * g[l][j] + gamma[l][k][j] * g[i][l] for l in range(n)
                )
                if not expr.is_zero():
                    return False
    return True
