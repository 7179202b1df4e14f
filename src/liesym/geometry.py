"""Metric geometry pipeline: inverse metric, Christoffel symbols,
geodesic system, geodesic Lagrangian.

Every value is a canonical RatFunc: metric components (as loaded by
`files`), the inverse adj(g)/det(g), Christoffel symbols gamma[i][j][k],
the accelerations G^i and equations xddot^i - G^i of the geodesic
system, and the Lagrangian.  Partial derivatives are `symexpr.derive`;
the system's `on_shell` map restricts a RatFunc to the solution
manifold through `substitute_atoms`."""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction

from .charts import CoordChart
from .errors import ChartError, SingularMetricError
from .jets import symbol
from .symexpr import derive
from .symexpr.nodes import sym_atom
from .symexpr.poly import RAT_ONE, RAT_ZERO, RatFunc, rat_sum


class Metric:
    """Symmetric metric components over a chart, with declared opaque
    functions (name -> argument symbols)."""

    def __init__(self, chart: CoordChart, components, functions=None, name: str = ""):
        g = tuple(tuple(row) for row in components)  # n x n canonical RatFuncs
        functions = {} if functions is None else functions
        allowed = set(chart.coords)
        for args in functions.values():
            allowed |= set(args)
        for i in range(chart.dim):
            for j in range(chart.dim):
                if not (g[i][j] - g[j][i]).is_zero():
                    raise ChartError(f"metric is not symmetric at ({i}, {j})")
                extra = g[i][j].free_symbols() - allowed
                if extra:
                    raise ChartError(f"undeclared symbols in metric: {sorted(extra)}")
        self.chart = chart
        self.components = g
        self.functions = functions
        self.name = name

    def __getitem__(self, ij):
        i, j = ij
        return self.components[i][j]

    @cached_property
    def det(self) -> RatFunc:
        """det g as a canonical RatFunc, computed once: the loader's
        singular check and the inverse metric both read it."""
        return _det(self.components)


class GeodesicSystem:
    """Equations in solved form xddot^i - G^i(s, x, xdot) = 0 with
    G^i = -Gamma^i_{jk} xdot^j xdot^k; `accelerations` holds each G^i."""

    def __init__(self, chart: CoordChart, accelerations: tuple):
        self.chart = chart
        self.accelerations = accelerations

    @cached_property
    def equations(self) -> tuple:
        """xddot^i - G^i for each coordinate."""
        return tuple(
            symbol(self.chart.jet2(c)) - g
            for c, g in zip(self.chart.coords, self.accelerations)
        )

    @cached_property
    def on_shell(self) -> dict:
        """The atom map xddot^i -> G^i that restricts a RatFunc to the
        solution manifold: substitute_atoms(rf, system.on_shell.get)."""
        return {
            sym_atom(self.chart.jet2(c)): g
            for c, g in zip(self.chart.coords, self.accelerations)
        }


def _det(a):
    """Laplace expansion along the first row, skipping zero entries."""
    if not a:
        return RAT_ONE
    out = RAT_ZERO
    for j, x in enumerate(a[0]):
        if x.is_zero():
            continue
        term = x * _det([row[:j] + row[j + 1:] for row in a[1:]])
        out = out - term if j % 2 else out + term
    return out


def inverse_metric(metric: Metric):
    """Exact inverse adj(g)/det(g) as a matrix of canonical RatFuncs;
    its product with g canonicalizes to the identity.  Raises
    SingularMetricError when the determinant vanishes."""
    n = metric.chart.dim
    a = [list(row) for row in metric.components]
    det = metric.det
    if det.is_zero():
        raise SingularMetricError("metric determinant is canonically zero")
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            # g is symmetric, so adj(g)_ij = adj(g)_ji is (-1)^(i+j) times
            # the determinant of g without row i and column j
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(a) if k != i]
            cof = _det(minor) / det
            inv[i][j] = inv[j][i] = -cof if (i + j) % 2 else cof
    return inv


def christoffel(metric: Metric):
    """Gamma^i_{jk} = (1/2) g^{il} (g_{lj,k} + g_{lk,j} - g_{jk,l}),
    indexed gamma[i][j][k]."""
    n = metric.chart.dim
    coords = metric.chart.coords
    g = metric.components
    ginv = inverse_metric(metric)
    dg = [
        [[derive(g[i][j], {coords[k]: RAT_ONE}) for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    half = RatFunc.const(Fraction(1, 2))
    return [
        [
            [
                half * rat_sum(
                    ginv[i][l] * (dg[l][j][k] + dg[l][k][j] - dg[j][k][l])
                    for l in range(n)
                )
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


def geodesic_system(metric: Metric) -> GeodesicSystem:
    """Solved-form geodesics xddot^i = -Gamma^i_{jk} xdot^j xdot^k."""
    chart = metric.chart
    n = chart.dim
    gamma = christoffel(metric)
    v = [symbol(chart.jet1(c)) for c in chart.coords]
    accelerations = tuple(
        -rat_sum(
            gamma[i][j][k] * v[j] * v[k]
            for j in range(n) for k in range(n) if not gamma[i][j][k].is_zero()
        )
        for i in range(n)
    )
    return GeodesicSystem(chart, accelerations)


def geodesic_lagrangian(metric: Metric) -> RatFunc:
    """Quadratic form L = g_{mu nu} xdot^mu xdot^nu."""
    chart = metric.chart
    v = [symbol(chart.jet1(c)) for c in chart.coords]
    return rat_sum(
        comp * v[i] * v[j]
        for i, row in enumerate(metric.components) for j, comp in enumerate(row)
        if not comp.is_zero()
    )
