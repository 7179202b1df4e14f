"""Metric geometry pipeline: inverse metric, Christoffel symbols,
geodesic system, geodesic Lagrangian, Euler-Lagrange operator.

Every value is a canonical RatFunc: metric components (as loaded by
`files`), the inverse adj(g)/det(g), Christoffel symbols gamma[i][j][k],
the accelerations G^i and equations xddot^i - G^i of the geodesic
system, the Lagrangian and its Euler-Lagrange expressions.  Partial
derivatives are `symexpr.derive`; the system's `on_shell` map restricts
a RatFunc to the solution manifold through `substitute_atoms`."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .charts import CoordChart
from .errors import ChartError, SingularMetricError
from .jets import symbol, total
from .symexpr import derive
from .symexpr.poly import RAT_ONE, RAT_ZERO, RatFunc, rat_sum, sym_atom


@dataclass(frozen=True)
class Metric:
    """Symmetric metric components over a chart, with declared opaque
    functions (name -> argument symbols)."""

    chart: CoordChart
    components: tuple  # n x n canonical RatFuncs
    functions: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        n = self.chart.dim
        g = tuple(tuple(row) for row in self.components)
        object.__setattr__(self, "components", g)
        allowed = set(self.chart.coords)
        for args in self.functions.values():
            allowed |= set(args)
        for i in range(n):
            for j in range(n):
                if not (g[i][j] - g[j][i]).is_zero():
                    raise ChartError(f"metric is not symmetric at ({i}, {j})")
                extra = g[i][j].free_symbols() - allowed
                if extra:
                    raise ChartError(f"undeclared symbols in metric: {sorted(extra)}")

    def __getitem__(self, ij):
        i, j = ij
        return self.components[i][j]


@dataclass(frozen=True)
class GeodesicSystem:
    """Equations in solved form xddot^i - G^i(s, x, xdot) = 0 with
    G^i = -Gamma^i_{jk} xdot^j xdot^k; `accelerations` holds each G^i."""

    chart: CoordChart
    accelerations: tuple

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


def determinant(metric: Metric):
    """det g as a canonical RatFunc."""
    return _det(metric.components)


def _inverse(metric: Metric):
    """adj(g)/det(g) as a matrix of canonical RatFuncs."""
    n = metric.chart.dim
    a = [list(row) for row in metric.components]
    det = _det(a)
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


def inverse_metric(metric: Metric) -> Metric:
    """Exact inverse adj(g)/det(g); the product with the input
    canonicalizes to the identity.  Raises SingularMetricError when the
    determinant vanishes."""
    return Metric(metric.chart, _inverse(metric), metric.functions, metric.name)


def christoffel(metric: Metric):
    """Gamma^i_{jk} = (1/2) g^{il} (g_{lj,k} + g_{lk,j} - g_{jk,l}),
    indexed gamma[i][j][k]."""
    n = metric.chart.dim
    coords = metric.chart.coords
    g = metric.components
    ginv = _inverse(metric)
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


def euler_lagrange(lagrangian: RatFunc, chart: CoordChart) -> tuple:
    """d/ds (dL/dxdot^i) - dL/dx^i for each coordinate."""
    return tuple(
        total(derive(lagrangian, {chart.jet1(c): RAT_ONE}), chart)
        - derive(lagrangian, {c: RAT_ONE})
        for c in chart.coords
    )


def covariant_metric_derivative_is_zero(metric: Metric) -> bool:
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
