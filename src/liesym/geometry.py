"""Metric geometry pipeline: inverse metric, Christoffel symbols,
geodesic system, geodesic Lagrangian, Euler-Lagrange operator."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .charts import CoordChart
from .errors import ChartError, SingularMetricError
from .jets import symbol, total
from .symexpr import Expr, canonical_ratfunc, derive, render_ratfunc
from .symexpr.nodes import Sym, as_expr
from .symexpr.poly import RAT_ONE, RAT_ZERO, RatFunc, rat_sum


@dataclass(frozen=True)
class Metric:
    """Symmetric metric components over a chart, with declared opaque
    functions (name -> argument symbols).

    `ratfuncs` holds the canonical RatFuncs of the components; the
    components are their rendered trees."""

    chart: CoordChart
    components: tuple  # n x n tuple of canonical Expr
    functions: dict = field(default_factory=dict)
    name: str = ""
    ratfuncs: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        n = self.chart.dim
        rfs = self.ratfuncs or tuple(
            tuple(canonical_ratfunc(as_expr(self.components[i][j])) for j in range(n))
            for i in range(n)
        )
        object.__setattr__(self, "ratfuncs", rfs)
        object.__setattr__(self, "components", tuple(
            tuple(render_ratfunc(rf) for rf in row) for row in rfs))
        allowed = set(self.chart.coords)
        for args in self.functions.values():
            allowed |= set(args)
        for i in range(n):
            for j in range(n):
                if not (rfs[i][j] - rfs[j][i]).is_zero():
                    raise ChartError(f"metric is not symmetric at ({i}, {j})")
                extra = rfs[i][j].free_symbols() - allowed
                if extra:
                    raise ChartError(f"undeclared symbols in metric: {sorted(extra)}")

    @classmethod
    def from_ratfuncs(cls, chart: CoordChart, ratfuncs, functions=None, name: str = "") -> "Metric":
        """The metric whose components are the given canonical RatFuncs."""
        return cls(chart, (), dict(functions or {}), name, tuple(map(tuple, ratfuncs)))

    def __getitem__(self, ij):
        i, j = ij
        return self.components[i][j]


@dataclass(frozen=True)
class ChristoffelTensor:
    chart: CoordChart
    gamma: tuple  # gamma[i][j][k], canonical Expr

    def __getitem__(self, ijk):
        i, j, k = ijk
        return self.gamma[i][j][k]


@dataclass(frozen=True)
class GeodesicSystem:
    """Equations in solved form xddot^i - G^i(s, x, xdot) = 0 with
    G^i = -Gamma^i_{jk} xdot^j xdot^k; `accelerations` holds each G^i
    as a canonical RatFunc."""

    chart: CoordChart
    accelerations: tuple

    @cached_property
    def rhs(self) -> tuple:
        """G^i as trees."""
        return tuple(render_ratfunc(g) for g in self.accelerations)

    @cached_property
    def equation_ratfuncs(self) -> tuple:
        return tuple(
            symbol(self.chart.jet2(c)) - g
            for c, g in zip(self.chart.coords, self.accelerations)
        )

    @cached_property
    def equations(self) -> tuple:
        return tuple(render_ratfunc(eq) for eq in self.equation_ratfuncs)

    def solved_bindings(self) -> dict:
        """Bindings substituting each acceleration by its on-shell value."""
        return {
            Sym(self.chart.jet2(c)): g for c, g in zip(self.chart.coords, self.rhs)
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
    return _det(metric.ratfuncs)


def _inverse(metric: Metric):
    """adj(g)/det(g) as a matrix of canonical RatFuncs."""
    n = metric.chart.dim
    a = [list(row) for row in metric.ratfuncs]
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
    return Metric.from_ratfuncs(metric.chart, _inverse(metric), metric.functions,
                                name=metric.name)


def _christoffel(metric: Metric):
    """Gamma^i_{jk} as nested lists of canonical RatFuncs."""
    n = metric.chart.dim
    coords = metric.chart.coords
    g = metric.ratfuncs
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


def christoffel(metric: Metric) -> ChristoffelTensor:
    """Gamma^i_{jk} = (1/2) g^{il} (g_{lj,k} + g_{lk,j} - g_{jk,l})."""
    gamma = _christoffel(metric)
    return ChristoffelTensor(metric.chart, tuple(
        tuple(tuple(render_ratfunc(x) for x in row) for row in block) for block in gamma
    ))


def geodesic_system(metric: Metric) -> GeodesicSystem:
    """Solved-form geodesics xddot^i = -Gamma^i_{jk} xdot^j xdot^k."""
    chart = metric.chart
    n = chart.dim
    gamma = _christoffel(metric)
    v = [symbol(chart.jet1(c)) for c in chart.coords]
    accelerations = tuple(
        -rat_sum(
            gamma[i][j][k] * v[j] * v[k]
            for j in range(n) for k in range(n) if not gamma[i][j][k].is_zero()
        )
        for i in range(n)
    )
    return GeodesicSystem(chart, accelerations)


def _lagrangian(metric: Metric) -> RatFunc:
    chart = metric.chart
    v = [symbol(chart.jet1(c)) for c in chart.coords]
    return rat_sum(
        comp * v[i] * v[j]
        for i, row in enumerate(metric.ratfuncs) for j, comp in enumerate(row)
        if not comp.is_zero()
    )


def geodesic_lagrangian(metric: Metric) -> Expr:
    """Quadratic form L = g_{mu nu} xdot^mu xdot^nu."""
    return render_ratfunc(_lagrangian(metric))


def euler_lagrange(lagrangian: Expr, chart: CoordChart) -> tuple:
    """d/ds (dL/dxdot^i) - dL/dx^i for each coordinate."""
    lag = canonical_ratfunc(lagrangian)
    return tuple(
        render_ratfunc(
            total(derive(lag, {chart.jet1(c): RAT_ONE}), chart) - derive(lag, {c: RAT_ONE})
        )
        for c in chart.coords
    )


def covariant_metric_derivative_is_zero(metric: Metric) -> bool:
    """Metric compatibility nabla g = 0, a full internal consistency check."""
    n = metric.chart.dim
    coords = metric.chart.coords
    g = metric.ratfuncs
    gamma = _christoffel(metric)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                expr = derive(g[i][j], {coords[k]: RAT_ONE}) - rat_sum(
                    gamma[l][k][i] * g[l][j] + gamma[l][k][j] * g[i][l] for l in range(n)
                )
                if not expr.is_zero():
                    return False
    return True
