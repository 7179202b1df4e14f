"""Metric geometry pipeline: inverse metric, Christoffel symbols,
geodesic system, geodesic Lagrangian, Euler-Lagrange operator."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .charts import CoordChart
from .errors import ChartError, SingularMetricError
from .jets import total_derivative
from .symexpr import (
    Add,
    Expr,
    Mul,
    Num,
    Pow,
    Sym,
    differentiate,
    is_zero,
    to_canonical,
)
from .symexpr.canonical import canonical_ratfunc, render_ratfunc
from .symexpr.nodes import as_expr
from .symexpr.poly import RAT_ONE, RAT_ZERO


@dataclass(frozen=True)
class Metric:
    """Symmetric metric components over a chart, with declared opaque
    functions (name -> argument symbols)."""

    chart: CoordChart
    components: tuple  # n x n tuple of canonical Expr
    functions: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        n = self.chart.dim
        comps = tuple(
            tuple(to_canonical(as_expr(self.components[i][j])) for j in range(n))
            for i in range(n)
        )
        object.__setattr__(self, "components", comps)
        allowed = set(self.chart.coords)
        for args in self.functions.values():
            allowed |= set(args)
        for i in range(n):
            for j in range(n):
                if not is_zero(comps[i][j] - comps[j][i]):
                    raise ChartError(f"metric is not symmetric at ({i}, {j})")
                extra = comps[i][j].free_symbols() - allowed
                if extra:
                    raise ChartError(f"undeclared symbols in metric: {sorted(extra)}")

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
    G^i = -Gamma^i_{jk} xdot^j xdot^k."""

    chart: CoordChart
    rhs: tuple  # G^i

    @property
    def equations(self) -> tuple:
        out = []
        for c, g in zip(self.chart.coords, self.rhs):
            out.append(to_canonical(Add.of(Sym(self.chart.jet2(c)), Mul.of(Num(-1), g))))
        return tuple(out)

    def solved_bindings(self) -> dict:
        """Bindings substituting each acceleration by its on-shell value."""
        return {
            Sym(self.chart.jet2(c)): g for c, g in zip(self.chart.coords, self.rhs)
        }


def _ratfunc_matrix(metric: Metric):
    n = metric.chart.dim
    return [
        [canonical_ratfunc(metric.components[i][j]) for j in range(n)]
        for i in range(n)
    ]


def _det(a):
    """Laplace expansion along the first row, skipping zero entries."""
    if not a:
        return RAT_ONE
    total = RAT_ZERO
    for j, x in enumerate(a[0]):
        if x.is_zero():
            continue
        term = x * _det([row[:j] + row[j + 1:] for row in a[1:]])
        total = total - term if j % 2 else total + term
    return total


def determinant(metric: Metric):
    """det g as a canonical RatFunc."""
    return _det(_ratfunc_matrix(metric))


def inverse_metric(metric: Metric) -> Metric:
    """Exact inverse adj(g)/det(g); the product with the input
    canonicalizes to the identity.  Raises SingularMetricError when the
    determinant vanishes."""
    n = metric.chart.dim
    a = _ratfunc_matrix(metric)
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
            inv[i][j] = inv[j][i] = render_ratfunc(-cof if (i + j) % 2 else cof)
    comps = tuple(tuple(row) for row in inv)
    return Metric(metric.chart, comps, dict(metric.functions), name=metric.name)


def christoffel(metric: Metric) -> ChristoffelTensor:
    """Gamma^i_{jk} = (1/2) g^{il} (g_{lj,k} + g_{lk,j} - g_{jk,l})."""
    n = metric.chart.dim
    coords = metric.chart.coords
    ginv = inverse_metric(metric)
    dg = [
        [
            [differentiate(metric.components[i][j], coords[k]) for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    gamma = []
    for i in range(n):
        gi = []
        for j in range(n):
            gj = []
            for k in range(n):
                terms = []
                for l in range(n):
                    bracket = Add.of(
                        dg[l][j][k],
                        dg[l][k][j],
                        Mul.of(Num(-1), dg[j][k][l]),
                    )
                    terms.append(Mul.of(ginv.components[i][l], bracket))
                gj.append(to_canonical(Mul.of(Num(Fraction(1, 2)), Add.of(*terms))))
            gi.append(tuple(gj))
        gamma.append(tuple(gi))
    return ChristoffelTensor(metric.chart, tuple(gamma))


def geodesic_system(metric: Metric) -> GeodesicSystem:
    """Solved-form geodesics xddot^i = -Gamma^i_{jk} xdot^j xdot^k."""
    chart = metric.chart
    n = chart.dim
    gamma = christoffel(metric)
    rhs = []
    for i in range(n):
        terms = [Num(0)]
        for j in range(n):
            for k in range(n):
                g = gamma[i, j, k]
                if g == Num(0):
                    continue
                terms.append(
                    Mul.of(Num(-1), g, Sym(chart.jet1(chart.coords[j])), Sym(chart.jet1(chart.coords[k])))
                )
        rhs.append(to_canonical(Add.of(*terms)))
    return GeodesicSystem(chart, tuple(rhs))


def geodesic_lagrangian(metric: Metric) -> Expr:
    """Quadratic form L = g_{mu nu} xdot^mu xdot^nu."""
    chart = metric.chart
    n = chart.dim
    terms = [Num(0)]
    for i in range(n):
        for j in range(n):
            comp = metric.components[i][j]
            if comp == Num(0):
                continue
            terms.append(
                Mul.of(comp, Sym(chart.jet1(chart.coords[i])), Sym(chart.jet1(chart.coords[j])))
            )
    return to_canonical(Add.of(*terms))


def euler_lagrange(lagrangian: Expr, chart: CoordChart) -> tuple:
    """d/ds (dL/dxdot^i) - dL/dx^i for each coordinate."""
    out = []
    for c in chart.coords:
        p = differentiate(lagrangian, chart.jet1(c))
        out.append(
            to_canonical(
                Add.of(total_derivative(p, chart), Mul.of(Num(-1), differentiate(lagrangian, c)))
            )
        )
    return tuple(out)


def covariant_metric_derivative_is_zero(metric: Metric) -> bool:
    """Metric compatibility nabla g = 0, a full internal consistency check."""
    n = metric.chart.dim
    coords = metric.chart.coords
    gamma = christoffel(metric)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                expr = differentiate(metric.components[i][j], coords[k])
                for l in range(n):
                    expr = Add.of(
                        expr,
                        Mul.of(Num(-1), gamma[l, k, i], metric.components[l][j]),
                        Mul.of(Num(-1), gamma[l, k, j], metric.components[i][l]),
                    )
                if not is_zero(expr):
                    return False
    return True
