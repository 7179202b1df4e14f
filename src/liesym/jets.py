"""Second-order jet bookkeeping: bundle vector fields, the total
derivative and prolongations.

A bundle vector field xi d_s + eta^a d_a lives on (s, x); prolonging it
to velocities and accelerations uses the recursion

    eta_(1) = D eta - xdot D xi,     eta_(2) = D eta_(1) - xddot D xi,

with D the total derivative d_s + xdot d_x + xddot d_xdot.  Fields,
D and the prolonged field are derivations (`symexpr.derive`); their
components, their arguments and their results are canonical RatFuncs.
"""

from __future__ import annotations

from .charts import CoordChart
from .errors import ChartError, JetOrderError
from .symexpr import derive
from .symexpr.poly import RAT_ONE, RatFunc, sym_atom


def symbol(name: str) -> RatFunc:
    """The canonical RatFunc of a plain symbol."""
    return RatFunc.atom(sym_atom(name))


class BundleVectorField:
    """Candidate symmetry generator: `components` holds (xi, eta^1, ...,
    eta^n) as canonical RatFuncs, xi on the parameter and eta^a per
    coordinate."""

    def __init__(self, chart: CoordChart, components, name: str = ""):
        comps = tuple(components)
        if len(comps) != chart.dim + 1:
            raise ChartError(
                f"field has {len(comps) - 1} eta components for {chart.dim} coordinates"
            )
        jets = set(chart.jets1) | set(chart.jets2)
        for rf in comps:
            if rf.free_symbols() & jets:
                raise ChartError("vector field components must not contain jet symbols")
        self.chart = chart
        self.components = comps
        self.name = name

    @property
    def xi(self) -> RatFunc:
        return self.components[0]

    @property
    def eta(self) -> tuple:
        return self.components[1:]

    def is_zero_field(self) -> bool:
        return all(rf.is_zero() for rf in self.components)

    def coefficients(self) -> dict:
        """The field as a derivation: symbol name -> RatFunc coefficient."""
        return dict(zip((self.chart.param, *self.chart.coords), self.components))

    def act(self, rf: RatFunc) -> RatFunc:
        """xi d_s(rf) + eta^a d_a(rf) on a canonical RatFunc."""
        return derive(rf, self.coefficients())


class ProlongedField:
    """Base field plus first and second prolongation coefficients, as
    canonical RatFuncs; `second` is empty when prolonged to order 1 only."""

    def __init__(self, base: BundleVectorField, first: tuple, second: tuple):
        self.base = base
        self.first = first
        self.second = second

    def act(self, rf: RatFunc) -> RatFunc:
        """The prolonged field acting on a canonical RatFunc in
        (s, x, xdot, xddot)."""
        chart = self.base.chart
        if not self.second and rf.free_symbols() & set(chart.jets2):
            raise JetOrderError(
                "second-order expression needs a second-order prolongation")
        coefficients = self.base.coefficients()
        coefficients.update(zip(chart.jets1, self.first))
        coefficients.update(zip(chart.jets2, self.second))
        return derive(rf, coefficients)


def total_coefficients(chart: CoordChart, order: int = 2) -> dict:
    """The total derivative as a derivation: d_s + xdot^a d_a, plus
    xddot^a d_{xdot^a} at order 2."""
    out = {chart.param: RAT_ONE}
    for c in chart.coords:
        out[c] = symbol(chart.jet1(c))
        if order == 2:
            out[chart.jet1(c)] = symbol(chart.jet2(c))
    return out


def total(rf: RatFunc, chart: CoordChart) -> RatFunc:
    """D rf = d_s rf + xdot^a d_a rf + xddot^a d_{xdot^a} rf.

    rf may depend on jets of order <= 1; raises when acceleration
    symbols are present, since order-3 jets are unsupported.
    """
    if rf.free_symbols() & set(chart.jets2):
        raise JetOrderError("total derivative of a second-order expression needs order-3 jets")
    return derive(rf, total_coefficients(chart))


def prolong(field: BundleVectorField, order: int = 2) -> ProlongedField:
    """Prolongation coefficients via the total-derivative recursion."""
    if order not in (1, 2):
        raise JetOrderError("prolongation order must be 1 or 2")
    chart = field.chart
    dxi = total(field.xi, chart)
    first = tuple(
        total(comp, chart) - symbol(chart.jet1(c)) * dxi
        for c, comp in zip(chart.coords, field.eta)
    )
    second = ()
    if order == 2:
        second = tuple(
            total(e1, chart) - symbol(chart.jet2(c)) * dxi
            for c, e1 in zip(chart.coords, first)
        )
    return ProlongedField(field, first, second)
