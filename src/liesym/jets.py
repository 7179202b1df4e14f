"""First-order jet bookkeeping: bundle vector fields, the total
derivative and the first prolongation.

A bundle vector field xi d_s + eta^a d_a lives on (s, x); its first
prolongation adds

    eta_(1)^a = D eta^a - xdot^a D xi

on each velocity, with D = d_s + xdot^a d_a the total derivative.  On
the solution manifold of xddot^a = G^a the total derivative is
D + G^a d_{xdot^a}, so no acceleration symbol is ever built.  Fields,
both total derivatives and the prolonged field are derivations
(`symexpr.derive`); their components, their arguments and their
results are canonical RatFuncs.
"""

from __future__ import annotations

from .charts import CoordChart
from .errors import ChartError
from .symexpr import derive
from .symexpr.nodes import sym_atom
from .symexpr.poly import RAT_ONE, RatFunc


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


def total_coefficients(chart: CoordChart, accelerations=()) -> dict:
    """The total derivative as a derivation: d_s + xdot^a d_a, plus
    G^a d_{xdot^a} on the solution manifold when the accelerations G^a
    are given."""
    out = {chart.param: RAT_ONE}
    for c in chart.coords:
        out[c] = symbol(chart.jet1(c))
    out.update(zip(chart.jets1, accelerations))
    return out


def prolong(field: BundleVectorField) -> dict:
    """The first prolongation as a derivation: the field's coefficients
    plus eta_(1)^a = D eta^a - xdot^a D xi on each xdot^a."""
    chart = field.chart
    total = total_coefficients(chart)
    dxi = derive(field.xi, total)
    out = field.coefficients()
    for c, comp in zip(chart.coords, field.eta):
        out[chart.jet1(c)] = derive(comp, total) - symbol(chart.jet1(c)) * dxi
    return out
