"""Second-order jet bookkeeping: total derivative and prolongations.

A bundle vector field xi d_s + eta^a d_a lives on (s, x); prolonging it
to velocities and accelerations uses the recursion

    eta_(1) = D eta - xdot D xi,     eta_(2) = D eta_(1) - xddot D xi,

with D the total derivative d_s + xdot d_x + xddot d_xdot.  Fields,
D and the prolonged field are derivations (`symexpr.derive`) acting on
canonical RatFuncs; fields keep their components as RatFuncs, and
trees are rendered only for the tree-valued public functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .charts import CoordChart
from .errors import ChartError, JetOrderError
from .symexpr import Expr, canonical_ratfunc, derive, render_ratfunc
from .symexpr.nodes import as_expr
from .symexpr.poly import RAT_ONE, RatFunc, sym_atom


def symbol(name: str) -> RatFunc:
    """The canonical RatFunc of a plain symbol."""
    return RatFunc.atom(sym_atom(name))


@dataclass(frozen=True)
class BundleVectorField:
    """Candidate symmetry generator: xi on the parameter, eta per coordinate.

    `ratfuncs` holds the canonical RatFuncs of (xi, eta^1, ...); xi and
    eta are their rendered trees."""

    chart: CoordChart
    xi: Expr
    eta: tuple
    name: str = ""
    ratfuncs: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        rfs = self.ratfuncs or tuple(
            canonical_ratfunc(as_expr(c)) for c in (self.xi, *self.eta))
        if len(rfs) != self.chart.dim + 1:
            raise ChartError(
                f"field has {len(rfs) - 1} eta components for {self.chart.dim} coordinates"
            )
        jets = set(self.chart.jets1) | set(self.chart.jets2)
        for rf in rfs:
            if rf.free_symbols() & jets:
                raise ChartError("vector field components must not contain jet symbols")
        object.__setattr__(self, "ratfuncs", tuple(rfs))
        object.__setattr__(self, "xi", render_ratfunc(rfs[0]))
        object.__setattr__(self, "eta", tuple(render_ratfunc(rf) for rf in rfs[1:]))

    @classmethod
    def from_ratfuncs(cls, chart: CoordChart, ratfuncs, name: str = "") -> "BundleVectorField":
        """The field whose (xi, eta^1, ...) are the given canonical RatFuncs."""
        return cls(chart, None, (), name, tuple(ratfuncs))

    def components(self) -> tuple:
        return (self.xi, *self.eta)

    def is_zero_field(self) -> bool:
        return all(rf.is_zero() for rf in self.ratfuncs)

    def scale(self, c) -> "BundleVectorField":
        c = RatFunc.const(Fraction(c))
        return BundleVectorField.from_ratfuncs(
            self.chart, [c * rf for rf in self.ratfuncs], name=self.name)

    def add(self, other: "BundleVectorField") -> "BundleVectorField":
        if other.chart != self.chart:
            raise ChartError("cannot add fields on different charts")
        return BundleVectorField.from_ratfuncs(
            self.chart, [a + b for a, b in zip(self.ratfuncs, other.ratfuncs)])

    def coefficients(self) -> dict:
        """The field as a derivation: symbol name -> RatFunc coefficient."""
        return dict(zip((self.chart.param, *self.chart.coords), self.ratfuncs))

    def act(self, rf: RatFunc) -> RatFunc:
        """xi d_s(rf) + eta^a d_a(rf) on a canonical RatFunc."""
        return derive(rf, self.coefficients())

    def apply_to(self, e: Expr) -> Expr:
        """Directional derivative xi d_s(e) + eta^a d_a(e) (no jet terms)."""
        return render_ratfunc(self.act(canonical_ratfunc(e)))


@dataclass(frozen=True)
class ProlongedField:
    """Base field plus first and second prolongation coefficients, as
    canonical RatFuncs; `second` is empty when prolonged to order 1 only."""

    base: BundleVectorField
    first: tuple
    second: tuple

    @property
    def eta1(self) -> tuple:
        return tuple(render_ratfunc(rf) for rf in self.first)

    @property
    def eta2(self) -> tuple:
        return tuple(render_ratfunc(rf) for rf in self.second)

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
    """D rf on a canonical RatFunc of jets of order <= 1."""
    if rf.free_symbols() & set(chart.jets2):
        raise JetOrderError("total derivative of a second-order expression needs order-3 jets")
    return derive(rf, total_coefficients(chart))


def total_derivative(e: Expr, chart: CoordChart) -> Expr:
    """D e = d_s e + xdot^a d_a e + xddot^a d_{xdot^a} e.

    Input may depend on jets of order <= 1; raises when acceleration
    symbols are present, since order-3 jets are unsupported.
    """
    return render_ratfunc(total(canonical_ratfunc(e), chart))


def prolong(field: BundleVectorField, order: int = 2) -> ProlongedField:
    """Prolongation coefficients via the total-derivative recursion."""
    if order not in (1, 2):
        raise JetOrderError("prolongation order must be 1 or 2")
    chart = field.chart
    dxi = total(field.ratfuncs[0], chart)
    first = tuple(
        total(comp, chart) - symbol(chart.jet1(c)) * dxi
        for c, comp in zip(chart.coords, field.ratfuncs[1:])
    )
    second = ()
    if order == 2:
        second = tuple(
            total(e1, chart) - symbol(chart.jet2(c)) * dxi
            for c, e1 in zip(chart.coords, first)
        )
    return ProlongedField(field, first, second)


def apply_prolonged(pf: ProlongedField, e: Expr) -> Expr:
    """Act with the prolonged field on an expression in (s, x, xdot, xddot)."""
    return render_ratfunc(pf.act(canonical_ratfunc(e)))
