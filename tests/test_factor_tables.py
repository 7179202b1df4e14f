"""The solver's per-factor derivative tables against whole-function
derivation.

`symmetry._basis_derivatives` derives each factor of an ansatz function
apart and multiplies the factor derivatives; `reference_solver` derives
the whole function, each order from the next-lower one.  Both must give
the same canonical RatFunc for every function and every order up to 2,
the highest order a determining equation holds.  The tables are keyed
by object identity, so the suite runs under more than one hash seed.
"""

import itertools
from pathlib import Path

import pytest

from liesym.charts import CoordChart
from liesym.files import load_metric
from liesym.symexpr.poly import RAT_ONE
from liesym.symmetry import Ansatz, _basis_derivatives, default_ansatz

import reference_solver
from conftest import rf

DATA = Path(__file__).parent / "data"

CHARTS = {
    "flat_plane": lambda: load_metric(DATA / "flat_plane.metric").chart,
    "minkowski_4d": lambda: CoordChart("s", ("t", "x", "y", "z")),
    "polar_plane": lambda: CoordChart("s", ("r", "phi"), ("phi",)),
    "vaidya_bonner": lambda: load_metric("vaidya_bonner.metric").chart,
    "vaidya_bonner_M1_Qt": lambda: load_metric("vaidya_bonner_M1_Qt.metric").chart,
    "vaidya_bonner_Mt_Qt2": lambda: load_metric("vaidya_bonner_Mt_Qt2.metric").chart,
}


def _orders(nargs, top=2):
    return [o for o in itertools.product(range(top + 1), repeat=nargs) if sum(o) <= top]


def _assert_tables_match_chain(ansatz, chart):
    args = (chart.param, *chart.coords)
    tables = _basis_derivatives(ansatz, args)
    chain = reference_solver.basis_derivatives(ansatz.basis, args)
    for k in range(len(ansatz)):
        for orders in _orders(len(args)):
            got, want = tables(k, orders), chain(k, orders)
            assert got.key() == want.key(), (str(ansatz.basis[k]), orders, str(got), str(want))


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(CHARTS))
def test_default_ansatz_tables_match_chain(name, degree):
    chart = CHARTS[name]()
    _assert_tables_match_chain(default_ansatz(chart, degree), chart)


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_default_ansatz_factors_multiply_to_basis(name):
    ansatz = default_ansatz(CHARTS[name](), 2)
    for b, factors in zip(ansatz.basis, ansatz.factors):
        product = RAT_ONE
        for f in factors:
            product = product * f
        assert product.key() == b.key()


def test_hand_built_single_factor_ansatz():
    chart = CHARTS["vaidya_bonner"]()
    basis = tuple(rf(t) for t in (
        "r^2*sin(theta)", "cos(theta)/r", "s*cot(theta)*sin(phi)", "t*r/sin(theta)", "1"))
    ansatz = Ansatz(basis, degree=0)
    assert ansatz.factors == tuple((b,) for b in basis)
    _assert_tables_match_chain(ansatz, chart)


def test_factors_that_share_a_symbol_or_a_constant_atom_are_derived_whole():
    # sin(theta) and cos(theta) share theta; 2^(1/2) names no symbol, and
    # the product of its two factors is not reduced as it stands
    chart = CHARTS["vaidya_bonner"]()
    pairs = [
        (rf("sin(theta)*cos(theta)"), (rf("sin(theta)"), rf("cos(theta)"))),
        (rf("r*t"), (rf("2^(1/2)*r"), rf("t/2^(1/2)"))),
        (rf("s*r^2*sin(phi)"), (rf("s"), rf("r^2"), rf("sin(phi)"))),
    ]
    ansatz = Ansatz(tuple(b for b, _ in pairs), degree=0,
                    factors=tuple(f for _, f in pairs))
    _assert_tables_match_chain(ansatz, chart)
