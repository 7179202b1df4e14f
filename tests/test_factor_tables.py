"""The solver's derivative tables against whole-function derivation.

Each default ansatz function is a monomial times one kernel per angle;
`symmetry._basis_derivatives` takes the monomial's derivatives in closed
form, derives each kernel once per order and multiplies the parts, while
`reference_solver` derives the whole function, each order from the
next-lower one.  Both must give the same canonical RatFunc for every
function and every order up to 2, the highest order a determining
equation holds.  The suite runs under more than one hash seed.
"""

import itertools
from pathlib import Path

import pytest

from liesym.charts import CoordChart
from liesym.errors import AnsatzError
from liesym.files import load_metric
from liesym.jets import symbol
from liesym.symexpr.poly import RAT_ONE, RatFunc
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


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(CHARTS))
def test_default_ansatz_functions_are_canonical(name, degree):
    # the basis is built with `_product`, which trusts its factors to
    # share no atom; re-reducing each function must change nothing
    for b in default_ansatz(CHARTS[name](), degree).basis:
        assert RatFunc(b.num, b.den).key() == b.key(), str(b)


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_default_ansatz_factors_multiply_to_basis(name):
    # the recorded exponents and kernel indices, multiplied out by plain
    # RatFunc arithmetic, give each basis function
    ansatz = default_ansatz(CHARTS[name](), 2)
    assert len(ansatz.parts) == len(ansatz.basis)
    for b, (exps, kerns) in zip(ansatz.basis, ansatz.parts):
        product = RAT_ONE
        for v, e in zip(ansatz.poly_vars, exps):
            product = product * symbol(v) ** e
        for (_, kernels), i in zip(ansatz.angle_kernels, kerns):
            product = product * kernels[i]
        assert product.key() == b.key()


def test_hand_built_ansatz():
    # kernels and parts of one's own choosing on the radiating chart; s
    # and phi are neither poly vars nor angles, so every derivative in
    # them is 0
    chart = CHARTS["vaidya_bonner"]()
    ansatz = Ansatz(
        ("t", "r"),
        (("theta", (rf("sin(theta)"), rf("cot(theta)"), rf("1/sin(theta)"), rf("cos(theta)^2"))),),
        (((0, 2), (0,)), ((0, 0), (1,)), ((1, 1), (2,)), ((3, 2), (3,))),
        degree=0,
    )
    assert [b.key() for b in ansatz.basis] == [rf(t).key() for t in (
        "r^2*sin(theta)", "cot(theta)", "t*r/sin(theta)", "t^3*r^2*cos(theta)^2")]
    _assert_tables_match_chain(ansatz, chart)


def test_factors_that_share_a_symbol_or_a_constant_atom_are_rejected():
    # `_product` needs factors in disjoint atoms: a poly var that is
    # also an angle, a repeated angle, a kernel that names a second
    # symbol, and 2^(1/2), which names none, so two kernels could both
    # hold it
    for poly_vars, angle_kernels in [
        (("s", "theta"), (("theta", (rf("sin(theta)"),)),)),
        (("s",), (("theta", (rf("sin(theta)"),)), ("theta", (rf("cos(theta)"),)))),
        (("s",), (("theta", (rf("r*sin(theta)"),)),)),
        (("s",), (("theta", (rf("2^(1/2)*sin(theta)"),)),)),
    ]:
        with pytest.raises(AnsatzError, match="share no symbol"):
            Ansatz(poly_vars, angle_kernels, ())
