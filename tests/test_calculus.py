"""The RatFunc calculus against the tree reference.

`symexpr.derive` differentiates canonical RatFuncs atom by atom;
`reference_calculus.diff` differentiates trees by the chain rule.  On
canonical input both give the same canonical RatFunc.  The first
prolongation built on `derive` gives the same coefficients as the one
built on the reference, and the Lie point residuals, taken on the
solution manifold with no acceleration symbol, equal the reference's
second prolongation of xddot^i - G^i with xddot then set to G.
Inputs are trees of canonical forms only, read back from their printed
text: on a raw tree with rational content under a radical the tree
route depends on the tree's shape.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from liesym.files import load_metric
from liesym.geometry import geodesic_system
from liesym.jets import prolong, symbol, total_coefficients
from liesym.symexpr import derive, substitute_atoms
from liesym.symexpr.nodes import sym_atom
from liesym.symexpr.poly import RAT_ONE
from liesym.symmetry import liepoint_residuals

import reference_calculus as ref
from conftest import make_field
from reference_calculus import add, fn, fold, mul, num, op, power, sym, text, tree

SYMBOLS = ("x", "y", "r")
FUNCTIONS = ("sin", "cos", "tan", "cot", "sec", "csc", "exp", "ln", "arctan")
EXPONENTS = tuple(map(Fraction, ("1/2", "-1/2", "1/3", "2/3", "3/2", "-1", "2", "3")))
DATA = Path(__file__).resolve().parent / "data"


def random_tree(rng, depth):
    """Sums, products, rational powers and elementary functions over
    symbols, small rationals and jets of M(x)."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(3)
        if kind == 0:
            return num(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if kind == 1:
            return sym(rng.choice(SYMBOLS))
        return op("M", ("x",), (rng.randint(0, 1),))
    kind = rng.randrange(4)
    if kind == 0:
        return add(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if kind == 1:
        return mul(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if kind == 2:
        return power(random_tree(rng, depth - 1), rng.choice(EXPONENTS))
    return fn(rng.choice(FUNCTIONS), random_tree(rng, depth - 1))


def canonical_trees(seed, count):
    """`count` trees of canonical forms with the raw trees they came
    from; trees the kernel rejects (ln of 0, an even root of a negative
    rational) are drawn again."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        raw = random_tree(rng, 2)
        try:
            out.append((raw, tree(str(fold(raw)))))
        except (ValueError, ZeroDivisionError):
            continue
    return out


def _kernels(e, seen):
    kind = e[0]
    if kind == "fn":
        seen.add(e[1])
        _kernels(e[2], seen)
    elif kind == "pow":
        if e[2].denominator > 1:
            seen.add("fractional power")
        _kernels(e[1], seen)
    elif kind in ("add", "mul"):
        for child in e[1:]:
            _kernels(child, seen)
    return seen


def test_derive_matches_reference_on_300_canonical_trees():
    trees = canonical_trees(2024, 300)
    seen = set()
    for raw, canon in trees:
        _kernels(raw, seen)
        rf = fold(canon)
        for v in SYMBOLS:
            expected = fold(ref.diff(canon, v))
            assert derive(rf, {v: RAT_ONE}) == expected, (text(canon), v)
    assert seen >= set(FUNCTIONS) | {"fractional power"}


def _fields(chart):
    return [
        make_field(chart, "rotation", "0", ["0", "0", "-cos(phi)", "sin(phi)*cot(theta)"]),
        make_field(chart, "rotation", "0", ["0", "0", "sin(phi)", "cos(phi)*cot(theta)"]),
        make_field(chart, "homothety", "0", ["t", "r", "0", "0"]),
        make_field(chart, "homothety", "2*s", ["t", "r", "0", "0"]),
    ]


def reference_residuals(X, system) -> tuple:
    """The reference's second prolongation applied to each
    xddot^i - G^i, then restricted by xddot^a -> G^a."""
    chart = X.chart
    xi, *eta = (tree(str(c)) for c in X.components)
    eta1, eta2 = ref.prolong(xi, eta, chart)
    on_shell = {sym_atom(chart.jet2(c)): g
                for c, g in zip(chart.coords, system.accelerations)}
    return tuple(
        substitute_atoms(
            ref.apply_prolonged(xi, eta, eta1, eta2,
                                tree(str(symbol(chart.jet2(c)) - g)), chart),
            on_shell.get)
        for c, g in zip(chart.coords, system.accelerations))


@pytest.mark.parametrize("index", range(4))
def test_prolongation_matches_reference(chart, vb_system, vb_lagrangian, index):
    X = _fields(chart)[index]
    xi, *eta = (tree(str(c)) for c in X.components)
    for comp in X.components:
        assert (derive(comp, total_coefficients(chart))
                == ref.total_derivative(tree(str(comp)), chart))
    x1 = prolong(X)
    eta1, eta2 = ref.prolong(xi, eta, chart)
    assert tuple(x1[v] for v in chart.jets1) == eta1
    assert derive(vb_lagrangian, x1) == ref.apply_prolonged(
        xi, eta, eta1, eta2, tree(str(vb_lagrangian)), chart)
    assert liepoint_residuals(X, vb_system) == reference_residuals(X, vb_system)



SPHERE = "param s\ncoords theta phi\nangles theta phi\ng 0 0 = 1\ng 1 1 = sin(theta)^2\n"


def random_field(chart, rng):
    """A field whose components are short sums of rational multiples of
    monomials in (s, x), at most one sin or cos of a coordinate, and a
    monomial denominator in the coordinates."""
    variables = (chart.param, *chart.coords)

    def term():
        factors = [f"{rng.randint(-3, 3)}/{rng.randint(1, 2)}"]
        factors += [rng.choice(variables) for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.5:
            factors.append(f"{rng.choice(('sin', 'cos'))}({rng.choice(chart.coords)})")
        text = "*".join(factors)
        if rng.random() < 0.4:
            text += f"/{rng.choice(chart.coords)}^{rng.randint(1, 2)}"
        return text

    xi, *eta = (" + ".join(term() for _ in range(rng.randint(1, 2)))
                for _ in range(chart.dim + 1))
    return make_field(chart, "X", xi, eta)


def test_on_shell_residuals_match_second_prolongation_on_random_fields(tmp_path):
    sphere = tmp_path / "sphere.metric"
    sphere.write_text(SPHERE)
    # fewer fields on the 4D charts, where the tree route is slowest
    counts = {"vaidya_bonner.metric": 8, "vaidya_bonner_M1_Qt.metric": 8,
              "vaidya_bonner_Mt_Qt2.metric": 8, DATA / "flat_plane.metric": 38,
              sphere: 38}
    rng = random.Random(24)
    for path, count in counts.items():
        system = geodesic_system(load_metric(path))
        for _ in range(count):
            X = random_field(system.chart, rng)
            assert liepoint_residuals(X, system) == reference_residuals(X, system), (
                path, [str(c) for c in X.components])
    assert sum(counts.values()) >= 100
