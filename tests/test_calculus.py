"""The RatFunc calculus against the tree reference.

`symexpr.derive` differentiates canonical RatFuncs atom by atom;
`reference_calculus.diff` differentiates trees by the chain rule.  On
canonical input both give the same canonical RatFunc, and the
prolongation built on `derive` gives the same coefficients as the one
built on the reference.  Inputs are trees of canonical forms only, read
back from their printed text: on a raw tree with rational content
under a radical the tree route depends on the tree's shape.
"""

import random
from fractions import Fraction

import pytest

from liesym.jets import prolong, total
from liesym.symexpr import derive
from liesym.symexpr.poly import RAT_ONE

import reference_calculus as ref
from conftest import make_field
from reference_calculus import add, fn, fold, mul, num, op, power, sym, text, tree

SYMBOLS = ("x", "y", "r")
FUNCTIONS = ("sin", "cos", "tan", "cot", "sec", "csc", "exp", "ln", "arctan")
EXPONENTS = tuple(map(Fraction, ("1/2", "-1/2", "1/3", "2/3", "3/2", "-1", "2", "3")))


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


@pytest.mark.parametrize("index", range(4))
def test_prolongation_matches_reference(chart, vb_system, vb_lagrangian, index):
    X = _fields(chart)[index]
    xi, *eta = (tree(str(c)) for c in X.components)
    for comp in X.components:
        assert total(comp, chart) == ref.total_derivative(tree(str(comp)), chart)
    pf = prolong(X, 2)
    eta1, eta2 = ref.prolong(xi, eta, chart)
    assert tuple(pf.first) == eta1
    assert tuple(pf.second) == eta2
    for e in (*vb_system.equations, vb_lagrangian):
        assert pf.act(e) == ref.apply_prolonged(xi, eta, eta1, eta2, tree(str(e)), chart)
