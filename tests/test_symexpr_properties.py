"""Randomized property suite for the expression kernel.

Seeded generators rather than live randomness so failures replay.
"""

import random
from fractions import Fraction

from liesym.symexpr import (
    Add,
    Fn,
    Mul,
    Num,
    Op,
    Pow,
    Sym,
    is_zero,
    differentiate,
    parse_expr,
    to_canonical,
    to_text,
)

SYMBOLS = ["x", "y", "r", "t"]
ANGLES = ["theta", "phi"]


def random_expr(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            return Num(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        if kind == 1:
            return Sym(rng.choice(SYMBOLS))
        if kind == 2:
            return Fn(rng.choice(["sin", "cos"]), Sym(rng.choice(ANGLES)))
        return Op(rng.choice(["M", "Q"]), ("t",), (rng.randint(0, 2),))
    kind = rng.randrange(3)
    if kind == 0:
        return Add.of(*[random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))])
    if kind == 1:
        return Mul.of(*[random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))])
    return Pow(random_expr(rng, depth - 1), Fraction(rng.randint(1, 3)))


def test_canonical_idempotent_on_1000_trees():
    rng = random.Random(101)
    for _ in range(1000):
        e = random_expr(rng)
        once = to_canonical(e)
        assert to_canonical(once) == once


def test_differentiate_is_linear():
    rng = random.Random(202)
    for _ in range(60):
        e1 = random_expr(rng, 2)
        e2 = random_expr(rng, 2)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        v = rng.choice(SYMBOLS + ANGLES)
        lhs = differentiate(Num(a) * e1 + Num(b) * e2, v)
        rhs = Num(a) * differentiate(e1, v) + Num(b) * differentiate(e2, v)
        assert is_zero(lhs - rhs)


def test_product_rule():
    rng = random.Random(303)
    for _ in range(60):
        e1 = random_expr(rng, 2)
        e2 = random_expr(rng, 2)
        v = rng.choice(SYMBOLS + ANGLES)
        lhs = differentiate(Mul.of(e1, e2), v)
        rhs = differentiate(e1, v) * e2 + e1 * differentiate(e2, v)
        assert is_zero(lhs - rhs)


def test_parse_print_round_trip():
    rng = random.Random(404)
    for _ in range(400):
        e = random_expr(rng)
        text = to_text(e)
        assert to_canonical(parse_expr(text)) == to_canonical(e)


def test_round_trip_of_canonical_forms():
    rng = random.Random(505)
    for _ in range(400):
        c = to_canonical(random_expr(rng))
        assert to_canonical(parse_expr(to_text(c))) == c


def _tree_value(e, point):
    """Exact value of the input tree itself (never its canonical form).

    `point` gives independent rationals to each symbol and each opaque
    function jet; an angle's sin and cos come from its tangent
    half-angle u as 2u/(1+u^2) and (1-u^2)/(1+u^2)."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Sym):
        return point[e.name]
    if isinstance(e, Op):
        return point[(e.name, e.args, e.orders)]
    if isinstance(e, Fn):
        u = point[("half-angle", e.arg.name)]
        return 2 * u / (1 + u * u) if e.name == "sin" else (1 - u * u) / (1 + u * u)
    if isinstance(e, Add):
        return sum((_tree_value(t, point) for t in e.terms), Fraction(0))
    if isinstance(e, Mul):
        out = Fraction(1)
        for f in e.factors:
            out *= _tree_value(f, point)
        return out
    if isinstance(e, Pow):
        return _tree_value(e.base, point) ** int(e.exponent)
    raise TypeError(f"cannot evaluate {e!r}")


class _RationalPoint(dict):
    """Independent seeded rationals, drawn on first use of each key."""

    def __init__(self, rng):
        super().__init__()
        self.rng = rng

    def __missing__(self, key):
        value = Fraction(self.rng.randint(-29, 29), self.rng.randint(1, 11))
        self[key] = value
        return value


def _vanishes_at_points(e, rng, points=4):
    return all(_tree_value(e, _RationalPoint(rng)) == 0 for _ in range(points))


def test_zero_test_agrees_with_tree_evaluation():
    """is_zero against exact evaluation of the input tree at rational
    points: identities built as trees must test zero, and trees that do
    not vanish at a point must not."""
    rng = random.Random(606)
    zeros = nonzeros = 0
    for i in range(300):
        e1, e2, e3 = (random_expr(rng, 2) for _ in range(3))
        if i % 3 == 0:
            e = e1
        else:
            a = Sym(rng.choice(ANGLES))
            e = Add.of(
                Mul.of(e1, Add.of(e2, e3)),
                Mul.of(Num(-1), e1, e2),
                Mul.of(Num(-1), e1, e3),
                Mul.of(e2, Add.of(Pow(Fn("sin", a), Fraction(2)),
                                  Pow(Fn("cos", a), Fraction(2)), Num(-1))),
            )
            if i % 3 == 2:
                e = Add.of(e, Mul.of(e3, Sym(rng.choice(SYMBOLS))))
        truth = _vanishes_at_points(e, rng)
        assert is_zero(e) == truth, to_text(e)
        zeros += truth
        nonzeros += not truth
    assert zeros >= 100 and nonzeros >= 100
