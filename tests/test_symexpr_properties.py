"""Randomized property suite for the expression kernel.

Seeded generators rather than live randomness so failures replay.
"""

import math
import random
from fractions import Fraction

import reference_poly as ref
from liesym.symexpr import (
    Add,
    Fn,
    Mul,
    Num,
    Op,
    Pow,
    Sym,
    derive,
    parse_expr,
    render_ratfunc,
    to_text,
)
from liesym.symexpr.canonical import canonical_ratfunc
from liesym.symexpr.poly import (
    RAT_ONE,
    Atom,
    Poly,
    RatFunc,
    _reduce_fraction,
    poly_divexact,
    poly_gcd,
    sym_atom,
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
        once = canonical_ratfunc(e)
        assert canonical_ratfunc(render_ratfunc(once)) == once


def test_differentiate_is_linear():
    rng = random.Random(202)
    for _ in range(60):
        e1 = random_expr(rng, 2)
        e2 = random_expr(rng, 2)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        v = {rng.choice(SYMBOLS + ANGLES): RAT_ONE}
        lhs = derive(canonical_ratfunc(Add.of(Mul.of(Num(a), e1), Mul.of(Num(b), e2))), v)
        rhs = (RatFunc.const(a) * derive(canonical_ratfunc(e1), v)
               + RatFunc.const(b) * derive(canonical_ratfunc(e2), v))
        assert (lhs - rhs).is_zero()


def test_product_rule():
    rng = random.Random(303)
    for _ in range(60):
        e1 = random_expr(rng, 2)
        e2 = random_expr(rng, 2)
        v = {rng.choice(SYMBOLS + ANGLES): RAT_ONE}
        c1, c2 = canonical_ratfunc(e1), canonical_ratfunc(e2)
        lhs = derive(canonical_ratfunc(Mul.of(e1, e2)), v)
        rhs = derive(c1, v) * c2 + c1 * derive(c2, v)
        assert (lhs - rhs).is_zero()


def test_parse_print_round_trip():
    rng = random.Random(404)
    for _ in range(400):
        e = random_expr(rng)
        text = to_text(e)
        assert canonical_ratfunc(parse_expr(text)) == canonical_ratfunc(e)


def test_round_trip_of_canonical_forms():
    rng = random.Random(505)
    for _ in range(400):
        c = canonical_ratfunc(random_expr(rng))
        assert canonical_ratfunc(parse_expr(str(c))) == c


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
        q = e.exponent
        return _exact_root(_tree_value(e.base, point), q.denominator) ** q.numerator
    raise TypeError(f"cannot evaluate {e!r}")


def _exact_root(v: Fraction, n: int) -> Fraction:
    """The positive rational n-th root of v; the point must make it exact."""
    if n == 1:
        return v
    roots = [round(float(part) ** (1 / n)) for part in (v.numerator, v.denominator)]
    assert v > 0 and all(r ** n == part for r, part in zip(roots, (v.numerator, v.denominator)))
    return Fraction(*roots)


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
    """The zero test against exact evaluation of the input tree at rational
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
        assert canonical_ratfunc(e).is_zero() == truth, to_text(e)
        zeros += truth
        nonzeros += not truth
    assert zeros >= 100 and nonzeros >= 100


def test_products_of_radicals_of_one_base():
    """Products of fractional powers of r against one power of r, checked
    by the tree oracle at points where r is a sixth power: r^p * r^q
    must fold to r^(p+q), whole parts into r."""
    rng = random.Random(707)
    exponents = [Fraction(p, q) for q in (2, 3, 6) for p in range(-q - 1, 2 * q + 2)]
    zeros = nonzeros = 0
    for i in range(200):
        parts = [rng.choice(exponents) for _ in range(rng.randint(2, 4))]
        total = sum(parts) + (rng.choice(exponents) if i % 3 == 0 else 0)
        factor = random_expr(rng, 1)
        e = Add.of(Mul.of(factor, *(Pow(Sym("r"), f) for f in parts)),
                   Mul.of(Num(-1), factor, Pow(Sym("r"), total)))
        truth = True
        for _ in range(3):
            point = _RationalPoint(rng)
            point["r"] = Fraction(rng.randint(2, 7), rng.randint(1, 5)) ** 6
            truth = truth and _tree_value(e, point) == 0
        assert canonical_ratfunc(e).is_zero() == truth, to_text(e)
        zeros += truth
        nonzeros += not truth
    assert zeros >= 100 and nonzeros >= 30


# The integer-coefficient Poly against the Fraction-coefficient reference.

def _atom_of(text):
    (mono, _), = canonical_ratfunc(parse_expr(text, {"M": ("t",)})).num.terms.items()
    (atom, _), = mono
    return atom


PLAIN_ATOMS = [_atom_of(t) for t in ("x", "y", "r", "sin(theta)", "cos(theta)", "M(t)")]
POWER_ATOMS = [_atom_of(t) for t in ("r^(1/3)", "r^(2/3)", "r^(1/2)", "(x + 1)^(1/2)", "sqrt(2)")]


def _random_terms(rng, n):
    """n random canonical terms: cos to exponent <= 1, at most one power
    atom, rational coefficients."""
    terms = {}
    for _ in range(n):
        mono = {a: 1 if a.fold else rng.randint(1, 3)
                for a in rng.sample(PLAIN_ATOMS, rng.randint(0, 3))}
        if rng.random() < 0.5:
            mono[rng.choice(POWER_ATOMS)] = 1
        mono = tuple(sorted(mono.items(), key=lambda t: t[0].key()))
        terms[mono] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 8))
    return terms


def _from_rationals(terms) -> Poly:
    """The integer layout built directly: lcm of the denominators."""
    if not terms:
        return Poly()
    den = math.lcm(*(c.denominator for c in terms.values()))
    return Poly({m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den)


def _random_pair(rng, lo=1, hi=4):
    terms = _random_terms(rng, rng.randint(lo, hi))
    return _from_rationals(terms), ref.RefPoly(terms)


def _assert_same(p: Poly, r: ref.RefPoly):
    """Equal values, equal keys and the one normalized layout."""
    assert all(type(c) is int and c for c in p.terms.values())
    assert p.den > 0 and math.gcd(p.den, *p.terms.values()) == 1
    assert dict(p.rational_terms()) == r.terms
    assert p.key() == r.key()
    assert p == _from_rationals(r.terms)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_poly_ring_operations_match_fraction_reference():
    rng = random.Random(808)
    for _ in range(300):
        p, rp = _random_pair(rng)
        q, rq = _random_pair(rng)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        n = rng.randint(0, 3)
        _assert_same(p + q, rp + rq)
        _assert_same(p - q, rp - rq)
        _assert_same(p - p, rp - rp)
        _assert_same(p * q, rp * rq)
        _assert_same(p ** n, rp ** n)
        _assert_same(p * Poly.const(c), rp.scale(c))
        assert p.content() == rp.content()
        cont, prim = p.primitive()
        rcont, rprim = rp.primitive()
        assert cont == rcont
        _assert_same(prim, rprim)


def test_poly_division_gcd_and_fractions_match_fraction_reference():
    rng = random.Random(909)
    exact = gcds = 0
    for _ in range(150):
        g, rg = _random_pair(rng, 1, 2)
        a, ra = _random_pair(rng, 1, 2)
        b, rb = _random_pair(rng, 1, 3)
        p, rp = a * g, ra * rg
        q, rq = b * g, rb * rg
        quot, rquot = _outcome(poly_divexact, p, g), _outcome(ref.divexact, rp, rg)
        if isinstance(quot, str):
            assert quot == rquot
        else:
            _assert_same(quot, rquot)
            exact += 1
        got, want = _outcome(poly_gcd, p, q), _outcome(ref.gcd, rp, rq)
        if isinstance(got, str):
            assert got == want
        else:
            _assert_same(got, want)
            gcds += 1
        got, want = _outcome(_reduce_fraction, p, q), _outcome(ref.reduce_fraction, rp, rq)
        if isinstance(got, str):
            assert got == want
        else:
            _assert_same(got[0], want[0])
            _assert_same(got[1], want[1])
    assert exact >= 100 and gcds >= 100


def test_single_term_division_gcd_and_fractions_match_fraction_reference():
    """The term-wise paths: a single-term divisor or gcd argument, cos
    and power atoms included, against the long division and the gcd of
    the reference; an inexact division raises as the reference does."""
    rng = random.Random(1010)
    exact = inexact = 0
    for _ in range(300):
        m, rm = _random_pair(rng, 1, 1)
        a, ra = _random_pair(rng, 1, 4)
        p, rp = (a * m, ra * rm) if rng.random() < 0.6 else (a, ra)
        quot, rquot = _outcome(poly_divexact, p, m), _outcome(ref.divexact, rp, rm)
        if isinstance(quot, str):
            assert quot == rquot == "inexact polynomial division"
            inexact += 1
        else:
            _assert_same(quot, rquot)
            exact += 1
        pairs = [(p, m, rp, rm)] + ([(m, p, rm, rp)] if p.terms else [])
        for x, y, rx, ry in pairs:
            _assert_same(poly_gcd(x, y), ref.gcd(rx, ry))
            got, want = _reduce_fraction(x, y), ref.reduce_fraction(rx, ry)
            _assert_same(got[0], want[0])
            _assert_same(got[1], want[1])
    assert exact >= 100 and inexact >= 50


def test_atoms_are_interned_and_compare_by_identity():
    assert sym_atom("x") is sym_atom("x")
    assert sym_atom("x") is not sym_atom("y")
    arg1 = canonical_ratfunc(parse_expr("x + 1"))
    arg2 = canonical_ratfunc(parse_expr("(2*x + 2)/2"))
    assert arg1 is not arg2 and arg1 == arg2
    assert Atom("fn", ("sin", arg1)) is Atom("fn", ("sin", arg2))
    assert _atom_of("sin(x*y)") is _atom_of("sin(y*x)")
    assert _atom_of("r^(1/2)") is _atom_of("(r^(1/4))^2")
    assert Atom("fn", ("sin", arg1)) is not Atom("fn", ("cos", arg1))
    assert type(sym_atom("x")).__hash__ is object.__hash__
    assert "__eq__" not in vars(Atom) and "__hash__" not in vars(Atom)


def test_power_of_reduced_fraction_matches_reducing_construction():
    """A power skips the gcd only when no cos or fractional-power atom
    occurs; with one, the power must still be reduced."""
    rng = random.Random(1111)

    def poly(plain):
        terms = _random_terms(rng, rng.randint(1, 2))
        if plain:
            terms = {tuple((a, e) for a, e in m if not a.fold): c for m, c in terms.items()}
        return _from_rationals(terms)

    folds = 0
    for i in range(300):
        f = RatFunc(poly(i % 2), poly(i % 2))
        n = rng.randint(1, 3)
        assert f ** n == RatFunc(f.num ** n, f.den ** n)
        folds += any(a.fold for a in f.atoms())
    assert 100 <= folds <= 150
    f = canonical_ratfunc(parse_expr("cos(x)/(1 - sin(x))"))
    assert f ** 2 == canonical_ratfunc(parse_expr("(1 + sin(x))/(1 - sin(x))"))
