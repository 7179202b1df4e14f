"""Expression trees as tuples, and their derivative by the chain rule: a
reference for tests.

The program computes on canonical RatFuncs and has no expression tree.
Tests keep a small one here, as an oracle independent of the kernel:

    ("num", Fraction)            ("sym", name)
    ("op", name, args, orders)   ("fn", name, arg)
    ("add", term, term, ...)     ("mul", factor, factor, ...)
    ("pow", base, Fraction)

`text` prints a tree with every sum, product, power and number in
parentheses, so the program's parser reads exactly the tree's grouping;
`fold` is the canonical RatFunc of a tree, read through the program's
parser from that text.  `tree` reads text back into a tree, a quotient
by a product or a power as a product of inverse powers; `tree(str(rf))`
is a tree of a canonical form.  An opaque call written without D(...)
has all orders 0, and D(f, x, k) names only the arguments it
differentiates, so trees of opaque functions of several arguments do
not survive the text.

`diff` differentiates a tree in one symbol, independent of
`liesym.symexpr.calculus.derive`, which differentiates canonical
RatFuncs atom by atom; `total_derivative`, `prolong` and
`apply_prolonged` build the prolongation on it and return canonical
RatFuncs.  `evaluate_rational` evaluates a RatFunc at exact rational
symbol values.
"""

from fractions import Fraction

from liesym.symexpr import parse_expr
from liesym.symexpr.parser import ExprSyntaxError, _Tokenizer


def num(value):
    return ("num", Fraction(value))


def sym(name):
    return ("sym", name)


def op(name, args, orders=None):
    args = tuple(args)
    return ("op", name, args, tuple(orders) if orders is not None else (0,) * len(args))


def fn(name, arg):
    return ("fn", name, arg)


def power(base, exponent):
    return ("pow", base, Fraction(exponent))


def _nary(kind, items):
    flat = []
    for item in items:
        flat.extend(item[1:] if item[0] == kind else [item])
    return flat[0] if len(flat) == 1 else (kind, *flat)


def add(*terms):
    return _nary("add", terms)


def mul(*factors):
    return _nary("mul", factors)


ZERO, ONE = num(0), num(1)


def _fraction_text(q):
    return f"({q.numerator}/{q.denominator})" if q.denominator != 1 else f"({q.numerator})"


def _op_text(name, args, orders):
    if not any(orders):
        return f"{name}({', '.join(args)})"
    pairs = [f"{a}, {k}" for a, k in zip(args, orders) if k]
    return f"D({name}, {', '.join(pairs)})"


def text(e) -> str:
    """Fully parenthesized text of a tree."""
    kind = e[0]
    if kind == "num":
        return _fraction_text(e[1])
    if kind == "sym":
        return e[1]
    if kind == "op":
        return _op_text(*e[1:])
    if kind == "fn":
        return f"{e[1]}({text(e[2])})"
    if kind == "pow":
        return f"({text(e[1])})^{_fraction_text(e[2])}"
    joiner = " + " if kind == "add" else "*"
    return "(" + joiner.join(text(x) for x in e[1:]) + ")"


def fold(e, functions=None):
    """The canonical RatFunc of a tree, through the program's parser."""
    return parse_expr(text(e), functions)[0]


def tree(source: str):
    """Read the expression grammar into a tree; the inverse of `text` up
    to the grouping of sums and products."""
    toks = _Tokenizer(source)

    def expr():
        terms = [term()]
        while toks.peek()[0] in ("+", "-"):
            sign = toks.next()[0]
            t = term()
            terms.append(t if sign == "+" else mul(num(-1), t))
        return add(*terms)

    def term():
        factors = [factor()]
        while toks.peek()[0] in ("*", "/"):
            kind = toks.next()[0]
            f = factor()
            factors.append(f if kind == "*" else inverse(f))
        return mul(*factors)

    def inverse(f):
        # a quotient by a product or a power reads as the product of
        # inverse powers, the shape in which derive differentiates a
        # monomial denominator
        if f[0] == "mul":
            return mul(*map(inverse, f[1:]))
        if f[0] == "pow":
            return power(f[1], -f[2])
        return power(f, -1)

    def factor():
        b = base()
        if toks.peek()[0] != "^":
            return b
        toks.next()
        grouped = toks.peek()[0] == "("
        if grouped:
            toks.next()
        sign = 1
        if toks.peek()[0] == "-":
            toks.next()
            sign = -1
        q = Fraction(int(toks.expect("num")[1]))
        if grouped:
            if toks.peek()[0] == "/":
                toks.next()
                q /= int(toks.expect("num")[1])
            toks.expect(")")
        return power(b, sign * q)

    def base():
        kind, value, column = toks.next()
        if kind == "num":
            return num(int(value))
        if kind == "-":
            return mul(num(-1), factor())
        if kind == "(":
            e = expr()
            toks.expect(")")
            return e
        if kind != "ident":
            raise ExprSyntaxError(f"unexpected {value!r}", column)
        if toks.peek()[0] != "(":
            return sym(value)
        toks.next()
        args = [expr()]
        while toks.peek()[0] == ",":
            toks.next()
            args.append(expr())
        toks.expect(")")
        if value == "sqrt":
            return power(args[0], Fraction(1, 2))
        if value == "D":
            names, orders = [], []
            for a in args[1:]:
                if a[0] == "sym":
                    names.append(a[1])
                    orders.append(1)
                else:
                    orders[-1] = int(a[1])
            return op(args[0][1], names, orders)
        if value in ("sin", "cos", "tan", "cot", "csc", "sec", "exp", "ln", "arctan"):
            return fn(value, args[0])
        return op(value, [a[1] for a in args])

    e = expr()
    toks.expect("eof")
    return e


def diff(e, v: str):
    """Partial derivative of the tree e in the symbol named v."""
    kind = e[0]
    if kind == "num":
        return ZERO
    if kind == "sym":
        return ONE if e[1] == v else ZERO
    if kind == "add":
        return add(*[diff(t, v) for t in e[1:]])
    if kind == "mul":
        factors = e[1:]
        terms = []
        for i, f in enumerate(factors):
            df = diff(f, v)
            if df == ZERO:
                continue
            terms.append(mul(*factors[:i], df, *factors[i + 1:]))
        return add(*terms) if terms else ZERO
    if kind == "pow":
        _, b, q = e
        db = diff(b, v)
        if db == ZERO:
            return ZERO
        return mul(num(q), power(b, q - 1), db)
    if kind == "fn":
        _, name, u = e
        du = diff(u, v)
        if du == ZERO:
            return ZERO
        return mul(fn_derivative(name, u), du)
    # Chain rule over declared argument symbols; the argument list of
    # an opaque function is a list of plain symbols.
    _, name, args, orders = e
    if v not in args:
        return ZERO
    i = args.index(v)
    return op(name, args, orders[:i] + (orders[i] + 1,) + orders[i + 1:])


def fn_derivative(name: str, u):
    """f'(u) for an elementary function f."""
    if name == "sin":
        return fn("cos", u)
    if name == "cos":
        return mul(num(-1), fn("sin", u))
    if name == "tan":
        return power(fn("cos", u), -2)
    if name == "cot":
        return mul(num(-1), power(fn("sin", u), -2))
    if name == "csc":
        return mul(num(-1), fn("cos", u), power(fn("sin", u), -2))
    if name == "sec":
        return mul(fn("sin", u), power(fn("cos", u), -2))
    if name == "exp":
        return fn("exp", u)
    if name == "ln":
        return power(u, -1)
    if name == "arctan":
        return power(add(ONE, power(u, 2)), -1)
    raise ValueError(f"no derivative rule for {name}")


def _canonical_tree(rf):
    return tree(str(rf))


def total_derivative(e, chart):
    """D e = d_s e + xdot^a d_a e + xddot^a d_{xdot^a} e, canonical."""
    terms = [diff(e, chart.param)]
    for c in chart.coords:
        terms.append(mul(sym(chart.jet1(c)), diff(e, c)))
        terms.append(mul(sym(chart.jet2(c)), diff(e, chart.jet1(c))))
    return fold(add(*terms))


def prolong(xi, eta, chart):
    """(eta_(1), eta_(2)) of the field xi d_s + eta^a d_a, canonical."""
    dxi = _canonical_tree(total_derivative(xi, chart))

    def step(comps, jet):
        return tuple(
            fold(add(_canonical_tree(total_derivative(comp, chart)),
                     mul(num(-1), sym(jet(c)), dxi)))
            for c, comp in zip(chart.coords, comps))

    eta1 = step(eta, chart.jet1)
    eta2 = step(map(_canonical_tree, eta1), chart.jet2)
    return eta1, eta2


def apply_prolonged(xi, eta, eta1, eta2, e, chart):
    """The second prolongation of xi d_s + eta^a d_a acting on e, canonical."""
    terms = [mul(xi, diff(e, chart.param))]
    for c, comp, c1, c2 in zip(chart.coords, eta, eta1, eta2):
        terms.append(mul(comp, diff(e, c)))
        terms.append(mul(_canonical_tree(c1), diff(e, chart.jet1(c))))
        terms.append(mul(_canonical_tree(c2), diff(e, chart.jet2(c))))
    return fold(add(*terms))


def _eval_poly(p, env: dict) -> Fraction:
    total = Fraction(0)
    for m, c in p.terms.items():
        v = c
        for a, e in m:
            v *= env[a] ** e
        total += v
    return total / p.den


def evaluate_rational(rf, env: dict) -> Fraction:
    """Evaluate a RatFunc at exact rational symbol values; opaque
    functions and non-symbol kernels must have been substituted away."""
    values = {}
    for a in rf.atoms():
        if a.kind == "sym":
            if a.payload not in env:
                raise KeyError(f"no value for symbol {a.payload}")
            values[a] = Fraction(env[a.payload])
        else:
            raise ValueError(f"cannot evaluate non-symbol kernel {a!r} rationally")
    den = _eval_poly(rf.den, values)
    if den == 0:
        raise ZeroDivisionError("denominator vanishes at the sample point")
    return _eval_poly(rf.num, values) / den


def plain_text(e) -> str:
    """Text of a tree with parentheses only where the grammar needs them."""
    kind = e[0]
    if kind == "num":
        q = e[1]
        return str(q) if q.denominator == 1 and q >= 0 else f"({q})"
    if kind == "sym":
        return e[1]
    if kind == "op":
        return _op_text(*e[1:])
    if kind == "fn":
        return f"{e[1]}({plain_text(e[2])})"
    if kind == "pow":
        _, b, q = e
        base = f"({plain_text(b)})" if b[0] in ("add", "mul", "pow") else plain_text(b)
        return f"{base}^{q}" if q.denominator == 1 else f"{base}^({q})"
    if kind == "mul":
        return "*".join(f"({plain_text(f)})" if f[0] == "add" else plain_text(f)
                        for f in e[1:])
    return " + ".join(plain_text(t) for t in e[1:])
