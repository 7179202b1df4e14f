"""Tree differentiation by the chain rule: a reference for tests.

Independent of `liesym.symexpr.calculus.derive`, which differentiates
canonical RatFuncs atom by atom.  `diff` walks the expression tree, so
tests can check the library's one derivative, and the prolongation
built on it, against a second route.  `diff` returns raw trees; compare
them through `canonical_ratfunc`.  `total_derivative`, `prolong` and
`apply_prolonged` return canonical trees, `render_ratfunc` of the
canonical form.

`evaluate_rational` evaluates an expression at exact rational symbol
values, from its canonical form.
"""

from fractions import Fraction

from liesym.symexpr import Add, Fn, Mul, Num, Op, Pow, Sym, canonical_ratfunc, render_ratfunc

_ZERO = Num(0)
_ONE = Num(1)


def diff(e, v: str):
    """Partial derivative of the tree e in the symbol named v."""
    if isinstance(e, Num):
        return _ZERO
    if isinstance(e, Sym):
        return _ONE if e.name == v else _ZERO
    if isinstance(e, Add):
        return Add.of(*[diff(t, v) for t in e.terms])
    if isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            df = diff(f, v)
            if df == _ZERO:
                continue
            rest = list(e.factors)
            rest[i] = df
            terms.append(Mul.of(*rest))
        if not terms:
            return _ZERO
        return Add.of(*terms)
    if isinstance(e, Pow):
        db = diff(e.base, v)
        if db == _ZERO:
            return _ZERO
        return Mul.of(Num(e.exponent), Pow(e.base, e.exponent - 1), db)
    if isinstance(e, Fn):
        du = diff(e.arg, v)
        if du == _ZERO:
            return _ZERO
        return Mul.of(fn_derivative(e.name, e.arg), du)
    if isinstance(e, Op):
        # Chain rule over declared argument symbols; the argument list of
        # an opaque function is a list of plain symbols.
        if v not in e.args:
            return _ZERO
        i = e.args.index(v)
        orders = list(e.orders)
        orders[i] += 1
        return Op(e.name, e.args, orders)
    raise TypeError(f"unknown Expr node: {e!r}")


def fn_derivative(name: str, u):
    """f'(u) for an elementary function f."""
    if name == "sin":
        return Fn("cos", u)
    if name == "cos":
        return Mul.of(Num(-1), Fn("sin", u))
    if name == "tan":
        return Pow(Fn("cos", u), Fraction(-2))
    if name == "cot":
        return Mul.of(Num(-1), Pow(Fn("sin", u), Fraction(-2)))
    if name == "csc":
        return Mul.of(Num(-1), Fn("cos", u), Pow(Fn("sin", u), Fraction(-2)))
    if name == "sec":
        return Mul.of(Fn("sin", u), Pow(Fn("cos", u), Fraction(-2)))
    if name == "exp":
        return Fn("exp", u)
    if name == "ln":
        return Pow(u, Fraction(-1))
    if name == "arctan":
        return Pow(Add.of(_ONE, Pow(u, Fraction(2))), Fraction(-1))
    raise ValueError(f"no derivative rule for {name}")


def total_derivative(e, chart):
    """D e = d_s e + xdot^a d_a e + xddot^a d_{xdot^a} e, canonical."""
    terms = [diff(e, chart.param)]
    for c in chart.coords:
        terms.append(Mul.of(Sym(chart.jet1(c)), diff(e, c)))
        terms.append(Mul.of(Sym(chart.jet2(c)), diff(e, chart.jet1(c))))
    return render_ratfunc(canonical_ratfunc(Add.of(*terms)))


def prolong(xi, eta, chart):
    """(eta_(1), eta_(2)) of the field xi d_s + eta^a d_a, canonical."""
    dxi = total_derivative(xi, chart)
    eta1 = tuple(
        render_ratfunc(canonical_ratfunc(Add.of(total_derivative(comp, chart),
                                                Mul.of(Num(-1), Sym(chart.jet1(c)), dxi))))
        for c, comp in zip(chart.coords, eta)
    )
    eta2 = tuple(
        render_ratfunc(canonical_ratfunc(Add.of(total_derivative(e1, chart),
                                                Mul.of(Num(-1), Sym(chart.jet2(c)), dxi))))
        for c, e1 in zip(chart.coords, eta1)
    )
    return eta1, eta2


def apply_prolonged(xi, eta, eta1, eta2, e, chart):
    """The second prolongation of xi d_s + eta^a d_a acting on e, canonical."""
    terms = [Mul.of(xi, diff(e, chart.param))]
    for c, comp, c1, c2 in zip(chart.coords, eta, eta1, eta2):
        terms.append(Mul.of(comp, diff(e, c)))
        terms.append(Mul.of(c1, diff(e, chart.jet1(c))))
        terms.append(Mul.of(c2, diff(e, chart.jet2(c))))
    return render_ratfunc(canonical_ratfunc(Add.of(*terms)))


def _eval_poly(p, env: dict) -> Fraction:
    total = Fraction(0)
    for m, c in p.terms.items():
        v = c
        for a, e in m:
            v *= env[a] ** e
        total += v
    return total / p.den


def evaluate_rational(e, env: dict) -> Fraction:
    """Evaluate at exact rational symbol values; opaque functions and
    non-symbol kernels must have been substituted away."""
    rf = canonical_ratfunc(e)
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
