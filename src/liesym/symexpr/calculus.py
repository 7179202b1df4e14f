"""Differentiation, substitution and monomial collection on RatFuncs.

The calculus runs on canonical RatFuncs: `derive` applies a derivation
sum_v c_v d/dv by the chain rule per kernel atom, `substitute_atoms`
replaces symbol and opaque-function atoms, `substitute_function`
instantiates an opaque function with all its derivatives, and
`collect_ratfunc` splits a RatFunc over monomials in chosen symbols.
A zero test is `RatFunc.is_zero()`.
"""

from __future__ import annotations

from fractions import Fraction

from .canonical import _cos_of, _sin_of, fn_ratfunc, pow_ratfunc
from .nodes import op_atom
from .poly import POLY_ONE, RAT_ONE, Poly, RatFunc, rat_sum


class NonPolynomialError(ValueError):
    """Raised by collect_ratfunc when a variable occurs non-polynomially."""


def derive(rf: RatFunc, coefficients: dict, memo: dict | None = None) -> RatFunc:
    """Apply the derivation sum_v c_v d/dv to a canonical RatFunc.

    `coefficients` maps symbol names v to RatFuncs c_v; {v: RAT_ONE} is
    the partial derivative in v, and a vector field's components give
    its action.  The chain rule runs per kernel atom, each atom's
    derivative built by the kernel's own constructors, and a monomial
    denominator is differentiated factor by factor, as the product rule
    runs over the printed quotient N/(a1^e1*...*ak^ek).  So the result
    is the canonical form of the derivative of the expression that
    str(rf) reads.

    `memo` holds each atom's derivative; an atom's derivative depends
    only on the atom and `coefficients`, so calls with equal
    coefficients may share one memo.
    """
    return _derive(rf, coefficients, {} if memo is None else memo)


def _derive(rf: RatFunc, coefficients: dict, memo: dict) -> RatFunc:
    dnum = _derive_poly(rf.num, coefficients, memo)
    if rf.den.is_const():
        return dnum
    if len(rf.den.terms) == 1:
        return _derive_over_monomial(rf, dnum, coefficients, memo)
    dden = _derive_poly(rf.den, coefficients, memo)
    if dden.is_zero():
        return dnum * RatFunc(POLY_ONE, rf.den, reduced=True)
    top = dnum * RatFunc.from_poly(rf.den) - RatFunc.from_poly(rf.num) * dden
    return RatFunc(top.num, top.den * rf.den * rf.den)


def _derive_over_monomial(rf: RatFunc, dnum: RatFunc, coefficients: dict, memo: dict) -> RatFunc:
    """d(N / prod a^e) factor by factor, as the product rule runs over
    the printed quotient: only factors that vary are raised to
    a^-(e+1), so a constant radical in the denominator is never squared
    into it."""
    (mono, _), = rf.den.terms.items()
    num = RatFunc.from_poly(rf.num)
    terms = [dnum * RatFunc(POLY_ONE, rf.den, reduced=True)]
    for i, (a, e) in enumerate(mono):
        da = _atom_derivative(a, coefficients, memo)
        if da is not None:
            others = RatFunc(POLY_ONE, Poly({mono[:i] + mono[i + 1:]: 1}), reduced=True)
            raised = pow_ratfunc(RatFunc.atom(a), Fraction(-e - 1))
            terms.append(num * RatFunc.const(-e) * raised * da * others)
    return rat_sum(terms)


def _derive_poly(p: Poly, coefficients: dict, memo: dict) -> RatFunc:
    """sum over atoms a of (dp/da) * delta(a), each dp/da taken formally
    on the stored monomials."""
    partials = {}
    for mono, c in p.terms.items():
        for i, (a, e) in enumerate(mono):
            if _atom_derivative(a, coefficients, memo) is None:
                continue
            lowered = mono[:i] + ((a, e - 1),) + mono[i + 1:] if e > 1 else mono[:i] + mono[i + 1:]
            partials.setdefault(a, {})[lowered] = c * e
    return rat_sum(
        RatFunc.from_poly(Poly.normalized(terms, p.den)) * _atom_derivative(a, coefficients, memo)
        for a, terms in partials.items()
    )


def _atom_derivative(a, coefficients: dict, memo: dict):
    """delta(a) as a RatFunc, or None when it vanishes."""
    if a in memo:
        return memo[a]
    if a.kind == "sym":
        out = coefficients.get(a.payload)
    elif a.kind == "op":
        name, args, orders = a.payload
        terms = []
        # d/dv raises the order of the first argument slot named v
        for v in dict.fromkeys(args):
            c = coefficients.get(v)
            if c is not None:
                i = args.index(v)
                bumped = orders[:i] + (orders[i] + 1,) + orders[i + 1:]
                terms.append(c * RatFunc.atom(op_atom(name, args, bumped)))
        out = rat_sum(terms)
    elif a.kind == "fn":
        name, arg = a.payload
        out = _derive(arg, coefficients, memo)
        if not out.is_zero():
            out = out * _outer_derivative(name, arg, a)
    else:
        base, frac = a.payload
        base = RatFunc.from_poly(base)
        out = _derive(base, coefficients, memo)
        if not out.is_zero():
            out = out * pow_ratfunc(base, frac - 1) * RatFunc.const(frac)
    if out is not None and out.is_zero():
        out = None
    memo[a] = out
    return out


def _outer_derivative(name: str, arg: RatFunc, atom) -> RatFunc:
    """f'(u) for a kernel atom f(u); tan/cot/sec/csc never occur as atoms."""
    if name == "sin":
        return _cos_of(arg)
    if name == "cos":
        return -_sin_of(arg)
    if name == "exp":
        # exp atoms are fixed points of the kernel's exp constructor
        return RatFunc.atom(atom)
    if name == "ln":
        return arg.inverse()
    if name == "arctan":
        return (RAT_ONE + arg * arg).inverse()
    raise ValueError(f"no derivative rule for {name}")


def substitute_atoms(rf: RatFunc, image) -> RatFunc:
    """Replace symbol and opaque-function atoms of a canonical RatFunc.

    `image(atom)` returns the RatFunc to put in the atom's place, or
    None to keep it.  Atoms inside kernel arguments are replaced too,
    and each such kernel is rebuilt by the canonical constructors.
    """
    return _substitute(rf, image, {})


def _substitute(rf: RatFunc, image, memo: dict) -> RatFunc:
    num = _substitute_poly(rf.num, image, memo)
    den = _substitute_poly(rf.den, image, memo)
    if num is None and den is None:
        return rf
    if num is None:
        num = RatFunc.from_poly(rf.num)
    if den is None:
        return num * RatFunc(POLY_ONE, rf.den, reduced=True)
    return num / den


def _substitute_poly(p: Poly, image, memo: dict):
    """The RatFunc of p with atoms replaced, or None when none is."""
    groups = {}  # replaced factors of a monomial -> {other factors: coeff}
    for mono, c in p.terms.items():
        hit = tuple((a, e) for a, e in mono if _atom_image(a, image, memo) is not None)
        rest = tuple((a, e) for a, e in mono if (a, e) not in hit) if hit else mono
        groups.setdefault(hit, {})[rest] = c
    if not groups or list(groups) == [()]:
        return None
    terms = []
    for hit, rest in groups.items():
        term = RatFunc.from_poly(Poly.normalized(rest, p.den))
        for a, e in hit:
            term = term * _atom_image(a, image, memo) ** e
        terms.append(term)
    return rat_sum(terms)


def _atom_image(a, image, memo: dict):
    if a in memo:
        return memo[a]
    if a.kind in ("sym", "op"):
        out = image(a)
    elif a.kind == "fn":
        name, arg = a.payload
        new = _substitute(arg, image, memo)
        out = None if new is arg else fn_ratfunc(name, new)
    else:
        base, frac = a.payload
        new = _substitute_poly(base, image, memo)
        out = None if new is None else pow_ratfunc(new, frac)
    memo[a] = out
    return out


def substitute_function(rf: RatFunc, replacements: dict) -> RatFunc:
    """Replace opaque functions by concrete RatFuncs of their arguments.

    `replacements` maps a function name to a RatFunc written in the
    declared argument symbols; every derivative order of the function is
    replaced by the corresponding derivative of the replacement.
    """
    def image(a):
        if a.kind != "op" or a.payload[0] not in replacements:
            return None
        name, args, orders = a.payload
        out = replacements[name]
        for arg, order in zip(args, orders):
            for _ in range(order):
                out = derive(out, {arg: RAT_ONE})
        return out

    return substitute_atoms(rf, image)


def split_monomials(rf: RatFunc, var_names) -> list:
    """(exponent tuple aligned with the symbol names `var_names`, rest
    of the monomial, integer coefficient) for each numerator term of a
    canonical RatFunc.  Raises NonPolynomialError when a variable occurs
    in a denominator or inside a function kernel."""
    var_set = set(var_names)
    for a in rf.den.atoms():
        if a.free_symbols() & var_set:
            raise NonPolynomialError(
                f"variable occurs in a denominator: {sorted(a.free_symbols() & var_set)}"
            )
    out = []
    for mono, coeff in rf.num.terms.items():
        expvec = [0] * len(var_names)
        rest = []
        for a, k in mono:
            if a.kind == "sym" and a.payload in var_set:
                expvec[var_names.index(a.payload)] = k
            else:
                if a.free_symbols() & var_set:
                    raise NonPolynomialError(
                        f"variable occurs inside a kernel: {a!r}"
                    )
                rest.append((a, k))
        out.append((tuple(expvec), tuple(rest), coeff))
    return out


def collect_ratfunc(rf: RatFunc, var_names) -> dict:
    """Coefficients of a canonical RatFunc as a polynomial in the
    symbols named by the sequence `var_names`.

    Returns {exponent tuple aligned with `var_names`: coefficient
    RatFunc}; zero collects to an empty map.  Raises NonPolynomialError
    when a variable occurs in a denominator or inside a function kernel.
    """
    buckets = {}
    for key, rest, coeff in split_monomials(rf, var_names):
        buckets.setdefault(key, {})[rest] = coeff
    out = {}
    for key, terms in sorted(buckets.items()):
        num = Poly.normalized(terms, rf.num.den)
        if num.is_zero():
            continue
        out[key] = RatFunc(num, rf.den)
    return out
