"""Plain-text printer for canonical RatFuncs; the text parses back to
the same RatFunc.

A polynomial prints as its terms in descending monomial order, a
negative one after " - ": the rational coefficient, then each atom,
to its power when that is above 1.  A fraction prints its numerator,
"/", then its denominator's factors when that is one monomial, or the
sum in parentheses.  The numerator keeps its own parentheses over a
monomial when it is a sum or a product, (2*x)/r, (x/2)/r^2 and (-x)/r,
and joins the product over a sum: x/(2*(r + t)).  One over a single
atom is its negative power, r^-1 and exp(t/r)^-1.  The base of a
fractional power is parenthesized unless it is a symbol or a function
application: (2)^(1/2), (x + 1)^(1/3).
"""

from __future__ import annotations


def ratfunc_text(rf) -> str:
    num, den = rf.num, rf.den
    if den.is_const():
        return _poly_text(num)
    if len(den.terms) == 1:
        (mono, _), = den.terms.items()
        if num.is_const() and num.const_value() == 1 and len(mono) == 1:
            (a, e), = mono
            return f"{_base_text(a)}^-{e}"
        den_parts = [_factor_text(a, e) for a, e in mono]
    else:
        den_parts = [f"({_poly_text(den)})"]
    if num.is_const():
        return _product_text(num.const_value(), [], den_parts)
    if len(num.terms) == 1:
        (mono, c), = num.rational_terms()
        if len(den.terms) > 1 or (c == 1 and len(mono) == 1):
            return _product_text(c, [_factor_text(a, e) for a, e in mono], den_parts)
    return _product_text(1, [f"({_poly_text(num)})"], den_parts)


def _poly_text(p) -> str:
    if not p.terms:
        return "0"
    items = p.printed_terms()
    mono, c = items[0]
    out = [_term_text(mono, c)]
    for mono, c in items[1:]:
        out.append(f" - {_term_text(mono, -c)}" if c < 0 else f" + {_term_text(mono, c)}")
    return "".join(out)


def _term_text(mono, c) -> str:
    if not mono:
        return str(c)
    factors = [_factor_text(a, e) for a, e in mono]
    if c == 1 and len(factors) == 1:
        return factors[0]
    return _product_text(c, factors, [])


def _product_text(coeff, num_parts, den_parts) -> str:
    """coeff * num_parts / den_parts, the coefficient's numerator first
    and its denominator first among the den_parts."""
    sign = "-" if coeff < 0 else ""
    coeff = abs(coeff)
    if coeff.denominator != 1:
        den_parts = [str(coeff.denominator), *den_parts]
    if coeff.numerator != 1 or not num_parts:
        num_parts = [str(coeff.numerator), *num_parts]
    text = sign + "*".join(num_parts)
    if len(den_parts) == 1:
        return f"{text}/{den_parts[0]}"
    if den_parts:
        return f"{text}/({'*'.join(den_parts)})"
    return text


def _factor_text(a, e: int) -> str:
    return _atom_text(a) if e == 1 else f"{_base_text(a)}^{e}"


def _base_text(a) -> str:
    """An atom as the base of an integer power."""
    return f"({_atom_text(a)})" if a.kind == "pow" else _atom_text(a)


def _atom_text(a) -> str:
    if a.kind == "sym":
        return a.payload
    if a.kind == "op":
        name, args, orders = a.payload
        if not any(orders):
            return f"{name}({', '.join(args)})"
        parts = [v if k == 1 else f"{v}, {k}" for v, k in zip(args, orders) if k]
        return f"D({', '.join([name, *parts])})"
    if a.kind == "fn":
        fname, arg = a.payload
        return f"{fname}({ratfunc_text(arg)})"
    base, q = a.payload
    text = _poly_text(base) if _is_atom(base) else f"({_poly_text(base)})"
    return f"{text}^({q.numerator}/{q.denominator})"


def _is_atom(p) -> bool:
    """Whether p is one symbol or function application."""
    if len(p.terms) != 1 or p.den != 1:
        return False
    (mono, c), = p.terms.items()
    return c == 1 and len(mono) == 1 and mono[0][1] == 1 and mono[0][0].kind != "pow"
