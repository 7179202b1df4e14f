"""Conversion between expression trees and canonical rational functions.

The canonical pipeline rewrites tan/cot/csc/sec into sin/cos, pushes
everything into a reduced RatFunc over kernel atoms, and renders the
result back into a deterministic tree.  sin/cos/exp applications whose
argument is a polynomial with several terms, or an integer multiple of
a kernel monomial, are expanded through the addition formulas so that
group-law and automorphism identities in adjoint parameters close
canonically; all other arguments become inert atoms keyed by the
canonical form of the argument.
"""

from __future__ import annotations

from fractions import Fraction

from .nodes import Add, Expr, Fn, Mul, Num, Op, Pow, Sym
from .poly import (
    MONOMIAL_ONE,
    Atom,
    Poly,
    RAT_ONE,
    RAT_ZERO,
    RatFunc,
    monomial_key,
    op_atom,
    rat_sum,
    sym_atom,
)

# Bounds on input whose canonical form would take unbounded work.  Each
# is checked before the work starts and raises ValueError, which the file
# loaders and --bind report at the offending line.
MAX_EXPANDED_POWER = 64  # integer part of |exponent| for a power that expands
MAX_TRIG_MULTIPLE = 100  # n in sin(n w), cos(n w) for a kernel monomial w
MAX_TRIAL_DIVISOR = 10**6  # trial divisors for an integer under a fractional power


def canonical_ratfunc(e: Expr, _memo=None) -> RatFunc:
    if _memo is None:
        _memo = {}
    key = id(e)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    if isinstance(e, Num):
        out = RatFunc.const(e.value)
    elif isinstance(e, Sym):
        out = RatFunc.atom(sym_atom(e.name))
    elif isinstance(e, Op):
        out = RatFunc.atom(op_atom(e.name, e.args, e.orders))
    elif isinstance(e, Add):
        out = rat_sum(canonical_ratfunc(t, _memo) for t in e.terms)
    elif isinstance(e, Mul):
        out = RAT_ONE
        for f in e.factors:
            out = out * canonical_ratfunc(f, _memo)
    elif isinstance(e, Pow):
        out = pow_ratfunc(canonical_ratfunc(e.base, _memo), e.exponent)
    elif isinstance(e, Fn):
        out = fn_ratfunc(e.name, canonical_ratfunc(e.arg, _memo))
    else:
        raise TypeError(f"unknown Expr node: {e!r}")
    _memo[key] = out
    return out


def fn_ratfunc(name: str, arg: RatFunc) -> RatFunc:
    """The canonical RatFunc of the elementary function `name` at arg."""
    if name == "sin":
        return _sin_of(arg)
    if name == "cos":
        return _cos_of(arg)
    if name == "tan":
        return _sin_of(arg) / _cos_of(arg)
    if name == "cot":
        return _cos_of(arg) / _sin_of(arg)
    if name == "csc":
        return _sin_of(arg).inverse()
    if name == "sec":
        return _cos_of(arg).inverse()
    if name == "exp":
        return _exp_of(arg)
    if name in ("ln", "arctan"):
        if name == "ln" and arg.is_zero():
            raise ValueError("ln of zero is undefined")
        # Inert kernels: no identities beyond argument canonicalization.
        return RatFunc.atom(Atom("fn", (name, arg)))
    raise ValueError(f"unknown function {name}")


def _split_poly_arg(arg: RatFunc):
    """Split a multi-term polynomial argument into (first term, rest)."""
    num = arg.num
    items = sorted(num.terms.items(), key=lambda t: monomial_key(t[0]))
    m, c = items[0]
    first = RatFunc.from_poly(Poly.normalized({m: c}, num.den))
    rest = RatFunc.from_poly(Poly.normalized(dict(items[1:]), num.den))
    return first, rest


def _leading_sign(arg: RatFunc) -> int:
    _, c = arg.num.leading()
    return -1 if c < 0 else 1


def _sin_of(arg: RatFunc) -> RatFunc:
    return _sin_cos(arg)[0]


def _cos_of(arg: RatFunc) -> RatFunc:
    return _sin_cos(arg)[1]


def _sin_cos(arg: RatFunc):
    """(sin(arg), cos(arg)).  A polynomial argument with several terms
    goes through the addition formulas, first term against the rest; an
    integer multiple n w of a kernel monomial steps the pair from w to
    n w once per unit, so both cost work linear in n and in the terms."""
    if arg.is_zero():
        return RAT_ZERO, RAT_ONE
    if _leading_sign(arg) < 0:
        s, c = _sin_cos(-arg)
        return -s, c
    num = arg.num
    if arg.den.is_const() and len(num.terms) > 1:
        a, b = _split_poly_arg(arg)
        sa, ca = _sin_cos(a)
        sb, cb = _sin_cos(b)
        return sa * cb + ca * sb, ca * cb - sa * sb
    if arg.den.is_const() and num.den == 1:
        (m, n), = num.terms.items()
        if n > MAX_TRIG_MULTIPLE:
            raise ValueError(f"sin/cos of {n} times one term: the multiple is above "
                             f"{MAX_TRIG_MULTIPLE}")
        if n > 1:
            # sin(k w + w) and cos(k w + w) from the pair at k w
            s1, c1 = _sin_cos(RatFunc.from_poly(Poly({m: 1})))
            s, c = s1, c1
            for _ in range(n - 1):
                s, c = s * c1 + c * s1, c * c1 - s * s1
            return s, c
    return RatFunc.atom(Atom("fn", ("sin", arg))), RatFunc.atom(Atom("fn", ("cos", arg)))


def _exp_of(arg: RatFunc) -> RatFunc:
    if arg.is_zero():
        return RAT_ONE
    if arg.den.is_const() and len(arg.num.terms) > 1:
        a, b = _split_poly_arg(arg)
        return _exp_of(a) * _exp_of(b)
    if arg.den.is_const() and len(arg.num.terms) == 1:
        (m, c), = arg.num.terms.items()
        whole, rem = divmod(c, arg.num.den)
        out = RAT_ONE
        if whole:
            unit = Atom("fn", ("exp", RatFunc.from_poly(Poly({m: 1}))))
            out = out * (RatFunc.atom(unit) ** whole)
        if rem:
            out = out * RatFunc.atom(
                Atom("fn", ("exp", RatFunc.from_poly(Poly.normalized({m: rem}, arg.num.den))))
            )
        return out
    # Non-polynomial argument: inert, sign folded into an inverse.
    if _leading_sign(arg) < 0:
        return RatFunc.atom(Atom("fn", ("exp", -arg))).inverse()
    return RatFunc.atom(Atom("fn", ("exp", arg)))


def _expands(p: Poly) -> bool:
    """Whether the powers of p expand: several terms, a cos factor, or a
    fractional power of a base whose powers expand, which the rewrite
    rules multiply out."""
    return len(p.terms) > 1 or any(
        a.fold == 1 or (a.fold == 2 and _expands(a.payload[0])) for a in p.atoms())


def pow_ratfunc(base: RatFunc, q: Fraction) -> RatFunc:
    """The canonical RatFunc of base^q for a rational exponent q."""
    if abs(q.numerator) // q.denominator > MAX_EXPANDED_POWER and (
            _expands(base.num) or _expands(base.den)):
        raise ValueError(f"exponent {q} of an expression whose powers expand: its integer "
                         f"part is above {MAX_EXPANDED_POWER}")
    if q.denominator == 1:
        return base ** q.numerator
    if base.is_zero():
        if q > 0:
            return RAT_ZERO
        raise ZeroDivisionError("zero base with negative exponent")
    out = _poly_frac_power(base.num, q)
    if not base.den.is_const() or base.den.const_value() != 1:
        out = out * _poly_frac_power(base.den, -q)
    return out


def _poly_frac_power(p: Poly, q: Fraction) -> RatFunc:
    neg = q < 0
    if neg:
        q = -q
    whole = q.numerator // q.denominator
    frac = q - whole
    cont, prim = p.primitive()
    result = _rational_power(cont, q)
    if not prim.is_const():
        if whole:
            result = result * RatFunc.from_poly(prim ** whole)
        if frac:
            result = result * RatFunc.atom(Atom("pow", (prim, frac)))
    if neg:
        return result.inverse()
    return result


def _rational_power(c: Fraction, q: Fraction) -> RatFunc:
    """c**q for rational c with perfect-power extraction.

    q is positive with q.denominator > 1 possible; returns a RatFunc of
    a rational coefficient times fractional-power atoms of square-free
    style residuals.
    """
    if c == 1:
        return RAT_ONE
    if c == 0:
        return RAT_ZERO
    if c < 0:
        if q.denominator % 2 == 0:
            raise ValueError("even root of a negative rational is not supported")
        sign = Fraction(-1) ** (q.numerator % 2)
        return _rational_power(-c, q).__mul__(RatFunc.const(sign))
    num_part = _integer_power_parts(c.numerator, q)
    den_part = _integer_power_parts(c.denominator, q)
    return num_part * den_part.inverse()


def _integer_power_parts(n: int, q: Fraction) -> RatFunc:
    whole_total = q.numerator // q.denominator
    out = RatFunc.const(Fraction(n) ** whole_total) if whole_total else RAT_ONE
    frac = q - whole_total
    if frac == 0 or n == 1:
        return out
    r = frac.denominator
    p = frac.numerator
    rational = Fraction(1)
    residues = {}  # residual exponent (Fraction) -> product of primes
    for prime, e in _factorize(n):
        total = e * p
        whole, rem = divmod(total, r)
        if whole:
            rational *= Fraction(prime) ** whole
        if rem:
            f = Fraction(rem, r)
            residues[f] = residues.get(f, 1) * prime
    out = out * RatFunc.const(rational)
    for f, base in sorted(residues.items()):
        out = out * RatFunc.atom(Atom("pow", (Poly.const(base), f)))
    return out


def _factorize(n: int):
    out = []
    d = 2
    while d * d <= n:
        if d > MAX_TRIAL_DIVISOR:
            raise ValueError(f"cannot factor the integer under a fractional power: a cofactor "
                             f"above {MAX_TRIAL_DIVISOR}^2 has no prime factor up to "
                             f"{MAX_TRIAL_DIVISOR}")
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


# ---------------------------------------------------------------------------
# Rendering canonical fractions back into trees.


def render_ratfunc(rf: RatFunc) -> Expr:
    num_tree = _render_poly(rf.num)
    if rf.den.is_const():
        return num_tree
    if len(rf.den.terms) == 1:
        # Denominator is a primitive monomial: fold in negated exponents.
        (mono, coeff), = rf.den.rational_terms()
        factors = []
        if not (rf.num.is_const() and rf.num.const_value() == 1):
            factors.append(num_tree)
        if coeff != 1:
            factors.append(Pow(Num(coeff), Fraction(-1)))
        for a, e in mono:
            factors.append(Pow(_render_atom(a), Fraction(-e)))
        if len(factors) == 1:
            return factors[0]
        return Mul(factors)
    return Mul.of(num_tree, Pow(_render_poly(rf.den), Fraction(-1)))


def _render_poly(p: Poly) -> Expr:
    if p.is_zero():
        return Num(0)
    items = sorted(p.rational_terms(), key=lambda t: monomial_key(t[0]), reverse=True)
    terms = [_render_term(m, c) for m, c in items]
    if len(terms) == 1:
        return terms[0]
    return Add(terms)


def _render_term(mono, coeff: Fraction) -> Expr:
    factors = []
    if coeff != 1 or mono == MONOMIAL_ONE:
        factors.append(Num(coeff))
    for a, e in mono:
        at = _render_atom(a)
        factors.append(at if e == 1 else Pow(at, Fraction(e)))
    if len(factors) == 1:
        return factors[0]
    return Mul(factors)


def _render_atom(a: Atom) -> Expr:
    if a.kind == "sym":
        return Sym(a.payload)
    if a.kind == "op":
        name, args, orders = a.payload
        return Op(name, args, orders)
    if a.kind == "fn":
        fname, arg = a.payload
        return Fn(fname, render_ratfunc(arg))
    base, frac = a.payload
    return Pow(render_ratfunc(RatFunc.from_poly(base)), frac)


def to_canonical(e: Expr) -> Expr:
    """Canonical tree: unique for equal expressions over the kernel set."""
    return render_ratfunc(canonical_ratfunc(e))
