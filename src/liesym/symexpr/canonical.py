"""Canonical constructors: products, rational powers and elementary
functions of RatFuncs.

The parser reads every product, power and function application
through these, and the calculus rebuilds function and power atoms with
them.  tan/cot/csc/sec become quotients of sin and cos.  sin/cos/exp
applications whose argument is a polynomial with several terms, or an
integer multiple of a kernel monomial, are expanded through the
addition formulas so that group-law and automorphism identities in
adjoint parameters close canonically; all other arguments become inert
atoms keyed by the canonical form of the argument.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .nodes import Atom
from .poly import RAT_ONE, RAT_ZERO, Poly, RatFunc, monomial_key

# Bounds on input whose canonical form would take unbounded work.  Each
# is checked before the work starts and raises ValueError, which the file
# loaders and --bind report at the offending line.
MAX_EXPANDED_POWER = 64  # integer part of |exponent| for a power that expands
MAX_EXPANDED_TERMS = 5000  # terms a power, a product or sin/cos of a sum may expand to
MAX_TRIG_MULTIPLE = 100  # n in sin(n w), cos(n w) for a kernel monomial w
MAX_TRIAL_DIVISOR = 10**6  # trial divisors for an integer under a fractional power
# bits of the coefficients of a power, bounded from its base and exponent;
# 14000 bits keep every numerator and denominator under 4300 digits, the
# longest int Python converts to str by default; the parser holds every
# input expression to it as well
MAX_POWER_COEFFICIENT_BITS = 14_000


def mul_ratfunc(a: RatFunc, b: RatFunc) -> RatFunc:
    """a * b, once the terms its expansion could have are within
    MAX_EXPANDED_TERMS."""
    for p, q in ((a.num, b.num), (a.den, b.den)):
        if _expansion_terms([(p, 1), (q, 1)]) > MAX_EXPANDED_TERMS:
            raise ValueError(f"a product whose expansion could have more than "
                             f"{MAX_EXPANDED_TERMS} terms")
    return a * b


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
        if _trig_sum_terms(num) > MAX_EXPANDED_TERMS:
            raise ValueError(f"sin/cos of a sum of {len(num.terms)} terms: its expansion "
                             f"could have more than {MAX_EXPANDED_TERMS} terms")
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


def _trig_sum_terms(num: Poly) -> int:
    """An upper bound on the terms of sin or cos of the sum num of t
    terms: the addition formulas give 2^(t-1) products of one sin or cos
    per term, and sin(n w), cos(n w) of an integer multiple of a kernel
    monomial have at most n // 2 + 1 terms in sin(w), cos(w)."""
    bound = 2 ** (len(num.terms) - 1)
    for c in num.terms.values():
        n, rem = divmod(abs(c), num.den)
        if not rem:
            bound *= n // 2 + 1
    return bound


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


def _expansion_terms(factors) -> int:
    """An upper bound on the terms of the product of p^n over the (p, n)
    in factors, once the rewrite rules have acted: the C(n + t - 1, n)
    products of n of p's t terms, times what the cos and fractional-power
    atoms multiply out to at their highest exponents (cos^k has
    k // 2 + 1 terms, and B^f to the exponent k those of B^floor(k f))."""
    bound = 1
    exponents = {}  # cos or fractional-power atom -> its highest exponent
    for p, n in factors:
        bound *= math.comb(n + len(p.terms) - 1, n)
        # a stored monomial holds each such atom to the first power
        for a in {a for mono in p.terms for a, _ in mono if a.fold}:
            exponents[a] = exponents.get(a, 0) + n
    powers = {}  # base key -> (base, highest exponent of the base)
    for a, k in exponents.items():
        if a.fold == 1:
            bound *= k // 2 + 1
        else:
            base, frac = a.payload
            powers[base.key()] = base, powers.get(base.key(), (base, 0))[1] + k * frac
    for base, x in powers.values():
        bound *= _expansion_terms([(base, math.floor(x))])
    return bound


def _coefficient_bits(p: Poly) -> int:
    """k with 2^k at least p's denominator and the sum of its |integer
    coefficients|: the numerators and denominators of p^n then have at
    most n k bits, plus n where the cos^2 = 1 - sin^2 rewrite applies."""
    total = sum(abs(c) for c in p.terms.values())
    return max((max(total, 1) - 1).bit_length(), (p.den - 1).bit_length())


def pow_ratfunc(base: RatFunc, q: Fraction) -> RatFunc:
    """The canonical RatFunc of base^q for a rational exponent q."""
    whole = abs(q.numerator) // q.denominator
    if whole > MAX_EXPANDED_POWER and (_expands(base.num) or _expands(base.den)):
        raise ValueError(f"exponent {q} of an expression whose powers expand: its integer "
                         f"part is above {MAX_EXPANDED_POWER}")
    # above MAX_EXPANDED_POWER only powers that multiply nothing out are
    # left, and their bound is 1
    if whole > 1 and max(_expansion_terms([(base.num, whole)]),
                         _expansion_terms([(base.den, whole)])) > MAX_EXPANDED_TERMS:
        raise ValueError(f"exponent {q}: its expansion could have more than "
                         f"{MAX_EXPANDED_TERMS} terms")
    # no coefficient of base^q exceeds those of base^n for n = ceil(|q|)
    n = -(-abs(q.numerator) // q.denominator)
    if n > 1 and n * max(_coefficient_bits(base.num), _coefficient_bits(base.den)) > \
            MAX_POWER_COEFFICIENT_BITS:
        raise ValueError(f"exponent {q}: the coefficients of the power would exceed "
                         f"{MAX_POWER_COEFFICIENT_BITS} bits")
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
