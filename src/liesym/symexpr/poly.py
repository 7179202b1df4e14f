"""Exact multivariate polynomial and rational-function arithmetic.

The canonical form of an expression is a reduced fraction of two
polynomials over Q whose variables are the kernel atoms of `nodes`:
plain symbols, opaque function applications, elementary function
applications keyed by the canonical form of their argument, and
fractional powers keyed by an integral polynomial base.

A Poly stores integer coefficients over one positive integer
denominator, the layout of FLINT's fmpq_poly: `terms` maps each
monomial to a nonzero int, `den` is a positive int, and the gcd of all
coefficients and `den` is 1, so every polynomial has exactly one
representation.  An integral polynomial (den 1), which every RatFunc
denominator is, costs no normalization.  Products, sums, content,
exact division and gcd run on Python ints; rationals appear only at
the boundary (`const_value`, `content`, `rational_terms`).

Rewrite rules act at the monomial level and keep the representation
canonical:

  * cos(u)^k with k >= 2 is reduced via cos(u)^2 -> 1 - sin(u)^2, for
    any argument u, so cosine exponents in stored monomials are 0 or 1;
  * fractional powers of one base fold together, B^p * B^q -> B^(p+q),
    so a monomial holds at most one power atom per base, with
    exponent 1;
  * whole parts of a power fold back into the base, e.g.
    (B^(1/2))^2 -> B and B^(1/3) * B^(2/3) -> B.

Atoms are interned by key, so equal atoms are one object: monomials
compare and hash their atoms by identity, in C.  Polynomial gcd is
computed on the reduced monomials (primitive PRS).  A single-term
argument takes a path linear in the terms: the gcd is a merge of the
sorted monomials, and exact division goes term by term.

Every rule is an identity, so a canonical zero is a true zero.  The
converse does not hold: identities outside the rules canonicalize to
nonzero forms, among them exp(x/2)^2 - exp(x), half angles
(2*sin(x/2)*cos(x/2) - sin(x)), ln of products (ln(x*y) - ln(x) -
ln(y)) and products of radicals of different bases (sqrt(x)*sqrt(y) -
sqrt(x*y)).  Once a cos or fractional-power atom sits in a denominator,
equal functions can also reduce to different fractions along different
computation paths.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .nodes import Atom

# A monomial is a tuple of (Atom, positive int exponent) sorted by atom
# key; the empty tuple is the constant monomial 1.
MONOMIAL_ONE = ()


def monomial_key(mono):
    return tuple((a._key, e) for a, e in mono)


def monomial_free_symbols(mono):
    out = frozenset()
    for a, _ in mono:
        out |= a.free_symbols()
    return out


def _mono_mul(m1, m2):
    """(m1 * m2, whether the rewrite rules act on it) by a linear merge
    of the two sorted tuples.  The rules act when a cos or
    fractional-power atom reaches exponent 2, or when fractional powers
    of one base meet; those sort next to each other, so the merge
    compares them directly."""
    if not m1:
        return m2, False
    if not m2:
        return m1, False
    out = []
    fold = False
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        t1 = m1[i]
        t2 = m2[j]
        a1 = t1[0]
        a2 = t2[0]
        if a1 is a2:
            out.append((a1, t1[1] + t2[1]))
            if a1.fold:
                fold = True
            i += 1
            j += 1
        else:
            k1 = a1._key
            k2 = a2._key
            if a1.fold == 2 and a2.fold == 2 and k1[1] == k2[1]:
                fold = True
            if k1 < k2:
                out.append(t1)
                i += 1
            else:
                out.append(t2)
                j += 1
    if i < n1:
        out.extend(m1[i:])
    elif j < n2:
        out.extend(m2[j:])
    return tuple(out), fold


def _mono_div(m, d):
    """m / d as a sorted monomial, or None when d does not divide m."""
    out = []
    j, nd = 0, len(d)
    for a, e in m:
        if j < nd and d[j][0] is a:
            r = e - d[j][1]
            if r < 0:
                return None
            if r:
                out.append((a, r))
            j += 1
        else:
            out.append((a, e))
    return tuple(out) if j == nd else None


def monomial_gt(m1, m2) -> bool:
    """m1 > m2 in the lex order with the largest atom most significant.

    Compatible with monomial multiplication, which leading-term
    division and gcd rely on; the stored tuples are sorted ascending so
    the walk runs from the tail.
    """
    i, j = len(m1) - 1, len(m2) - 1
    while i >= 0 and j >= 0:
        a1, e1 = m1[i]
        a2, e2 = m2[j]
        if a1 is not a2:
            return a1._key > a2._key
        if e1 != e2:
            return e1 > e2
        i -= 1
        j -= 1
    return i >= 0


def _reduce_monomial(mono) -> "Poly":
    """The rewrite rules applied to a sorted product monomial; an
    integral Poly, since power bases are integral."""
    plain = []
    pieces = []
    i, n = 0, len(mono)
    while i < n:
        a, e = mono[i]
        i += 1
        if a.fold == 2:
            base, frac = a.payload
            total = frac * e
            while i < n and mono[i][0].fold == 2 and mono[i][0]._key[1] == a._key[1]:
                b, f = mono[i]
                total += b.payload[1] * f
                i += 1
            if total == frac:
                plain.append((a, 1))
                continue
            whole, rem = divmod(total.numerator, total.denominator)
            if whole:
                pieces.append(base ** whole)
            if rem:
                # same base, so the new atom keeps this position in the order
                plain.append((Atom("pow", (base, Fraction(rem, total.denominator))), 1))
        elif a.fold == 1 and e >= 2:
            # cos^2 -> 1 - sin^2, applied (e // 2) times
            half, odd = divmod(e, 2)
            sin_a = Atom("fn", ("sin", a.payload[1]))
            pieces.append(Poly({MONOMIAL_ONE: 1, ((sin_a, 2),): -1}) ** half)
            if odd:
                plain.append((a, 1))
        else:
            plain.append((a, e))
    result = Poly({tuple(plain): 1})
    for piece in pieces:
        result = result * piece
    return result


class Poly:
    """Multivariate polynomial sum(terms) / den: `terms` maps monomials
    to nonzero ints, `den` is a positive int, and gcd(coefficients, den)
    is 1.  The constructor trusts its arguments; `normalized` divides
    out a common factor."""

    __slots__ = ("terms", "den", "_key")

    def __init__(self, terms=None, den=1):
        self.terms = terms or {}
        self.den = den
        self._key = None

    @staticmethod
    def normalized(terms, den=1) -> "Poly":
        """sum(terms) / den for nonzero int coefficients and a positive
        int den, with their common factor removed."""
        if not terms:
            return Poly()
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {m: c // g for m, c in terms.items()}
                den //= g
        return Poly(terms, den)

    @staticmethod
    def const(c) -> "Poly":
        """The constant polynomial of an int or Fraction c."""
        if not c:
            return Poly()
        return Poly({MONOMIAL_ONE: c.numerator}, c.denominator)

    @staticmethod
    def atom(a: Atom, exp: int = 1) -> "Poly":
        return Poly({((a, exp),): 1})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and MONOMIAL_ONE in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return Fraction(self.terms[MONOMIAL_ONE], self.den)

    def rational_terms(self):
        """(monomial, Fraction coefficient) pairs: the rational reading
        of the terms, for the boundaries that print or report them."""
        den = self.den
        return [(m, Fraction(c, den)) for m, c in self.terms.items()]

    def printed_terms(self):
        """rational_terms in the order they print: descending monomial
        order, the constant term last."""
        return sorted(self.rational_terms(), key=lambda t: monomial_key(t[0]), reverse=True)

    def key(self):
        """Per term, in monomial order: (monomial key, (numerator,
        denominator) of the reduced rational coefficient)."""
        if self._key is None:
            den = self.den
            if den == 1:
                items = [(monomial_key(m), (c, 1)) for m, c in self.terms.items()]
            else:
                items = []
                for m, c in self.terms.items():
                    g = gcd(c, den)
                    items.append((monomial_key(m), (c // g, den // g)))
            items.sort()
            self._key = tuple(items)
        return self._key

    def __eq__(self, other):
        return isinstance(other, Poly) and self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __add__(self, other):
        return _add(self, other, 1)

    def __sub__(self, other):
        return _add(self, other, -1)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()}, self.den)

    def __mul__(self, other):
        out = {}
        get = out.get
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono, fold = _mono_mul(m1, m2)
                c = c1 * c2
                if fold:
                    for m3, c3 in _reduce_monomial(mono).terms.items():
                        nc = get(m3, 0) + c * c3
                        if nc:
                            out[m3] = nc
                        else:
                            del out[m3]
                else:
                    nc = get(mono, 0) + c
                    if nc:
                        out[mono] = nc
                    else:
                        del out[mono]
        den = self.den * other.den
        return Poly(out) if den == 1 else Poly.normalized(out, den)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of Poly")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return POLY_ONE if result is None else result

    def atoms(self):
        out = set()
        for m in self.terms:
            for a, _ in m:
                out.add(a)
        return out

    def free_symbols(self):
        out = frozenset()
        for m in self.terms:
            out |= monomial_free_symbols(m)
        return out

    def leading(self):
        """Leading (monomial, integer coefficient) under the
        multiplicative lex order; the coefficient has the sign of the
        rational one."""
        best = None
        for m in self.terms:
            if best is None or monomial_gt(m, best):
                best = m
        return best, self.terms[best]

    def _signed_gcd(self) -> int:
        """gcd of the integer coefficients, with the leading sign."""
        g = gcd(*self.terms.values())
        return -g if self.leading()[1] < 0 else g

    def content(self) -> Fraction:
        """Rational content with the sign of the leading coefficient."""
        if not self.terms:
            return Fraction(0)
        return Fraction(self._signed_gcd(), self.den)

    def primitive_part(self) -> "Poly":
        """Integral, coefficient gcd 1, positive leading coefficient."""
        if not self.terms:
            return self
        g = self._signed_gcd()
        if g == 1 and self.den == 1:
            return self
        return Poly({m: c // g for m, c in self.terms.items()})

    def primitive(self):
        """(content, primitive part) with positive leading coefficient."""
        return self.content(), self.primitive_part()

    def degree_in(self, atom: Atom) -> int:
        d = 0
        for m in self.terms:
            for a, e in m:
                if e > d and a is atom:
                    d = e
        return d

    def coeffs_in(self, atom: Atom):
        """Split as a univariate polynomial in `atom`: degree -> Poly."""
        out = {}
        for m, c in self.terms.items():
            deg = 0
            rest = m
            for i, (a, e) in enumerate(m):
                if a is atom:
                    deg = e
                    rest = m[:i] + m[i + 1:]
                    break
            out.setdefault(deg, {})[rest] = c
        return {d: Poly.normalized(t, self.den) for d, t in out.items()}

    def __repr__(self):
        return f"Poly({len(self.terms)} terms)"


def _add(p: Poly, q: Poly, sign: int) -> Poly:
    """p + sign * q over the lcm of the denominators."""
    if not q.terms:
        return p
    if not p.terms:
        return q if sign == 1 else -q
    if p.den == q.den:
        den = p.den
        out = dict(p.terms)
        fq = sign
    else:
        g = gcd(p.den, q.den)
        fp, fq = q.den // g, sign * (p.den // g)
        den = p.den * fp
        out = {m: c * fp for m, c in p.terms.items()}
    get = out.get
    for m, c in q.terms.items():
        nc = get(m, 0) + c * fq
        if nc:
            out[m] = nc
        else:
            del out[m]
    return Poly(out) if den == 1 else Poly.normalized(out, den)


def _scaled(p: Poly, n: int, d: int) -> Poly:
    """p * n / d for ints n and d != 0."""
    if d < 0:
        n, d = -n, -d
    if not n or not p.terms:
        return POLY_ZERO
    if n == d:
        return p
    return Poly.normalized({m: c * n for m, c in p.terms.items()}, p.den * d)


POLY_ZERO = Poly()
POLY_ONE = Poly.const(1)


def poly_divexact(p: Poly, d: Poly) -> Poly:
    """Exact division p / d on the reduced monomials; raises if not exact.

    A single-term divisor dc*dm divides term by term: for a reduced
    monomial m that dm divides atom by atom, (m / dm) * dm is m again
    with no rewrite, so each term of p gives one term of the quotient.
    Otherwise fraction-free long division on the integer numerators:
    each step scales the remainder by lc(d) / gcd(lc(d), lc(rem)) so
    that its leading term cancels, and the quotient is divided by the
    product of those scales at the end.  The remainder is a dict with a
    heap of its monomials (`_Descending`), pushed as they enter it, so
    a step reads its leading term without scanning every term; an entry
    whose monomial has left the dict is dropped when it surfaces."""
    if not d.terms:
        raise ZeroDivisionError("polynomial division by zero")
    if len(d.terms) == 1:
        (dm, dc), = d.terms.items()
        if not dm:
            return _scaled(p, d.den, dc)
        quot = {}
        for m, c in p.terms.items():
            qm = _mono_div(m, dm)
            if qm is None:
                raise ValueError("inexact polynomial division")
            quot[qm] = c
        return _scaled(Poly(quot), d.den, dc * p.den)
    from heapq import heapify, heappop, heappush

    dm, dc = d.leading()
    divisor = Poly(d.terms)
    quot = {}
    scale = 1
    rem = dict(p.terms)
    heap = [_Descending(m) for m in rem]
    heapify(heap)
    while rem:
        while heap[0].mono not in rem:
            heappop(heap)
        rm = heap[0].mono
        rc = rem[rm]
        qm = _mono_div(rm, dm)
        if qm is None:
            raise ValueError("inexact polynomial division")
        g = gcd(rc, dc)
        a, b = dc // g, rc // g
        if a != 1:
            scale *= a
            quot = {m: c * a for m, c in quot.items()}
            rem = {m: c * a for m, c in rem.items()}
        quot[qm] = b
        for m, c in (Poly({qm: b}) * divisor).terms.items():
            nc = rem.get(m, 0) - c
            if not nc:
                del rem[m]
            else:
                if m not in rem:
                    heappush(heap, _Descending(m))
                rem[m] = nc
    # p / d = (quot / scale) * d.den / p.den
    return _scaled(Poly(quot), d.den, scale * p.den)


class _Descending:
    """A heap entry for a monomial, the greatest under `monomial_gt`
    first: its key, the reversed `monomial_key`, compares as
    `monomial_gt` walks, from the largest atom down."""

    __slots__ = ("key", "mono")

    def __init__(self, mono):
        self.key = monomial_key(mono)[::-1]
        self.mono = mono

    def __lt__(self, other):
        return self.key > other.key


def poly_lcm(polys) -> Poly:
    """Lcm in the free ring: the product of the polys with each shared
    factor (by poly_gcd) taken once."""
    out = POLY_ONE
    for p in polys:
        out = out * poly_divexact(p, poly_gcd(out, p))
    return out


def _pseudo_rem(p, q, atom):
    """Pseudo-remainder of p by q, both viewed univariate in atom."""
    qc = q.coeffs_in(atom)
    dq = max(qc)
    lead_q = qc[dq]
    while p.terms:
        pc = p.coeffs_in(atom)
        dp = max(pc)
        if dp < dq:
            break
        lead_p = pc[dp]
        shift = Poly.atom(atom) ** (dp - dq)
        p = p * lead_q - q * (lead_p * shift)
    return p


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Gcd on the reduced monomials: integral, primitive, positive lead."""
    if p.is_zero():
        return q.primitive_part()
    if q.is_zero():
        return p.primitive_part()
    if p.is_const() or q.is_const():
        return POLY_ONE
    # Fast path: single-monomial arguments share only monomial factors.
    if len(p.terms) == 1 or len(q.terms) == 1:
        return _monomial_gcd(p, q)
    patoms = p.atoms()
    qatoms = q.atoms()
    common = patoms & qatoms
    if not common:
        return POLY_ONE
    # An atom of one side that no rewrite ties to another (not cos, sin
    # or a power) is free, so a common divisor divides each coefficient
    # of that side in it.
    free = [a for a in patoms ^ qatoms if not a.fold and (a.kind != "fn" or a.payload[0] != "sin")]
    if free and not any(a.fold == 2 for a in patoms | qatoms):
        atom = max(free)
        if atom in qatoms:
            p, q = q, p
        g = q
        for c in p.coeffs_in(atom).values():
            g = poly_gcd(c, g)
            if g.is_const():
                return POLY_ONE
        return g.primitive_part()
    # Products of coefficients that both carry cos(u) or B^(1/2) reduce
    # (cos^2 -> 1 - sin^2, folding into B), so a pseudo-remainder in sin(u)
    # or in an atom of B need not lower the degree and may never end.
    # Such atoms have degree <= 1: dividing in them first keeps the
    # coefficients free of them.
    reducing = [a for a in patoms | qatoms if a.fold]
    atom = max(reducing) if reducing else max(common)
    pcont, pprim = _univ_content(p, atom)
    qcont, qprim = _univ_content(q, atom)
    cont_gcd = poly_gcd(pcont, qcont)
    a, b = pprim, qprim
    while True:
        if b.is_zero():
            g = a
            break
        bd = b.degree_in(atom)
        if bd == 0:
            g = POLY_ONE
            break
        r = _pseudo_rem(a, b, atom)
        if r.is_zero():
            g = b
            break
        a, b = b, _univ_content(r, atom)[1]
    g = _univ_content(g, atom)[1] if not g.is_const() else POLY_ONE
    return (cont_gcd * g).primitive_part()


def _mono_gcd(m1, m2):
    """The largest monomial dividing both sorted monomials, by a merge."""
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a1, e1 = m1[i]
        a2, e2 = m2[j]
        if a1 is a2:
            out.append((a1, e1 if e1 < e2 else e2))
            i += 1
            j += 1
        elif a1._key < a2._key:
            i += 1
        else:
            j += 1
    return tuple(out)


def _monomial_gcd(p: Poly, q: Poly) -> Poly:
    """The monomial gcd of all terms of p and q."""
    common = None
    for terms in (p.terms, q.terms):
        for m in terms:
            common = m if common is None else _mono_gcd(common, m)
            if not common:
                return POLY_ONE
    return Poly({common: 1})


def _univ_content(p: Poly, atom: Atom):
    """Content and primitive part of p as a univariate poly in atom."""
    coeffs = p.coeffs_in(atom)
    cont = POLY_ZERO
    for c in coeffs.values():
        cont = poly_gcd(cont, c)
        if cont.is_const():
            cont = POLY_ONE
            break
    if cont.is_const():
        return POLY_ONE, p
    return cont, poly_divexact(p, cont)


class RatFunc:
    """Reduced fraction num/den of Polys; den is primitive with
    positive leading coefficient, and gcd(num, den) = 1."""

    __slots__ = ("num", "den", "_key")

    def __init__(self, num: Poly, den: Poly, reduced=False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not reduced:
            num, den = _reduce_fraction(num, den)
        self.num = num
        self.den = den
        self._key = None

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(Poly.const(c), POLY_ONE, reduced=True)

    @staticmethod
    def from_poly(p: Poly) -> "RatFunc":
        return RatFunc(p, POLY_ONE, reduced=True)

    @staticmethod
    def atom(a: Atom) -> "RatFunc":
        return RatFunc(Poly.atom(a), POLY_ONE, reduced=True)

    def key(self):
        if self._key is None:
            self._key = (self.num.key(), self.den.key())
        return self._key

    def __eq__(self, other):
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(self.key())

    def is_zero(self):
        return self.num.is_zero()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    def __add__(self, other):
        if self.den.is_const() and other.den.is_const():
            # normalized constant denominators are exactly 1
            return RatFunc(self.num + other.num, POLY_ONE, reduced=True)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        g = poly_gcd(self.den, other.den)
        if g.is_const():
            return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)
        d1 = poly_divexact(self.den, g)
        d2 = poly_divexact(other.den, g)
        return RatFunc(self.num * d2 + other.num * d1, d1 * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduced=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.den.is_const() and other.den.is_const():
            return RatFunc(self.num * other.num, POLY_ONE, reduced=True)
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num if g1.is_const() else poly_divexact(self.num, g1)
        d2 = other.den if g1.is_const() else poly_divexact(other.den, g1)
        n2 = other.num if g2.is_const() else poly_divexact(other.num, g2)
        d1 = self.den if g2.is_const() else poly_divexact(self.den, g2)
        return RatFunc(n1 * n2, d1 * d2)

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero expression")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n: int):
        if n == 0:
            return RatFunc.const(1)
        if n < 0:
            return self.inverse() ** (-n)
        # With no cos or fractional-power atom no rewrite acts, so the
        # powers of the coprime num and den stay coprime, and den ** n
        # stays primitive with a positive lead.
        reduced = not any(a.fold for a in self.atoms())
        return RatFunc(self.num ** n, self.den ** n, reduced=reduced)

    def atoms(self):
        return self.num.atoms() | self.den.atoms()

    def free_symbols(self):
        return self.num.free_symbols() | self.den.free_symbols()

    def __repr__(self):
        return f"RatFunc({self.num!r}/{self.den!r})"

    def __str__(self):
        # the printer imports this module
        from .printer import ratfunc_text

        return ratfunc_text(self)


def _reduce_fraction(num: Poly, den: Poly):
    if num.is_zero():
        return POLY_ZERO, POLY_ONE
    if den.is_const():
        return _scaled(num, den.den, den.terms[MONOMIAL_ONE]), POLY_ONE
    g = poly_gcd(num, den)
    if not g.is_const():
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
    # divide both by den's content c / den.den, leaving den primitive
    c = den._signed_gcd()
    num = _scaled(num, den.den, c)
    if den.is_const():
        return num, POLY_ONE
    return num, den.primitive_part()


RAT_ZERO = RatFunc.const(0)
RAT_ONE = RatFunc.const(1)


def rat_sum(rfs) -> RatFunc:
    """Sum of RatFuncs, bucketed by denominator so that a long sum costs
    polynomial adds, with one reduction per distinct denominator."""
    buckets = {}
    for rf in rfs:
        k = rf.den.key()
        if k in buckets:
            buckets[k][1] = buckets[k][1] + rf.num
        else:
            buckets[k] = [rf.den, rf.num]
    out = RAT_ZERO
    for den, num in buckets.values():
        out = out + RatFunc(num, den)
    return out
