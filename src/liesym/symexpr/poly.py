"""Exact multivariate polynomial and rational-function arithmetic.

The canonical form of an expression is a reduced fraction of two
polynomials over Q whose variables ("atoms") are the kernel set:
plain symbols, opaque function applications, elementary function
applications keyed by the canonical form of their argument, and
fractional powers keyed by a primitive polynomial base.

Two rewrite rules act at the monomial level and keep the
representation canonical:

  * cos(u)^k with k >= 2 is reduced via cos(u)^2 -> 1 - sin(u)^2, for
    any argument u, so cosine exponents in stored monomials are 0 or 1;
  * integer powers of a fractional-power atom fold back into the base,
    e.g. (B^(1/2))^2 -> B.

Polynomial gcd is computed in the free commutative ring on the reduced
monomials (primitive PRS); this is enough to make equal inputs
canonicalize identically for everything built from the supported
operations, and zero-testing is sound and complete because the reduced
monomials are linearly independent functions.
"""

from __future__ import annotations

from fractions import Fraction


class Atom:
    """A kernel variable of the polynomial layer.

    kind is one of:
      "sym"  payload = symbol name
      "op"   payload = (name, args, orders)
      "fn"   payload = (fname, arg RatFunc)
      "pow"  payload = (base Poly, fractional exponent in (0,1))
    """

    __slots__ = ("kind", "payload", "_key", "_hash")

    def __init__(self, kind, payload):
        self.kind = kind
        self.payload = payload
        self._key = None
        self._hash = None

    def key(self):
        # Kind ranks keep the rewrite rules monotone under the monomial
        # order: cos must rank above sin (cos^2 -> 1 - sin^2 decreases),
        # and fractional-power atoms above everything (folding decreases).
        if self._key is None:
            if self.kind == "sym":
                self._key = (0, "sym", self.payload)
            elif self.kind == "op":
                name, args, orders = self.payload
                self._key = (1, "op", name, args, orders)
            elif self.kind == "fn":
                fname, arg = self.payload
                rank = "~cos" if fname == "cos" else fname
                self._key = (2, rank, arg.key())
            else:
                base, frac = self.payload
                self._key = (3, base.key(), (frac.numerator, frac.denominator))
        return self._key

    def __eq__(self, other):
        return isinstance(other, Atom) and self.key() == other.key()

    def __lt__(self, other):
        return self.key() < other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        return f"Atom({self.kind}, {self.payload!r})"

    def free_symbols(self):
        if self.kind == "sym":
            return frozenset([self.payload])
        if self.kind == "op":
            return frozenset(self.payload[1])
        if self.kind == "fn":
            return self.payload[1].free_symbols()
        return self.payload[0].free_symbols()


def sym_atom(name: str) -> Atom:
    return Atom("sym", name)


def op_atom(name, args, orders) -> Atom:
    return Atom("op", (name, tuple(args), tuple(orders)))


# A monomial is a tuple of (Atom, positive int exponent) sorted by atom
# key; the empty tuple is the constant monomial 1.
MONOMIAL_ONE = ()


def monomial_key(mono):
    return tuple((a.key(), e) for a, e in mono)


def monomial_free_symbols(mono):
    out = frozenset()
    for a, _ in mono:
        out |= a.free_symbols()
    return out


def _merge_exponents(m1, m2):
    d = {}
    for a, e in m1:
        d[a] = d.get(a, 0) + e
    for a, e in m2:
        d[a] = d.get(a, 0) + e
    return d


def _needs_reduction(expmap):
    for a, e in expmap.items():
        if a.kind == "fn" and a.payload[0] == "cos" and e >= 2:
            return True
        if a.kind == "pow" and e >= 2:
            return True
    return False


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
        k1, k2 = a1.key(), a2.key()
        if k1 != k2:
            return k1 > k2
        if e1 != e2:
            return e1 > e2
        i -= 1
        j -= 1
    return i >= 0


def _reduce_expmap(expmap) -> "Poly":
    """Rewrite an exponent map into a canonical Poly."""
    plain = {}
    pending = []  # (Poly factor) pieces to multiply in
    for a, e in expmap.items():
        if e == 0:
            continue
        if a.kind == "pow":
            base, frac = a.payload
            total = frac * e
            whole, rem = divmod(total.numerator, total.denominator)
            if whole:
                pending.append(base ** whole)
            if rem:
                na = Atom("pow", (base, Fraction(rem, total.denominator)))
                plain[na] = plain.get(na, 0) + 1
        elif a.kind == "fn" and a.payload[0] == "cos" and e >= 2:
            # cos^2 -> 1 - sin^2, applied (e // 2) times
            half, odd = divmod(e, 2)
            sin_a = Atom("fn", ("sin", a.payload[1]))
            one_minus_sin2 = Poly({MONOMIAL_ONE: Fraction(1), ((sin_a, 2),): Fraction(-1)})
            pending.append(one_minus_sin2 ** half)
            if odd:
                plain[a] = plain.get(a, 0) + 1
        else:
            plain[a] = plain.get(a, 0) + e
    mono = tuple(sorted(plain.items(), key=lambda p: p[0].key()))
    result = Poly({mono: Fraction(1)})
    for piece in pending:
        result = result * piece
    return result


class Poly:
    """Multivariate polynomial: dict of monomial -> nonzero Fraction."""

    __slots__ = ("terms", "_key")

    def __init__(self, terms=None):
        self.terms = terms or {}
        self._key = None

    @staticmethod
    def const(c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly()
        return Poly({MONOMIAL_ONE: c})

    @staticmethod
    def atom(a: Atom, exp: int = 1) -> "Poly":
        return Poly({((a, exp),): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and MONOMIAL_ONE in self.terms)

    def const_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        return self.terms[MONOMIAL_ONE]

    def key(self):
        if self._key is None:
            items = sorted(
                ((monomial_key(m), c) for m, c in self.terms.items()),
            )
            self._key = tuple((mk, (c.numerator, c.denominator)) for mk, c in items)
        return self._key

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, Fraction(0)) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return Poly(out)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly()
        if c == 1:
            return self
        return Poly({m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Fraction):
            return self.scale(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = c1 * c2
                expmap = _merge_exponents(m1, m2)
                if _needs_reduction(expmap):
                    for m3, c3 in _reduce_expmap(expmap).terms.items():
                        nc = out.get(m3, Fraction(0)) + c * c3
                        if nc:
                            out[m3] = nc
                        else:
                            out.pop(m3, None)
                else:
                    mono = tuple(sorted(expmap.items(), key=lambda p: p[0].key()))
                    nc = out.get(mono, Fraction(0)) + c
                    if nc:
                        out[mono] = nc
                    else:
                        out.pop(mono, None)
        return Poly(out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of Poly")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        """Leading (monomial, coeff) under the multiplicative lex order."""
        best = None
        for m in self.terms:
            if best is None or monomial_gt(m, best):
                best = m
        return best, self.terms[best]

    def content(self) -> Fraction:
        """Rational content with the sign of the leading coefficient."""
        if self.is_zero():
            return Fraction(0)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = _gcd_int(num_gcd, abs(c.numerator))
            den_lcm = _lcm_int(den_lcm, c.denominator)
        cont = Fraction(num_gcd, den_lcm)
        _, lead = self.leading()
        if lead < 0:
            cont = -cont
        return cont

    def primitive(self):
        """(content, primitive part) with positive leading coefficient."""
        if self.is_zero():
            return Fraction(0), self
        cont = self.content()
        return cont, self.scale(1 / cont)

    def degree_in(self, atom: Atom) -> int:
        d = 0
        for m in self.terms:
            for a, e in m:
                if a == atom and e > d:
                    d = e
        return d

    def coeffs_in(self, atom: Atom):
        """Split as a univariate polynomial in `atom`: degree -> Poly."""
        out = {}
        for m, c in self.terms.items():
            deg = 0
            rest = []
            for a, e in m:
                if a == atom:
                    deg = e
                else:
                    rest.append((a, e))
            rest = tuple(rest)
            bucket = out.setdefault(deg, {})
            bucket[rest] = bucket.get(rest, Fraction(0)) + c
        return {d: Poly({m: c for m, c in t.items() if c}) for d, t in out.items()}

    def __repr__(self):
        return f"Poly({len(self.terms)} terms)"


def _gcd_int(a, b):
    import math

    return math.gcd(a, b)


def _lcm_int(a, b):
    import math

    return a * b // math.gcd(a, b)


POLY_ZERO = Poly()
POLY_ONE = Poly.const(1)


def poly_divexact(p: Poly, d: Poly) -> Poly:
    """Exact division p / d in the free ring; raises if not exact."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if d.is_const():
        return p.scale(1 / d.const_value())
    quot = Poly()
    rem = p
    dm, dc = d.leading()
    dset = dict(dm)
    while not rem.is_zero():
        rm, rc = rem.leading()
        rset = dict(rm)
        qexp = {}
        ok = True
        for a, e in dset.items():
            re = rset.get(a, 0)
            if re < e:
                ok = False
                break
            qexp[a] = re - e
        if not ok:
            raise ValueError("inexact polynomial division")
        for a, e in rset.items():
            if a not in dset:
                qexp[a] = qexp.get(a, 0) + e
        qmono = tuple(sorted(((a, e) for a, e in qexp.items() if e), key=lambda t: t[0].key()))
        qterm = Poly({qmono: rc / dc})
        quot = quot + qterm
        rem = rem - qterm * d
    return quot


def _pseudo_rem(p, q, atom):
    """Pseudo-remainder of p by q, both viewed univariate in atom."""
    pc = p.coeffs_in(atom)
    qc = q.coeffs_in(atom)
    dp = max(pc)
    dq = max(qc)
    lead_q = qc[dq]
    while not p.is_zero():
        pc = p.coeffs_in(atom)
        dp = max(pc)
        if dp < dq:
            break
        lead_p = pc[dp]
        shift = Poly.atom(atom) ** (dp - dq)
        p = p * lead_q - q * (lead_p * shift)
    return p


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Gcd in the free ring on atoms, primitive with positive lead."""
    if p.is_zero():
        return q.primitive()[1] if not q.is_zero() else POLY_ZERO
    if q.is_zero():
        return p.primitive()[1]
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
    atom = max(common)
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
    return (cont_gcd * g).primitive()[1]


def _monomial_gcd(p: Poly, q: Poly) -> Poly:
    def common_part(poly):
        it = iter(poly.terms)
        first = dict(next(it))
        for m in it:
            d = dict(m)
            first = {a: min(e, d[a]) for a, e in first.items() if a in d}
            if not first:
                break
        return first
    cp = common_part(p)
    cq = common_part(q)
    shared = {a: min(e, cq[a]) for a, e in cp.items() if a in cq}
    mono = tuple(sorted(shared.items(), key=lambda t: t[0].key()))
    return Poly({mono: Fraction(1)})


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
        return RatFunc(self.num ** n, self.den ** n)

    def atoms(self):
        return self.num.atoms() | self.den.atoms()

    def free_symbols(self):
        return self.num.free_symbols() | self.den.free_symbols()

    def __repr__(self):
        return f"RatFunc({self.num!r}/{self.den!r})"


def _reduce_fraction(num: Poly, den: Poly):
    if num.is_zero():
        return POLY_ZERO, POLY_ONE
    if den.is_const():
        c = den.const_value()
        return (num if c == 1 else num.scale(1 / c)), POLY_ONE
    g = poly_gcd(num, den)
    if not g.is_const():
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
    cont, den = den.primitive()
    num = num.scale(1 / cont)
    if den.is_const():
        num = num.scale(1 / den.const_value())
        den = POLY_ONE
    return num, den


RAT_ZERO = RatFunc.const(0)
RAT_ONE = RatFunc.const(1)
