"""Fraction-coefficient polynomial arithmetic, kept as a test reference.

The kernel's `Poly` stores integer coefficients over one denominator and
multiplies monomials by a linear merge.  This module is the earlier
layout: a dict monomial -> Fraction, products built through exponent
dicts that are sorted and then checked for the rewrite rules.  It uses
the kernel's `Atom`s and applies the same rules (cos^2 -> 1 - sin^2,
fractional powers of one base folded, whole parts folded into the base),
so both must give the same polynomials, term for term.
"""

from __future__ import annotations

import math
from fractions import Fraction

from liesym.symexpr.nodes import Atom
from liesym.symexpr.poly import monomial_gt, monomial_key


def from_poly(p) -> "RefPoly":
    return RefPoly(dict(p.rational_terms()))


def _merge_exponents(m1, m2):
    d = {}
    for a, e in m1 + m2:
        d[a] = d.get(a, 0) + e
    return d


def _needs_reduction(expmap):
    bases = set()
    for a, e in expmap.items():
        if a.kind == "fn" and a.payload[0] == "cos" and e >= 2:
            return True
        if a.kind == "pow":
            if e >= 2 or a.payload[0].key() in bases:
                return True
            bases.add(a.payload[0].key())
    return False


def _reduce_expmap(expmap) -> "RefPoly":
    plain = {}
    pending = []
    powers = {}  # base key -> [base, total exponent]
    for a, e in expmap.items():
        if a.kind == "pow":
            base, frac = a.payload
            powers.setdefault(base.key(), [base, Fraction(0)])[1] += frac * e
        elif a.kind == "fn" and a.payload[0] == "cos" and e >= 2:
            half, odd = divmod(e, 2)
            sin_a = Atom("fn", ("sin", a.payload[1]))
            pending.append(RefPoly({(): Fraction(1), ((sin_a, 2),): Fraction(-1)}) ** half)
            if odd:
                plain[a] = 1
        else:
            plain[a] = e
    for base, total in powers.values():
        whole, rem = divmod(total.numerator, total.denominator)
        if whole:
            pending.append(from_poly(base) ** whole)
        if rem:
            plain[Atom("pow", (base, Fraction(rem, total.denominator)))] = 1
    result = RefPoly({tuple(sorted(plain.items(), key=lambda p: p[0].key())): Fraction(1)})
    for piece in pending:
        result = result * piece
    return result


class RefPoly:
    """dict of monomial -> nonzero Fraction."""

    def __init__(self, terms=None):
        self.terms = {m: Fraction(c) for m, c in (terms or {}).items() if c}

    def key(self):
        items = sorted((monomial_key(m), c) for m, c in self.terms.items())
        return tuple((mk, (c.numerator, c.denominator)) for mk, c in items)

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return RefPoly(out)

    def __neg__(self):
        return RefPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return RefPoly({m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                expmap = _merge_exponents(m1, m2)
                if _needs_reduction(expmap):
                    pieces = _reduce_expmap(expmap).terms.items()
                else:
                    pieces = [(tuple(sorted(expmap.items(), key=lambda p: p[0].key())), 1)]
                for m3, c3 in pieces:
                    out[m3] = out.get(m3, Fraction(0)) + c1 * c2 * c3
        return RefPoly(out)

    def __pow__(self, n):
        out = RefPoly({(): 1})
        for _ in range(n):
            out = out * self
        return out

    def atoms(self):
        return {a for m in self.terms for a, _ in m}

    def leading(self):
        best = None
        for m in self.terms:
            if best is None or monomial_gt(m, best):
                best = m
        return best, self.terms[best]

    def content(self):
        if not self.terms:
            return Fraction(0)
        num = math.gcd(*(c.numerator for c in self.terms.values()))
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        cont = Fraction(num, den)
        return -cont if self.leading()[1] < 0 else cont

    def primitive(self):
        if not self.terms:
            return Fraction(0), self
        cont = self.content()
        return cont, self.scale(1 / cont)

    def degree_in(self, atom):
        return max((e for m in self.terms for a, e in m if a == atom), default=0)

    def coeffs_in(self, atom):
        out = {}
        for m, c in self.terms.items():
            deg = dict(m).get(atom, 0)
            rest = tuple((a, e) for a, e in m if a != atom)
            out.setdefault(deg, {})[rest] = c
        return {d: RefPoly(t) for d, t in out.items()}


ONE = RefPoly({(): 1})


def divexact(p: RefPoly, d: RefPoly) -> RefPoly:
    if d.is_const():
        return p.scale(1 / d.terms[()])
    quot = RefPoly()
    rem = p
    dm, dc = d.leading()
    dset = dict(dm)
    while not rem.is_zero():
        rm, rc = rem.leading()
        rset = dict(rm)
        if any(rset.get(a, 0) < e for a, e in dset.items()):
            raise ValueError("inexact polynomial division")
        qexp = {a: e - dset.get(a, 0) for a, e in rset.items()}
        qmono = tuple(sorted(((a, e) for a, e in qexp.items() if e), key=lambda t: t[0].key()))
        qterm = RefPoly({qmono: rc / dc})
        quot = quot + qterm
        rem = rem - qterm * d
    return quot


def _pseudo_rem(p, q, atom):
    qc = q.coeffs_in(atom)
    dq = max(qc)
    while not p.is_zero():
        pc = p.coeffs_in(atom)
        dp = max(pc)
        if dp < dq:
            break
        shift = RefPoly({((atom, dp - dq),): 1}) if dp > dq else ONE
        p = p * qc[dq] - q * (pc[dp] * shift)
    return p


def _monomial_gcd(p, q):
    def common_part(poly):
        parts = [dict(m) for m in poly.terms]
        return {a: min(d.get(a, 0) for d in parts) for a in parts[0]}
    cp, cq = common_part(p), common_part(q)
    shared = {a: min(e, cq.get(a, 0)) for a, e in cp.items()}
    return RefPoly({tuple(sorted(((a, e) for a, e in shared.items() if e),
                                 key=lambda t: t[0].key())): 1})


def _univ_content(p, atom):
    cont = RefPoly()
    for c in p.coeffs_in(atom).values():
        cont = gcd(cont, c)
        if cont.is_const():
            return ONE, p
    return cont, divexact(p, cont)


def gcd(p: RefPoly, q: RefPoly) -> RefPoly:
    """The kernel's gcd algorithm (primitive PRS) on Fraction coefficients."""
    if p.is_zero():
        return q.primitive()[1]
    if q.is_zero():
        return p.primitive()[1]
    if p.is_const() or q.is_const():
        return ONE
    if len(p.terms) == 1 or len(q.terms) == 1:
        return _monomial_gcd(p, q)
    common = p.atoms() & q.atoms()
    if not common:
        return ONE
    reducing = [a for a in p.atoms() | q.atoms()
                if a.kind == "pow" or (a.kind == "fn" and a.payload[0] == "cos")]
    atom = max(reducing) if reducing else max(common)
    pcont, a = _univ_content(p, atom)
    qcont, b = _univ_content(q, atom)
    cont_gcd = gcd(pcont, qcont)
    while True:
        if b.is_zero():
            g = a
            break
        if b.degree_in(atom) == 0:
            g = ONE
            break
        r = _pseudo_rem(a, b, atom)
        if r.is_zero():
            g = b
            break
        a, b = b, _univ_content(r, atom)[1]
    g = _univ_content(g, atom)[1] if not g.is_const() else ONE
    return (cont_gcd * g).primitive()[1]


def reduce_fraction(num: RefPoly, den: RefPoly):
    """num/den in lowest terms, den primitive with positive lead."""
    if num.is_zero():
        return RefPoly(), ONE
    if den.is_const():
        return num.scale(1 / den.terms[()]), ONE
    g = gcd(num, den)
    if not g.is_const():
        num, den = divexact(num, g), divexact(den, g)
    cont, den = den.primitive()
    return num.scale(1 / cont), den
