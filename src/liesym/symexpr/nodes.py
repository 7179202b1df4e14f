"""Kernel atoms: the variables of the polynomial layer.

An expression's canonical form (a RatFunc) is a fraction of polynomials
over Q in atoms: named symbols, opaque function applications such as
M(t) and their partial derivatives, elementary function applications
keyed by the canonical form of their argument, and fractional powers
keyed by an integral polynomial base.  The parser reads text straight
into RatFuncs over these atoms, and the printer writes them back.
"""

from __future__ import annotations

# The function names the parser reads; tan, cot, csc and sec become
# quotients of sin and cos, so only sin, cos, exp, ln and arctan occur
# in atoms.
ELEMENTARY_FUNCTIONS = ("sin", "cos", "tan", "cot", "csc", "sec", "exp", "ln", "arctan")

# key -> the one Atom with that key (see Atom)
_ATOMS = {}


class Atom:
    """A kernel variable of the polynomial layer.

    kind is one of:
      "sym"  payload = symbol name
      "op"   payload = (name, args, orders)
      "fn"   payload = (fname, arg RatFunc)
      "pow"  payload = (integral base Poly, fractional exponent in (0,1))

    `fold` marks the atoms a rewrite rule acts on: 1 for cos, 2 for
    fractional powers, 0 for the rest.

    Atoms are interned by key: constructing an atom whose key exists
    returns the one instance already made, so equal atoms are identical
    and equality and hashing are by identity.  The table lives as long
    as the process; it holds each distinct atom once.
    """

    __slots__ = ("kind", "payload", "fold", "_key")

    def __new__(cls, kind, payload):
        # Kind ranks keep the rewrite rules monotone under the monomial
        # order: cos must rank above sin (cos^2 -> 1 - sin^2 decreases),
        # and fractional-power atoms above everything (folding decreases).
        # The key is built here because every monomial product compares it.
        fold = 0
        if kind == "sym":
            key = (0, "sym", payload)
        elif kind == "op":
            name, args, orders = payload
            key = (1, "op", name, args, orders)
        elif kind == "fn":
            fname, arg = payload
            if fname == "cos":
                fold = 1
                fname = "~cos"
            key = (2, fname, arg.key())
        else:
            base, frac = payload
            fold = 2
            key = (3, base.key(), (frac.numerator, frac.denominator))
        atom = _ATOMS.get(key)
        if atom is None:
            atom = object.__new__(cls)
            atom.kind = kind
            atom.payload = payload
            atom.fold = fold
            atom._key = key
            _ATOMS[key] = atom
        return atom

    def key(self):
        return self._key

    def __lt__(self, other):
        return self._key < other._key

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
