"""Immutable expression trees over exact rationals.

Node kinds: rational constants, named symbols, opaque function
applications (with a partial-derivative multi-order), n-ary sums and
products, rational powers, and elementary function applications.
All nodes are frozen and simplify nothing; trees are built through the
node constructors and `Add.of` / `Mul.of`.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

ELEMENTARY_FUNCTIONS = ("sin", "cos", "tan", "cot", "csc", "sec", "exp", "ln", "arctan")


class Expr:
    """Base class for all expression tree nodes."""

    __slots__ = ()

    def __str__(self):
        from .printer import to_text

        return to_text(self)

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"

    def free_symbols(self) -> frozenset:
        raise NotImplementedError


class Num(Expr):
    """Rational constant, stored in lowest terms with positive denominator."""

    __slots__ = ("value",)

    def __init__(self, value: int | Fraction):
        object.__setattr__(self, "value", Fraction(value))

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __eq__(self, other):
        return isinstance(other, Num) and self.value == other.value

    def __hash__(self):
        return hash(("num", self.value))

    def free_symbols(self):
        return frozenset()


class Sym(Expr):
    """Named symbol (coordinate, jet variable, or parameter)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __eq__(self, other):
        return isinstance(other, Sym) and self.name == other.name

    def __hash__(self):
        return hash(("sym", self.name))

    def free_symbols(self):
        return frozenset([self.name])


class Add(Expr):
    """Sum of two or more terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Expr]):
        object.__setattr__(self, "terms", tuple(terms))
        if len(self.terms) < 1:
            raise ValueError("Add requires at least one term")

    @staticmethod
    def of(*terms) -> Expr:
        flat = []
        for t in terms:
            if isinstance(t, Add):
                flat.extend(t.terms)
            else:
                flat.append(t)
        if len(flat) == 1:
            return flat[0]
        return Add(flat)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __eq__(self, other):
        return isinstance(other, Add) and self.terms == other.terms

    def __hash__(self):
        return hash(("add", self.terms))

    def free_symbols(self):
        out = frozenset()
        for t in self.terms:
            out |= t.free_symbols()
        return out


class Mul(Expr):
    """Product of two or more factors."""

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[Expr]):
        object.__setattr__(self, "factors", tuple(factors))
        if len(self.factors) < 1:
            raise ValueError("Mul requires at least one factor")

    @staticmethod
    def of(*factors) -> Expr:
        flat = []
        for f in factors:
            if isinstance(f, Mul):
                flat.extend(f.factors)
            else:
                flat.append(f)
        if len(flat) == 1:
            return flat[0]
        return Mul(flat)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __eq__(self, other):
        return isinstance(other, Mul) and self.factors == other.factors

    def __hash__(self):
        return hash(("mul", self.factors))

    def free_symbols(self):
        out = frozenset()
        for f in self.factors:
            out |= f.free_symbols()
        return out


class Pow(Expr):
    """Power with a fixed rational exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int | Fraction):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", Fraction(exponent))

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Pow)
            and self.base == other.base
            and self.exponent == other.exponent
        )

    def __hash__(self):
        return hash(("pow", self.base, self.exponent))

    def free_symbols(self):
        return self.base.free_symbols()


class Fn(Expr):
    """Elementary function application (sin, cos, ..., exp, ln, arctan).

    sqrt is not a node kind: the parser lowers sqrt(u) to Pow(u, 1/2).
    """

    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expr):
        if name not in ELEMENTARY_FUNCTIONS:
            raise ValueError(f"not an elementary function: {name}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arg", arg)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __eq__(self, other):
        return isinstance(other, Fn) and self.name == other.name and self.arg == other.arg

    def __hash__(self):
        return hash(("fn", self.name, self.arg))

    def free_symbols(self):
        return self.arg.free_symbols()


class Op(Expr):
    """Opaque function application, e.g. M(t) or its derivative D(M, t, 2).

    `args` are the declared argument symbol names; `orders` is the
    partial-derivative multi-order aligned with `args`.  Each order is a
    non-negative integer.
    """

    __slots__ = ("name", "args", "orders")

    def __init__(self, name: str, args: Iterable[str], orders: Iterable[int] = None):
        args = tuple(args)
        if orders is None:
            orders = (0,) * len(args)
        orders = tuple(int(k) for k in orders)
        if len(orders) != len(args):
            raise ValueError("derivative multi-order must align with arguments")
        if any(k < 0 for k in orders):
            raise ValueError("derivative orders must be non-negative")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "orders", orders)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Op)
            and self.name == other.name
            and self.args == other.args
            and self.orders == other.orders
        )

    def __hash__(self):
        return hash(("op", self.name, self.args, self.orders))

    def free_symbols(self):
        return frozenset(self.args)

