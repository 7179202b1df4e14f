"""Exact symbolic expression kernel.

Expressions are immutable trees over arbitrary-precision rationals,
symbols, opaque functions such as M(t) and their derivatives, sums,
products, rational powers, and elementary functions.
canonical_ratfunc reduces a tree to a rational function (RatFunc) over
kernel atoms, with cot/csc/tan/sec rewritten to sin/cos and cos^2
eliminated; RatFunc.is_zero tests its numerator.  The calculus (derive,
substitute_atoms, substitute_function, collect_ratfunc,
split_monomials) runs on RatFuncs, and fn_ratfunc and pow_ratfunc build
elementary functions and rational powers of them; there is no calculus
on trees.  Outside this package, canonical_ratfunc runs only where text
is parsed, and render_ratfunc only where a RatFunc is printed:
str(RatFunc) is the text of its rendered tree.
"""

from .calculus import (
    NonPolynomialError,
    collect_ratfunc,
    derive,
    split_monomials,
    substitute_atoms,
    substitute_function,
)
from .canonical import canonical_ratfunc, fn_ratfunc, pow_ratfunc, render_ratfunc
from .nodes import Add, ELEMENTARY_FUNCTIONS, Expr, Fn, Mul, Num, Op, Pow, Sym
from .parser import ExprSyntaxError, UnknownFunctionError, parse_expr
from .printer import to_text

__all__ = [
    "Add",
    "ELEMENTARY_FUNCTIONS",
    "Expr",
    "ExprSyntaxError",
    "Fn",
    "Mul",
    "NonPolynomialError",
    "Num",
    "Op",
    "Pow",
    "Sym",
    "UnknownFunctionError",
    "canonical_ratfunc",
    "collect_ratfunc",
    "derive",
    "fn_ratfunc",
    "parse_expr",
    "pow_ratfunc",
    "render_ratfunc",
    "split_monomials",
    "substitute_atoms",
    "substitute_function",
    "to_text",
]
