"""Exact symbolic expression kernel.

Expressions are immutable trees over arbitrary-precision rationals,
symbols, opaque functions such as M(t) and their derivatives, sums,
products, rational powers, and elementary functions.
canonical_ratfunc reduces a tree to a rational function (RatFunc) over
kernel atoms, with cot/csc/tan/sec rewritten to sin/cos and cos^2
eliminated; is_zero tests its numerator.  The calculus (derive,
substitute_atoms, collect_ratfunc) runs on RatFuncs, and
render_ratfunc turns a result back into a tree at file and report
boundaries.
"""

from .calculus import (
    NonPolynomialError,
    collect,
    collect_ratfunc,
    derive,
    differentiate,
    equals,
    evaluate_rational,
    is_zero,
    substitute,
    substitute_atoms,
    substitute_function,
)
from .canonical import canonical_ratfunc, render_ratfunc, to_canonical
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
    "collect",
    "collect_ratfunc",
    "derive",
    "differentiate",
    "equals",
    "evaluate_rational",
    "is_zero",
    "parse_expr",
    "render_ratfunc",
    "substitute",
    "substitute_atoms",
    "substitute_function",
    "to_canonical",
    "to_text",
]
