"""Exact symbolic expression kernel.

An expression is a RatFunc: a reduced fraction of polynomials over Q
in kernel atoms (symbols, opaque functions such as M(t) and their
derivatives, elementary function applications and fractional powers),
with cot/csc/tan/sec rewritten to sin/cos and cos^2 eliminated;
RatFunc.is_zero tests its numerator.  parse_expr reads text straight
into a RatFunc, str(RatFunc) prints one, and the calculus (derive,
substitute_atoms, substitute_function, collect_ratfunc,
split_monomials) runs on RatFuncs, with fn_ratfunc and pow_ratfunc
building elementary functions and rational powers of them.  There is
no expression tree.
"""

from .calculus import (
    NonPolynomialError,
    collect_ratfunc,
    derive,
    split_monomials,
    substitute_atoms,
    substitute_function,
)
from .canonical import fn_ratfunc, pow_ratfunc
from .parser import ExprSyntaxError, UnknownFunctionError, parse_expr

__all__ = [
    "ExprSyntaxError",
    "NonPolynomialError",
    "UnknownFunctionError",
    "collect_ratfunc",
    "derive",
    "fn_ratfunc",
    "parse_expr",
    "pow_ratfunc",
    "split_monomials",
    "substitute_atoms",
    "substitute_function",
]
