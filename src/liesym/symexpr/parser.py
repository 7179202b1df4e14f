"""Recursive descent parser for the expression DSL, folding to RatFuncs.

Grammar:
    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' exponent)?
    base   := number | ident | ident '(' args ')' | '(' expr ')' | '-' factor
    exponent := ['-'] digits | '(' ['-'] digits ['/' digits] ')'

A bare exponent is an integer; rational exponents take parentheses, so
x^2/3 parses as (x^2)/3.  The derivative marker D(f, x, k) denotes the
k-th derivative of the opaque function f in x (k defaults to 1) and
extends to mixed partials as D(f, x1, k1, x2, k2, ...).  sqrt(u) reads
as u^(1/2).  Whitespace is insignificant.

Every grammar action calls a canonical constructor, so the parser reads
text straight into its canonical RatFunc: sums and products fold left
to right, and powers and elementary functions go through pow_ratfunc
and fn_ratfunc.  A kernel error met while folding (a zero denominator,
ln(0), an even root of a negative rational, an expansion past a cap) is
kept and raised only once the whole text has parsed, so a syntax error
anywhere in the text is reported before it.
"""

from __future__ import annotations

from fractions import Fraction

from .canonical import MAX_POWER_COEFFICIENT_BITS, fn_ratfunc, mul_ratfunc, pow_ratfunc
from .nodes import ELEMENTARY_FUNCTIONS, op_atom, sym_atom
from .poly import RatFunc, rat_sum

_PARSED_FUNCTIONS = ELEMENTARY_FUNCTIONS + ("sqrt",)
_MINUS_ONE = RatFunc.const(-1)


class ExprSyntaxError(ValueError):
    """Syntax error with a 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} at column {column}")
        self.message = message
        self.column = column


class UnknownFunctionError(ExprSyntaxError):
    pass


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.index = 0

    def _scan(self):
        text = self.text
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            col = i + 1
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append(("num", text[i:j], col))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], col))
                i = j
            elif ch in "+-*/^(),":
                self.tokens.append((ch, ch, col))
                i += 1
            else:
                raise ExprSyntaxError(f"unexpected character {ch!r}", col)
        self.tokens.append(("eof", "", n + 1))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok[0] != "eof":
            self.index += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}" if tok[0] != "eof"
                                  else f"unexpected end of input, expected {kind!r}", tok[2])
        return self.next()


class _Parser:
    def __init__(self, text: str, functions=None):
        self.toks = _Tokenizer(text)
        self.functions = functions
        self.symbols = set()
        self.error = None  # the first kernel error, raised after the parse

    def parse(self):
        e = self.expr()
        tok = self.toks.peek()
        if tok[0] != "eof":
            raise ExprSyntaxError(f"unexpected {tok[1]!r}", tok[2])
        if self.error is not None:
            raise self.error
        for p in (e.num, e.den):
            bits = max([p.den, *map(abs, p.terms.values())]).bit_length()
            if bits > MAX_POWER_COEFFICIENT_BITS:
                raise ValueError(f"a coefficient of the canonical form has {bits} bits, "
                                 f"above {MAX_POWER_COEFFICIENT_BITS}")
        return e, frozenset(self.symbols)

    def fold(self, build, *args):
        """build(*args); after a kernel error, None without building."""
        if self.error is not None:
            return None
        try:
            return build(*args)
        except (ZeroDivisionError, ValueError) as exc:
            self.error = exc
            return None

    def expr(self):
        terms = [self.term()]
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.next()[0]
            t = self.term()
            terms.append(t if op == "+" else self.fold(mul_ratfunc, _MINUS_ONE, t))
        return self.fold(rat_sum, terms) if len(terms) > 1 else terms[0]

    def term(self):
        out = self.factor()
        while self.toks.peek()[0] in ("*", "/"):
            op = self.toks.next()[0]
            f = self.factor()
            if op == "/":
                f = self.fold(pow_ratfunc, f, Fraction(-1))
            out = self.fold(mul_ratfunc, out, f)
        return out

    def factor(self):
        b = self.base()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            return self.fold(pow_ratfunc, b, self.exponent())
        return b

    def exponent(self) -> Fraction:
        tok = self.toks.peek()
        if tok[0] == "(":
            self.toks.next()
            sign = 1
            if self.toks.peek()[0] == "-":
                self.toks.next()
                sign = -1
            num = int(self.toks.expect("num")[1])
            den = 1
            if self.toks.peek()[0] == "/":
                self.toks.next()
                den = int(self.toks.expect("num")[1])
                if den == 0:
                    raise ExprSyntaxError("zero denominator in exponent", tok[2])
            self.toks.expect(")")
            return Fraction(sign * num, den)
        sign = 1
        if tok[0] == "-":
            self.toks.next()
            sign = -1
        return Fraction(sign * int(self.toks.expect("num")[1]))

    def base(self):
        tok = self.toks.peek()
        if tok[0] == "num":
            self.toks.next()
            return RatFunc.const(int(tok[1]))
        if tok[0] == "-":
            self.toks.next()
            return self.fold(mul_ratfunc, _MINUS_ONE, self.factor())
        if tok[0] == "(":
            self.toks.next()
            e = self.expr()
            self.toks.expect(")")
            return e
        if tok[0] == "ident":
            self.toks.next()
            if self.toks.peek()[0] != "(":
                self.symbols.add(tok[1])
                return RatFunc.atom(sym_atom(tok[1]))
            return self.application(tok[1], tok[2])
        raise ExprSyntaxError(
            f"expected expression, found {tok[1]!r}" if tok[0] != "eof"
            else "unexpected end of input", tok[2])

    def application(self, name: str, col: int):
        self.toks.expect("(")
        if name == "D":
            return self.derivative_marker(col)
        args = []
        bare = []  # per argument, the identifier when it is one alone
        while True:
            start = self.toks.index
            args.append(self.expr())
            idents = [t for t in self.toks.tokens[start:self.toks.index] if t[0] not in ("(", ")")]
            bare.append(idents[0][1] if len(idents) == 1 and idents[0][0] == "ident" else None)
            if self.toks.peek()[0] != ",":
                break
            self.toks.next()
        self.toks.expect(")")
        if name in _PARSED_FUNCTIONS:
            if len(args) != 1:
                raise ExprSyntaxError(f"{name} takes one argument", col)
            if name == "sqrt":
                return self.fold(pow_ratfunc, args[0], Fraction(1, 2))
            return self.fold(fn_ratfunc, name, args[0])
        return self.opaque(name, bare, col)

    def opaque(self, name: str, argnames, col: int):
        if None in argnames:
            raise UnknownFunctionError(
                f"unknown function {name!r} (opaque arguments must be symbols)", col)
        if self.functions is not None:
            declared = self.functions.get(name)
            if declared is None:
                raise UnknownFunctionError(f"unknown function {name!r}", col)
            if tuple(declared) != tuple(argnames):
                raise ExprSyntaxError(
                    f"{name} declared with arguments {tuple(declared)}", col)
        return RatFunc.atom(op_atom(name, argnames, (0,) * len(argnames)))

    def derivative_marker(self, col: int):
        tok = self.toks.expect("ident")
        fname = tok[1]
        if fname in _PARSED_FUNCTIONS or fname == "D":
            raise ExprSyntaxError("D applies to opaque functions only", tok[2])
        pairs = []
        while self.toks.peek()[0] == ",":
            self.toks.next()
            var = self.toks.expect("ident")[1]
            order = 1
            if self.toks.peek()[0] == ",":
                # Lookahead: a number here is an order, an ident starts
                # the next (variable, order) pair.
                if self.toks.tokens[self.toks.index + 1][0] == "num":
                    self.toks.next()
                    order = int(self.toks.expect("num")[1])
            pairs.append((var, order))
        self.toks.expect(")")
        if not pairs:
            raise ExprSyntaxError("malformed derivative marker: D(f, x, k)", col)
        if self.functions is not None:
            declared = self.functions.get(fname)
            if declared is None:
                raise UnknownFunctionError(f"unknown function {fname!r}", col)
            args = tuple(declared)
        else:
            args = tuple(v for v, _ in pairs)
        orders = [0] * len(args)
        for var, order in pairs:
            if var not in args:
                raise ExprSyntaxError(
                    f"{fname} does not depend on {var!r}", col)
            orders[args.index(var)] += order
        self.symbols.update(args)
        return RatFunc.atom(op_atom(fname, args, orders))


def parse_expr(text: str, functions=None):
    """Parse the DSL into (its canonical RatFunc, the symbol names it reads).

    The names are those of the bare symbols and of the arguments of
    every opaque function, read before anything cancels (w - w reads w).
    `functions`, when given, maps declared opaque function names to
    their argument symbol tuples and makes undeclared applications an
    error; without it any ident(symbol, ...) application is accepted as
    opaque.  Raises ExprSyntaxError for malformed text, then
    ZeroDivisionError or ValueError for text the kernel cannot
    represent, or whose canonical form has a coefficient of more than
    MAX_POWER_COEFFICIENT_BITS bits, too long to print: a product or sum
    of powers each below the kernel's cap can build one (7^4000*7^4000).
    """
    return _Parser(text, functions).parse()
