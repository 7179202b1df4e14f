"""Expression kernel: parsing, canonical form, calculus, collection."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liesym.symexpr import (
    ExprSyntaxError,
    NonPolynomialError,
    collect_ratfunc,
    derive,
    fn_ratfunc,
    parse_expr,
    pow_ratfunc,
    substitute_atoms,
    substitute_function,
)
from liesym.symexpr.canonical import MAX_NESTING
from liesym.symexpr.nodes import op_atom, sym_atom
from liesym.symexpr.poly import RAT_ONE, RAT_ZERO, RatFunc

from conftest import rf
from reference_calculus import evaluate_rational

SRC = Path(__file__).resolve().parent.parent / "src"


def _sym(name):
    return RatFunc.atom(sym_atom(name))


def _op(name, args, orders):
    return RatFunc.atom(op_atom(name, args, orders))


class TestParser:
    def test_metric_component(self):
        e, symbols = parse_expr("-(1 - M(t)/r + Q(t)/r^2)")
        m, q, r = _op("M", ("t",), (0,)), _op("Q", ("t",), (0,)), _sym("r")
        assert e == -(RAT_ONE - m / r + q / r ** 2)
        assert symbols == {"r", "t"}

    def test_power_of_function(self):
        e, symbols = parse_expr("sin(theta)^2")
        assert e == fn_ratfunc("sin", _sym("theta")) ** 2
        assert symbols == {"theta"}

    def test_incomplete_input_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("2*")
        assert err.value.column == 3

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("r^2*(1 + t")

    def test_derivative_marker(self):
        assert parse_expr("D(M, t)") == (_op("M", ("t",), (1,)), {"t"})
        assert parse_expr("D(M, t, 2)") == (_op("M", ("t",), (2,)), {"t"})
        assert parse_expr("D(f, x, 1, y, 2)") == (_op("f", ("x", "y"), (1, 2)), {"x", "y"})

    def test_malformed_derivative(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("D(M)")
        with pytest.raises(ExprSyntaxError):
            parse_expr("D(sin, t)")

    def test_declared_functions(self):
        fns = {"M": ("t",)}
        assert parse_expr("M(t)", fns) == (_op("M", ("t",), (0,)), {"t"})
        with pytest.raises(ExprSyntaxError):
            parse_expr("Q(t)", fns)

    def test_opaque_with_nonsymbol_argument(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("W(t + 1)")

    def test_rational_exponent_needs_parens(self):
        # x^2/3 is (x^2)/3 under the grammar
        assert (rf("x^2/3") - rf("(x^2)/3")).is_zero()
        assert parse_expr("x^(1/2)")[0] == pow_ratfunc(_sym("x"), Fraction(1, 2))
        assert parse_expr("x^-2")[0] == _sym("x") ** -2

    def test_sqrt_lowering(self):
        assert parse_expr("sqrt(x)")[0] == pow_ratfunc(_sym("x"), Fraction(1, 2))

    @pytest.mark.parametrize("opener, closer", [
        ("(", ")"), ("-", ""), ("sin(", ")"), ("-(", ")"),
    ], ids=["parentheses", "unary-minus", "function", "minus-and-parentheses"])
    def test_nesting_cap(self, opener, closer):
        # each opener nests one level (two for "-("); past MAX_NESTING
        # the parse stops at the opener that crosses it, before recursing
        per = 2 if opener == "-(" else 1
        at_cap = MAX_NESTING // per
        parse_expr(opener * at_cap + "x" + closer * at_cap)
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(opener * (at_cap + 1) + "x" + closer * (at_cap + 1))
        assert err.value.message == f"nesting deeper than {MAX_NESTING}"
        assert err.value.column == MAX_NESTING * len(opener) // per + 1

    def test_nesting_counts_depth_not_width(self):
        # siblings close their level before the next one opens
        wide = " + ".join(["sin((x))"] * (4 * MAX_NESTING))
        assert parse_expr(wide)[0] == RatFunc.const(4 * MAX_NESTING) * fn_ratfunc("sin", _sym("x"))


class TestCanonical:
    def test_pythagorean_identity(self):
        assert rf("sin(theta)^2 + cos(theta)^2 - 1").is_zero()

    def test_cot_rewrites(self):
        assert rf("cot(theta)*sin(theta) - cos(theta)").is_zero()
        assert rf("csc(x)*sin(x) - 1").is_zero()
        assert rf("tan(x) - sin(x)/cos(x)").is_zero()
        assert rf("sec(x)*cos(x) - 1").is_zero()

    def test_opaque_kernel_is_atomic(self):
        assert str(rf("D(M, t)/r")) == "D(M, t)/r"

    def test_idempotent(self):
        once = rf("(r - 2*t)/(2*r^3) + cot(theta)^2")
        assert rf(str(once)) == once

    def test_unique_for_equal_inputs(self):
        a = rf("(x + y)^2")
        b = rf("x^2 + 2*x*y + y^2")
        assert a == b and str(a) == str(b)

    def test_rational_normal_form(self):
        assert rf("(x^2 - y^2)/(x + y) - x + y").is_zero()

    def test_fractional_powers_fold(self):
        assert (rf("sqrt(x)*sqrt(x)") - rf("x")).is_zero()
        assert str(rf("sqrt(8)")) == "2*(2)^(1/2)"

    def test_fractional_powers_of_one_base_fold(self):
        assert rf("r^(1/3)*r^(2/3) - r").is_zero()
        assert rf("r^(1/2)*r^(1/3) - r^(5/6)").is_zero()
        assert str(rf("r^(2/3)*r^(1/3)*r^(1/3)")) == "r*r^(1/3)"
        # at most one power atom per base, with exponent 1
        for text in ("r^(2/3)*r^(1/3)*r^(1/3)", "(r^(1/3))^5*sqrt(r)*y", "r^(1/6)*r^(5/6)*r^(1/2)"):
            for mono in rf(text).num.terms:
                powers = [(a.payload[0].key(), e) for a, e in mono if a.kind == "pow"]
                assert all(e == 1 for _, e in powers), text
                assert len({base for base, _ in powers}) == len(powers), text

    def test_angle_addition_support(self):
        assert (rf("sin(a + b)") - rf("sin(a)*cos(b) + cos(a)*sin(b)")).is_zero()
        assert (rf("exp(a + b)") - rf("exp(a)*exp(b)")).is_zero()
        assert rf("cos(0) - 1").is_zero()

    def test_arctan_inert(self):
        assert str(rf("arctan(x/y)")) == "arctan(x/y)"

    def test_adversarial_trig_identities(self):
        zeros = [
            "(sin(u) + cos(u))^2 - 1 - 2*sin(u)*cos(u)",
            "sin(u)^4 - (1 - cos(u)^2)^2",
            "cos(u)^3 - cos(u)*(1 - sin(u)^2)",
            "cot(u)^2 - csc(u)^2 + 1",
            "sin(3*u) - 3*sin(u) + 4*sin(u)^3",
            "cos(2*u) - 1 + 2*sin(u)^2",
            "sin(u + v + w)"
            " - (sin(u)*cos(v)*cos(w) + cos(u)*sin(v)*cos(w)"
            "    + cos(u)*cos(v)*sin(w) - sin(u)*sin(v)*sin(w))",
            "exp(2*u)/exp(u)^2 - 1",
            "tan(u)*cot(u) - 1",
        ]
        for text in zeros:
            assert rf(text).is_zero(), text

    @pytest.mark.parametrize("n", range(2, 31))
    def test_integer_multiple_addition_formula(self, n):
        assert rf(
            f"sin({n}*x) - (sin({n - 1}*x)*cos(x) + cos({n - 1}*x)*sin(x))").is_zero()

    def test_trig_of_large_integer_multiple_is_fast(self):
        # sin and cos of n*w are stepped once per unit of n; expanding
        # both from (n-1)*w at every step took time 2^n.
        code = ("from liesym.symexpr import parse_expr\n"
                "for text in ('cot(27)', 'cot(27*x)'):\n"
                "    print(len(str(parse_expr(text)[0])))\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=30)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["656", "656"]

    @pytest.mark.parametrize("text, expected", [
        ("x^99999999", "x^99999999"),
        ("sin(x)^99999999", "sin(x)^99999999"),
        ("exp(99999999*x)", "exp(x)^99999999"),
        ("(2^200)^(1/2)", str(2 ** 100)),
        ("(x^(1/2))^99999999", "x^49999999*x^(1/2)"),
        ("(x+1)^64", "65"),     # terms at the exponent cap
        ("sin(100*x)", "50"),   # terms at the multiple cap
        ("(a+b+c+d+e+f+g+1)^7", "3432"),  # the power of 8 terms at the term cap
        # sin of 13 terms: 2^12 products, under the term cap
        ("sin(" + "+".join(f"v{i}" for i in range(13)) + ")", "4096"),
    ])
    def test_input_at_or_below_the_caps_canonicalizes_in_budget(self, text, expected):
        # a monomial power, an atom power, a power of a radical of a
        # monomial and exp of a multiple stay one term whatever the
        # exponent; a fully factored radicand has no cofactor for trial
        # division
        code = ("import sys\n"
                "from liesym.symexpr import parse_expr\n"
                "rf = parse_expr(sys.argv[1])[0]\n"
                "print(len(rf.num.terms) if len(rf.num.terms) > 1 else str(rf))\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code, text], env=env, capture_output=True,
                             text=True, timeout=10)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == expected

    @pytest.mark.parametrize("text, message", [
        ("(x+1)^65", "integer part is above 64"),
        ("(x+1)^(-131/2)", "integer part is above 64"),
        ("cos(x)^65", "integer part is above 64"),
        ("((x+1)^(1/2))^65", "integer part is above 64"),
        ("sin(101*x)", "multiple is above 100"),
        ("cos(x + 101*y)", "multiple is above 100"),
        ("(1000003*1000033)^(1/3)", "no prime factor up to 1000000"),
        ("(x+y+z+1)^64", "more than 5000 terms"),
        ("((x+y+z+1)^60)^60", "more than 5000 terms"),
        # one term whose cos factors expand through cos^2 = 1 - sin^2
        ("(cos(x)*cos(y)*cos(z))^64", "more than 5000 terms"),
        # a power of a radical of a sum folds into a power of the sum
        ("((a+b+c+d+e+1)^(1/2))^64", "more than 5000 terms"),
        # a product of powers that are each under the cap
        ("(x+y+z+1)^20*(a+b+c+1)^20", "more than 5000 terms"),
        # the addition formulas would give sin of 20 terms 2^19 terms
        ("sin(" + "+".join(f"v{i}" for i in range(20)) + ")", "more than 5000 terms"),
    ])
    def test_input_above_the_caps_is_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_expr(text)

    def test_structurally_close_nonzero(self):
        nonzeros = [
            "sin(u)^2 + cos(v)^2 - 1",
            "sin(u)*cos(u) - sin(u)^2",
            "exp(u)*exp(v) - 1",
            "sqrt(x^2) - x",
        ]
        for text in nonzeros:
            assert not rf(text).is_zero(), text


class TestDifferentiate:
    def test_cot_rule(self):
        d = derive(rf("cot(theta)"), {"theta": RAT_ONE})
        assert (d - rf("-1/sin(theta)^2")).is_zero()

    def test_opaque_chain_rule(self):
        d = derive(rf("M(t)^2"), {"t": RAT_ONE})
        assert (d - rf("2*M(t)*D(M, t)")).is_zero()

    def test_power_rule(self):
        d = derive(rf("Q(t)/r^2"), {"r": RAT_ONE})
        assert (d - rf("-2*Q(t)/r^3")).is_zero()

    def test_opaque_independent_symbol(self):
        assert derive(rf("M(t)"), {"s": RAT_ONE}).is_zero()

    def test_second_order(self):
        d2 = derive(derive(rf("M(t)"), {"t": RAT_ONE}), {"t": RAT_ONE})
        assert d2 == _op("M", ("t",), (2,))

    def test_elementary_rules(self):
        x = {"x": RAT_ONE}
        assert (derive(rf("exp(x^2)"), x) - rf("2*x*exp(x^2)")).is_zero()
        assert (derive(rf("ln(x)"), x) - rf("1/x")).is_zero()
        assert (derive(rf("arctan(x)"), x) - rf("1/(1 + x^2)")).is_zero()
        assert (derive(rf("sqrt(x)"), x) - rf("1/(2*sqrt(x))")).is_zero()

    @pytest.mark.parametrize("text, derivative", [
        ("x + y + tan(x)", "1 + 1/cos(x)^2"),
        ("tan(x) + D(M, y)^2", "1/cos(x)^2"),
    ])
    def test_tangent_over_cosine_terminates(self, text, derivative):
        # Reducing the derivative takes a gcd whose coefficients in sin(x)
        # carry cos(x); a pseudo-remainder in sin(x) then never ends.
        d = derive(rf(text, {"M": ("y",)}), {"x": RAT_ONE})
        assert (d - rf(derivative)).is_zero()


class TestSubstitute:
    def test_jet_symbol(self):
        out = substitute_atoms(rf("tddot + r"), {sym_atom("tddot"): RAT_ZERO}.get)
        assert (out - rf("r")).is_zero()

    def test_opaque_application(self):
        out = substitute_atoms(rf("M(t)"), {op_atom("M", ("t",), (0,)): RAT_ONE}.get)
        assert (out - RAT_ONE).is_zero()

    def test_simultaneous(self):
        swap = {sym_atom("x"): rf("y"), sym_atom("y"): rf("x")}
        out = substitute_atoms(rf("x + y"), swap.get)
        assert (out - rf("x + y")).is_zero()

    def test_function_instantiation(self):
        out = substitute_function(rf("D(M, t) + M(t)"), {"M": rf("t^2")})
        assert (out - rf("t^2 + 2*t")).is_zero()


class TestIsZero:
    def test_nonzero_monomial(self):
        assert not rf("D(M, t)*tdot^2/r").is_zero()

    def test_rational_identity_sampled(self):
        # 1/(x-1) - 1/x - 1/(x^2 - x) == 0; double-checked by exact
        # rational evaluation at 8 sample points.
        e = rf("1/(x - 1) - 1/x - 1/(x^2 - x)")
        assert e.is_zero()
        import random

        rng = random.Random(11)
        checked = 0
        while checked < 8:
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            if x in (0, 1):
                continue
            val = 1 / (x - 1) - 1 / x - 1 / (x * x - x)
            assert val == 0
            assert evaluate_rational(e, {"x": x}) == 0
            checked += 1

    def test_debug_sampler_agrees(self):
        assert rf("(x + 1)^2 - x^2 - 2*x - 1").is_zero()
        assert not rf("(x + 1)^2 - x^2").is_zero()


class TestCollect:
    def test_simple(self):
        got = collect_ratfunc(rf("tdot^2 + 2*r*tdot*rdot"), ["tdot", "rdot"])
        assert set(got) == {(2, 0), (1, 1)}
        assert (got[(2, 0)] - RAT_ONE).is_zero()
        assert (got[(1, 1)] - rf("2*r")).is_zero()

    def test_zero_collects_empty(self):
        assert collect_ratfunc(rf("0"), ["tdot"]) == {}

    def test_time_translation_residual_of_lagrangian(self):
        # The only surviving term of the gauge-free invariance residual
        # for the time translation is dL/dt; independent oracle is plain
        # differentiation of the quadratic-form Lagrangian.
        lagrangian = rf(
            "-(1 - M(t)/r + Q(t)/r^2)*tdot^2 - 2*tdot*rdot"
            " + r^2*(thetadot^2 + sin(theta)^2*phidot^2)"
        )
        residual = derive(lagrangian, {"t": RAT_ONE})
        got = collect_ratfunc(residual, ["tdot", "rdot", "thetadot", "phidot"])
        assert list(got) == [(2, 0, 0, 0)]
        assert (got[(2, 0, 0, 0)] - rf("D(M, t)/r - D(Q, t)/r^2")).is_zero()

    def test_non_polynomial_error(self):
        with pytest.raises(NonPolynomialError):
            collect_ratfunc(rf("1/tdot"), ["tdot"])
        with pytest.raises(NonPolynomialError):
            collect_ratfunc(rf("sin(tdot)"), ["tdot"])

    def test_reconstruction(self):
        e = rf("(3*tdot^2*r - rdot*tdot/2 + sin(theta)*rdot^3)/r")
        got = collect_ratfunc(e, ["tdot", "rdot"])
        total = RAT_ZERO
        for (i, j), coeff in got.items():
            total = total + coeff * rf("tdot") ** i * rf("rdot") ** j
        assert (total - e).is_zero()
