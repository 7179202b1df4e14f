"""Expression kernel: parsing, canonical form, calculus, collection."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liesym.symexpr import (
    Add,
    ExprSyntaxError,
    Fn,
    Mul,
    NonPolynomialError,
    Num,
    Op,
    Pow,
    Sym,
    collect,
    differentiate,
    equals,
    evaluate_rational,
    is_zero,
    parse_expr,
    substitute_atoms,
    substitute_function,
    to_canonical,
    to_text,
)
from liesym.symexpr.canonical import canonical_ratfunc
from liesym.symexpr.poly import RAT_ONE, RAT_ZERO, op_atom, sym_atom

from conftest import rf

SRC = Path(__file__).resolve().parent.parent / "src"


class TestParser:
    def test_metric_component(self):
        e = parse_expr("-(1 - M(t)/r + Q(t)/r^2)")
        assert isinstance(e, Mul)
        assert e.factors[0] == Num(-1)
        inner = e.factors[1]
        assert isinstance(inner, Add)
        assert len(inner.terms) == 3

    def test_power_of_function(self):
        e = parse_expr("sin(theta)^2")
        assert e == Pow(Fn("sin", Sym("theta")), Fraction(2))

    def test_incomplete_input_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("2*")
        assert err.value.column == 3

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("r^2*(1 + t")

    def test_derivative_marker(self):
        assert parse_expr("D(M, t)") == Op("M", ("t",), (1,))
        assert parse_expr("D(M, t, 2)") == Op("M", ("t",), (2,))
        assert parse_expr("D(f, x, 1, y, 2)") == Op("f", ("x", "y"), (1, 2))

    def test_malformed_derivative(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("D(M)")
        with pytest.raises(ExprSyntaxError):
            parse_expr("D(sin, t)")

    def test_declared_functions(self):
        fns = {"M": ("t",)}
        assert parse_expr("M(t)", fns) == Op("M", ("t",))
        with pytest.raises(ExprSyntaxError):
            parse_expr("Q(t)", fns)

    def test_opaque_with_nonsymbol_argument(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("W(t + 1)")

    def test_rational_exponent_needs_parens(self):
        # x^2/3 is (x^2)/3 under the grammar
        assert equals(parse_expr("x^2/3"), parse_expr("(x^2)/3"))
        assert parse_expr("x^(1/2)") == Pow(Sym("x"), Fraction(1, 2))
        assert parse_expr("x^-2") == Pow(Sym("x"), Fraction(-2))

    def test_sqrt_lowering(self):
        assert parse_expr("sqrt(x)") == Pow(Sym("x"), Fraction(1, 2))


class TestCanonical:
    def test_pythagorean_identity(self):
        assert is_zero(parse_expr("sin(theta)^2 + cos(theta)^2 - 1"))

    def test_cot_rewrites(self):
        assert is_zero(parse_expr("cot(theta)*sin(theta) - cos(theta)"))
        assert is_zero(parse_expr("csc(x)*sin(x) - 1"))
        assert is_zero(parse_expr("tan(x) - sin(x)/cos(x)"))
        assert is_zero(parse_expr("sec(x)*cos(x) - 1"))

    def test_opaque_kernel_is_atomic(self):
        c = to_canonical(parse_expr("D(M, t)/r"))
        assert to_text(c) == "D(M, t)/r"

    def test_idempotent(self):
        e = parse_expr("(r - 2*t)/(2*r^3) + cot(theta)^2")
        once = to_canonical(e)
        assert to_canonical(once) == once

    def test_unique_for_equal_inputs(self):
        a = to_canonical(parse_expr("(x + y)^2"))
        b = to_canonical(parse_expr("x^2 + 2*x*y + y^2"))
        assert a == b

    def test_rational_normal_form(self):
        assert is_zero(parse_expr("(x^2 - y^2)/(x + y) - x + y"))

    def test_fractional_powers_fold(self):
        assert equals(parse_expr("sqrt(x)*sqrt(x)"), parse_expr("x"))
        assert to_text(to_canonical(parse_expr("sqrt(8)"))) == "2*(2)^(1/2)"

    def test_fractional_powers_of_one_base_fold(self):
        assert is_zero(parse_expr("r^(1/3)*r^(2/3) - r"))
        assert is_zero(parse_expr("r^(1/2)*r^(1/3) - r^(5/6)"))
        c = to_canonical(parse_expr("r^(2/3)*r^(1/3)*r^(1/3)"))
        assert to_text(c) == "r*r^(1/3)"
        # at most one power atom per base, with exponent 1
        for text in ("r^(2/3)*r^(1/3)*r^(1/3)", "(r^(1/3))^5*sqrt(r)*y", "r^(1/6)*r^(5/6)*r^(1/2)"):
            for mono in canonical_ratfunc(parse_expr(text)).num.terms:
                powers = [(a.payload[0].key(), e) for a, e in mono if a.kind == "pow"]
                assert all(e == 1 for _, e in powers), text
                assert len({base for base, _ in powers}) == len(powers), text

    def test_angle_addition_support(self):
        assert equals(
            parse_expr("sin(a + b)"),
            parse_expr("sin(a)*cos(b) + cos(a)*sin(b)"),
        )
        assert equals(parse_expr("exp(a + b)"), parse_expr("exp(a)*exp(b)"))
        assert is_zero(parse_expr("cos(0) - 1"))

    def test_arctan_inert(self):
        c = to_canonical(parse_expr("arctan(x/y)"))
        assert to_text(c) == "arctan(x/y)"

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
            assert is_zero(parse_expr(text)), text

    @pytest.mark.parametrize("n", range(2, 31))
    def test_integer_multiple_addition_formula(self, n):
        assert is_zero(parse_expr(
            f"sin({n}*x) - (sin({n - 1}*x)*cos(x) + cos({n - 1}*x)*sin(x))"))

    def test_trig_of_large_integer_multiple_is_fast(self):
        # sin and cos of n*w are stepped once per unit of n; expanding
        # both from (n-1)*w at every step took time 2^n.
        code = ("from liesym.symexpr import parse_expr, to_canonical, to_text\n"
                "for text in ('cot(27)', 'cot(27*x)'):\n"
                "    print(len(to_text(to_canonical(parse_expr(text)))))\n")
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
    ])
    def test_input_at_or_below_the_caps_canonicalizes_in_budget(self, text, expected):
        # a monomial power, an atom power, a power of a radical of a
        # monomial and exp of a multiple stay one term whatever the
        # exponent; a fully factored radicand has no cofactor for trial
        # division
        code = ("import sys\n"
                "from liesym.symexpr import parse_expr\n"
                "from liesym.symexpr.canonical import canonical_ratfunc\n"
                "rf = canonical_ratfunc(parse_expr(sys.argv[1]))\n"
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
    ])
    def test_input_above_the_caps_is_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            canonical_ratfunc(parse_expr(text))

    def test_structurally_close_nonzero(self):
        nonzeros = [
            "sin(u)^2 + cos(v)^2 - 1",
            "sin(u)*cos(u) - sin(u)^2",
            "exp(u)*exp(v) - 1",
            "sqrt(x^2) - x",
        ]
        for text in nonzeros:
            assert not is_zero(parse_expr(text)), text


class TestDifferentiate:
    def test_cot_rule(self):
        d = differentiate(parse_expr("cot(theta)"), "theta")
        assert equals(d, parse_expr("-1/sin(theta)^2"))

    def test_opaque_chain_rule(self):
        d = differentiate(parse_expr("M(t)^2"), "t")
        assert equals(d, parse_expr("2*M(t)*D(M, t)"))

    def test_power_rule(self):
        d = differentiate(parse_expr("Q(t)/r^2"), "r")
        assert equals(d, parse_expr("-2*Q(t)/r^3"))

    def test_opaque_independent_symbol(self):
        assert is_zero(differentiate(parse_expr("M(t)"), "s"))

    def test_second_order(self):
        d2 = differentiate(differentiate(parse_expr("M(t)"), "t"), "t")
        assert d2 == Op("M", ("t",), (2,))

    def test_elementary_rules(self):
        assert equals(differentiate(parse_expr("exp(x^2)"), "x"),
                      parse_expr("2*x*exp(x^2)"))
        assert equals(differentiate(parse_expr("ln(x)"), "x"), parse_expr("1/x"))
        assert equals(differentiate(parse_expr("arctan(x)"), "x"),
                      parse_expr("1/(1 + x^2)"))
        assert equals(differentiate(parse_expr("sqrt(x)"), "x"),
                      parse_expr("1/(2*sqrt(x))"))

    @pytest.mark.parametrize("text, derivative", [
        ("x + y + tan(x)", "1 + 1/cos(x)^2"),
        ("tan(x) + D(M, y)^2", "1/cos(x)^2"),
    ])
    def test_tangent_over_cosine_terminates(self, text, derivative):
        # Reducing the derivative takes a gcd whose coefficients in sin(x)
        # carry cos(x); a pseudo-remainder in sin(x) then never ends.
        d = differentiate(to_canonical(parse_expr(text, {"M": ("y",)})), "x")
        assert equals(d, parse_expr(derivative))


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
        assert not is_zero(parse_expr("D(M, t)*tdot^2/r"))

    def test_rational_identity_sampled(self):
        # 1/(x-1) - 1/x - 1/(x^2 - x) == 0; double-checked by exact
        # rational evaluation at 8 sample points.
        e = parse_expr("1/(x - 1) - 1/x - 1/(x^2 - x)")
        assert is_zero(e)
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
        assert is_zero(parse_expr("(x + 1)^2 - x^2 - 2*x - 1"))
        assert not is_zero(parse_expr("(x + 1)^2 - x^2"))


class TestCollect:
    def test_simple(self):
        got = collect(parse_expr("tdot^2 + 2*r*tdot*rdot"), ["tdot", "rdot"])
        assert set(got) == {(2, 0), (1, 1)}
        assert equals(got[(2, 0)], Num(1))
        assert equals(got[(1, 1)], parse_expr("2*r"))

    def test_zero_collects_empty(self):
        assert collect(parse_expr("0"), ["tdot"]) == {}

    def test_time_translation_residual_of_lagrangian(self):
        # The only surviving term of the gauge-free invariance residual
        # for the time translation is dL/dt; independent oracle is plain
        # differentiation of the quadratic-form Lagrangian.
        lagrangian = parse_expr(
            "-(1 - M(t)/r + Q(t)/r^2)*tdot^2 - 2*tdot*rdot"
            " + r^2*(thetadot^2 + sin(theta)^2*phidot^2)"
        )
        residual = differentiate(lagrangian, "t")
        got = collect(residual, ["tdot", "rdot", "thetadot", "phidot"])
        assert list(got) == [(2, 0, 0, 0)]
        assert equals(got[(2, 0, 0, 0)], parse_expr("D(M, t)/r - D(Q, t)/r^2"))

    def test_non_polynomial_error(self):
        with pytest.raises(NonPolynomialError):
            collect(parse_expr("1/tdot"), ["tdot"])
        with pytest.raises(NonPolynomialError):
            collect(parse_expr("sin(tdot)"), ["tdot"])

    def test_reconstruction(self):
        e = parse_expr("(3*tdot^2*r - rdot*tdot/2 + sin(theta)*rdot^3)/r")
        got = collect(e, ["tdot", "rdot"])
        total = Num(0)
        for (i, j), coeff in got.items():
            total = total + coeff * Pow(Sym("tdot"), i) * Pow(Sym("rdot"), j)
        assert equals(total, e)
