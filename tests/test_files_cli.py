"""Input formats, CLI exit codes, and report determinism."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liesym
from liesym.cli import main
from liesym.errors import FormatError
from liesym.files import generators_to_text, load_generators, load_metric, resolve_input_path


class TestMetricFiles:
    def test_shipped_opaque_preset(self, vb_general):
        metric = load_metric("vaidya_bonner.metric")
        assert metric.chart == vb_general.chart
        n = metric.chart.dim
        for i in range(n):
            for j in range(n):
                assert (metric[i, j] - vb_general[i, j]).is_zero()

    def test_shipped_instances(self, vb_m1_qt, vb_mt_qt2):
        for name, reference in [
            ("vaidya_bonner_M1_Qt.metric", vb_m1_qt),
            ("vaidya_bonner_Mt_Qt2.metric", vb_mt_qt2),
        ]:
            metric = load_metric(name)
            for i in range(4):
                for j in range(4):
                    assert (metric[i, j] - reference[i, j]).is_zero()

    def test_lower_triangle_rejected(self, tmp_path):
        p = tmp_path / "bad.metric"
        p.write_text("param s\ncoords x y\ng 1 0 = 1\n")
        with pytest.raises(FormatError) as err:
            load_metric(p)
        assert err.value.line == 3

    def test_syntax_error_carries_line(self, tmp_path):
        p = tmp_path / "bad.metric"
        p.write_text("param s\ncoords x y\ng 0 0 = (1 + x\n")
        with pytest.raises(FormatError) as err:
            load_metric(p)
        assert err.value.line == 3

    def test_out_of_range_index(self, tmp_path):
        p = tmp_path / "bad.metric"
        p.write_text("param s\ncoords x y\ng 0 5 = 1\n")
        with pytest.raises(FormatError):
            load_metric(p)

    def test_undeclared_function_rejected(self, tmp_path):
        p = tmp_path / "bad.metric"
        p.write_text("param s\ncoords x y\ng 0 0 = W(x)\ng 1 1 = 1\n")
        with pytest.raises(FormatError):
            load_metric(p)

    def test_missing_file(self):
        with pytest.raises(FormatError):
            load_metric("does_not_exist.metric")


class TestGeneratorFiles:
    def test_shipped_general_list(self, chart, general_fields):
        metric = load_metric("vaidya_bonner.metric")
        fields = load_generators("vb_general.gens", metric.chart, metric.functions)
        assert [f.name for f in fields] == ["X1", "X2", "X3", "X4", "X5"]
        for got, want in zip(fields, general_fields):
            assert (got.xi - want.xi).is_zero()
            for a, b in zip(got.eta, want.eta):
                assert (a - b).is_zero()

    def test_arity_mismatch(self, tmp_path, chart):
        p = tmp_path / "bad.gens"
        p.write_text("gen X = 1 | 0 | 0\n")
        with pytest.raises(FormatError) as err:
            load_generators(p, chart)
        assert "5" in str(err.value)

    def test_undeclared_symbol_in_generator(self, tmp_path, chart):
        p = tmp_path / "typo.gens"
        p.write_text("gen X = 0 | 0 | 0 | cos(phl) | 0\n")
        with pytest.raises(FormatError) as err:
            load_generators(p, chart)
        assert "phl" in str(err.value)

    def test_round_trip_through_text(self, chart, general_fields):
        text = generators_to_text(general_fields)
        import tempfile, os

        with tempfile.NamedTemporaryFile("w", suffix=".gens", delete=False) as fh:
            fh.write(text)
            tmp = fh.name
        try:
            fields = load_generators(tmp, chart)
            for got, want in zip(fields, general_fields):
                assert (got.xi - want.xi).is_zero()
        finally:
            os.unlink(tmp)


class TestCliExitCodes:
    def test_verify_general_noether_flags_time_translation(self, capsys):
        code = main(["verify", "vaidya_bonner.metric", "vb_general.gens", "--noether"])
        out = capsys.readouterr().out
        assert code == 1
        assert "X2: FAIL" in out
        assert "X1: pass" in out and "X5: pass" in out
        assert "constant" in out

    def test_verify_instance_generators_pass(self, capsys):
        code = main(["verify", "vaidya_bonner_M1_Qt.metric", "vb_M1_Qt.gens",
                     "--noether"])
        assert code == 0
        assert "all pass" in capsys.readouterr().out

    def test_verify_scaling_generators_liepoint(self, capsys):
        code = main(["verify", "vaidya_bonner_Mt_Qt2.metric", "vb_Mt_Qt2.gens",
                     "--liepoint"])
        assert code == 0

    def test_csc_variant_file_fails_verification(self, capsys):
        code = main(["verify", "vaidya_bonner.metric", "vb_noether_eq15.gens",
                     "--noether"])
        out = capsys.readouterr().out
        assert code == 1
        assert "X5: FAIL" in out

    def test_format_error_exit_2(self, tmp_path, capsys):
        p = tmp_path / "broken.metric"
        p.write_text("param s\ncoords x\ng 0 0 = (1 + x\n")
        code = main(["analyze", str(p)])
        assert code == 2

    def test_optimal_wrong_dimension_exit_3(self, capsys):
        code = main(["optimal", "vb_M1_Qt.gens", "--metric",
                     "vaidya_bonner_M1_Qt.metric"])
        assert code == 3

    def test_algebra_non_closure_exit_1(self, tmp_path, capsys):
        p = tmp_path / "open.gens"
        p.write_text(
            "gen A = 0 | 0 | 0 | 1 | 0\n"
            "gen B = 0 | 0 | 0 | 0 | sin(theta)\n"
        )
        code = main(["algebra", str(p), "--metric", "vaidya_bonner.metric"])
        assert code == 1

    def test_integrate_requires_bindings(self, capsys):
        code = main(["integrate", "vaidya_bonner.metric", "--init",
                     "0", "10", "1.5", "0", "1", "0", "0", "0",
                     "--step", "0.01", "--span", "1"])
        assert code == 2


INIT = ("--init", "0", "10", "1.5707963267948966", "0", "1", "0", "0", "0.05")
INTEGRATE = ("integrate", "vaidya_bonner_M1_Qt.metric", *INIT)
OPTIMAL = ("optimal", "vb_general.gens", "--metric", "vaidya_bonner.metric")


@pytest.mark.parametrize("argv, option", [
    ((*INTEGRATE, "--step", "0", "--span", "1"), "--step"),
    ((*INTEGRATE, "--step", "nan", "--span", "1"), "--step"),
    ((*INTEGRATE, "--step", "-0.1", "--span", "1"), "--step"),
    ((*INTEGRATE, "--step", "0.01", "--span", "inf"), "--span"),
    ((*INTEGRATE, "--step", "0.01", "--span", "-1"), "--span"),
    ((*OPTIMAL, "--samples", "-5"), "--samples"),
    ((*OPTIMAL, "--samples", "0"), "--samples"),
    ((*OPTIMAL, "--samples", "1000001"), "--samples"),
    (("analyze", "vaidya_bonner_M1_Qt.metric", "--ansatz-degree", "-1"), "--ansatz-degree"),
], ids=["step-0", "step-nan", "step-negative", "span-inf", "span-negative",
        "samples-negative", "samples-0", "samples-over-cap", "ansatz-degree-negative"])
def test_out_of_range_numeric_argument_exits_2(capsys, argv, option):
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    err = capsys.readouterr().err
    assert stop.value.code == 2
    assert f"argument {option}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("step, span", [("1e-300", "1e300"), ("1", "1000001")],
                         ids=["ratio-inf", "just-over-cap"])
def test_step_count_over_cap_exits_2(capsys, monkeypatch, step, span):
    # rejected before the metric loads, so nothing is integrated
    def no_load(path):
        raise AssertionError("the metric was loaded")

    monkeypatch.setattr("liesym.cli.load_metric", no_load)
    with pytest.raises(SystemExit) as stop:
        main([*INTEGRATE, "--step", step, "--span", span])
    err = capsys.readouterr().err
    assert stop.value.code == 2
    assert "argument --span/--step:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("expr", ["1/0", "ln(0)", "7^99999", "7^4000*7^4000",
                                  "1/7^3000 + 1/11^3000"])
def test_kernel_error_in_binding_exits_2(capsys, expr):
    code = main(["integrate", "vaidya_bonner.metric", "--bind", f"M={expr}",
                 "--bind", "Q=t", *INIT, "--step", "0.01", "--span", "1"])
    assert code == 2
    assert "<bind>" in capsys.readouterr().err


@pytest.mark.parametrize("expr, symbol", [("w", "w"), ("s", "s"), ("w - w", "w"),
                                          ("t + sin(r)", "r")])
def test_binding_outside_function_arguments_exits_2(capsys, expr, symbol):
    # M(t) admits only t: any other symbol, even one that cancels or the
    # parameter s, is rejected before integration
    code = main(["integrate", "vaidya_bonner.metric", "--bind", f"M={expr}",
                 "--bind", "Q=t", *INIT, "--step", "0.01", "--span", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "<bind>" in err and f"'{symbol}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("expr, name", [("N(t)", "N"), ("D(t,t)", "t"), ("D(M, t)", "M")])
def test_opaque_call_in_binding_exits_2(capsys, expr, name):
    # a binding is numeric: no opaque application and no derivative marker
    code = main(["integrate", "vaidya_bonner.metric", "--bind", f"M={expr}",
                 "--bind", "Q=t", *INIT, "--step", "0.01", "--span", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "<bind>" in err and f"unknown function '{name}'" in err
    assert "Traceback" not in err


class TestCliReports:
    def test_algebra_text_report(self, capsys):
        code = main(["algebra", "vb_general.gens", "--metric", "vaidya_bonner.metric"])
        out = capsys.readouterr().out
        assert code == 0
        assert "commutator table" in out
        assert "semisimple: False" in out
        assert "solvable: False" in out
        assert "levi split verified: True" in out

    def test_algebra_json_deterministic(self, capsys):
        main(["algebra", "vb_general.gens", "--metric", "vaidya_bonner.metric",
              "--format", "json"])
        first = capsys.readouterr().out
        main(["algebra", "vb_general.gens", "--metric", "vaidya_bonner.metric",
              "--format", "json"])
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["derived_series_dims"] == [5, 3, 3]
        assert payload["killing"][2][2] == "-2"

    def test_algebra_scaling_instance_levi_verified(self, capsys):
        # the scaling generator has nonzero Killing diagonal yet sits in
        # the radical; the Levi factor must still verify
        main(["algebra", "vb_Mt_Qt2.gens", "--metric",
              "vaidya_bonner_Mt_Qt2.metric", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["levi_split"]["verified"] is True
        assert payload["levi_split"]["complement_indices"] == [3, 4, 5]
        assert payload["derived_series_dims"] == [5, 4, 3, 3]

    def test_algebra_levi_split_verified_on_a_changed_basis(self, tmp_path, capsys):
        # X1 = d_s + d_t and X3 = d_s + d_phi: the complement [g, g] is
        # no coordinate block, yet it is the Levi factor so(3)
        text = (resolve_input_path("vb_general.gens").read_text()
                .replace("gen X1 = 1 | 0 | 0 | 0 | 0", "gen X1 = 1 | 1 | 0 | 0 | 0")
                .replace("gen X3 = 0 | 0 | 0 | 0 | 1", "gen X3 = 1 | 0 | 0 | 0 | 1"))
        gens = tmp_path / "changed.gens"
        gens.write_text(text)
        code = main(["algebra", str(gens), "--metric", "vaidya_bonner.metric"])
        out = capsys.readouterr().out
        assert code == 0
        assert "derived series dims: [5, 3, 3]" in out
        assert "levi split verified: True" in out
        # the optimal system still reads its triple from slots 3..5
        assert main(["optimal", str(gens), "--metric", "vaidya_bonner.metric"]) == 3

    def test_algebra_latex_table(self, capsys):
        main(["algebra", "vb_M1_Qt.gens", "--metric", "vaidya_bonner_M1_Qt.metric",
              "--format", "latex"])
        out = capsys.readouterr().out
        assert r"\begin{tabular}" in out
        assert r"\begin{bmatrix}" in out
        assert "$[~,~]$" in out

    def test_optimal_json_report(self, capsys):
        code = main(["optimal", "vb_general.gens", "--metric",
                     "vaidya_bonner.metric", "--samples", "60", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["matched_total"] == payload["valid_total"]
        assert payload["invariant_drift_max"] < 1e-9
        assert len(payload["reps"]) == 9

    def test_integrate_report(self, capsys):
        code = main(["integrate", "vaidya_bonner_M1_Qt.metric", "--init",
                     "0", "10", "1.5707963267948966", "0", "1", "0", "0", "0.05",
                     "--step", "0.01", "--span", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "drift momentum_phi" in out
        assert "steps: 100" in out

    def test_integrate_with_bindings(self, capsys):
        code = main(["integrate", "vaidya_bonner.metric",
                     "--bind", "M=1", "--bind", "Q=t",
                     "--init", "0", "10", "1.5707963267948966", "0",
                     "1", "0", "0", "0.05",
                     "--step", "0.01", "--span", "1"])
        assert code == 0

    def test_analyze_json_round_trip(self, tmp_path, capsys):
        code = main(["analyze", "vaidya_bonner_M1_Qt.metric", "--noether",
                     "--ansatz-degree", "1", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["nullspace_dim"] == 4
        assert payload["mode"] == "noether"
        gens = tmp_path / "solved.gens"
        lines = [
            f"gen {g['name']} = " + " | ".join([g["xi"]] + g["eta"])
            for g in payload["generators"]
        ]
        gens.write_text("\n".join(lines) + "\n")
        code = main(["verify", "vaidya_bonner_M1_Qt.metric", str(gens), "--noether"])
        capsys.readouterr()
        assert code == 0


def _run_cli(*argv, cwd=None, timeout=None):
    # the child imports the same liesym as this process, installed or not
    src = str(Path(liesym.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "liesym.cli", *argv], cwd=cwd,
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout,
    )


def test_console_entry_point():
    out = _run_cli("--help")
    assert out.returncode == 0
    assert "analyze" in out.stdout


STARTUP_FREE = ("dataclasses", "inspect", "json", "importlib.resources", "typing")


def _modules_after(code):
    # -S keeps modules that site and .pth files preload out of the result
    src = str(Path(liesym.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-S", "-c", code + "; print(sorted(sys.modules))"],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    return set(ast.literal_eval(out.stdout.splitlines()[-1]))


def test_import_loads_no_startup_heavy_module():
    # every command pays for what `import liesym.cli` loads
    loaded = _modules_after("import liesym.cli; import sys")
    assert "liesym.cli" in loaded
    assert loaded.isdisjoint(STARTUP_FREE), sorted(loaded & set(STARTUP_FREE))


def test_json_loads_with_a_json_report():
    loaded = _modules_after(
        "import sys; from liesym.cli import main; "
        "main(['algebra', 'vb_general.gens', '--metric', 'vaidya_bonner.metric', "
        "'--format', 'json'])")
    assert "json" in loaded


FLAT_PLANE = "param s\ncoords x y\ng 0 0 = 1\ng 1 1 = 1\n"
TRANSLATIONS = "gen T_s = 1 | 0 | 0\ngen T_x = 0 | 1 | 0\n"


@pytest.mark.parametrize("expr", [
    "1/0", "(-4)^(1/2)", "ln(0)",
    "(x+1)^99999999", "cos(x)^99999999", "sin(99999999*x)", "1000000016000000063^(1/2)",
    "7^99999", "(2*x)^9999999", "7^4000*7^4000", "1/7^3000 + 1/11^3000",
])
@pytest.mark.parametrize("where", ["metric", "generators"])
def test_kernel_error_in_input_exits_2(tmp_path, expr, where):
    # a zero denominator, an even root of a negative rational and the
    # logarithm of zero are rejected by the expression kernel, not by
    # the parser; so are a power that expands, a trig multiple and a
    # radicand past their caps, before any expansion or trial division
    # could run for long, and a power, product or sum whose coefficients
    # would be too long to print
    metric, gens = FLAT_PLANE, TRANSLATIONS
    if where == "metric":
        metric = metric.replace("g 0 0 = 1", f"g 0 0 = {expr}")
        line = "in.metric:3"
    else:
        gens += f"gen bad = 0 | {expr} | 0\n"
        line = "in.gens:3"
    (tmp_path / "in.metric").write_text(metric)
    (tmp_path / "in.gens").write_text(gens)
    out = _run_cli("verify", "in.metric", "in.gens", "--liepoint", cwd=tmp_path, timeout=10)
    assert out.returncode == 2
    assert line in out.stderr
    assert "Traceback" not in out.stderr


def test_expansion_past_the_term_cap_in_analyze_exits_2(tmp_path):
    # each cos^64 has 33 terms, so the power of the product has 33^3
    (tmp_path / "in.metric").write_text(
        "param s\ncoords x y z\ng 0 0 = (cos(x)*cos(y)*cos(z))^64\ng 1 1 = 1\ng 2 2 = 1\n")
    out = _run_cli("analyze", "in.metric", "--noether", cwd=tmp_path, timeout=10)
    assert out.returncode == 2
    assert "in.metric:3" in out.stderr and "more than 5000 terms" in out.stderr
    assert "Traceback" not in out.stderr


def test_sin_of_a_long_sum_in_analyze_exits_2(tmp_path):
    # the addition formulas would give sin of 20 terms 2^19 terms
    arg = " + ".join(f"x^{k}" for k in range(1, 21))
    (tmp_path / "in.metric").write_text(FLAT_PLANE.replace("g 0 0 = 1", f"g 0 0 = 2 + sin({arg})"))
    out = _run_cli("analyze", "in.metric", "--noether", cwd=tmp_path, timeout=10)
    assert out.returncode == 2
    assert "in.metric:3" in out.stderr and "more than 5000 terms" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("where", ["metric", "generators"])
def test_cancelling_undeclared_symbol_exits_2(tmp_path, where):
    # w - w canonicalizes to 0; the symbol check runs on the parse tree
    metric, gens = FLAT_PLANE, TRANSLATIONS
    if where == "metric":
        metric = metric.replace("g 0 0 = 1", "g 0 0 = 1 + w - w")
        line = "in.metric:3"
    else:
        gens += "gen bad = 0 | w - w | 0\n"
        line = "in.gens:3"
    (tmp_path / "in.metric").write_text(metric)
    (tmp_path / "in.gens").write_text(gens)
    out = _run_cli("verify", "in.metric", "in.gens", "--liepoint", cwd=tmp_path)
    assert out.returncode == 2
    assert f"{line}: undeclared symbols: ['w']" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [
    ("analyze", "in.metric", "--noether"),
    ("verify", "in.metric", "in.gens", "--noether"),
    ("algebra", "in.gens", "--metric", "in.metric"),
], ids=["analyze", "verify", "algebra"])
def test_degenerate_metric_exits_3(tmp_path, argv):
    # det g = 0: rejected when the metric loads, whatever the command
    (tmp_path / "in.metric").write_text(FLAT_PLANE.replace("g 1 1 = 1", "g 1 1 = 0"))
    (tmp_path / "in.gens").write_text(TRANSLATIONS)
    out = _run_cli(*argv, cwd=tmp_path)
    assert out.returncode == 3
    assert "in.metric: metric determinant is canonically zero" in out.stderr
    assert "Traceback" not in out.stderr


def test_complex_value_during_integrate_exits_3():
    # M = t^(1/2) turns complex once t < 0; the RK4 step meets the
    # complex value in a float operation
    out = _run_cli("integrate", "vaidya_bonner.metric", "--bind", "M=t^(1/2)",
                   "--bind", "Q=t", "--init", "0.05", "10", "1.2", "0", "-1", "0",
                   "0.01", "0.05", "--step", "0.01", "--span", "1")
    assert out.returncode == 3
    assert "error: numeric evaluation failed:" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("files, argv, where, cause", [
    # an undeclared symbol and a zero denominator: the kernel error is
    # met while the expression is read, before the symbols are checked
    ({"in.metric": FLAT_PLANE.replace("g 0 0 = 1", "g 0 0 = w/0")},
     ("analyze", "in.metric"), "in.metric:3", "inverse of zero expression"),
    # a zero denominator and a syntax error in one expression: the
    # syntax error is named
    ({"in.metric": FLAT_PLANE.replace("g 0 0 = 1", "g 0 0 = 1/0 + (")},
     ("analyze", "in.metric"), "in.metric:3", "unexpected end of input at column 8"),
    # a zero denominator in one expression of a generator line and an
    # undeclared symbol in the next
    ({"in.metric": FLAT_PLANE, "in.gens": TRANSLATIONS + "gen bad = 1/0 | w | 0\n"},
     ("verify", "in.metric", "in.gens", "--liepoint"), "in.gens:3",
     "inverse of zero expression"),
    # an opaque argument that is no bare symbol, though it folds to one
    ({"in.metric": FLAT_PLANE.replace("coords x y\n", "coords x y\nfunction M(x)\n")
                             .replace("g 0 0 = 1", "g 0 0 = M(x + 0)")},
     ("analyze", "in.metric"), "in.metric:4",
     "unknown function 'M' (opaque arguments must be symbols) at column 1"),
    # a binding with a symbol outside M's arguments and a zero denominator
    ({}, ("integrate", "vaidya_bonner.metric", "--bind", "M=w/0", "--bind", "Q=t", *INIT,
          "--step", "0.5", "--span", "1"), "<bind>:0", "inverse of zero expression"),
], ids=["undeclared-and-zero-denominator", "zero-denominator-and-syntax",
        "generator-zero-denominator-then-undeclared", "opaque-argument-folds-to-symbol",
        "binding-undeclared-and-zero-denominator"])
def test_line_with_two_faults_names_one_and_exits_2(tmp_path, files, argv, where, cause):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = _run_cli(*argv, cwd=tmp_path)
    assert out.returncode == 2
    assert out.stderr == f"error: {where}: {cause}\n"
