"""Input formats, CLI exit codes, and report determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liesym
from liesym.cli import main
from liesym.errors import FormatError
from liesym.files import load_generators, load_metric, generators_to_text
from liesym.symexpr import is_zero


class TestMetricFiles:
    def test_shipped_opaque_preset(self, vb_general):
        metric = load_metric("vaidya_bonner.metric")
        assert metric.chart == vb_general.chart
        n = metric.chart.dim
        for i in range(n):
            for j in range(n):
                assert is_zero(metric[i, j] - vb_general[i, j])

    def test_shipped_instances(self, vb_m1_qt, vb_mt_qt2):
        for name, reference in [
            ("vaidya_bonner_M1_Qt.metric", vb_m1_qt),
            ("vaidya_bonner_Mt_Qt2.metric", vb_mt_qt2),
        ]:
            metric = load_metric(name)
            for i in range(4):
                for j in range(4):
                    assert is_zero(metric[i, j] - reference[i, j])

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
            assert is_zero(got.xi - want.xi)
            for a, b in zip(got.eta, want.eta):
                assert is_zero(a - b)

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
                assert is_zero(got.xi - want.xi)
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
        # the radical; the complement guess must still verify
        main(["algebra", "vb_Mt_Qt2.gens", "--metric",
              "vaidya_bonner_Mt_Qt2.metric", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["levi_split"]["verified"] is True
        assert payload["levi_split"]["complement_indices"] == [3, 4, 5]
        assert payload["derived_series_dims"] == [5, 4, 3, 3]

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


def test_console_entry_point():
    # the child imports the same liesym as this process, installed or not
    src = str(Path(liesym.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "liesym.cli", "--help"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert out.returncode == 0
    assert "analyze" in out.stdout
