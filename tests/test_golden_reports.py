"""Reports are byte-identical to committed golden outputs.

The golden files under tests/data/golden/ were written by the `liesym`
command line before the change each one guards, and are compared byte
for byte:

- `<metric>.<mode>.json`: `analyze <metric>.metric --<mode> --format json`
  for each bundled metric in each mode.  A change to the solver that
  keeps its nullspace must not change them.
- `<metric>.<mode>.{txt,tex}`: `analyze --format text` and `--format
  latex` for `vaidya_bonner_M1_Qt` and `vaidya_bonner_Mt_Qt2` in each
  mode.  They guard the text and LaTeX views of the analyze payload.
- `<gens>.algebra.{json,txt,tex}`: `algebra` in each format on the
  15-field sl(4) basis `tests/data/sl4.gens` with the flat-plane metric
  `tests/data/flat_plane.metric`, on the bundled `vb_general.gens` with
  `vaidya_bonner.metric`, and on `vb_Mt_Qt2.gens` with
  `vaidya_bonner_Mt_Qt2.metric`, whose radical is not central (derived
  series [5, 4, 3, 3]).  A change to the structure-constant, Killing
  form, radical or Levi computations must not change them.
- `<gens>.verify.<mode>.txt`: `verify <metric>.metric <gens>.gens
  --<mode>` in each mode for the three bundled generator files on their
  metrics, with the exit code each run returned.  They guard the
  prolongation, the residuals and their rendering, on passing and on
  failing fields.
- `vaidya_bonner.integrate_M1_Qt.txt`: `integrate` on
  `vaidya_bonner.metric` with M = 1, Q = t and a fixed initial state.
  It guards `substitute_function` and the geodesic right-hand sides
  that RK4 compiles.
- `vaidya_bonner.integrate_M1_Qt_off_equator.txt`: the same off the
  equator (theta = 1.2, thetadot = 0.01), where the sin(theta) and
  cos(theta) terms of the right-hand sides do not vanish.  It guards
  the compiled floats, bit for bit.
- `vb_general.optimal.json`: `optimal` on `vb_general.gens` with 1000
  samples and seed 7.  It guards the sample draws, the reduction moves,
  replay and the invariant drift.
- `vb_general.optimal_5000.json`: the same with 5000 samples and seed
  253381, the size of the benchmark's `optimal` command.  The first
  golden also guards a copy of `vb_general.gens` with X5 negated, whose
  rotation brackets all change sign.

Every multi-format report is a view of one payload: formatting
`json.loads` of a `--format json` report gives the `--format text` and
`--format latex` bytes.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from liesym.cli import main
from liesym.files import resolve_input_path
from liesym.reporting import algebra_latex, algebra_text, analyze_latex, analyze_text

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


@pytest.mark.parametrize("mode", ["liepoint", "noether"])
@pytest.mark.parametrize("metric", [
    "vaidya_bonner",
    "vaidya_bonner_M1_Qt",
    "vaidya_bonner_Mt_Qt2",
])
def test_analyze_json_matches_golden(metric, mode, capsys):
    code = main(["analyze", f"{metric}.metric", f"--{mode}", "--format", "json"])
    assert code == 0
    expected = (GOLDEN / f"{metric}.{mode}.json").read_bytes()
    assert capsys.readouterr().out.encode() == expected


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("latex", "tex")])
@pytest.mark.parametrize("mode", ["liepoint", "noether"])
@pytest.mark.parametrize("metric", ["vaidya_bonner_M1_Qt", "vaidya_bonner_Mt_Qt2"])
def test_analyze_text_and_latex_match_golden(metric, mode, fmt, ext, capsys):
    code = main(["analyze", f"{metric}.metric", f"--{mode}", "--format", fmt])
    assert code == 0
    expected = (GOLDEN / f"{metric}.{mode}.{ext}").read_bytes()
    assert capsys.readouterr().out.encode() == expected


def _reports(argv, capsys):
    """stdout of argv in each --format, keyed by format."""
    out = {}
    for fmt in ("json", "text", "latex"):
        assert main([*argv, "--format", fmt]) == 0
        out[fmt] = capsys.readouterr().out
    return out


@pytest.mark.parametrize("mode", ["liepoint", "noether"])
@pytest.mark.parametrize("metric", [
    "vaidya_bonner",
    "vaidya_bonner_M1_Qt",
    "vaidya_bonner_Mt_Qt2",
])
def test_analyze_text_and_latex_are_views_of_the_json(metric, mode, capsys):
    out = _reports(["analyze", f"{metric}.metric", f"--{mode}"], capsys)
    payload = json.loads(out["json"])
    assert analyze_text(payload) == out["text"]
    assert analyze_latex(payload) == out["latex"]


# basis name -> (generator file, metric file)
ALGEBRA_INPUTS = {
    "sl4": (str(DATA / "sl4.gens"), str(DATA / "flat_plane.metric")),
    "vb_general": ("vb_general.gens", "vaidya_bonner.metric"),
    "vb_Mt_Qt2": ("vb_Mt_Qt2.gens", "vaidya_bonner_Mt_Qt2.metric"),
}


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt"), ("latex", "tex")])
@pytest.mark.parametrize("name", sorted(ALGEBRA_INPUTS))
def test_algebra_matches_golden(name, fmt, ext, capsys):
    gens, metric = ALGEBRA_INPUTS[name]
    code = main(["algebra", gens, "--metric", metric, "--format", fmt])
    assert code == 0
    expected = (GOLDEN / f"{name}.algebra.{ext}").read_bytes()
    assert capsys.readouterr().out.encode() == expected


@pytest.mark.parametrize("name", sorted(ALGEBRA_INPUTS))
def test_algebra_text_and_latex_are_views_of_the_json(name, capsys):
    gens, metric = ALGEBRA_INPUTS[name]
    out = _reports(["algebra", gens, "--metric", metric], capsys)
    payload = json.loads(out["json"])
    assert algebra_text(payload) == out["text"]
    assert algebra_latex(payload) == out["latex"]


# generator file -> (metric file, {mode: exit code})
VERIFY_INPUTS = {
    "vb_general": ("vaidya_bonner.metric", {"liepoint": 1, "noether": 1}),
    "vb_M1_Qt": ("vaidya_bonner_M1_Qt.metric", {"liepoint": 0, "noether": 0}),
    "vb_Mt_Qt2": ("vaidya_bonner_Mt_Qt2.metric", {"liepoint": 0, "noether": 1}),
}


@pytest.mark.parametrize("mode", ["liepoint", "noether"])
@pytest.mark.parametrize("gens", sorted(VERIFY_INPUTS))
def test_verify_matches_golden(gens, mode, capsys):
    metric, codes = VERIFY_INPUTS[gens]
    code = main(["verify", metric, f"{gens}.gens", f"--{mode}"])
    assert code == codes[mode]
    expected = (GOLDEN / f"{gens}.verify.{mode}.txt").read_bytes()
    assert capsys.readouterr().out.encode() == expected


def _integrate_vb_m1_qt(init):
    """Exit code of `integrate` on vaidya_bonner.metric with M = 1, Q = t."""
    return main([
        "integrate", "vaidya_bonner.metric", "--bind", "M=1", "--bind", "Q=t",
        "--init", *init, "--step", "0.0005", "--span", "10",
    ])


def test_integrate_matches_golden(capsys):
    code = _integrate_vb_m1_qt(("0", "10", "1.5707963267948966", "0", "1", "0", "0", "0.05"))
    assert code == 0
    expected = (GOLDEN / "vaidya_bonner.integrate_M1_Qt.txt").read_bytes()
    assert capsys.readouterr().out.encode() == expected


def test_integrate_off_equator_matches_golden(capsys):
    code = _integrate_vb_m1_qt(("0", "10", "1.2", "0", "1", "0", "0.01", "0.05"))
    assert code == 0
    expected = (GOLDEN / "vaidya_bonner.integrate_M1_Qt_off_equator.txt").read_bytes()
    assert capsys.readouterr().out.encode() == expected


def _optimal_vb_general(samples, seed):
    """Exit code of `optimal` on vb_general.gens with vaidya_bonner.metric."""
    return main(["optimal", "vb_general.gens", "--metric", "vaidya_bonner.metric",
                 "--samples", samples, "--seed", seed])


def test_optimal_matches_golden(capsys):
    assert _optimal_vb_general("1000", "7") == 0
    expected = (GOLDEN / "vb_general.optimal.json").read_bytes()
    assert capsys.readouterr().out.encode() == expected


def test_optimal_at_benchmark_size_matches_golden(capsys):
    assert _optimal_vb_general("5000", "253381") == 0
    expected = (GOLDEN / "vb_general.optimal_5000.json").read_bytes()
    assert capsys.readouterr().out.encode() == expected


def test_optimal_on_a_sign_flipped_rotation_basis_matches_golden(tmp_path, capsys):
    # -X5 flips the sign of every bracket constant of the rotation triple;
    # the structure gate takes either sign and the reduction reads none,
    # so the cover prints the bundled basis's bytes
    x5 = "gen X5 = 0 | 0 | 0 | sin(phi) | cos(phi)*cot(theta)"
    text = resolve_input_path("vb_general.gens").read_text()
    assert x5 in text
    gens = tmp_path / "vb_general_flipped.gens"
    gens.write_text(text.replace(x5, "gen X5 = 0 | 0 | 0 | -sin(phi) | -cos(phi)*cot(theta)"))
    argv = ["--metric", "vaidya_bonner.metric"]
    assert main(["algebra", str(gens), *argv, "--format", "json"]) == 0
    flipped = json.loads(capsys.readouterr().out)["structure_constants"]["c"]
    bundled = json.loads((GOLDEN / "vb_general.algebra.json").read_text())
    assert flipped == [[i, j, k, str(-Fraction(v))]
                       for i, j, k, v in bundled["structure_constants"]["c"]]
    assert main(["optimal", str(gens), *argv, "--samples", "1000", "--seed", "7"]) == 0
    expected = (GOLDEN / "vb_general.optimal.json").read_bytes()
    assert capsys.readouterr().out.encode() == expected
