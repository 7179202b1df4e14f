"""Reports are byte-identical to committed golden outputs.

The golden files under tests/data/golden/ were written by the `liesym`
command line before the change each one guards, and are compared byte
for byte:

- `<metric>.<mode>.json`: `analyze <metric>.metric --<mode> --format json`
  for each bundled metric in each mode.  A change to the solver that
  keeps its nullspace must not change them.
- `<gens>.algebra.{json,txt,tex}`: `algebra` in each format on the
  15-field sl(4) basis `tests/data/sl4.gens` with the flat-plane metric
  `tests/data/flat_plane.metric`, and on the bundled `vb_general.gens`
  with `vaidya_bonner.metric`.  A change to the structure-constant,
  Killing form, radical or Levi computations must not change them.
"""

from pathlib import Path

import pytest

from liesym.cli import main

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


# basis name -> (generator file, metric file)
ALGEBRA_INPUTS = {
    "sl4": (str(DATA / "sl4.gens"), str(DATA / "flat_plane.metric")),
    "vb_general": ("vb_general.gens", "vaidya_bonner.metric"),
}


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt"), ("latex", "tex")])
@pytest.mark.parametrize("name", sorted(ALGEBRA_INPUTS))
def test_algebra_matches_golden(name, fmt, ext, capsys):
    gens, metric = ALGEBRA_INPUTS[name]
    code = main(["algebra", gens, "--metric", metric, "--format", fmt])
    assert code == 0
    expected = (GOLDEN / f"{name}.algebra.{ext}").read_bytes()
    assert capsys.readouterr().out.encode() == expected
