"""analyze reports are byte-identical to committed golden outputs.

The golden files are the `analyze --format json` output of each bundled
metric in each mode.  A change to the solver that keeps its nullspace
must not change them by a byte.
"""

from pathlib import Path

import pytest

from liesym.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


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
