"""The Python source that the numeric code generator emits is unchanged.

`tests/data/golden/numeric_source.txt` records every function body that
`liesym.numeric` compiles for `integrate` on the bundled metrics: the
RK4 loop, the watched functions at the first sample and the drift loop
over the trace.  The vaidya_bonner metric is bound as in the integrate
goldens (M = 1, Q = t) and with M = t, Q = t^2.  The source fixes the
order of every float operation, so equal source gives bit-identical
floats.  A last block compiles components whose function arguments and
radicals carry denominators, which the bundled metrics do not reach.
Regenerate the file with `python tests/test_numeric_source.py`
only for a change that means to alter the generated code.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import liesym.numeric
from liesym.cli import main
from liesym.numeric import compile_numeric

from conftest import rf

GOLDEN = Path(__file__).parent / "data" / "golden" / "numeric_source.txt"
INIT = ["--init", "0", "10", "1.2", "0", "1", "0", "0.01", "0.05", "--step", "0.5", "--span", "1"]
RUNS = [
    ["vaidya_bonner.metric", "--bind", "M=1", "--bind", "Q=t"],
    ["vaidya_bonner.metric", "--bind", "M=t", "--bind", "Q=t^2"],
    ["vaidya_bonner_M1_Qt.metric"],
    ["vaidya_bonner_Mt_Qt2.metric"],
]
COMPONENTS = [
    "exp(t/r) + sin(x)^2/(x - 1)",
    "sin(2*x/r) + cos((x + 1)/(y^2*r))",
    "sqrt(r/2) + (x^2 + 1)^(1/3)/(y - r)",
    "ln(x)/(1 + ln(x)^2) + arctan(x/y)",
    "exp(-x/(r + t)) + sin(x)*cos(x)/(r*t^2)",
    "1/(x*y) + (3*x/2)/r^2 + exp(t/r)^-2",
    "r^(1/2)/(2)^(1/2) - x/r + x/(2*(r + t))",
    "cot(x)^3 + sec(y)^2 + tan(x/(r*t))",
    "sin(x/(y + 1))^2 + sin(x/(y + 1)) - x/(y + 1)",
    "(x + y)^(1/2)*(x + y)^(3/2) + (x^2*y)^(2/3)/t + 1/(r^2 - 2)^(1/2)",
    "exp(x + 2*y) - exp(-x)*cos(x - y)/(3*y)",
]


def generated_source() -> str:
    """Every (name, parameters, body) that the runs of `integrate`, then
    one compile of COMPONENTS, hand to the code generator's exec, as
    text."""
    define = liesym.numeric._define
    out = []

    def recording(name, params, body):
        out.append(f"-- {name}({', '.join(params)})\n")
        out.extend(line + "\n" for line in body)
        return define(name, params, body)

    liesym.numeric._define = recording
    try:
        for argv in RUNS:
            out.append(f"== integrate {' '.join(argv)}\n")
            with redirect_stdout(io.StringIO()):
                assert main(["integrate", *argv, *INIT]) == 0
        out.append("== compile_numeric\n")
        compile_numeric([rf(c) for c in COMPONENTS], ["x", "y", "r", "t"])
    finally:
        liesym.numeric._define = define
    return "".join(out)


def test_generated_source_matches_golden():
    assert generated_source() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(generated_source())
    sys.exit(0)
