"""`liesym integrate` at the step cap: it finishes, and memory stays flat.

Runs `integrate` for MAX_STEPS = 10^6 RK4 steps on the packaged
vaidya_bonner metric (M = 1, Q = t) and asserts exit status 0, the
line `steps: 1000000` and a child maximum resident set size under
40 MB.  No sample is stored, so the step count bounds the time of the
run, not its memory.

    python tests/step_cap_check.py [COMMAND...]

COMMAND is how to start liesym, `liesym` (the console script) by
default; `python -m liesym.cli` runs it from a source tree with `src`
on PYTHONPATH.  Exits 0 when every assertion holds.
"""

import resource
import subprocess
import sys

ARGS = ["integrate", "vaidya_bonner.metric", "--bind", "M=1", "--bind", "Q=t",
        "--init", "0", "10", "1.2", "0", "1", "0", "0.01", "0.05",
        "--step", "0.00001", "--span", "10"]
MAX_RSS_MB = 40


def main(command) -> int:
    out = subprocess.run([*command, *ARGS], capture_output=True, text=True)
    # ru_maxrss is in KiB on Linux: the largest child waited for
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(out.stdout, end="")
    print(f"child max RSS: {rss_mb:.1f} MB")
    assert out.returncode == 0, (out.returncode, out.stderr)
    assert "steps: 1000000" in out.stdout.splitlines(), out.stdout
    assert rss_mb < MAX_RSS_MB, f"child max RSS {rss_mb:.1f} MB >= {MAX_RSS_MB} MB"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["liesym"]))
