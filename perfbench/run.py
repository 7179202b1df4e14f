"""Benchmark of the liesym command line.

    python3 perfbench/run.py --workload {solve,verify_algebra} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The workload's commands run one at a
time, each as its own `python3 -m liesym.cli` process with the
checkout's `src` on PYTHONPATH: one client in a closed loop.  A pass is
the workload's whole command sequence; passes repeat while another one
fits in S seconds, and at least one runs.  Every command's exit code
and stdout are checked (see workloads.py); a command that misses its
expectation is a failed op.

With --trace 0 the last line of stdout holds the end-to-end metrics of
BENCHMARK.json.  With --trace 1 it holds the per-layer metrics: passes
run untraced for S/2 seconds, then under perfbench/tracer.py for S/2.
Generated inputs and traces live in perfbench/.work/ while it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

SETUP_REPEATS = 9
# The benchmark must end within 180 s; a command still running at this
# point, or started after it, is killed and counted as failed.
DEADLINE_S = 165.0
HERE = Path(__file__).resolve().parent


@dataclass
class Outcome:
    code: int | None  # None when killed at the deadline
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: str


@dataclass
class Pass:
    outcomes: list = field(default_factory=list)
    traces: list = field(default_factory=list)

    @property
    def wall(self):
        return sum(o.wall for o in self.outcomes)


def judge(cmd: workloads.Command, outcome: Outcome):
    """The check's verdict; output it cannot read is a failure, not a crash."""
    if outcome.code is None:
        return "killed at the benchmark's deadline"
    try:
        return cmd.check(outcome.code, outcome.stdout.decode("utf-8"))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        # An installed liesym carries bytecode; the warm-up import in
        # setup_s writes it under src/ whatever the caller's setting.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env = env
        self.attempted = 0
        self.failed = 0

    def generate(self) -> workloads.Workload:
        wl = workloads.build(self.workload, self.seed)
        self.work.mkdir(parents=True, exist_ok=True)
        for name, text in wl.files.items():
            (self.work / name).write_text(text)
        return wl

    def setup_s(self) -> float:
        """Median over SETUP_REPEATS of: generate the inputs, then start
        the interpreter and import liesym.cli."""
        samples = []
        for i in range(SETUP_REPEATS + 1):
            t = time.monotonic()
            self.generate()
            gen = time.monotonic() - t
            outcome = self.spawn(("-c", "import liesym.cli"))
            if outcome.code != 0:
                raise RuntimeError(f"cannot import liesym.cli:\n{outcome.stderr}")
            if i:  # the first import fills the bytecode cache
                samples.append(gen + outcome.wall)
        return statistics.median(samples)

    def spawn(self, args, traced=False) -> Outcome:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.monotonic()
            env = {**self.env, "PERFBENCH_T0": repr(t0)} if traced else self.env
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work, env=env,
                                    stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            try:
                timeout = max(0.0, self.deadline - time.monotonic())
                killed = not select.select([pidfd], [], [], timeout)[0]
                if killed:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(None if killed else proc.returncode, wall,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                       out_path.read_bytes(), err_path.read_text(errors="replace"))

    def run_command(self, cmd, trace_path=None, reference=None) -> Outcome:
        if trace_path is None:
            outcome = self.spawn(("-m", "liesym.cli", *cmd.argv))
        else:
            outcome = self.spawn((str(HERE / "tracer.py"), str(trace_path), *cmd.argv),
                                 traced=True)
        failure = judge(cmd, outcome)
        if failure is None and reference is not None and outcome.stdout != reference.stdout:
            failure = "traced stdout differs from untraced stdout"
        self.attempted += 1
        if failure:
            self.failed += 1
            print(f"perfbench: FAILED liesym {' '.join(cmd.argv)}: {failure}\n"
                  f"{outcome.stderr[-2000:]}", file=sys.stderr)
        return outcome

    def run_passes(self, wl, seconds: float, traced=False, reference=None) -> list:
        """Passes while another fits in `seconds`; at least one."""
        passes = []
        start = time.monotonic()
        while True:
            p = Pass()
            passes.append(p)
            for i, cmd in enumerate(wl.commands):
                path = self.work / f"trace-{len(passes)}-{i}.json" if traced else None
                ref = reference.outcomes[i] if reference else None
                p.outcomes.append(self.run_command(cmd, path, ref))
                if path is not None:
                    p.traces.append(path)
            elapsed = time.monotonic() - start
            if (elapsed + max(q.wall for q in passes) > seconds
                    or time.monotonic() >= self.deadline):
                return passes


def end_to_end(passes, setup: float) -> dict:
    def geomean(p):
        return math.exp(statistics.fmean(math.log(o.wall) for o in p.outcomes))

    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(sum(o.cpu for o in p.outcomes) for p in passes),
        "cmd_geomean_s": statistics.median(geomean(p) for p in passes),
        "peak_rss_mb": max(o.rss_mb for p in passes for o in p.outcomes),
        "setup_s": setup,
    }


def per_layer(wl, plain, traced, names) -> dict:
    layers = [tracer.pass_metrics(p.traces) for p in traced]
    m = {name: statistics.median(d.get(name, 0) for d in layers) for name in names}
    m["trace.overhead_ratio"] = (statistics.median(p.wall for p in traced)
                                 / statistics.median(p.wall for p in plain))

    def untraced_wall(kinds):
        return statistics.median(
            sum(o.wall for c, o in zip(wl.commands, p.outcomes) if c.kind in kinds)
            for p in plain)

    # cli.<kind>.s: untraced wall time of the pass's commands of that kind.
    for name in names:
        if name.startswith("cli.") and name.endswith(".s"):
            m[name] = untraced_wall({name[4:-2]})
    verify = {"verify_liepoint", "verify_noether"}
    verify_wall = untraced_wall(verify)
    fields = sum(c.fields for c in wl.commands if c.kind in verify)
    m["cli.fields_per_s"] = fields / verify_wall if verify_wall else 0.0
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "liesym" / "cli.py").is_file():
        print(f"perfbench: no src/liesym/cli.py under {root}; run from a liesym checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    bench = Bench(root, args.workload, args.seed, deadline)
    try:
        setup = bench.setup_s()
        wl = bench.generate()
        if args.trace:
            wanted = spec["per_layer"]
            plain = bench.run_passes(wl, args.seconds / 2)
            traced = bench.run_passes(wl, args.seconds / 2, traced=True,
                                      reference=plain[0])
            values = per_layer(wl, plain, traced, [m["name"] for m in wanted])
        else:
            wanted = spec["end_to_end"]
            values = end_to_end(bench.run_passes(wl, args.seconds), setup)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:  # another run's inputs are still there
            pass

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
