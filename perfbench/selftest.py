"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

from the root of a checkout; about 15 s.  They check that the tracer
leaves stdout unchanged, that a wrong expectation is a failed op rather
than a crash, that inputs depend on the seed alone, and that liesym's
argument parser accepts every generated command line.
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path

import run
import tracer
import workloads

ROOT = Path.cwd()


def _bench(name, seed=3):
    bench = run.Bench(ROOT, name, seed, time.monotonic() + 120)
    return bench, bench.generate()


def _command(wl, kind):
    return next(c for c in wl.commands if c.kind == kind)


def tearDownModule():
    try:
        (run.HERE / ".work").rmdir()
    except OSError:
        pass


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.build(name, 11), workloads.build(name, 11)
            self.assertEqual(a.files, b.files)
            self.assertEqual([c.argv for c in a.commands], [c.argv for c in b.commands])

    def test_other_seed_other_inputs(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.build(name, 11), workloads.build(name, 12)
            self.assertNotEqual((a.files, [c.argv for c in a.commands]),
                                (b.files, [c.argv for c in b.commands]))

    def test_every_argv_parses(self):
        sys.path.insert(0, str(ROOT / "src"))
        from liesym.cli import build_parser
        parser = build_parser()
        for name in workloads.WORKLOADS:
            for seed in range(1000):
                for c in workloads.build(name, seed).commands:
                    try:
                        parser.parse_args(c.argv)
                    except SystemExit:
                        self.fail(f"seed {seed}: liesym rejects {' '.join(c.argv)}")


class CheckTest(unittest.TestCase):
    def test_wrong_expectation_is_a_failed_op(self):
        bench, wl = _bench("verify_algebra")
        try:
            cmd = next(c for c in wl.commands if "vb_general.gens" in c.argv
                       and c.kind == "verify_noether")
            wrong = workloads.Command(cmd.kind, cmd.argv, workloads.check_verify(
                {"X1": True, "X2": True, "X3": True, "X4": True, "X5": True}))
            bench.run_command(wrong)
            self.assertEqual((bench.attempted, bench.failed), (1, 1))
            bench.run_command(cmd)
            self.assertEqual((bench.attempted, bench.failed), (2, 1))
        finally:
            run.shutil.rmtree(bench.work, ignore_errors=True)

    def test_unreadable_output_is_a_failed_op(self):
        outcome = run.Outcome(0, 1.0, 1.0, 1.0, b"not json", "")
        check = workloads.check_analyze(equations=70, fields=5)
        verdict = run.judge(workloads.Command("analyze_liepoint", (), check), outcome)
        self.assertIn("unreadable output", verdict)


class TracerTest(unittest.TestCase):
    def test_traced_stdout_is_identical(self):
        cases = (("solve", "analyze_noether"), ("verify_algebra", "verify_liepoint"),
                 ("verify_algebra", "optimal"))
        for name, kind in cases:
            with self.subTest(workload=name):
                bench, wl = _bench(name)
                try:
                    cmd = _command(wl, kind)
                    plain = bench.run_command(cmd)
                    path = bench.work / "trace.json"
                    traced = bench.run_command(cmd, path, reference=plain)
                    self.assertEqual(plain.stdout, traced.stdout)
                    self.assertEqual(bench.failed, 0)
                    m = tracer.pass_metrics([path])
                    self.assertGreaterEqual(m["trace.coverage"], 0.95)
                    self.assertGreater(m["files.load.s"], 0)
                finally:
                    run.shutil.rmtree(bench.work, ignore_errors=True)

    def test_every_layer_metric_names_a_span_or_counter(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        sys.path.insert(0, str(ROOT / "src"))
        t = tracer.Tracer()
        names = set()
        t.span = lambda name, fn: names.add(name) or fn
        t.install()
        layers = {n.split(".", 1)[0] for n in names}
        kinds = {c.kind for w in workloads.WORKLOADS for c in workloads.build(w, 0).commands}
        derived = {"files.load.s", "symmetry.pass_ratio", "optimal.matched_ratio",
                   "symexpr.is_zero.true_ratio", "trace.coverage", "trace.overhead_ratio",
                   "cli.fields_per_s"}
        counters = {"symmetry.determining_equations", "symmetry.ansatz_size",
                    "symmetry.fields_verified", "linalg.rows", "linalg.cols", "linalg.nnz",
                    "linalg.nullity", "numeric.rk4_steps", "symexpr.poly_mul.calls",
                    "symexpr.poly_gcd.calls"}
        for m in spec["per_layer"]:
            key = m["name"]
            base, _, stat = key.rpartition(".")
            known = (key in derived or key in counters
                     or (stat in ("s", "self_s", "calls") and base in names)
                     or (stat == "s" and base in layers)
                     or (stat == "s" and base[4:] in kinds))
            self.assertTrue(known, key)


if __name__ == "__main__":
    unittest.main()
