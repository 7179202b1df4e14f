"""Seeded inputs, command sequences and output checks of the benchmark.

A workload is a list of `liesym` commands, each run as its own process.
Every command carries a check that decides from the mathematics, not
from the program under test, whether its exit code and stdout are
right; a check returns None or the reason the output is wrong.  The
same workload name and seed always give the same files and commands.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

WORKLOADS = ("solve", "verify_algebra")

Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Command:
    kind: str      # the CLI subcommand and mode, e.g. "verify_noether"
    argv: tuple    # arguments after `liesym`
    check: Check
    fields: int = 0  # generator fields the command verifies


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict    # file name -> text, written next to where commands run
    commands: tuple


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    files, commands = {}, []
    for part in _PARTS[name]:
        part_files, part_commands = part(random.Random(f"liesym-bench:{part.__name__}:{seed}"))
        files.update(part_files)
        commands.extend(part_commands)
    return Workload(name, files, tuple(commands))


def _nonzero_rational(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _combine(terms, slots: int) -> str:
    """Generator-file body of sum(c * field) for (coefficient, components) pairs."""
    comps = []
    for k in range(slots):
        parts = [f"({c})*({f[k]})" for c, f in terms if f[k] != "0"]
        comps.append(" + ".join(parts) if parts else "0")
    return " | ".join(comps)


# ---------------------------------------------------------------------------
# solve: the determining-equation solver on a seeded constant-mass metric and
# on the bundled opaque-profile metric.

# Every pair (m0, q1) was run through both checks below.  Any nonzero pair
# gives the same algebra: d_s, s d_s, d_phi and two rotations.
SOLVE_MASSES = (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(7, 2))
SOLVE_CHARGE_RATES = (Fraction(1, 3), Fraction(2, 5), Fraction(3, 4), Fraction(5, 3))

VB_HEADER = "param s\ncoords t r theta phi\nangles theta phi\n"
VB_REST = "g 0 1 = -1\ng 2 2 = r^2\ng 3 3 = r^2*sin(theta)^2\n"


def _solve(rng):
    m0 = rng.choice(SOLVE_MASSES)
    q1 = rng.choice(SOLVE_CHARGE_RATES)
    metric = (f"# Vaidya-Bonner with M = {m0}, Q = {q1}*t\n" + VB_HEADER
              + f"g 0 0 = -(1 - ({m0})/r + ({q1})*t/r^2)\n" + VB_REST)
    commands = [
        Command("analyze_liepoint",
                ("analyze", "vb_const_mass.metric", "--liepoint", "--format", "json"),
                check_analyze(equations=70, fields=5)),
        Command("analyze_noether",
                ("analyze", "vaidya_bonner.metric", "--noether", "--format", "json"),
                check_analyze(equations=29, fields=4)),
    ]
    return {"vb_const_mass.metric": metric}, commands


def check_analyze(equations: int, fields: int) -> Check:
    def check(code, out):
        if code != 0:
            return f"exit {code}, expected 0"
        payload = json.loads(out)
        got = (payload["determining_equations_count"], payload["nullspace_dim"])
        if got != (equations, fields):
            return f"(equations, nullspace_dim) = {got}, expected {(equations, fields)}"
        gens = payload["generators"]
        if len(gens) != fields or not all(g["pass"] is True for g in gens):
            return "not every solved generator verifies"
        return None
    return check


# ---------------------------------------------------------------------------
# verify_algebra, first part: seeded generator files of known verdict,
# checked on every bundled metric in both modes.  Chart slots are
# s | t | r | theta | phi.

D_S = ("1", "0", "0", "0", "0")
D_PHI = ("0", "0", "0", "0", "1")
ROT1 = ("0", "0", "0", "-cos(phi)", "sin(phi)*cot(theta)")
ROT2 = ("0", "0", "0", "sin(phi)", "cos(phi)*cot(theta)")
S_D_S = ("s", "0", "0", "0", "0")  # affine reparametrization: Lie point only
HOMOTHETY = ("s", "t", "r", "0", "0")  # Lie point on M = t, Q = t^2 only
# Neither is a symmetry of any bundled metric in either mode, so adding a
# nonzero multiple of one to a symmetry gives a field that must fail.
PERTURBATIONS = (("0", "0", "0", "r", "0"), ("0", "t", "0", "0", "0"))

VERIFY_METRICS = ("vaidya_bonner", "vaidya_bonner_M1_Qt", "vaidya_bonner_Mt_Qt2")
# (fields per file, of which must fail); the M = 1, Q = t files pass entirely.
VERIFY_SIZES = {"liepoint": (8, 3), "noether": (12, 4)}


def _symmetries(metric: str, mode: str):
    basis = [D_S, D_PHI, ROT1, ROT2]
    if mode == "liepoint":
        basis.append(S_D_S)
        if metric == "vaidya_bonner_Mt_Qt2":
            basis.append(HOMOTHETY)
    return basis


def _verify(rng):
    files = {}
    commands = []
    for mode in ("liepoint", "noether"):
        for metric in VERIFY_METRICS:
            total, failing = VERIFY_SIZES[mode]
            if metric == "vaidya_bonner_M1_Qt":
                failing = 0
            basis = _symmetries(metric, mode)
            verdicts = [True] * (total - failing) + [False] * failing
            rng.shuffle(verdicts)
            lines = []
            expected = {}
            n_failing = 0
            for i, passes in enumerate(verdicts):
                terms = [(_nonzero_rational(rng), f) for f in basis]
                if not passes:
                    terms.append((_nonzero_rational(rng),
                                  PERTURBATIONS[n_failing % len(PERTURBATIONS)]))
                    n_failing += 1
                name = f"X{i + 1}"
                expected[name] = passes
                lines.append(f"gen {name} = {_combine(terms, 5)}")
            gens = f"bench_{metric}_{mode}.gens"
            files[gens] = "\n".join(lines) + "\n"
            commands.append(Command(f"verify_{mode}",
                                    ("verify", f"{metric}.metric", gens, f"--{mode}"),
                                    check_verify(expected), fields=total))
    # The bundled list: d_t is a Noether symmetry only for constant M and Q.
    commands.append(Command(
        "verify_noether",
        ("verify", "vaidya_bonner.metric", "vb_general.gens", "--noether"),
        check_verify({"X1": True, "X2": False, "X3": True, "X4": True, "X5": True}),
        fields=5))
    return files, commands


_VERDICT = re.compile(r"^  (\S+): (pass|FAIL)\b", re.MULTILINE)


def check_verify(expected: dict) -> Check:
    want_code = 0 if all(expected.values()) else 1

    def check(code, out):
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        got = {name: verdict == "pass" for name, verdict in _VERDICT.findall(out)}
        if got != expected:
            wrong = sorted(n for n in expected.keys() | got.keys()
                           if got.get(n) != expected.get(n))
            return f"wrong verdicts for {', '.join(wrong)}"
        return None
    return check


# ---------------------------------------------------------------------------
# verify_algebra, second part: Lie algebra structure, optimal-system
# coverage and RK4.

FREE_PARTICLE = "# Flat plane: geodesics x'' = y'' = 0\nparam s\ncoords x y\ng 0 0 = 1\ng 1 1 = 1\n"
OPTIMAL_SAMPLES = 5000
RK4_STEP, RK4_SPAN, RK4_STEPS = "0.0005", "10", 20000
# Conserved along exact geodesics; RK4 at this step keeps them to ~1e-12.
DRIFT_TOLERANCE = 1e-8
# Initial state band around (t, r, theta, phi | velocities) =
# (0, 10, pi/2, 0 | 1, 0, 0, 0.05); every corner integrates to s = 10
# without approaching a singular denominator.
INIT_BAND = ((0.0, 0.0), (9.5, 10.5), (math.pi / 2 - 0.05, math.pi / 2 + 0.05), (0.0, 1.0),
             (0.95, 1.05), (-0.01, 0.01), (-0.005, 0.005), (0.045, 0.055))


def _sl4_fields():
    """The 15 Lie point symmetries of the free particle in the plane.

    They span sl(4), the projective algebra of (s, x, y): translations,
    the nine linear fields z^j d_{z^i}, and the three z^j (z^k d_{z^k})."""
    z = ("s", "x", "y")
    fields = []
    for i in range(3):
        fields.append(tuple("1" if k == i else "0" for k in range(3)))
    for i in range(3):
        for j in range(3):
            fields.append(tuple(z[j] if k == i else "0" for k in range(3)))
    for j in range(3):
        fields.append(tuple(f"{z[j]}*{z[k]}" for k in range(3)))
    return fields


def _algebra(rng):
    fields = _sl4_fields()
    rng.shuffle(fields)
    lines = [f"gen X{i + 1} = {_combine([(_nonzero_rational(rng), f)], 3)}"
             for i, f in enumerate(fields)]
    # Fixed-point, never exponent form: argparse reads "-4.4e-05" as an option
    # flag, not as a negative number.
    init = [f"{rng.uniform(lo, hi):.15f}" for lo, hi in INIT_BAND]
    optimal_seed = str(rng.randrange(1, 10**6))
    files = {"free_particle.metric": FREE_PARTICLE, "sl4.gens": "\n".join(lines) + "\n"}
    commands = [
        Command("algebra",
                ("algebra", "sl4.gens", "--metric", "free_particle.metric", "--format", "json"),
                check_algebra(dims=[15, 15], radical_dim=0, semisimple=True, solvable=False)),
        # d_s, d_t central; d_phi and the rotations span so(3).
        Command("algebra",
                ("algebra", "vb_general.gens", "--metric", "vaidya_bonner.metric",
                 "--format", "json"),
                check_algebra(dims=[5, 3, 3], radical_dim=2, semisimple=False, solvable=False)),
        Command("optimal",
                ("optimal", "vb_general.gens", "--metric", "vaidya_bonner.metric",
                 "--samples", str(OPTIMAL_SAMPLES), "--seed", optimal_seed),
                check_optimal(OPTIMAL_SAMPLES)),
        Command("integrate",
                ("integrate", "vaidya_bonner.metric", "--bind", "M=1", "--bind", "Q=t",
                 "--init", *init, "--step", RK4_STEP, "--span", RK4_SPAN),
                check_integrate(RK4_STEPS, DRIFT_TOLERANCE)),
    ]
    return files, commands


def check_algebra(dims, radical_dim, semisimple, solvable) -> Check:
    def check(code, out):
        if code != 0:
            return f"exit {code}, expected 0"
        p = json.loads(out)
        got = (p["derived_series_dims"], len(p["radical"]), p["semisimple"], p["solvable"])
        want = (dims, radical_dim, semisimple, solvable)
        if got != want:
            return f"(derived series, radical dim, semisimple, solvable) = {got}, expected {want}"
        return None
    return check


def check_optimal(samples: int) -> Check:
    def check(code, out):
        if code != 0:
            return f"exit {code}, expected 0"
        p = json.loads(out)
        if p["samples"] != samples or p["matched_total"] != p["valid_total"] or p["unmatched"]:
            return (f"{p['matched_total']} of {p['valid_total']} samples matched, "
                    f"{len(p['unmatched'])} unmatched")
        return None
    return check


def check_integrate(steps: int, tolerance: float) -> Check:
    def check(code, out):
        if code != 0:
            return f"exit {code}, expected 0"
        if f"steps: {steps}\n" not in out:
            return f"step count is not {steps}"
        drifts = re.findall(r"^drift (\S+): (\S+)$", out, re.MULTILINE)
        if not any(name == "lagrangian" for name, _ in drifts):
            return "no Lagrangian drift reported"
        bad = [name for name, value in drifts if not float(value) < tolerance]
        if bad:
            return f"drift above {tolerance} for {', '.join(bad)}"
        return None
    return check


# Both workloads take about 20 s per pass, so a run of BENCHMARK.json's
# run_seconds holds two or three passes of either.  verify_algebra never
# reaches the ansatz solver.
_PARTS = {"solve": (_solve,), "verify_algebra": (_verify, _algebra)}
