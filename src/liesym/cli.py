"""Command-line front end.

Exit codes: 0 success, 1 a requested verification failed, 2 parse,
format or argument errors, 3 unsupported math: a singular metric, an
algebra outside the optimal system's tables, or a failed numeric
integration.  Reports are byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import (
    AnsatzError,
    DependentBasisError,
    FormatError,
    IntegrationError,
    LieSymError,
    NonClosureError,
    SingularMetricError,
    VerificationError,
)
from .files import load_generators, load_metric
from .geometry import geodesic_lagrangian, geodesic_system
from .liealg import levi_split, structure_constants
from .numeric import drift_along_trace, integrate_geodesic, step_count
from .optimal import (
    MAX_SAMPLES,
    OptimalSystemError,
    default_representatives,
    verify_optimal_cover,
)
from .reporting import (
    algebra_latex,
    algebra_payload,
    algebra_text,
    analyze_latex,
    analyze_payload,
    analyze_text,
    dumps_json,
    verify_payload,
    verify_text,
)
from .symexpr import ExprSyntaxError, derive, parse_expr
from .symexpr.poly import RAT_ONE
from .symmetry import (
    default_ansatz,
    determining_system,
    solve_determining,
    verify_liepoint,
    verify_noether,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_FORMAT = 2
EXIT_UNSUPPORTED = 3


def _checked(convert, ok, requirement):
    """An argparse type: convert the text, then require ok(value)."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")
        return value

    return parse


_positive_finite = _checked(float, lambda v: math.isfinite(v) and v > 0,
                            "a finite number > 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liesym",
        description="Symmetry analysis of geodesic equations over exact rationals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="solve the determining equations of a metric")
    p.add_argument("metric")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--noether", action="store_true")
    mode.add_argument("--liepoint", action="store_true")
    p.add_argument("--ansatz-degree", type=_checked(int, lambda v: v >= 0, "an integer >= 0"),
                   default=2)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")

    p = sub.add_parser("verify", help="verify generators from a file against a metric")
    p.add_argument("metric")
    p.add_argument("generators")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--noether", action="store_true")
    mode.add_argument("--liepoint", action="store_true")

    p = sub.add_parser("algebra", help="structure analysis of a generator list")
    p.add_argument("generators")
    p.add_argument("--metric", required=True)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")

    p = sub.add_parser("optimal", help="one-dimensional optimal-system coverage")
    p.add_argument("generators")
    p.add_argument("--metric", required=True)
    p.add_argument("--samples", type=_checked(int, lambda v: 1 <= v <= MAX_SAMPLES,
                                              f"an integer from 1 to {MAX_SAMPLES}"),
                   default=1000)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("integrate", help="numerically integrate geodesics")
    p.add_argument("metric")
    p.add_argument("--bind", action="append", default=[],
                   metavar="NAME=EXPR", help="instantiate an opaque function")
    p.add_argument("--init", nargs="+", required=True, type=float,
                   help="initial coordinates then velocities")
    p.add_argument("--step", type=_positive_finite, required=True)
    p.add_argument("--span", type=_positive_finite, required=True)
    p.set_defaults(usage_error=p.error)
    return parser


def _mode_of(args) -> str:
    if getattr(args, "noether", False):
        return "noether"
    return "liepoint"


def _verification_target(metric, mode: str):
    """The geodesic Lagrangian for Noether checks, or the geodesic
    system for Lie point checks, derived once per command and shared by
    every field."""
    return geodesic_lagrangian(metric) if mode == "noether" else geodesic_system(metric)


def _verify_all(fields, target, mode: str) -> list:
    verify = verify_noether if mode == "noether" else verify_liepoint
    return [verify(f, target) for f in fields]


def cmd_analyze(args) -> int:
    metric = load_metric(args.metric)
    mode = _mode_of(args)
    target = _verification_target(metric, mode)
    system = determining_system(metric if mode == "noether" else target, mode)
    ansatz = default_ansatz(metric.chart, args.ansatz_degree)
    fields = solve_determining(system, ansatz)
    reports = _verify_all(fields, target, mode)
    payload = analyze_payload(mode, metric, reports, system, len(fields), ansatz)
    view = {"text": analyze_text, "json": dumps_json, "latex": analyze_latex}[args.format]
    sys.stdout.write(view(payload))
    if not all(r.passed for r in reports):
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_verify(args) -> int:
    metric = load_metric(args.metric)
    fields = load_generators(args.generators, metric.chart, metric.functions)
    mode = _mode_of(args)
    reports = _verify_all(fields, _verification_target(metric, mode), mode)
    payload = verify_payload(mode, metric, reports)
    sys.stdout.write(verify_text(payload))
    return EXIT_OK if payload["all_pass"] else EXIT_VERIFICATION


def cmd_algebra(args) -> int:
    metric = load_metric(args.metric)
    fields = load_generators(args.generators, metric.chart, metric.functions)
    g = structure_constants(fields)
    view = {"text": algebra_text, "json": dumps_json, "latex": algebra_latex}[args.format]
    sys.stdout.write(view(algebra_payload(g, *levi_split(g))))
    return EXIT_OK


def cmd_optimal(args) -> int:
    metric = load_metric(args.metric)
    fields = load_generators(args.generators, metric.chart, metric.functions)
    g = structure_constants(fields)
    reps = default_representatives()
    report = verify_optimal_cover(g, reps, samples=args.samples, seed=args.seed)
    names = g.names()
    report["reps"] = [
        {"case": rep.case_id, "pattern": rep.describe(names)} for rep in reps
    ]
    sys.stdout.write(dumps_json(report))
    covered = report["matched_total"] == report["valid_total"]
    return EXIT_OK if covered else EXIT_VERIFICATION


def cmd_integrate(args) -> int:
    try:
        step_count(args.step, args.span)
    except IntegrationError as exc:
        args.usage_error(f"argument --span/--step: {exc}")
    metric = load_metric(args.metric)
    chart = metric.chart
    n = chart.dim
    if len(args.init) != 2 * n:
        raise FormatError("<init>", 0, f"--init needs {2 * n} numbers for this chart")
    bindings = {}
    for item in args.bind:
        name, eq, expr_text = item.partition("=")
        if not eq:
            raise FormatError("<bind>", 0, "--bind expects NAME=EXPR")
        if name not in metric.functions:
            raise FormatError("<bind>", 0, f"{name!r} is not a declared function")
        try:
            # No declared functions: an opaque call or D(...) marker is
            # rejected here, as a binding must be numeric.
            value, symbols = parse_expr(expr_text, {})
        except (ZeroDivisionError, ValueError) as exc:
            raise FormatError("<bind>", 0, str(exc))
        fargs = metric.functions[name]
        stray = sorted(symbols - set(fargs))
        if stray:
            raise FormatError("<bind>", 0, f"symbols {stray} are not arguments of "
                              f"{name}({', '.join(fargs)})")
        bindings[name] = value
    missing = set(metric.functions) - set(bindings)
    if missing:
        raise FormatError("<bind>", 0, f"unbound functions: {sorted(missing)}")
    system = geodesic_system(metric)
    trace = integrate_geodesic(system, bindings, args.init[:n], args.init[n:],
                               args.step, args.span)
    lagrangian = geodesic_lagrangian(metric)
    watches = [("lagrangian", lagrangian)]
    for c in chart.coords:
        cyclic = all(derive(comp, {c: RAT_ONE}).is_zero()
                     for row in metric.components for comp in row)
        if cyclic:
            watches.append((f"momentum_{c}", derive(lagrangian, {chart.jet1(c): RAT_ONE})))
    lines = [f"steps: {len(trace.samples) - 1}", f"step: {trace.step!r}"]
    s_end, x_end, v_end = trace.samples[-1]
    lines.append("final s: " + repr(s_end))
    lines.append("final x: " + " ".join(repr(v) for v in x_end))
    lines.append("final xdot: " + " ".join(repr(v) for v in v_end))
    drifts = drift_along_trace([expr for _, expr in watches], trace, chart, bindings)
    for (label, _), drift in zip(watches, drifts):
        lines.append(f"drift {label}: {drift!r}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "verify": cmd_verify,
        "algebra": cmd_algebra,
        "optimal": cmd_optimal,
        "integrate": cmd_integrate,
    }
    try:
        return handlers[args.command](args)
    except (FormatError, ExprSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (OptimalSystemError, IntegrationError, SingularMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (VerificationError, NonClosureError, DependentBasisError, AnsatzError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except LieSymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
