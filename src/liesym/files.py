"""Line-oriented input formats for metrics and generator lists.

Metric files:
    param <name>
    coords <name>+
    angles <name>*
    function <ident>(<arg>)
    g <i> <j> = <expr>         # 0-based, i <= j, mirrored by symmetry
    # comment

Generator files:
    gen <name> = <xi-expr> | <eta-expr> | ... | <eta-expr>

Bare preset names (e.g. vaidya_bonner.metric) resolve against the
packaged data directory when no such file exists on disk.  A metric
whose determinant is canonically zero is rejected when it loads
(SingularMetricError).  Every symbol in a component must be a
coordinate or a declared function argument, and in a generator also
the parameter; the check runs on the symbol names the parser read,
which canonicalization cannot cancel (w - w), and the error names the
file and line.

Loading is the parse boundary: each expression is parsed once, by
parse_expr, which `--bind` shares, straight into its canonical RatFunc,
and metrics and fields hold canonical RatFuncs.  A line is checked in
the order: syntax, then what the kernel cannot represent, then
undeclared symbols; a generator line parses all its expressions
before its symbols are checked.  generators_to_text prints them back.
"""

from __future__ import annotations

from pathlib import Path

from .charts import CoordChart
from .errors import ChartError, FormatError, SingularMetricError
from .geometry import Metric
from .jets import BundleVectorField
from .symexpr import ExprSyntaxError, parse_expr
from .symexpr.poly import RAT_ZERO

# What the expression kernel raises for input it cannot represent:
# ZeroDivisionError for a zero denominator (1/0), ValueError for an even
# root of a negative rational ((-4)^(1/2)), for ln(0) and for input past
# a size cap.
_KERNEL_ERRORS = (ZeroDivisionError, ValueError)


def resolve_input_path(path) -> Path:
    p = Path(path)
    if p.exists():
        return p
    candidate = Path(__file__).parent / "data" / p.name
    if p.parent == Path(".") and candidate.is_file():
        return candidate
    raise FormatError(path, 0, "file not found")


def _content_lines(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise FormatError(path, 0, f"cannot read file: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def load_metric(path) -> Metric:
    path = resolve_input_path(path)
    param = None
    coords = None
    angles = ()
    functions = {}
    entries = {}
    for lineno, line in _content_lines(path):
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "param":
            if not rest or " " in rest:
                raise FormatError(path, lineno, "param takes exactly one name")
            param = rest
        elif head == "coords":
            coords = tuple(rest.split())
            if not coords:
                raise FormatError(path, lineno, "coords needs at least one name")
        elif head == "angles":
            angles = tuple(rest.split())
        elif head == "function":
            name, args, err = _parse_function_decl(rest)
            if err:
                raise FormatError(path, lineno, err)
            functions[name] = args
        elif head == "g":
            try:
                idx_i, idx_j, expr_text = _split_component(rest)
            except ValueError as exc:
                raise FormatError(path, lineno, str(exc))
            entries[(idx_i, idx_j)] = (expr_text, lineno)
        else:
            raise FormatError(path, lineno, f"unknown directive {head!r}")
    if param is None:
        raise FormatError(path, 0, "missing param line")
    if coords is None:
        raise FormatError(path, 0, "missing coords line")
    try:
        chart = CoordChart(param, coords, angles)
    except ChartError as exc:
        raise FormatError(path, 0, str(exc))
    n = chart.dim
    allowed = _allowed_symbols(chart.coords, functions)
    comps = [[RAT_ZERO] * n for _ in range(n)]
    for (i, j), (expr_text, lineno) in entries.items():
        if not (0 <= i < n and 0 <= j < n):
            raise FormatError(path, lineno, f"component index ({i}, {j}) out of range")
        if i > j:
            raise FormatError(path, lineno, "specify the upper triangle only (i <= j)")
        try:
            e, symbols = parse_expr(expr_text, functions)
        except (ExprSyntaxError, *_KERNEL_ERRORS) as exc:
            raise FormatError(path, lineno, str(exc))
        _check_symbols(path, lineno, [symbols], allowed)
        comps[i][j] = e
        comps[j][i] = e
    try:
        metric = Metric(chart, comps, functions, name=Path(path).stem)
    except ChartError as exc:
        raise FormatError(path, 0, str(exc))
    if metric.det.is_zero():
        raise SingularMetricError(f"{path}: metric determinant is canonically zero")
    return metric


def _allowed_symbols(names, functions) -> set:
    """`names` and the declared arguments of every opaque function."""
    allowed = set(names)
    for args in (functions or {}).values():
        allowed |= set(args)
    return allowed


def _check_symbols(path, lineno, symbol_sets, allowed):
    """Reject a symbol outside `allowed` in any of the sets of names the
    parser read."""
    stray = set()
    for symbols in symbol_sets:
        stray |= symbols - allowed
    if stray:
        raise FormatError(path, lineno, f"undeclared symbols: {sorted(stray)}")


def _parse_function_decl(text: str):
    if "(" not in text or not text.endswith(")"):
        return None, None, "function declaration must look like name(arg, ...)"
    name, _, arglist = text[:-1].partition("(")
    name = name.strip()
    args = tuple(a.strip() for a in arglist.split(",") if a.strip())
    if not name.isidentifier() or not args or not all(a.isidentifier() for a in args):
        return None, None, "malformed function declaration"
    return name, args, None


def _split_component(rest: str):
    left, eq, expr_text = rest.partition("=")
    if not eq:
        raise ValueError("component line must contain '='")
    parts = left.split()
    if len(parts) != 2:
        raise ValueError("component line must start with two indices")
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError("component indices must be integers")
    expr_text = expr_text.strip()
    if not expr_text:
        raise ValueError("empty component expression")
    return i, j, expr_text


def load_generators(path, chart: CoordChart, functions=None) -> list:
    path = resolve_input_path(path)
    allowed = _allowed_symbols((chart.param, *chart.coords), functions)
    fields = []
    for lineno, line in _content_lines(path):
        if not line.startswith("gen "):
            raise FormatError(path, lineno, "generator lines must start with 'gen'")
        rest = line[4:]
        name, eq, body = rest.partition("=")
        name = name.strip()
        if not eq or not name:
            raise FormatError(path, lineno, "expected 'gen <name> = ...'")
        pieces = [p.strip() for p in body.split("|")]
        if len(pieces) != chart.dim + 1:
            raise FormatError(
                path, lineno,
                f"expected {chart.dim + 1} pipe-separated expressions, found {len(pieces)}",
            )
        try:
            parsed = [parse_expr(p, functions) for p in pieces]
        except (ExprSyntaxError, *_KERNEL_ERRORS) as exc:
            raise FormatError(path, lineno, str(exc))
        _check_symbols(path, lineno, [symbols for _, symbols in parsed], allowed)
        try:
            f = BundleVectorField(chart, [e for e, _ in parsed], name=name)
        except ChartError as exc:
            raise FormatError(path, lineno, str(exc))
        fields.append(f)
    if not fields:
        raise FormatError(path, 0, "no generators in file")
    return fields


def generators_to_text(fields) -> str:
    lines = []
    for f in fields:
        parts = [str(f.xi)] + [str(c) for c in f.eta]
        lines.append(f"gen {f.name or 'X'} = " + " | ".join(parts))
    return "\n".join(lines) + "\n"
