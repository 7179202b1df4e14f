"""Deterministic text, JSON, and LaTeX report emitters.

This is the render boundary: field components, residuals and first
integrals arrive as canonical RatFuncs and are printed with str()."""

from __future__ import annotations

from .liealg import LieAlgebra


def dumps_json(payload) -> str:
    import json  # only JSON reports load it

    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def generator_entry(report) -> dict:
    entry = {
        "name": report.field.name,
        "xi": str(report.field.xi),
        "eta": [str(c) for c in report.field.eta],
        "pass": report.passed,
        "residuals": [str(r) for r in report.residuals],
    }
    if report.first_integral is not None:
        entry["first_integral"] = str(report.first_integral)
    if report.notes:
        entry["notes"] = report.notes
    return entry


def analyze_payload(mode, metric, reports, system, nullspace_dim, ansatz) -> dict:
    return {
        "mode": mode,
        "metric_id": metric.name,
        "chart": {"param": metric.chart.param, "coords": list(metric.chart.coords)},
        "generators": [generator_entry(r) for r in reports],
        "determining_equations_count": len(system),
        "nullspace_dim": nullspace_dim,
        "ansatz": {"degree": ansatz.degree, "kernels": list(ansatz.kernels)},
    }


def verify_payload(mode, metric, reports) -> dict:
    return {
        "mode": mode,
        "metric_id": metric.name,
        "generators": [generator_entry(r) for r in reports],
        "all_pass": all(r.passed for r in reports),
    }


def _field_text(field) -> str:
    parts = []
    if not field.xi.is_zero():
        parts.append(f"({field.xi}) d_{field.chart.param}")
    for c, comp in zip(field.chart.coords, field.eta):
        if not comp.is_zero():
            parts.append(f"({comp}) d_{c}")
    return " + ".join(parts) if parts else "0"


def verify_text(payload, reports) -> str:
    lines = [f"mode: {payload['mode']}", f"metric: {payload['metric_id']}"]
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        lines.append(f"  {rep.field.name}: {status}   {_field_text(rep.field)}")
        if not rep.passed:
            for r in rep.residuals:
                if not r.is_zero():
                    lines.append(f"      residual: {r}")
            for note in rep.notes:
                lines.append(f"      note: {note}")
        elif rep.first_integral is not None:
            lines.append(f"      first integral: {rep.first_integral}")
    lines.append("result: " + ("all pass" if payload["all_pass"] else "failures present"))
    return "\n".join(lines) + "\n"


def analyze_text(payload, reports) -> str:
    lines = [
        f"mode: {payload['mode']}",
        f"metric: {payload['metric_id']}",
        f"determining equations: {payload['determining_equations_count']}",
        f"nullspace dimension: {payload['nullspace_dim']}",
    ]
    for rep in reports:
        lines.append(f"  {rep.field.name}: {_field_text(rep.field)}")
        if rep.first_integral is not None:
            lines.append(f"      first integral: {rep.first_integral}")
    return "\n".join(lines) + "\n"


def analyze_latex(payload) -> str:
    lines = [r"\begin{align*}"]
    gens = payload["generators"]
    param = payload["chart"]["param"]
    coords = [_latexify(c) for c in payload["chart"]["coords"]]
    for i, g in enumerate(gens):
        terms = []
        if g["xi"] != "0":
            terms.append(rf"({_latexify(g['xi'])})\,\partial_{{{param}}}")
        for c, comp in zip(coords, g["eta"]):
            if comp != "0":
                terms.append(rf"({_latexify(comp)})\,\partial_{{{c}}}")
        body = " + ".join(terms) if terms else "0"
        sep = r"\\" if i + 1 < len(gens) else ""
        lines.append(rf"{g['name']} &= {body} {sep}")
    lines.append(r"\end{align*}")
    return "\n".join(lines) + "\n"


def _latexify(text: str) -> str:
    import re

    out = re.sub(r"\b(arctan|sin|cos|tan|cot|csc|sec|exp|ln)\(", r"\\\1(", text)
    out = re.sub(r"\btheta\b", r"\\theta", out)
    out = re.sub(r"\bphi\b", r"\\varphi", out)
    return out.replace("*", r"\,")


def commutator_table_text(g: LieAlgebra) -> str:
    """Each column padded to its widest cell plus two spaces."""
    names = g.names()
    m = g.dim

    def entry(i, j):
        parts = []
        for k in range(m):
            c = g.c[i][j][k]
            if c == 0:
                continue
            if c == 1:
                parts.append(names[k])
            elif c == -1:
                parts.append(f"-{names[k]}")
            else:
                parts.append(f"{c}*{names[k]}")
        return " + ".join(parts) if parts else "0"

    table = [["[ , ]", *names]]
    table += [[names[i], *(entry(i, j) for j in range(m))] for i in range(m)]
    widths = [max(len(row[col]) for row in table) + 2 for col in range(m + 1)]
    lines = ["".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines) + "\n"


def commutator_table_latex(g: LieAlgebra) -> str:
    names = g.names()
    m = g.dim

    def entry(i, j):
        parts = []
        for k in range(m):
            c = g.c[i][j][k]
            if c == 0:
                continue
            coeff = "" if c == 1 else ("-" if c == -1 else str(c))
            parts.append(f"{coeff}{{\\bf {names[k]}}}")
        return " + ".join(parts) if parts else "0"

    cols = "c" * (m + 1)
    lines = [
        r"\begin{tabular}{" + cols + "}",
        r"\hline\hline",
        "  $[~,~]$ & " + " & ".join(f"${{\\bf {n}}}$" for n in names) + r" \\",
        r"\hline",
    ]
    for i in range(m):
        row = " & ".join(entry(i, j) for j in range(m))
        lines.append(f"${{\\bf {names[i]}}}$ & {row} \\\\")
        lines.append(r"\hline")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


def killing_text(K, dim) -> str:
    rows = []
    for i in range(dim):
        rows.append("  [ " + "  ".join(str(K[i, j]) for j in range(dim)) + " ]")
    return "\n".join(rows) + "\n"


def killing_latex(K, dim) -> str:
    lines = [r"\begin{bmatrix}"]
    for i in range(dim):
        row = " & ".join(str(K[i, j]) for j in range(dim))
        lines.append(row + (r" \\" if i + 1 < dim else ""))
    lines.append(r"\end{bmatrix}")
    return "\n".join(lines) + "\n"


def structure_constants_json(g: LieAlgebra) -> dict:
    entries = []
    m = g.dim
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if g.c[i][j][k]:
                    entries.append([i, j, k, str(g.c[i][j][k])])
    return {"basis": g.names(), "c": entries}
