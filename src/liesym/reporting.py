"""Deterministic text, JSON, and LaTeX report emitters.

This is the report boundary.  Each multi-format command builds one
payload of strings, numbers and lists, in which every field component,
residual, first integral and structure constant is printed once with
str().  The JSON report is the payload; the text and LaTeX reports are
functions of the payload alone, so formatting `json.loads` of a
`--format json` report gives the `--format text` and `--format latex`
bytes."""

from __future__ import annotations


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


def _generators_payload(mode, metric, reports) -> dict:
    return {
        "mode": mode,
        "metric_id": metric.name,
        "chart": {"param": metric.chart.param, "coords": list(metric.chart.coords)},
        "generators": [generator_entry(r) for r in reports],
    }


def verify_payload(mode, metric, reports) -> dict:
    return {**_generators_payload(mode, metric, reports),
            "all_pass": all(r.passed for r in reports)}


def analyze_payload(mode, metric, reports, system, nullspace_dim, ansatz) -> dict:
    return {
        **_generators_payload(mode, metric, reports),
        "determining_equations_count": len(system),
        "nullspace_dim": nullspace_dim,
        "ansatz": {"degree": ansatz.degree, "kernels": list(ansatz.kernels)},
    }


def algebra_payload(g, rad, complement, levi_ok) -> dict:
    """The `algebra` report of g with radical rows `rad`, Levi
    complement rows `complement` and the split's verdict `levi_ok`."""
    m = g.dim
    K, semisimple = g.killing
    chain, solvable = g.derived
    names = g.names()
    return {
        "basis": names,
        "structure_constants": {
            "basis": names,
            "c": [[i, j, k, str(x)] for i, plane in enumerate(g.nonzero)
                  for j, row in enumerate(plane) for k, x in row],
        },
        "killing": [[str(K[i, j]) for j in range(m)] for i in range(m)],
        "semisimple": semisimple,
        "derived_series_dims": list(chain.dims),
        "solvable": solvable,
        "radical": [[str(c) for c in v] for v in rad],
        "levi_split": {
            "radical_dim": len(rad),
            "complement_indices": [i + 1 for i in range(m) if any(v[i] for v in complement)],
            "verified": levi_ok,
        },
    }


def _field_terms(gen, variables, term) -> str:
    """A generator entry as term(component, variable) per nonzero
    component, joined by ' + '."""
    comps = [gen["xi"], *gen["eta"]]
    parts = [term(comp, v) for comp, v in zip(comps, variables) if comp != "0"]
    return " + ".join(parts) if parts else "0"


def _text_field(gen, chart) -> str:
    return _field_terms(gen, [chart["param"], *chart["coords"]],
                        lambda comp, v: f"({comp}) d_{v}")


def verify_text(payload) -> str:
    lines = [f"mode: {payload['mode']}", f"metric: {payload['metric_id']}"]
    for g in payload["generators"]:
        status = "pass" if g["pass"] else "FAIL"
        lines.append(f"  {g['name']}: {status}   {_text_field(g, payload['chart'])}")
        if not g["pass"]:
            lines += [f"      residual: {r}" for r in g["residuals"] if r != "0"]
            lines += [f"      note: {note}" for note in g.get("notes", ())]
        elif "first_integral" in g:
            lines.append(f"      first integral: {g['first_integral']}")
    lines.append("result: " + ("all pass" if payload["all_pass"] else "failures present"))
    return "\n".join(lines) + "\n"


def analyze_text(payload) -> str:
    lines = [
        f"mode: {payload['mode']}",
        f"metric: {payload['metric_id']}",
        f"determining equations: {payload['determining_equations_count']}",
        f"nullspace dimension: {payload['nullspace_dim']}",
    ]
    for g in payload["generators"]:
        lines.append(f"  {g['name']}: {_text_field(g, payload['chart'])}")
        if "first_integral" in g:
            lines.append(f"      first integral: {g['first_integral']}")
    return "\n".join(lines) + "\n"


def analyze_latex(payload) -> str:
    lines = [r"\begin{align*}"]
    gens = payload["generators"]
    chart = payload["chart"]
    variables = [chart["param"], *(_latexify(c) for c in chart["coords"])]
    for i, g in enumerate(gens):
        body = _field_terms(g, variables,
                            lambda comp, v: rf"({_latexify(comp)})\,\partial_{{{v}}}")
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


def _bracket_cells(payload, names, times) -> list:
    """cells[i][j] writes [X_i, X_j] as its terms c X_k in ascending k:
    names[k] for c = 1, -names[k] for c = -1, else c + times + names[k];
    0 when the bracket vanishes."""
    m = len(names)
    cells = [[[] for _ in range(m)] for _ in range(m)]
    for i, j, k, c in payload["structure_constants"]["c"]:
        coeff = {"1": "", "-1": "-"}.get(c, c + times)
        cells[i][j].append(coeff + names[k])
    return [[" + ".join(terms) if terms else "0" for terms in row] for row in cells]


def algebra_text(payload) -> str:
    """Each commutator-table column padded to its widest cell plus two
    spaces."""
    names = payload["basis"]
    table = [["[ , ]", *names]]
    table += [[name, *row] for name, row in zip(names, _bracket_cells(payload, names, "*"))]
    widths = [max(len(row[col]) for row in table) + 2 for col in range(len(names) + 1)]
    radical = ", ".join(" + ".join(f"{c}*{names[i]}" for i, c in enumerate(v) if c != "0")
                        for v in payload["radical"])
    lines = [
        "commutator table:",
        *("".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table),
        "",
        "killing form:",
        *("  [ " + "  ".join(row) + " ]" for row in payload["killing"]),
        "",
        f"semisimple: {payload['semisimple']}",
        f"derived series dims: {payload['derived_series_dims']}",
        f"solvable: {payload['solvable']}",
        f"radical: {radical or '0'}",
        f"levi split verified: {payload['levi_split']['verified']}",
    ]
    return "\n".join(lines) + "\n"


def algebra_latex(payload) -> str:
    bold = [f"{{\\bf {n}}}" for n in payload["basis"]]
    killing = payload["killing"]
    lines = [
        r"\begin{tabular}{" + "c" * (len(bold) + 1) + "}",
        r"\hline\hline",
        "  $[~,~]$ & " + " & ".join(f"${b}$" for b in bold) + r" \\",
        r"\hline",
    ]
    for b, row in zip(bold, _bracket_cells(payload, bold, "")):
        lines += [f"${b}$ & {' & '.join(row)} \\\\", r"\hline"]
    lines += [r"\end{tabular}", "", r"\begin{bmatrix}"]
    lines += [" & ".join(row) + (r" \\" if i + 1 < len(killing) else "")
              for i, row in enumerate(killing)]
    lines.append(r"\end{bmatrix}")
    return "\n".join(lines) + "\n"
