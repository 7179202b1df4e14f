"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict.

Criteria 3 and 4 reproduce the paper's Vaidya-Bonner instances
M = 1, Q = t and M = t, Q = t^2, whose counts 4 and 5 are the
invariant-action (Noether) dimensions.  The Lie point algebra of a
geodesic system is d_s and s d_s plus the metric's homothetic or
projective algebra (Tsamparlis & Paliathanasis, Gen. Relativ. Gravit.
42 (2010) 2957), so the point solves have dimensions 5 and 6: s d_s is a
point symmetry of every autonomous geodesic system in solved form, and
on the second instance t d_t + r d_r is a homothety (L_H g = 2g).  Each
test asserts both dimensions exactly and backs every expected value
with an independent check of the named fields; the verdict lines print
the derived count next to the paper's.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from liesym.charts import CoordChart
from liesym.geometry import Metric, geodesic_lagrangian, geodesic_system
from liesym.jets import prolong, symbol
from liesym.liealg import (
    _coordinates,
    adjoint_exp,
    derived_series,
    field_bracket,
    killing_form,
    levi_check,
    radical,
    structure_constants,
)
from liesym.linalg import express_in_basis
from liesym.numeric import drift_along_trace, integrate_geodesic
from liesym.optimal import (
    separation_failures,
    default_representatives,
    verify_optimal_cover,
)
from liesym.symexpr import derive
from liesym.symexpr.poly import RAT_ONE, RatFunc
from liesym.symmetry import (
    default_ansatz,
    determining_system,
    liepoint_residuals,
    noether_first_integral,
    noether_residual,
    solve_determining,
    verify_liepoint,
    verify_noether,
)

from conftest import make_field, rf
from reference_calculus import fold
from reference_geometry import euler_lagrange
from test_symmetry import brute_force_nullity


def verdict(number, ok, detail=""):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    return ok


def span_equal(fields_a, fields_b):
    vecs = _coordinates(list(fields_a) + list(fields_b))[2]
    va = [list(v) for v in vecs[: len(fields_a)]]
    vb = [list(v) for v in vecs[len(fields_a):]]
    forward = all(express_in_basis(va, v) is not None for v in vb)
    backward = all(express_in_basis(vb, v) is not None for v in va)
    return forward, backward


def unit(m, i):
    v = [Fraction(0)] * m
    v[i] = Fraction(1)
    return v


def test_criterion_1_general_metric_verification(vb_general, general_fields):
    started = time.monotonic()
    four = [general_fields[0], general_fields[2], general_fields[3],
            general_fields[4]]
    lagrangian, system = geodesic_lagrangian(vb_general), geodesic_system(vb_general)
    ok = True
    for X in four:
        noe = verify_noether(X, lagrangian)
        lie = verify_liepoint(X, system)
        ok = ok and noe.passed and lie.passed
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 30.0
    assert verdict(1, ok,
                   f"d_s, d_phi and both tilts pass noether+liepoint in {elapsed:.1f}s")


def test_criterion_2_erratum_detection(vb_general, vb_m1_qt, chart):
    time_translation = make_field(chart, "X2", "0", ["1", "0", "0", "0"])
    lagrangian = geodesic_lagrangian(vb_general)
    res = noether_residual(time_translation, lagrangian)
    expected = rf("(D(M, t)/r - D(Q, t)/r^2)*tdot^2")
    general_ok = (res - expected).is_zero()
    rep = verify_noether(time_translation, lagrangian)
    flagged = (not rep.passed) and rep.constant_functions_pass and bool(rep.notes)
    inst = verify_noether(time_translation, geodesic_lagrangian(vb_m1_qt))
    inst_ok = (not inst.passed) and (
        inst.residuals[0] - rf("-tdot^2/r^2")).is_zero()
    ok = general_ok and flagged and inst_ok
    assert verdict(2, ok,
                   "time-translation residual (D(M,t)/r - D(Q,t)/r^2)*tdot^2, "
                   "flagged constant-only, -tdot^2/r^2 on the growing-charge instance")


def metric_lie_derivative(metric, components):
    """(L_Y g)_ab = Y^c d_c g_ab + g_cb d_a Y^c + g_ac d_b Y^c for a field
    Y = Y^c d_c on the base, given by its component strings."""
    coords = metric.chart.coords
    Y = [rf(c) for c in components]
    n = len(coords)
    out = []
    for a in range(n):
        row = []
        for b in range(n):
            acc = rf("0")
            for c in range(n):
                acc = acc + Y[c] * derive(metric[a, b], {coords[c]: RAT_ONE})
                acc = acc + metric[c, b] * derive(Y[c], {coords[a]: RAT_ONE})
                acc = acc + metric[a, c] * derive(Y[c], {coords[b]: RAT_ONE})
            row.append(acc)
        out.append(row)
    return out


def test_criterion_3_first_instance_reproduction(vb_m1_qt, rotation_fields,
                                                 m1qt_noether_solve):
    chart = vb_m1_qt.chart
    started = time.monotonic()
    geodesics = geodesic_system(vb_m1_qt)
    system = determining_system(geodesics, "liepoint")
    ansatz = default_ansatz(chart, 2)
    solved = solve_determining(system, ansatz)
    elapsed = time.monotonic() - started

    affine = make_field(chart, "S", "s", ["0", "0", "0", "0"])
    affine_point = verify_liepoint(affine, geodesics).passed
    lagrangian = geodesic_lagrangian(vb_m1_qt)
    affine_noether = verify_noether(affine, lagrangian)
    affine_ok = (
        affine_point and not affine_noether.passed
        and (affine_noether.residuals[0] + lagrangian).is_zero()
    )
    point_dim_ok = len(solved) == 5
    point_span_ok = all(span_equal(solved, list(rotation_fields) + [affine]))
    sound_ok = all(verify_liepoint(X, geodesics).passed for X in solved)
    noether_dim_ok = len(m1qt_noether_solve) == 4
    noether_span_ok = all(span_equal(m1qt_noether_solve, rotation_fields))

    g = structure_constants(rotation_fields)
    table_ok = (
        g.c[1][2][3] == 1 and g.c[1][3][2] == -1 and g.c[2][3][1] == 1
        and all(g.c[0][j][k] == 0 for j in range(4) for k in range(4))
    )
    K, _ = killing_form(g)
    expected_diag = [0, -2, -2, -2]
    killing_ok = all(
        K[i, j] == (expected_diag[i] if i == j else 0)
        for i in range(4) for j in range(4)
    )
    levi_ok = levi_check(g, [unit(4, 0)], [unit(4, 1), unit(4, 2), unit(4, 3)])
    runtime_ok = elapsed < 60.0

    detail = (
        f"point dim {len(solved)} (want 5 = paper's 4 + s d_s), span = golden + s d_s: "
        f"{point_span_ok}, every solved field a point symmetry: {sound_ok}, "
        f"s d_s point but not noether (residual -L): {affine_ok}, "
        f"noether dim {len(m1qt_noether_solve)} (want paper's 4), span = golden: "
        f"{noether_span_ok}, commutator table: {table_ok}, killing "
        f"diag(0,-2,-2,-2): {killing_ok}, levi: {levi_ok}, {elapsed:.1f}s"
    )
    ok = (
        point_dim_ok and point_span_ok and sound_ok and affine_ok
        and noether_dim_ok and noether_span_ok and table_ok and killing_ok
        and levi_ok and runtime_ok
    )
    assert verdict(3, ok, detail)


def test_criterion_4_second_instance_reproduction(vb_mt_qt2, scaling_fields,
                                                  mtqt2_noether_solve):
    chart = vb_mt_qt2.chart
    geodesics = geodesic_system(vb_mt_qt2)
    system = determining_system(geodesics, "liepoint")
    ansatz = default_ansatz(chart, 2)
    solved = solve_determining(system, ansatz)

    lie_h = metric_lie_derivative(vb_mt_qt2, ["t", "r", "0", "0"])
    homothety_ok = all(
        (lie_h[a][b] - rf("2") * vb_mt_qt2[a, b]).is_zero()
        for a in range(4) for b in range(4)
    )
    affine = make_field(chart, "S", "s", ["0", "0", "0", "0"])
    homothety = make_field(chart, "H", "0", ["t", "r", "0", "0"])
    named_ok = all(
        verify_liepoint(X, geodesics).passed
        for X in [affine, homothety] + list(scaling_fields)
    )
    point_dim_ok = len(solved) == 6
    point_span_ok = all(span_equal(solved, list(scaling_fields) + [affine]))

    noether_scaling = make_field(chart, "N", "2*s", ["t", "r", "0", "0"])
    lagrangian = geodesic_lagrangian(vb_mt_qt2)
    noether_scaling_ok = verify_noether(noether_scaling, lagrangian).passed
    golden_scaling = verify_noether(scaling_fields[0], lagrangian)
    golden_residual_ok = (golden_scaling.residuals[0] - lagrangian).is_zero()
    noether_dim_ok = len(mtqt2_noether_solve) == 5
    *vecs, tvec = _coordinates([*mtqt2_noether_solve, noether_scaling])[2]
    noether_contains = (
        express_in_basis([list(v) for v in vecs], list(tvec)) is not None)

    g = structure_constants(scaling_fields)
    table_ok = (
        g.c[0][1][1] == -1
        and g.c[2][3][4] == 1 and g.c[2][4][3] == -1 and g.c[3][4][2] == 1
    )
    K, _ = killing_form(g)
    expected_diag = [1, 0, -2, -2, -2]
    killing_ok = all(
        K[i, j] == (expected_diag[i] if i == j else 0)
        for i in range(5) for j in range(5)
    )
    chain, solvable = derived_series(g)
    rotations = [unit(5, 2), unit(5, 3), unit(5, 4)]
    der_ok = (not solvable) and chain.dims == (5, 4, 3, 3)
    tail = [list(v) for v in chain.subspaces[2]]
    der_ok = der_ok and all(
        express_in_basis(tail, list(v)) is not None for v in rotations
    )
    levi_ok = levi_check(g, [unit(5, 0), unit(5, 1)], rotations)

    detail = (
        f"point dim {len(solved)} (want 6 = paper's 5 + s d_s), span = golden + s d_s: "
        f"{point_span_ok}, L_H g = 2g for H = t d_t + r d_r: {homothety_ok}, "
        f"s d_s, H and golden fields are point symmetries: {named_ok}, "
        f"noether dim {len(mtqt2_noether_solve)} (want paper's 5), contains "
        f"2s d_s + t d_t + r d_r: {noether_contains and noether_scaling_ok}, "
        f"golden X1 noether residual L: {golden_residual_ok}, table: "
        f"{table_ok}, killing diag(1,0,-2,-2,-2): {killing_ok}, "
        f"derived-series tail = rotations: {der_ok}, levi: {levi_ok}"
    )
    ok = (
        point_dim_ok and point_span_ok and homothety_ok and named_ok
        and noether_dim_ok and noether_contains and noether_scaling_ok
        and golden_residual_ok and table_ok and killing_ok and der_ok
        and levi_ok
    )
    assert verdict(4, ok, detail)


def test_criterion_5_adjoint_matrices(general_fields):
    g = structure_constants(general_fields)
    ok = True
    for idx in (0, 1):
        amap = adjoint_exp(g, idx, f"s{idx + 1}")
        for i in range(5):
            for j in range(5):
                ok = ok and (
                    amap.matrix[i][j] - (rf("1") if i == j else rf("0"))).is_zero()
    rotations = {
        2: {(3, 3): "cos(q)", (3, 4): "-sin(q)", (4, 3): "sin(q)", (4, 4): "cos(q)"},
        3: {(2, 2): "cos(q)", (2, 4): "sin(q)", (4, 2): "-sin(q)", (4, 4): "cos(q)"},
        4: {(2, 2): "cos(q)", (2, 3): "-sin(q)", (3, 2): "sin(q)", (3, 3): "cos(q)"},
    }
    for idx, cells in rotations.items():
        amap = adjoint_exp(g, idx, "q")
        for i in range(5):
            for j in range(5):
                want = cells.get((i, j))
                expected = rf(want) if want else (rf("1") if i == j else rf("0"))
                ok = ok and (amap.matrix[i][j] - expected).is_zero()
    assert verdict(5, ok, "M1, M2 identity; M3, M4, M5 printed rotation blocks")


def test_criterion_6_optimal_cover(general_fields):
    g = structure_constants(general_fields)
    report = verify_optimal_cover(g, samples=1000, seed=42)
    full = report["matched_total"] == report["valid_total"] and not report["unmatched"]
    drift_ok = report["invariant_drift_max"] < 1e-9
    pairs = {tuple(p) for p in report["separation_failures"]}
    within_groups = {(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6),
                     (7, 8), (7, 9), (8, 9)}
    sep_ok = pairs == within_groups
    ok = full and drift_ok and sep_ok
    assert verdict(
        6, ok,
        f"{report['matched_total']}/{report['valid_total']} matched, drift "
        f"{report['invariant_drift_max']:.2e}, suspected-redundant pairs are "
        f"exactly the within-group ones",
    )


def test_criterion_7_property_suites(vb_general, vb_m1_qt, vb_mt_qt2,
                                     general_fields, rotation_fields,
                                     scaling_fields, chart,
                                     m1qt_noether_solve, mtqt2_noether_solve):
    failures = []

    algebras = {
        "general": structure_constants(general_fields),
        "first instance": structure_constants(rotation_fields),
        "second instance": structure_constants(scaling_fields),
    }
    for label, g in algebras.items():
        m = g.dim
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if g.c[i][j][k] != -g.c[j][i][k]:
                        failures.append(f"antisymmetry {label}")
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    for t in range(m):
                        total = sum(
                            g.c[i][j][l] * g.c[l][k][t]
                            + g.c[j][k][l] * g.c[l][i][t]
                            + g.c[k][i][l] * g.c[l][j][t]
                            for l in range(m)
                        )
                        if total:
                            failures.append(f"jacobi {label}")
        K, _ = killing_form(g)
        for z in range(m):
            for x in range(m):
                for y in range(m):
                    t1 = sum(g.c[z][x][k] * K[k, y] for k in range(m))
                    t2 = sum(g.c[z][y][k] * K[x, k] for k in range(m))
                    if t1 + t2:
                        failures.append(f"ad-invariance {label}")
        for idx in range(m):
            amap = adjoint_exp(g, idx, "q")
            for i in range(m):
                for j in range(m):
                    acc = rf("0")
                    for a in range(m):
                        for b in range(m):
                            if K[a, b]:
                                acc = acc + RatFunc.const(K[a, b]) * amap.matrix[i][a] * amap.matrix[j][b]
                    if not (acc - RatFunc.const(K[i, j])).is_zero():
                        failures.append(f"adjoint-invariance {label}")

    for metric in (vb_general, vb_m1_qt, vb_mt_qt2):
        el = euler_lagrange(geodesic_lagrangian(metric), metric.chart)
        sys = geodesic_system(metric)
        for i in range(metric.chart.dim):
            expr = el[i]
            for mu in range(metric.chart.dim):
                expr = expr - rf("2") * metric[i, mu] * sys.equations[mu]
            if not expr.is_zero():
                failures.append(f"contraction identity {metric.name}")

    from test_jets import random_polynomial_field

    rng = random.Random(20260808)
    for _ in range(200):
        X = random_polynomial_field(chart, rng)
        pf = prolong(X, 1)
        for idx, c in enumerate(chart.coords):
            expected = derive(X.eta[idx], {chart.param: RAT_ONE})
            for b in chart.coords:
                expected = expected + derive(X.eta[idx], {b: RAT_ONE}) * symbol(chart.jet1(b))
            expected = expected - derive(X.xi, {chart.param: RAT_ONE}) * symbol(chart.jet1(c))
            for b in chart.coords:
                expected = expected - (
                    derive(X.xi, {b: RAT_ONE}) * symbol(chart.jet1(b)) * symbol(chart.jet1(c))
                )
            if not (pf.first[idx] - expected).is_zero():
                failures.append("prolongation recursion")

    for metric, fields in ((vb_m1_qt, m1qt_noether_solve),
                           (vb_mt_qt2, mtqt2_noether_solve)):
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                br = field_bracket(fields[i], fields[j])
                if br.is_zero_field():
                    continue
                *vecs, target = _coordinates([*fields, br])[2]
                if express_in_basis([list(v) for v in vecs], list(target)) is None:
                    failures.append(f"solver closure {metric.name}")

    from test_symexpr_properties import random_expr

    rng = random.Random(515)
    for _ in range(1000):
        once = fold(random_expr(rng))
        if rf(str(once)) != once:
            failures.append("canonical idempotence")

    ok = not failures
    assert verdict(7, ok, "zero failures" if ok else f"failures: {sorted(set(failures))}")


def test_criterion_8_numerical_first_integral_drift(vb_m1_qt, rotation_fields):
    started = time.monotonic()
    chart = vb_m1_qt.chart
    sys = geodesic_system(vb_m1_qt)
    trace = integrate_geodesic(
        sys, {}, [0.0, 10.0, math.pi / 2, 0.0], [1.0, 0.0, 0.0, 0.05], 1e-3, 10.0
    )
    lagrangian = geodesic_lagrangian(vb_m1_qt)
    [phi_drift] = drift_along_trace(
        [rf("2*r^2*sin(theta)^2*phidot")], trace, chart)
    rot_drifts = []
    for X in rotation_fields[2:]:
        integral = noether_first_integral(X, lagrangian)
        rot_drifts.extend(drift_along_trace([integral], trace, chart))
    [broken] = drift_along_trace([derive(lagrangian, {"tdot": RAT_ONE})], trace, chart)
    elapsed = time.monotonic() - started
    ok = (
        phi_drift < 1e-6
        and all(d < 1e-6 for d in rot_drifts)
        and broken > 1e-3
        and elapsed < 10.0
    )
    assert verdict(
        8, ok,
        f"phi integral drift {phi_drift:.2e}, rotation drifts "
        f"{max(rot_drifts):.2e}, time-translation candidate drifts "
        f"{broken:.2e}, {elapsed:.1f}s",
    )


def test_criterion_9_free_particle_sanity():
    chart1 = CoordChart("s", ("x",))
    flat1 = Metric(chart1, ((rf("1"),),))
    oracle1 = brute_force_nullity(flat1, 2)
    sols1 = solve_determining(
        determining_system(geodesic_system(flat1), "liepoint"), default_ansatz(chart1, 2))
    chart2 = CoordChart("s", ("x", "y"))
    flat2 = Metric(chart2, ((rf("1"), rf("0")), (rf("0"), rf("1"))))
    oracle2 = brute_force_nullity(flat2, 2)
    sols2 = solve_determining(
        determining_system(geodesic_system(flat2), "liepoint"), default_ansatz(chart2, 2))
    ok = oracle1 == 8 and len(sols1) == 8 and oracle2 == 15 and len(sols2) == 15
    assert verdict(
        9, ok,
        f"1D nullity oracle {oracle1} = solver {len(sols1)}; "
        f"2D oracle {oracle2} = solver {len(sols2)}",
    )
