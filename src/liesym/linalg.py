"""Exact rational linear algebra: reduced row echelon, nullspaces.

Two layers: a dense Fraction implementation for small systems (algebra
bases, change-of-basis checks) and a sparse integer implementation for
the large homogeneous systems produced by determining equations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional


def rref_dense(rows):
    """In-place-free reduced row echelon form; returns (rows, pivot cols)."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank_dense(rows) -> int:
    return len(rref_dense(rows)[0])


def nullspace_dense(rows, ncols: int):
    """Canonical nullspace basis (one vector per free column, ascending)."""
    red, pivots = rref_dense(rows) if rows else ([], [])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][free]
        basis.append(v)
    return basis


def express_in_basis(vectors, target) -> Optional[list]:
    """Exact coefficients c with sum c_i vectors[i] = target, or None.

    Solves the overdetermined system by RREF of the augmented matrix;
    when the vectors are dependent the representation with zero
    coefficients on non-pivot vectors is returned.
    """
    if not vectors:
        return None if any(Fraction(x) != 0 for x in target) else []
    m = len(target)
    aug = []
    for i in range(m):
        aug.append([Fraction(v[i]) for v in vectors] + [Fraction(target[i])])
    red, pivots = rref_dense(aug)
    n = len(vectors)
    if n in pivots:
        return None
    coeffs = [Fraction(0)] * n
    for i, p in enumerate(pivots):
        coeffs[p] = red[i][n]
    return coeffs


def independent(vectors) -> bool:
    if not vectors:
        return True
    return rank_dense(vectors) == len(vectors)


# ---------------------------------------------------------------------------
# Sparse integer rows for large homogeneous systems.


def _normalize_row(row: dict) -> dict:
    if not row:
        return row
    g = 0
    for v in row.values():
        g = math.gcd(g, abs(v))
    lead_col = min(row)
    if row[lead_col] < 0:
        g = -g
    return {c: v // g for c, v in row.items()}


def _int_rows(rows):
    """Distinct normalized integer rows from rows of ints or Fractions."""
    out = []
    seen = set()
    for row in rows:
        items = [(c, v) for c, v in row.items() if v]
        if not items:
            continue
        den_lcm = math.lcm(*(v.denominator for _, v in items))
        introw = _normalize_row(
            {c: v.numerator * (den_lcm // v.denominator) for c, v in items})
        key = tuple(sorted(introw.items()))
        if key not in seen:
            seen.add(key)
            out.append(introw)
    return out


def _eliminate(row: dict, piv: dict, c: int) -> dict:
    """row * piv[c] - piv * row[c], normalized: column c cleared from row."""
    pv, rv = piv[c], row[c]
    combined = {}
    for col, v in row.items():
        combined[col] = v * pv
    for col, v in piv.items():
        nv = combined.get(col, 0) - v * rv
        if nv:
            combined[col] = nv
        else:
            combined.pop(col, None)
    return _normalize_row(combined)


def sparse_rref(rows, ncols: int):
    """RREF of sparse rows (dict col -> int or Fraction). Returns
    (pivot_rows: {pivot col -> integer row dict}, pivot cols sorted).

    Rows keep their ids (positions in the deduplicated input) for the
    whole elimination; the pivot of column c is the shortest row holding
    c, ties going to the lowest id.  An index from each column to the ids
    of rows that have held it makes a step touch only those rows; ids
    whose row has since lost the column are skipped when it is read."""
    work = _int_rows(rows)  # id -> row, None once pivot or eliminated to zero
    holders = {}
    for rid, row in enumerate(work):
        for col in row:
            holders.setdefault(col, []).append(rid)
    pivot_rows = {}
    for c in range(ncols):
        ids = {r for r in holders.pop(c, ()) if work[r] is not None and c in work[r]}
        if not ids:
            continue
        pid = min(ids, key=lambda r: (len(work[r]), r))
        piv = work[pid]
        work[pid] = None
        for rid in ids - {pid}:
            row = work[rid]
            combined = _eliminate(row, piv, c)
            for col in combined:
                if col not in row:
                    holders.setdefault(col, []).append(rid)
            work[rid] = combined or None
        pivot_rows[c] = piv
    # back substitution: clear pivot columns from earlier pivot rows
    pivots = sorted(pivot_rows)
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        piv = pivot_rows[c]
        for c2 in pivots[:i]:
            if c in pivot_rows[c2]:
                pivot_rows[c2] = _eliminate(pivot_rows[c2], piv, c)
    return pivot_rows, pivots


def sparse_nullspace(rows, ncols: int):
    """Canonical nullspace basis as Fraction lists, one per free column."""
    pivot_rows, pivots = sparse_rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for c in pivots:
            row = pivot_rows[c]
            if free in row:
                v[c] = Fraction(-row[free], row[c])
        basis.append(v)
    return basis
