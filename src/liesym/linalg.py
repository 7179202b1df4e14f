"""Exact rational linear algebra on one elimination routine.

`sparse_rref` is the only elimination.  It takes rows as dicts
col -> int or Fraction, or as dense sequences of rationals, and reduces
them over the integers to the reduced row echelon form.  That form is
unique, so rank, nullspace, the canonical basis of a row space and the
coordinates of a vector in a basis are all short reads of its pivot
rows; the large homogeneous systems of the determining equations and
the small ones of the Lie-algebra layer share it.  `ZeroPins` combines
no rows: it only takes out, ahead of it, the columns that single-entry
rows force to zero.
"""

from __future__ import annotations

import math
from fractions import Fraction


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
    """Distinct normalized integer rows from rows of ints or Fractions,
    each a dict col -> value or a dense sequence.  Integer rows are only
    divided by their gcd; rows with Fractions are cleared first."""
    out = []
    seen = set()
    for row in rows:
        pairs = row.items() if isinstance(row, dict) else enumerate(row)
        items = {c: v for c, v in pairs if v}
        if not items:
            continue
        if any(type(v) is not int for v in items.values()):
            den_lcm = math.lcm(*(v.denominator for v in items.values()))
            items = {c: v.numerator * (den_lcm // v.denominator) for c, v in items.items()}
        introw = _normalize_row(items)
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
    """RREF of rational rows (see _int_rows) over columns 0..ncols-1. Returns
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


class ZeroPins:
    """Rows of a homogeneous system, added in batches, with the columns
    they force to zero taken out as they are found.

    A row with one nonzero entry forces its column to 0 in every
    solution.  Such a column is pinned and deleted from every kept row,
    which may leave another single-entry row, until none is left.  Rows
    are indexed by column, as in `sparse_rref`, so a pin touches only
    the rows that hold its column.  `system()` has the same solutions,
    hence the same row space and RREF, as all the rows added."""

    def __init__(self):
        self.pinned = set()
        self._rows = []  # id -> row dict, None once emptied
        self._holders = {}  # col -> ids of rows that held it

    def add(self, rows):
        """Keep integer rows (dicts col -> int) without their zero entries
        and their entries in pinned columns, then pin until no kept row
        has a single entry."""
        singles = []
        for row in rows:
            row = {c: v for c, v in row.items() if v and c not in self.pinned}
            if not row:
                continue
            rid = len(self._rows)
            self._rows.append(row)
            for c in row:
                self._holders.setdefault(c, []).append(rid)
            if len(row) == 1:
                singles.append(rid)
        while singles:
            row = self._rows[singles.pop()]
            if row is None:
                continue
            c, = row
            self.pinned.add(c)
            for rid in self._holders.pop(c):
                holder = self._rows[rid]
                del holder[c]
                if not holder:
                    self._rows[rid] = None
                elif len(holder) == 1:
                    singles.append(rid)

    def system(self) -> list:
        """The kept rows, then one unit row {c: 1} per pinned column."""
        return ([row for row in self._rows if row]
                + [{c: 1} for c in sorted(self.pinned)])


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


def rank(rows, ncols: int) -> int:
    return len(sparse_rref(rows, ncols)[1])


def express_in_basis(vectors, target) -> list | None:
    """Exact coefficients c with sum c_i vectors[i] = target, or None.

    The RREF of the augmented matrix [vectors | target] (vectors as
    columns) has a pivot in the target column exactly when the target is
    outside the span; when the vectors are dependent the representation
    with zero coefficients on non-pivot vectors is returned."""
    n = len(vectors)
    aug = [[v[i] for v in vectors] + [t] for i, t in enumerate(target)]
    pivot_rows, pivots = sparse_rref(aug, n + 1)
    if n in pivot_rows:
        return None
    coeffs = [Fraction(0)] * n
    for p in pivots:
        row = pivot_rows[p]
        coeffs[p] = Fraction(row.get(n, 0), row[p])
    return coeffs
