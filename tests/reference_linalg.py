"""Dense Fraction Gauss-Jordan elimination: a reference for tests.

Independent of `liesym.linalg`, so tests can check the library's single
elimination routine, and oracles that need a rank, against it.
"""

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form; returns (nonzero rows, pivot cols)."""
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


def rank(rows) -> int:
    return len(rref(rows)[0])


def nullspace(rows, ncols: int):
    """Canonical nullspace basis (one vector per free column, ascending)."""
    red, pivots = rref(rows)
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


def express_in_basis(vectors, target):
    """Coefficients of target in the vectors (zero on non-pivot
    vectors), or None when target is outside their span."""
    if not vectors:
        return None if any(Fraction(x) != 0 for x in target) else []
    n = len(vectors)
    aug = [[Fraction(v[i]) for v in vectors] + [Fraction(t)] for i, t in enumerate(target)]
    red, pivots = rref(aug)
    if n in pivots:
        return None
    coeffs = [Fraction(0)] * n
    for i, p in enumerate(pivots):
        coeffs[p] = red[i][n]
    return coeffs
