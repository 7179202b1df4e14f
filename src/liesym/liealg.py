"""Lie algebra structure over exact rationals.

Brackets of vector fields, structure constants, derived series and
solvability, Killing form and semisimplicity, radical via the Cartan
orthogonality criterion, a Levi factor and the verification of the
split, adjoint matrices and closed-form adjoint exponentials.

Structure-constant tables are sparse (sl(4) has 114 nonzero constants
out of 15^3), so the algebra keeps, next to the dense table c, the list
of nonzero (k, c_ij^k) for each pair (i, j).  The antisymmetry and
Jacobi checks, the Killing form, brackets and adjoint matrices run over
those nonzero constants only; every sum they skip has a zero factor.
The Killing form and derived series are computed once per algebra, and
the basis coordinates once per structure_constants call; every bracket
is read in those coordinates.  All elimination is linalg.sparse_rref.

Every question about a subspace V of coefficient vectors is a rank
comparison or a derived chain: V is a subalgebra (an ideal) when its
nonzero brackets with V (with the basis) leave rank(V) unchanged, and
solvable when the chain span(V) >= [V, V] >= ... of RREF bases, the
same chain that gives the derived series, ends at zero.

Adjoint convention: Ad(exp(q X_i)) X_j expands with the alternating
series X_j - q [X_i, X_j] + (q^2/2) [X_i, [X_i, X_j]] - ..., and the
AdjointMap matrix stores images by rows, so coefficient vectors
transform as row vectors: a' = a . M.  The closed form of that series
is p(ad X_i) for the polynomial p that interpolates exp(-q x), with
its derivatives, on the spectrum of ad X_i (Higham, Functions of
Matrices, 2008, Def. 1.4): its coefficients solve one rational linear
system, again through linalg.sparse_rref.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction

from .errors import (
    ChartError,
    DependentBasisError,
    NonClosureError,
    UnsupportedAdjointError,
)
from .jets import BundleVectorField, symbol
from .linalg import express_in_basis, rank, sparse_nullspace, sparse_rref
from .symexpr import fn_ratfunc, pow_ratfunc, substitute_atoms
from .symexpr.nodes import sym_atom
from .symexpr.poly import RAT_ONE, RAT_ZERO, RatFunc, poly_divexact, poly_lcm, rat_sum


def field_bracket(x: BundleVectorField, y: BundleVectorField) -> BundleVectorField:
    """[X, Y]^a = X(Y^a) - Y(X^a) componentwise over (xi, eta)."""
    if x.chart != y.chart:
        raise ChartError("bracket of fields on different charts")
    return BundleVectorField(x.chart, [
        x.act(cy) - y.act(cx) for cx, cy in zip(x.components, y.components)
    ])


def _coordinates(fields):
    """Coordinates of fields in the kernel-monomial function basis.

    Components are rational functions; each component slot is cleared by
    the lcm of the fields' denominators there, and each kernel monomial
    of a cleared numerator is one coordinate, so every field becomes a
    finite exact coefficient vector.  Returns (lcms, index, vectors): the
    lcm of each slot, the coordinate of each (slot, monomial) and one
    vector per field.
    """
    lcms, index = [], {}
    for i in range(len(fields[0].components)):
        rfs = [f.components[i] for f in fields]
        common = poly_lcm(rf.den for rf in rfs)
        lcms.append(common)
        for rf in rfs:
            for mono in (rf.num * poly_divexact(common, rf.den)).terms:
                index.setdefault((i, mono), len(index))
    return lcms, index, [_coordinates_of(f, lcms, index) for f in fields]


def _coordinates_of(field, lcms, index):
    """The field's vector in coordinates from _coordinates, or None when
    a component cleared by its slot's lcm is not a polynomial in that
    slot's monomials (then the field is outside the fields' span)."""
    vec = [Fraction(0)] * len(index)
    for i, (comp, common) in enumerate(zip(field.components, lcms)):
        cleared = comp * RatFunc.from_poly(common)
        if not cleared.den.is_const():
            return None
        for mono, c in cleared.num.rational_terms():
            k = index.get((i, mono))
            if k is None:
                return None
            vec[k] = c
    return vec


class LieAlgebra:
    """Ordered basis with exact structure constants
    [X_i, X_j] = sum_k c[i][j][k] X_k."""

    def __init__(self, basis: tuple, c: tuple):
        self.basis = basis
        self.c = c  # c[i][j][k] Fraction

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def nonzero(self):
        """nonzero[i][j] = ((k, c[i][j][k]), ...) over the k with
        c[i][j][k] != 0, in ascending k."""
        return tuple(
            tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in plane)
            for plane in self.c
        )

    @cached_property
    def killing(self):
        """killing_form(self), computed once."""
        return killing_form(self)

    @cached_property
    def derived(self):
        """derived_series(self), computed once."""
        return derived_series(self)

    def bracket_coeffs(self, u, v):
        """Coefficients of [sum u_i X_i, sum v_j X_j]."""
        m = self.dim
        nz = self.nonzero
        out = [Fraction(0)] * m
        for i in range(m):
            if not u[i]:
                continue
            for j in range(m):
                if not v[j]:
                    continue
                uv = u[i] * v[j]
                for k, x in nz[i][j]:
                    out[k] += uv * x
        return out

    def names(self):
        return [f.name or f"X{i + 1}" for i, f in enumerate(self.basis)]


def structure_constants(basis) -> LieAlgebra:
    """Expand all pairwise brackets exactly in the given basis."""
    basis = list(basis)
    m = len(basis)
    lcms, index, vectors = _coordinates(basis)
    if rank(vectors, len(index)) != m:
        raise DependentBasisError("basis fields are linearly dependent")
    c = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            br = field_bracket(basis[i], basis[j])
            if br.is_zero_field():
                continue
            target = _coordinates_of(br, lcms, index)
            coeffs = None if target is None else express_in_basis(vectors, target)
            if coeffs is None:
                raise NonClosureError(
                    f"bracket [{basis[i].name or i}, {basis[j].name or j}] "
                    f"is outside the span",
                    pair=(i, j),
                    remainder=br,
                )
            for k in range(m):
                c[i][j][k] = coeffs[k]
                c[j][i][k] = -coeffs[k]
    algebra = LieAlgebra(tuple(basis), tuple(tuple(tuple(row) for row in plane) for plane in c))
    _validate_structure(algebra)
    return algebra


def _validate_structure(g: LieAlgebra):
    """Antisymmetry c_ij^k = -c_ji^k and the Jacobi identity
    sum_l c_ij^l c_lk^t + c_jk^l c_li^t + c_ki^l c_lj^t = 0 for every
    i < j < k and every target t.  Under antisymmetry that Jacobi sum
    changes sign when two indices swap and vanishes when two are equal,
    so the increasing triples decide every ordered one.  The sums run
    over nonzero constants; a term they skip is a product with a zero
    factor."""
    m = g.dim
    c = g.c
    nz = g.nonzero
    for i in range(m):
        for j in range(m):
            # an entry nonzero on one side only is met from that side
            for k, x in nz[i][j]:
                if c[j][i][k] != -x:
                    raise NonClosureError("antisymmetry violated in structure constants")
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                total = {}
                for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, x in nz[a][b]:
                        for target, y in nz[l][d]:
                            total[target] = total.get(target, 0) + x * y
                if any(total.values()):
                    raise NonClosureError("Jacobi identity violated")


def ad_matrix(g: LieAlgebra, v):
    """Matrix of ad(sum v_i X_i) acting on coefficient columns."""
    m = g.dim
    nz = g.nonzero
    out = [[Fraction(0)] * m for _ in range(m)]
    for j in range(m):
        for i in range(m):
            if not v[i]:
                continue
            for k, x in nz[i][j]:
                out[k][j] += v[i] * x
    return out


def _unit(m, i):
    v = [Fraction(0)] * m
    v[i] = Fraction(1)
    return v


def span_rref(vectors):
    """Canonical basis of the span of the given vectors: the RREF rows,
    each scaled to a leading 1."""
    if not vectors:
        return []
    n = len(vectors[0])
    pivot_rows, pivots = sparse_rref(vectors, n)
    out = []
    for p in pivots:
        row = pivot_rows[p]
        out.append([Fraction(row.get(j, 0), row[p]) for j in range(n)])
    return out


class SubalgebraChain:
    """Derived series; each entry is a canonical RREF row basis."""

    def __init__(self, subspaces: tuple):
        self.subspaces = subspaces

    @property
    def dims(self):
        return tuple(len(s) for s in self.subspaces)


def _brackets(g: LieAlgebra, us, vs):
    """The nonzero brackets [u, v] for u in us and v in vs."""
    out = []
    for u in us:
        for v in vs:
            w = g.bracket_coeffs(u, v)
            if any(w):
                out.append(w)
    return out


def _derived_chain(g: LieAlgebra, vectors):
    """RREF bases of span(V), [V, V], [[V, V], [V, V]], ...; the chain
    stops at zero or when the dimension no longer falls."""
    chain = [span_rref(vectors)]
    while True:
        current = chain[-1]
        chain.append(span_rref(_brackets(g, current, current)))
        if not chain[-1] or len(chain[-1]) >= len(current):
            return chain


def derived_series(g: LieAlgebra):
    """Chain g >= [g, g] >= ... ; returns (chain, is_solvable)."""
    chain = _derived_chain(g, [_unit(g.dim, i) for i in range(g.dim)])
    return SubalgebraChain(tuple(tuple(tuple(v) for v in s) for s in chain)), not chain[-1]


class KillingMatrix:
    def __init__(self, entries: tuple):
        self.entries = entries  # m x m Fractions

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]


def killing_form(g: LieAlgebra):
    """K_ij = tr(ad X_i ad X_j); returns (KillingMatrix, is_semisimple).

    (ad X_i)_ab = c_ib^a, so K_ij = sum_b sum_{a: c_ib^a != 0} c_ib^a c_ja^b."""
    m = g.dim
    c = g.c
    nz = g.nonzero
    K = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            tr = Fraction(0)
            for b in range(m):
                for a, x in nz[i][b]:
                    tr += x * c[j][a][b]
            K[i][j] = K[j][i] = tr
    km = KillingMatrix(tuple(tuple(row) for row in K))
    return km, rank(K, m) == m


def radical(g: LieAlgebra):
    """Cartan criterion: r = {v : K(v, w) = 0 for all w in [g, g]};
    verified to be a solvable ideal before returning."""
    m = g.dim
    K, _ = g.killing
    chain, _ = g.derived
    rows = [[sum(K[i, j] * w[j] for j in range(m)) for i in range(m)]
            for w in chain.subspaces[1]]
    basis = span_rref(sparse_nullspace(rows, m))
    if not _is_ideal(g, basis):
        raise NonClosureError("radical candidate is not an ideal (structure bug)")
    if not _is_solvable_subspace(g, basis):
        raise NonClosureError("radical candidate is not solvable (structure bug)")
    return [tuple(v) for v in basis]


def _is_subalgebra(g: LieAlgebra, vectors) -> bool:
    m = g.dim
    return rank(list(vectors) + _brackets(g, vectors, vectors), m) == rank(vectors, m)


def _is_ideal(g: LieAlgebra, vectors) -> bool:
    m = g.dim
    units = [_unit(m, i) for i in range(m)]
    return rank(list(vectors) + _brackets(g, vectors, units), m) == rank(vectors, m)


def _is_solvable_subspace(g: LieAlgebra, vectors) -> bool:
    return not _derived_chain(g, vectors)[-1]


def levi_check(g: LieAlgebra, r_vectors, h_vectors) -> bool:
    """True iff r is a solvable ideal, h a subalgebra with nondegenerate
    restricted Killing form, and r + h = g with trivial intersection."""
    m = g.dim
    r_vectors = [list(map(Fraction, v)) for v in r_vectors]
    h_vectors = [list(map(Fraction, v)) for v in h_vectors]
    if len(r_vectors) + len(h_vectors) != m:
        raise ValueError("dimension mismatch: dim r + dim h != dim g")
    if rank(r_vectors + h_vectors, m) != m:
        return False
    if not (_is_ideal(g, r_vectors) and _is_solvable_subspace(g, r_vectors)):
        return False
    if not _is_subalgebra(g, h_vectors):
        return False
    K, _ = g.killing
    Kh = []
    for u in h_vectors:
        u_nz = [i for i in range(m) if u[i]]
        row = []
        for v in h_vectors:
            v_nz = [j for j in range(m) if v[j]]
            row.append(sum(u[i] * K[i, j] * v[j] for i in u_nz for j in v_nz))
        Kh.append(row)
    return rank(Kh, len(h_vectors)) == len(h_vectors)


def _reduce(w, rows):
    """w minus its part in the span of RREF rows with leading 1s; the
    result is 0 at their pivots."""
    for row in rows:
        f = w[next(i for i, x in enumerate(row) if x)]
        if f:
            w = [a - f * b for a, b in zip(w, row)]
    return w


def _levi_factor(g: LieAlgebra, rad):
    """RREF rows of a Levi factor: a subalgebra complementary to the
    radical r (de Graaf, Lie Algebras: Theory and Algorithms, 2000, 4.13).

    The unit vectors x_i off the pivots of r satisfy [x_i, x_j] =
    sum_k c_ij^k x_k mod r.  Along the derived series r = r_0 > r_1 >
    ... > 0 of r, each an ideal of g, step t solves for y_i in r_t with
    [x_i, y_j] - [x_j, y_i] - sum_k c_ij^k y_k = -R_ij mod r_(t+1), for
    R_ij = [x_i, x_j] - sum_k c_ij^k x_k in r_t, and moves each x_i to
    x_i + y_i, after which every R_ij lies in r_(t+1); Whitehead's second
    lemma makes each system solvable.  A Levi factor that centralizes r
    is unique, and the result is then the last derived term g^(oo)."""
    m = g.dim
    pivots = {next(i for i, x in enumerate(v) if x) for v in rad}
    off = [i for i in range(m) if i not in pivots]
    xs = [_unit(m, i) for i in off]
    pairs = [(i, j) for i in range(len(xs)) for j in range(i + 1, len(xs))]
    # each x_k stays the unit vector at off[k] modulo r
    c = {(i, j): [_reduce(g.bracket_coeffs(xs[i], xs[j]), rad)[l] for l in off]
         for i, j in pairs}
    chain = _derived_chain(g, rad) if rad else []
    for r_t, r_next in zip(chain, chain[1:]):
        columns = []  # the image of y_k = b, for each k and b in r_t
        for k in range(len(xs)):
            for b in r_t:
                col = []
                for i, j in pairs:
                    v = [-c[i, j][k] * x for x in b]
                    if k in (i, j):
                        sign, other = (1, xs[i]) if k == j else (-1, xs[j])
                        v = [a + sign * w for a, w in zip(v, g.bracket_coeffs(other, b))]
                    col += _reduce(v, r_next)
                columns.append(col)
        target = []
        for i, j in pairs:
            w = g.bracket_coeffs(xs[i], xs[j])
            for ck, x in zip(c[i, j], xs):
                w = [a - ck * b for a, b in zip(w, x)]
            target += [-a for a in _reduce(w, r_next)]
        ys = express_in_basis(columns, target)
        if ys is None:
            raise NonClosureError("no Levi factor complements the radical (structure bug)")
        d = len(r_t)
        for k in range(len(xs)):
            for a, b in enumerate(r_t):
                xs[k] = [x + ys[k * d + a] * y for x, y in zip(xs[k], b)]
    return span_rref(xs)


def levi_split(g: LieAlgebra):
    """(radical, complement, verified): the radical, a Levi factor as
    its complement, and levi_check's verdict on the pair."""
    rad = radical(g)
    complement = _levi_factor(g, rad)
    return rad, complement, levi_check(g, rad, complement)


# ---------------------------------------------------------------------------
# Closed-form adjoint exponentials.


def _mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def _minimal_polynomial(a):
    """Monic minimal polynomial of a rational matrix, low-degree first
    coefficient list [c0, c1, ..., 1], and the powers a^0, ..., a^d of
    the matrix up to its degree d."""
    n = len(a)
    powers = [_identity(n)]
    while True:
        powers.append(_mat_mul(powers[-1], a))
        d = len(powers) - 1
        rows = [[powers[p][i][j] for p in range(d + 1)]
                for i in range(n) for j in range(n)]
        ns = sparse_nullspace(rows, d + 1)
        for v in ns:
            if v[d]:
                coeffs = [x / v[d] for x in v]
                return coeffs, powers
        if d > n:
            raise UnsupportedAdjointError("minimal polynomial search failed")


def _deflate(coeffs, root):
    """coeffs / (x - root) for a root of coeffs, by synthetic division."""
    out = [Fraction(0)] * (len(coeffs) - 1)
    carry = Fraction(0)
    for i in range(len(coeffs) - 1, 0, -1):
        carry = carry * root + coeffs[i]
        out[i - 1] = carry
    return out


def _rational_roots(coeffs):
    """Rational roots with multiplicity; returns (roots dict, residual).

    Candidates come from the rational root theorem applied to the
    denominator-cleared integer polynomial."""
    roots = {}
    cur = list(coeffs)
    while len(cur) > 1:
        root = _rational_root(cur)
        if root is None:
            break
        roots[root] = roots.get(root, 0) + 1
        cur = _deflate(cur, root)
    return roots, cur


def _rational_root(coeffs):
    """One rational root of coeffs, or None."""
    if coeffs[0] == 0:
        return Fraction(0)
    den_lcm = math.lcm(*(c.denominator for c in coeffs))
    for p in _divisors(coeffs[0] * den_lcm):
        for q in _divisors(coeffs[-1] * den_lcm):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _poly_value(coeffs, cand) == 0:
                    return cand
    return None


def _poly_value(coeffs, x):
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _divisors(n):
    n = abs(int(n))
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


class AdjointMap:
    """Closed-form matrix of Ad(exp(q X_i)) on the basis, rows = images,
    so coefficient row vectors transform as a' = a . matrix."""

    def __init__(self, generator_index: int, parameter: str, matrix: tuple):
        self.generator_index = generator_index
        self.parameter = parameter
        self.matrix = matrix  # rows of canonical RatFuncs

    def at(self, q_value: RatFunc):
        """The matrix with the parameter replaced by q_value."""
        image = {sym_atom(self.parameter): q_value}.get
        return [[substitute_atoms(x, image) for x in row] for row in self.matrix]


def _imaginary_pairs(residual):
    """The c > 0 of the factors x^2 + c of the minimal polynomial's part
    without rational roots; each must be simple."""
    if len(residual) == 1:
        return []
    if len(residual) % 2 == 0:
        raise UnsupportedAdjointError("minimal polynomial has an unsupported odd factor")
    if any(c != 0 for c in residual[1::2]):
        raise UnsupportedAdjointError("minimal polynomial factor is not even in the parameter")
    yroots, yres = _rational_roots(residual[0::2])
    if len(yres) > 1 or any(mult != 1 for mult in yroots.values()):
        raise UnsupportedAdjointError("irrational or repeated imaginary spectrum is unsupported")
    if any(y >= 0 for y in yroots):
        raise UnsupportedAdjointError("real irrational eigenvalues are unsupported")
    return sorted(-y for y in yroots)


def adjoint_exp(g: LieAlgebra, index: int, parameter: str = "q") -> AdjointMap:
    """Closed-form exp(-q ad X_i) as p(ad X_i), where p is the Hermite
    interpolant of exp(-q x) on the spectrum of ad X_i: the polynomial
    of degree below that of the minimal polynomial mu that agrees with
    exp(-q x) and its derivatives up to each root's multiplicity.

    Supported spectra: rational eigenvalues of any multiplicity (0
    included) and simple imaginary pairs, the factors x^2 + c of mu
    with rational c > 0.  A root lam of multiplicity k gives the k
    conditions p^(j)(lam) = (-q)^j exp(-lam q); a pair gives the two
    coefficients of p mod (x^2 + c) = cos(w q) - sin(w q)/w x with
    w = sqrt(c).  The conditions are rational in the coefficients of p,
    so one sparse_rref of [V | I] inverts them."""
    m = g.dim
    mu, powers = _minimal_polynomial(ad_matrix(g, _unit(m, index)))
    roots, residual = _rational_roots(mu)
    pairs = _imaginary_pairs(residual)
    d = len(mu) - 1
    q = symbol(parameter)
    rows, values = [], []
    for lam, mult in sorted(roots.items()):
        scalar = fn_ratfunc("exp", RatFunc.const(-lam) * q)
        for j in range(mult):
            # d^j/dx^j of sum_l c_l x^l at lam
            rows.append([math.perm(l, j) * lam ** (l - j) if l >= j else 0 for l in range(d)])
            values.append((-q) ** j * scalar)
    for c in pairs:
        w_q = pow_ratfunc(RatFunc.const(c), Fraction(1, 2)) * q
        sin_part = -pow_ratfunc(RatFunc.const(c), Fraction(-1, 2)) * fn_ratfunc("sin", w_q)
        # x^l = (-c)^(l // 2) x^(l % 2) modulo x^2 + c
        for parity, value in ((0, fn_ratfunc("cos", w_q)), (1, sin_part)):
            rows.append([(-c) ** (l // 2) if l % 2 == parity else 0 for l in range(d)])
            values.append(value)
    pivot_rows, _ = sparse_rref([row + _unit(d, r) for r, row in enumerate(rows)], 2 * d)
    coeffs = []
    for l in range(d):
        inv_row = pivot_rows[l]
        coeffs.append(rat_sum(RatFunc.const(Fraction(inv_row[d + r], inv_row[l])) * values[r]
                              for r in range(d) if d + r in inv_row))
    # rows = images: entry (j, i) of the column-action matrix p(a)
    matrix = tuple(
        tuple(rat_sum(coeffs[l] * RatFunc.const(powers[l][i][j])
                      for l in range(d) if powers[l][i][j]) for i in range(m))
        for j in range(m)
    )
    amap = AdjointMap(index, parameter, matrix)
    _check_identity_at_zero(amap)
    return amap


def _check_identity_at_zero(amap: AdjointMap):
    at0 = amap.at(RAT_ZERO)
    for i, row in enumerate(at0):
        for j, v in enumerate(row):
            if not (v - (RAT_ONE if i == j else RAT_ZERO)).is_zero():
                raise UnsupportedAdjointError("adjoint map is not identity at 0")
