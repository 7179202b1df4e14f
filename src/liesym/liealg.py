"""Lie algebra structure over exact rationals.

Brackets of vector fields, structure constants, derived series and
solvability, Killing form and semisimplicity, radical via the Cartan
orthogonality criterion, Levi split verification, adjoint matrices and
closed-form adjoint exponentials.

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
transform as row vectors: a' = a . M.
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
from .symexpr.poly import RAT_ONE, RAT_ZERO, RatFunc, poly_divexact, poly_lcm, rat_sum, sym_atom


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


# ---------------------------------------------------------------------------
# Closed-form adjoint exponentials.


def _mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def _mat_add(a, b):
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def _identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def _minimal_polynomial(a):
    """Monic minimal polynomial of a rational matrix, low-degree first
    coefficient list [c0, c1, ..., 1]."""
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
                return coeffs
        if d > n:
            raise UnsupportedAdjointError("minimal polynomial search failed")


def _poly_divmod(num, den):
    num = list(num)
    out = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        if num[-1] == 0:
            num.pop()
            continue
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        out[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return out, num


def _poly_eval_matrix(coeffs, a):
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    power = _identity(n)
    for c in coeffs:
        if c:
            out = _mat_add(out, _mat_scale(power, c))
        power = _mat_mul(power, a)
    return out


def _poly_gcd_ext(p, q):
    """Extended Euclid over Q[x]: returns (g, u, v) with u p + v q = g."""
    r0, r1 = list(p), list(q)
    s0, s1 = [Fraction(1)], [Fraction(0)]
    t0, t1 = [Fraction(0)], [Fraction(1)]

    def sub_scaled(a, b, quot):
        out = list(a)
        for i, qc in enumerate(quot):
            if qc == 0:
                continue
            for j, bc in enumerate(b):
                idx = i + j
                while len(out) <= idx:
                    out.append(Fraction(0))
                out[idx] -= qc * bc
        while out and out[-1] == 0:
            out.pop()
        return out

    while r1:
        quot, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, sub_scaled(s0, s1, quot)
        t0, t1 = t1, sub_scaled(t0, t1, quot)
    lead = r0[-1]
    return [c / lead for c in r0], [c / lead for c in s0], [c / lead for c in t0]


def _rational_roots(coeffs):
    """Rational roots with multiplicity; returns (roots dict, residual).

    Candidates come from the rational root theorem applied to the
    denominator-cleared integer polynomial."""
    roots = {}
    cur = list(coeffs)
    while len(cur) > 1:
        if cur[0] == 0:
            root = Fraction(0)
        else:
            den_lcm = 1
            for c in cur:
                den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
            ints = [c * den_lcm for c in cur]
            root = None
            found = False
            for p in _divisors(ints[0].numerator):
                for q in _divisors(ints[-1].numerator):
                    for cand in (Fraction(p, q), Fraction(-p, q)):
                        if _poly_value(cur, cand) == 0:
                            root = cand
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            if root is None:
                break
        quot, rem = _poly_divmod(cur, [-root, Fraction(1)])
        if rem:
            break
        roots[root] = roots.get(root, 0) + 1
        cur = quot
    return roots, cur


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

    @property
    def dim(self):
        return len(self.matrix)

    def at(self, q_value: RatFunc):
        """The matrix with the parameter replaced by q_value."""
        image = {sym_atom(self.parameter): q_value}.get
        return [[substitute_atoms(x, image) for x in row] for row in self.matrix]

    def apply_row(self, coeffs, q_value: RatFunc):
        """Transform a coefficient vector, substituting the parameter."""
        mat = self.at(q_value)
        m = self.dim
        return [
            rat_sum(RatFunc.const(coeffs[j]) * mat[j][k] for j in range(m) if coeffs[j])
            for k in range(m)
        ]


def adjoint_exp(g: LieAlgebra, index: int, parameter: str = "q") -> AdjointMap:
    """Closed-form exp(-q ad X_i) assembled from the minimal-polynomial
    factorization; supported spectra: 0 (any multiplicity), rational
    eigenvalues, simple purely imaginary pairs x^2 + c with c > 0."""
    m = g.dim
    a = ad_matrix(g, _unit(m, index))
    mu = _minimal_polynomial(a)
    # factor mu = x^k * prod (x - lambda)^mult * prod (x^2 + c)
    k = 0
    cur = list(mu)
    while len(cur) > 1 and cur[0] == 0:
        cur = cur[1:]
        k += 1
    roots, residual = _rational_roots(cur)
    quads = []
    if len(residual) > 1:
        if len(residual) % 2 == 0:
            raise UnsupportedAdjointError(
                "minimal polynomial has an unsupported odd factor")
        even = residual[0::2]
        if any(c != 0 for c in residual[1::2]):
            raise UnsupportedAdjointError(
                "minimal polynomial factor is not even in the parameter")
        yroots, yres = _rational_roots(even)
        if len(yres) > 1 or any(mult != 1 for mult in yroots.values()):
            raise UnsupportedAdjointError(
                "irrational or repeated imaginary spectrum is unsupported")
        for y, mult in yroots.items():
            cval = -y
            if cval <= 0:
                raise UnsupportedAdjointError(
                    "real irrational eigenvalues are unsupported")
            quads.append(cval)
    if 0 in roots:
        # a rational root 0 would have been absorbed into x^k
        raise UnsupportedAdjointError("inconsistent minimal polynomial factorization")

    factors = []  # (coeff list of factor, kind, data)
    if k:
        factors.append(([Fraction(0)] * k + [Fraction(1)], "nilpotent", k))
    for lam, mult in sorted(roots.items()):
        f = [Fraction(1)]
        for _ in range(mult):
            f, _rem = _poly_mul_linear(f, lam)
        factors.append((f, "exponential", (lam, mult)))
    for cval in sorted(quads):
        factors.append(([cval, Fraction(0), Fraction(1)], "rotation", cval))

    q = symbol(parameter)
    total = [[RAT_ZERO] * m for _ in range(m)]
    for f, kind, data in factors:
        rest, remcheck = _poly_divmod(mu, f)
        if remcheck:
            raise UnsupportedAdjointError("minimal polynomial factorization failed")
        gpoly, u, v = _poly_gcd_ext(f, rest)
        if len(gpoly) != 1:
            raise UnsupportedAdjointError("minimal polynomial factors are not coprime")
        # projector P = v(a) rest(a) and exp(-qa) restricted to im P
        proj = _mat_mul(_poly_eval_matrix(v, a), _poly_eval_matrix(rest, a))
        block = _exp_block(a, proj, kind, data, q)
        total = [[total[i][j] + block[i][j] for j in range(m)] for i in range(m)]
    # rows = images: transpose the column-action matrix
    rows = tuple(tuple(total[i][j] for i in range(m)) for j in range(m))
    amap = AdjointMap(index, parameter, rows)
    _check_identity_at_zero(amap)
    return amap


def _poly_mul_linear(f, lam):
    """f(x) * (x - lam)"""
    out = [Fraction(0)] * (len(f) + 1)
    for i, c in enumerate(f):
        out[i + 1] += c
        out[i] -= lam * c
    return out, None


def _exp_block(a, proj, kind, data, q: RatFunc):
    """exp(-q a) restricted to a spectral block, as a RatFunc matrix."""
    m = len(a)
    out = [[RAT_ZERO] * m for _ in range(m)]
    if kind == "rotation":
        # a^2 = -c on im(P); exp(-q a) = cos(w q) - sin(w q)/w a
        cval = RatFunc.const(data)
        w_q = pow_ratfunc(cval, Fraction(1, 2)) * q
        cos_part = fn_ratfunc("cos", w_q)
        sin_part = -pow_ratfunc(cval, Fraction(-1, 2)) * fn_ratfunc("sin", w_q)
        ap = _mat_mul(a, proj)
        for i in range(m):
            for j in range(m):
                if proj[i][j]:
                    out[i][j] = out[i][j] + RatFunc.const(proj[i][j]) * cos_part
                if ap[i][j]:
                    out[i][j] = out[i][j] + RatFunc.const(ap[i][j]) * sin_part
        return out
    # nilpotent: sum_l (-q)^l a^l / l! on im(P); exponential: the same
    # series in (a - lam) times exp(-lam q)
    if kind == "nilpotent":
        terms, scalar, step = data, RAT_ONE, a
    else:
        lam, terms = data
        scalar = fn_ratfunc("exp", RatFunc.const(-lam) * q)
        step = _mat_add(a, _mat_scale(_identity(m), -lam))
    power = proj
    fact = 1
    for l in range(terms):
        factor = scalar * (-q) ** l
        for i in range(m):
            for j in range(m):
                if power[i][j]:
                    out[i][j] = out[i][j] + RatFunc.const(Fraction(power[i][j], fact)) * factor
        power = _mat_mul(power, step)
        fact *= l + 1
    return out


def _check_identity_at_zero(amap: AdjointMap):
    at0 = amap.at(RAT_ZERO)
    for i, row in enumerate(at0):
        for j, v in enumerate(row):
            if not (v - (RAT_ONE if i == j else RAT_ZERO)).is_zero():
                raise UnsupportedAdjointError("adjoint map is not identity at 0")


def adjoint_series_truncation(g: LieAlgebra, index: int, parameter: str, order: int):
    """Partial sum of the alternating adjoint series as polynomial
    matrices in the parameter: sum_{l<=order} (-q)^l ad^l / l!.

    Returned with the same row-orientation as AdjointMap."""
    m = g.dim
    a = ad_matrix(g, _unit(m, index))
    minus_q = -symbol(parameter)
    out = [[RAT_ZERO] * m for _ in range(m)]
    power = _identity(m)
    fact = 1
    for l in range(order + 1):
        for i in range(m):
            for j in range(m):
                if power[i][j]:
                    out[i][j] = out[i][j] + RatFunc.const(power[i][j] / fact) * minus_q ** l
        power = _mat_mul(power, a)
        fact *= l + 1
    return tuple(tuple(out[i][j] for i in range(m)) for j in range(m))
