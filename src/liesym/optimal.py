"""One-dimensional optimal-system machinery for the five-generator
algebra: two central generators plus a rotation triple.

Reduction schedule: rotate with the third generator to clear the fourth
coefficient, rotate with the fourth generator to clear the third, then
scale the leading surviving coefficient to one.  Rotation parameters
follow atan2 semantics; when the rotation hypotenuse is rational the
move is performed exactly, otherwise in floating point against a 1e-9
match tolerance.

Every value is read as an entry (value, float, (numerator,
denominator)), so the exact tests run on integers: a pattern's fixed
slots match on pairs, and x = a/b, y = c/d have a rational hypotenuse
exactly when (ad)^2 + (cb)^2 is a perfect square r^2, the hypotenuse
then being r/(bd).  From the first irrational rotation on, the
reduction works on a plain list of floats.  `_reduce` records each move
as a tuple (generator, parameter, exact (cos, sin) or None), and
`_replay` re-applies such tuples, on Fractions for an exact reduction
and on floats otherwise.

`verify_optimal_cover` runs the structure gate (`_check_structure`)
once per cover, before drawing any sample, prepares the representative
patterns once, and draws every value from one table of the entries of
p/q, -9 <= p <= 9, 1 <= q <= 4, built per call: drawing converts no
value and builds no Fraction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import atan2, cos, hypot, isqrt, sin

from .errors import LieSymError
from .liealg import LieAlgebra

MATCH_TOL = 1e-9
# --samples above this is rejected before any sample is drawn: a sample
# takes about 20 us, so the cap bounds a cover at about 20 s.
MAX_SAMPLES = 10**6


class OptimalSystemError(LieSymError):
    pass


class OptimalRep:
    """Representative pattern: fixed entries are rationals, free slots
    are parameter names like 'a2'."""

    def __init__(self, case_id: int, pattern: tuple):
        self.case_id = case_id
        self.pattern = pattern  # entries: Fraction | str

    def describe(self, names):
        parts = []
        for i, p in enumerate(self.pattern):
            if isinstance(p, str):
                parts.append(f"{p}*{names[i]}")
            elif p == 1:
                parts.append(names[i])
            elif p != 0:
                parts.append(f"{p}*{names[i]}")
        return " + ".join(parts) if parts else "0"


def default_representatives() -> list:
    """The nine one-dimensional representatives for the 5-generator
    algebra (identity, time shift, rotation triple), ordered by case."""
    z = Fraction(0)
    one = Fraction(1)
    return [
        OptimalRep(1, (one, "a2", z, z, "a5")),
        OptimalRep(2, (one, "a2", "a3", z, z)),
        OptimalRep(3, (one, "a2", z, "a4", z)),
        OptimalRep(4, (z, one, z, z, "a5")),
        OptimalRep(5, (z, one, "a3", z, z)),
        OptimalRep(6, (z, one, z, "a4", z)),
        OptimalRep(7, (z, z, one, z, z)),
        OptimalRep(8, (z, z, z, one, z)),
        OptimalRep(9, (z, z, z, z, one)),
    ]


# The rotation triple: generator k brackets slots i and j into k, and
# its row action mixes slots i and j.  The gate checks the brackets and
# the reduction rotates on the slots, so both read this one table.
ROTATION_SLOTS = {2: (3, 4), 3: (2, 4), 4: (2, 3)}


def _check_structure(g: LieAlgebra):
    """Structure gate: generators 1, 2 central, (3, 4, 5) closing as a
    rotation triple with unit structure constants."""
    m = g.dim
    if m != 5:
        raise OptimalSystemError("optimal-system reduction implemented for 5 generators")
    for i in (0, 1):
        for j in range(m):
            if any(g.c[i][j][k] for k in range(m)):
                raise OptimalSystemError("first two generators must be central")
    for k, (i, j) in ROTATION_SLOTS.items():
        row = [g.c[i][j][t] for t in range(m)]
        nz = [t for t, v in enumerate(row) if v]
        if nz != [k] or abs(row[k]) != 1:
            raise OptimalSystemError("generators 3..5 do not close as a rotation triple")


def _float(v) -> float:
    """float(v) for an int, Fraction or float.  A rational converts by
    integer true division, the rounding Fraction.__float__ uses, without
    its Python-level numbers.Rational dispatch."""
    return v if type(v) is float else v.numerator / v.denominator


def _entry(v: Fraction) -> tuple:
    """v as the reduction reads it: (v, float(v), (numerator, denominator))."""
    n, d = v.numerator, v.denominator
    return v, n / d, (n, d)


def _value_table() -> list:
    """Every value a cover sample draws, as `_entry` values: row p + 9,
    column q - 1 holds p/q, for -9 <= p <= 9 and 1 <= q <= 4."""
    return [[_entry(Fraction(p, q)) for q in range(1, 5)] for p in range(-9, 10)]


def _patterns(reps) -> list:
    """Each representative as (case, fixed pairs, fixed floats, free
    slots): a fixed slot is (index, (numerator, denominator)) and
    (index, float value), a free one (index, name)."""
    out = []
    for rep in reps:
        fixed = [(i, p) for i, p in enumerate(rep.pattern) if not isinstance(p, str)]
        out.append((rep.case_id,
                    tuple((i, (p.numerator, p.denominator)) for i, p in fixed),
                    tuple((i, float(p)) for i, p in fixed),
                    tuple((i, p) for i, p in enumerate(rep.pattern) if isinstance(p, str))))
    return out


def _match_exact(pairs, patterns):
    """The first pattern whose fixed slots equal `pairs`, else None."""
    for pattern in patterns:
        for i, p in pattern[1]:
            if pairs[i] != p:
                break
        else:
            return pattern
    return None


def _match_float(vec, patterns):
    """The first pattern whose fixed slots lie within MATCH_TOL of the
    floats `vec`, else None."""
    for pattern in patterns:
        for i, fp in pattern[2]:
            if abs(vec[i] - fp) > MATCH_TOL:
                break
        else:
            return pattern
    return None


def _reduce(vec, patterns) -> tuple:
    """Reduce a nonzero list of `_entry` values, of an algebra that passed
    _check_structure, against _patterns(reps).

    Returns (pattern, exact, moves, scale, output): the matched pattern
    or None; whether the reduction stayed exact; the moves as tuples
    (generator, parameter, exact (cos, sin) or None); the scale and the
    output, Fractions when exact, floats otherwise."""
    # already a representative: no moves
    pattern = _match_exact([e[2] for e in vec], patterns)
    if pattern is not None:
        return pattern, True, [], Fraction(1), [e[0] for e in vec]
    exact = True
    work = list(vec)
    moves = []
    # clear the fourth slot into the fifth, then the third into the
    # fifth; the zeroed slot vanishes and the kept slot becomes the
    # positive hypotenuse h, with cos = y/h and sine -x/h
    for gen in (2, 3):
        i, j = ROTATION_SLOTS[gen]
        if exact:
            (a, b), (c, d) = work[i][2], work[j][2]
            if not a:
                continue
            # x = a/b and y = c/d: x^2 + y^2 = s/(bd)^2 is a rational
            # square exactly when s is a square r^2, and then h = r/(bd)
            s = (a * d) ** 2 + (c * b) ** 2
            r = isqrt(s)
            if r * r == s:
                cos_v = Fraction(c * b, r)
                sin_v = Fraction(-a * d, r)
                moves.append((gen, atan2(_float(sin_v), _float(cos_v)), (cos_v, sin_v)))
                work[i] = _entry(Fraction(0))
                work[j] = _entry(Fraction(r, b * d))
                continue
            exact = False
            work = [e[1] for e in work]
        elif work[i] == 0:
            continue
        x, y = work[i], work[j]
        h = hypot(x, y)
        cos_v = y / h
        sin_v = -x / h
        moves.append((gen, atan2(sin_v, cos_v), None))
        work[i] = x * cos_v + y * sin_v
        work[j] = -x * sin_v + y * cos_v
    # after both rotations the third and fourth slots are clear, so the
    # scaling target is the first central slot, else the second, else
    # the surviving rotation norm
    if exact:
        work = [e[0] for e in work]
    tol = 0 if exact else MATCH_TOL
    if abs(work[0]) > tol:
        lead = 0
    elif abs(work[1]) > tol:
        lead = 1
    elif abs(work[4]) > tol:
        lead = 4
    else:
        raise OptimalSystemError("reduction produced the zero vector")
    scale = Fraction(1) / work[lead] if exact else 1.0 / work[lead]
    out = [v * scale for v in work]
    if exact:
        pattern = _match_exact([(v.numerator, v.denominator) for v in out], patterns)
    else:
        pattern = _match_float(out, patterns)
    return pattern, exact, moves, scale, out


def _replay(vec, moves, scale, exact: bool) -> list:
    """Re-apply the moves and the scale of a `_reduce` result to its
    input `vec`, as Fractions when exact and as floats otherwise; each
    move is a tuple (generator, parameter, exact (cos, sin) or None)."""
    work = list(vec)
    for gen, param, cos_sin in moves:
        # every move of an exact reduction is exact
        cos_v, sin_v = cos_sin if exact else (cos(param), sin(param))
        # the row action of Ad(exp(param X_gen)), up to the sign of the
        # bracket constant, which the gate leaves free and the orbit
        # does not depend on
        i, j = ROTATION_SLOTS[gen]
        x, y = work[i], work[j]
        work[i] = x * cos_v + y * sin_v
        work[j] = -x * sin_v + y * cos_v
    return [v * scale for v in work]


def _invariant_signature(rep: OptimalRep):
    """(a1 fixed, a2 fixed-or-free, rotation norm fixed-or-free)."""
    a1 = rep.pattern[0]
    a2 = rep.pattern[1]
    rot = [rep.pattern[i] for i in (2, 3, 4)]
    fixed_norm = sum(p * p for p in rot if not isinstance(p, str))
    norm = "free" if any(isinstance(p, str) for p in rot) else fixed_norm
    return (a1, "free" if isinstance(a2, str) else a2, norm)


def separation_failures(reps) -> list:
    """Pairs of representatives the verified invariants cannot separate:
    identical signatures, treating free slots as full real ranges."""
    out = []
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            s1 = _invariant_signature(reps[i])
            s2 = _invariant_signature(reps[j])
            if s1[0] != s2[0] or s1[1] != s2[1]:
                continue
            n1, n2 = s1[2], s2[2]
            overlap = (
                n1 == n2
                or (n1 == "free" and (n2 == "free" or n2 >= 0))
                or (n2 == "free" and n1 >= 0)
            )
            if overlap:
                out.append((reps[i].case_id, reps[j].case_id))
    return out


def verify_optimal_cover(g: LieAlgebra, reps=None, samples: int = 1000,
                         seed: int = 42) -> dict:
    """Reduce seeded random rational vectors and report coverage,
    invariant drift, and representative separation."""
    if reps is None:
        reps = default_representatives()
    _check_structure(g)
    patterns = _patterns(reps)
    rows = _value_table()
    # choice(rows) then choice(row) consume the stream as randint(-9, 9)
    # then randint(1, 4) do: each is one _randbelow call
    choice = random.Random(seed).choice
    slots = range(g.dim)
    matched = {}
    unmatched = []
    rejected = 0
    drift_max = 0.0
    replay_max = 0.0
    for _ in range(samples):
        vec = [choice(choice(rows)) for _ in slots]
        a_in = [e[1] for e in vec]
        if not any(a_in):
            rejected += 1
            continue
        pattern, exact, moves, scale, out = _reduce(vec, patterns)
        if pattern is None:
            unmatched.append([str(e[0]) for e in vec])
            continue
        case = pattern[0]
        matched[case] = matched.get(case, 0) + 1
        if exact:
            # a few in a hundred: replayed on Fractions, then compared as
            # floats
            replayed = [_float(v) for v in _replay([e[0] for e in vec], moves, scale, True)]
            out = [_float(v) for v in out]
            scale = _float(scale)
        else:
            replayed = _replay(a_in, moves, scale, False)
        drift_max = max(drift_max, _invariant_drift(a_in, out, scale))
        replay_max = max(replay_max, max([abs(a - b) for a, b in zip(replayed, out)]))
    return {
        "samples": samples,
        "seed": seed,
        "matched": dict(sorted(matched.items())),
        "matched_total": sum(matched.values()),
        "valid_total": samples - rejected,
        "rejected_zero_vectors": rejected,
        "unmatched": unmatched,
        "invariant_drift_max": drift_max,
        "replay_error_max": replay_max,
        "separation_failures": [list(p) for p in separation_failures(reps)],
    }


def _invariant_drift(a_in, a_out, scale: float) -> float:
    """Scale-adjusted drift of (a1, a2, rotation norm) from the floats
    of a reduction's input to those of its output."""
    a1, a2, a3, a4, a5 = a_in
    b1, b2, b3, b4, b5 = a_out
    drift = max(abs(b1 - a1 * scale), abs(b2 - a2 * scale))
    # sum() as written: from 3.12 it adds floats with compensation
    n_in = sum((a3 * a3, a4 * a4, a5 * a5))
    n_out = sum((b3 * b3, b4 * b4, b5 * b5))
    return max(drift, abs(n_out - n_in * scale * scale))
