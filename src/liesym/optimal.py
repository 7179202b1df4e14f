"""One-dimensional optimal-system machinery for the five-generator
algebra: two central generators plus a rotation triple.

Reduction schedule: rotate with the third generator to clear the fourth
coefficient, rotate with the fourth generator to clear the third, then
scale the leading surviving coefficient to one.  Rotation parameters
follow atan2 semantics.  The reduction runs on floats and matches a
representative's fixed slots within MATCH_TOL.  `_reduce` records each
move as a pair (generator, parameter), and `_replay` re-applies the
pairs through cos and sin of the parameter, so the cover reports how far
the recorded moves land from the reduced vector.

`verify_optimal_cover` runs the structure gate (`_check_structure`)
once per cover, before drawing any sample, prepares the representative
patterns once, and draws every value from one table of p/q,
-9 <= p <= 9, 1 <= q <= 4, built per call as (float, text) pairs: the
float is reduced and the text is printed for an unmatched sample.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import atan2, cos, hypot, sin

from .errors import LieSymError
from .liealg import LieAlgebra

MATCH_TOL = 1e-9
# --samples above this is rejected before any sample is drawn: a sample
# takes about 11 us, so the cap bounds a cover at about 11 s.
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


def _value_table() -> list:
    """Every value a cover sample draws, as (float, text): row p + 9,
    column q - 1 holds p/q, for -9 <= p <= 9 and 1 <= q <= 4."""
    return [[(p / q, str(Fraction(p, q))) for q in range(1, 5)] for p in range(-9, 10)]


def _patterns(reps) -> list:
    """Each representative as (case, fixed slots, free slots): a fixed
    slot is (index, float value), a free one (index, name)."""
    return [(rep.case_id,
             tuple((i, float(p)) for i, p in enumerate(rep.pattern) if not isinstance(p, str)),
             tuple((i, p) for i, p in enumerate(rep.pattern) if isinstance(p, str)))
            for rep in reps]


def _match(vec, patterns):
    """The first pattern whose fixed slots lie within MATCH_TOL of `vec`,
    else None."""
    for pattern in patterns:
        for i, fp in pattern[1]:
            if abs(vec[i] - fp) > MATCH_TOL:
                break
        else:
            return pattern
    return None


def _reduce(vec, patterns) -> tuple:
    """Reduce a nonzero list of floats, of an algebra that passed
    _check_structure, against _patterns(reps).

    Returns (pattern, moves, scale, output): the matched pattern or
    None, the moves as pairs (generator, parameter), the scale and the
    output."""
    # already a representative: no moves
    pattern = _match(vec, patterns)
    if pattern is not None:
        return pattern, [], 1.0, list(vec)
    work = list(vec)
    moves = []
    # clear the fourth slot into the fifth, then the third into the
    # fifth; the zeroed slot vanishes up to round-off and the kept slot
    # becomes the positive hypotenuse h, with cos = y/h and sine -x/h
    for gen in (2, 3):
        i, j = ROTATION_SLOTS[gen]
        x, y = work[i], work[j]
        if x == 0:
            continue
        h = hypot(x, y)
        cos_v = y / h
        sin_v = -x / h
        moves.append((gen, atan2(sin_v, cos_v)))
        work[i] = x * cos_v + y * sin_v
        work[j] = -x * sin_v + y * cos_v
    # after both rotations the third and fourth slots are clear, so the
    # scaling target is the first central slot, else the second, else
    # the surviving rotation norm
    if abs(work[0]) > MATCH_TOL:
        lead = 0
    elif abs(work[1]) > MATCH_TOL:
        lead = 1
    elif abs(work[4]) > MATCH_TOL:
        lead = 4
    else:
        raise OptimalSystemError("reduction produced the zero vector")
    scale = 1.0 / work[lead]
    out = [v * scale for v in work]
    return _match(out, patterns), moves, scale, out


def _replay(vec, moves, scale) -> list:
    """Re-apply the moves and the scale of a `_reduce` result to its
    input `vec`; each move is a pair (generator, parameter)."""
    work = list(vec)
    for gen, param in moves:
        cos_v, sin_v = cos(param), sin(param)
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
        drawn = [choice(choice(rows)) for _ in slots]
        vec = [e[0] for e in drawn]
        if not any(vec):
            rejected += 1
            continue
        pattern, moves, scale, out = _reduce(vec, patterns)
        if pattern is None:
            unmatched.append([e[1] for e in drawn])
            continue
        case = pattern[0]
        matched[case] = matched.get(case, 0) + 1
        replayed = _replay(vec, moves, scale)
        drift_max = max(drift_max, _invariant_drift(vec, out, scale))
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
