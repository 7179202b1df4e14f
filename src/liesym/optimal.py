"""One-dimensional optimal-system machinery for the five-generator
algebra: two central generators plus a rotation triple.

Reduction schedule: rotate with the third generator to clear the fourth
coefficient, rotate with the fourth generator to clear the third, then
scale the leading surviving coefficient to one.  Rotation parameters
follow atan2 semantics; when the rotation hypotenuse is rational the
move is performed exactly, otherwise in floating point against a 1e-9
match tolerance.

`verify_optimal_cover` runs the structure gate (`_check_structure`)
once per cover, before drawing any sample, and matches every sample
against representative patterns prepared once, with their float values;
`adjoint_orbit_reduce` gates each call and shares the reduction routine.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import LieSymError
from .jets import symbol
from .liealg import LieAlgebra, adjoint_exp
from .symexpr import substitute_atoms
from .symexpr.poly import rat_sum, sym_atom

MATCH_TOL = 1e-9


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


class _Record:
    """Equal to another record of its class with equal attributes."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


class Move(_Record):
    """One adjoint move: generator index, rotation parameter, and the
    exact (cos, sin) pair when the parameter is exactly representable."""

    def __init__(self, generator: int, parameter: float, exact_cos_sin: tuple | None = None):
        self.generator = generator
        self.parameter = parameter
        self.exact_cos_sin = exact_cos_sin


class ReductionTrace(_Record):
    def __init__(self, input: tuple, moves: list, scale: Fraction | float, output: tuple,
                 matched_case: int | None, parameters: dict, exact: bool):
        self.input = input
        self.moves = moves
        self.scale = scale
        self.output = output
        self.matched_case = matched_case
        self.parameters = parameters
        self.exact = exact


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
    expected = {(2, 3): 4, (3, 4): 2, (2, 4): 3}
    for (i, j), k in expected.items():
        row = [g.c[i][j][t] for t in range(m)]
        nz = [t for t, v in enumerate(row) if v]
        if nz != [k] or abs(row[k]) != 1:
            raise OptimalSystemError("generators 3..5 do not close as a rotation triple")


# Row-action of the three rotation maps on coefficient vectors.  Each
# generator mixes two slots; the orientation records the sign of the
# sine entry so moves agree exactly with the adjoint matrices.
ROTATION_SLOTS = {2: (3, 4), 3: (2, 4), 4: (2, 3)}
ROTATION_ORIENT = {2: 1, 3: -1, 4: 1}


def _is_square(f: Fraction):
    num = f.numerator
    den = f.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _apply_rotation(vec, generator, cos_v, sin_v):
    """Row action of Ad(exp(q X_generator)) given cos q and sin q."""
    i, j = ROTATION_SLOTS[generator]
    s_eff = sin_v * ROTATION_ORIENT[generator]
    out = list(vec)
    out[i] = vec[i] * cos_v + vec[j] * s_eff
    out[j] = -vec[i] * s_eff + vec[j] * cos_v
    return out


def _exact(p: Fraction):
    """p, as an int when it is one: Fraction == int is the cheaper test."""
    return p.numerator if p.denominator == 1 else p


def _float(v) -> float:
    """float(v) for an int, Fraction or float.  A rational converts by
    integer true division, the rounding Fraction.__float__ uses, without
    its Python-level numbers.Rational dispatch."""
    return v if type(v) is float else v.numerator / v.denominator


def _patterns(reps) -> list:
    """Each representative as (case, fixed slots, free slots); a fixed
    slot is (index, exact value, float value), a free one (index, name)."""
    return [
        (rep.case_id,
         tuple((i, _exact(p), float(p)) for i, p in enumerate(rep.pattern)
               if not isinstance(p, str)),
         tuple((i, p) for i, p in enumerate(rep.pattern) if isinstance(p, str)))
        for rep in reps
    ]


def _match_pattern(vec, pattern, exact: bool):
    """The free-slot parameters when vec matches the pattern, else None."""
    _, fixed, free = pattern
    if exact:
        if any(vec[i] != p for i, p, _ in fixed):
            return None
    elif any(abs(vec[i] - fp) > MATCH_TOL for i, _, fp in fixed):
        return None
    return {name: vec[i] for i, name in free}


def adjoint_orbit_reduce(coeffs, g: LieAlgebra, reps=None) -> ReductionTrace:
    """Reduce a coefficient vector to an optimal-system representative.

    The trace records every move and the overall scaling; an unmatched
    result is reported in the trace (matched_case None), not raised.
    """
    if reps is None:
        reps = default_representatives()
    vec = [Fraction(v) for v in coeffs]
    if not any(vec):
        raise OptimalSystemError("zero vector does not span a subalgebra")
    _check_structure(g)
    return _reduce(vec, _patterns(reps))


def _reduce(vec, patterns) -> ReductionTrace:
    """adjoint_orbit_reduce on a nonzero Fraction vector of an algebra
    that passed _check_structure, against _patterns(reps)."""
    # already a representative: identity trace
    for pattern in patterns:
        params = _match_pattern(vec, pattern, exact=True)
        if params is not None:
            return ReductionTrace(tuple(vec), [], Fraction(1), tuple(vec),
                                  pattern[0], params, exact=True)
    exact = True
    work = list(vec)
    moves = []

    def rotation_move(gen_index):
        nonlocal exact, work
        zero_slot, keep_slot = ROTATION_SLOTS[gen_index]
        orient = ROTATION_ORIENT[gen_index]
        x = work[zero_slot]
        y = work[keep_slot]
        if x == 0:
            return
        # choose cos = y/h and effective sine -x/h so the zeroed slot
        # vanishes and the kept slot becomes the positive hypotenuse
        root = _is_square(x * x + y * y) if exact else None
        if root is not None:
            cos_v = Fraction(y, root)
            sin_v = Fraction(-x, root) * orient
            param = math.atan2(_float(sin_v), _float(cos_v))
            moves.append(Move(gen_index, param, (cos_v, sin_v)))
        else:
            fx, fy = _float(x), _float(y)
            h = math.hypot(fx, fy)
            cos_v = fy / h
            sin_v = -fx / h * orient
            param = math.atan2(sin_v, cos_v)
            moves.append(Move(gen_index, param, None))
            exact = False
            work = [_float(v) for v in work]
        work = _apply_rotation(work, gen_index, cos_v, sin_v)

    # clear the fourth slot into the fifth, then the third into the
    # fifth; exact moves keep every entry a Fraction
    rotation_move(2)
    rotation_move(3)

    def nonzero(v):
        return v != 0 if exact else abs(v) > MATCH_TOL

    # after both rotations the third and fourth slots are clear, so the
    # scaling target is the first central slot, else the second, else
    # the surviving rotation norm
    if nonzero(work[0]):
        lead = 0
    elif nonzero(work[1]):
        lead = 1
    elif nonzero(work[4]):
        lead = 4
    else:
        raise OptimalSystemError("reduction produced the zero vector")
    lead_val = work[lead]
    scale = (Fraction(1) / lead_val) if exact else (1.0 / lead_val)
    work = [v * scale for v in work]
    matched = None
    params = {}
    for pattern in patterns:
        got = _match_pattern(work, pattern, exact=exact)
        if got is not None:
            matched = pattern[0]
            params = got
            break
    return ReductionTrace(tuple(vec), moves, scale, tuple(work), matched, params, exact)


def replay(trace: ReductionTrace):
    """Re-apply the recorded moves and scaling to the recorded input."""
    exact = trace.exact
    work = [Fraction(v) for v in trace.input] if exact else [_float(v) for v in trace.input]
    for mv in trace.moves:
        if mv.exact_cos_sin is not None and exact:
            cos_v, sin_v = mv.exact_cos_sin
        else:
            cos_v, sin_v = math.cos(mv.parameter), math.sin(mv.parameter)
            work = [_float(v) for v in work]
        work = _apply_rotation(work, mv.generator, cos_v, sin_v)
    return [v * trace.scale for v in work]


def orbit_invariants_check(g: LieAlgebra, candidates=None, parameter="q") -> dict:
    """Canonical invariance of candidate functions of the coefficients
    under every one-parameter adjoint map.

    Default candidates: a1, a2, a3^2 + a4^2 + a5^2."""
    m = g.dim
    syms = [symbol(f"a{i + 1}") for i in range(m)]
    if candidates is None:
        candidates = {
            "a1": syms[0],
            "a2": syms[1],
            "a3^2 + a4^2 + a5^2": rat_sum(syms[i] * syms[i] for i in (2, 3, 4)),
        }
    maps = [adjoint_exp(g, i, parameter) for i in range(m)]
    report = {}
    for label, expr in candidates.items():
        invariant = True
        failing = []
        for i, amap in enumerate(maps):
            transformed = {
                sym_atom(f"a{k + 1}"): rat_sum(syms[j] * amap.matrix[j][k] for j in range(m))
                for k in range(m)
            }
            image = substitute_atoms(expr, transformed.get)
            if not (image - expr).is_zero():
                invariant = False
                failing.append(i + 1)
        report[label] = {"invariant": invariant, "failing_generators": failing}
    return report


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
    # every value a sample can draw, made once
    values = {(p, q): Fraction(p, q) for p in range(-9, 10) for q in range(1, 5)}
    rng = random.Random(seed)
    matched = {}
    unmatched = []
    rejected = 0
    drift_max = 0.0
    replay_max = 0.0
    for _ in range(samples):
        vec = [values[rng.randint(-9, 9), rng.randint(1, 4)] for _ in range(g.dim)]
        if not any(vec):
            rejected += 1
            continue
        trace = _reduce(vec, patterns)
        if trace.matched_case is None:
            unmatched.append([str(v) for v in vec])
            continue
        matched[trace.matched_case] = matched.get(trace.matched_case, 0) + 1
        drift_max = max(drift_max, _invariant_drift(trace))
        replayed = replay(trace)
        replay_max = max(
            replay_max,
            max(abs(_float(a) - _float(b)) for a, b in zip(replayed, trace.output)),
        )
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


def _invariant_drift(trace: ReductionTrace) -> float:
    """Scale-adjusted drift of (a1, a2, rotation norm) along a trace."""
    a_in = [_float(v) for v in trace.input]
    a_out = [_float(v) for v in trace.output]
    scale = _float(trace.scale)
    drift = max(
        abs(a_out[0] - a_in[0] * scale),
        abs(a_out[1] - a_in[1] * scale),
    )
    n_in = sum(v * v for v in a_in[2:5])
    n_out = sum(v * v for v in a_out[2:5])
    return max(drift, abs(n_out - n_in * scale * scale))
