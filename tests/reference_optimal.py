"""The per-sample optimal-system cover on Fractions: a reference for tests.

`liesym.optimal.verify_optimal_cover` reduces samples drawn from a table
of prepared values, every one on floats.  This module keeps an
independent design: `randint` draws, one Fraction per drawn value, every
move and match made on Fractions while each rotation's hypotenuse is
rational (a Pythagorean pair), `_float` conversions of whole vectors
after the first irrational one, and a `ReductionTrace` per sample that
`replay` and `_invariant_drift` read back.  Tests assert that both give
the same matches, float for float on long covers; on a short cover the
round-off maxima may differ in their last digits, where the reference
reduced a maximum's sample exactly.
"""

import math
import random
from fractions import Fraction

from liesym.optimal import (
    MATCH_TOL,
    ROTATION_SLOTS,
    OptimalSystemError,
    _check_structure,
    default_representatives,
    separation_failures,
)

# The sign of the sine entry per rotation generator, so that the moves
# agree with the adjoint matrices of the bundled vb_general basis.
ROTATION_ORIENT = {2: 1, 3: -1, 4: 1}


class Move:
    def __init__(self, generator, parameter, exact_cos_sin=None):
        self.generator = generator
        self.parameter = parameter
        self.exact_cos_sin = exact_cos_sin


class ReductionTrace:
    def __init__(self, input, moves, scale, output, matched_case, parameters, exact):
        self.input = input
        self.moves = moves
        self.scale = scale
        self.output = output
        self.matched_case = matched_case
        self.parameters = parameters
        self.exact = exact


def _is_square(f):
    num = f.numerator
    den = f.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _apply_rotation(vec, generator, cos_v, sin_v):
    i, j = ROTATION_SLOTS[generator]
    s_eff = sin_v * ROTATION_ORIENT[generator]
    out = list(vec)
    out[i] = vec[i] * cos_v + vec[j] * s_eff
    out[j] = -vec[i] * s_eff + vec[j] * cos_v
    return out


def _exact(p):
    return p.numerator if p.denominator == 1 else p


def _float(v):
    return v if type(v) is float else v.numerator / v.denominator


def _patterns(reps):
    return [
        (rep.case_id,
         tuple((i, _exact(p), float(p)) for i, p in enumerate(rep.pattern)
               if not isinstance(p, str)),
         tuple((i, p) for i, p in enumerate(rep.pattern) if isinstance(p, str)))
        for rep in reps
    ]


def _match_pattern(vec, pattern, exact):
    _, fixed, free = pattern
    if exact:
        if any(vec[i] != p for i, p, _ in fixed):
            return None
    elif any(abs(vec[i] - fp) > MATCH_TOL for i, _, fp in fixed):
        return None
    return {name: vec[i] for i, name in free}


def reduce(vec, patterns):
    """The reduction of a nonzero Fraction vector, as a ReductionTrace."""
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

    rotation_move(2)
    rotation_move(3)

    def nonzero(v):
        return v != 0 if exact else abs(v) > MATCH_TOL

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


def replay(trace):
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


def _invariant_drift(trace):
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


def draws(seed, count):
    """The first `count` values the reference cover draws for `seed`."""
    rng = random.Random(seed)
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(count)]


def verify_optimal_cover(g, reps=None, samples=1000, seed=42):
    if reps is None:
        reps = default_representatives()
    _check_structure(g)
    patterns = _patterns(reps)
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
        trace = reduce(vec, patterns)
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
