"""Adjoint-orbit reduction, invariants, and coverage verification."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from liesym.liealg import structure_constants
from liesym.optimal import (
    OptimalSystemError,
    _check_structure,
    _entry,
    _float,
    _patterns,
    _reduce,
    _replay,
    _value_table,
    separation_failures,
    default_representatives,
    verify_optimal_cover,
)

import reference_optimal as reference
from reference_liealg import orbit_invariants_check


@pytest.fixture(scope="module")
def algebra(general_fields):
    return structure_constants(general_fields)


def adjoint_orbit_reduce(coeffs, g, reps=None):
    """The cover's reduction of one vector, behind the structure gate, as
    a namespace of the input, the moves as `_reduce` records them, the
    scale, the output, the matched case, its parameters and exactness."""
    _check_structure(g)
    vec = [_entry(Fraction(v)) for v in coeffs]
    pattern, exact, moves, scale, out = _reduce(
        vec, _patterns(reps or default_representatives()))
    case, params = (None, {}) if pattern is None else \
        (pattern[0], {name: out[i] for i, name in pattern[3]})
    return SimpleNamespace(input=tuple(e[0] for e in vec), moves=moves, scale=scale,
                           output=tuple(out), matched_case=case, parameters=params,
                           exact=exact)


def replay(trace):
    """`_replay` of a reduction from `adjoint_orbit_reduce`, on its input
    as Fractions when exact and as floats otherwise."""
    vec = trace.input if trace.exact else [_float(v) for v in trace.input]
    return _replay(vec, trace.moves, trace.scale, trace.exact)


class TestReduce:
    def test_pure_tilt_is_case_8(self, algebra):
        trace = adjoint_orbit_reduce([0, 0, 0, 1, 0], algebra)
        assert trace.matched_case == 8
        assert trace.moves == []
        assert trace.scale == 1

    def test_scaling_only_gives_case_9(self, algebra):
        trace = adjoint_orbit_reduce([0, 0, 0, 0, 7], algebra)
        assert trace.matched_case == 9
        assert trace.scale == Fraction(1, 7)
        assert trace.moves == []

    def test_pythagorean_reduction_is_exact(self, algebra):
        trace = adjoint_orbit_reduce([1, 2, 3, 4, 0], algebra)
        assert trace.matched_case == 1
        assert trace.exact
        assert trace.parameters == {"a2": Fraction(2), "a5": Fraction(5)}
        assert list(trace.output) == [1, 2, 0, 0, 5]

    def test_time_leading_reduction(self, algebra):
        trace = adjoint_orbit_reduce([0, 3, 0, 4, 3], algebra)
        assert trace.matched_case == 4
        assert trace.parameters["a5"] == Fraction(5, 3)

    def test_rotation_only_vector(self, algebra):
        trace = adjoint_orbit_reduce([0, 0, 2, 0, 0], algebra)
        # rotates onto the last axis and scales to case 9
        assert trace.matched_case == 9

    def test_irrational_hypotenuse_uses_floats(self, algebra):
        trace = adjoint_orbit_reduce([1, 0, 1, 1, 0], algebra)
        assert trace.matched_case == 1
        assert not trace.exact
        assert abs(float(trace.parameters["a5"]) - math.sqrt(2)) < 1e-9

    def test_zero_vector_rejected(self, algebra):
        with pytest.raises(OptimalSystemError):
            adjoint_orbit_reduce([0, 0, 0, 0, 0], algebra)

    def test_unmatched_is_reported_not_raised(self, algebra):
        reps = [r for r in default_representatives() if r.case_id != 1]
        trace = adjoint_orbit_reduce([1, 2, 3, 4, 0], algebra, reps)
        assert trace.matched_case is None

    def test_negative_leading_coefficient_scales_negatively(self, algebra):
        trace = adjoint_orbit_reduce([-2, 1, 0, 0, 0], algebra)
        assert trace.matched_case == 1
        assert trace.scale == Fraction(-1, 2)
        assert trace.parameters["a2"] == Fraction(-1, 2)


class TestReplay:
    def test_exact_replay(self, algebra):
        trace = adjoint_orbit_reduce([1, 2, 3, 4, 0], algebra)
        assert replay(trace) == list(trace.output)

    def test_float_replay_within_tolerance(self, algebra):
        trace = adjoint_orbit_reduce([2, -1, 1, 1, 3], algebra)
        got = replay(trace)
        assert max(abs(float(a) - float(b)) for a, b in zip(got, trace.output)) < 1e-12


class TestDeterminism:
    def test_identical_traces(self, algebra):
        t1 = adjoint_orbit_reduce([5, -3, 2, 7, 1], algebra)
        t2 = adjoint_orbit_reduce([5, -3, 2, 7, 1], algebra)
        assert t1 == t2

    def test_representative_idempotence(self, algebra):
        for rep_vec in ([1, 3, 0, 0, 2], [0, 1, 0, 0, 5], [0, 0, 1, 0, 0],
                        [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]):
            trace = adjoint_orbit_reduce(rep_vec, algebra)
            assert trace.moves == []
            assert trace.scale == 1
            assert list(trace.output) == rep_vec


class TestInvariants:
    def test_default_candidates_invariant(self, algebra):
        report = orbit_invariants_check(algebra)
        assert all(entry["invariant"] for entry in report.values())

    def test_single_coefficient_not_invariant(self, algebra):
        from liesym.jets import symbol

        report = orbit_invariants_check(algebra, {"a5": symbol("a5")})
        entry = report["a5"]
        assert not entry["invariant"]
        assert 3 in entry["failing_generators"] or 4 in entry["failing_generators"]


class TestCoverage:
    def test_seeded_cover_is_complete(self, algebra):
        report = verify_optimal_cover(algebra, samples=300, seed=42)
        assert report["matched_total"] == report["valid_total"]
        assert report["unmatched"] == []
        assert report["invariant_drift_max"] < 1e-9
        assert report["replay_error_max"] < 1e-12

    def test_missing_representative_detected(self, algebra):
        reps = [r for r in default_representatives() if r.case_id != 1]
        report = verify_optimal_cover(algebra, reps, samples=120, seed=42)
        assert report["unmatched"]

    def test_separation_failures_within_triples(self):
        pairs = separation_failures(default_representatives())
        assert sorted(pairs) == [
            (1, 2), (1, 3), (2, 3),
            (4, 5), (4, 6), (5, 6),
            (7, 8), (7, 9), (8, 9),
        ]

    def test_determinism(self, algebra):
        r1 = verify_optimal_cover(algebra, samples=100, seed=11)
        r2 = verify_optimal_cover(algebra, samples=100, seed=11)
        assert r1 == r2


def _without_case_1():
    return [r for r in default_representatives() if r.case_id != 1]


class TestReference:
    """The cover and the reduction give what the Fraction-per-sample
    reference gives, float for float."""

    @pytest.mark.parametrize("seed", range(20))
    def test_cover_report_matches_reference(self, algebra, seed):
        assert (verify_optimal_cover(algebra, samples=5000, seed=seed)
                == reference.verify_optimal_cover(algebra, samples=5000, seed=seed))

    def test_unmatched_samples_match_reference(self, algebra):
        report = verify_optimal_cover(algebra, _without_case_1(), samples=2000, seed=3)
        assert len(report["unmatched"]) > 1000
        assert report == reference.verify_optimal_cover(algebra, _without_case_1(),
                                                        samples=2000, seed=3)

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 253381])
    def test_table_draws_follow_randint(self, seed):
        # choice of a row, then of an entry, takes one _randbelow call
        # each, as randint(-9, 9) and randint(1, 4) do
        rows = _value_table()
        choice = random.Random(seed).choice
        assert [choice(choice(rows))[0] for _ in range(2000)] == reference.draws(seed, 2000)

    @pytest.mark.parametrize("vec", [
        [1, 2, 3, 4, 0],                      # both hypotenuses rational
        [Fraction(1, 2), 1, Fraction(3, 4), 1, 0],
        [0, 3, 0, 4, 3],                      # one rational move, time-leading
        [1, 2, 3, 0, 4],                      # fourth slot zero, rational second move
        [1, 0, 1, 3, 4],                      # rational first move, irrational second
        [5, -3, 2, 7, 1],                     # irrational first move
        [-2, 1, 0, 0, 0],                     # scaling only, negative lead
        [1, 3, 0, 0, 2],                      # already a representative
        [0, 0, 1, 1, 1],                      # rotation norm leads
        [0, 0, 0, 0, 7],
    ])
    @pytest.mark.parametrize("drop_case_1", [False, True])
    def test_trace_and_replay_match_reference(self, algebra, vec, drop_case_1):
        reps = _without_case_1() if drop_case_1 else default_representatives()
        got = adjoint_orbit_reduce(vec, algebra, reps)
        want = reference.reduce([Fraction(v) for v in vec], reference._patterns(reps))
        # the reference signs each sine by an orientation o per generator;
        # the program's moves carry o * sine, and the same rotation
        orient = reference.ROTATION_ORIENT
        assert got.moves == [
            (mv.generator, orient[mv.generator] * mv.parameter,
             None if mv.exact_cos_sin is None
             else (mv.exact_cos_sin[0], orient[mv.generator] * mv.exact_cos_sin[1]))
            for mv in want.moves]
        assert {k: v for k, v in vars(got).items() if k != "moves"} == \
            {k: v for k, v in vars(want).items() if k != "moves"}
        assert replay(got) == reference.replay(want)
