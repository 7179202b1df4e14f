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

# How far the float reduction may land from the Fraction reference.
REFERENCE_TOL = 1e-12


@pytest.fixture(scope="module")
def algebra(general_fields):
    return structure_constants(general_fields)


def adjoint_orbit_reduce(coeffs, g, reps=None):
    """The cover's reduction of one vector, behind the structure gate, as
    a namespace of the input, the moves as `_reduce` records them, the
    scale, the output, the matched case and its parameters."""
    _check_structure(g)
    vec = [float(Fraction(v)) for v in coeffs]
    pattern, moves, scale, out = _reduce(vec, _patterns(reps or default_representatives()))
    case, params = (None, {}) if pattern is None else \
        (pattern[0], {name: out[i] for i, name in pattern[2]})
    return SimpleNamespace(input=tuple(vec), moves=moves, scale=scale, output=tuple(out),
                           matched_case=case, parameters=params)


def replay(trace):
    """`_replay` of a reduction from `adjoint_orbit_reduce` on its input."""
    return _replay(trace.input, trace.moves, trace.scale)


def reference_reduce(coeffs, reps=None):
    """The Fraction reference's reduction of the same vector."""
    return reference.reduce([Fraction(v) for v in coeffs],
                            reference._patterns(reps or default_representatives()))


def assert_close(got, want):
    """Two equal-length sequences of numbers agree within REFERENCE_TOL."""
    assert len(got) == len(want)
    assert max([abs(float(a) - float(b)) for a, b in zip(got, want)], default=0.0) \
        < REFERENCE_TOL, (got, want)


def assert_matches_reference(trace, want):
    """The reduction lands on the reference's case, parameters, scale and
    output within REFERENCE_TOL."""
    assert trace.matched_case == want.matched_case
    assert trace.parameters.keys() == want.parameters.keys()
    assert_close([trace.parameters[k] for k in want.parameters], list(want.parameters.values()))
    assert_close([trace.scale], [want.scale])
    assert_close(trace.output, want.output)


class TestReduce:
    def test_pure_tilt_is_case_8(self, algebra):
        trace = adjoint_orbit_reduce([0, 0, 0, 1, 0], algebra)
        assert trace.matched_case == 8
        assert trace.moves == []
        assert trace.scale == 1

    def test_scaling_only_gives_case_9(self, algebra):
        trace = adjoint_orbit_reduce([0, 0, 0, 0, 7], algebra)
        assert trace.matched_case == 9
        assert_close([trace.scale], [reference_reduce([0, 0, 0, 0, 7]).scale])
        assert trace.moves == []

    def test_pythagorean_reduction_matches_reference(self, algebra):
        trace = adjoint_orbit_reduce([1, 2, 3, 4, 0], algebra)
        want = reference_reduce([1, 2, 3, 4, 0])
        assert want.exact and want.output == (1, 2, 0, 0, 5)
        assert trace.matched_case == 1
        assert_matches_reference(trace, want)

    def test_time_leading_reduction(self, algebra):
        trace = adjoint_orbit_reduce([0, 3, 0, 4, 3], algebra)
        assert trace.matched_case == 4
        assert_close([trace.parameters["a5"]], [Fraction(5, 3)])
        assert_matches_reference(trace, reference_reduce([0, 3, 0, 4, 3]))

    def test_rotation_only_vector(self, algebra):
        trace = adjoint_orbit_reduce([0, 0, 2, 0, 0], algebra)
        # rotates onto the last axis and scales to case 9
        assert trace.matched_case == 9

    def test_irrational_hypotenuse_uses_floats(self, algebra):
        trace = adjoint_orbit_reduce([1, 0, 1, 1, 0], algebra)
        assert trace.matched_case == 1
        assert abs(trace.parameters["a5"] - math.sqrt(2)) < 1e-9
        assert_matches_reference(trace, reference_reduce([1, 0, 1, 1, 0]))

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
        assert trace.scale == -0.5
        assert trace.parameters["a2"] == -0.5
        assert_matches_reference(trace, reference_reduce([-2, 1, 0, 0, 0]))


class TestReplay:
    def test_pythagorean_replay_matches_reference(self, algebra):
        trace = adjoint_orbit_reduce([1, 2, 3, 4, 0], algebra)
        want = reference_reduce([1, 2, 3, 4, 0])
        assert reference.replay(want) == list(want.output)
        assert_close(replay(trace), want.output)
        assert_close(replay(trace), trace.output)

    def test_float_replay_within_tolerance(self, algebra):
        trace = adjoint_orbit_reduce([2, -1, 1, 1, 3], algebra)
        assert_close(replay(trace), trace.output)


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

    @pytest.mark.parametrize("samples", [1, 2, 3, 5, 10, 30, 100, 300])
    def test_short_covers_match_reference(self, algebra, samples):
        # on a short cover a rotation with a rational hypotenuse may set
        # a maximum, which the reference computes on Fractions, so the
        # two maxima may differ by round-off; everything else is equal
        maxima = ("invariant_drift_max", "replay_error_max")
        for seed in range(200):
            got = verify_optimal_cover(algebra, samples=samples, seed=seed)
            want = reference.verify_optimal_cover(algebra, samples=samples, seed=seed)
            assert {k: v for k, v in got.items() if k not in maxima} == \
                {k: v for k, v in want.items() if k not in maxima}, seed
            assert_close([got[k] for k in maxima], [want[k] for k in maxima])

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 253381])
    def test_table_draws_follow_randint(self, seed):
        # choice of a row, then of an entry, takes one _randbelow call
        # each, as randint(-9, 9) and randint(1, 4) do
        rows = _value_table()
        choice = random.Random(seed).choice
        drawn = [choice(choice(rows)) for _ in range(2000)]
        want = reference.draws(seed, 2000)
        assert [value for value, _ in drawn] == [float(v) for v in want]
        assert [text for _, text in drawn] == [str(v) for v in want]

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
        want = reference_reduce(vec, reps)
        # the reference signs each sine by an orientation o per generator;
        # the program's moves carry o * sine, and the same rotation
        orient = reference.ROTATION_ORIENT
        assert [gen for gen, _ in got.moves] == [mv.generator for mv in want.moves]
        assert_close([param for _, param in got.moves],
                     [orient[mv.generator] * mv.parameter for mv in want.moves])
        for (gen, param), mv in zip(got.moves, want.moves):
            if mv.exact_cos_sin is not None:
                cos_v, sin_v = mv.exact_cos_sin
                assert_close([math.cos(param), math.sin(param)], [cos_v, orient[gen] * sin_v])
        assert_close(got.input, want.input)
        assert_matches_reference(got, want)
        assert_close(replay(got), reference.replay(want))
