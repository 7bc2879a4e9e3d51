"""Robustness evaluation over sampled traces: unit anchors."""

import math
import time

import pytest

from naive_monitor import naive_evaluate
from stlfalsify.errors import TraceValidationError, ValidationError
from stlfalsify.monitor import Trace, evaluate, evaluate_boolean, predicate_robustness
from stlfalsify.stl import (
    Always,
    And,
    Eventually,
    Implies,
    LinearPredicate,
    Next,
    Not,
    Or,
    Predicate,
    PredicateMap,
    TimeBound,
    Until,
    parse_formula,
)

INF = math.inf


def scalar_trace(values, times=None):
    if times is None:
        times = range(len(values))
    return Trace(tuple(float(t) for t in times), tuple((float(v),) for v in values))


def predicates_x(threshold_p1=5.0, threshold_p2=1.0):
    predicates = PredicateMap(("x",))
    predicates.add("p1", (1.0,), threshold_p1)
    predicates.add("p2", (1.0,), threshold_p2)
    return predicates


class TestTrace:
    def test_basic_accessors(self):
        trace = Trace((0.0, 1.0), ((1.0, 2.0), (3.0, 4.0)))
        assert len(trace) == 2
        assert trace.dimension == 2

    def test_empty_rejected(self):
        with pytest.raises(TraceValidationError):
            Trace((), ())

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceValidationError):
            Trace((0.0, 1.0), ((1.0,),))

    def test_non_monotone_rejected(self):
        with pytest.raises(TraceValidationError):
            Trace((1.0, 0.5), ((1.0,), (2.0,)))

    def test_duplicate_timestamp_rejected(self):
        with pytest.raises(TraceValidationError):
            Trace((0.0, 0.0), ((1.0,), (2.0,)))

    def test_ragged_states_rejected(self):
        with pytest.raises(TraceValidationError):
            Trace((0.0, 1.0), ((1.0,), (1.0, 2.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_state_rejected(self, bad):
        with pytest.raises(TraceValidationError, match="non-finite state"):
            Trace((0.0, 1.0, 2.0), ((0.0, 1.0), (bad, 1.0), (2.0, 1.0)))

    def test_nan_cannot_flip_always_to_satisfied(self):
        # regression: with states [0, nan, 2] the sliding window scored
        # "[] (x <= 0.5)" +0.5 (satisfied) and the naive scan -1.5
        with pytest.raises(TraceValidationError, match="at t=1.0"):
            scalar_trace([0.0, math.nan, 2.0])

    @pytest.mark.parametrize("times", [(math.nan,), (0.0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_timestamp_rejected(self, times):
        with pytest.raises(TraceValidationError, match="non-finite timestamp"):
            Trace(times, tuple((1.0,) for _ in times))

    def test_finite_states_with_overflowing_sum_accepted(self):
        trace = Trace((0.0, 1.0), ((1e308, 1e308), (-1e308, -1e308)))
        assert trace.states[0] == (1e308, 1e308)


class TestPredicateRobustness:
    def test_unit_coefficient_distance(self):
        assert predicate_robustness(LinearPredicate("p", (1.0,), 5.0), (3.0,)) == 2.0

    def test_boundary_is_zero(self):
        assert predicate_robustness(LinearPredicate("p", (1.0,), 5.0), (5.0,)) == 0.0

    def test_euclidean_normalization(self):
        predicate = LinearPredicate("p", (3.0, 4.0), 10.0)
        assert predicate_robustness(predicate, (2.0, 1.0)) == 0.0
        assert predicate_robustness(predicate, (0.0, 0.0)) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            predicate_robustness(LinearPredicate("p", (1.0,), 5.0), (1.0, 2.0))

    def test_trace_dimension_mismatch(self):
        predicates = PredicateMap(("x",))
        predicates.add("p1", (1.0,), 5.0)
        trace = Trace((0.0, 1.0), ((1.0, 2.0), (3.0, 4.0)))
        # a system fault, handled by the error policy
        with pytest.raises(TraceValidationError, match="expects dimension 1, state has 2"):
            evaluate(Predicate("p1"), predicates, trace)

    @pytest.mark.parametrize("states, time", [
        (((0.0, 0.0), (1e308, 1e308), (2.0, 0.0)), "t=1.0"),
        (((1e308, 1e308), (0.0, 0.0), (2.0, 0.0)), "t=0.0"),
    ])
    @pytest.mark.parametrize("formula", ["[] p", "[] [0, 5] p"])
    def test_overflowing_terms_rejected(self, states, time, formula):
        # regression: 10*x - 10*y is inf - inf = NaN on the finite state
        # (1e308, 1e308); "[] [0, 5] p" scored the violating first trace
        # +0.035 (satisfied) and the second one nan
        predicates = PredicateMap(("x", "y"))
        predicates.add("p", (10.0, -10.0), 0.5)
        trace = Trace((0.0, 1.0, 2.0), states)
        with pytest.raises(TraceValidationError, match=f"predicate 'p' is NaN at {time}"):
            evaluate(parse_formula(formula, ("x", "y")), predicates, trace)

    def test_opposite_infinite_terms_in_different_samples_accepted(self):
        # robustness -inf and +inf sum to NaN, but neither sample is NaN
        predicates = PredicateMap(("x",))
        predicates.add("p", (10.0,), 0.0)
        trace = scalar_trace([1e308, -1e308])
        assert evaluate(parse_formula("<> p", ("x",)), predicates, trace) == INF


class TestEvaluate:
    def test_always_is_minimum_margin(self):
        predicates = PredicateMap(("x",))
        predicates.add("p1", (1.0,), 10.0)
        trace = scalar_trace([1.0, 4.0, 9.0])
        formula = parse_formula("[]p1", ("x",))
        assert evaluate(formula, predicates, trace) == 1.0

    def test_bare_predicate_at_anchor(self):
        assert evaluate(Predicate("p1"), predicates_x(), scalar_trace([3.0])) == 2.0

    def test_eventually_empty_window_is_negative_infinity(self):
        formula = parse_formula("F[5, 6] p1", ("x",))
        trace = scalar_trace([0.0, 0.0, 0.0], times=(0.0, 1.0, 2.0))
        assert evaluate(formula, predicates_x(), trace) == -INF

    def test_always_empty_window_is_positive_infinity(self):
        formula = parse_formula("G[5, 6] p1", ("x",))
        trace = scalar_trace([0.0], times=(0.0,))
        assert evaluate(formula, predicates_x(), trace) == INF

    def test_next_shifts_one_sample(self):
        trace = scalar_trace([0.0, 3.0])
        assert evaluate(Next(Predicate("p1")), predicates_x(), trace) == 2.0

    def test_next_at_last_sample_is_negative_infinity(self):
        trace = scalar_trace([0.0, 3.0])
        assert evaluate(Next(Predicate("p1")), predicates_x(), trace, at=1) == -INF

    def test_connectives(self):
        predicates = predicates_x()
        trace = scalar_trace([3.0])
        p1, p2 = Predicate("p1"), Predicate("p2")
        assert evaluate(And(p1, p2), predicates, trace) == -2.0
        assert evaluate(Or(p1, p2), predicates, trace) == 2.0
        assert evaluate(Not(p1), predicates, trace) == -2.0
        assert evaluate(Implies(p1, p2), predicates, trace) == -2.0

    def test_until_unbounded_hand_computed(self):
        # margins: p1 -> [1,2,3,5], p2 -> [-3,-2,-1,1]; best witness is j=3
        trace = scalar_trace([4.0, 3.0, 2.0, 0.0])
        formula = Until(Predicate("p1"), Predicate("p2"))
        assert evaluate(formula, predicates_x(), trace) == 1.0

    def test_until_bounded_window(self):
        trace = scalar_trace([4.0, 3.0, 2.0, 0.0])
        formula = Until(Predicate("p1"), Predicate("p2"), TimeBound(1.0, 2.0))
        # witnesses j in {1, 2}: min(-2, 1) and min(-1, min(1, 2))
        assert evaluate(formula, predicates_x(), trace) == -1.0

    def test_until_prefix_before_window_counts(self):
        # p1 margins [-4, 2, 3, 5]: the violation at k=0 precedes the
        # window [2, 3] but still caps every witness
        trace = scalar_trace([9.0, 3.0, 2.0, 0.0])
        formula = Until(Predicate("p1"), Predicate("p2"), TimeBound(2.0, 3.0))
        assert evaluate(formula, predicates_x(), trace) == -4.0

    def test_until_empty_outer_window(self):
        trace = scalar_trace([4.0, 3.0])
        formula = Until(Predicate("p1"), Predicate("p2"), TimeBound(5.0, 6.0))
        assert evaluate(formula, predicates_x(), trace) == -INF

    def test_anchor_index(self):
        predicates = PredicateMap(("x",))
        predicates.add("p1", (1.0,), 10.0)
        trace = scalar_trace([1.0, 4.0, 9.0])
        formula = parse_formula("[]p1", ("x",))
        assert evaluate(formula, predicates, trace, at=1) == 1.0
        assert evaluate(formula, predicates, trace, at=2) == 1.0
        assert evaluate(Predicate("p1"), predicates, trace, at=2) == 1.0

    def test_anchor_out_of_range(self):
        trace = scalar_trace([1.0])
        with pytest.raises(ValidationError):
            evaluate(Predicate("p1"), predicates_x(), trace, at=1)
        with pytest.raises(ValidationError):
            evaluate(Predicate("p1"), predicates_x(), trace, at=-1)

    def test_unresolved_predicate(self):
        with pytest.raises(ValidationError):
            evaluate(Predicate("nope"), predicates_x(), scalar_trace([0.0]))

    def test_inline_definition_needs_no_map(self):
        formula = parse_formula("x <= 5.0", ("x",))
        assert evaluate(formula, None, scalar_trace([3.0])) == 2.0

    def test_bounded_eventually_window_selection(self):
        # only samples at t in [1, 2] are eligible: margins 2 and 3
        trace = scalar_trace([9.0, 3.0, 2.0, 0.0])
        formula = Eventually(Predicate("p1"), TimeBound(1.0, 2.0))
        assert evaluate(formula, predicates_x(), trace) == 3.0

    def test_bounded_always_window_selection(self):
        trace = scalar_trace([9.0, 3.0, 2.0, 0.0])
        formula = Always(Predicate("p1"), TimeBound(1.0, 2.0))
        assert evaluate(formula, predicates_x(), trace) == 2.0

    def test_fast_and_naive_windows_agree_on_example(self):
        predicates = PredicateMap(("x",))
        predicates.add("p1", (1.0,), 10.0)
        trace = scalar_trace([1.0, 4.0, 9.0, 2.0, 7.0])
        formula = Always(Eventually(Predicate("p1"), TimeBound(0.0, 2.0)))
        fast = evaluate(formula, predicates, trace)
        naive = naive_evaluate(formula, predicates, trace)
        assert fast == naive

    def test_until_is_linear_time(self):
        # a sawtooth of period 100 samples keeps both operands switching; a
        # quadratic scan of the unbounded form takes many seconds at this size
        n = 20_000
        trace = scalar_trace([(k % 100) / 100.0 for k in range(n)],
                             times=[k / 100.0 for k in range(n)])
        predicates = PredicateMap(("x",))
        predicates.add("low", (1.0,), 0.9)
        predicates.add("high", (-1.0,), -0.8)
        formulas = [Until(Predicate("low"), Predicate("high"), bound)
                    for bound in (None, TimeBound(0.0, 1.0))]
        started = time.perf_counter()
        for formula in formulas:
            evaluate(formula, predicates, trace)
        assert time.perf_counter() - started < 2.0


class TestEvaluateBoolean:
    def test_satisfied_predicate(self):
        assert evaluate_boolean(Predicate("p1"), predicates_x(), scalar_trace([3.0]))

    def test_violated_predicate(self):
        assert not evaluate_boolean(Predicate("p1"), predicates_x(), scalar_trace([7.0]))

    def test_until_by_exhaustive_enumeration(self):
        predicates = predicates_x()
        formula = Until(Predicate("p1"), Predicate("p2"), TimeBound(0.0, 2.0))
        # witness at j=2 requires p1 to hold at k=0,1 and p2 at j=2
        satisfied = scalar_trace([4.0, 3.0, 0.5, 9.0])
        assert evaluate_boolean(formula, predicates, satisfied)
        # p1 broken at k=1 blocks every later witness
        blocked = scalar_trace([4.0, 7.0, 0.5, 9.0])
        assert not evaluate_boolean(formula, predicates, blocked)
        # no witness inside the window at all
        witnessless = scalar_trace([4.0, 3.0, 2.0, 9.0])
        assert not evaluate_boolean(formula, predicates, witnessless)

    def test_vacuous_always_true(self):
        formula = Always(Predicate("p1"), TimeBound(5.0, 6.0))
        assert evaluate_boolean(formula, predicates_x(), scalar_trace([7.0]))

    def test_vacuous_eventually_false(self):
        formula = Eventually(Predicate("p1"), TimeBound(5.0, 6.0))
        assert not evaluate_boolean(formula, predicates_x(), scalar_trace([3.0]))

    def test_next_at_last_sample_false(self):
        trace = scalar_trace([3.0])
        assert not evaluate_boolean(Next(Predicate("p1")), predicates_x(), trace)

    def test_implies(self):
        predicates = predicates_x()
        trace = scalar_trace([3.0])
        p1, p2 = Predicate("p1"), Predicate("p2")
        assert evaluate_boolean(Implies(p2, p1), predicates, trace)
        assert not evaluate_boolean(Implies(p1, p2), predicates, trace)
