"""Property tests linking quantitative robustness to the boolean oracle.

The soundness property is the backbone: away from the zero boundary, the
sign of the robustness value must agree with qualitative satisfaction
computed by a completely separate recursion.  The remaining properties pin
algebraic laws (dualities, idempotence) bit-exactly and force the monitor's
sliding-window and suffix-scan paths to match the naive oracle in
``naive_monitor`` bit for bit.
"""

import math

from hypothesis import given, settings, strategies as st

from naive_monitor import naive_evaluate
from stlfalsify.monitor import Trace, evaluate, evaluate_boolean, predicate_robustness
from stlfalsify.stl import (
    Always,
    And,
    Eventually,
    Next,
    Not,
    LinearPredicate,
    Or,
    Predicate,
    PredicateMap,
    TimeBound,
    Until,
)


def bit_equal(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@st.composite
def scenarios(draw, max_depth=4, max_samples=20, max_dimension=3):
    dimension = draw(st.integers(1, max_dimension))
    variables = tuple(f"x{k}" for k in range(dimension))
    predicates = PredicateMap(variables)
    coefficient = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    for name in ("p1", "p2", "p3"):
        coefficients = draw(
            st.lists(coefficient, min_size=dimension, max_size=dimension).filter(
                lambda cs: any(c != 0.0 for c in cs)
            )
        )
        predicates.add(name, coefficients, draw(st.floats(-5.0, 5.0)))

    def formula(depth):
        leaf = st.sampled_from(("p1", "p2", "p3")).map(Predicate)
        if depth == 0:
            return leaf
        sub = formula(depth - 1)
        window = st.tuples(
            st.floats(0.0, 3.0, allow_nan=False), st.floats(0.0, 5.0, allow_nan=False)
        ).map(lambda t: TimeBound(t[0], t[0] + t[1]))
        bound = st.none() | window
        return st.one_of(
            leaf,
            sub.map(Not),
            sub.map(Next),
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
            st.tuples(sub, bound).map(lambda t: Eventually(t[0], t[1])),
            st.tuples(sub, bound).map(lambda t: Always(t[0], t[1])),
            st.tuples(sub, sub, bound).map(lambda t: Until(t[0], t[1], t[2])),
        )

    n = draw(st.integers(1, max_samples))
    times = draw(
        st.lists(
            st.floats(0.0, 10.0, allow_nan=False), min_size=n, max_size=n, unique=True
        ).map(sorted)
    )
    value = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
    states = draw(
        st.lists(
            st.lists(value, min_size=dimension, max_size=dimension).map(tuple),
            min_size=n,
            max_size=n,
        )
    )
    trace = Trace(tuple(times), tuple(states))
    anchor = draw(st.integers(0, n - 1))
    return draw(formula(max_depth)), predicates, trace, anchor


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_sign_agrees_with_boolean_oracle(scenario):
    formula, predicates, trace, anchor = scenario
    robustness = evaluate(formula, predicates, trace, at=anchor)
    if abs(robustness) > 1e-9:
        assert (robustness > 0) == evaluate_boolean(
            formula, predicates, trace, at=anchor
        )


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_negation_duality_is_bit_exact(scenario):
    formula, predicates, trace, anchor = scenario
    plain = evaluate(formula, predicates, trace, at=anchor)
    negated = evaluate(Not(formula), predicates, trace, at=anchor)
    assert bit_equal(negated, -plain)


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_always_eventually_duality_is_bit_exact(scenario):
    formula, predicates, trace, anchor = scenario
    for bound in (None, TimeBound(0.0, 4.0), TimeBound(1.0, 2.5)):
        direct = evaluate(Always(formula, bound), predicates, trace, at=anchor)
        dual = evaluate(
            Not(Eventually(Not(formula), bound)), predicates, trace, at=anchor
        )
        assert bit_equal(direct, dual)


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_conjunction_idempotence(scenario):
    formula, predicates, trace, anchor = scenario
    assert bit_equal(
        evaluate(And(formula, formula), predicates, trace, at=anchor),
        evaluate(formula, predicates, trace, at=anchor),
    )


@settings(max_examples=150, deadline=None)
@given(scenarios(), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_window_widening_is_monotone(scenario, widen_left, widen_right):
    formula, predicates, trace, anchor = scenario
    inner = TimeBound(1.0, 3.0)
    outer = TimeBound(max(0.0, 1.0 - widen_left), 3.0 + widen_right)

    def window_nonempty(bound):
        base = trace.times[anchor]
        return any(
            bound.lower <= t - base <= bound.upper for t in trace.times[anchor:]
        )

    if window_nonempty(inner) and window_nonempty(outer):
        assert evaluate(
            Eventually(formula, outer), predicates, trace, at=anchor
        ) >= evaluate(Eventually(formula, inner), predicates, trace, at=anchor)
        assert evaluate(
            Always(formula, outer), predicates, trace, at=anchor
        ) <= evaluate(Always(formula, inner), predicates, trace, at=anchor)


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_repeated_evaluation_is_deterministic(scenario):
    formula, predicates, trace, anchor = scenario
    first = evaluate(formula, predicates, trace, at=anchor)
    second = evaluate(formula, predicates, trace, at=anchor)
    assert bit_equal(first, second)


@settings(max_examples=250, deadline=None)
@given(scenarios())
def test_sliding_windows_match_naive_bit_for_bit(scenario):
    formula, predicates, trace, anchor = scenario
    fast = evaluate(formula, predicates, trace, at=anchor)
    naive = naive_evaluate(formula, predicates, trace, at=anchor)
    assert bit_equal(fast, naive)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_predicate_signal_matches_predicate_robustness(data):
    dimension = data.draw(st.integers(1, 4))
    coefficient = st.floats(-3.0, 3.0, allow_nan=False) | st.sampled_from((0.0, -0.0))
    coefficients = data.draw(
        st.lists(coefficient, min_size=dimension, max_size=dimension).filter(
            lambda cs: any(c != 0.0 for c in cs)
        )
    )
    predicate = LinearPredicate("p", coefficients, data.draw(st.floats(-5.0, 5.0)))
    value = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from((0.0, -0.0))
    n = data.draw(st.integers(1, 8))
    states = data.draw(
        st.lists(
            st.lists(value, min_size=dimension, max_size=dimension).map(tuple),
            min_size=n,
            max_size=n,
        )
    )
    trace = Trace(tuple(float(k) for k in range(n)), tuple(states))
    predicates = PredicateMap(tuple(f"x{k}" for k in range(dimension)))
    formula = Predicate("p", predicate)
    for anchor, state in enumerate(states):
        assert bit_equal(
            evaluate(formula, predicates, trace, at=anchor),
            predicate_robustness(predicate, state),
        )
