"""Property tests linking quantitative robustness to the boolean oracle.

The soundness property is the backbone: away from the zero boundary, the
sign of the robustness value must agree with qualitative satisfaction
computed by a completely separate recursion.  The remaining properties pin
algebraic laws (dualities, idempotence) bit-exactly and force the monitor's
sliding-window and suffix-scan paths to match the naive oracle in
``naive_monitor`` bit for bit.
"""

import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from naive_monitor import naive_evaluate, naive_signal, window_indices
from stlfalsify.errors import TraceValidationError
from stlfalsify.monitor import (
    Trace,
    _window_bounds,
    evaluate,
    evaluate_boolean,
    predicate_robustness,
)
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
    dimension = data.draw(st.integers(1, 6))
    coefficient = st.floats(-3.0, 3.0, allow_nan=False) | st.sampled_from((0.0, -0.0))
    coefficients = data.draw(
        st.lists(coefficient, min_size=dimension, max_size=dimension).filter(
            lambda cs: any(c != 0.0 for c in cs)
        )
    )
    bound = st.floats(-5.0, 5.0) | st.sampled_from((0.0, -0.0))
    predicate = LinearPredicate("p", coefficients, data.draw(bound))
    # a signed zero times a coefficient gives -0.0 products
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
        # both are the products added left to right from 0.0
        total = 0.0
        for c, x in zip(predicate.coefficients, state):
            total += c * x
        assert bit_equal(predicate_robustness(predicate, state),
                         (predicate.bound - total) / predicate.norm)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_zero_coefficient_columns_skipped_bit_for_bit(data):
    """The predicate signal adds no term for a 0.0 or -0.0 coefficient.

    That is exact because the running total starts at +0.0 and is never
    -0.0, so adding a +-0.0 product leaves it unchanged; drawing mostly
    signed zeros for coefficients, bound and states pins this bit for bit,
    and huge states make terms overflow to +-inf and NaN."""
    dimension = data.draw(st.integers(1, 6))
    signed_zero = st.sampled_from((0.0, -0.0))
    coefficient = st.one_of(signed_zero, signed_zero, signed_zero,
                            st.floats(-3.0, 3.0, allow_nan=False))
    coefficients = data.draw(
        st.lists(coefficient, min_size=dimension, max_size=dimension).filter(
            lambda cs: any(c != 0.0 for c in cs)
        )
    )
    bound = data.draw(signed_zero | st.floats(-5.0, 5.0))
    predicate = LinearPredicate("p", coefficients, bound)
    value = st.one_of(signed_zero, signed_zero, st.sampled_from((1e308, -1e308)),
                      st.floats(-1e6, 1e6, allow_nan=False))
    n = data.draw(st.integers(1, 8))
    states = data.draw(
        st.lists(
            st.lists(value, min_size=dimension, max_size=dimension).map(tuple),
            min_size=n,
            max_size=n,
        )
    )
    times = tuple(float(k) for k in range(n))
    trace = Trace(times, tuple(states))
    formula = Predicate("p", predicate)
    expected = []
    for state in states:
        total = 0.0
        for c, x in zip(predicate.coefficients, state):
            total += c * x
        folded = (predicate.bound - total) / predicate.norm
        assert bit_equal(folded, predicate_robustness(predicate, state))
        expected.append(folded)
    overflowing = [k for k, value in enumerate(expected) if math.isnan(value)]
    if overflowing:
        k = overflowing[0]
        message = (f"predicate 'p' is NaN at t={times[k]}: its terms "
                   f"overflow on state {trace.states[k]}")
        with pytest.raises(TraceValidationError) as err:
            evaluate(formula, None, trace)
        assert str(err.value) == message
        return
    for anchor, value in enumerate(expected):
        assert bit_equal(evaluate(formula, None, trace, at=anchor), value)


VARIABLES = ("x0", "x1", "x2", "x3")


@st.composite
def tie_heavy_untils(draw, max_samples=40):
    """An ``until`` over signals full of ties.

    States in {-1, 0, 1} and integer coefficients with bound 0 give exact
    zeros and repeated values, ``Not`` turns ``0.0`` into ``-0.0``, and a
    window past the trace end or ``next`` at the last sample gives +-inf.
    Times lie on a 0.5 s grid, so window edges land exactly on sample
    offsets."""
    predicates = PredicateMap(VARIABLES)
    # one variable each, so every value is exactly -1, 0.0 or 1 ...
    for k in range(4):
        coefficients = [0.0] * 4
        coefficients[k] = float(draw(st.sampled_from((1, -1, 2, -3))))
        predicates.add(f"p{k}", coefficients, 0.0)
    # ... and one over all of them
    predicates.add("p4", draw(st.lists(st.integers(-2, 2).map(float), min_size=4,
                                       max_size=4).filter(any)), 0.0)
    offset = st.integers(0, 6).map(lambda k: k / 2.0)
    window = st.tuples(offset, offset).map(lambda t: TimeBound(t[0], t[0] + t[1]))
    atom = st.sampled_from(("p0", "p1", "p2", "p3", "p4")).map(Predicate)
    literal = atom | atom.map(Not)
    signal = st.one_of(
        literal,
        literal.map(Next),
        st.tuples(literal, window).map(lambda t: Always(*t)),
        st.tuples(literal, window).map(lambda t: Eventually(*t)),
    )
    # a min or max of two signals mixes 0.0 and -0.0 within one operand
    operand = st.one_of(
        signal,
        st.tuples(signal, signal).map(lambda t: And(*t)),
        st.tuples(signal, signal).map(lambda t: Or(*t)),
    )
    # a = 0 (no prefix), a > 0, b = a, b = inf and windows that start past
    # the trace end
    lower = st.sampled_from((0.0, 0.5, 1.0, 2.5, 100.0))
    width = st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, math.inf))
    bound = st.tuples(lower, width).map(lambda t: TimeBound(t[0], t[0] + t[1]))
    # mostly consecutive samples on the grid, with some gaps
    gaps = draw(st.lists(st.sampled_from((1, 1, 1, 2, 3)), min_size=1,
                         max_size=max_samples))
    times = tuple(0.5 * tick for tick in accumulate(gaps, initial=0))[:-1]
    state = st.tuples(*[st.sampled_from((-1.0, 0.0, 1.0))] * 4)
    states = draw(st.lists(state, min_size=len(times), max_size=len(times)))
    trace = Trace(times, tuple(states))
    formula = Until(draw(operand), draw(operand), draw(st.none() | bound | bound))
    return formula, predicates, trace


def encoded_until(left, right, bound):
    """A scenario whose until operands take exactly the values ``left`` and
    ``right``, each in {-1, -0.0, 0.0, 1}, at 0.5 s spacing.

    An operand is ``Or(pa, Not(pb))`` with ``pa = -xa`` and ``pb = -xb``:
    1 is ``xa = -1``; 0.0 is ``xa = 0, xb = 0``; -0.0 is ``xa = 1, xb = 0``;
    -1 is ``xa = 1, xb = -1``."""
    def code(value):
        if value == 0.0:
            return (1.0, 0.0) if math.copysign(1.0, value) < 0 else (0.0, 0.0)
        return (-1.0, 0.0) if value > 0 else (1.0, -1.0)

    predicates = PredicateMap(VARIABLES)
    for k in range(4):
        predicates.add(f"p{k}", [float(j == k) for j in range(4)], 0.0)
    states = [code(l) + code(r) for l, r in zip(left, right)]
    trace = Trace(tuple(0.5 * k for k in range(len(states))), tuple(states))
    operands = [Or(Predicate(f"p{k}"), Not(Predicate(f"p{k + 1}"))) for k in (0, 2)]
    return Until(*operands, TimeBound(*bound)), predicates, trace


def encoded_window(operator, values, bound):
    """``operator`` (``Always`` or ``Eventually``) over an operand that takes
    exactly ``values``, encoded as in :func:`encoded_until`."""
    until, predicates, trace = encoded_until(values, values, bound)
    return operator(until.left, until.bound), predicates, trace


@settings(max_examples=300, deadline=None)
@given(tie_heavy_untils())
# Each of these reaches a tie between zeros of opposite sign inside the
# composed maps of a bounded until, which random draws reach rarely.
@example(encoded_until([0.0, -0.0, 1.0, 0.0, -0.0],
                       [-0.0, -0.0, -1.0, -1.0, -0.0], (0.0, 1.0)))
@example(encoded_until([1.0, -0.0, 1.0, 0.0, -0.0],
                       [1.0, 0.0, -1.0, -0.0, 1.0], (0.0, 1.0)))
@example(encoded_until([1.0, -0.0, 0.0, 1.0, 0.0, -0.0, 0.0],
                       [1.0, -1.0, -0.0, -1.0, -1.0, -1.0, 0.0], (0.0, 1.5)))
@example(encoded_until([-0.0, -0.0, 0.0, -0.0], [1.0, -1.0, -1.0, 0.0], (0.0, 1.0)))
# A lower bound above 0 adds the prefix minimum of the left operand, whose
# ties between zeros of opposite sign these reach.
@example(encoded_until([0.0, -0.0, 1.0, 0.0, -0.0, 1.0],
                       [-0.0, 1.0, -1.0, 0.0, -0.0, 0.0], (0.5, 1.5)))
@example(encoded_until([-0.0, 0.0, -0.0, 0.0, 1.0, -0.0, 0.0],
                       [1.0, -0.0, 0.0, -1.0, -0.0, 0.0, -0.0], (1.0, 2.0)))
def test_until_matches_naive_on_ties_bit_for_bit(scenario):
    formula, predicates, trace = scenario
    naive = naive_signal(formula, predicates, trace)
    for anchor, expected in enumerate(naive):
        assert bit_equal(evaluate(formula, predicates, trace, at=anchor), expected)


@st.composite
def tie_heavy_long_windows(draw, max_samples=100):
    """An ``always``, ``eventually`` or ``until`` over long signals made of
    ties.

    Every predicate value is exactly -1, -0.0, 0.0 or 1 (states in
    {-1, -0.0, 0.0, 1}, bounds 0.0 and -0.0), ``Not`` and ``Next`` add
    +-inf, and windows reach up to 100 samples, so the sparse table's rows
    above ``2**4`` are compared too.  Gaps of one or two ticks make window
    widths vary by one sample; windows start at 0 or later, may be empty,
    and may be unbounded on the right."""
    predicates = PredicateMap(VARIABLES)
    for k in range(4):
        coefficients = [0.0] * 4
        coefficients[k] = float(draw(st.sampled_from((1, -1, 2))))
        predicates.add(f"p{k}", coefficients, draw(st.sampled_from((0.0, -0.0))))
    atom = st.sampled_from(("p0", "p1", "p2", "p3")).map(Predicate)
    literal = atom | atom.map(Not)
    # next is -inf at the last sample, its negation +inf
    operand = st.one_of(
        literal,
        literal.map(Next),
        literal.map(Next).map(Not),
        st.tuples(literal, literal).map(lambda t: And(*t)),
        st.tuples(literal, literal).map(lambda t: Or(*t)),
    )
    # a lower bound of 0 skips the until prefix, one above 0 computes it
    lower = st.sampled_from((0.0, 0.25, 1.0, 3.0, 100.0))
    width = st.sampled_from((0.0, 0.25, 1.0, 2.5, 6.0, 20.0, math.inf))
    bound = st.none() | st.tuples(lower, width).map(
        lambda t: TimeBound(t[0], t[0] + t[1]))
    n = draw(st.integers(1, max_samples))
    gaps = draw(st.lists(st.sampled_from((1, 1, 1, 2)), min_size=n, max_size=n))
    times = tuple(0.25 * tick for tick in accumulate(gaps, initial=0))[:-1]
    state = st.tuples(*[st.sampled_from((-1.0, -0.0, 0.0, 1.0))] * 4)
    states = draw(st.lists(state, min_size=n, max_size=n))
    trace = Trace(times, tuple(states))
    operator = draw(st.sampled_from((Always, Eventually, Until)))
    if operator is Until:
        formula = Until(draw(operand), draw(operand), draw(bound))
    else:
        formula = operator(draw(operand), draw(bound))
    return formula, predicates, trace


# One extreme sample among ties at 0.5 s spacing: a run of the sparse table
# that leaves a window or misses one of its samples moves it to a wrong anchor.
ONE_LOW = [1.0, 0.0, 1.0, -0.0, 1.0, 1.0, -1.0, 1.0, 0.0, 1.0, 1.0, -0.0, 1.0]
ONE_HIGH = [-v for v in ONE_LOW]


@settings(max_examples=200, deadline=None)
@given(tie_heavy_long_windows())
# windows of exactly 2**k and 2**k + 1 samples, k = 2 and 3
@example(encoded_window(Always, ONE_LOW, (0.0, 1.5)))
@example(encoded_window(Eventually, ONE_HIGH, (0.0, 2.0)))
@example(encoded_window(Always, ONE_LOW, (0.0, 3.5)))
@example(encoded_until(ONE_HIGH, ONE_LOW, (0.0, 4.0)))
@example(encoded_until(ONE_LOW, ONE_HIGH, (0.0, 3.5)))
# windows that end at the last sample
@example(encoded_window(Eventually, ONE_HIGH, (0.5, math.inf)))
@example(encoded_until(ONE_LOW, ONE_LOW, (0.0, math.inf)))
# empty windows: the lower limit is past the trace for the later anchors,
# or for all of them
@example(encoded_window(Always, ONE_LOW, (3.0, 4.0)))
@example(encoded_until(ONE_HIGH, ONE_LOW, (2.5, 3.0)))
@example(encoded_window(Eventually, ONE_HIGH, (100.0, 101.0)))
@example(encoded_until(ONE_LOW, ONE_HIGH, (100.0, math.inf)))
# a lower limit above 0: the prefix minimum of the left operand stops just
# before the window, whose first sample holds that operand's minimum
@example(encoded_window(Always, ONE_LOW, (1.0, 2.5)))
@example(encoded_until([1.0, 1.0, -1.0, 1.0, 1.0], [1.0] * 5, (1.0, 1.0)))
@example(encoded_until(ONE_LOW, ONE_HIGH, (1.5, 2.0)))
def test_long_windows_match_naive_on_ties_bit_for_bit(scenario):
    formula, predicates, trace = scenario
    naive = naive_signal(formula, predicates, trace)
    for anchor, expected in enumerate(naive):
        assert bit_equal(evaluate(formula, predicates, trace, at=anchor), expected)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=30),
    st.sampled_from((0.0, 0.3, 0.5, 1.0, 2.5)),
    st.sampled_from((0.0, 0.5, 1.5, 4.0, math.inf)),
    st.booleans(),
    st.sampled_from((0.5, 0.1)),
)
# 0.2 + 0.5 is 0.7, below 0.1 * 7 = 0.7000000000000001, yet 0.1 * 7 - 0.2
# is 0.5: sample 7 lies in anchor 2's window [0.5, 0.5]
@example([1] * 10, 0.5, 0.0, False, 0.1)
# 0.1 * 10 - 0.1 * 7 is below 0.3, though 0.1 * 7 + 0.3 rounds to 0.1 * 10
@example([1] * 12, 0.3, 0.0, False, 0.1)
def test_window_bounds_match_per_anchor_scan(gaps, lower, width, negative_start, step):
    """The window bounds equal a per-anchor scan, also on a grid that
    starts at -0.0 instead of 0.0, and on a 0.1 s grid, where ``t_i + b``
    and ``t_j - t_i`` round differently."""
    times = tuple(step * tick for tick in accumulate(gaps, initial=0))[:-1]
    bound = TimeBound(lower, lower + width)
    if negative_start:
        times = (-0.0,) + times[1:]
    expected = ([], [])
    for anchor in range(len(times)):
        window = window_indices(times, anchor, bound)
        expected[0].append(window.start)
        expected[1].append(window.stop)
    starts, stops = _window_bounds(np.array(times), bound)
    assert (starts.tolist(), stops.tolist()) == expected
