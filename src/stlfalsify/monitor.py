"""Offline robustness evaluation of a requirement over a sampled trace.

Semantics are discrete-sampled and future-time: temporal operators quantify
over the sample indices whose timestamps fall in the operator's shifted time
window.  Empty windows yield the vacuity sentinels ``+inf`` (always) and
``-inf`` (eventually, until); ``next`` at the final sample yields ``-inf``.

:func:`evaluate` computes quantitative robustness: positive means the trace
satisfies the formula at the anchor index, negative means it violates it,
and the magnitude is a normalized distance to the satisfaction boundary.
:func:`evaluate_boolean` is a deliberately separate qualitative recursion
used as a testing oracle; it shares no code with :func:`evaluate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from operator import add, mul, sub, truediv
from typing import Sequence

from .errors import TraceValidationError, ValidationError
from .stl import (
    Always,
    And,
    Eventually,
    Formula,
    Implies,
    LinearPredicate,
    Next,
    Not,
    Or,
    Predicate,
    PredicateMap,
    TimeBound,
    Until,
)

__all__ = ["Trace", "predicate_robustness", "evaluate", "evaluate_boolean"]

_INF = math.inf

#: Row containers converted in one pass over all their entries; rows of any
#: other form are converted row by row while they are iterated.
_SEQUENCES = frozenset((tuple, list))


@dataclass(frozen=True)
class Trace:
    """Finite sampled trajectory: strictly increasing finite timestamps
    paired with finite state vectors of uniform dimension.

    NaN and +-inf are rejected in states and timestamps alike: NaN makes
    min/max folds order-dependent, so a violating trace could score as
    satisfied, and a system whose state diverged has no meaningful
    robustness."""

    times: tuple[float, ...]
    states: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        times = tuple(map(float, self.times))
        rows = self.states
        if not (type(rows) in _SEQUENCES and set(map(type, rows)) <= _SEQUENCES):
            # a generator row must be converted while it is iterated, so an
            # entry float() rejects fails before the generator's own error
            rows = tuple(tuple(map(float, row)) for row in rows)
        # every entry in row order, through the same float() as row by row
        flat = tuple(map(float, chain.from_iterable(rows)))
        object.__setattr__(self, "times", times)
        if not times:
            raise TraceValidationError("trace must contain at least one sample")
        if len(rows) != len(times):
            raise TraceValidationError(
                f"{len(times)} timestamps but {len(rows)} state vectors"
            )
        for earlier, later in zip(times, times[1:]):
            if not later > earlier:
                raise TraceValidationError(
                    f"non-monotone timestamps: {later} follows {earlier}"
                )
        dimension = len(rows[0])
        if set(map(len, rows)) != {dimension}:
            raise TraceValidationError("ragged trajectory: state dimensions differ")
        if dimension:
            states = tuple(zip(*[iter(flat)] * dimension))
        else:
            states = ((),) * len(rows)
        object.__setattr__(self, "states", states)
        # strictly increasing, so only the ends can be infinite; a NaN would
        # have failed the ordering check unless it is the only timestamp
        if not (math.isfinite(times[0]) and math.isfinite(times[-1])):
            raise TraceValidationError(
                f"non-finite timestamp in [{times[0]}, {times[-1]}]"
            )
        # a finite sum implies finite terms; only an overflowing sum needs
        # the per-element check
        if not math.isfinite(sum(flat)):
            for t, row in zip(times, states):
                if not all(map(math.isfinite, row)):
                    raise TraceValidationError(f"non-finite state {row} at t={t}")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def dimension(self) -> int:
        return len(self.states[0])


def predicate_robustness(predicate: LinearPredicate, state: Sequence[float]) -> float:
    """Signed Euclidean distance of ``state`` to the predicate's hyperplane,
    positive inside the half-space ``A . x <= b``."""
    if len(state) != len(predicate.coefficients):
        raise ValidationError(
            f"predicate {predicate.name!r} expects dimension "
            f"{len(predicate.coefficients)}, state has {len(state)}"
        )
    # a left fold from 0.0, not sum(): from Python 3.12 a float sum is
    # compensated and can differ in the last bit
    total = reduce(add, map(mul, predicate.coefficients, map(float, state)), 0.0)
    return (predicate.bound - total) / predicate.norm


def _resolve(node: Predicate, predicates: PredicateMap | None) -> LinearPredicate:
    if node.definition is not None:
        return node.definition
    if predicates is None:
        raise ValidationError(f"unresolved predicate name {node.name!r}")
    return predicates.resolve(node.name)


def _window_bounds(times: tuple[float, ...],
                   bound: TimeBound) -> tuple[list[int], list[int]]:
    """``[starts[i], stops[i])``: the samples whose offset from anchor ``i``
    lies inside the bound.  Timestamps increase and bounds are non-negative,
    so both ends only move forward: two pointers, O(n) over all anchors."""
    n = len(times)
    lower, upper = bound.lower, bound.upper
    starts, stops = [0] * n, [0] * n
    start = stop = 0
    for i in range(n):
        base = times[i]
        if start < i:
            start = i
        while start < n and times[start] - base < lower:
            start += 1
        if stop < start:
            stop = start
        while stop < n and times[stop] - base <= upper:
            stop += 1
        starts[i], stops[i] = start, stop
    return starts, stops


def _suffix_extrema(values: list[float], minimize: bool) -> list[float]:
    """Min/max of ``values[i:]`` for every ``i``: the unbounded window.

    A backward scan that, like a left fold, keeps the earliest of equal
    values (``-0.0`` and ``0.0`` compare equal)."""
    out = [0.0] * len(values)
    best = _INF if minimize else -_INF
    for i in range(len(values) - 1, -1, -1):
        value = values[i]
        if (value <= best) if minimize else (value >= best):
            best = value
        out[i] = best
    return out


def _sliding_extrema(values: list[float], starts: Sequence[int],
                     stops: Sequence[int], minimize: bool) -> list[float]:
    """Min/max of ``values[starts[i]:stops[i]]`` for every ``i``, +inf/-inf
    when empty.  Both ends never decrease, so a monotone deque (Lemire 2006)
    is O(n) overall; strict popping keeps the earliest of equal values, the
    tie rule of a left fold over the range."""
    out = []
    empty = _INF if minimize else -_INF
    deque_idx: list[int] = []   # candidate indices, extremum at the front
    head = stop = 0
    for start, end in zip(starts, stops):
        if stop < start:
            stop = start  # what the deque still holds lies before start
        while stop < end:
            value = values[stop]
            if minimize:
                while len(deque_idx) > head and values[deque_idx[-1]] > value:
                    deque_idx.pop()
            else:
                while len(deque_idx) > head and values[deque_idx[-1]] < value:
                    deque_idx.pop()
            deque_idx.append(stop)
            stop += 1
        while head < len(deque_idx) and deque_idx[head] < start:
            head += 1
        out.append(values[deque_idx[head]] if head < len(deque_idx) else empty)
    return out


def _until_signal(left: list[float], right: list[float], times: tuple[float, ...],
                  bound: TimeBound | None) -> list[float]:
    """Robustness of ``left U right`` at every anchor in amortised O(n).

    Sample ``j`` acts as ``f_j(x) = max(right[j], min(left[j], x))``.  The
    unbounded form is ``f_i(f_{i+1}(... f_{n-1}(-inf)))``, one backward
    recurrence.  The bounded form is ``min(pre_i, W_i)``: ``pre_i`` is the
    minimum of ``left`` from ``i`` up to the window, and ``W_i`` applies the
    window's maps to -inf.  A composed map is a pair ``(A, B)`` for
    ``x -> max(A, min(B, x))``, held in a two-stack sliding queue (Donze,
    Ferrere and Maler, CAV 2013).  Every min and max keeps its first,
    earlier operand on a tie, the tie rule of a per-anchor fold."""
    n = len(left)
    out = [-_INF] * n
    if bound is None:
        acc = -_INF
        for i in range(n - 1, -1, -1):
            l, r = left[i], right[i]
            m = l if l <= acc else acc
            acc = out[i] = r if r >= m else m
        return out
    starts, stops = _window_bounds(times, bound)
    pre = _sliding_extrema(left, range(n), starts, minimize=True)
    # front_a/b[k]: the pair of f_k o ... o f_{mid-1}; back: that of [mid, end)
    front_a, front_b = [0.0] * n, [0.0] * n
    mid = end = 0
    back_a, back_b = -_INF, _INF
    for i, (start, stop, p) in enumerate(zip(starts, stops, pre)):
        while end < stop:  # back o f_end
            l, r = left[end], right[end]
            m = back_b if back_b <= r else r
            back_a = back_a if back_a >= m else m
            back_b = back_b if back_b <= l else l
            end += 1
        if start == stop:
            continue  # empty window: -inf
        if start >= mid:  # the front is empty: move [start, end) onto it
            a, b = -_INF, _INF
            for k in range(end - 1, start - 1, -1):  # f_k o (a, b)
                l, r = left[k], right[k]
                m = l if l <= a else a
                a = front_a[k] = r if r >= m else m
                b = front_b[k] = l if l <= b else b
            mid = end
            back_a, back_b = -_INF, _INF
        a, b = front_a[start], front_b[start]
        m = b if b <= back_a else back_a
        w = a if a >= m else m
        out[i] = p if p <= w else w
    return out


def _robustness_signal(formula: Formula, predicates: PredicateMap | None,
                       trace: Trace) -> list[float]:
    """Robustness of ``formula`` at every sample index, computed bottom-up."""
    n = len(trace)

    if isinstance(formula, Predicate):
        pred = _resolve(formula, predicates)
        coefficients, bound, norm = pred.coefficients, pred.bound, pred.norm
        if trace.dimension != len(coefficients):
            # the system returned the wrong dimension: a simulation fault
            raise TraceValidationError(
                f"predicate {pred.name!r} expects dimension "
                f"{len(coefficients)}, state has {trace.dimension}"
            )
        # the arithmetic of predicate_robustness a column at a time: the
        # products are added left to right from 0.0 at every sample; the total
        # is never -0.0, so a zero coefficient's +-0.0 terms can be skipped
        total = repeat(0.0, n)
        for c, column in zip(coefficients, zip(*trace.states)):
            if c:
                total = map(add, total, map(mul, repeat(c), column))
        signal = list(map(truediv, map(sub, repeat(bound), total), repeat(norm)))
        # finite states whose terms overflow with opposite signs give
        # inf - inf; a NaN would slip through the min/max folds, so reject
        # it.  A sum without NaN has no NaN term.
        if math.isnan(sum(signal)):
            for t, state, value in zip(trace.times, trace.states, signal):
                if math.isnan(value):
                    raise TraceValidationError(
                        f"predicate {pred.name!r} is NaN at t={t}: its terms "
                        f"overflow on state {state}"
                    )
        return signal
    if isinstance(formula, Not):
        child = _robustness_signal(formula.child, predicates, trace)
        return [-value for value in child]
    if isinstance(formula, And):
        left = _robustness_signal(formula.left, predicates, trace)
        right = _robustness_signal(formula.right, predicates, trace)
        return [r if r < l else l for l, r in zip(left, right)]
    if isinstance(formula, Or):
        left = _robustness_signal(formula.left, predicates, trace)
        right = _robustness_signal(formula.right, predicates, trace)
        return [r if r > l else l for l, r in zip(left, right)]
    if isinstance(formula, Implies):
        # Same value as the parse-time desugaring Or(Not(left), right).
        left = _robustness_signal(formula.left, predicates, trace)
        right = _robustness_signal(formula.right, predicates, trace)
        return [r if r > -l else -l for l, r in zip(left, right)]
    if isinstance(formula, Next):
        child = _robustness_signal(formula.child, predicates, trace)
        return child[1:] + [-_INF]
    if isinstance(formula, (Eventually, Always)):
        child = _robustness_signal(formula.child, predicates, trace)
        minimize = isinstance(formula, Always)
        if formula.bound is None:
            return _suffix_extrema(child, minimize)
        starts, stops = _window_bounds(trace.times, formula.bound)
        return _sliding_extrema(child, starts, stops, minimize)
    if isinstance(formula, Until):
        left = _robustness_signal(formula.left, predicates, trace)
        right = _robustness_signal(formula.right, predicates, trace)
        return _until_signal(left, right, trace.times, formula.bound)
    raise ValidationError(f"not a formula node: {formula!r}")


def evaluate(formula: Formula, predicates: PredicateMap | None, trace: Trace,
             at: int = 0) -> float:
    """Quantitative robustness of ``formula`` over ``trace`` at sample ``at``."""
    if not 0 <= at < len(trace):
        raise ValidationError(
            f"anchor index {at} out of range for a {len(trace)}-sample trace"
        )
    return _robustness_signal(formula, predicates, trace)[at]


# --- qualitative oracle ------------------------------------------------------

def evaluate_boolean(formula: Formula, predicates: PredicateMap | None,
                     trace: Trace, at: int = 0) -> bool:
    """Qualitative satisfaction of ``formula`` at sample ``at``.

    Independent oracle implemented as a direct recursion with explicit
    exists/forall enumeration; intentionally shares no machinery with
    :func:`evaluate`.
    """
    if not 0 <= at < len(trace):
        raise ValidationError(
            f"anchor index {at} out of range for a {len(trace)}-sample trace"
        )
    return _holds(formula, predicates, trace, at)


def _holds(formula: Formula, predicates: PredicateMap | None,
           trace: Trace, i: int) -> bool:
    if isinstance(formula, Predicate):
        pred = _resolve(formula, predicates)
        if len(trace.states[i]) != len(pred.coefficients):
            raise ValidationError(
                f"predicate {pred.name!r} expects dimension "
                f"{len(pred.coefficients)}, state has {len(trace.states[i])}"
            )
        total = 0.0
        for c, x in zip(pred.coefficients, trace.states[i]):
            total += c * x
        return total <= pred.bound
    if isinstance(formula, Not):
        return not _holds(formula.child, predicates, trace, i)
    if isinstance(formula, And):
        return (_holds(formula.left, predicates, trace, i)
                and _holds(formula.right, predicates, trace, i))
    if isinstance(formula, Or):
        return (_holds(formula.left, predicates, trace, i)
                or _holds(formula.right, predicates, trace, i))
    if isinstance(formula, Implies):
        return ((not _holds(formula.left, predicates, trace, i))
                or _holds(formula.right, predicates, trace, i))
    if isinstance(formula, Next):
        if i + 1 >= len(trace):
            return False
        return _holds(formula.child, predicates, trace, i + 1)
    if isinstance(formula, Eventually):
        return any(
            _holds(formula.child, predicates, trace, j)
            for j in _in_window(trace, i, formula.bound)
        )
    if isinstance(formula, Always):
        return all(
            _holds(formula.child, predicates, trace, j)
            for j in _in_window(trace, i, formula.bound)
        )
    if isinstance(formula, Until):
        for j in _in_window(trace, i, formula.bound):
            if _holds(formula.right, predicates, trace, j) and all(
                _holds(formula.left, predicates, trace, k) for k in range(i, j)
            ):
                return True
        return False
    raise ValidationError(f"not a formula node: {formula!r}")


def _in_window(trace: Trace, i: int, bound: TimeBound | None) -> list[int]:
    lower = 0.0 if bound is None else bound.lower
    upper = _INF if bound is None else bound.upper
    base = trace.times[i]
    return [
        j for j in range(len(trace))
        if lower <= trace.times[j] - base <= upper
    ]
