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
from itertools import chain
from operator import mul
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
        states = tuple(tuple(map(float, row)) for row in self.states)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        if not times:
            raise TraceValidationError("trace must contain at least one sample")
        if len(states) != len(times):
            raise TraceValidationError(
                f"{len(times)} timestamps but {len(states)} state vectors"
            )
        for earlier, later in zip(times, times[1:]):
            if not later > earlier:
                raise TraceValidationError(
                    f"non-monotone timestamps: {later} follows {earlier}"
                )
        dimension = len(states[0])
        if set(map(len, states)) != {dimension}:
            raise TraceValidationError("ragged trajectory: state dimensions differ")
        # strictly increasing, so only the ends can be infinite; a NaN would
        # have failed the ordering check unless it is the only timestamp
        if not (math.isfinite(times[0]) and math.isfinite(times[-1])):
            raise TraceValidationError(
                f"non-finite timestamp in [{times[0]}, {times[-1]}]"
            )
        # a finite sum implies finite terms; only an overflowing sum needs
        # the per-element check
        if not math.isfinite(sum(chain.from_iterable(states))):
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
    margin = predicate.bound - sum(map(mul, predicate.coefficients, map(float, state)))
    return margin / predicate.norm


def _resolve(node: Predicate, predicates: PredicateMap | None) -> LinearPredicate:
    if node.definition is not None:
        return node.definition
    if predicates is None:
        raise ValidationError(f"unresolved predicate name {node.name!r}")
    return predicates.resolve(node.name)


def _window_indices(times: tuple[float, ...], anchor: int,
                    bound: TimeBound | None) -> range:
    """Sample indices j with ``times[j] - times[anchor]`` inside the bound.

    The window is contiguous because timestamps are strictly increasing and
    bounds are non-negative."""
    if bound is None:
        return range(anchor, len(times))
    base = times[anchor]
    start = anchor
    while start < len(times) and times[start] - base < bound.lower:
        start += 1
    stop = start
    while stop < len(times) and times[stop] - base <= bound.upper:
        stop += 1
    return range(start, stop)


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


def _window_extrema(values: list[float], times: tuple[float, ...],
                    bound: TimeBound | None, minimize: bool) -> list[float]:
    """Per-anchor min/max of ``values`` over each anchor's time window.

    Unbounded windows are suffixes; bounded ones use a monotone-deque
    sliding window, O(n) over all anchors.  Strict popping keeps the
    earliest of equal values, the tie rule of a left fold over the window.
    """
    if bound is None:
        return _suffix_extrema(values, minimize)
    n = len(values)
    lower, upper = bound.lower, bound.upper
    out = [0.0] * n
    deque_idx: list[int] = []   # candidate indices, extremum at the front
    head = 0
    start = stop = 0
    for i in range(n):
        base = times[i]
        if start < i:
            start = i
        while start < n and times[start] - base < lower:
            start += 1
        if stop < start:
            stop = start
            deque_idx = []
            head = 0
        while stop < n and times[stop] - base <= upper:
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
        if head < len(deque_idx):
            out[i] = values[deque_idx[head]]
        else:
            out[i] = _INF if minimize else -_INF
    return out


def _robustness_signal(formula: Formula, predicates: PredicateMap | None,
                       trace: Trace) -> list[float]:
    """Robustness of ``formula`` at every sample index, computed bottom-up."""
    n = len(trace)

    if isinstance(formula, Predicate):
        pred = _resolve(formula, predicates)
        coefficients, bound, norm = pred.coefficients, pred.bound, pred.norm
        if trace.dimension != len(coefficients):
            raise ValidationError(
                f"predicate {pred.name!r} expects dimension "
                f"{len(coefficients)}, state has {trace.dimension}"
            )
        # the arithmetic of predicate_robustness, one dimension check per trace
        return [(bound - sum(map(mul, coefficients, state))) / norm
                for state in trace.states]
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
    if isinstance(formula, Eventually):
        child = _robustness_signal(formula.child, predicates, trace)
        return _window_extrema(child, trace.times, formula.bound, minimize=False)
    if isinstance(formula, Always):
        child = _robustness_signal(formula.child, predicates, trace)
        return _window_extrema(child, trace.times, formula.bound, minimize=True)
    if isinstance(formula, Until):
        left = _robustness_signal(formula.left, predicates, trace)
        right = _robustness_signal(formula.right, predicates, trace)
        out = []
        for i in range(n):
            window = _window_indices(trace.times, i, formula.bound)
            prefix = _INF  # min of left over i <= k < j, strict at j
            for k in range(i, window.start):
                if left[k] < prefix:
                    prefix = left[k]
            best = -_INF
            for j in window:
                candidate = right[j] if right[j] < prefix else prefix
                if candidate > best:
                    best = candidate
                if left[j] < prefix:
                    prefix = left[j]
            out.append(best)
        return out
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
