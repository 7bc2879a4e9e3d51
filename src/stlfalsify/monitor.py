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
from functools import cache, partial, reduce
from itertools import chain
from operator import add, mul
from typing import Callable, Sequence

import numpy as np

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


def _window_bounds(times: np.ndarray,
                   bound: TimeBound) -> tuple[np.ndarray, np.ndarray]:
    """``[starts[i], stops[i])``: the samples whose offset from anchor ``i``
    lies inside the bound.  ``searchsorted`` on ``t_i + a`` and ``t_i + b``
    finds each end up to rounding; the end is then moved a sample at a time
    until the exact test on ``times[j] - times[i]`` holds."""
    n = len(times)
    anchors = np.arange(n)
    ends = []
    for limit, side, past in ((bound.lower, "left", np.greater_equal),
                              (bound.upper, "right", np.greater)):
        if limit == 0 and side == "left":  # no search: i itself
            ends.append(anchors)
            continue
        # the first j >= i whose offset is past the limit, n if none
        end = np.searchsorted(times, times + limit, side)
        while True:
            back = (end > anchors) & past(times[end - 1] - times, limit)
            ahead = (end < n) & ~past(times[np.minimum(end, n - 1)] - times, limit)
            if not (back.any() or ahead.any()):
                break
            end = end - back + ahead
        ends.append(end)
    return ends[0], ends[1]


def _pick(left: np.ndarray, right: np.ndarray, minimize: bool) -> np.ndarray:
    """Elementwise min/max keeping ``left`` on a tie, as a left fold does.
    Equal values differ in their bits only as ``0.0`` and ``-0.0``, so
    ``np.minimum``, which may return either zero, is exact without zeros."""
    out = (np.minimum if minimize else np.maximum)(left, right)
    if np.count_nonzero(out) == len(out):
        return out
    return np.where(right < left if minimize else right > left, right, left)


def _windows(values: np.ndarray, starts: np.ndarray, stops: np.ndarray,
             combine: Callable, empty) -> np.ndarray:
    """``combine`` folded over ``values[..., starts[i]:stops[i]]`` for every
    ``i``, ``empty`` for an empty window; the last axis runs over samples.
    Row ``k`` of a sparse table holds the fold of each whole run of ``2**k``
    samples, and a window is the fold of the two runs of ``2**floor(log2 L)``
    samples that start and end it (Bender and Farach-Colton, LATIN 2000).
    They overlap, which is exact as ``combine(x, x)`` is ``x`` bit for bit
    and grouping changes no bit: true of a min or max that keeps the earlier
    operand on a tie, and of composed ``until`` maps."""
    n = values.shape[-1]
    lengths = stops - starts
    levels = np.frexp(np.maximum(lengths, 1))[1] - 1   # floor(log2(length))
    table = np.empty(values.shape[:-1] + (int(levels.max()) + 1, n))
    table[..., 0, :] = values
    for k in range(1, table.shape[-2]):
        half, runs = 1 << (k - 1), n - (1 << k) + 1
        table[..., k, :runs] = combine(table[..., k - 1, :runs],
                                       table[..., k - 1, half:half + runs])
    # a flat take gathers far faster than a (level, sample) fancy index
    flat, row = table.reshape(values.shape[:-1] + (-1,)), levels * n
    first = flat.take(row + np.minimum(starts, n - 1), axis=-1)
    last = flat.take(row + stops - (1 << levels), axis=-1)
    # an empty window combines ``empty`` with itself, which gives it back
    first[..., lengths == 0] = last[..., lengths == 0] = empty
    return combine(first, last)


def _compose(outer: Sequence[np.ndarray],
             inner: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The pair of ``outer o inner``, where ``(A, B)`` stands for the map
    ``x -> max(A, min(B, x))`` and ``outer`` covers the earlier samples."""
    (a, b), (inner_a, inner_b) = outer, inner
    return _pick(a, _pick(b, inner_a, True), False), _pick(b, inner_b, True)


def _until_signal(left: np.ndarray, right: np.ndarray, times: Callable[[], np.ndarray],
                  bound: TimeBound | None) -> np.ndarray:
    """Robustness of ``left U right`` at every anchor in O(n log n).

    Sample ``j`` acts as ``f_j(x) = max(right[j], min(left[j], x))``; a
    composed map is a pair ``(A, B)`` for ``x -> max(A, min(B, x))``, and
    ``A`` is its value at -inf (Donze, Ferrere and Maler, CAV 2013).
    Unbounded: ``f_i o ... o f_{n-1}`` by a doubling suffix scan, in place.
    Bounded: ``min(pre_i, W_i)``, ``pre_i`` the minimum of ``left`` before
    the window and ``W_i`` the composition of its maps, both by
    :func:`_windows`.  Every min and max keeps its earlier operand on a tie,
    as a per-anchor fold does, so the grouping changes no bit."""
    n = len(left)
    if bound is None:
        a, b = right.copy(), left.copy()
        for k in range((n - 1).bit_length()):  # until a run reaches the end
            size = 1 << k
            a[:-size], b[:-size] = _compose((a[:-size], b[:-size]), (a[size:], b[size:]))
        return a
    starts, stops = _window_bounds(times(), bound)
    identity = ((-_INF,), (_INF,))  # x -> x, the map of an empty window
    window = _windows(np.array((right, left)), starts, stops, _compose, identity)[0]
    if bound.lower == 0:
        return window
    pre = _windows(left, np.arange(n), starts, partial(_pick, minimize=True), _INF)
    return _pick(pre, window, True)


def _robustness_signal(formula: Formula, predicates: PredicateMap | None,
                       trace: Trace, times: Callable[[], np.ndarray]) -> np.ndarray:
    """Robustness of ``formula`` at every sample index, computed bottom-up;
    ``times()`` is ``trace.times`` as an array.  Every elementwise min and max
    is a :func:`_pick`, so ``0.0`` and ``-0.0`` come out as a left fold
    gives them."""
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
        total = 0.0
        for c, column in zip(coefficients, zip(*trace.states)):
            if c:
                total = total + c * np.fromiter(column, float, n)
        signal = (bound - total) / norm
        # finite states whose terms overflow with opposite signs give
        # inf - inf; a NaN would slip through the min/max picks, so reject it
        nan = np.isnan(signal)
        if nan.any():
            k = int(nan.argmax())
            raise TraceValidationError(
                f"predicate {pred.name!r} is NaN at t={trace.times[k]}: its "
                f"terms overflow on state {trace.states[k]}"
            )
        return signal
    if isinstance(formula, Not):
        return -_robustness_signal(formula.child, predicates, trace, times)
    if isinstance(formula, (And, Or, Implies)):
        left = _robustness_signal(formula.left, predicates, trace, times)
        right = _robustness_signal(formula.right, predicates, trace, times)
        if isinstance(formula, Implies):
            # Same value as the parse-time desugaring Or(Not(left), right).
            left = -left
        return _pick(left, right, minimize=isinstance(formula, And))
    if isinstance(formula, Next):
        child = _robustness_signal(formula.child, predicates, trace, times)
        return np.append(child[1:], -_INF)
    if isinstance(formula, (Eventually, Always)):
        child = _robustness_signal(formula.child, predicates, trace, times)
        minimize = isinstance(formula, Always)
        if formula.bound is not None:
            starts, stops = _window_bounds(times(), formula.bound)
            return _windows(child, starts, stops, partial(_pick, minimize=minimize),
                            _INF if minimize else -_INF)
        # suffix extrema; of equal values a left fold keeps the first, which
        # matters only for a zero, and which zero np.minimum returns is not
        # specified: take the sign of the first zero from i on
        fold = np.minimum if minimize else np.maximum
        out = fold.accumulate(child[::-1])[::-1]
        if not out.all():
            zeros = np.where(child == 0.0, np.arange(n), n)
            first = np.minimum.accumulate(zeros[::-1])[::-1]
            out = np.where(out == 0.0, child[np.minimum(first, n - 1)], out)
        return out
    if isinstance(formula, Until):
        left = _robustness_signal(formula.left, predicates, trace, times)
        right = _robustness_signal(formula.right, predicates, trace, times)
        return _until_signal(left, right, times, formula.bound)
    raise ValidationError(f"not a formula node: {formula!r}")


def evaluate(formula: Formula, predicates: PredicateMap | None, trace: Trace,
             at: int = 0) -> float:
    """Quantitative robustness of ``formula`` over ``trace`` at sample ``at``."""
    if not 0 <= at < len(trace):
        raise ValidationError(
            f"anchor index {at} out of range for a {len(trace)}-sample trace"
        )
    # predicate terms and window ends may overflow to +-inf, and opposite
    # infinite terms give a NaN that the predicate branch rejects: no warning
    with np.errstate(over="ignore", invalid="ignore"):
        # one conversion, made by the first bounded operator that needs it
        times = cache(lambda: np.fromiter(trace.times, float, len(trace)))
        return float(_robustness_signal(formula, predicates, trace, times)[at])


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
