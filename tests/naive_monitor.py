"""Naive robustness evaluation: the oracle for the monitor's fast paths.

Every temporal window is scanned directly per anchor with a left fold that
keeps the earliest of equal values, ``until`` is the nested loop over each
window, and predicates go through ``predicate_robustness`` one state at a
time.  The arithmetic and tie rules are those of ``stlfalsify.monitor``,
none of its window algorithms are, so the two must agree bit for bit.
"""

import math

from stlfalsify.monitor import predicate_robustness
from stlfalsify.stl import (
    Always,
    And,
    Eventually,
    Implies,
    Next,
    Not,
    Or,
    Predicate,
    Until,
)

INF = math.inf


def window_indices(times, anchor, bound):
    """Sample indices j with ``times[j] - times[anchor]`` inside the bound."""
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


def minimum(values):
    """Left fold keeping the earliest of equal values; +inf when empty."""
    result = INF
    for value in values:
        if value < result:
            result = value
    return result


def maximum(values):
    result = -INF
    for value in values:
        if value > result:
            result = value
    return result


def naive_signal(formula, predicates, trace):
    """Robustness of ``formula`` at every sample index."""
    times = trace.times
    n = len(times)

    def signal(node):
        if isinstance(node, Predicate):
            definition = node.definition or predicates.resolve(node.name)
            return [predicate_robustness(definition, state) for state in trace.states]
        if isinstance(node, Not):
            return [-value for value in signal(node.child)]
        if isinstance(node, And):
            return [r if r < l else l for l, r in zip(signal(node.left), signal(node.right))]
        if isinstance(node, Or):
            return [r if r > l else l for l, r in zip(signal(node.left), signal(node.right))]
        if isinstance(node, Implies):
            return [r if r > -l else -l for l, r in zip(signal(node.left), signal(node.right))]
        if isinstance(node, Next):
            return signal(node.child)[1:] + [-INF]
        if isinstance(node, (Eventually, Always)):
            child = signal(node.child)
            fold = minimum if isinstance(node, Always) else maximum
            return [
                fold(child[j] for j in window_indices(times, i, node.bound))
                for i in range(n)
            ]
        if isinstance(node, Until):
            left, right = signal(node.left), signal(node.right)
            out = []
            for i in range(n):
                window = window_indices(times, i, node.bound)
                prefix = minimum(left[k] for k in range(i, window.start))
                best = -INF
                for j in window:
                    candidate = right[j] if right[j] < prefix else prefix
                    if candidate > best:
                        best = candidate
                    if left[j] < prefix:
                        prefix = left[j]
                out.append(best)
            return out
        raise TypeError(f"not a formula node: {node!r}")

    return signal(formula)


def naive_evaluate(formula, predicates, trace, at=0):
    return naive_signal(formula, predicates, trace)[at]
