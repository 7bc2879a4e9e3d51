"""Robustness from its definition, for checking the package's monitor.

A direct recursion over explicit windows that shares no code with
``stlfalsify.monitor`` apart from the predicate distance.  Minima and maxima
of floats are exact in any order, so on the same trace its values equal the
monitor's bit for bit; a monitor whose operator differs from the definition
gives a different value.
"""

from __future__ import annotations

import math


def robustness(stl, predicates, trace):
    """``rho(formula, i)``, the robustness of ``formula`` at sample ``i`` of
    ``trace``.  Values are memoized by node identity, so the formulas must
    outlive ``rho``."""
    times = trace.times
    n = len(times)
    memo: dict[tuple[int, int], float] = {}

    def window(i: int, bound) -> range:
        lower = 0.0 if bound is None else bound.lower
        upper = math.inf if bound is None else bound.upper
        inside = [j for j in range(i, n) if lower <= times[j] - times[i] <= upper]
        return range(inside[0], inside[-1] + 1) if inside else range(0)

    def rho(node, i: int) -> float:
        key = (id(node), i)
        if key not in memo:
            memo[key] = compute(node, i)
        return memo[key]

    def compute(node, i: int) -> float:
        if isinstance(node, stl.Predicate):
            definition = node.definition or predicates.resolve(node.name)
            return stl.predicate_robustness(definition, trace.states[i])
        if isinstance(node, stl.Not):
            return -rho(node.child, i)
        if isinstance(node, stl.And):
            return min(rho(node.left, i), rho(node.right, i))
        if isinstance(node, stl.Or):
            return max(rho(node.left, i), rho(node.right, i))
        if isinstance(node, stl.Implies):
            return max(-rho(node.left, i), rho(node.right, i))
        if isinstance(node, stl.Next):
            return rho(node.child, i + 1) if i + 1 < n else -math.inf
        if isinstance(node, stl.Eventually):
            return max((rho(node.child, j) for j in window(i, node.bound)), default=-math.inf)
        if isinstance(node, stl.Always):
            return min((rho(node.child, j) for j in window(i, node.bound)), default=math.inf)
        if isinstance(node, stl.Until):
            # max over j in the window of min(right at j, left on [i, j))
            best = -math.inf
            span = window(i, node.bound)
            prefix = min((rho(node.left, k) for k in range(i, span.start)), default=math.inf)
            for j in span:
                best = max(best, min(rho(node.right, j), prefix))
                prefix = min(prefix, rho(node.left, j))
            return best
        raise TypeError(f"not a formula node: {node!r}")

    return rho
