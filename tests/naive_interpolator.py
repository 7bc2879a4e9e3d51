"""Bisection lookup of an interpolator's value: the oracle for ``sample``.

``Interpolator.sample`` looks up a whole array of query times at once; this
module finds each time's bracket on its own with a hand-written binary
search over the same control times and applies the same arithmetic, so the
two must agree bit for bit.
"""

from stlfalsify.sut import PiecewiseConstant, PiecewiseLinear


def bisect_at(signal, t):
    """Value of ``signal`` at ``t`` found by bisection."""
    times = signal.control_times
    values = signal.control_values
    if isinstance(signal, PiecewiseConstant):
        # rightmost control time <= t, else index 0
        low, high = 0, len(times) - 1
        while low < high:
            mid = (low + high + 1) // 2
            if times[mid] <= t:
                low = mid
            else:
                high = mid - 1
        return values[low]
    if isinstance(signal, PiecewiseLinear):
        if t <= times[0]:
            return values[0]
        if t >= times[-1]:
            return values[-1]
        low, high = 0, len(times) - 1
        while high - low > 1:
            mid = (low + high) // 2
            if times[mid] <= t:
                low = mid
            else:
                high = mid
        span = times[high] - times[low]
        weight = (t - times[low]) / span
        return values[low] + weight * (values[high] - values[low])
    raise TypeError(f"no bisection oracle for {type(signal).__name__}")
