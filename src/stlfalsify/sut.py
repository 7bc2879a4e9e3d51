"""System-under-test layer: blackbox adapter, ODE integrator, interpolators.

Two ways to run a system are provided.  :class:`Blackbox` wraps an arbitrary
user function ``(X, T, U) -> (timestamps, trajectories)``: ``X`` is the
vector of static parameters and/or initial conditions, ``T`` a sequence of
time values, and ``U`` an array of input-signal values with one row per
signal and one column per entry of ``T``.  The function must return the time
values and the corresponding state trajectory (one row per returned
timestamp).  :class:`OdeSystem` instead treats the system as an ordinary
differential equation ``dx/dt = f(t, x, u)`` and solves the initial-value
problem with a fixed-step classical fourth-order Runge-Kutta scheme.

Interpolators expand the optimizer-chosen control points of a time-varying
input into a full signal over the simulation interval; control times are
evenly spaced across the interval.

The blackbox user function is the extension point for external simulation
engines (external process, RPC, hardware rig): write a bridge function that
forwards ``(X, T, U)``, parses the engine's reply into ``(timestamps,
trajectories)``, and keep any expensive engine handle alive across calls,
since the function is invoked once per search iteration.  Exceptions raised
by the function are captured as :class:`~stlfalsify.errors.SimulationError`
so one bad simulation cannot crash a whole test campaign; the run's error
policy decides what happens next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from .errors import SimulationError, TraceValidationError, ValidationError
from .monitor import Trace

__all__ = [
    "SimulationInput",
    "Interpolator",
    "interpolator_create",
    "Blackbox",
    "blackbox_simulate",
    "OdeSystem",
    "ode_simulate",
    "System",
    "INTERPOLATOR_KINDS",
]

INTERPOLATOR_KINDS = ("piecewise-constant", "piecewise-linear")

#: Default number of integrator steps across the simulation interval; also
#: sets the density of the time grid handed to a blackbox.
DEFAULT_STEPS = 1000


@dataclass(frozen=True)
class SimulationInput:
    """One simulation request: static parameters ``static``, time grid
    ``times``, and one row of signal values per input signal."""

    static: tuple[float, ...]
    times: tuple[float, ...]
    signal_values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "static", tuple(float(x) for x in self.static))
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(
            self,
            "signal_values",
            tuple(tuple(float(v) for v in row) for row in self.signal_values),
        )
        for earlier, later in zip(self.times, self.times[1:]):
            if not later > earlier:
                raise ValidationError(
                    f"simulation times must be strictly increasing, "
                    f"{later} follows {earlier}"
                )
        for row in self.signal_values:
            if len(row) != len(self.times):
                raise ValidationError(
                    f"signal row has {len(row)} values for {len(self.times)} times"
                )


class Interpolator:
    """Expands control points into a signal over ``[start, end]``.

    ``control_times`` are evenly spaced over the interval; ``at(t)`` is
    defined for every ``t`` in the closed interval.
    """

    kind: str

    def __init__(self, interval: tuple[float, float], values: Sequence[float]):
        start, end = float(interval[0]), float(interval[1])
        if not start < end:
            raise ValidationError(f"inverted interval ({start}, {end})")
        self.interval = (start, end)
        self.control_values = tuple(float(v) for v in values)
        count = len(self.control_values)
        if count == 1:
            self.control_times = (start,)
        else:
            span = end - start
            self.control_times = tuple(
                start + span * k / (count - 1) for k in range(count)
            )

    def at(self, t: float) -> float:
        raise NotImplementedError

    def sample(self, times: Sequence[float]) -> list[float]:
        """``[self.at(t) for t in times]`` bit for bit, computed in one walk
        over the control times: linear in ``len(times)`` when ``times`` is
        non-decreasing, as the integrator's stage times are."""
        raise NotImplementedError


class PiecewiseConstant(Interpolator):
    """Step signal, constant on each ``[t_k, t_{k+1})``; ``at(end)`` is the
    last control value."""

    kind = "piecewise-constant"

    def __init__(self, interval: tuple[float, float], values: Sequence[float]):
        if len(values) < 1:
            raise ValidationError("piecewise-constant signal needs at least 1 value")
        super().__init__(interval, values)

    def at(self, t: float) -> float:
        times = self.control_times
        # rightmost control time <= t
        low, high = 0, len(times) - 1
        while low < high:
            mid = (low + high + 1) // 2
            if times[mid] <= t:
                low = mid
            else:
                high = mid - 1
        return self.control_values[low]

    def sample(self, times: Sequence[float]) -> list[float]:
        control = self.control_times
        values = self.control_values
        last = len(control) - 1
        low = 0
        out = []
        for t in times:
            # same result as at(): rightmost control time <= t, else index 0
            while low < last and control[low + 1] <= t:
                low += 1
            while low > 0 and control[low] > t:
                low -= 1
            out.append(values[low])
        return out


class PiecewiseLinear(Interpolator):
    """Linear interpolant through the control points."""

    kind = "piecewise-linear"

    def __init__(self, interval: tuple[float, float], values: Sequence[float]):
        if len(values) < 2:
            raise ValidationError("piecewise-linear signal needs at least 2 values")
        super().__init__(interval, values)

    def at(self, t: float) -> float:
        times = self.control_times
        values = self.control_values
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

    def sample(self, times: Sequence[float]) -> list[float]:
        control = self.control_times
        values = self.control_values
        first, last = control[0], control[-1]
        low = 0
        out = []
        for t in times:
            if t <= first:
                out.append(values[0])
            elif t >= last:
                out.append(values[-1])
            else:
                # same bracket as at(): control[low] <= t < control[low + 1]
                while control[low + 1] <= t:
                    low += 1
                while control[low] > t:
                    low -= 1
                span = control[low + 1] - control[low]
                weight = (t - control[low]) / span
                out.append(values[low] + weight * (values[low + 1] - values[low]))
        return out


def interpolator_create(kind: str, interval: tuple[float, float],
                        values: Sequence[float]) -> Interpolator:
    """Factory for the built-in interpolator kinds."""
    if kind == "piecewise-constant":
        return PiecewiseConstant(interval, values)
    if kind == "piecewise-linear":
        return PiecewiseLinear(interval, values)
    raise ValidationError(
        f"unknown interpolator kind {kind!r}; choose one of {INTERPOLATOR_KINDS}"
    )


class System(Protocol):
    """What the runner needs from a system under test."""

    #: Whether concurrent simulate calls are safe (parallel runs).
    reentrant: bool

    def simulate(self, static: Sequence[float], signals: Sequence[Interpolator],
                 interval: tuple[float, float]) -> Trace: ...


BlackboxFunc = Callable[
    [tuple[float, ...], tuple[float, ...], tuple[tuple[float, ...], ...]],
    tuple[Sequence[float], Sequence[Sequence[float]]],
]


def blackbox_simulate(func: BlackboxFunc, request: SimulationInput) -> Trace:
    """Run a blackbox function on one request and validate its output.

    The returned timestamps must be strictly increasing, trajectories must
    form one equal-length state row per timestamp, and the timestamps must
    stay inside the request's time span (tolerance 1e-9).  A function that
    raises is reported as a :class:`SimulationError`; malformed output is a
    :class:`TraceValidationError`.
    """
    try:
        timestamps, trajectories = func(
            request.static, request.times, request.signal_values
        )
    except SimulationError:
        raise
    except Exception as exc:
        raise SimulationError(f"blackbox function failed: {exc!r}") from exc
    trace = Trace(tuple(timestamps), tuple(tuple(row) for row in trajectories))
    if request.times:
        low = request.times[0] - 1e-9
        high = request.times[-1] + 1e-9
        if trace.times[0] < low or trace.times[-1] > high:
            raise TraceValidationError(
                f"returned timestamps [{trace.times[0]}, {trace.times[-1]}] leave "
                f"the simulation interval [{request.times[0]}, {request.times[-1]}]"
            )
    return trace


class Blackbox:
    """System under test defined by a user function ``(X, T, U)``.

    By default each input signal is sampled on an evenly spaced grid of
    ``steps + 1`` points across the simulation interval.  With
    ``interpolate=False`` the raw control points are passed through
    uninterpolated instead: ``T`` is then the shared control-time grid, which
    requires every signal to declare the same number of control points.
    """

    def __init__(self, func: BlackboxFunc, steps: int = DEFAULT_STEPS,
                 interpolate: bool = True, reentrant: bool = False):
        if steps < 1:
            raise ValidationError(f"steps must be >= 1, got {steps}")
        self.func = func
        self.steps = steps
        self.interpolate = interpolate
        self.reentrant = reentrant

    def simulate(self, static: Sequence[float], signals: Sequence[Interpolator],
                 interval: tuple[float, float]) -> Trace:
        start, end = float(interval[0]), float(interval[1])
        if not start < end:
            raise ValidationError(f"inverted interval ({start}, {end})")
        if self.interpolate or not signals:
            times = _grid(start, end, self.steps)
            rows = tuple(tuple(s.sample(times)) for s in signals)
        else:
            counts = {len(s.control_values) for s in signals}
            if len(counts) != 1:
                raise ValidationError(
                    "uninterpolated signals must share one control-point count, "
                    f"got {sorted(counts)}"
                )
            times = _grid(start, end, counts.pop() - 1)
            rows = tuple(s.control_values for s in signals)
        request = SimulationInput(tuple(float(x) for x in static), times, rows)
        return blackbox_simulate(self.func, request)


def _grid(start: float, end: float, steps: int) -> tuple[float, ...]:
    span = end - start
    return tuple(start + span * k / steps for k in range(steps + 1))


DerivativeFunc = Callable[[float, Sequence[float], Sequence[float]], Sequence[float]]


class _WrongDimension(Exception):
    """A derivative result whose length differs from the state's."""


def ode_simulate(derivative: DerivativeFunc, initial_state: Sequence[float],
                 interval: tuple[float, float], signals: Sequence[Interpolator],
                 step: float) -> Trace:
    """Integrate ``dx/dt = derivative(t, x, u(t))`` with classical RK4.

    The interval is divided into ``round((end - start) / step)`` uniform
    steps (at least one) so both endpoints land exactly on the grid; the
    trace holds the state at every step boundary.  Integration aborts with a
    :class:`SimulationError` naming the time at which the state first went
    non-finite, or the stage time at which the derivative raised or returned
    the wrong dimension.
    """
    if not step > 0:
        raise ValidationError(f"step must be positive, got {step}")
    start, end = float(interval[0]), float(interval[1])
    if not start < end:
        raise ValidationError(f"inverted interval ({start}, {end})")
    span = end - start
    steps = max(1, round(span / step))
    h = span / steps
    half = h / 2.0
    sixth = h / 6.0

    grid = [start + span * k / steps for k in range(steps + 1)]
    # stage times in order: grid[0], mid[0], grid[1], mid[1], ..., grid[steps];
    # every signal is sampled once at each of them
    stages = [0.0] * (2 * steps + 1)
    stages[0::2] = grid
    stages[1::2] = [t + half for t in grid[:-1]]
    if signals:
        inputs = list(map(list, zip(*(s.sample(stages) for s in signals))))
    else:
        inputs = [[]] * len(stages)

    state = [float(x) for x in initial_state]
    dimension = len(state)
    rows = [tuple(state)]
    for t, t_mid, t_next, u0, u_mid, u1 in zip(
            stages[0::2], stages[1::2], stages[2::2],
            inputs[0::2], inputs[1::2], inputs[2::2]):
        stage_t = t
        try:
            k1 = list(map(float, derivative(t, state, u0)))
            if len(k1) != dimension:
                raise _WrongDimension(len(k1))
            stage_t = t_mid
            k2 = list(map(float, derivative(
                t_mid, [x + half * d for x, d in zip(state, k1)], u_mid)))
            if len(k2) != dimension:
                raise _WrongDimension(len(k2))
            k3 = list(map(float, derivative(
                t_mid, [x + half * d for x, d in zip(state, k2)], u_mid)))
            if len(k3) != dimension:
                raise _WrongDimension(len(k3))
            stage_t = t_next
            k4 = list(map(float, derivative(
                t_next, [x + h * d for x, d in zip(state, k3)], u1)))
            if len(k4) != dimension:
                raise _WrongDimension(len(k4))
        except _WrongDimension as wrong:
            raise SimulationError(
                f"derivative returned dimension {wrong.args[0]} for state "
                f"dimension {dimension} at t={stage_t}"
            ) from None
        except Exception as exc:
            raise SimulationError(
                f"derivative function failed at t={stage_t}: {exc!r}"
            ) from exc
        state = [
            x + sixth * (a + 2.0 * b + 2.0 * c + d)
            for x, a, b, c, d in zip(state, k1, k2, k3, k4)
        ]
        # a finite sum implies finite terms; only an overflowing sum needs
        # the per-element check
        if not math.isfinite(sum(state)) and not all(map(math.isfinite, state)):
            raise SimulationError(f"state became non-finite at t={t_next}")
        rows.append(tuple(state))
    # the first stage time is start + 0.0, which turns -0.0 into 0.0; the
    # trace keeps start itself
    grid[0] = start
    return Trace(tuple(grid), tuple(rows))


class OdeSystem:
    """System under test defined by an ordinary differential equation.

    ``initial_state`` maps the static-parameter vector to the initial state;
    by default the static parameters are the initial state.  ``step`` is the
    integrator step, defaulting to 1/1000 of the interval length.
    """

    def __init__(self, derivative: DerivativeFunc,
                 initial_state: Callable[[tuple[float, ...]], Sequence[float]] | None = None,
                 step: float | None = None, reentrant: bool = True):
        if step is not None and not step > 0:
            raise ValidationError(f"step must be positive, got {step}")
        self.derivative = derivative
        self.initial_state = initial_state
        self.step = step
        self.reentrant = reentrant

    def simulate(self, static: Sequence[float], signals: Sequence[Interpolator],
                 interval: tuple[float, float]) -> Trace:
        static = tuple(float(x) for x in static)
        initial = static if self.initial_state is None else self.initial_state(static)
        step = self.step
        if step is None:
            step = (float(interval[1]) - float(interval[0])) / DEFAULT_STEPS
        return ode_simulate(self.derivative, initial, interval, signals, step)
