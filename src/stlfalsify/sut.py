"""System-under-test layer: blackbox adapters, ODE integrator, interpolators.

Three ways to run a system are provided.  :class:`Blackbox` wraps an
arbitrary user function ``(X, T, U) -> (timestamps, trajectories)``: ``X`` is
the vector of static parameters and/or initial conditions, ``T`` a sequence
of time values, and ``U`` an array of input-signal values with one row per
signal and one column per entry of ``T``.  The function must return the time
values and the corresponding state trajectory (one row per returned
timestamp).  :func:`extern_blackbox` is a :class:`Blackbox` whose function
runs an external executable per call over a line-oriented pipe.
:class:`OdeSystem` instead treats the system as an ordinary differential
equation ``dx/dt = f(t, x, u)`` and solves the initial-value problem with a
fixed-step classical fourth-order Runge-Kutta scheme.

Interpolators expand the optimizer-chosen control points of a time-varying
input into a full signal over the simulation interval; control times are
evenly spaced across the interval.

The blackbox user function is the extension point for other simulation
engines (RPC, hardware rig): like :func:`extern_blackbox`'s bridge, it
forwards ``(X, T, U)`` and returns the engine's reply as ``(timestamps,
trajectories)``; keep any expensive engine handle alive across calls, since
the function is invoked once per search iteration.  Exceptions raised by the
function are captured as :class:`~stlfalsify.errors.SimulationError` so one
bad simulation cannot crash a whole test campaign; the run's error policy
decides what happens next.
"""

from __future__ import annotations

import functools
import math
import os
import signal
import string
import subprocess
import threading
from contextlib import contextmanager, suppress
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import SimulationError, TraceValidationError, ValidationError, _integer
from .monitor import Trace

__all__ = [
    "Interpolator",
    "interpolator_create",
    "Blackbox",
    "extern_blackbox",
    "OdeSystem",
    "ode_simulate",
    "System",
    "INTERPOLATORS",
]

#: Default number of integrator steps across the simulation interval; also
#: sets the density of the time grid handed to a blackbox.
DEFAULT_STEPS = 1000


def _checked_interval(interval: tuple[float, float]) -> tuple[float, float]:
    """``interval`` as two floats ``start < end`` a finite length apart, else
    a :class:`~stlfalsify.errors.ValidationError`."""
    start, end = float(interval[0]), float(interval[1])
    if not start < end:
        raise ValidationError(f"inverted interval ({start}, {end})")
    # an infinite end, or finite ends whose difference overflows
    if not math.isfinite(end - start):
        raise ValidationError(f"interval ({start}, {end}) must have a finite length")
    return start, end


class Interpolator:
    """Expands control points into a signal over ``[start, end]``.

    ``control_times`` are evenly spaced over the interval; ``at(t)`` is
    defined for every ``t`` in the closed interval.
    """

    kind: str
    #: The fewest control values the kind accepts.
    min_points: int

    def __init__(self, interval: tuple[float, float], values: Sequence[float]):
        if len(values) < self.min_points:
            raise ValidationError(f"{self.kind} signal needs at least {self.min_points} "
                                  f"value{'s' * (self.min_points > 1)}")
        start, end = _checked_interval(interval)
        self.interval = (start, end)
        self.control_values = tuple(float(v) for v in values)
        self.control_times = _grid(start, end, len(self.control_values) - 1)

    def at(self, t: float) -> float:
        return self.sample((t,))[0]

    def sample(self, times: Sequence[float]) -> list[float]:
        """The signal at each of ``times``, in any order; a NaN time raises
        :class:`~stlfalsify.errors.ValidationError`."""
        raise NotImplementedError

    def _bracket(self, times: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """``times`` as an array, and for each the number of control times at
        or before it, found by binary search; a NaN time is rejected."""
        times = np.fromiter(times, float)
        if np.isnan(times).any():
            raise ValidationError("cannot sample a signal at a NaN time")
        return times, np.searchsorted(self.control_times, times, "right")


class PiecewiseConstant(Interpolator):
    """Step signal, constant on each ``[t_k, t_{k+1})``; ``at(end)`` is the
    last control value."""

    kind = "piecewise-constant"
    min_points = 1

    def sample(self, times: Sequence[float]) -> list[float]:
        # the value of the rightmost control time <= t, else the first value
        _, count = self._bracket(times)
        table = np.array(self.control_values[:1] + self.control_values)
        return table[count].tolist()


class PiecewiseLinear(Interpolator):
    """Linear interpolant through the control points."""

    kind = "piecewise-linear"
    min_points = 2

    def sample(self, times: Sequence[float]) -> list[float]:
        times, count = self._bracket(times)
        control, values = np.array(self.control_times), np.array(self.control_values)
        # the bracket control[low] <= t < control[low + 1]; a time outside
        # (first, last) takes an end value below, whatever its bracket gives
        high = count.clip(1, len(control) - 1)
        low = high - 1
        with np.errstate(all="ignore"):
            weight = (times - control[low]) / (control[high] - control[low])
            inner = values[low] + weight * (values[high] - values[low])
        out = np.where(times >= control[-1], values[-1], inner)
        return np.where(times <= control[0], values[0], out).tolist()


#: The built-in interpolator classes by kind name.
INTERPOLATORS = {cls.kind: cls for cls in (PiecewiseConstant, PiecewiseLinear)}


def interpolator_create(kind: str, interval: tuple[float, float],
                        values: Sequence[float]) -> Interpolator:
    """Factory for the built-in interpolator kinds."""
    # a kind read from JSON may be a list, which a dict lookup rejects
    if not isinstance(kind, str) or kind not in INTERPOLATORS:
        raise ValidationError(
            f"unknown interpolator kind {kind!r}; choose one of {tuple(INTERPOLATORS)}"
        )
    return INTERPOLATORS[kind](interval, values)


class System(Protocol):
    """What the runner needs from a system under test.  A system may also
    have ``session()``, a context manager that :func:`falsify` enters per run."""

    #: Whether concurrent simulate calls are safe (parallel runs).
    reentrant: bool

    def simulate(self, static: Sequence[float], signals: Sequence[Interpolator],
                 interval: tuple[float, float]) -> Trace: ...


BlackboxFunc = Callable[
    [tuple[float, ...], tuple[float, ...], tuple[tuple[float, ...], ...]],
    tuple[Sequence[float], Sequence[Sequence[float]]],
]


class Blackbox:
    """System under test defined by a user function ``(X, T, U)``.

    Each input signal is sampled on an evenly spaced grid of ``steps + 1``
    points across the simulation interval.  With ``steps = control_points -
    1`` that grid is the control times, and each row of ``U`` holds the
    control values (a piecewise-linear signal's interior ``-0.0`` arrives as
    ``0.0``).  ``X``, ``T`` and each row of ``U`` are tuples of floats.

    The returned timestamps must be strictly increasing, trajectories must
    form one equal-length state row per timestamp, and the timestamps must
    stay inside ``T``'s time span (tolerance 1e-9).  A function that raises
    is reported as a :class:`SimulationError`; malformed output, including
    values ``float()`` rejects, is a :class:`TraceValidationError`.
    """

    def __init__(self, func: BlackboxFunc, steps: int = DEFAULT_STEPS, *,
                 reentrant: bool = False):
        self.func = func
        self.steps = _integer(steps, "steps", 0)
        self.reentrant = reentrant

    def simulate(self, static: Sequence[float], signals: Sequence[Interpolator],
                 interval: tuple[float, float]) -> Trace:
        start, end = _checked_interval(interval)
        times = _grid(start, end, self.steps)
        rows = tuple(tuple(s.sample(times)) for s in signals)
        try:
            timestamps, trajectories = self.func(tuple(map(float, static)), times, rows)
        except SimulationError:
            raise
        except Exception as exc:
            raise SimulationError(f"blackbox function failed: {exc!r}") from exc
        try:
            trace = Trace(timestamps, trajectories)
        except (TypeError, ValueError, OverflowError) as exc:
            # not iterable, or an entry float() rejects: a string, None, an
            # integer beyond the float range
            raise TraceValidationError(f"malformed blackbox output: {exc!r}") from exc
        if trace.times[0] < times[0] - 1e-9 or trace.times[-1] > times[-1] + 1e-9:
            raise TraceValidationError(
                f"returned timestamps [{trace.times[0]}, {trace.times[-1]}] leave "
                f"the simulation interval [{times[0]}, {times[-1]}]"
            )
        return trace


def _discard(proc: subprocess.Popen | None) -> None:
    """Reap a child, if any, first killing its process group if it runs."""
    if proc is not None:
        with proc:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)


class _ExternBlackbox(Blackbox):
    """The extern bridge as a :class:`Blackbox`, plus :meth:`session`."""

    def __init__(self, func, spares: threading.local, steps: int, reentrant: bool):
        super().__init__(func, steps, reentrant=reentrant)
        self._spares = spares

    @contextmanager
    def session(self):
        """Let each call on this thread launch the next call's child."""
        self._spares.__dict__.setdefault("proc", None)  # nested: share the spare
        try:
            yield
        finally:
            _discard(self._spares.__dict__.pop("proc", None))


def extern_blackbox(
    command: str | Sequence[str | os.PathLike],
    steps: int = DEFAULT_STEPS,
    timeout: float = 60.0,
    *,
    reentrant: bool = False,
) -> Blackbox:
    """Wrap an external executable as a blackbox system under test.

    Per simulation the child receives on standard input: line 1 the static
    parameters, line 2 the time values, then one line per input signal with
    that signal's values; every line space-separated, numbers in full
    round-trip decimal precision.  The child must write the returned
    timestamps as its first line, then one state row per timestamp.  A
    nonzero exit status (the error carries the child's standard error), no
    output, or exceeding ``timeout`` seconds is a :class:`SimulationError`.
    The output's fields go to :class:`Trace` as text, so malformed output, a
    non-numeric field included, is a :class:`TraceValidationError` as for
    every :class:`Blackbox`.
    Inside ``session()``, each call also launches the next call's child.
    A ``str`` command is one program name with no arguments; it is not split.
    Otherwise the command is a list or tuple of ``str`` or path-like parts.
    """
    if isinstance(command, str):
        command = [command]
    elif isinstance(command, (list, tuple)) and all(
            isinstance(part, (str, os.PathLike)) for part in command):
        command = [os.fspath(part) for part in command]
    else:
        raise ValidationError("extern command must be a string or a list of string or "
                              f"path-like parts, got {command!r}")
    if not command:
        raise ValidationError("extern system needs a non-empty command")
    # communicate() waits in poll(), whose limit is 2**31 - 1 milliseconds
    if not 0 < timeout <= 2147483.647:
        raise ValidationError(f"timeout must be in (0, 2147483.647] s, got {timeout}")
    spares = threading.local()

    def launch() -> subprocess.Popen:
        return subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)

    def bridge(static, times, signal_rows):
        payload = "".join(" ".join(map(repr, row)) + "\n"
                          for row in (static, times, *signal_rows))
        try:
            proc = getattr(spares, "proc", None) or launch()
        except OSError as exc:
            raise SimulationError(
                f"could not launch extern system {command[0]!r}: {exc}"
            ) from exc
        if hasattr(spares, "proc"):  # inside a session
            spares.proc = None
            with suppress(OSError):  # the next call launches and reports
                spares.proc = launch()
        try:
            stdout, stderr = proc.communicate(payload, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise SimulationError(
                f"extern system {command[0]!r} timed out after {timeout} s"
            ) from None
        finally:
            _discard(proc)
        if proc.returncode != 0:
            raise SimulationError(
                f"extern system {command[0]!r} exited with code "
                f"{proc.returncode}: {stderr.strip()}"
            )
        # the fields go to Trace as text, which float() converts once
        rows = [fields for fields in map(str.split, stdout.splitlines()) if fields]
        if not rows:
            raise SimulationError(f"extern system {command[0]!r} produced no output")
        return rows[0], rows[1:]

    return _ExternBlackbox(bridge, spares, steps, reentrant)


@functools.lru_cache(maxsize=32)
def _grid(start: float, end: float, steps: int) -> tuple[float, ...]:
    """``steps + 1`` evenly spaced times from ``start`` to ``end``, ``(start,)``
    for no steps: the control times of an interpolator and the time grid of
    every system.  An interval too short for ``steps + 1`` strictly
    increasing times is a :class:`~stlfalsify.errors.ValidationError`.

    Cached: a campaign asks for the same grid on every call.  ``-0.0`` and
    ``0.0`` share an entry, which is safe because the first point is
    ``start + 0.0``, ``0.0`` for both."""
    span = end - start
    grid = tuple(start + span * k / max(steps, 1) for k in range(steps + 1))
    if not all(earlier < later for earlier, later in zip(grid, grid[1:])):
        raise ValidationError(f"interval ({start}, {end}) is too short for {steps} steps")
    return grid


@functools.lru_cache(maxsize=32)
def _stage_times(start: float, end: float, steps: int) -> tuple[float, ...]:
    """RK4 stage times in order: grid[0], mid[0], grid[1], mid[1], ...,
    grid[steps], where mid[k] = grid[k] + h / 2."""
    grid = _grid(start, end, steps)
    half = (end - start) / steps / 2.0
    stages = [0.0] * (2 * steps + 1)
    stages[0::2] = grid
    stages[1::2] = [t + half for t in grid[:-1]]
    return tuple(stages)


DerivativeFunc = Callable[[float, Sequence[float], Sequence[float]], Sequence[float]]


class _WrongDimension(Exception):
    """A derivative result whose length differs from the state's."""


# One RK4 loop per state dimension, with the state held in scalars
# x0..x{d-1}: no per-step list comprehension or zip.  The arithmetic is the
# vector form's, coordinate by coordinate and in the same order, so results
# are bit-identical for every dimension.  ``$``-fields are filled in by
# _rk4_loop.
_RK4_TEMPLATE = string.Template("""\
def rk4(derivative, state, stage_rows, h, half, sixth):
    [$x] = state
    rows = [($x_row)]
    for t, t_mid, t_next, u0, u_mid, u1 in stage_rows:
        stage_t = t
        try:
$stage_a
            stage_t = t_mid
$stage_b
$stage_c
            stage_t = t_next
$stage_d
        except _WrongDimension as wrong:
            raise SimulationError(
                f"derivative returned dimension {wrong.args[0]} for state "
                f"dimension $dimension at t={stage_t}"
            ) from None
        except Exception as exc:
            raise SimulationError(
                f"derivative function failed at t={stage_t}: {exc!r}"
            ) from exc
$update
        # a finite sum implies finite terms; only an overflowing sum needs
        # the per-element check
        if not isfinite($x_sum) and not all(map(isfinite, ($x_row))):
            raise SimulationError(f"state became non-finite at t={t_next}")
        rows.append(($x_row))
    return rows
""")

# One derivative call, its result unpacked into the scalars $k as soon as
# it returns and converted coordinate by coordinate with float(): no
# temporary list for a tuple or list.  Any other iterable is converted while
# it is iterated, so an entry float() rejects fails before a later error of
# the iterator; on a wrong length the entries are converted before they are
# counted, so a conversion error wins over the dimension error.
_RK4_STAGE = string.Template("""\
            k = derivative($arguments)
            if type(k) is not tuple and type(k) is not list:
                k = list(map(float, k))
            try:
                [$k] = k
            except ValueError:
                raise _WrongDimension(len(list(map(float, k)))) from None
$to_float""")


def _balanced_sum(terms: list[str]) -> str:
    """``terms`` added as a balanced tree, so the expression nests only
    log2(len(terms)) deep; a left-to-right chain of a few thousand terms
    exceeds the compiler's recursion limit."""
    if len(terms) <= 1:
        return terms[0] if terms else "0.0"
    middle = len(terms) // 2
    return f"({_balanced_sum(terms[:middle])} + {_balanced_sum(terms[middle:])})"


@functools.lru_cache(maxsize=32)
def _rk4_loop(dimension: int) -> Callable:
    """The RK4 loop for ``dimension`` state coordinates, compiled on first
    use: ``rk4(derivative, state, stage_rows, h, half, sixth)`` returns the
    state rows at every step boundary."""
    x, a, b, c, d = ([f"{name}{i}" for i in range(dimension)] for name in "xabcd")

    def stage(t, state, u, k):
        return _RK4_STAGE.substitute(
            arguments=f"{t}, [{', '.join(state)}], {u}",
            k=", ".join(k),
            to_float="\n".join(f"            {ki} = float({ki})" for ki in k),
        )

    source = _RK4_TEMPLATE.substitute(
        dimension=dimension,
        x=", ".join(x),
        x_row="".join(f"{xi}, " for xi in x),
        stage_a=stage("t", x, "u0", a),
        stage_b=stage("t_mid", [f"{xi} + half * {ai}" for xi, ai in zip(x, a)], "u_mid", b),
        stage_c=stage("t_mid", [f"{xi} + half * {bi}" for xi, bi in zip(x, b)], "u_mid", c),
        stage_d=stage("t_next", [f"{xi} + h * {ci}" for xi, ci in zip(x, c)], "u1", d),
        update="\n".join(
            f"        {xi} = {xi} + sixth * ({ai} + 2.0 * {bi} + 2.0 * {ci} + {di})"
            for xi, ai, bi, ci, di in zip(x, a, b, c, d)
        ),
        x_sum=_balanced_sum(x),
    )
    namespace = {
        "SimulationError": SimulationError,
        "_WrongDimension": _WrongDimension,
        "isfinite": math.isfinite,
    }
    exec(compile(source, f"<rk4 loop, dimension {dimension}>", "exec"), namespace)
    return namespace["rk4"]


def ode_simulate(derivative: DerivativeFunc, initial_state: Sequence[float],
                 interval: tuple[float, float], signals: Sequence[Interpolator],
                 step: float) -> Trace:
    """Integrate ``dx/dt = derivative(t, x, u(t))`` with classical RK4.

    The interval is divided into ``round((end - start) / step)`` uniform
    steps (at least one) so both endpoints land exactly on the grid; the
    trace holds the state at every step boundary.  Each derivative call
    receives the state as a new list and the signal values as a tuple, one
    per signal, which both midpoint stages of a step share; its result may
    be any iterable of numbers, is read before the next call, is converted
    with ``float`` and must have the state's length.  A step so small that
    the step count is not finite is a :class:`ValidationError`.
    Integration aborts with a :class:`SimulationError` naming the time at
    which the state first went non-finite, or the stage time at which the
    derivative raised or returned the wrong dimension.
    """
    if not step > 0:
        raise ValidationError(f"step must be positive, got {step}")
    start, end = _checked_interval(interval)
    span = end - start
    count = span / step
    if not math.isfinite(count):
        raise ValidationError(f"step {step} is too small for interval ({start}, {end})")
    steps = max(1, round(count))
    h = span / steps
    half = h / 2.0
    sixth = h / 6.0

    grid = _grid(start, end, steps)
    # every signal is sampled once at each stage time
    stages = _stage_times(start, end, steps)
    if signals:
        inputs = list(zip(*(s.sample(stages) for s in signals)))
    else:
        inputs = [()] * len(stages)

    state = [float(x) for x in initial_state]
    stage_rows = zip(stages[0::2], stages[1::2], stages[2::2],
                     inputs[0::2], inputs[1::2], inputs[2::2])
    rows = _rk4_loop(len(state))(derivative, state, stage_rows, h, half, sixth)
    # the first stage time is start + 0.0, which turns -0.0 into 0.0; the
    # trace keeps start itself
    return Trace((start,) + grid[1:], tuple(rows))


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
        initial = static if self.initial_state is None else self.initial_state(static)
        step = self.step
        if step is None:
            step = (float(interval[1]) - float(interval[0])) / DEFAULT_STEPS
        return ode_simulate(self.derivative, initial, interval, signals, step)
