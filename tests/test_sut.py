"""System-under-test layer: interpolators, blackbox adapter, RK4 integrator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from naive_interpolator import bisect_at
from stlfalsify.errors import SimulationError, TraceValidationError, ValidationError
from stlfalsify.monitor import Trace
from stlfalsify.sut import (
    Blackbox,
    OdeSystem,
    interpolator_create,
    ode_simulate,
)


def echo(static, times, signal_rows):
    """Blackbox that replays its input signals as the state trajectory."""
    if signal_rows:
        states = list(zip(*signal_rows))
    else:
        states = [(0.0,)] * len(times)
    return times, states


class TestInterpolators:
    def test_single_value_is_constant(self):
        signal = interpolator_create("piecewise-constant", (0.0, 10.0), [5.0])
        for t in (0.0, 3.3, 10.0):
            assert signal.at(t) == 5.0
        assert signal.control_times == (0.0,)

    def test_linear_midpoint(self):
        signal = interpolator_create("piecewise-linear", (0.0, 1.0), [0.0, 2.0])
        assert signal.at(0.5) == 1.0

    def test_constant_breakpoints_evenly_spaced(self):
        signal = interpolator_create("piecewise-constant", (0.0, 3.0), [1.0, 2.0, 3.0])
        assert signal.control_times == (0.0, 1.5, 3.0)
        assert signal.at(1.5) == 2.0
        assert signal.at(1.499) == 1.0
        assert signal.at(2.9) == 2.0

    def test_constant_right_end_takes_last_value(self):
        signal = interpolator_create("piecewise-constant", (0.0, 3.0), [1.0, 2.0, 3.0])
        assert signal.at(3.0) == 3.0

    @pytest.mark.parametrize("kind", ["piecewise-constant", "piecewise-linear"])
    def test_endpoints_hit_first_and_last_value(self, kind):
        signal = interpolator_create(kind, (2.0, 6.0), [4.0, -1.0, 0.5])
        assert signal.at(2.0) == 4.0
        assert signal.at(6.0) == 0.5
        assert signal.control_times[0] == 2.0
        assert signal.control_times[-1] == 6.0

    def test_linear_continuity_at_breakpoints(self):
        signal = interpolator_create("piecewise-linear", (0.0, 4.0), [0.0, 8.0, -4.0])
        for breakpoint in signal.control_times[1:-1]:
            left = signal.at(breakpoint - 1e-9)
            right = signal.at(breakpoint + 1e-9)
            assert abs(left - signal.at(breakpoint)) < 1e-6
            assert abs(right - signal.at(breakpoint)) < 1e-6

    @pytest.mark.parametrize("kind", ["piecewise-constant", "piecewise-linear"])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_time_rejected(self, kind, position):
        # a NaN is neither before nor after any control time, so its value
        # would depend on the order of the lookup
        signal = interpolator_create(kind, (0.0, 3.0), [1.0, 2.0, 3.0])
        times = [0.5, 2.0, 2.5]
        times[position] = math.nan
        with pytest.raises(ValidationError, match="NaN"):
            signal.sample(times)

    @pytest.mark.parametrize("kind", ["piecewise-constant", "piecewise-linear"])
    def test_nan_at_rejected(self, kind):
        signal = interpolator_create(kind, (0.0, 3.0), [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="NaN"):
            signal.at(math.nan)

    def test_linear_needs_two_values(self):
        message = "^piecewise-linear signal needs at least 2 values$"
        with pytest.raises(ValidationError, match=message):
            interpolator_create("piecewise-linear", (0.0, 1.0), [1.0])

    def test_constant_needs_one_value(self):
        message = "^piecewise-constant signal needs at least 1 value$"
        with pytest.raises(ValidationError, match=message):
            interpolator_create("piecewise-constant", (0.0, 1.0), [])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            interpolator_create("spline", (0.0, 1.0), [1.0, 2.0])

    def test_unhashable_kind_rejected(self):
        with pytest.raises(ValidationError, match=r"choose one of \('piecewise-constant', "
                                                  r"'piecewise-linear'\)"):
            interpolator_create(["piecewise-linear"], (0.0, 1.0), [1.0, 2.0])

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValidationError):
            interpolator_create("piecewise-constant", (1.0, 0.0), [1.0])

    def test_interval_too_short_for_its_control_points(self):
        # three control times on an interval one float wide cannot increase
        with pytest.raises(ValidationError, match="too short for 2 steps"):
            interpolator_create("piecewise-linear", (1.0, math.nextafter(1.0, 2.0)),
                                (0.0, 1.0, 2.0))

    @pytest.mark.parametrize("interval", [(0.0, math.inf), (-math.inf, 0.0),
                                          (-1e308, 1e308)])
    def test_interval_of_infinite_length_rejected(self, interval):
        # an infinite length gives NaN signal values
        with pytest.raises(ValidationError, match="finite length"):
            interpolator_create("piecewise-linear", interval, (0.0, 1.0))

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["piecewise-constant", "piecewise-linear"]),
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=8),
        st.floats(0.0, 1.0),
    )
    def test_values_stay_within_control_range(self, kind, values, position):
        signal = interpolator_create(kind, (0.0, 5.0), values)
        t = 5.0 * position
        assert min(values) <= signal.at(t) <= max(values)


def returning(timestamps, trajectories):
    """Blackbox function that ignores its input and returns the given output."""
    return lambda static, times, signals: (timestamps, trajectories)


class TestBlackboxSimulate:
    def test_echo_round_trip(self):
        ramp = interpolator_create("piecewise-linear", (0.0, 2.0), [5.0, 7.0])
        trace = Blackbox(echo, steps=2).simulate((), (ramp,), (0.0, 2.0))
        assert trace.times == (0.0, 1.0, 2.0)
        assert trace.states == ((5.0,), (6.0,), (7.0,))

    @pytest.mark.parametrize("dense", [True, False])
    def test_coerces_to_floats(self, dense):
        # a dense grid, or the control grid with steps = control_points - 1
        captured = []

        def probe(static, times, signals):
            captured.extend((static, times, *signals))
            return times, [(0.0,)] * len(times)

        signal = interpolator_create("piecewise-constant", (0, 1), [2, 3])
        Blackbox(probe, steps=2 if dense else 1).simulate((1,), (signal,), (0, 1))
        expected = [(0.0, 0.5, 1.0), (2.0, 2.0, 3.0)] if dense else [(0.0, 1.0), (2.0, 3.0)]
        assert captured == [(1.0,), *expected]
        assert {type(part) for part in captured} == {tuple}
        assert {type(value) for part in captured for value in part} == {float}

    def test_user_exception_becomes_simulation_error(self):
        def broken(static, times, signals):
            raise RuntimeError("engine fell over")

        with pytest.raises(SimulationError, match="engine fell over"):
            Blackbox(broken, steps=1).simulate((), (), (0.0, 1.0))

    def test_non_monotone_timestamps_rejected(self):
        bad = returning((1.0, 0.5), ((0.0,), (0.0,)))
        with pytest.raises(TraceValidationError, match="monotone"):
            Blackbox(bad, steps=1).simulate((), (), (0.0, 1.0))

    def test_ragged_trajectory_rejected(self):
        bad = returning((0.0, 1.0), ((0.0,), (0.0, 1.0)))
        with pytest.raises(TraceValidationError):
            Blackbox(bad, steps=1).simulate((), (), (0.0, 1.0))

    def test_timestamps_outside_interval_rejected(self):
        for timestamps in ((0.0, 99.0), (-1.0, 0.5)):
            bad = returning(timestamps, ((0.0,), (0.0,)))
            with pytest.raises(TraceValidationError, match="leave the simulation interval"):
                Blackbox(bad, steps=1).simulate((), (), (0.0, 1.0))

    def test_row_count_mismatch_rejected(self):
        bad = returning((0.0, 1.0), ((0.0,),))
        with pytest.raises(TraceValidationError):
            Blackbox(bad, steps=1).simulate((), (), (0.0, 1.0))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=10, unique=True
        ).map(sorted),
        st.floats(-5, 5, allow_nan=False),
    )
    def test_valid_outputs_pass_through_unmodified(self, times, level):
        steady = returning(tuple(times), tuple((level,) for _ in times))
        trace = Blackbox(steady, steps=1).simulate((), (), (0.0, 1.0))
        assert trace.times == tuple(times)
        assert all(row == (level,) for row in trace.states)


class TestBlackboxSystem:
    def test_interval_of_infinite_length_rejected(self):
        with pytest.raises(ValidationError, match="finite length"):
            Blackbox(echo, steps=4).simulate((), (), (0.0, math.inf))

    def test_dense_grid_has_steps_plus_one_points(self):
        captured = {}

        def probe(static, times, signals):
            captured["times"] = times
            captured["signals"] = signals
            return times, [(0.0,)] * len(times)

        signal = interpolator_create("piecewise-constant", (0.0, 1.0), [2.0, 4.0])
        Blackbox(probe, steps=4).simulate((7.0,), (signal,), (0.0, 1.0))
        assert captured["times"] == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert captured["signals"] == ((2.0, 2.0, 2.0, 2.0, 4.0),)

    def test_raw_control_points_pass_through(self):
        # steps = control_points - 1: T is the control grid and U the control
        # values, bit for bit apart from an interior -0.0 of a linear signal
        values = [1.0, -0.0, 3.0, -2.5, -0.0]
        arrived = {"piecewise-constant": values,
                   "piecewise-linear": [1.0, 0.0, 3.0, -2.5, -0.0]}
        for kind, expected in arrived.items():
            captured = {}

            def probe(static, times, signals):
                captured.update(times=times, signals=signals)
                return times, [(0.0,)] * len(times)

            signal = interpolator_create(kind, (0.0, 3.0), values)
            Blackbox(probe, steps=len(values) - 1).simulate((), (signal,), (0.0, 3.0))
            assert all(map(bit_equal, captured["times"], signal.control_times))
            [row] = captured["signals"]
            assert len(row) == len(expected)
            assert all(map(bit_equal, row, expected))

    @pytest.mark.parametrize("kind", ["piecewise-constant", "piecewise-linear"])
    def test_control_grid_is_the_cached_grid(self, kind):
        # two signals of the same count share the one cached control grid
        captured = {}

        def probe(static, times, signals):
            captured.update(times=times, signals=signals)
            return times, [(0.0,)] * len(times)

        a = interpolator_create(kind, (0.0, 3.0), [1.0, 2.0, 3.0])
        b = interpolator_create(kind, (0.0, 3.0), [9.0, 8.0, 7.0])
        Blackbox(probe, steps=2).simulate((), (a, b), (0.0, 3.0))
        assert captured["times"] is a.control_times
        assert captured["signals"] == ((1.0, 2.0, 3.0), (9.0, 8.0, 7.0))

    def test_raw_single_control_point(self):
        # steps=0: the start alone, not 0 / 0
        captured = {}

        def probe(static, times, signals):
            captured.update(times=times, signals=signals)
            return times, [(0.0,)] * len(times)

        signal = interpolator_create("piecewise-constant", (0.5, 1.0), [2.0])
        trace = Blackbox(probe, steps=0).simulate((), (signal,), (0.5, 1.0))
        assert captured == {"times": (0.5,), "signals": ((2.0,),)}
        assert trace.times == (0.5,)

    def test_not_reentrant_by_default(self):
        assert Blackbox(echo).reentrant is False

    def test_steps_validated(self):
        with pytest.raises(ValidationError, match="steps must be >= 0"):
            Blackbox(echo, steps=-1)

    def test_reentrant_is_keyword_only(self):
        # a third positional argument was once the interpolate flag
        with pytest.raises(TypeError):
            Blackbox(echo, 4, False)

    @pytest.mark.parametrize("steps", [2.5, 4.0, "4", True])
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(ValidationError, match="steps must be an integer"):
            Blackbox(echo, steps=steps)


class TestOdeSimulate:
    def test_interval_of_infinite_length_rejected(self):
        # not the OverflowError of round(inf / step)
        with pytest.raises(ValidationError, match="finite length"):
            ode_simulate(lambda t, x, u: (0.0,), (1.0,), (0.0, math.inf), (), 0.25)

    def test_zero_derivative_holds_state(self):
        trace = ode_simulate(lambda t, x, u: (0.0,), (1.0,), (0.0, 1.0), (), 0.25)
        assert trace.times == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert all(row == (1.0,) for row in trace.states)

    def test_unit_slope_integrates_to_duration(self):
        trace = ode_simulate(lambda t, x, u: (1.0,), (0.0,), (0.0, 1.0), (), 0.1)
        assert trace.states[-1][0] == pytest.approx(1.0, abs=1e-12)

    def test_harmonic_oscillator_endpoint(self):
        def harmonic(t, state, u):
            return (state[1], -state[0])

        trace = ode_simulate(harmonic, (1.0, 0.0), (0.0, 2.0 * math.pi), (), 1e-3)
        error = math.hypot(trace.states[-1][0] - 1.0, trace.states[-1][1])
        assert error <= 1e-6

    def test_signal_feeds_stage_times(self):
        # dx/dt = u(t) with u linear in t integrates exactly under the
        # fourth-order scheme
        ramp = interpolator_create("piecewise-linear", (0.0, 1.0), [0.0, 2.0])
        trace = ode_simulate(lambda t, x, u: (u[0],), (0.0,), (0.0, 1.0), (ramp,), 0.25)
        assert trace.states[-1][0] == pytest.approx(1.0, abs=1e-12)

    def test_fractional_duration_lands_on_endpoints(self):
        trace = ode_simulate(lambda t, x, u: (1.0,), (0.0,), (0.0, 1.0), (), 0.3)
        assert trace.times[0] == 0.0
        assert trace.times[-1] == 1.0
        assert len(trace) == 4  # round(1.0 / 0.3) = 3 steps

    def test_blow_up_names_the_time(self):
        def explode(t, state, u):
            return (state[0] * state[0],)

        with pytest.raises(SimulationError, match="t="):
            ode_simulate(explode, (1e200,), (0.0, 1.0), (), 0.1)

    def test_derivative_exception_wrapped(self):
        def broken(t, state, u):
            raise ZeroDivisionError("bad model")

        with pytest.raises(SimulationError, match="bad model"):
            ode_simulate(broken, (1.0,), (0.0, 1.0), (), 0.1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(SimulationError, match="dimension"):
            ode_simulate(lambda t, x, u: (1.0, 2.0), (0.0,), (0.0, 1.0), (), 0.1)

    def test_step_must_be_positive(self):
        with pytest.raises(ValidationError):
            ode_simulate(lambda t, x, u: (0.0,), (1.0,), (0.0, 1.0), (), 0.0)

    def test_step_count_beyond_float_range_rejected(self):
        # not the OverflowError of round(inf)
        with pytest.raises(ValidationError, match="too small"):
            ode_simulate(lambda t, x, u: (0.0,), (0.0,), (0.0, 1e300), (), 1e-10)

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_signal_values_arrive_as_one_tuple(self, count):
        # immutable, so the two midpoint stages that share one cannot see
        # each other's changes
        inputs = []

        def derivative(t, x, u):
            inputs.append(u)
            return (0.0,)

        signals = [interpolator_create("piecewise-constant", (0.0, 1.0), [1.0, 2.0])] * count
        ode_simulate(derivative, (0.0,), (0.0, 1.0), signals, 0.5)
        assert {type(u) for u in inputs} == {tuple}
        assert {len(u) for u in inputs} == {count}

    def test_order_four_convergence(self):
        def harmonic(t, state, u):
            return (state[1], -state[0])

        def endpoint_error(step):
            trace = ode_simulate(harmonic, (1.0, 0.0), (0.0, 2.0 * math.pi), (), step)
            return math.hypot(trace.states[-1][0] - 1.0, trace.states[-1][1])

        steps = [0.1, 0.05, 0.025]
        errors = [endpoint_error(s) for s in steps]
        for bigger, smaller in zip(errors, errors[1:]):
            assert bigger / smaller >= 12.0


class TestOdeSystem:
    def test_static_params_are_initial_state_by_default(self):
        system = OdeSystem(lambda t, x, u: (0.0, 0.0), step=0.5)
        trace = system.simulate((3.0, 4.0), (), (0.0, 1.0))
        assert trace.states[0] == (3.0, 4.0)

    def test_initial_state_mapping(self):
        system = OdeSystem(
            lambda t, x, u: (0.0, 0.0),
            initial_state=lambda static: (static[0], 0.0),
            step=0.5,
        )
        trace = system.simulate((3.0,), (), (0.0, 1.0))
        assert trace.states[0] == (3.0, 0.0)

    def test_default_step_is_thousandth_of_interval(self):
        system = OdeSystem(lambda t, x, u: (1.0,))
        trace = system.simulate((0.0,), (), (0.0, 10.0))
        assert len(trace) == 1001

    def test_reentrant_by_default(self):
        assert OdeSystem(lambda t, x, u: (0.0,)).reentrant is True

    def test_returns_trace(self):
        system = OdeSystem(lambda t, x, u: (0.0,), step=0.5)
        assert isinstance(system.simulate((1.0,), (), (0.0, 1.0)), Trace)


def bit_equal(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def seed_ode_simulate(derivative, initial_state, interval, signals, step):
    """The first RK4 loop of the package, kept as the oracle for the
    optimized one: every stage time recomputed, every signal value found by
    bisection, every derivative call wrapped."""
    start, end = float(interval[0]), float(interval[1])
    span = end - start
    steps = max(1, round(span / step))
    h = span / steps

    def call(t, state, u):
        try:
            result = [float(d) for d in derivative(t, state, u)]
        except Exception as exc:
            raise SimulationError(f"derivative function failed at t={t}: {exc!r}") from exc
        if len(result) != len(state):
            raise SimulationError(
                f"derivative returned dimension {len(result)} for state "
                f"dimension {len(state)} at t={t}"
            )
        return result

    state = [float(x) for x in initial_state]
    times = [start]
    rows = [tuple(state)]
    for k in range(steps):
        t = start + span * k / steps
        t_mid = t + h / 2.0
        t_next = start + span * (k + 1) / steps
        u0 = [bisect_at(s, t) for s in signals]
        u_mid = [bisect_at(s, t_mid) for s in signals]
        u1 = [bisect_at(s, t_next) for s in signals]
        k1 = call(t, state, u0)
        k2 = call(t_mid, [x + h / 2.0 * d for x, d in zip(state, k1)], u_mid)
        k3 = call(t_mid, [x + h / 2.0 * d for x, d in zip(state, k2)], u_mid)
        k4 = call(t_next, [x + h * d for x, d in zip(state, k3)], u1)
        state = [
            x + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
            for x, a, b, c, d in zip(state, k1, k2, k3, k4)
        ]
        if not all(math.isfinite(x) for x in state):
            raise SimulationError(f"state became non-finite at t={t_next}")
        times.append(t_next)
        rows.append(tuple(state))
    return Trace(tuple(times), tuple(rows))


def assert_traces_bit_equal(actual, expected):
    assert len(actual) == len(expected)
    assert all(map(bit_equal, actual.times, expected.times))
    for row, expected_row in zip(actual.states, expected.states):
        assert all(map(bit_equal, row, expected_row))


KINDS = ("piecewise-constant", "piecewise-linear")


@st.composite
def interval_and_signal(draw):
    kind = draw(st.sampled_from(KINDS))
    start = draw(st.floats(-100.0, 100.0, allow_nan=False))
    end = start + draw(st.floats(1e-3, 100.0, allow_nan=False))
    count = draw(st.integers(1 if kind == "piecewise-constant" else 2, 9))
    values = draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False),
                           min_size=count, max_size=count))
    return (start, end), interpolator_create(kind, (start, end), values)


class TestSampleWalk:
    @settings(max_examples=300, deadline=None)
    @given(interval_and_signal(), st.integers(1, 60), st.data())
    def test_walk_matches_at_bit_for_bit(self, setup, steps, data):
        (start, end), signal = setup
        span = end - start
        grid = [start + span * k / steps for k in range(steps + 1)]
        half = span / steps / 2.0
        # RK4 stage times, the control times themselves, and times outside
        # the interval, infinite ones included, in increasing order
        outside = st.floats(start - 5.0, end + 5.0) | st.sampled_from((-math.inf, math.inf))
        times = sorted(
            grid
            + [t + half for t in grid[:-1]]
            + list(signal.control_times)
            + data.draw(st.lists(outside, max_size=10))
        )
        expected = [bisect_at(signal, t) for t in times]
        assert all(map(bit_equal, signal.sample(times), expected))

    @settings(max_examples=100, deadline=None)
    @given(interval_and_signal(), st.data())
    def test_walk_matches_at_in_any_order(self, setup, data):
        (start, end), signal = setup
        points = (st.sampled_from(signal.control_times) | st.floats(start - 1.0, end + 1.0)
                  | st.sampled_from((-math.inf, math.inf)))
        times = data.draw(st.lists(points, max_size=20))
        expected = [bisect_at(signal, t) for t in times]
        assert all(map(bit_equal, signal.sample(times), expected))
        assert all(map(bit_equal, map(signal.at, times), expected))

    @settings(max_examples=50, deadline=None)
    @given(interval_and_signal(), st.integers(0, 2**32 - 1))
    def test_long_unsorted_queries_match_at(self, setup, seed):
        # 10^3 times in random order: the control times, both infinities
        # and times in and around the interval
        (start, end), signal = setup
        rng = np.random.default_rng(seed)
        special = list(signal.control_times) + [-math.inf, math.inf]
        times = np.concatenate((special, rng.uniform(start - 1.0, end + 1.0,
                                                     1000 - len(special))))
        rng.shuffle(times)
        times = times.tolist()
        expected = [bisect_at(signal, t) for t in times]
        assert all(map(bit_equal, signal.sample(times), expected))

    def test_single_control_point(self):
        signal = interpolator_create("piecewise-constant", (0.0, 2.0), [3.5])
        assert signal.sample([-1.0, 0.0, 1.0, 2.0, 3.0]) == [3.5] * 5


class WrongArithmetic(float):
    """A float whose own arithmetic is wrong: only ``float()`` of it gives
    the right value, so a stage result used unconverted shows."""

    def __add__(self, other):
        return math.nan

    __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __add__


def float32_array(values):
    # float32 overflows to inf before float64 does; the integrator reports
    # that as a non-finite state, so the cast warning is noise
    with np.errstate(over="ignore"):
        return np.array(values, dtype=np.float32)


#: Ways a derivative may hand back its result: the loop must accept any
#: iterable of numbers and convert it with float().
RESULT_FORMS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda values: (value for value in values),
    "numpy": np.array,
    "numpy-float32": float32_array,
    "int": lambda values: [round(value) for value in values],
    "float-subclass": lambda values: [WrongArithmetic(value) for value in values],
}


@st.composite
def random_systems(draw):
    """A random polynomial derivative of dimension 0-6 driven by 0-2 signals,
    returning its result in one of ``RESULT_FORMS``."""
    dimension = draw(st.integers(0, 6))
    coefficient = st.floats(-2.0, 2.0, allow_nan=False)
    linear = draw(st.lists(st.lists(coefficient, min_size=dimension, max_size=dimension),
                           min_size=dimension, max_size=dimension))
    quadratic = draw(st.lists(coefficient, min_size=dimension, max_size=dimension))
    drift = draw(coefficient)
    start = draw(st.floats(-10.0, 10.0, allow_nan=False))
    end = start + draw(st.floats(0.1, 10.0, allow_nan=False))
    signals = []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(KINDS))
        count = draw(st.integers(1 if kind == "piecewise-constant" else 2, 6))
        values = draw(st.lists(coefficient, min_size=count, max_size=count))
        signals.append(interpolator_create(kind, (start, end), values))
    weights = draw(st.lists(coefficient, min_size=len(signals), max_size=len(signals)))
    form = RESULT_FORMS[draw(st.sampled_from(sorted(RESULT_FORMS)))]

    def derivative(t, state, u):
        forcing = drift * t
        for w, value in zip(weights, u):
            forcing += w * value
        return form([
            sum(a * x for a, x in zip(row, state)) + q * state[i] * state[i - 1] + forcing
            for i, (row, q) in enumerate(zip(linear, quadratic))
        ])

    initial = draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False),
                            min_size=dimension, max_size=dimension))
    step = (end - start) / draw(st.integers(1, 80))
    return derivative, initial, (start, end), signals, step


class TestOdeSimulateMatchesSeedLoop:
    @settings(max_examples=150, deadline=None)
    @given(random_systems())
    def test_bit_for_bit(self, system):
        try:
            expected = seed_ode_simulate(*system)
        except SimulationError as exc:
            with pytest.raises(SimulationError) as raised:
                ode_simulate(*system)
            assert str(raised.value) == str(exc)
        else:
            assert_traces_bit_equal(ode_simulate(*system), expected)

    def test_benchmark_systems_bit_for_bit(self):
        from stlfalsify import get_benchmark
        from stlfalsify.runner import decompose_sample

        for name, sample in (("oscillator", (0.9, 0.2, -0.1, 0.05, -0.2)),
                             ("nonlinear2d", (1.7, 0.3))):
            bench = get_benchmark(name)
            static, signals = decompose_sample(sample, bench.options)
            initial = (static[0], 0.0) if name == "oscillator" else static
            args = (bench.system.derivative, initial, bench.options.interval,
                    signals, bench.system.step)
            assert_traces_bit_equal(ode_simulate(*args), seed_ode_simulate(*args))

    def test_dimension_beyond_expression_nesting_limit(self):
        # a left-to-right sum of this many coordinates would exceed the
        # compiler's recursion limit
        args = (lambda t, x, u: [-v for v in x], [1.0] * 3000, (0.0, 1.0), (), 0.5)
        assert_traces_bit_equal(ode_simulate(*args), seed_ode_simulate(*args))

    @pytest.mark.parametrize("form", sorted(RESULT_FORMS))
    def test_states_are_exact_floats(self, form):
        convert = RESULT_FORMS[form]
        args = (lambda t, x, u: convert([x[1] + u[0], -x[0]]), [1.0, 0.5], (0.0, 2.0),
                [interpolator_create("piecewise-linear", (0.0, 2.0), [0.3, -0.7])], 0.25)
        trace = ode_simulate(*args)
        assert_traces_bit_equal(trace, seed_ode_simulate(*args))
        assert {type(value) for row in trace.states for value in row} == {float}

    def test_result_list_mutated_after_return(self):
        # one list, returned by every call and overwritten by the next: each
        # stage must read its values before the next call
        shared = [0.0, 0.0]

        def derivative(t, state, u):
            shared[0], shared[1] = state[1], -state[0] - 0.1 * state[1] + u[0]
            return shared

        signal = interpolator_create("piecewise-constant", (0.0, 3.0), [0.2, -0.1, 0.4])
        args = (derivative, [0.9, 0.0], (0.0, 3.0), [signal], 0.05)
        assert_traces_bit_equal(ode_simulate(*args), seed_ode_simulate(*args))

    @pytest.mark.parametrize("dimension", [0, 1, 5])
    def test_wrong_dimension_in_any_dimension(self, dimension):
        args = (lambda t, x, u: [0.0] * (dimension + 1), [1.0] * dimension,
                (0.0, 1.0), (), 0.25)
        with pytest.raises(SimulationError) as raised:
            ode_simulate(*args)
        with pytest.raises(SimulationError) as expected:
            seed_ode_simulate(*args)
        assert str(raised.value) == str(expected.value) == (
            f"derivative returned dimension {dimension + 1} for state "
            f"dimension {dimension} at t=0.0")

    @staticmethod
    def failing_on(call, result):
        """Derivative that returns ``result()`` on its ``call``-th call (1-based)."""
        calls = []

        def derivative(t, state, u):
            calls.append(t)
            if len(calls) == call:
                return result()
            return [-x for x in state]

        return derivative

    @staticmethod
    def error_of(simulate, derivative):
        with pytest.raises(SimulationError) as raised:
            simulate(derivative, (1.0, 2.0), (0.0, 1.0), (), 0.25)
        return str(raised.value)

    @pytest.mark.parametrize("call, stage_time", [
        (1, "t=0.0"), (2, "t=0.125"), (3, "t=0.125"), (4, "t=0.25"),
        (5, "t=0.25"), (8, "t=0.5"),
    ])
    def test_raise_names_the_stage_time(self, call, stage_time):
        def boom():
            raise RuntimeError("stage failed")

        message = self.error_of(ode_simulate, self.failing_on(call, boom))
        assert message == self.error_of(seed_ode_simulate, self.failing_on(call, boom))
        assert message == f"derivative function failed at {stage_time}: RuntimeError('stage failed')"

    @pytest.mark.parametrize("call, stage_time", [
        (1, "t=0.0"), (2, "t=0.125"), (3, "t=0.125"), (4, "t=0.25"),
    ])
    @pytest.mark.parametrize("length", [1, 3])
    def test_wrong_dimension_names_the_stage_time(self, call, stage_time, length):
        def wrong():
            return [0.0] * length

        message = self.error_of(ode_simulate, self.failing_on(call, wrong))
        assert message == self.error_of(seed_ode_simulate, self.failing_on(call, wrong))
        assert message == (f"derivative returned dimension {length} for state "
                           f"dimension 2 at {stage_time}")

    @pytest.mark.parametrize("length", [1, 3])
    def test_wrong_dimension_from_a_generator(self, length):
        # a generator has no length until it is consumed
        def wrong():
            return (0.0 for _ in range(length))

        message = self.error_of(ode_simulate, self.failing_on(3, wrong))
        assert message == self.error_of(seed_ode_simulate, self.failing_on(3, wrong))
        assert message == (f"derivative returned dimension {length} for state "
                           f"dimension 2 at t=0.125")

    @pytest.mark.parametrize("result", [
        lambda: [0.0, 0.0, "x"],
        lambda: ["x"],
        lambda: (value for value in (0.0, 0.0, None)),
        lambda: iter(["x"]),
    ], ids=["long-list", "short-list", "long-generator", "short-iterator"])
    def test_conversion_error_wins_over_wrong_dimension(self, result):
        message = self.error_of(ode_simulate, self.failing_on(2, result))
        assert message == self.error_of(seed_ode_simulate, self.failing_on(2, result))
        assert message.startswith("derivative function failed at t=0.125: ")

    def test_iterator_converted_while_iterated(self):
        # the element that float() rejects comes before the iterator's own
        # failure, so the conversion error is the one reported
        def result():
            yield "x"
            raise RuntimeError("iterator failed")

        message = self.error_of(ode_simulate, self.failing_on(1, result))
        assert message == self.error_of(seed_ode_simulate, self.failing_on(1, result))
        assert message == ("derivative function failed at t=0.0: "
                           "ValueError(\"could not convert string to float: 'x'\")")

    def test_non_finite_state_names_the_step_end(self):
        def blow_up():
            return [math.inf, 0.0]

        message = self.error_of(ode_simulate, self.failing_on(6, blow_up))
        assert message == self.error_of(seed_ode_simulate, self.failing_on(6, blow_up))
        assert message == "state became non-finite at t=0.5"

    def test_finite_state_with_overflowing_sum_continues(self):
        trace = ode_simulate(lambda t, x, u: (0.0, 0.0), (1e308, 1e308), (0.0, 1.0), (), 0.5)
        assert trace.states[-1] == (1e308, 1e308)


class TestCachedGrids:
    """The time grid and the RK4 stage times are cached per interval and
    step count; every call must still see what the uncached formulas give,
    and a grid that does not strictly increase is rejected on every call."""

    @pytest.mark.parametrize("system", [Blackbox(echo), OdeSystem(lambda t, x, u: (0.0,))],
                             ids=["blackbox", "ode"])
    def test_interval_too_short_for_its_steps(self, system):
        # a configuration error, not a simulation failure for the error
        # policy to record
        for _ in range(2):
            with pytest.raises(ValidationError, match="too short for 1000 steps") as raised:
                system.simulate((0.0,), (), (1.0, math.nextafter(1.0, 2.0)))
            assert not isinstance(raised.value, SimulationError)

    @staticmethod
    def recorded(simulate, interval, step):
        """The trace and every stage time the derivative was called at."""
        stage_times = []

        def derivative(t, state, u):
            stage_times.append(t)
            return [state[1] + u[0], -state[0] + 0.5 * t]

        signal = interpolator_create("piecewise-linear", interval, [0.4, -0.3, 0.8])
        trace = simulate(derivative, [1.0, 0.0], interval, [signal], step)
        return trace, stage_times

    def assert_matches_seed(self, interval, step):
        trace, stage_times = self.recorded(ode_simulate, interval, step)
        expected, expected_times = self.recorded(seed_ode_simulate, interval, step)
        assert_traces_bit_equal(trace, expected)
        assert len(stage_times) == len(expected_times)
        assert all(map(bit_equal, stage_times, expected_times))

    def test_interval_starting_at_negative_zero(self):
        # -0.0 and 0.0 share a cache entry, whichever comes first; the
        # trace keeps start itself
        for start in (-0.0, 0.0, -0.0, 0.0, -0.0):
            self.assert_matches_seed((start, 2.75), 0.125)
        trace, _ = self.recorded(ode_simulate, (-0.0, 2.75), 0.125)
        assert math.copysign(1.0, trace.times[0]) == -1.0

    def test_one_interval_with_two_step_sizes(self):
        for step in (0.25, 0.1, 0.25, 0.1):
            self.assert_matches_seed((-1.0, 1.5), step)

    @pytest.mark.parametrize("dense", [True, False])
    def test_blackbox_request_times(self, dense):
        requests = []

        def record(static, times, signal_rows):
            requests.append(times)
            return times, [(0.0,)] * len(times)

        # a dense grid, or the control grid of 4 points
        steps = 7 if dense else 3
        system = Blackbox(record, steps=steps)
        intervals = ((-0.0, 1.25), (0.0, 1.25), (-0.0, 1.25), (-1.5, 2.5), (0.0, 1.25))
        for start, end in intervals:
            signal = interpolator_create("piecewise-constant", (start, end), [1.0] * 4)
            system.simulate((), (signal,), (start, end))
            expected = tuple(start + (end - start) * k / steps for k in range(steps + 1))
            assert len(requests[-1]) == len(expected)
            assert all(map(bit_equal, requests[-1], expected))
