"""System-under-test layer: interpolators, blackbox adapter, RK4 integrator."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from stlfalsify.errors import SimulationError, TraceValidationError, ValidationError
from stlfalsify.monitor import Trace
from stlfalsify.sut import (
    Blackbox,
    OdeSystem,
    SimulationInput,
    blackbox_simulate,
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


class TestSimulationInput:
    def test_coerces_to_floats(self):
        request = SimulationInput((1,), (0, 1), ((2, 3),))
        assert request.static == (1.0,)
        assert request.signal_values == ((2.0, 3.0),)

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ValidationError):
            SimulationInput((), (0.0, 0.0), ())

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            SimulationInput((), (0.0, 1.0), ((1.0,),))


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

    def test_linear_needs_two_values(self):
        with pytest.raises(ValidationError):
            interpolator_create("piecewise-linear", (0.0, 1.0), [1.0])

    def test_constant_needs_one_value(self):
        with pytest.raises(ValidationError):
            interpolator_create("piecewise-constant", (0.0, 1.0), [])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            interpolator_create("spline", (0.0, 1.0), [1.0, 2.0])

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValidationError):
            interpolator_create("piecewise-constant", (1.0, 0.0), [1.0])

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


class TestBlackboxSimulate:
    def test_echo_round_trip(self):
        request = SimulationInput((), (0.0, 1.0, 2.0), ((5.0, 6.0, 7.0),))
        trace = blackbox_simulate(echo, request)
        assert trace.times == (0.0, 1.0, 2.0)
        assert trace.states == ((5.0,), (6.0,), (7.0,))

    def test_user_exception_becomes_simulation_error(self):
        def broken(static, times, signals):
            raise RuntimeError("engine fell over")

        request = SimulationInput((), (0.0, 1.0), ())
        with pytest.raises(SimulationError, match="engine fell over"):
            blackbox_simulate(broken, request)

    def test_non_monotone_timestamps_rejected(self):
        def bad(static, times, signals):
            return (1.0, 0.5), ((0.0,), (0.0,))

        request = SimulationInput((), (0.0, 1.0), ())
        with pytest.raises(TraceValidationError, match="monotone"):
            blackbox_simulate(bad, request)

    def test_ragged_trajectory_rejected(self):
        def bad(static, times, signals):
            return (0.0, 1.0), ((0.0,), (0.0, 1.0))

        request = SimulationInput((), (0.0, 1.0), ())
        with pytest.raises(TraceValidationError):
            blackbox_simulate(bad, request)

    def test_timestamps_outside_interval_rejected(self):
        def bad(static, times, signals):
            return (0.0, 99.0), ((0.0,), (0.0,))

        request = SimulationInput((), (0.0, 1.0), ())
        with pytest.raises(TraceValidationError):
            blackbox_simulate(bad, request)

    def test_row_count_mismatch_rejected(self):
        def bad(static, times, signals):
            return (0.0, 1.0), ((0.0,),)

        request = SimulationInput((), (0.0, 1.0), ())
        with pytest.raises(TraceValidationError):
            blackbox_simulate(bad, request)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=10, unique=True
        ).map(sorted),
        st.floats(-5, 5, allow_nan=False),
    )
    def test_valid_outputs_pass_through_unmodified(self, times, level):
        def steady(static, grid, signals):
            return tuple(times), tuple((level,) for _ in times)

        request = SimulationInput((), (0.0, 1.0), ())
        trace = blackbox_simulate(steady, request)
        assert trace.times == tuple(times)
        assert all(row == (level,) for row in trace.states)


class TestBlackboxSystem:
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
        captured = {}

        def probe(static, times, signals):
            captured["times"] = times
            captured["signals"] = signals
            return times, [(0.0,)] * len(times)

        a = interpolator_create("piecewise-constant", (0.0, 3.0), [1.0, 2.0, 3.0])
        b = interpolator_create("piecewise-linear", (0.0, 3.0), [9.0, 8.0, 7.0])
        Blackbox(probe, interpolate=False).simulate((), (a, b), (0.0, 3.0))
        assert captured["times"] == (0.0, 1.5, 3.0)
        assert captured["signals"] == ((1.0, 2.0, 3.0), (9.0, 8.0, 7.0))

    def test_raw_mode_requires_equal_control_counts(self):
        a = interpolator_create("piecewise-constant", (0.0, 3.0), [1.0, 2.0])
        b = interpolator_create("piecewise-constant", (0.0, 3.0), [1.0, 2.0, 3.0])
        box = Blackbox(echo, interpolate=False)
        with pytest.raises(ValidationError, match="control-point count"):
            box.simulate((), (a, b), (0.0, 3.0))

    def test_not_reentrant_by_default(self):
        assert Blackbox(echo).reentrant is False

    def test_steps_validated(self):
        with pytest.raises(ValidationError):
            Blackbox(echo, steps=0)


class TestOdeSimulate:
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
    ``at()``, every derivative call wrapped."""
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
        u0 = [s.at(t) for s in signals]
        u_mid = [s.at(t_mid) for s in signals]
        u1 = [s.at(t_next) for s in signals]
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
        # the interval, in walking order
        times = sorted(
            grid
            + [t + half for t in grid[:-1]]
            + list(signal.control_times)
            + data.draw(st.lists(st.floats(start - 5.0, end + 5.0), max_size=10))
        )
        expected = [signal.at(t) for t in times]
        assert all(map(bit_equal, signal.sample(times), expected))

    @settings(max_examples=100, deadline=None)
    @given(interval_and_signal(), st.data())
    def test_walk_matches_at_in_any_order(self, setup, data):
        (start, end), signal = setup
        points = st.sampled_from(signal.control_times) | st.floats(start - 1.0, end + 1.0)
        times = data.draw(st.lists(points, max_size=20))
        assert all(map(bit_equal, signal.sample(times), [signal.at(t) for t in times]))

    def test_single_control_point(self):
        signal = interpolator_create("piecewise-constant", (0.0, 2.0), [3.5])
        assert signal.sample([-1.0, 0.0, 1.0, 2.0, 3.0]) == [3.5] * 5


@st.composite
def random_systems(draw):
    """A random polynomial derivative of dimension 1-3 driven by 0-2 signals."""
    dimension = draw(st.integers(1, 3))
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

    def derivative(t, state, u):
        forcing = drift * t
        for w, value in zip(weights, u):
            forcing += w * value
        return [
            sum(a * x for a, x in zip(row, state)) + q * state[i] * state[i - 1] + forcing
            for i, (row, q) in enumerate(zip(linear, quadratic))
        ]

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

    def test_non_finite_state_names_the_step_end(self):
        def blow_up():
            return [math.inf, 0.0]

        message = self.error_of(ode_simulate, self.failing_on(6, blow_up))
        assert message == self.error_of(seed_ode_simulate, self.failing_on(6, blow_up))
        assert message == "state became non-finite at t=0.5"

    def test_finite_state_with_overflowing_sum_continues(self):
        trace = ode_simulate(lambda t, x, u: (0.0, 0.0), (1e308, 1e308), (0.0, 1.0), (), 0.5)
        assert trace.states[-1] == (1e308, 1e308)
