"""Falsification driver: option validation, sample decomposition, policies."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from stlfalsify.errors import SimulationError, ValidationError
from stlfalsify.monitor import Trace
from stlfalsify.optim import Behavior, Evaluation
from stlfalsify.runner import (
    ErrorPolicy,
    Options,
    RunResult,
    SignalOptions,
    StlSpecification,
    decompose_sample,
    falsify,
    make_objective,
    search_space,
)
from stlfalsify.stl import Always, Predicate, PredicateMap
from stlfalsify.sut import Blackbox


def leq_five_predicates():
    predicates = PredicateMap(("x0",))
    predicates.add("p1", (1.0,), 5.0)
    return predicates


class ConstantSystem:
    """Holds the first static parameter constant over five samples."""

    reentrant = True

    def __init__(self):
        self.calls = 0

    def simulate(self, static, signals, interval):
        self.calls += 1
        start, end = interval
        times = tuple(start + (end - start) * k / 4 for k in range(5))
        return Trace(times, tuple((float(static[0]),) for _ in times))


class FailingSystem:
    """Raises on configured call indices (1-based)."""

    reentrant = False

    def __init__(self, fail_on=frozenset()):
        self.calls = 0
        self.fail_on = fail_on

    def simulate(self, static, signals, interval):
        self.calls += 1
        if self.fail_on == "always" or self.calls in self.fail_on:
            raise SimulationError(f"deliberate failure on call {self.calls}")
        start, end = interval
        return Trace((start, end), ((float(static[0]),), (float(static[0]),)))


STATIC_ONLY = Options(static_params=((0.0, 10.0),), iterations=20, seed=0)


class TestSignalOptions:
    def test_defaults(self):
        signal = SignalOptions(bound=(-1.0, 1.0))
        assert signal.control_points == 2
        assert signal.interpolator == "piecewise-constant"

    def test_single_constant_point_allowed(self):
        assert SignalOptions(bound=(0.0, 1.0), control_points=1).control_points == 1

    def test_linear_needs_two_points(self):
        with pytest.raises(ValidationError):
            SignalOptions(
                bound=(0.0, 1.0), control_points=1, interpolator="piecewise-linear"
            )

    def test_inverted_bound_rejected(self):
        with pytest.raises(ValidationError):
            SignalOptions(bound=(1.0, -1.0))

    def test_unknown_interpolator_rejected(self):
        with pytest.raises(ValidationError):
            SignalOptions(bound=(0.0, 1.0), interpolator="spline")


class TestOptions:
    def test_requires_something_to_search(self):
        with pytest.raises(ValidationError, match="nothing to search"):
            Options()

    def test_inverted_static_bound(self):
        with pytest.raises(ValidationError):
            Options(static_params=((2.0, 1.0),))

    def test_signals_must_be_signal_options(self):
        with pytest.raises(ValidationError):
            Options(signals=((0.0, 1.0),))

    def test_iterations_positive(self):
        with pytest.raises(ValidationError):
            Options(static_params=((0.0, 1.0),), iterations=0)

    def test_runs_positive(self):
        with pytest.raises(ValidationError):
            Options(static_params=((0.0, 1.0),), runs=0)

    def test_inverted_interval(self):
        with pytest.raises(ValidationError):
            Options(static_params=((0.0, 1.0),), interval=(5.0, 5.0))

    @pytest.mark.parametrize("seed", [True, 1.5, -1, 2**64, "0"])
    def test_bad_seeds_rejected(self, seed):
        with pytest.raises(ValidationError):
            Options(static_params=((0.0, 1.0),), seed=seed)

    def test_behavior_type_checked(self):
        with pytest.raises(ValidationError):
            Options(static_params=((0.0, 1.0),), behavior="falsify")

    def test_error_policy_type_checked(self):
        with pytest.raises(ValidationError):
            Options(static_params=((0.0, 1.0),), error_policy="ignore")


class TestSearchSpace:
    def test_static_then_signal_blocks(self):
        options = Options(
            static_params=((0.0, 1.0), (-5.0, 5.0)),
            signals=(
                SignalOptions(bound=(-1.0, 1.0), control_points=2),
                SignalOptions(bound=(2.0, 3.0), control_points=3),
            ),
        )
        space = search_space(options)
        assert space.bounds == (
            (0.0, 1.0),
            (-5.0, 5.0),
            (-1.0, 1.0),
            (-1.0, 1.0),
            (2.0, 3.0),
            (2.0, 3.0),
            (2.0, 3.0),
        )


class TestDecomposeSample:
    def test_static_only(self):
        static, signals = decompose_sample((0.7,), STATIC_ONLY)
        assert static == (0.7,)
        assert signals == ()

    def test_signal_only(self):
        options = Options(
            signals=(SignalOptions(bound=(0.0, 5.0), control_points=3),),
            interval=(0.0, 6.0),
        )
        static, signals = decompose_sample((1.0, 2.0, 3.0), options)
        assert static == ()
        assert len(signals) == 1
        assert signals[0].control_values == (1.0, 2.0, 3.0)
        assert signals[0].interval == (0.0, 6.0)
        assert signals[0].kind == "piecewise-constant"

    def test_mixed_blocks(self):
        options = Options(
            static_params=((0.0, 1.0), (0.0, 1.0)),
            signals=(
                SignalOptions(bound=(0.0, 9.0), control_points=2,
                              interpolator="piecewise-linear"),
                SignalOptions(bound=(0.0, 9.0), control_points=3),
            ),
        )
        sample = (0.1, 0.2, 3.0, 4.0, 5.0, 6.0, 7.0)
        static, signals = decompose_sample(sample, options)
        assert static == (0.1, 0.2)
        assert signals[0].control_values == (3.0, 4.0)
        assert signals[0].kind == "piecewise-linear"
        assert signals[1].control_values == (5.0, 6.0, 7.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="dimension"):
            decompose_sample((0.1, 0.2), STATIC_ONLY)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_reconstruction_is_lossless(self, data):
        n_static = data.draw(st.integers(0, 3))
        n_signals = data.draw(st.integers(0 if n_static else 1, 3))
        points = [data.draw(st.integers(1, 4)) for _ in range(n_signals)]
        options = Options(
            static_params=tuple(((0.0, 1.0),) * n_static) if n_static else (),
            signals=tuple(
                SignalOptions(bound=(-9.0, 9.0), control_points=p) for p in points
            ),
        )
        dimension = n_static + sum(points)
        sample = tuple(
            data.draw(st.floats(-9.0, 9.0, allow_nan=False)) for _ in range(dimension)
        )
        static, signals = decompose_sample(sample, options)
        flattened = static + tuple(
            value for signal in signals for value in signal.control_values
        )
        assert flattened == sample


class TestMakeObjective:
    def test_robustness_through_echo_blackbox(self):
        def echo(static, times, signal_rows):
            return times, list(zip(*signal_rows))

        options = Options(
            signals=(SignalOptions(bound=(0.0, 5.0), control_points=1),),
            interval=(0.0, 1.0),
        )
        spec = StlSpecification("p1", leq_five_predicates())
        objective, state = make_objective(Blackbox(echo, steps=4), spec, options)
        assert objective((3.0,)) == 2.0
        assert state.evaluations == [Evaluation((3.0,), 2.0)]

    def test_record_and_continue_scores_infinity(self):
        options = Options(
            static_params=((0.0, 10.0),),
            error_policy=ErrorPolicy.RECORD_AND_CONTINUE,
        )
        spec = StlSpecification("p1", leq_five_predicates())
        objective, state = make_objective(FailingSystem("always"), spec, options)
        assert objective((1.0,)) == math.inf
        assert state.failures == [((1.0,), "deliberate failure on call 1")]
        assert state.evaluations == [Evaluation((1.0,), math.inf)]

    def test_abort_run_reraises(self):
        options = Options(static_params=((0.0, 10.0),))
        spec = StlSpecification("p1", leq_five_predicates())
        objective, state = make_objective(FailingSystem("always"), spec, options)
        with pytest.raises(SimulationError):
            objective((1.0,))
        assert state.evaluations == []
        assert len(state.failures) == 1


class TestStlSpecification:
    def test_accepts_formula_text(self):
        spec = StlSpecification("always (p1)", leq_five_predicates())
        trace = Trace((0.0, 1.0), ((1.0,), (4.0,)))
        assert spec.evaluate(trace) == 1.0

    def test_accepts_parsed_formula(self):
        spec = StlSpecification(Always(Predicate("p1")), leq_five_predicates())
        trace = Trace((0.0, 1.0), ((1.0,), (4.0,)))
        assert spec.evaluate(trace) == 1.0

    def test_anchors_at_first_sample(self):
        spec = StlSpecification("p1", leq_five_predicates())
        trace = Trace((0.0, 1.0), ((2.0,), (9.0,)))
        assert spec.evaluate(trace) == 3.0


class TestFalsify:
    def spec(self):
        return StlSpecification("always (p1)", leq_five_predicates())

    def test_finds_violation(self):
        results = falsify(self.spec(), ConstantSystem(), "uniform-random", STATIC_ONLY)
        assert len(results) == 1
        run = results[0]
        assert run.falsified
        assert run.best.robustness < 0
        assert run.history[-1] == run.best
        assert run.failures == ()
        assert run.run_time >= 0.0

    def test_results_reproducible(self):
        def strip_times(results):
            return [
                (run.history, run.best, run.falsified, run.failures)
                for run in results
            ]

        first = falsify(self.spec(), ConstantSystem(), "uniform-random", STATIC_ONLY)
        second = falsify(self.spec(), ConstantSystem(), "uniform-random", STATIC_ONLY)
        assert strip_times(first) == strip_times(second)

    def test_runs_get_distinct_seeds(self):
        options = Options(
            static_params=((0.0, 10.0),),
            iterations=10,
            runs=3,
            behavior=Behavior.MINIMIZATION,
        )
        results = falsify(self.spec(), ConstantSystem(), "uniform-random", options)
        assert len(results) == 3
        histories = [run.history for run in results]
        assert histories[0] != histories[1] != histories[2]

    def test_seed_offset_matches_manual_runs(self):
        options = Options(
            static_params=((0.0, 10.0),),
            iterations=10,
            runs=2,
            seed=40,
            behavior=Behavior.MINIMIZATION,
        )
        paired = falsify(self.spec(), ConstantSystem(), "uniform-random", options)
        for offset, run in enumerate(paired):
            solo = falsify(
                self.spec(),
                ConstantSystem(),
                "uniform-random",
                Options(
                    static_params=((0.0, 10.0),),
                    iterations=10,
                    seed=40 + offset,
                    behavior=Behavior.MINIMIZATION,
                ),
            )
            assert solo[0].history == run.history

    def test_parallel_matches_sequential(self):
        options = Options(
            static_params=((0.0, 10.0),),
            iterations=15,
            runs=4,
            behavior=Behavior.MINIMIZATION,
        )
        parallel_options = Options(
            static_params=((0.0, 10.0),),
            iterations=15,
            runs=4,
            behavior=Behavior.MINIMIZATION,
            parallel_runs=True,
        )
        sequential = falsify(self.spec(), ConstantSystem(), "uniform-random", options)
        parallel = falsify(
            self.spec(), ConstantSystem(), "uniform-random", parallel_options
        )
        assert [run.history for run in sequential] == [
            run.history for run in parallel
        ]

    def test_parallel_flag_tolerates_non_reentrant_system(self):
        options = Options(
            static_params=((0.0, 10.0),),
            iterations=5,
            runs=2,
            behavior=Behavior.MINIMIZATION,
            parallel_runs=True,
        )
        system = FailingSystem(fail_on=frozenset())  # never fails, not reentrant
        results = falsify(self.spec(), system, "uniform-random", options)
        assert len(results) == 2
        assert system.calls == 10

    def test_abort_run_keeps_partial_history(self):
        # bound below the predicate threshold so the partial run cannot
        # accidentally count as falsified
        options = Options(
            static_params=((0.0, 4.0),),
            iterations=20,
            behavior=Behavior.MINIMIZATION,
        )
        system = FailingSystem(fail_on={3})
        results = falsify(self.spec(), system, "uniform-random", options)
        run = results[0]
        assert len(run.history) == 2
        assert len(run.failures) == 1
        assert "call 3" in run.failures[0][1]
        assert run.best == min(run.history, key=lambda e: e.robustness)
        assert not run.falsified

    def test_abort_on_first_call_leaves_no_best(self):
        options = Options(static_params=((0.0, 10.0),), iterations=20)
        system = FailingSystem(fail_on={1})
        results = falsify(self.spec(), system, "uniform-random", options)
        run = results[0]
        assert run.history == ()
        assert run.best is None
        assert not run.falsified
        assert len(run.failures) == 1

    def test_record_and_continue_searches_on(self):
        options = Options(
            static_params=((0.0, 10.0),),
            iterations=8,
            behavior=Behavior.MINIMIZATION,
            error_policy=ErrorPolicy.RECORD_AND_CONTINUE,
        )
        system = FailingSystem("always")
        results = falsify(self.spec(), system, "uniform-random", options)
        run = results[0]
        assert len(run.history) == 8
        assert all(entry.robustness == math.inf for entry in run.history)
        assert len(run.failures) == 8
        assert not run.falsified
        assert system.calls == 8

    @pytest.mark.parametrize("policy", list(ErrorPolicy))
    def test_blackbox_nan_state_is_a_failure(self, policy):
        # the last sample violates "x0 <= 5"; before Trace rejected NaN the
        # middle sample could hide that and record robustness as a number
        def nan_blackbox(static, times, signals):
            return (0.0, 1.0, 2.0), ((static[0],), (math.nan,), (9.0,))

        options = Options(static_params=((0.0, 4.0),), iterations=5,
                          error_policy=policy)
        run = falsify(self.spec(), Blackbox(nan_blackbox), "uniform-random", options)[0]
        assert not run.falsified
        assert run.failures and all("non-finite state" in error
                                    for _, error in run.failures)
        if policy is ErrorPolicy.ABORT_RUN:
            assert run.history == () and len(run.failures) == 1
        else:
            assert len(run.failures) == 5
            assert all(entry.robustness == math.inf for entry in run.history)

    def test_unknown_optimizer_never_simulates(self):
        system = ConstantSystem()
        with pytest.raises(ValidationError, match="unknown optimizer"):
            falsify(self.spec(), system, "gradient-descent", STATIC_ONLY)
        assert system.calls == 0

    def test_options_type_checked(self):
        with pytest.raises(ValidationError):
            falsify(self.spec(), ConstantSystem(), "uniform-random", {"seed": 0})

    def test_run_result_shape(self):
        results = falsify(self.spec(), ConstantSystem(), "uniform-random", STATIC_ONLY)
        assert isinstance(results[0], RunResult)
