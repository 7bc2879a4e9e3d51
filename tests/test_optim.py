"""Search engines: stepping primitives, budget accounting, reproducibility."""

import dataclasses
import gc
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from stlfalsify import get_benchmark, monitor, optim
from stlfalsify.errors import SimulationError, ValidationError
from stlfalsify.monitor import Trace, evaluate, predicate_robustness
from stlfalsify.optim import (
    ENGINES,
    Basinhopping,
    Behavior,
    Evaluation,
    SearchSpace,
    SimulatedAnnealing,
    UniformRandom,
    _nelder_mead,
    _reflect,
    annealing_step,
    basinhop_step,
    create_engine,
    make_rng,
    optimize,
    uniform_random_step,
)
from stlfalsify.runner import Options, SignalOptions, StlSpecification, falsify
from stlfalsify.stl import LinearPredicate, Predicate, PredicateMap
from stlfalsify.sut import Blackbox

UNIT = SearchSpace(((0.0, 1.0),))
SQUARE = SearchSpace(((-1.0, 1.0), (-1.0, 1.0)))

ALL_ENGINES = sorted(ENGINES)


def sphere(sample):
    return sum(x * x for x in sample)


def contains(space, sample) -> bool:
    """Whether ``sample`` lies in the box ``space``, ends included."""
    return len(sample) == len(space.bounds) and all(
        lo <= x <= hi for x, (lo, hi) in zip(sample, space.bounds)
    )


class TestSearchSpace:
    def test_dimension_and_contains(self):
        space = SearchSpace(((0.0, 1.0), (-2.0, 2.0)))
        assert space.dimension == 2
        assert contains(space, (0.5, 0.0))
        assert contains(space, (0.0, -2.0))
        assert not contains(space, (1.5, 0.0))
        assert not contains(space, (0.5,))

    def test_clamp(self):
        space = SearchSpace(((0.0, 1.0), (-2.0, 2.0)))
        assert space.clamp((5.0, -9.0)) == (1.0, -2.0)
        assert space.clamp((0.25, 0.5)) == (0.25, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            SearchSpace(())

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValidationError):
            SearchSpace(((1.0, 0.0),))

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValidationError):
            SearchSpace(((1.0, 1.0),))

    def test_infinite_bounds_rejected(self):
        with pytest.raises(ValidationError):
            SearchSpace(((0.0, math.inf),))

    @pytest.mark.parametrize("bounds", [(-1.7e308, 1.7e308), (-1e308, 1e308)])
    def test_overflowing_width_rejected(self, bounds):
        with pytest.raises(ValidationError, match="width must be finite"):
            SearchSpace((bounds,))


class TestUniformRandomStep:
    def test_samples_stay_in_bounds(self):
        rng = make_rng(7)
        space = SearchSpace(((-3.0, -1.0), (10.0, 20.0)))
        for _ in range(1000):
            sample = uniform_random_step(rng, space)
            assert contains(space, sample)

    def test_tiny_interval(self):
        rng = make_rng(0)
        space = SearchSpace(((1.0, 1.0 + 1e-12),))
        for _ in range(100):
            (value,) = uniform_random_step(rng, space)
            assert 1.0 <= value <= 1.0 + 1e-12

    def test_mean_is_near_center(self):
        rng = make_rng(42)
        space = SearchSpace(((0.0, 1.0),))
        draws = [uniform_random_step(rng, space)[0] for _ in range(10_000)]
        assert abs(sum(draws) / len(draws) - 0.5) < 0.05


class TestReflect:
    def test_in_bounds_pass_through(self):
        assert _reflect(0.25, 0.0, 1.0) == 0.25
        assert _reflect(0.0, 0.0, 1.0) == 0.0
        assert _reflect(1.0, 0.0, 1.0) == 1.0

    def test_mirrors_at_upper_bound(self):
        assert _reflect(1.3, 0.0, 1.0) == pytest.approx(0.7)

    def test_mirrors_at_lower_bound(self):
        assert _reflect(-0.2, 0.0, 1.0) == pytest.approx(0.2)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_far_points_fold_into_bounds(self, value):
        folded = _reflect(value, -2.0, 3.0)
        assert -2.0 <= folded <= 3.0


class TestAnnealingStep:
    def test_downhill_always_accepted(self):
        current = Evaluation((0.5,), 1.0)
        _, accept = annealing_step(make_rng(0), current, 1.0, UNIT)
        assert accept(0.0)
        assert accept(-5.0)

    def test_equal_value_always_accepted(self):
        # delta = 0 gives exp(0) = 1, and the threshold draw is < 1
        current = Evaluation((0.5,), 1.0)
        for seed in range(20):
            _, accept = annealing_step(make_rng(seed), current, 1.0, UNIT)
            assert accept(1.0)

    def test_huge_uphill_rejected(self):
        current = Evaluation((0.5,), 1.0)
        for seed in range(20):
            _, accept = annealing_step(make_rng(seed), current, 0.01, UNIT)
            assert not accept(1e9)

    def test_proposal_stays_in_bounds(self):
        current = Evaluation((0.9,), 0.0)
        rng = make_rng(3)
        for _ in range(500):
            proposal, _ = annealing_step(rng, current, 2.0, UNIT)
            assert contains(UNIT, proposal)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValidationError):
            annealing_step(make_rng(0), Evaluation((0.5,), 1.0), 0.0, UNIT)

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)).filter(
            lambda b: b[0] < b[1] and math.isfinite(b[1] - b[0])),
        st.floats(0.0, 1.0),
        st.floats(5e-324, 1.7e308),
        st.integers(0, 2**32),
    )
    def test_proposal_stays_in_any_box(self, bounds, fraction, temperature, seed):
        # near the float limit, x + noise and the fold's 2 * width overflow
        lo, hi = bounds
        space = SearchSpace((bounds,))
        current = Evaluation((min(lo + fraction * (hi - lo), hi),), 0.0)
        rng = make_rng(seed)
        for _ in range(5):
            proposal, _ = annealing_step(rng, current, temperature, space)
            assert contains(space, proposal)
            current = Evaluation(proposal, 0.0)


class TestBasinhopStep:
    def test_constant_objective_keeps_incumbent(self):
        current = Evaluation((0.5,), 1.0)
        result = basinhop_step(make_rng(0), current, lambda s: 1.0, UNIT, 10)
        assert result is current

    def test_hop_stays_in_bounds(self):
        seen = []

        def spy(sample):
            seen.append(sample)
            return sphere(sample)

        current = Evaluation((0.95,), sphere((0.95,)))
        basinhop_step(make_rng(1), current, spy, UNIT, 20)
        assert seen
        for sample in seen:
            assert contains(UNIT, sample)

    def test_descends_convex_objective(self):
        current = Evaluation((0.9,), (0.9 - 0.3) ** 2)
        result = basinhop_step(
            make_rng(0), current, lambda s: (s[0] - 0.3) ** 2, UNIT, 50
        )
        assert abs(result.sample[0] - 0.3) <= 0.02

    def test_local_budget_validated(self):
        with pytest.raises(ValidationError):
            basinhop_step(make_rng(0), Evaluation((0.5,), 1.0), sphere, UNIT, 0)

    def test_local_search_leaves_no_cyclic_garbage(self):
        # the out-of-budget signal is one module-level class, not a new
        # class per call that only the cyclic collector frees
        gc.collect()
        gc.disable()
        try:
            _nelder_mead(sphere, (0.9, 0.2), SQUARE, 7)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOptimize:
    def test_falsification_stops_at_first_negative(self):
        history, best = optimize(
            "uniform-random",
            lambda s: s[0],
            SearchSpace(((-1.0, 1.0),)),
            budget=1000,
            behavior=Behavior.FALSIFICATION,
            seed=0,
        )
        assert best.robustness < 0
        assert history[-1] == best
        assert all(entry.robustness >= 0 for entry in history[:-1])
        assert len(history) < 1000

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_minimization_consumes_exact_budget(self, engine):
        history, best = optimize(
            engine,
            lambda s: 1.0,
            UNIT,
            budget=10,
            behavior=Behavior.MINIMIZATION,
            seed=0,
        )
        assert len(history) == 10
        assert best.robustness == 1.0

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_budget_bounds_objective_calls(self, engine):
        calls = []

        def counting(sample):
            calls.append(sample)
            return sphere(sample)

        history, _ = optimize(
            engine, counting, SQUARE, budget=25,
            behavior=Behavior.MINIMIZATION, seed=5,
        )
        assert len(calls) == len(history)
        assert len(calls) <= 25

    def test_negative_infinity_counts_as_falsified(self):
        history, best = optimize(
            "uniform-random", lambda s: -math.inf, UNIT, budget=50, seed=0
        )
        assert len(history) == 1
        assert best.robustness == -math.inf

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_nan_objective_is_rejected_before_the_history(self, engine):
        samples = []

        def nan_on_third_call(sample):
            samples.append(sample)
            return math.nan if len(samples) == 3 else sphere(sample)

        with pytest.raises(ValidationError) as raised:
            optimize(engine, nan_on_third_call, SQUARE, budget=10,
                     behavior=Behavior.MINIMIZATION, seed=0)
        assert len(samples) == 3
        assert str(raised.value) == f"objective returned NaN for sample {samples[2]}"

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_simulation_error_carries_partial_history(self, engine):
        samples = []

        def fail_on_fourth_call(sample):
            samples.append(sample)
            if len(samples) == 4:
                raise SimulationError("deliberate failure")
            return sphere(sample)

        with pytest.raises(SimulationError) as raised:
            optimize(engine, fail_on_fourth_call, SQUARE, budget=10,
                     behavior=Behavior.MINIMIZATION, seed=0)
        history = raised.value.history
        assert len(history) == 3
        assert history == tuple(
            Evaluation(sample, sphere(sample)) for sample in samples[:3]
        )

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_same_seed_reproduces_history(self, engine):
        def run():
            return optimize(
                engine, sphere, SQUARE, budget=40,
                behavior=Behavior.MINIMIZATION, seed=123,
            )

        first_history, first_best = run()
        second_history, second_best = run()
        assert first_history == second_history
        assert first_best == second_best

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_different_seeds_differ(self, engine):
        def run(seed):
            history, _ = optimize(
                engine, sphere, SQUARE, budget=20,
                behavior=Behavior.MINIMIZATION, seed=seed,
            )
            return history

        assert run(0) != run(1)

    def test_best_is_earliest_minimum(self):
        values = iter([3.0, 1.0, 2.0, 1.0])
        history, best = optimize(
            "uniform-random",
            lambda s: next(values),
            UNIT,
            budget=4,
            behavior=Behavior.MINIMIZATION,
            seed=0,
        )
        assert best == history[1]
        assert best is not history[3]

    def test_history_entries_are_evaluations(self):
        history, best = optimize(
            "uniform-random", sphere, SQUARE, budget=5,
            behavior=Behavior.MINIMIZATION, seed=0,
        )
        assert all(isinstance(entry, Evaluation) for entry in history)
        assert best in history

    def test_budget_must_be_positive(self):
        with pytest.raises(ValidationError):
            optimize("uniform-random", sphere, UNIT, budget=0)

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    @pytest.mark.parametrize("field, value, error", [
        ("budget", 2.5, "budget must be an integer, got 2.5"),
        ("budget", True, "budget must be an integer, got True"),
        ("seed", 2.7, "seed must be an integer, got 2.7"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ], ids=["fractional-budget", "bool-budget", "fractional-seed", "negative-seed"])
    def test_budget_and_seed_checked_as_options_does(self, engine, field, value, error):
        # formerly a TypeError from range, one evaluation for True, seed 2's
        # stream for 2.7 and a NumPy ValueError for -1
        arguments = {"budget": 5, "seed": 0, field: value}
        with pytest.raises(ValidationError, match=error):
            optimize(engine, sphere, UNIT, **arguments)

    def test_behavior_type_checked(self):
        with pytest.raises(ValidationError):
            optimize("uniform-random", sphere, UNIT, budget=5, behavior="minimize")

    def test_instance_with_engine_options_rejected(self):
        with pytest.raises(ValidationError):
            optimize(
                UniformRandom(), sphere, UNIT, budget=5,
                engine_options={"anything": 1},
            )

    def test_instance_accepted(self):
        history, _ = optimize(
            SimulatedAnnealing(cooling=0.9), sphere, SQUARE, budget=10,
            behavior=Behavior.MINIMIZATION, seed=0,
        )
        assert len(history) == 10


#: A finite interval whose width is finite too, anywhere in the float range.
FINITE_INTERVALS = st.tuples(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
).filter(lambda b: b[0] < b[1] and math.isfinite(b[1] - b[0]))


def record_static(simulated):
    """A one-variable Blackbox function that records each static vector."""
    def func(static, times, rows):
        simulated.append(static)
        return times, [[0.0]] * len(times)
    return func


class TestFloatLimits:
    """Boxes at the edge of the float range: a width that overflows is
    rejected with the space, and a finite one keeps every sample finite."""

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    @pytest.mark.parametrize("where", ["static", "signal"])
    def test_overflowing_width_rejected_before_any_simulation(self, engine, where):
        # formerly NumPy's OverflowError from the first uniform draw
        simulated = []
        spec = StlSpecification("x <= 1.0", PredicateMap(("x",)))
        bounds = dict(static=dict(static_params=((-1.7e308, 1.7e308),)),
                      signal=dict(signals=(SignalOptions(bound=(-1e308, 1e308)),)))
        with pytest.raises(ValidationError, match="width must be finite"):
            falsify(spec, Blackbox(record_static(simulated), steps=1), engine,
                    Options(iterations=3, **bounds[where]))
        assert simulated == []

    def test_annealing_samples_stay_finite(self):
        # formerly 299 of the 300 samples were NaN
        space = SearchSpace(((-8e307, 8e307),))
        history, _ = optimize(SimulatedAnnealing(), lambda s: 1.0, space, 300,
                              Behavior.MINIMIZATION, 1)
        assert len(history) == 300
        assert all(contains(space, entry.sample) for entry in history)

    def test_annealing_hands_the_system_finite_parameters(self):
        simulated = []
        spec = StlSpecification("x <= 1.0", PredicateMap(("x",)))
        options = Options(static_params=((-8e307, 8e307),), iterations=300,
                          behavior=Behavior.MINIMIZATION, seed=1)
        falsify(spec, Blackbox(record_static(simulated), steps=1),
                "simulated-annealing", options)
        assert len(simulated) == 300
        assert all(-8e307 <= x <= 8e307 for (x,) in simulated)

    def test_cooling_stops_at_the_last_positive_temperature(self):
        # 0.5**1075 rounds to 0.0, which annealing_step rejects
        history, _ = optimize(SimulatedAnnealing(cooling=0.5), sphere, UNIT, 1200,
                              Behavior.MINIMIZATION, 0)
        assert len(history) == 1200
        assert all(contains(UNIT, entry.sample) for entry in history)

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.lists(FINITE_INTERVALS, min_size=1, max_size=3))
    @example(1, [(-8e307, 8e307)] * 3)
    def test_every_sample_is_finite_and_inside_the_box(self, engine, seed, bounds):
        # formerly basinhopping's Nelder-Mead centroid overflowed to inf and
        # handed the objective NaN coordinates: at the example, optimize
        # raised "objective returned NaN for sample (-5.55e+307, nan, nan)"
        space = SearchSpace(tuple(bounds))
        seen = []

        def objective(sample):
            seen.append(sample)
            return sum(abs(x) / 1e308 for x in sample)

        optimize(engine, objective, space, 200, Behavior.MINIMIZATION, seed)
        assert len(seen) == 200
        assert all(contains(space, sample) for sample in seen)

    def test_widest_hop_at_the_float_limit(self):
        # formerly NumPy's OverflowError: the hop range 2 * width overflows
        space = SearchSpace(((-8e307, 8e307),))
        history, _ = optimize(Basinhopping(hop_radius=1.0), sphere, space, 50,
                              Behavior.MINIMIZATION, 1)
        assert len(history) == 50
        assert all(contains(space, entry.sample) for entry in history)

    @pytest.mark.parametrize("temperature", [math.inf, math.nan, 0.0, -1.0])
    def test_initial_temperature_must_be_finite_and_positive(self, temperature):
        # an infinite one put every proposal on the lower bound
        with pytest.raises(ValidationError, match="initial_temperature must be "
                                                  "positive and finite"):
            SimulatedAnnealing(initial_temperature=temperature)

    def test_annealing_step_rejects_an_infinite_temperature(self):
        with pytest.raises(ValidationError, match="positive and finite"):
            annealing_step(make_rng(0), Evaluation((0.5,), 1.0), math.inf, UNIT)


class TestSampleGate:
    """The one check between every engine and the objective."""

    class Proposing:
        """An engine that proposes the given samples in order."""

        name = "proposing"

        def __init__(self, *samples):
            self.samples = samples

        def run(self, objective, space, budget, rng):
            for sample in self.samples:
                objective(sample)

    @pytest.mark.parametrize("bad", [1.5, -0.25, math.nan, math.inf, -math.inf])
    def test_sample_outside_the_box_rejected_before_the_objective(self, bad):
        calls = []
        engine = self.Proposing((0.5, 0.5), (0.5, bad))

        def objective(sample):
            calls.append(sample)
            return 1.0

        with pytest.raises(ValidationError) as raised:
            optimize(engine, objective, SearchSpace(((0.0, 1.0), (-0.0, 1.0))), 10,
                     Behavior.MINIMIZATION, 0)
        assert calls == [(0.5, 0.5)]
        assert str(raised.value) == (
            f"engine proposed sample {(0.5, bad)} outside the search space "
            "((0.0, 1.0), (-0.0, 1.0))")

    def test_bounds_themselves_are_inside(self):
        engine = self.Proposing((0.0, 1.0), (1.0, 0.0))
        history, _ = optimize(engine, sphere, SQUARE, 10, Behavior.MINIMIZATION, 0)
        assert [entry.sample for entry in history] == [(0.0, 1.0), (1.0, 0.0)]


class TestEngineCalibration:
    def test_annealing_finds_sphere_minimum(self):
        # frozen seed-specific value guards the RNG stream and the algorithm;
        # the loose threshold is the behavioral requirement
        history, best = optimize(
            "simulated-annealing",
            sphere,
            SearchSpace(((-5.0, 5.0), (-5.0, 5.0))),
            budget=500,
            behavior=Behavior.MINIMIZATION,
            seed=0,
        )
        assert len(history) == 500
        assert best.robustness <= 0.05
        assert best.robustness == pytest.approx(4.404307050592878e-05, rel=1e-6)

    def test_annealing_beats_uniform_on_sphere(self):
        space = SearchSpace(((-5.0, 5.0), (-5.0, 5.0)))
        wins = 0
        for seed in range(10):
            _, best_sa = optimize(
                "simulated-annealing", sphere, space, budget=500,
                behavior=Behavior.MINIMIZATION, seed=seed,
            )
            _, best_ur = optimize(
                "uniform-random", sphere, space, budget=500,
                behavior=Behavior.MINIMIZATION, seed=seed,
            )
            wins += best_sa.robustness <= best_ur.robustness
        assert wins >= 8

    def test_nelder_mead_locates_convex_minimum(self):
        current = Evaluation((0.9,), (0.9 - 0.3) ** 2)
        result = basinhop_step(
            make_rng(0), current, lambda s: (s[0] - 0.3) ** 2, UNIT, 50
        )
        assert abs(result.sample[0] - 0.3) <= 0.02


class TestCreateEngine:
    def test_known_names(self):
        assert isinstance(create_engine("uniform-random"), UniformRandom)
        assert isinstance(create_engine("simulated-annealing"), SimulatedAnnealing)
        assert isinstance(create_engine("basinhopping"), Basinhopping)

    def test_options_applied(self):
        engine = create_engine("simulated-annealing", {"cooling": 0.5})
        assert engine.cooling == 0.5

    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown optimizer"):
            create_engine("gradient-descent")

    def test_non_string_name(self):
        # a list from JSON, which a dict lookup rejects with a TypeError
        with pytest.raises(ValidationError, match=r"unknown optimizer \['uniform-random'\]"):
            create_engine(["uniform-random"])

    def test_unknown_option_key(self):
        with pytest.raises(ValidationError, match="invalid options"):
            create_engine("simulated-annealing", {"velocity": 3})

    def test_bad_option_value(self):
        with pytest.raises(ValidationError):
            create_engine("simulated-annealing", {"cooling": 0.0})

    def test_basinhopping_options_validated(self):
        with pytest.raises(ValidationError):
            create_engine("basinhopping", {"hop_radius": 2.0})
        with pytest.raises(ValidationError):
            create_engine("basinhopping", {"local_budget": 0})

    @pytest.mark.parametrize("budget", [2.7, 50.0, True, "50"])
    def test_local_budget_must_be_an_integer(self, budget):
        # no truncation: 2.7 is not 2 and True is not 1
        with pytest.raises(ValidationError, match="local_budget must be an integer"):
            create_engine("basinhopping", {"local_budget": budget})


class TestSummationOrder:
    """From Python 3.12 a float ``sum`` is compensated: values that came from
    one would change with the interpreter.  With ``sum`` replaced by the
    exactly rounded ``math.fsum`` in both modules, nothing may change."""

    @staticmethod
    def outcomes():
        bench = get_benchmark("oscillator")
        options = dataclasses.replace(bench.options, iterations=120, seed=7,
                                      behavior=Behavior.MINIMIZATION)
        (run,) = falsify(bench.specification(), bench.system, "basinhopping", options)
        # left to right, 0.1 + 0.2 + 0.3 is 0.6000000000000001; exactly
        # rounded it is 0.6
        predicate = LinearPredicate("p", (1.0, 1.0, 1.0), -0.0)
        state = (0.1, 0.2, 0.3)
        trace = Trace((0.0, 1.0), (state, state[::-1]))
        values = [predicate_robustness(predicate, state)]
        values += [evaluate(Predicate("p", predicate), None, trace, at=k) for k in (0, 1)]
        return run.history, values

    def test_compensated_sum_changes_nothing(self, monkeypatch):
        expected = self.outcomes()
        assert len(expected[0]) == 120 and len(expected[0][0].sample) == 5
        monkeypatch.setattr(optim, "sum", math.fsum, raising=False)
        monkeypatch.setattr(monitor, "sum", math.fsum, raising=False)
        # repr is exact for floats and tells -0.0 from 0.0
        assert repr(self.outcomes()) == repr(expected)
