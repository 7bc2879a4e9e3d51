"""Acceptance gate: ten end-to-end criteria, one test and one report line each.

Every test prints exactly one ``PASS criterion N: ...`` or ``FAIL criterion
N: ...`` line (visible with ``pytest -s`` or in captured output).  The
numbered corpus checks use a plain seeded generator rather than hypothesis so
the corpus size and content are fixed.
"""

import csv
import dataclasses
import functools
import json
import math
import random
import struct
import sys
import time
from contextlib import contextmanager

import pytest

from stlfalsify.bench import oscillator
from stlfalsify.cli import main
from stlfalsify.errors import SimulationError
from stlfalsify.monitor import Trace, evaluate, evaluate_boolean
from stlfalsify.optim import Behavior, SearchSpace, optimize
from stlfalsify.runner import ErrorPolicy, Options, falsify
from stlfalsify.stl import (
    Always,
    And,
    Eventually,
    Implies,
    Next,
    Not,
    Or,
    Predicate,
    PredicateMap,
    TimeBound,
    Until,
    format_formula,
    parse_formula,
)
from stlfalsify.sut import extern_blackbox, interpolator_create, ode_simulate

CORPUS_SEED = 1906
CORPUS_SIZE = 1000


@contextmanager
def report(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def bits(value):
    return struct.pack("<d", value)


def bit_equal(a, b):
    if math.isnan(a) and math.isnan(b):
        return True
    return bits(a) == bits(b)


# --- random corpus shared by criteria 1 and 2 -------------------------------


def random_bound(rng, allow_none=True):
    if allow_none and rng.random() < 0.4:
        return None
    lower = rng.uniform(0.0, 6.0)
    if rng.random() < 0.2:
        return TimeBound(lower, math.inf)
    return TimeBound(lower, lower + rng.uniform(0.0, 6.0))


def random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return Predicate(rng.choice(names))
    kind = rng.choice(
        ("not", "and", "or", "implies", "next", "eventually", "always", "until")
    )
    if kind == "not":
        return Not(random_formula(rng, names, depth - 1))
    if kind in ("and", "or", "implies"):
        node = {"and": And, "or": Or, "implies": Implies}[kind]
        return node(
            random_formula(rng, names, depth - 1),
            random_formula(rng, names, depth - 1),
        )
    if kind == "next":
        return Next(random_formula(rng, names, depth - 1))
    if kind == "eventually":
        return Eventually(random_formula(rng, names, depth - 1), random_bound(rng))
    if kind == "always":
        return Always(random_formula(rng, names, depth - 1), random_bound(rng))
    return Until(
        random_formula(rng, names, depth - 1),
        random_formula(rng, names, depth - 1),
        random_bound(rng),
    )


@functools.cache
def corpus():
    """CORPUS_SIZE scenarios: formula depth <= 4, trace length <= 20,
    state dimension <= 3, plus a valid anchor index."""
    rng = random.Random(CORPUS_SEED)
    scenarios = []
    for _ in range(CORPUS_SIZE):
        dimension = rng.randint(1, 3)
        variables = ("x", "y", "z")[:dimension]
        predicates = PredicateMap(variables)
        names = []
        for k in range(3):
            coefficients = [0.0] * dimension
            while all(c == 0.0 for c in coefficients):
                coefficients = [rng.uniform(-3.0, 3.0) for _ in range(dimension)]
            name = f"p{k + 1}"
            predicates.add(name, tuple(coefficients), rng.uniform(-5.0, 5.0))
            names.append(name)
        formula = random_formula(rng, tuple(names), depth=4)

        length = rng.randint(1, 20)
        times = []
        now = rng.uniform(0.0, 1.0)
        for _ in range(length):
            times.append(now)
            now += rng.uniform(0.01, 0.6)
        states = tuple(
            tuple(rng.uniform(-8.0, 8.0) for _ in range(dimension))
            for _ in range(length)
        )
        anchor = rng.randrange(length)
        scenarios.append((formula, predicates, Trace(tuple(times), states), anchor))
    return tuple(scenarios)


def test_criterion_01_monitor_agrees_with_boolean_oracle():
    with report(1, f"quantitative and boolean semantics agree in sign on "
                   f"{CORPUS_SIZE} random formula/trace pairs in under 30 s"):
        started = time.perf_counter()
        disagreements = 0
        checked = 0
        for formula, predicates, trace, anchor in corpus():
            robustness = evaluate(formula, predicates, trace, at=anchor)
            satisfied = evaluate_boolean(formula, predicates, trace, at=anchor)
            if abs(robustness) > 1e-9:
                checked += 1
                if (robustness > 0) != satisfied:
                    disagreements += 1
        elapsed = time.perf_counter() - started
        assert disagreements == 0
        assert checked > 0
        assert elapsed < 30.0


def test_criterion_02_dualities_are_bit_exact():
    with report(2, "negation and always/eventually dualities are bit-equal "
                   "on the corpus"):
        rng = random.Random(CORPUS_SEED + 1)
        for formula, predicates, trace, anchor in corpus():
            rho = evaluate(formula, predicates, trace, at=anchor)
            negated = evaluate(Not(formula), predicates, trace, at=anchor)
            assert bit_equal(negated, -rho)

            bound = random_bound(rng)
            always = evaluate(Always(formula, bound), predicates, trace, at=anchor)
            dual = evaluate(
                Eventually(Not(formula), bound), predicates, trace, at=anchor
            )
            assert bit_equal(always, -dual)

            eventually = evaluate(
                Eventually(formula, bound), predicates, trace, at=anchor
            )
            dual = evaluate(Always(Not(formula), bound), predicates, trace, at=anchor)
            assert bit_equal(eventually, -dual)


ALIAS_ROWS = [
    ("always p1", "G p1", "[] p1"),
    ("eventually p1", "F p1", "<> p1"),
    ("next p1", "X p1"),
    ("(p1 until p2)", "(p1 U p2)"),
    ("(p1 until[0, 2] p2)", "(p1 U[0, 2] p2)"),
    ("always[0, 5] p1", "G[0, 5] p1", "[][0, 5] p1"),
    ("not p1", "! p1"),
    ("p1 and p2", "p1 /\\ p2", "p1 && p2"),
    ("p1 or p2", "p1 \\/ p2", "p1 || p2"),
]


def random_ast(rng, variables, names, depth):
    """Round-trip corpus formula: named predicates plus inline comparisons."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Predicate(rng.choice(names))
        var = rng.choice(variables)
        op = rng.choice(("<=", ">="))
        value = round(rng.uniform(-9.0, 9.0), 3)
        return parse_formula(f"{var} {op} {value!r}", variables)
    return random_formula_over(rng, variables, names, depth)


def random_formula_over(rng, variables, names, depth):
    # implication is desugared at parse time, so the parser's output domain
    # (what a fixpoint can range over) never contains an Implies node
    kind = rng.choice(
        ("not", "and", "or", "next", "eventually", "always", "until")
    )
    child = lambda: random_ast(rng, variables, names, depth - 1)  # noqa: E731
    if kind == "not":
        return Not(child())
    if kind == "and":
        return And(child(), child())
    if kind == "or":
        return Or(child(), child())
    if kind == "next":
        return Next(child())
    if kind == "eventually":
        return Eventually(child(), random_bound(rng))
    if kind == "always":
        return Always(child(), random_bound(rng))
    return Until(child(), child(), random_bound(rng))


def test_criterion_03_parser_round_trip_and_alias_collapse():
    with report(3, "format -> parse is a fixpoint on 1000 random ASTs and "
                   "alias spellings collapse to one AST"):
        rng = random.Random(CORPUS_SEED + 2)
        variables = ("x", "y")
        names = ("p1", "p2", "q", "safe")
        for _ in range(1000):
            ast = random_ast(rng, variables, names, depth=6)
            text = format_formula(ast)
            assert parse_formula(text, variables) == ast

        for row in ALIAS_ROWS:
            parsed = [parse_formula(spelling, variables) for spelling in row]
            assert all(ast == parsed[0] for ast in parsed[1:])


def harmonic_endpoint_error(step):
    trace = ode_simulate(
        lambda t, state, u: (state[1], -state[0]),
        (1.0, 0.0),
        (0.0, 2.0 * math.pi),
        (),
        step,
    )
    x, v = trace.states[-1]
    return math.hypot(x - 1.0, v)


def test_criterion_04_integrator_accuracy_and_order():
    with report(4, "harmonic endpoint error <= 1e-6 at step 1e-3 and error "
                   "ratio >= 12 per halving across steps 1e-1 to 1e-3"):
        assert harmonic_endpoint_error(1e-3) <= 1e-6

        steps = []
        step = 1e-1
        while step >= 1e-3:
            steps.append(step)
            step /= 2.0
        errors = [harmonic_endpoint_error(s) for s in steps]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 12.0


@functools.cache
def oscillator_runs():
    """First pass over seeds 0-9 with default falsification options,
    plus the wall-clock total."""
    bench = oscillator()
    spec = bench.specification()
    results = {}
    started = time.perf_counter()
    for seed in range(10):
        options = dataclasses.replace(bench.options, seed=seed)
        results[seed] = falsify(spec, bench.system, "uniform-random", options)[0]
    elapsed = time.perf_counter() - started
    return results, elapsed


def test_criterion_05_oscillator_falsified_across_seeds():
    with report(5, "oscillator benchmark falsified in >= 9 of seeds 0-9 at "
                   "100 iterations, total under 10 s"):
        results, elapsed = oscillator_runs()
        falsified = sum(run.falsified for run in results.values())
        assert falsified >= 9
        assert elapsed < 10.0


def test_criterion_06_stopping_semantics():
    with report(6, "falsified histories stop at the first violation within "
                   "budget; minimization consumes exactly the budget"):
        results, _ = oscillator_runs()
        for run in results.values():
            assert len(run.history) <= 100
            if run.falsified:
                assert run.history[-1].robustness < 0
                assert all(entry.robustness >= 0 for entry in run.history[:-1])

        bench = oscillator()
        options = dataclasses.replace(
            bench.options, behavior=Behavior.MINIMIZATION
        )
        rerun = falsify(
            bench.specification(), bench.system, "uniform-random", options
        )[0]
        assert len(rerun.history) == 100


def history_bits(run):
    return [
        (tuple(bits(x) for x in entry.sample), bits(entry.robustness))
        for entry in run.history
    ]


def test_criterion_07_reruns_are_bit_identical():
    with report(7, "rerunning seeds 0-9 reproduces bit-identical histories"):
        results, _ = oscillator_runs()
        bench = oscillator()
        spec = bench.specification()
        for seed, first in results.items():
            options = dataclasses.replace(bench.options, seed=seed)
            second = falsify(spec, bench.system, "uniform-random", options)[0]
            assert history_bits(second) == history_bits(first)


def test_criterion_08_annealing_no_worse_than_uniform():
    with report(8, "simulated annealing matches or beats uniform random on "
                   "the sphere in >= 8 of 10 seeds at equal budget"):
        space = SearchSpace(((-5.0, 5.0), (-5.0, 5.0)))

        def sphere(sample):
            return sum(x * x for x in sample)

        wins = 0
        for seed in range(10):
            _, best_annealing = optimize(
                "simulated-annealing", sphere, space, budget=500,
                behavior=Behavior.MINIMIZATION, seed=seed,
            )
            _, best_uniform = optimize(
                "uniform-random", sphere, space, budget=500,
                behavior=Behavior.MINIMIZATION, seed=seed,
            )
            wins += best_annealing.robustness <= best_uniform.robustness
        assert wins >= 8


ECHO_CHILD = """\
import sys
lines = sys.stdin.read().splitlines()
times = lines[1].split()
signals = [line.split() for line in lines[2:] if line.strip()]
print(" ".join(times))
for k in range(len(times)):
    print(" ".join(row[k] for row in signals) if signals else "0.0")
"""

CRASH_CHILD = """\
import sys
print("injected sensor fault", file=sys.stderr)
sys.exit(3)
"""


def test_criterion_09_cli_contract(tmp_path):
    with report(9, "CLI oscillator run writes schema-valid, mutually "
                   "consistent CSV and JSON and exits 10; a config without "
                   "a search space exits 1"):
        csv_path = tmp_path / "results.csv"
        json_path = tmp_path / "results.json"
        config_csv = tmp_path / "osc_csv.json"
        config_csv.write_text(json.dumps(
            {"system": "oscillator",
             "output": {"path": str(csv_path), "format": "csv"}}
        ))
        config_json = tmp_path / "osc_json.json"
        config_json.write_text(json.dumps(
            {"system": "oscillator",
             "output": {"path": str(json_path), "format": "json"}}
        ))

        assert main([str(config_csv)]) == 10
        assert main([str(config_json)]) == 10

        # CSV schema: fixed header, integer indices counting from zero,
        # float-parseable samples and robustness
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header == [
            "run_index", "iteration",
            "sample_0", "sample_1", "sample_2", "sample_3", "sample_4",
            "robustness",
        ]
        assert body
        assert [int(row[1]) for row in body] == list(range(len(body)))
        csv_view = [
            (int(row[0]), int(row[1]), tuple(float(v) for v in row[2:-1]),
             float(row[-1]))
            for row in body
        ]

        # JSON schema: one record per run with the documented keys
        with open(json_path, encoding="utf-8") as fh:
            records = json.load(fh)
        assert isinstance(records, list) and len(records) == 1
        record = records[0]
        assert set(record) == {
            "run_index", "falsified", "run_time", "best", "history", "failures"
        }
        assert record["run_index"] == 0
        assert record["falsified"] is True
        assert set(record["best"]) == {"sample", "robustness"}
        assert record["failures"] == []
        json_view = [
            (0, iteration, tuple(entry["sample"]), entry["robustness"])
            for iteration, entry in enumerate(record["history"])
        ]
        assert csv_view == json_view
        assert json_view[-1][3] < 0

        # a non-benchmark config that declares nothing to search over
        child = tmp_path / "echo.py"
        child.write_text(ECHO_CHILD)
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({
            "system": {"extern": [sys.executable, str(child)]},
            "spec": "p1",
            "variables": ["x"],
            "predicates": [{"name": "p1", "coefficients": [1.0], "bound": 5.0}],
            "options": {"iterations": 2},
        }))
        assert main([str(empty)]) == 1


def test_criterion_10_extern_protocol(tmp_path):
    with report(10, "extern echo child reproduces its input as a Trace; a "
                    "crashing child is a simulation error the campaign "
                    "survives under record-and-continue"):
        echo = tmp_path / "echo.py"
        echo.write_text(ECHO_CHILD)
        system = extern_blackbox([sys.executable, str(echo)], steps=4)
        signal = interpolator_create("piecewise-constant", (0.0, 1.0), [3.0])
        trace = system.simulate((), (signal,), (0.0, 1.0))
        assert trace == Trace(
            (0.0, 0.25, 0.5, 0.75, 1.0),
            ((3.0,), (3.0,), (3.0,), (3.0,), (3.0,)),
        )

        crash = tmp_path / "crash.py"
        crash.write_text(CRASH_CHILD)
        crashing = extern_blackbox([sys.executable, str(crash)], steps=4)
        with pytest.raises(SimulationError, match="injected sensor fault"):
            crashing.simulate((0.5,), (), (0.0, 1.0))

        predicates = PredicateMap(("x",))
        predicates.add("p1", (1.0,), 5.0)
        from stlfalsify.runner import StlSpecification

        options = Options(
            static_params=((0.0, 1.0),),
            iterations=3,
            interval=(0.0, 1.0),
            error_policy=ErrorPolicy.RECORD_AND_CONTINUE,
        )
        results = falsify(
            StlSpecification("p1", predicates), crashing, "uniform-random", options
        )
        run = results[0]
        assert len(run.failures) == 3
        assert len(run.history) == 3
        assert all(entry.robustness == math.inf for entry in run.history)
        assert not run.falsified
