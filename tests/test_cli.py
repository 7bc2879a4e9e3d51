"""Command-line front end and the external-process system bridge."""

import csv
import json
import math
import sys

import pytest

from stlfalsify.bench import oscillator
from stlfalsify.cli import extern_blackbox, load_config, main, results_to_records
from stlfalsify.errors import (
    SimulationError,
    TraceValidationError,
    ValidationError,
)
from stlfalsify.monitor import Trace
from stlfalsify.optim import Evaluation
from stlfalsify.runner import ErrorPolicy, Options, StlSpecification, falsify
from stlfalsify.stl import PredicateMap
from stlfalsify.sut import interpolator_create

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
print("boiler pressure sensor offline", file=sys.stderr)
sys.exit(3)
"""

RAGGED_CHILD = """\
print("0.0 1.0")
print("1.0")
print("1.0 2.0")
"""

SLEEPY_CHILD = """\
import time
time.sleep(30)
"""


def write_child(tmp_path, name, source):
    script = tmp_path / name
    script.write_text(source)
    return [sys.executable, str(script)]


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def extern_config(tmp_path, child, **option_overrides):
    options = {
        "static_params": [[0.0, 1.0]],
        "iterations": 3,
        "interval": [0.0, 1.0],
    }
    options.update(option_overrides)
    return write_config(
        tmp_path,
        "extern.json",
        {
            "system": {"extern": child, "steps": 4},
            "spec": "p1",
            "variables": ["x"],
            "predicates": [{"name": "p1", "coefficients": [1.0], "bound": 5.0}],
            "options": options,
        },
    )


def read_records(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def records_to_history(record):
    return tuple(
        Evaluation(tuple(entry["sample"]), entry["robustness"])
        for entry in record["history"]
    )


class TestExternBlackbox:
    def test_echo_round_trips_exactly(self, tmp_path):
        child = write_child(tmp_path, "echo.py", ECHO_CHILD)
        system = extern_blackbox(child, steps=4)
        signal = interpolator_create("piecewise-constant", (0.0, 1.0), [3.0])
        trace = system.simulate((), (signal,), (0.0, 1.0))
        assert trace == Trace(
            (0.0, 0.25, 0.5, 0.75, 1.0),
            ((3.0,), (3.0,), (3.0,), (3.0,), (3.0,)),
        )

    def test_full_precision_survives_the_pipe(self, tmp_path):
        child = write_child(tmp_path, "echo.py", ECHO_CHILD)
        system = extern_blackbox(child, steps=2)
        awkward = 0.1 + 0.2  # 0.30000000000000004
        signal = interpolator_create("piecewise-constant", (0.0, 1.0), [awkward])
        trace = system.simulate((), (signal,), (0.0, 1.0))
        assert trace.states[0] == (awkward,)

    def test_crash_reports_stderr(self, tmp_path):
        child = write_child(tmp_path, "crash.py", CRASH_CHILD)
        system = extern_blackbox(child, steps=2)
        with pytest.raises(SimulationError, match="code 3.*boiler pressure"):
            system.simulate((0.5,), (), (0.0, 1.0))

    def test_ragged_output_rejected(self, tmp_path):
        child = write_child(tmp_path, "ragged.py", RAGGED_CHILD)
        system = extern_blackbox(child, steps=2)
        with pytest.raises(TraceValidationError):
            system.simulate((0.5,), (), (0.0, 1.0))

    def test_timeout_enforced(self, tmp_path):
        child = write_child(tmp_path, "sleepy.py", SLEEPY_CHILD)
        system = extern_blackbox(child, steps=2, timeout=0.5)
        with pytest.raises(SimulationError, match="timed out"):
            system.simulate((0.5,), (), (0.0, 1.0))

    def test_empty_command_rejected(self):
        with pytest.raises(ValidationError):
            extern_blackbox([])

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValidationError):
            extern_blackbox(["true"], timeout=0.0)

    def test_unlaunchable_command(self, tmp_path):
        system = extern_blackbox([str(tmp_path / "no-such-binary")], steps=2)
        with pytest.raises(SimulationError, match="could not launch"):
            system.simulate((0.5,), (), (0.0, 1.0))


def echo_times_then(row_for):
    """Child source that prints the requested time grid, then ``row_for(k)``
    as the state row of the k-th timestamp."""
    return (
        "import sys\n"
        "times = sys.stdin.read().splitlines()[1]\n"
        "print(times)\n"
        "for k in range(len(times.split())):\n"
        f"    print({row_for})\n"
    )


class TestExternFaultInjection:
    @pytest.mark.parametrize("source, timeout, error", [
        (echo_times_then("'nan' if k == 2 else '0.5'"), 60.0, "non-finite state"),
        (echo_times_then("'inf' if k == 2 else '0.5'"), 60.0, "non-finite state"),
        ("pass", 60.0, "produced no output"),
        (echo_times_then("'0.5 0.5' if k == 2 else '0.5'"), 60.0, "ragged trajectory"),
        ("import time; time.sleep(30)", 0.5, "timed out after 0.5 s"),
        (echo_times_then("'0.5'") + "print('0.5')\n", 60.0,
         "5 timestamps but 6 state vectors"),
        (echo_times_then("' '.join(['0.5'] * 10**5) if k == 2 else '0.5'"), 60.0,
         "ragged trajectory"),
    ], ids=["nan", "inf", "silent", "ragged", "hang", "extra-row", "long-row"])
    def test_fault_is_a_recorded_failure(self, source, timeout, error):
        predicates = PredicateMap(("x",))
        predicates.add("p", (1.0,), 5.0)
        system = extern_blackbox([sys.executable, "-c", source], steps=4, timeout=timeout)
        options = Options(static_params=((0.0, 1.0),), iterations=2,
                          error_policy=ErrorPolicy.RECORD_AND_CONTINUE)
        run = falsify(StlSpecification("[] p", predicates), system,
                      "uniform-random", options)[0]
        assert len(run.failures) == 2
        assert all(error in message for _, message in run.failures)
        assert [entry.robustness for entry in run.history] == [math.inf, math.inf]
        assert not run.falsified


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_config(str(path))

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValidationError, match="root"):
            load_config(str(path))

    def test_unknown_root_key_named(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"system": "oscillator", "sytem": 1})
        with pytest.raises(ValidationError, match="sytem"):
            load_config(path)


class TestMainHappyPath:
    def test_oscillator_csv(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        config = write_config(
            tmp_path,
            "osc.json",
            {"system": "oscillator", "output": {"path": str(out), "format": "csv"}},
        )
        assert main([config]) == 10
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header == [
            "run_index", "iteration",
            "sample_0", "sample_1", "sample_2", "sample_3", "sample_4",
            "robustness",
        ]
        assert 1 <= len(body) <= 100
        assert all(row[0] == "0" for row in body)
        assert [int(row[1]) for row in body] == list(range(len(body)))
        assert float(body[-1][-1]) < 0
        assert all(float(row[-1]) >= 0 for row in body[:-1])
        assert "falsified" in capsys.readouterr().out

    def test_json_matches_library_run(self, tmp_path):
        out = tmp_path / "results.json"
        config = write_config(
            tmp_path,
            "osc.json",
            {"system": "oscillator", "output": {"path": str(out)}},
        )
        assert main([config]) == 10
        records = read_records(str(out))

        bench = oscillator()
        direct = falsify(
            bench.specification(), bench.system, "uniform-random", bench.options
        )
        assert len(records) == len(direct) == 1
        record, run = records[0], direct[0]
        assert record["falsified"] == run.falsified
        assert records_to_history(record) == run.history
        assert Evaluation(
            tuple(record["best"]["sample"]), record["best"]["robustness"]
        ) == run.best
        assert record["failures"] == []

    def test_csv_and_json_agree(self, tmp_path):
        csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
        base = {"system": "oscillator"}
        config_csv = write_config(
            tmp_path, "a.json", {**base, "output": {"path": str(csv_out)}}
        )
        config_json = write_config(
            tmp_path, "b.json", {**base, "output": {"path": str(json_out)}}
        )
        assert main([config_csv]) == 10
        assert main([config_json]) == 10

        records = read_records(str(json_out))
        with open(csv_out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        parsed = [
            (int(row[0]), int(row[1]), tuple(float(v) for v in row[2:-1]),
             float(row[-1]))
            for row in rows
        ]
        flattened = [
            (index, iteration, entry.sample, entry.robustness)
            for index, record in enumerate(records)
            for iteration, entry in enumerate(records_to_history(record))
        ]
        assert parsed == flattened

    def test_no_violation_exits_zero(self, tmp_path, capsys):
        # predicate bound far above anything reachable from this box
        config = extern_config(
            tmp_path, write_child(tmp_path, "echo.py", ECHO_CHILD)
        )
        assert main([config]) == 0
        assert "no violation" in capsys.readouterr().out

    def test_verbose_prints_each_evaluation(self, tmp_path, capsys):
        config = extern_config(
            tmp_path, write_child(tmp_path, "echo.py", ECHO_CHILD)
        )
        assert main([config, "--verbose"]) == 0
        out = capsys.readouterr().out
        assert out.count("iter") == 3

    def test_format_inferred_from_extension(self, tmp_path):
        out = tmp_path / "results.json"
        config = write_config(
            tmp_path,
            "osc.json",
            {"system": "oscillator", "output": {"path": str(out)}},
        )
        main([config])
        read_records(str(out))  # parses as JSON


class TestMainFlags:
    def run_json(self, tmp_path, config_name, config, argv_extra):
        out = tmp_path / f"{config_name}.out.json"
        path = write_config(tmp_path, config_name, config)
        code = main([path, "--out", str(out), "--format", "json"] + argv_extra)
        return code, read_records(str(out))

    def test_seed_flag_changes_the_search(self, tmp_path):
        config = {"system": "oscillator", "options": {"iterations": 5,
                                                      "behavior": "minimization"}}
        _, records_a = self.run_json(tmp_path, "a.json", config, ["--seed", "0"])
        _, records_b = self.run_json(tmp_path, "b.json", config, ["--seed", "77"])
        assert records_a[0]["history"] != records_b[0]["history"]

    def test_seed_flag_matches_config_seed(self, tmp_path):
        base = {"system": "oscillator", "options": {"iterations": 5,
                                                    "behavior": "minimization"}}
        flagged = dict(base)
        seeded = {**base, "options": {**base["options"], "seed": 77}}
        _, records_a = self.run_json(tmp_path, "a.json", flagged, ["--seed", "77"])
        _, records_b = self.run_json(tmp_path, "b.json", seeded, [])
        assert records_a[0]["history"] == records_b[0]["history"]
        assert records_a[0]["best"] == records_b[0]["best"]

    def test_iterations_flag_caps_history(self, tmp_path):
        config = {"system": "oscillator", "options": {"behavior": "minimization"}}
        _, records = self.run_json(tmp_path, "a.json", config, ["--iterations", "7"])
        assert len(records[0]["history"]) == 7

    def test_runs_flag(self, tmp_path):
        config = {"system": "oscillator", "options": {"iterations": 3,
                                                      "behavior": "minimization"}}
        _, records = self.run_json(tmp_path, "a.json", config, ["--runs", "3"])
        assert [record["run_index"] for record in records] == [0, 1, 2]

    def test_optimizer_flag_overrides_and_drops_options(self, tmp_path):
        # the file's engine options belong to simulated-annealing; switching
        # engines on the command line must not forward them
        config = {
            "system": "oscillator",
            "optimizer": {
                "name": "simulated-annealing",
                "options": {"initial_temperature": 2.0},
            },
            "options": {"iterations": 5, "behavior": "minimization"},
        }
        code, records = self.run_json(
            tmp_path, "a.json", config, ["--optimizer", "uniform-random"]
        )
        assert code != 1  # the stale engine options must not be rejected
        assert len(records[0]["history"]) == 5

    def test_out_flag_overrides_config_path(self, tmp_path):
        configured = tmp_path / "ignored.json"
        config = write_config(
            tmp_path,
            "osc.json",
            {
                "system": "oscillator",
                "options": {"iterations": 3, "behavior": "minimization"},
                "output": {"path": str(configured), "format": "json"},
            },
        )
        out = tmp_path / "chosen.json"
        main([config, "--out", str(out)])
        assert out.exists()
        assert not configured.exists()


class TestMainValidation:
    def expect_error(self, capsys, argv, *needles):
        assert main(argv) == 1
        err = capsys.readouterr().err
        for needle in needles:
            assert needle in err

    def test_missing_config_file(self, tmp_path, capsys):
        self.expect_error(capsys, [str(tmp_path / "none.json")], "cannot read")

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ nope")
        self.expect_error(capsys, [str(path)], "not valid JSON")

    def test_unknown_root_key(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "c.json", {"system": "oscillator", "optimiser": "x"}
        )
        self.expect_error(capsys, [path], "optimiser")

    def test_unknown_options_key(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "c.json",
            {"system": "oscillator", "options": {"itreations": 5}},
        )
        self.expect_error(capsys, [path], "itreations")

    def test_unknown_benchmark(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"system": "pendulum"})
        self.expect_error(capsys, [path], "unknown benchmark", "pendulum")

    def test_unknown_optimizer_in_config(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "c.json",
            {"system": "oscillator", "optimizer": "gradient-descent"},
        )
        self.expect_error(capsys, [path], "unknown optimizer")

    def test_unknown_optimizer_flag_remapped_to_one(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"system": "oscillator"})
        assert main([path, "--optimizer", "gradient-descent"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_search_space(self, tmp_path, capsys):
        child = write_child(tmp_path, "echo.py", ECHO_CHILD)
        path = write_config(
            tmp_path,
            "c.json",
            {
                "system": {"extern": child},
                "spec": "p1",
                "variables": ["x"],
                "predicates": [
                    {"name": "p1", "coefficients": [1.0], "bound": 5.0}
                ],
                "options": {"iterations": 2},
            },
        )
        self.expect_error(capsys, [path], "nothing to search")

    def test_bad_formula_reported(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "c.json",
            {
                "system": "oscillator",
                "spec": "p1 and and p2",
            },
        )
        self.expect_error(capsys, [path], "syntax error")

    def test_nan_predicate_data_rejected(self, tmp_path, capsys):
        # json.dumps writes NaN, which json.load reads back as a float;
        # accepted, it failed every evaluation as a system fault
        path = write_config(
            tmp_path,
            "c.json",
            {
                "system": "oscillator",
                "spec": "[] p1",
                "variables": ["x1", "x2"],
                "predicates": [
                    {"name": "p1", "coefficients": [1.0, float("nan")], "bound": 1.0}
                ],
            },
        )
        self.expect_error(capsys, [path], "non-finite", "'p1'")

    def test_bad_output_format(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "c.json",
            {"system": "oscillator", "output": {"path": "x.dat", "format": "xml"}},
        )
        self.expect_error(capsys, [path], "format")

    def test_no_arguments(self, capsys):
        assert main([]) == 1


class TestMainErrorPolicies:
    def test_crashing_child_survives_under_record_and_continue(
        self, tmp_path, capsys
    ):
        child = write_child(tmp_path, "crash.py", CRASH_CHILD)
        out = tmp_path / "results.json"
        config = extern_config(
            tmp_path, child, error_policy="record-and-continue"
        )
        code = main([config, "--out", str(out)])
        assert code == 0  # failures recorded, nothing falsified, no abort
        records = read_records(str(out))
        record = records[0]
        assert len(record["failures"]) == 3
        assert "boiler pressure" in record["failures"][0]["error"]
        assert all(
            entry["robustness"] == math.inf for entry in record["history"]
        )
        assert record["falsified"] is False
        assert "3 failed simulation(s)" in capsys.readouterr().out

    def test_crashing_child_aborts_run_by_default(self, tmp_path):
        child = write_child(tmp_path, "crash.py", CRASH_CHILD)
        config = extern_config(tmp_path, child)
        assert main([config]) == 2

    def test_ragged_child_follows_error_policy(self, tmp_path):
        child = write_child(tmp_path, "ragged.py", RAGGED_CHILD)
        config = extern_config(
            tmp_path, child, error_policy="record-and-continue"
        )
        assert main([config]) == 0


class TestResultsToRecords:
    def test_none_best_serialized(self):
        from stlfalsify.runner import RunResult

        record = results_to_records(
            [RunResult((), None, 0.5, False, (((1.0,), "boom"),))]
        )[0]
        assert record["best"] is None
        assert record["history"] == []
        assert record["failures"] == [{"sample": [1.0], "error": "boom"}]

    def test_infinity_round_trips_through_json(self, tmp_path):
        from stlfalsify.runner import RunResult

        results = [
            RunResult(
                (Evaluation((0.5,), math.inf),),
                Evaluation((0.5,), math.inf),
                0.1,
                False,
                (((0.5,), "x"),),
            )
        ]
        from stlfalsify.cli import write_json

        path = tmp_path / "inf.json"
        write_json(str(path), results)
        loaded = read_records(str(path))
        assert loaded[0]["history"][0]["robustness"] == math.inf
