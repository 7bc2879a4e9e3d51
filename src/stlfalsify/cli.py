"""Command-line front end: load a JSON configuration, search, write results.

Exit codes, in precedence order when several apply:

* 1  — configuration or validation error (bad file, unknown key, invalid
  options, malformed requirement), reported on standard error.
* 2  — a run aborted on a simulation error under the ``abort-run`` policy.
* 10 — the search completed and at least one run found a violation; distinct
  from 0 so CI pipelines can tell "requirement violated" from "tool failed".
* 0  — all runs completed without finding a violation.

Result files hold one row (CSV) or record (JSON) per objective evaluation;
both formats carry full round-trip decimal precision, so they agree exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import suppress
from dataclasses import replace
from typing import Callable, Mapping, Sequence

from .bench import BenchmarkSystem, get_benchmark
from .errors import StlSyntaxError, ValidationError
from .optim import ENGINES, Behavior
from .runner import (
    ErrorPolicy,
    Options,
    RunResult,
    SignalOptions,
    StlSpecification,
    falsify,
)
from .stl import PredicateMap
from .sut import extern_blackbox

__all__ = ["main", "load_config", "results_to_records"]


def _require(mapping: Mapping, key: str, where: str = "config"):
    if key not in mapping:
        raise ValidationError(f"{where} is missing required key {key!r}")
    return mapping[key]


def _object(value, where: str) -> dict:
    """A JSON object as a dict; ``where`` is its key path, "" for the root."""
    if not isinstance(value, Mapping):
        raise ValidationError(f"{where or 'config root'} must be a JSON object, got {value!r}")
    return dict(value)


def _fields(value, schema: Mapping[str, Callable], where: str, required=()) -> dict:
    """The JSON object ``value`` with each present key converted by its entry
    in ``schema``.  A converter takes the value and its key path and returns
    the value for the library or raises a :class:`ValidationError` naming the
    path; so do an unknown key and a missing ``required`` one."""
    value = _object(value, where)
    unknown = sorted(set(value) - set(schema))
    if unknown:
        raise ValidationError(f"unknown {where or 'config'} key(s): {', '.join(unknown)}")
    for key in required:
        _require(value, key, where or "config")
    return {key: schema[key](entry, f"{where}.{key}" if where else key)
            for key, entry in value.items()}


def _as_is(value, where: str):
    """Left to the library, which checks the value with its own message."""
    return value


def _number(value, where: str) -> float:
    """A JSON number as a float; anything else is a :class:`ValidationError`
    naming the key path ``where``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with suppress(OverflowError):  # an integer beyond the float range
            return float(value)
    raise ValidationError(f"{where} must be a number, got {value!r}")


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{where} must be a boolean, got {value!r}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{where} must be a string, got {value!r}")
    return value


def _pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValidationError(f"{where} must be a [lower, upper] pair, got {value!r}")
    return _number(value[0], f"{where}[0]"), _number(value[1], f"{where}[1]")


def _command(value, where: str):
    # iterating a str yields strs
    if isinstance(value, (str, list)) and all(isinstance(part, str) for part in value):
        return value
    raise ValidationError(f"{where} must be a string or an array of strings, got {value!r}")


def _array(item: Callable) -> Callable:
    """Converter of a JSON array whose entries each go through ``item``."""
    def convert(value, where: str) -> tuple:
        if not isinstance(value, list):
            raise ValidationError(f"{where} must be an array, got {value!r}")
        return tuple(item(entry, f"{where}[{k}]") for k, entry in enumerate(value))
    return convert


def _choice(*choices) -> Callable:
    """Converter of one name among ``choices``: strings, or Enum members
    named by their value."""
    names = {getattr(choice, "value", choice): choice for choice in choices}

    def convert(value, where: str):
        if isinstance(value, str) and value in names:
            return names[value]
        raise ValidationError(f"unknown {where} {value!r}; choose {list(names)}")
    return convert


def _section(schema: Mapping[str, Callable], required=(), build: Callable = dict) -> Callable:
    """Converter of a nested object: ``build`` called with its fields."""
    return lambda value, where: build(**_fields(value, schema, where, required))


def _system(value, where: str):
    """A benchmark, named alone or as ``{"benchmark": name}``, or an extern
    command object as an :func:`extern_blackbox`."""
    if isinstance(value, str):
        value = {"benchmark": value}
    elif not isinstance(value, Mapping):
        raise ValidationError(f"{where} must be a benchmark name or an object, got {value!r}")
    if "benchmark" in value:
        return get_benchmark(_fields(value, {"benchmark": _string}, where)["benchmark"])
    if "extern" in value:
        fields = _fields(value, _EXTERN, where)
        return extern_blackbox(fields.pop("extern"), **fields)
    raise ValidationError(f"{where} must name a 'benchmark' or an 'extern' command")


def _optimizer(value, where: str) -> tuple[str, dict | None]:
    """An engine name, alone or as ``{"name": ..., "options": {...}}``, with
    its options."""
    if isinstance(value, str):
        value = {"name": value}
    elif not isinstance(value, Mapping):
        raise ValidationError(f"{where} must be a name or an object, got {value!r}")
    fields = _fields(value, {"name": _string, "options": _object}, where, ("name",))
    return fields["name"], fields.get("options")


_EXTERN = {"extern": _command, "steps": _as_is, "timeout": _number, "reentrant": _boolean}
_OPTIONS = {
    "static_params": _array(_pair),
    "signals": _array(_section(
        {"bound": _pair, "control_points": _as_is, "interpolator": _as_is},
        ("bound",), SignalOptions)),
    "iterations": _as_is,
    "runs": _as_is,
    "seed": _as_is,
    "behavior": _choice(*Behavior),
    "interval": _pair,
    "error_policy": _choice(*ErrorPolicy),
    "parallel_runs": _boolean,
}
_CONFIG = {
    "system": _system,
    "spec": _string,
    "variables": _array(_string),
    "predicates": _array(_section(
        {"name": _string, "coefficients": _array(_number), "bound": _number},
        ("name", "coefficients", "bound"))),
    "optimizer": _optimizer,
    "options": _section(_OPTIONS),
    "output": _section({"path": _string, "format": _choice("csv", "json")}),
}


def load_config(path: str) -> dict:
    """Read the JSON configuration and convert every section with its table;
    an unknown key or a value of the wrong JSON type is a
    :class:`ValidationError` naming its key path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path!r} is not valid JSON: {exc}") from exc
    return _fields(config, _CONFIG, "", ("system",))


def _build_campaign(config: dict, args: argparse.Namespace) -> tuple[dict, str | None, str | None]:
    """The keyword arguments of :func:`falsify`, then the result file's path
    and format (both ``None`` when no file is written)."""
    benchmark = config["system"] if isinstance(config["system"], BenchmarkSystem) else None

    # options: benchmark defaults, overlaid by config, overlaid by flags
    overrides = {**config.get("options", {}), **{
        key: getattr(args, key) for key in ("seed", "iterations", "runs")
        if getattr(args, key) is not None}}
    options = replace(benchmark.options, **overrides) if benchmark else Options(**overrides)

    # requirement: benchmark default unless the config replaces it
    if benchmark is None or "variables" in config or "predicates" in config:
        predicates = PredicateMap(_require(config, "variables"))
        for entry in config.get("predicates", ()):
            predicates.add(**entry)
    else:
        predicates = benchmark.predicates
    formula = config.get("spec", benchmark.formula) if benchmark else _require(config, "spec")

    optimizer, engine_options = config.get("optimizer", ("uniform-random", None))
    if args.optimizer is not None and args.optimizer != optimizer:
        optimizer = args.optimizer
        engine_options = None  # file options belong to the replaced engine

    output = config.get("output", {})
    out_path = args.out if args.out is not None else output.get("path")
    out_format = args.format if args.format is not None else output.get("format")
    if out_format is None and out_path is not None:
        out_format = "json" if out_path.endswith(".json") else "csv"

    campaign = dict(spec=StlSpecification(formula, predicates),
                    sut=benchmark.system if benchmark else config["system"],
                    optimizer=optimizer, options=options, engine_options=engine_options)
    return campaign, out_path, out_format


def results_to_records(results: Sequence[RunResult]) -> list[dict]:
    """JSON-ready view of the run results, one record per run."""
    return [
        {
            "run_index": index,
            "falsified": run.falsified,
            "run_time": run.run_time,
            "best": None if run.best is None else {
                "sample": list(run.best.sample),
                "robustness": run.best.robustness,
            },
            "history": [
                {"sample": list(entry.sample), "robustness": entry.robustness}
                for entry in run.history
            ],
            "failures": [
                {"sample": list(sample), "error": message}
                for sample, message in run.failures
            ],
        }
        for index, run in enumerate(results)
    ]


def write_csv(path: str, results: Sequence[RunResult]) -> None:
    """One row per evaluation: run_index, iteration, sample coordinates,
    robustness; floats in full round-trip precision."""
    dimension = max(
        (len(entry.sample) for run in results for entry in run.history), default=0
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["run_index", "iteration"]
            + [f"sample_{k}" for k in range(dimension)]
            + ["robustness"]
        )
        for index, run in enumerate(results):
            for iteration, entry in enumerate(run.history):
                writer.writerow(
                    [index, iteration]
                    + [repr(v) for v in entry.sample]
                    + [repr(entry.robustness)]
                )


def write_json(path: str, results: Sequence[RunResult]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results_to_records(results), fh, indent=2)
        fh.write("\n")


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so usage errors share the validation exit code
    def error(self, message):
        raise _ArgumentError(message)


def _make_parser() -> _Parser:
    parser = _Parser(
        prog="stlfalsify",
        description="Search a system's input space for requirement violations.",
    )
    parser.add_argument("config", help="path to a JSON falsification configuration")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument("--iterations", type=int, help="override the evaluation budget per run")
    parser.add_argument("--runs", type=int, help="override the number of runs")
    parser.add_argument(
        "--optimizer",
        choices=sorted(ENGINES),
        help="override the engine (drops engine options from the file)",
    )
    parser.add_argument("--out", help="override the result file path")
    parser.add_argument("--format", choices=["csv", "json"], help="override the result format")
    parser.add_argument(
        "--verbose", action="store_true", help="print one line per evaluation"
    )
    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    try:
        args = _make_parser().parse_args(argv)
        campaign, out_path, out_format = _build_campaign(load_config(args.config), args)
        results = falsify(**campaign)
    except (_ArgumentError, ValidationError, StlSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for index, run in enumerate(results):
        if args.verbose:
            for iteration, entry in enumerate(run.history):
                print(
                    f"run {index} iter {iteration}: robustness "
                    f"{entry.robustness!r} sample {list(entry.sample)!r}"
                )
        status = "falsified" if run.falsified else "no violation"
        print(
            f"run {index}: {status} after {len(run.history)} evaluations, "
            f"best robustness {None if run.best is None else run.best.robustness}, "
            f"{run.run_time:.2f} s, {len(run.failures)} failed simulation(s)"
        )

    if out_path is not None:
        try:
            if out_format == "json":
                write_json(out_path, results)
            else:
                write_csv(out_path, results)
        except OSError as exc:
            print(f"error: cannot write {out_path!r}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {out_format} results to {out_path}")

    aborted = campaign["options"].error_policy is ErrorPolicy.ABORT_RUN and any(
        run.failures for run in results
    )
    if aborted:
        return 2
    if any(run.falsified for run in results):
        return 10
    return 0
