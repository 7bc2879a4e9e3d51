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
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .bench import get_benchmark
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


_ROOT_KEYS = {"system", "spec", "variables", "predicates", "optimizer", "options", "output"}
_OPTION_KEYS = {
    "static_params", "signals", "iterations", "runs", "seed", "behavior",
    "interval", "error_policy", "parallel_runs",
}
_SIGNAL_KEYS = {"bound", "control_points", "interpolator"}
_PREDICATE_KEYS = {"name", "coefficients", "bound"}
_OUTPUT_KEYS = {"path", "format"}
_EXTERN_KEYS = {"extern", "steps", "timeout", "interpolate", "reentrant"}
_OPTIMIZER_KEYS = {"name", "options"}


def _check_keys(mapping: Mapping, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ValidationError(f"unknown {where} key(s): {', '.join(unknown)}")


def _require(mapping: Mapping, key: str, where: str):
    if key not in mapping:
        raise ValidationError(f"{where} is missing required key {key!r}")
    return mapping[key]


def load_config(path: str) -> dict:
    """Read and parse the JSON configuration, rejecting unknown root keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ValidationError("config root must be a JSON object")
    _check_keys(config, _ROOT_KEYS, "config")
    return config


def _number(value, where: str) -> float:
    """A JSON number as a float; anything else is a :class:`ValidationError`
    naming the key path ``where``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with suppress(OverflowError):  # an integer beyond the float range
            return float(value)
    raise ValidationError(f"{where} must be a number, got {value!r}")


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where} must be an array, got {value!r}")
    return value


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{where} must be a boolean, got {value!r}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{where} must be a string, got {value!r}")
    return value


def _pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValidationError(f"{where} must be a [lower, upper] pair, got {value!r}")
    return _number(value[0], f"{where}[0]"), _number(value[1], f"{where}[1]")


def _convert_options(cfg: Mapping, where: str = "options") -> dict:
    """Translate JSON option fields into Options constructor arguments."""
    _check_keys(cfg, _OPTION_KEYS, where)
    out: dict = {}
    if "static_params" in cfg:
        out["static_params"] = tuple(
            _pair(entry, f"{where}.static_params[{k}]")
            for k, entry in enumerate(_array(cfg["static_params"], f"{where}.static_params"))
        )
    if "signals" in cfg:
        converted = []
        for k, entry in enumerate(_array(cfg["signals"], f"{where}.signals")):
            if not isinstance(entry, Mapping):
                raise ValidationError(f"{where}.signals[{k}] must be an object")
            _check_keys(entry, _SIGNAL_KEYS, f"{where}.signals[{k}]")
            fields = {"bound": _pair(_require(entry, "bound", f"{where}.signals[{k}]"),
                                     f"{where}.signals[{k}].bound")}
            for key in ("control_points", "interpolator"):
                if key in entry:
                    fields[key] = entry[key]
            converted.append(SignalOptions(**fields))
        out["signals"] = tuple(converted)
    for key in ("iterations", "runs", "seed"):
        if key in cfg:
            out[key] = cfg[key]
    if "behavior" in cfg:
        try:
            out["behavior"] = Behavior(cfg["behavior"])
        except ValueError:
            raise ValidationError(
                f"unknown behavior {cfg['behavior']!r}; choose "
                f"{[b.value for b in Behavior]}"
            ) from None
    if "interval" in cfg:
        out["interval"] = _pair(cfg["interval"], f"{where}.interval")
    if "error_policy" in cfg:
        try:
            out["error_policy"] = ErrorPolicy(cfg["error_policy"])
        except ValueError:
            raise ValidationError(
                f"unknown error_policy {cfg['error_policy']!r}; choose "
                f"{[p.value for p in ErrorPolicy]}"
            ) from None
    if "parallel_runs" in cfg:
        out["parallel_runs"] = _boolean(cfg["parallel_runs"], f"{where}.parallel_runs")
    return out


def _build_predicates(variables: Sequence[str], entries: Sequence) -> PredicateMap:
    predicates = PredicateMap(tuple(variables))
    for k, entry in enumerate(_array(entries, "predicates")):
        where = f"predicates[{k}]"
        if not isinstance(entry, Mapping):
            raise ValidationError(f"{where} must be an object")
        _check_keys(entry, _PREDICATE_KEYS, where)
        coefficients = _array(_require(entry, "coefficients", where), f"{where}.coefficients")
        predicates.add(
            _string(_require(entry, "name", where), f"{where}.name"),
            [_number(c, f"{where}.coefficients[{j}]") for j, c in enumerate(coefficients)],
            _number(_require(entry, "bound", where), f"{where}.bound"),
        )
    return predicates


@dataclass
class _Campaign:
    spec: StlSpecification
    system: object
    optimizer: str
    engine_options: dict | None
    options: Options
    out_path: str | None
    out_format: str | None


def _build_campaign(config: dict, args: argparse.Namespace) -> _Campaign:
    system_cfg = _require(config, "system", "config")
    benchmark = None
    if isinstance(system_cfg, str):
        benchmark = get_benchmark(system_cfg)
        system = benchmark.system
    elif isinstance(system_cfg, Mapping):
        if "benchmark" in system_cfg:
            _check_keys(system_cfg, {"benchmark"}, "system")
            benchmark = get_benchmark(_string(system_cfg["benchmark"], "system.benchmark"))
            system = benchmark.system
        elif "extern" in system_cfg:
            _check_keys(system_cfg, _EXTERN_KEYS, "system")
            fields = {}
            if "steps" in system_cfg:
                fields["steps"] = system_cfg["steps"]
            if "timeout" in system_cfg:
                fields["timeout"] = _number(system_cfg["timeout"], "system.timeout")
            for key in ("interpolate", "reentrant"):
                if key in system_cfg:
                    fields[key] = _boolean(system_cfg[key], f"system.{key}")
            command = system_cfg["extern"]
            if not isinstance(command, (str, list)) or not all(
                    isinstance(part, str) for part in command):  # iterating a str yields strs
                raise ValidationError("system.extern must be a string or an array of "
                                      f"strings, got {command!r}")
            system = extern_blackbox(command, **fields)
        else:
            raise ValidationError("system must name a 'benchmark' or an 'extern' command")
    else:
        raise ValidationError("system must be a benchmark name or an object")

    # options: benchmark defaults, overlaid by config, overlaid by flags
    overrides = _convert_options(config.get("options", {}))
    if benchmark is not None:
        options = replace(benchmark.options, **overrides) if overrides \
            else benchmark.options
    else:
        options = Options(**overrides)
    flag_fields = {}
    if args.seed is not None:
        flag_fields["seed"] = args.seed
    if args.iterations is not None:
        flag_fields["iterations"] = args.iterations
    if args.runs is not None:
        flag_fields["runs"] = args.runs
    if flag_fields:
        options = replace(options, **flag_fields)

    # requirement: benchmark default unless the config replaces it
    if "variables" in config or "predicates" in config:
        variables = _array(_require(config, "variables", "config"), "variables")
        predicates = _build_predicates(variables, config.get("predicates", []))
    elif benchmark is not None:
        predicates = benchmark.predicates
    else:
        raise ValidationError("config is missing required key 'variables'")
    if "spec" in config:
        formula = _string(config["spec"], "spec")
    elif benchmark is not None:
        formula = benchmark.formula
    else:
        raise ValidationError("config is missing required key 'spec'")
    spec = StlSpecification(formula, predicates)

    optimizer_cfg = config.get("optimizer", "uniform-random")
    engine_options = None
    if isinstance(optimizer_cfg, str):
        optimizer = optimizer_cfg
    elif isinstance(optimizer_cfg, Mapping):
        _check_keys(optimizer_cfg, _OPTIMIZER_KEYS, "optimizer")
        optimizer = _string(_require(optimizer_cfg, "name", "optimizer"), "optimizer.name")
        raw = optimizer_cfg.get("options")
        if raw is not None and not isinstance(raw, Mapping):
            raise ValidationError("optimizer options must be an object")
        engine_options = dict(raw) if raw else None
    else:
        raise ValidationError("optimizer must be a name or an object")
    if args.optimizer is not None and args.optimizer != optimizer:
        optimizer = args.optimizer
        engine_options = None  # file options belong to the replaced engine

    output_cfg = config.get("output", {})
    if not isinstance(output_cfg, Mapping):
        raise ValidationError("output must be an object")
    _check_keys(output_cfg, _OUTPUT_KEYS, "output")
    if not isinstance(output_cfg.get("path", ""), str):
        raise ValidationError(f"output.path must be a string, got {output_cfg['path']!r}")
    out_path = args.out if args.out is not None else output_cfg.get("path")
    out_format = args.format if args.format is not None else output_cfg.get("format")
    if out_format is None and out_path is not None:
        out_format = "json" if out_path.endswith(".json") else "csv"
    if out_format is not None and out_format not in ("csv", "json"):
        raise ValidationError(f"unknown output format {out_format!r}; choose csv or json")

    return _Campaign(
        spec=spec,
        system=system,
        optimizer=optimizer,
        engine_options=engine_options,
        options=options,
        out_path=out_path,
        out_format=out_format,
    )


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
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        config = load_config(args.config)
        campaign = _build_campaign(config, args)
        results = falsify(
            campaign.spec,
            campaign.system,
            campaign.optimizer,
            campaign.options,
            campaign.engine_options,
        )
    except (ValidationError, StlSyntaxError) as exc:
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

    if campaign.out_path is not None:
        try:
            if campaign.out_format == "json":
                write_json(campaign.out_path, results)
            else:
                write_csv(campaign.out_path, results)
        except OSError as exc:
            print(f"error: cannot write {campaign.out_path!r}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {campaign.out_format} results to {campaign.out_path}")

    aborted = campaign.options.error_policy is ErrorPolicy.ABORT_RUN and any(
        run.failures for run in results
    )
    if aborted:
        return 2
    if any(run.falsified for run in results):
        return 10
    return 0
