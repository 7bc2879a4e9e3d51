"""Falsification driver tying together system, requirement, and search.

The entry point :func:`falsify` validates the options, assembles the search
space (static-parameter bounds followed by each signal's value bound
repeated once per control point), builds the objective function

    sample -> decompose -> simulate -> robustness at the trace start,

and drives the chosen optimizer for ``runs`` independent experiments, each
seeded with ``options.seed + run_index``.  One :class:`RunResult` per run is
returned, in run order.

Simulation failures follow the configured error policy.  ``abort-run`` (the
default) stops the affected run, keeping the history gathered so far;
``record-and-continue`` logs the failure, scores the sample +infinity (so a
failure can never count as a falsification), and keeps searching.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Protocol, Sequence

from .errors import SimulationError, TraceValidationError, ValidationError, _integer
from .monitor import Trace, evaluate
from .optim import (
    Behavior,
    Evaluation,
    Optimizer,
    SearchSpace,
    optimize,
)
from .stl import Formula, PredicateMap, parse_formula
from .sut import (INTERPOLATORS, Interpolator, System, _checked_interval,
                  interpolator_create)

__all__ = [
    "SignalOptions",
    "Options",
    "ErrorPolicy",
    "RunResult",
    "Specification",
    "StlSpecification",
    "decompose_sample",
    "search_space",
    "make_objective",
    "falsify",
]


class ErrorPolicy(Enum):
    """What to do when a simulation fails mid-search."""

    ABORT_RUN = "abort-run"
    RECORD_AND_CONTINUE = "record-and-continue"


@dataclass(frozen=True)
class SignalOptions:
    """Search-space description of one time-varying input signal."""

    bound: tuple[float, float]
    control_points: int = 2
    interpolator: str = "piecewise-constant"

    def __post_init__(self):
        lo, hi = float(self.bound[0]), float(self.bound[1])
        object.__setattr__(self, "bound", (lo, hi))
        _integer(self.control_points, "control_points")
        if not lo < hi:
            raise ValidationError(
                f"signal bound lower {lo} must be below upper {hi}"
            )
        # a kind read from JSON may be a list, which a dict lookup rejects
        if not isinstance(self.interpolator, str) or self.interpolator not in INTERPOLATORS:
            raise ValidationError(
                f"unknown interpolator {self.interpolator!r}; "
                f"choose one of {tuple(INTERPOLATORS)}"
            )
        minimum = INTERPOLATORS[self.interpolator].min_points
        if self.control_points < minimum:
            raise ValidationError(
                f"{self.interpolator} signal needs at least {minimum} control "
                f"points, got {self.control_points}"
            )


@dataclass(frozen=True)
class Options:
    """Everything a falsification campaign needs besides system and spec."""

    static_params: tuple[tuple[float, float], ...] = ()
    signals: tuple[SignalOptions, ...] = ()
    iterations: int = 100
    runs: int = 1
    behavior: Behavior = Behavior.FALSIFICATION
    interval: tuple[float, float] = (0.0, 10.0)
    seed: int = 0
    error_policy: ErrorPolicy = ErrorPolicy.ABORT_RUN
    parallel_runs: bool = False

    def __post_init__(self):
        statics = tuple(
            (float(lo), float(hi)) for lo, hi in self.static_params
        )
        object.__setattr__(self, "static_params", statics)
        object.__setattr__(self, "signals", tuple(self.signals))
        object.__setattr__(self, "interval", _checked_interval(self.interval))

        if not statics and not self.signals:
            raise ValidationError(
                "nothing to search: provide static_params or signals (or both)"
            )
        for entry in self.signals:
            if not isinstance(entry, SignalOptions):
                raise ValidationError(
                    f"signals must be SignalOptions, got {type(entry).__name__}"
                )
        search_space(self)  # its bounds: finite, ordered, of a finite width
        _integer(self.iterations, "iterations", 1)
        _integer(self.runs, "runs", 1)
        _integer(self.seed, "seed")
        if not isinstance(self.behavior, Behavior):
            raise ValidationError(f"behavior must be a Behavior, got {self.behavior!r}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must fit in 64 bits, got {self.seed}")
        if not isinstance(self.error_policy, ErrorPolicy):
            raise ValidationError(
                f"error_policy must be an ErrorPolicy, got {self.error_policy!r}"
            )


@dataclass(frozen=True)
class RunResult:
    """Outcome of one optimizer experiment.

    ``best`` is None only when the run aborted before any evaluation
    completed; otherwise ``falsified == (best.robustness < 0)``.
    ``failures`` holds one (sample, error description) pair per failed
    simulation.  ``run_time`` is wall-clock seconds for the search itself.
    """

    history: tuple[Evaluation, ...]
    best: Evaluation | None
    run_time: float
    falsified: bool
    failures: tuple[tuple[tuple[float, ...], str], ...]


class Specification(Protocol):
    """Anything that scores a trace: negative means the requirement is
    violated."""

    def evaluate(self, trace: Trace) -> float: ...


class StlSpecification:
    """Requirement given as a temporal logic formula over named predicates;
    robustness is evaluated at the first trace sample."""

    def __init__(self, formula: "str | Formula", predicates: PredicateMap):
        if isinstance(formula, str):
            formula = parse_formula(formula, predicates.variables)
        self.formula = formula
        self.predicates = predicates

    def evaluate(self, trace: Trace) -> float:
        return evaluate(self.formula, self.predicates, trace, at=0)


def search_space(options: Options) -> SearchSpace:
    """Static bounds first, then each signal's value bound repeated once per
    control point."""
    bounds: list[tuple[float, float]] = list(options.static_params)
    for signal in options.signals:
        bounds.extend([signal.bound] * signal.control_points)
    return SearchSpace(tuple(bounds))


def decompose_sample(
    sample: Sequence[float], options: Options
) -> tuple[tuple[float, ...], tuple[Interpolator, ...]]:
    """Split one flat sample into static parameters and signal interpolators.

    The first ``len(static_params)`` entries are the static parameters; the
    remaining entries form one block per signal, in declaration order, each
    block holding that signal's control-point values.
    """
    sample = tuple(sample)
    expected = len(options.static_params) + sum(
        s.control_points for s in options.signals
    )
    if len(sample) != expected:
        raise ValidationError(
            f"sample dimension {len(sample)} does not match search space "
            f"dimension {expected}"
        )
    cut = len(options.static_params)
    static = sample[:cut]
    signals = []
    for signal in options.signals:
        block = sample[cut:cut + signal.control_points]
        cut += signal.control_points
        signals.append(
            interpolator_create(signal.interpolator, options.interval, block)
        )
    return static, tuple(signals)


def make_objective(sut: System, spec: Specification, options: Options):
    """Build the sample-to-robustness objective for one run.

    Returns ``(objective, failures)``: ``failures`` collects one (sample,
    error description) pair per simulation failure, per the error policy.
    """

    failures: list[tuple[tuple[float, ...], str]] = []

    def objective(sample: Sequence[float]) -> float:
        static, signals = decompose_sample(sample, options)
        try:
            trace = sut.simulate(static, signals, options.interval)
            if not isinstance(trace, Trace):
                raise TraceValidationError(
                    f"simulate must return a Trace, got {type(trace).__name__}"
                )
            robustness = float(spec.evaluate(trace))
            if math.isnan(robustness):
                raise SimulationError("specification returned NaN robustness")
        except SimulationError as exc:
            failures.append((tuple(sample), str(exc)))
            if options.error_policy is ErrorPolicy.ABORT_RUN:
                raise
            robustness = float("inf")
        return robustness

    return objective, failures


def falsify(
    spec: Specification,
    sut: System,
    optimizer: "str | Optimizer",
    options: Options,
    engine_options: Mapping[str, object] | None = None,
) -> list[RunResult]:
    """Search the input space of ``sut`` for behavior violating ``spec``.

    Runs ``options.runs`` independent optimizer experiments (per-run seed =
    ``options.seed + run_index``) and returns their results in run order.
    Options are validated before any simulation.  Runs execute sequentially
    unless ``options.parallel_runs`` is set and the system declares itself
    reentrant, in which case they run on a thread pool.
    """
    if not isinstance(options, Options):
        raise ValidationError(f"options must be an Options, got {type(options).__name__}")
    space = search_space(options)

    def single_run(run_index: int) -> RunResult:
        objective, failures = make_objective(sut, spec, options)
        started = time.perf_counter()
        try:
            with getattr(sut, "session", nullcontext)():
                history, _ = optimize(
                    optimizer,
                    objective,
                    space,
                    options.iterations,
                    options.behavior,
                    options.seed + run_index,
                    engine_options,
                )
        except SimulationError as exc:
            history = exc.history
        elapsed = time.perf_counter() - started
        # optimize's rule: the earliest minimum wins a tie
        best = min(history, key=lambda entry: entry.robustness, default=None)
        return RunResult(
            history=history,
            best=best,
            run_time=elapsed,
            falsified=best is not None and best.robustness < 0,
            failures=tuple(failures),
        )

    indices = range(options.runs)
    if options.parallel_runs and getattr(sut, "reentrant", False):
        with ThreadPoolExecutor(max_workers=min(options.runs, 8)) as pool:
            return list(pool.map(single_run, indices))
    return [single_run(k) for k in indices]
