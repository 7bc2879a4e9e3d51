"""Per-layer timing from outside the package.

Proxies stand in for the system and the specification that ``falsify``
receives through its public protocols.  In a traced cycle the benchmark
also rebinds public attributes to timing wrappers and restores them after:
``stlfalsify.runner.decompose_sample``, ``stlfalsify.sut.Trace``, the
``derivative`` of each ``OdeSystem`` and the ``func`` of each Blackbox that
``extern_blackbox`` returned.  Every wrapper keeps its durations in memory.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns


class SpecProxy:
    """Records when each evaluation completes; in a traced cycle also how
    long the monitor took and over how many samples."""

    def __init__(self, spec, tracer: "Tracer | None"):
        self.spec = spec
        self.tracer = tracer
        self.completed: list[float] = []

    def evaluate(self, trace) -> float:
        if self.tracer is None:
            value = self.spec.evaluate(trace)
        else:
            start = perf_counter_ns()
            value = self.spec.evaluate(trace)
            self.tracer.spans["evaluate"].append(perf_counter_ns() - start)
            self.tracer.counts["evaluate_samples"] += len(trace)
        self.completed.append(perf_counter())
        return value


class SystemProxy:
    """Times ``simulate`` and counts the samples of each returned trace."""

    def __init__(self, system, tracer: "Tracer"):
        self.system = system
        self.tracer = tracer
        self.reentrant = False

    def simulate(self, static, signals, interval):
        start = perf_counter_ns()
        trace = self.system.simulate(static, signals, interval)
        self.tracer.spans["simulate"].append(perf_counter_ns() - start)
        self.tracer.counts["traces"] += 1
        self.tracer.counts["trace_samples"] += len(trace)
        return trace


class Tracer:
    """Span durations (ns) per layer, plus summed time for the derivative,
    whose calls are too many to keep one by one."""

    LAYERS = ("decompose", "simulate", "trace_build", "evaluate", "bridge")

    def __init__(self):
        self.spans: dict[str, list[int]] = {layer: [] for layer in self.LAYERS}
        self.counts = {"traces": 0, "trace_samples": 0, "evaluate_samples": 0,
                       "derivative_calls": 0, "derivative_ns": 0}

    def timed(self, layer: str, func):
        spans = self.spans[layer]

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                spans.append(perf_counter_ns() - start)

        return wrapper

    def summed(self, func):
        counts = self.counts

        def wrapper(*args):
            start = perf_counter_ns()
            try:
                return func(*args)
            finally:
                counts["derivative_ns"] += perf_counter_ns() - start
                counts["derivative_calls"] += 1

        return wrapper

    @contextmanager
    def installed(self, workload):
        """Rebind the traced public attributes for the duration of a cycle."""
        import stlfalsify.runner as runner
        import stlfalsify.sut as sut

        saved = [(runner, "decompose_sample", runner.decompose_sample),
                 (sut, "Trace", sut.Trace)]
        saved += [(system, "derivative", system.derivative)
                  for system in workload.ode_systems]
        saved += [(box, "func", box.func) for box in workload.bridges]
        runner.decompose_sample = self.timed("decompose", runner.decompose_sample)
        sut.Trace = self.timed("trace_build", sut.Trace)
        for system in workload.ode_systems:
            system.derivative = self.summed(system.derivative)
        for box in workload.bridges:
            box.func = self.timed("bridge", box.func)
        try:
            yield
        finally:
            for owner, name, value in saved:
                setattr(owner, name, value)


def quantile(values, q: float) -> float:
    """The q-quantile of ``values`` by linear interpolation; 0 when empty,
    which per-layer metrics use for a layer that did not run."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


# Fixed synthetic traces for the operator-scaling table: dt = 0.01 and one
# state variable, a sawtooth of period 1.37 s built with + - * / only.
OPERATOR_FORMULAS = {
    "always": "[] (x <= 0.9)",
    "nested_bounded": "[] [0, 1] (<> [0, 1] x >= 0.8)",
    "until_bounded": "((x <= 0.9) U [0, 1] (x >= 0.8))",
    "until_unbounded": "((x <= 0.9) U (x >= 0.8))",
}
OPERATOR_SIZES = (1000, 10000)


def _sawtooth_trace(stl, n: int):
    times = [k / 100.0 for k in range(n)]
    states = []
    for t in times:
        phase = t / 1.37
        states.append((phase - int(phase),))
    return stl.Trace(tuple(times), tuple(states))


def operator_table(stl) -> dict[str, float]:
    """Median milliseconds of ``evaluate`` per operator and trace length."""
    predicates = stl.PredicateMap(("x",))
    table = {}
    for n in OPERATOR_SIZES:
        trace = _sawtooth_trace(stl, n)
        for name, text in OPERATOR_FORMULAS.items():
            formula = stl.parse_formula(text, ("x",))
            # fewer repeats where one call already takes seconds
            repeats = 5 if n <= 1000 else (1 if name == "until_unbounded" else 3)
            times = []
            for _ in range(repeats):
                start = perf_counter()
                stl.evaluate(formula, predicates, trace)
                times.append((perf_counter() - start) * 1000.0)
            table[f"monitor.op.{name}.n{n}_ms"] = statistics.median(times)
    return table
