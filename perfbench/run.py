"""Falsification benchmark: one workload, timed end to end or per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ode-search --seed 0 --trace 0

The load is a closed loop with one caller: ``falsify`` runs sequentially in
this process, one run at a time, for about ``run_seconds`` (from
BENCHMARK.json) of whole cycles; a cycle runs every cell of the workload
once.  ``--seconds`` is accepted only with that same value, so every run
measures for the same time.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics, the tracing overhead and the monitor operator-scaling
table.  Every run's output is checked: its first and best samples are
simulated again, and on both traces the requirement and each temporal
subformula are evaluated, compared with their robustness from the
definition (``oracle.py``) and judged by the package's boolean oracle; at
seed 0 a hash of the history and of those values must match
``reference.json``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; metric names
and units come from BENCHMARK.json.
A results file with an environment block goes to ``perfbench/out/``.  The
exit code is 1 when a check fails and 2 when the package sources are missing.

``sims_to_falsify`` is a mean over falsifying runs: medians of these small
counts jump between neighbouring integers from one workload seed to the
next.  On a shared two-core host the process runs up to 1.75 times faster
in bursts of seconds to minutes.  The p90 evaluation interval reads the
host's usual speed unless a burst covers nearly the whole run, so it is the
gated latency, taken per system: ``eval_ms_p90_sys1`` and
``eval_ms_p90_sys2`` belong to the workload's first and second system
(oscillator and nonlinear2d on ode-search), and a one-system workload
reports its system under both names.  ``eval_ms_p50``, ``evals_per_s``
(the median over cycles) and ``time_to_falsify_s`` (the mean over
falsifying runs) shift with each burst by more than any permitted bound,
and are reported but not gated.

``--write-reference CYCLES`` reruns ``CYCLES`` cycles at seed 0 and stores
their run hashes in ``reference.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from time import perf_counter

from layers import SpecProxy, SystemProxy, Tracer, operator_table, quantile
from oracle import robustness
from workloads import HERE, ROOT, SRC, WORKLOADS, build, run_seed

REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_PROBES = 9


@dataclass
class Run:
    cell: object
    options: object
    result: object
    started: float
    ended: float
    completed: list[float]
    traced: bool

    @property
    def evaluations(self) -> int:
        return len(self.result.history)

    @property
    def wall(self) -> float:
        return self.ended - self.started

    def first_violation(self) -> int | None:
        for index, entry in enumerate(self.result.history):
            if entry.robustness < 0:
                return index
        return None


def run_cell(stl, cell, seed: int, tracer: Tracer | None) -> Run:
    spec = SpecProxy(cell.spec, tracer)
    system = cell.system if tracer is None else SystemProxy(cell.system, tracer)
    options = replace(cell.options, seed=seed)
    started = perf_counter()
    (result,) = stl.falsify(spec, system, cell.engine, options)
    ended = perf_counter()
    return Run(cell, options, result, started, ended, spec.completed, tracer is not None)


def measure(stl, workload, seed: int, seconds: float, tracer: Tracer | None,
            between_cycles):
    """Run whole cycles until the next one would take the cycles' summed
    time past ``seconds``; ``between_cycles()`` runs after each cycle,
    outside that time.

    With a tracer, odd cycles are traced and even ones are not, so both
    halves see the same machine conditions; at least one of each runs.
    """
    runs: list[Run] = []
    cycles: list[list[Run]] = []
    minimum = 2 if tracer is not None else 1
    elapsed = 0.0
    while True:
        began = perf_counter()
        index = len(cycles)
        traced = tracer is not None and index % 2 == 1
        cycle = []
        for position, cell in enumerate(workload.cells):
            seed_k = run_seed(seed, index * len(workload.cells) + position)
            if traced:
                with tracer.installed(workload):
                    cycle.append(run_cell(stl, cell, seed_k, tracer))
            else:
                cycle.append(run_cell(stl, cell, seed_k, None))
        cycles.append(cycle)
        runs.extend(cycle)
        elapsed += perf_counter() - began
        between_cycles()
        if len(cycles) >= minimum and elapsed * (len(cycles) + 1) / len(cycles) > seconds:
            return runs, cycles


def run_digest(history, checked: list[float]) -> str:
    """Hash of the history and of the subformula values from the check."""
    lines = [f"{entry.sample!r} {entry.robustness!r}" for entry in history]
    lines.append(" ".join(repr(value) for value in checked))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def temporal_subformulas(stl, formula):
    """The formulas below ``formula``, itself included, whose top operator
    is temporal, parents first."""
    if isinstance(formula, (stl.Next, stl.Eventually, stl.Always, stl.Until)):
        yield formula
    for name in ("child", "left", "right"):
        part = getattr(formula, name, None)
        if part is not None:
            yield from temporal_subformulas(stl, part)


def check_run(stl, run: Run, reference: str | None) -> tuple[list[str], str]:
    """Problems with one run's output, empty when it is correct, and the
    run's digest."""
    problems = []
    result = run.result
    history = result.history
    if result.failures:
        problems.append(f"{len(result.failures)} simulation failures")
    if any(math.isnan(entry.robustness) for entry in history):
        problems.append("NaN robustness in history")
    if len(history) != run.options.iterations:
        problems.append(f"{len(history)} evaluations, budget {run.options.iterations}")
    if len(run.completed) != len(history):
        problems.append("monitor calls do not match the history")
    # The best sample (so every falsification is confirmed) and the first
    # one, which the search did not choose, are simulated again.  The
    # requirement and each temporal subformula are checked on their own, so
    # an operator whose value a conjunction hides is still checked.
    spec = run.cell.spec
    checked = {"first": history[0], "best": result.best} if history else {}
    values = []
    for label, entry in checked.items():
        static, signals = stl.decompose_sample(entry.sample, run.options)
        trace = run.cell.system.simulate(static, signals, run.options.interval)
        value = spec.evaluate(trace)
        if value != entry.robustness:
            problems.append(f"{label} sample re-simulates to {value!r}, "
                            f"recorded {entry.robustness!r}")
        defined = robustness(stl, spec.predicates, trace)
        parts = [spec.formula, *temporal_subformulas(stl, spec.formula)]
        for part in dict.fromkeys(parts):
            rho = value if part is spec.formula else stl.evaluate(part, spec.predicates, trace)
            holds = stl.evaluate_boolean(part, spec.predicates, trace)
            values.append(rho)
            if rho != defined(part, 0):
                problems.append(f"{label} sample: {stl.format_formula(part)} has robustness "
                                f"{rho!r}, by definition {defined(part, 0)!r}")
            if (rho < 0 and holds) or (rho > 0 and not holds):
                problems.append(f"{label} sample: {stl.format_formula(part)} has robustness "
                                f"{rho!r}, but the boolean oracle says "
                                f"{'satisfied' if holds else 'violated'}")
    digest = run_digest(history, values)
    if reference is not None and digest != reference:
        problems.append("run hash differs from the reference")
    return problems, digest


def check_runs(stl, workload, seed: int, runs: list[Run]):
    """(attempted, failed, problems) over all runs.  A run that fails a
    check counts all of its evaluations as failed."""
    references = []
    if seed == REFERENCE_SEED and REFERENCE.is_file():
        references = json.loads(REFERENCE.read_text())["runs"].get(workload.name, [])
    attempted = failed = 0
    problems = []
    for index, run in enumerate(runs):
        reference = references[index] if index < len(references) else None
        attempted_here = run.evaluations + len(run.result.failures)
        attempted += attempted_here
        found, _ = check_run(stl, run, reference)
        if found:
            failed += attempted_here
            problems.extend(f"run {index} ({run.cell.name}): {text}" for text in found)
    return attempted, failed, problems


def setup_probe(name: str) -> dict:
    """Set-up times of one fresh interpreter."""
    done = subprocess.run([sys.executable, str(HERE / "workloads.py"), name],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def parse_us(stl, workload) -> float:
    """Summed median microseconds to parse the workload's formulas."""
    total = 0.0
    for text, variables in workload.formulas:
        times = []
        for _ in range(21):
            start = perf_counter()
            stl.parse_formula(text, variables)
            times.append((perf_counter() - start) * 1e6)
        total += statistics.median(times)
    return total


def _intervals_ms(run: Run) -> list[float]:
    """Times between consecutive evaluation completions, the first one
    measured from the ``falsify`` call."""
    marks = [run.started] + run.completed
    return [(later - earlier) * 1000.0 for earlier, later in zip(marks, marks[1:])]


def _evals_per_s(cycles) -> float:
    return statistics.median(
        sum(run.evaluations for run in cycle) / sum(run.wall for run in cycle)
        for cycle in cycles
    )


def end_to_end(runs: list[Run], cycles, probes: list[dict]) -> tuple[dict, dict]:
    """Gated end-to-end metrics over untraced runs, and supporting figures."""
    intervals = [value for run in runs for value in _intervals_ms(run)]
    by_system: dict[str, list[float]] = {}
    for run in runs:
        by_system.setdefault(run.cell.system_name, []).extend(_intervals_ms(run))
    p90s = [quantile(values, 0.9) for values in by_system.values()]
    firsts = [(run, run.first_violation()) for run in runs]
    falsifying = [(run, index) for run, index in firsts if index is not None]
    sims = [index + 1 for _, index in falsifying]
    times = [run.completed[index] - run.started for run, index in falsifying]
    metrics = {
        "setup_s": statistics.median(probe["setup_s"] for probe in probes),
        "eval_ms_p90_sys1": p90s[0],
        "eval_ms_p90_sys2": p90s[-1],
        "sims_to_falsify": statistics.fmean(sims) if sims else None,
        "falsified_frac": len(falsifying) / len(runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    support = {
        "eval_ms_p50": quantile(intervals, 0.5),
        "evals_per_s": _evals_per_s(cycles),
        "time_to_falsify_s": statistics.fmean(times) if times else None,
        "runs": len(runs),
        "cycles": len(cycles),
        "cycle_evals_per_s": [sum(run.evaluations for run in cycle) / sum(run.wall for run in cycle)
                              for cycle in cycles],
        "eval_interval_samples": {name: len(values) for name, values in by_system.items()},
        "falsifying_runs": len(falsifying),
        "time_to_falsify_s_median": statistics.median(times) if times else None,
        "sims_to_falsify_median": statistics.median(sims) if sims else None,
    }
    return metrics, support


def _improve_frac(runs: list[Run]) -> float:
    improved = total = 0
    for run in runs:
        best = math.inf
        for entry in run.result.history:
            total += 1
            if entry.robustness < best:
                best = entry.robustness
                improved += 1
    return improved / total if total else 0.0


def per_layer(stl, workload, tracer: Tracer, runs: list[Run], cycles,
              probes: list[dict]) -> dict:
    traced = [run for run in runs if run.traced]
    wall_ns = sum(run.wall for run in traced) * 1e9
    evals = sum(run.evaluations for run in traced)
    spans = tracer.spans
    totals = {layer: sum(values) for layer, values in spans.items()}
    counts = tracer.counts
    covered = totals["decompose"] + totals["simulate"] + totals["evaluate"]
    traced_cycles = [cycle for cycle in cycles if cycle[0].traced]
    plain_cycles = [cycle for cycle in cycles if not cycle[0].traced]
    metrics = {
        "sut.simulate_ms_p50": quantile(spans["simulate"], 0.5) / 1e6,
        "sut.simulate_ms_p90": quantile(spans["simulate"], 0.9) / 1e6,
        "sut.simulate_share": totals["simulate"] / wall_ns,
        "sut.trace_build_share": totals["trace_build"] / wall_ns,
        "sut.derivative_share": counts["derivative_ns"] / wall_ns,
        "sut.samples_per_trace": counts["trace_samples"] / max(counts["traces"], 1),
        "monitor.evaluate_ms_p50": quantile(spans["evaluate"], 0.5) / 1e6,
        "monitor.evaluate_ms_p90": quantile(spans["evaluate"], 0.9) / 1e6,
        "monitor.evaluate_share": totals["evaluate"] / wall_ns,
        "monitor.samples_per_s": counts["evaluate_samples"] / (totals["evaluate"] / 1e9),
    }
    metrics.update(operator_table(stl))
    metrics.update({
        "runner.decompose_us_p50": quantile(spans["decompose"], 0.5) / 1e3,
        "runner.decompose_share": totals["decompose"] / wall_ns,
        "optim.self_us_per_eval": (wall_ns - covered) / evals / 1e3,
        "optim.self_share": (wall_ns - covered) / wall_ns,
        "optim.evals": evals,
        "optim.improve_frac": _improve_frac(traced),
        "cli.bridge_ms_p50": quantile(spans["bridge"], 0.5) / 1e6,
        "cli.bridge_ms_p90": quantile(spans["bridge"], 0.9) / 1e6,
        "cli.bridge_share": totals["bridge"] / wall_ns,
        "stl.parse_us": parse_us(stl, workload),
        "setup.import_s": statistics.median(probe["import_s"] for probe in probes),
        "trace_overhead_frac":
            1.0 - _evals_per_s(traced_cycles) / _evals_per_s(plain_cycles),
    })
    return metrics


def _git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, load_before) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "workload_seed": seed,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def write_reference(stl, name: str, cycles: int) -> int:
    workload = build(name)
    runs = []
    for index in range(cycles):
        for position, cell in enumerate(workload.cells):
            seed_k = run_seed(REFERENCE_SEED, index * len(workload.cells) + position)
            runs.append(run_cell(stl, cell, seed_k, None))
    checks = [check_run(stl, run, None) for run in runs]
    problems = [text for found, _ in checks for text in found]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {"runs": {}}
    data["seed"] = REFERENCE_SEED
    data["runs"][name] = [digest for _, digest in checks]
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"{name}: {len(runs)} run hashes written to {REFERENCE.name}")
    return 0


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"],
                        help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", type=int, metavar="CYCLES")
    args = parser.parse_args(argv)
    seconds = declared["run_seconds"]
    if args.seconds != seconds:
        parser.error(f"--seconds must be {seconds}, the run_seconds of BENCHMARK.json")

    if not (SRC / "stlfalsify" / "__init__.py").is_file():
        print(f"package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stlfalsify as stl

    if args.write_reference:
        return write_reference(stl, args.workload, args.write_reference)

    load_before = os.getloadavg()
    # Set-up is probed between cycles, so that the probes sample the host's
    # speed over the whole run; the first probe, which also writes bytecode
    # caches, is discarded.
    setup_probe(args.workload)
    probes: list[dict] = []

    def probe_setup():
        if len(probes) < SETUP_PROBES:
            probes.append(setup_probe(args.workload))

    workload = build(args.workload)
    tracer = Tracer() if args.trace else None
    runs, cycles = measure(stl, workload, args.seed, seconds, tracer, probe_setup)
    while len(probes) < SETUP_PROBES:
        probe_setup()
    attempted, failed, problems = check_runs(stl, workload, args.seed, runs)

    plain_runs = [run for run in runs if not run.traced]
    plain_cycles = [cycle for cycle in cycles if not cycle[0].traced]
    e2e, support = end_to_end(plain_runs, plain_cycles, probes)
    support["error_frac"] = failed / attempted
    layers = per_layer(stl, workload, tracer, runs, cycles, probes) if tracer else {}

    results = {
        "workload": {**next(entry for entry in declared["workloads"]
                            if entry["name"] == workload.name),
                     **WORKLOADS[workload.name],
                     "cells": [cell.name for cell in workload.cells]},
        "seconds": seconds,
        "trace": args.trace,
        "environment": environment(args.seed, load_before),
        "end_to_end": e2e,
        "support": support,
        "per_layer": layers,
        "setup_probes": probes,
        "problems": problems,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")

    units = {metric["name"]: metric["unit"]
             for metric in declared["end_to_end"] + declared["per_layer"]}
    for text in problems:
        print(f"CHECK FAILED {text}")
    for name, value in {**e2e, **layers}.items():
        print(f"{name} {value} {units[name]}")
    for name, value in support.items():
        print(f"{name} {value}")
    section = declared["per_layer" if tracer else "end_to_end"]
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric["name"]: {"value": {**e2e, **layers}[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in section},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
