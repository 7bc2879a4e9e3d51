"""Workload definitions for the falsification benchmark.

A workload is a list of cells; one cycle of the benchmark runs every cell
once, as one ``falsify`` call with ``runs=1`` under
``Behavior.MINIMIZATION``, so each run spends its whole evaluation budget.
Per-run seeds come from the workload seed, the cycle and the cell index.

Run as a script (``python3 perfbench/workloads.py <workload>``), this module
is the fresh-interpreter set-up probe: it times ``import stlfalsify`` and
the building of the workload's systems, specifications and options, and
prints the two times as one JSON line.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXTERN_CHILD = HERE / "extern_child.py"

#: The layers each workload loads and the ones it leaves idle; the reason
#: for each workload is its ``why`` in BENCHMARK.json.
WORKLOADS = {
    "ode-search": {
        "stresses": ["sut (RK4, interpolators, Trace build)", "runner.decompose",
                     "optim (Nelder-Mead bookkeeping in basinhopping)"],
        "bypasses": ["cli extern bridge", "monitor until and nested windows"],
    },
    "monitor-long": {
        "stresses": ["monitor (nested bounded windows, bounded and unbounded until)",
                     "sut (piecewise-linear Blackbox grid, long Trace build)"],
        "bypasses": ["sut RK4 and derivative", "cli extern bridge"],
    },
    "extern-spawn": {
        "stresses": ["cli extern bridge (spawn, pipe I/O, parsing)"],
        "bypasses": ["sut RK4 and derivative", "monitor until and nested windows",
                     "optim bookkeeping"],
    },
}


@dataclass
class Cell:
    """One (system, requirement, engine) combination of a workload."""

    name: str
    system: object
    spec: object
    engine: str
    options: object

    @property
    def system_name(self) -> str:
        return self.name.split("/")[0]


@dataclass
class Workload:
    name: str
    cells: list[Cell]
    formulas: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    ode_systems: list[object] = field(default_factory=list)
    bridges: list[object] = field(default_factory=list)


def run_seed(workload_seed: int, run_index: int) -> int:
    """Seed of one run: disjoint ranges per workload seed."""
    return (workload_seed * 1_000_000 + run_index) % 2**64


# Evaluations per run.  Run counts, not run length, set how steady the
# falsification metrics are across workload seeds, so budgets are small and
# one invocation holds many runs; each system's interval percentiles still
# rest on thousands of evaluations.  Oscillator evaluations take about twice
# as long as nonlinear2d ones, so the budgets give both systems a similar
# share of a cycle's wall time.
ODE_BUDGETS = {"oscillator": 50, "nonlinear2d": 75}
BUDGET = 25


def _ode_search(stl) -> Workload:
    cells, formulas, systems = [], [], []
    for name, budget in ODE_BUDGETS.items():
        bench = stl.get_benchmark(name)
        spec = bench.specification()
        options = replace(bench.options, iterations=budget,
                          behavior=stl.Behavior.MINIMIZATION)
        formulas.append((bench.formula, bench.predicates.variables))
        systems.append(bench.system)
        for engine in ("uniform-random", "simulated-annealing", "basinhopping"):
            cells.append(Cell(f"{name}/{engine}", bench.system, spec, engine, options))
    return Workload("ode-search", cells, formulas, ode_systems=systems)


def _blend(X, T, U):
    """Closed-form model using only + - * /: a gain-weighted blend of the two
    inputs, their damped product, the input difference, and an offset copy
    of the first input that stays in [0.05, 0.1]."""
    (gain,) = X
    first, second = U
    rows = []
    for t, a, b in zip(T, first, second):
        rows.append((gain * a + (1.0 - gain) * b, a * b / (1.0 + 0.1 * t), a - b,
                     (1.0 + a) / 20.0))
    return T, rows


# Every input violates the first conjunct, whose robustness lies in
# [-0.1, -0.05] since y4 >= 0.05: each run falsifies at its first evaluation,
# so the falsification metrics read the cost of one evaluation, while the
# search still spends its budget minimizing robustness.  The two until
# conjuncts take both signs and fall below the first one for some inputs, so
# recorded robustness values depend on both until operators.
MONITOR_FORMULA = (
    "([] [0, 2] (<> [0, 1] y4 <= 0))"
    " /\\ ((y1 <= 0.8) U [0, 5] (y2 >= 0.3))"
    " /\\ (((y3 <= 0.2) U (y1 >= 0.8)) \\/ [] (y1 <= 0.7))"
)


def _monitor_long(stl) -> Workload:
    variables = ("y1", "y2", "y3", "y4")
    spec = stl.StlSpecification(MONITOR_FORMULA, stl.PredicateMap(variables))
    system = stl.Blackbox(_blend, steps=999)
    signal = stl.SignalOptions((0.0, 1.0), 8, "piecewise-linear")
    options = stl.Options(
        static_params=((0.2, 0.8),),
        signals=(signal, signal),
        iterations=BUDGET,
        behavior=stl.Behavior.MINIMIZATION,
        interval=(0.0, 20.0),
    )
    cell = Cell("blend/simulated-annealing", system, spec, "simulated-annealing", options)
    return Workload("monitor-long", [cell], [(MONITOR_FORMULA, variables)])


# The child's output y = gain * (1 + u) - t/40 exceeds 0.5 near t = 0 for
# every gain >= 0.6 and u >= 0, so each run falsifies at its first evaluation.
EXTERN_FORMULA = "[] (y <= 0.5)"


def _extern_spawn(stl) -> Workload:
    variables = ("y",)
    spec = stl.StlSpecification(EXTERN_FORMULA, stl.PredicateMap(variables))
    system = stl.extern_blackbox([sys.executable, str(EXTERN_CHILD)], steps=199)
    options = stl.Options(
        static_params=((0.6, 1.5),),
        signals=(stl.SignalOptions((0.0, 1.0), 4, "piecewise-constant"),),
        iterations=BUDGET,
        behavior=stl.Behavior.MINIMIZATION,
        interval=(0.0, 20.0),
    )
    cell = Cell("child/uniform-random", system, spec, "uniform-random", options)
    return Workload("extern-spawn", [cell], [(EXTERN_FORMULA, variables)],
                    bridges=[system])


_FACTORIES = {
    "ode-search": _ode_search,
    "monitor-long": _monitor_long,
    "extern-spawn": _extern_spawn,
}


def build(name: str) -> Workload:
    import stlfalsify

    return _FACTORIES[name](stlfalsify)


def _probe(name: str) -> None:
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import stlfalsify  # noqa: F401

    imported = time.perf_counter()
    build(name)
    built = time.perf_counter()
    print(json.dumps({
        "import_s": imported - started,
        "setup_s": built - started,
    }))


if __name__ == "__main__":
    _probe(sys.argv[1])
