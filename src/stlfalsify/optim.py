"""Black-box search engines that minimize a robustness objective.

Three engines are provided behind one protocol: uniform random sampling,
simulated annealing with geometric cooling and bound reflection, and a
basinhopping-style restart search whose local descent is a hand-rolled
Nelder-Mead simplex (derivative-free, since falsification objectives are
non-differentiable black boxes).

Every engine draws randomness from a counter-based Philox generator, so an
identical (seed, objective, options) triple reproduces the same search bit
for bit on any platform.  Two stopping behaviors are supported:
``Behavior.FALSIFICATION`` stops at the first negative robustness value
(that entry is the last one in the history), ``Behavior.MINIMIZATION``
consumes the full evaluation budget.  A robustness of -infinity counts as an
immediate falsification.

The history records every objective call in call order, including rejected
annealing proposals and interior Nelder-Mead probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import add
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from .errors import SimulationError, ValidationError, _integer

__all__ = [
    "SearchSpace",
    "Evaluation",
    "Behavior",
    "Objective",
    "optimize",
    "make_rng",
    "uniform_random_step",
    "annealing_step",
    "basinhop_step",
    "UniformRandom",
    "SimulatedAnnealing",
    "Basinhopping",
    "ENGINES",
    "create_engine",
]

Objective = Callable[[tuple[float, ...]], float]


class Behavior(Enum):
    """Stopping rule: halt at the first violation, or spend the budget."""

    FALSIFICATION = "falsification"
    MINIMIZATION = "minimization"


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box of admissible samples, one (lower, upper) interval
    per dimension."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        if not bounds:
            raise ValidationError("search space needs at least one dimension")
        for k, (lo, hi) in enumerate(bounds):
            # the engines draw and step within the width, which is finite
            # only if both bounds are
            if not math.isfinite(hi - lo):
                raise ValidationError(
                    f"dimension {k}: bounds [{lo}, {hi}] and their width must be finite"
                )
            if not lo < hi:
                raise ValidationError(
                    f"dimension {k}: lower bound {lo} must be below upper bound {hi}"
                )

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    def clamp(self, sample: Sequence[float]) -> tuple[float, ...]:
        return tuple(
            min(max(float(x), lo), hi) for x, (lo, hi) in zip(sample, self.bounds)
        )


@dataclass(frozen=True)
class Evaluation:
    """One objective call: the sample tried and the robustness it produced."""

    sample: tuple[float, ...]
    robustness: float


def make_rng(seed: int) -> np.random.Generator:
    """Philox-based generator: counter-based, so streams are identical
    across platforms and word sizes for the same seed."""
    return np.random.Generator(np.random.Philox(int(seed)))


class _StopSearch(Exception):
    """Internal control flow: budget exhausted or falsification found."""


class _Recorder:
    """Wraps the objective for one run: enforces the evaluation budget,
    converts each sample to a tuple of Python floats, rejects a sample
    outside the box before the objective sees it, captures every call into
    the history, rejects a NaN value, and under FALSIFICATION stops the
    search right after the first negative robustness."""

    def __init__(self, objective: Objective, space: SearchSpace, budget: int,
                 behavior: Behavior):
        self.objective = objective
        self.space = space
        self.budget = budget
        self.behavior = behavior
        self.history: list[Evaluation] = []

    def __call__(self, sample: Sequence[float]) -> float:
        if len(self.history) >= self.budget:
            raise _StopSearch
        sample = tuple(float(x) for x in sample)
        if len(sample) != self.space.dimension:
            raise ValidationError(
                f"sample dimension {len(sample)} does not match search space "
                f"dimension {self.space.dimension}"
            )
        # the bounds are finite, so this rejects NaN and +-inf too
        if not all(lo <= x <= hi for x, (lo, hi) in zip(sample, self.space.bounds)):
            raise ValidationError(f"engine proposed sample {sample} outside the "
                                  f"search space {self.space.bounds}")
        value = float(self.objective(sample))
        if math.isnan(value):
            # NaN compares false both ways, so it would never count as
            # falsifying and would corrupt the best-entry search
            raise ValidationError(f"objective returned NaN for sample {sample}")
        self.history.append(Evaluation(sample, value))
        if self.behavior is Behavior.FALSIFICATION and value < 0:
            raise _StopSearch
        return value


def uniform_random_step(rng: np.random.Generator,
                        space: SearchSpace) -> tuple[float, ...]:
    """Draw one sample, each coordinate independently uniform on its
    interval."""
    return tuple(float(rng.uniform(lo, hi)) for lo, hi in space.bounds)


def _reflect(value: float, lower: float, upper: float) -> float:
    """Fold a point back into [lower, upper] by mirroring at the bounds;
    in-bounds values pass through unchanged."""
    if lower <= value <= upper:
        return value
    width = upper - lower
    offset = (value - lower) % (2.0 * width)
    if offset > width:
        offset = 2.0 * width - offset
    folded = lower + offset
    return min(max(folded, lower), upper)


def _propose(x: float, z: float, temperature: float, lower: float,
             upper: float) -> float:
    """``x`` moved by ``z`` standard deviations of ``temperature * (upper -
    lower) / 2`` and reflected into [lower, upper], finite for finite ``z``."""
    width = upper - lower
    # the operations of x + rng.normal(0.0, scale) with the draw z
    value = x + (0.0 + temperature * width / 2.0 * z)
    if lower <= value <= upper or math.isfinite(value - lower) and math.isfinite(2.0 * width):
        return _reflect(value, lower, upper)
    # a term overflows: reflect in units of the width, where x - lower <=
    # width; a shift too large for a float is even, as is any from 2**53
    shift = (x - lower) / width + temperature / 2.0 * z
    unit = _reflect(shift, 0.0, 1.0) if math.isfinite(shift) else 0.0
    return min(lower + unit * width, upper)


def annealing_step(
    rng: np.random.Generator,
    current: Evaluation,
    temperature: float,
    space: SearchSpace,
) -> tuple[tuple[float, ...], Callable[[float], bool]]:
    """Propose one annealing move and its acceptance rule.

    The proposal adds a per-dimension Gaussian perturbation of scale
    ``temperature * (upper - lower) / 2`` to the current sample and reflects
    it into bounds, in units of the width where that arithmetic would
    overflow, so every proposal is finite.  The returned
    ``accept(robustness)`` predicate accepts any downhill move and an uphill
    move of size ``delta`` with probability ``exp(-delta / temperature)``.
    The acceptance threshold is drawn here, so the random stream does not
    depend on when the decision is made.
    """
    if not 0 < temperature < math.inf:
        raise ValidationError(f"temperature must be positive and finite, got {temperature}")
    proposal = tuple(
        _propose(x, float(rng.standard_normal()), temperature, lo, hi)
        for x, (lo, hi) in zip(current.sample, space.bounds)
    )
    threshold = float(rng.uniform())

    def accept(robustness: float) -> bool:
        delta = robustness - current.robustness
        if delta < 0:
            return True
        return threshold < math.exp(-delta / temperature)

    return proposal, accept


class _OutOfBudget(Exception):
    """A local search has spent its objective calls."""


def _nelder_mead(
    objective: Objective,
    start: tuple[float, ...],
    space: SearchSpace,
    budget: int,
) -> Evaluation:
    """Simplex descent from ``start``, at most ``budget`` objective calls,
    every vertex clamped to bounds.  Coefficients: reflection 1, expansion
    2, contraction 0.5, shrink 0.5.  Returns the best point seen."""
    calls = 0
    best_seen: Evaluation | None = None

    def measure(point: tuple[float, ...]) -> float:
        nonlocal calls, best_seen
        if calls >= budget:
            raise _OutOfBudget
        calls += 1
        value = objective(point)
        if best_seen is None or value < best_seen.robustness:
            best_seen = Evaluation(point, value)
        return value

    n = space.dimension
    try:
        simplex = [(start, measure(start))]
        for axis, (lo, hi) in enumerate(space.bounds):
            offset = 0.05 * (hi - lo)
            vertex = list(start)
            vertex[axis] = vertex[axis] - offset if vertex[axis] + offset > hi \
                else vertex[axis] + offset
            point = space.clamp(vertex)
            simplex.append((point, measure(point)))

        while True:
            simplex.sort(key=lambda entry: entry[1])
            best, worst = simplex[0], simplex[-1]
            second_worst = simplex[-2]
            # a left fold from 0.0, not sum(): from Python 3.12 a float sum
            # is compensated, and reruns must match on every version.  A sum
            # that overflows is taken instead as the lower bound plus the
            # mean offset from it, finite in a box of finite width
            centroid = tuple(
                mean if math.isfinite(mean := reduce(add, column, 0.0) / n)
                else lo + reduce(add, ((x - lo) / n for x in column), 0.0)
                for column, (lo, _) in zip(zip(*(point for point, _ in simplex[:-1])),
                                           space.bounds)
            )

            reflected = space.clamp(
                tuple(c + (c - w) for c, w in zip(centroid, worst[0]))
            )
            f_reflected = measure(reflected)
            if f_reflected < best[1]:
                expanded = space.clamp(
                    tuple(c + 2.0 * (r - c) for c, r in zip(centroid, reflected))
                )
                f_expanded = measure(expanded)
                simplex[-1] = (
                    (expanded, f_expanded)
                    if f_expanded < f_reflected
                    else (reflected, f_reflected)
                )
                continue
            if f_reflected < second_worst[1]:
                simplex[-1] = (reflected, f_reflected)
                continue

            if f_reflected < worst[1]:
                target = reflected
                bar = f_reflected
            else:
                target = worst[0]
                bar = worst[1]
            contracted = space.clamp(
                tuple(c + 0.5 * (t - c) for c, t in zip(centroid, target))
            )
            f_contracted = measure(contracted)
            if f_contracted < bar:
                simplex[-1] = (contracted, f_contracted)
                continue

            head = simplex[0][0]
            shrunk = [simplex[0]]
            for point, _ in simplex[1:]:
                moved = space.clamp(
                    tuple(b + 0.5 * (p - b) for b, p in zip(head, point))
                )
                shrunk.append((moved, measure(moved)))
            simplex = shrunk
    except _OutOfBudget:
        pass
    if best_seen is None:
        # budget was zero calls; report the start point as unimproved
        return Evaluation(start, math.inf)
    return best_seen


def basinhop_step(
    rng: np.random.Generator,
    current: Evaluation,
    objective: Objective,
    space: SearchSpace,
    local_budget: int,
    hop_radius: float = 0.1,
) -> Evaluation:
    """One hop: perturb the incumbent uniformly within ``hop_radius`` of
    each interval width (clamped to bounds), descend with Nelder-Mead for at
    most ``local_budget`` objective calls, and keep the result only if it is
    strictly better than the incumbent."""
    _integer(local_budget, "local_budget", 1)

    def move(x: float, lo: float, hi: float) -> float:
        reach = hop_radius * (hi - lo)
        if math.isfinite(2.0 * reach):
            return x + float(rng.uniform(-reach, reach))
        # NumPy rejects a range whose width overflows: draw on [-1, 1), scale
        return x + float(rng.uniform(-1.0, 1.0)) * reach

    hop = space.clamp(
        tuple(move(x, lo, hi) for x, (lo, hi) in zip(current.sample, space.bounds))
    )
    candidate = _nelder_mead(objective, hop, space, local_budget)
    return candidate if candidate.robustness < current.robustness else current


class Optimizer(Protocol):
    """One search engine driving a budget-enforcing objective."""

    name: str

    def run(self, objective: Objective, space: SearchSpace, budget: int,
            rng: np.random.Generator) -> None: ...


class UniformRandom:
    """Independent uniform draws over the search space."""

    name = "uniform-random"

    def run(self, objective: Objective, space: SearchSpace, budget: int,
            rng: np.random.Generator) -> None:
        for _ in range(budget):
            objective(uniform_random_step(rng, space))


class SimulatedAnnealing:
    """Annealing with Gaussian proposals, bound reflection, Metropolis
    acceptance, and geometric cooling ``T_k = initial_temperature *
    cooling**k``.  Cooling stops at the last positive temperature: where
    ``T_k`` would underflow to 0.0, the temperature stays at ``T_(k-1)``."""

    name = "simulated-annealing"

    def __init__(self, initial_temperature: float = 1.0, cooling: float = 0.99):
        # an infinite one would put every proposal on a lower bound
        if not 0 < initial_temperature < math.inf:
            raise ValidationError("initial_temperature must be positive and finite, "
                                  f"got {initial_temperature}")
        if not 0.0 < cooling <= 1.0:
            raise ValidationError(f"cooling must be in (0, 1], got {cooling}")
        self.initial_temperature = float(initial_temperature)
        self.cooling = float(cooling)

    def run(self, objective: Objective, space: SearchSpace, budget: int,
            rng: np.random.Generator) -> None:
        start = uniform_random_step(rng, space)
        current = Evaluation(start, objective(start))
        temperature = self.initial_temperature
        for _ in range(budget - 1):
            proposal, accept = annealing_step(rng, current, temperature, space)
            robustness = objective(proposal)
            if accept(robustness):
                current = Evaluation(proposal, robustness)
            temperature = temperature * self.cooling or temperature


class Basinhopping:
    """Restart search: random hops around the incumbent, each followed by a
    bounded Nelder-Mead descent; a hop is kept only when strictly better."""

    name = "basinhopping"

    def __init__(self, hop_radius: float = 0.1, local_budget: int = 50):
        if not 0.0 < hop_radius <= 1.0:
            raise ValidationError(f"hop_radius must be in (0, 1], got {hop_radius}")
        self.hop_radius = float(hop_radius)
        self.local_budget = _integer(local_budget, "local_budget", 1)

    def run(self, objective: Objective, space: SearchSpace, budget: int,
            rng: np.random.Generator) -> None:
        start = uniform_random_step(rng, space)
        current = Evaluation(start, objective(start))
        # every hop costs at least one objective call, so budget hops suffice
        for _ in range(budget):
            current = basinhop_step(
                rng, current, objective, space, self.local_budget, self.hop_radius
            )


ENGINES: dict[str, type] = {
    UniformRandom.name: UniformRandom,
    SimulatedAnnealing.name: SimulatedAnnealing,
    Basinhopping.name: Basinhopping,
}


def create_engine(name: str, options: Mapping[str, object] | None = None):
    """Instantiate a registered engine by name, applying its options record."""
    # a name read from JSON may be a list, which a dict lookup rejects
    if not isinstance(name, str) or name not in ENGINES:
        raise ValidationError(
            f"unknown optimizer {name!r}; choose one of {sorted(ENGINES)}"
        )
    try:
        return ENGINES[name](**dict(options or {}))
    except TypeError as exc:
        raise ValidationError(f"invalid options for optimizer {name!r}: {exc}") from exc


def optimize(
    engine: "str | Optimizer",
    objective: Objective,
    space: SearchSpace,
    budget: int,
    behavior: Behavior = Behavior.FALSIFICATION,
    seed: int = 0,
    engine_options: Mapping[str, object] | None = None,
) -> tuple[tuple[Evaluation, ...], Evaluation]:
    """Run one search and return ``(history, best)``.

    ``engine`` is an engine name from :data:`ENGINES` or a ready instance
    (``engine_options`` applies only to names).  The history holds every
    objective call in call order, never more than ``budget`` entries; under
    FALSIFICATION its last entry is the first negative robustness found.
    ``best`` is the minimum-robustness entry, earliest call winning ties.
    A sample outside the box, NaN or +-inf included, raises
    :class:`ValidationError` naming it before the objective runs, and so
    does an objective value of NaN; neither reaches the history.  A
    :class:`SimulationError` from the objective ends the search and is
    raised again, carrying the calls completed before it as its
    ``history`` attribute.
    """
    _integer(budget, "budget", 1)
    # not bounded above: a campaign seeds run k with options.seed + k
    _integer(seed, "seed", 0)
    if not isinstance(behavior, Behavior):
        raise ValidationError(f"behavior must be a Behavior, got {behavior!r}")
    if isinstance(engine, str):
        engine = create_engine(engine, engine_options)
    elif engine_options is not None:
        raise ValidationError("engine_options requires an engine name, not an instance")

    recorder = _Recorder(objective, space, budget, behavior)
    try:
        engine.run(recorder, space, budget, make_rng(seed))
    except _StopSearch:
        pass
    except SimulationError as exc:
        exc.history = tuple(recorder.history)
        raise
    history = tuple(recorder.history)
    best = min(history, key=lambda entry: entry.robustness)
    return history, best
