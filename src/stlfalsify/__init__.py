"""Robustness-guided falsification of temporal logic requirements.

The package searches the input space of a system model (an ODE, a Python
function, or an external executable) for behaviors that violate a signal
temporal logic requirement.  A requirement is parsed into a formula over
named linear predicates, every candidate input is simulated into a timed
trace, and the trace is scored with quantitative robustness: negative means
the requirement is violated and the sample is a counterexample.  Stochastic
optimizers (uniform random, simulated annealing, basinhopping) drive the
search toward low robustness.

Typical use::

    from stlfalsify import (
        Options, PredicateMap, SignalOptions, StlSpecification, falsify,
    )

    predicates = PredicateMap(("x1", "x2"))
    predicates.add("safe", (1.0, 0.0), 1.0)     # x1 <= 1.0
    spec = StlSpecification("[] safe", predicates)
    results = falsify(spec, system, "uniform-random", Options(...))
"""

from .errors import (
    SimulationError,
    StlFalsifyError,
    StlSyntaxError,
    TraceValidationError,
    ValidationError,
)
from .stl import (
    Always,
    And,
    Eventually,
    Formula,
    Implies,
    LinearPredicate,
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
from .monitor import Trace, evaluate, evaluate_boolean, predicate_robustness
from .sut import (
    Blackbox,
    Interpolator,
    OdeSystem,
    System,
    extern_blackbox,
    interpolator_create,
    ode_simulate,
)
from .optim import (
    Basinhopping,
    Behavior,
    ENGINES,
    Evaluation,
    SearchSpace,
    SimulatedAnnealing,
    UniformRandom,
    create_engine,
    optimize,
)
from .runner import (
    ErrorPolicy,
    Options,
    RunResult,
    SignalOptions,
    Specification,
    StlSpecification,
    decompose_sample,
    falsify,
    make_objective,
    search_space,
)
from .bench import BENCHMARKS, BenchmarkSystem, get_benchmark, nonlinear2d, oscillator

__version__ = "0.1.0"

__all__ = [
    # errors
    "StlFalsifyError", "StlSyntaxError", "ValidationError", "SimulationError",
    "TraceValidationError",
    # requirement language
    "TimeBound", "LinearPredicate", "PredicateMap", "Formula", "Predicate",
    "Not", "And", "Or", "Implies", "Next", "Eventually", "Always", "Until",
    "parse_formula", "format_formula",
    # monitoring
    "Trace", "evaluate", "evaluate_boolean", "predicate_robustness",
    # systems under test
    "Interpolator", "interpolator_create", "Blackbox", "OdeSystem",
    "ode_simulate", "System", "extern_blackbox",
    # optimization
    "SearchSpace", "Evaluation", "Behavior", "optimize", "create_engine",
    "ENGINES", "UniformRandom", "SimulatedAnnealing", "Basinhopping",
    # driver
    "SignalOptions", "Options", "ErrorPolicy", "RunResult", "Specification",
    "StlSpecification", "decompose_sample", "search_space", "make_objective",
    "falsify",
    # benchmarks
    "BenchmarkSystem", "oscillator", "nonlinear2d", "BENCHMARKS", "get_benchmark",
]
