"""``Trace`` construction against a copy of the row-by-row constructor it
replaced: the same fields bit for bit, or the same exception with the same
message, for every form a row can take."""

import math
from itertools import chain

import numpy as np
from hypothesis import given, settings, strategies as st

from stlfalsify.errors import TraceValidationError
from stlfalsify.monitor import Trace


def seed_trace_fields(times, states):
    """``(times, states)`` as the row-by-row ``Trace`` constructor built
    them, or the exception it raised."""
    times = tuple(map(float, times))
    states = tuple(tuple(map(float, row)) for row in states)
    if not times:
        raise TraceValidationError("trace must contain at least one sample")
    if len(states) != len(times):
        raise TraceValidationError(
            f"{len(times)} timestamps but {len(states)} state vectors"
        )
    for earlier, later in zip(times, times[1:]):
        if not later > earlier:
            raise TraceValidationError(
                f"non-monotone timestamps: {later} follows {earlier}"
            )
    dimension = len(states[0])
    if set(map(len, states)) != {dimension}:
        raise TraceValidationError("ragged trajectory: state dimensions differ")
    if not (math.isfinite(times[0]) and math.isfinite(times[-1])):
        raise TraceValidationError(
            f"non-finite timestamp in [{times[0]}, {times[-1]}]"
        )
    if not math.isfinite(sum(chain.from_iterable(states))):
        for t, row in zip(times, states):
            if not all(map(math.isfinite, row)):
                raise TraceValidationError(f"non-finite state {row} at t={t}")
    return times, states


class Tagged(float):
    """A float subclass: ``float()`` of it is an exact float."""


def raising(values):
    yield from values
    raise RuntimeError("row iterator failed")


#: Entries a row may hold: finite and non-finite floats, signed zeros,
#: ints, a float subclass, NumPy scalars, and what float() rejects.
ENTRIES = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 3, -7, True,
                     Tagged(1.25), np.float64(-2.5), np.float32(0.1),
                     10**400, None, "x", "0.5", ""]),
)

#: Row forms: each builds a fresh row from its entries.
ROW_FORMS = {
    "tuple": tuple,
    "list": list,
    "generator": lambda values: (value for value in values),
    "raising-generator": raising,
    "numpy-object": lambda values: np.array(values, dtype=object),
    "string": lambda values: "".join(str(k % 10) for k in range(len(values))),
    "none": lambda values: None,
    "scalar": lambda values: 1.5,
}

CONTAINERS = {
    "tuple": tuple,
    "list": list,
    "generator": lambda items: (item for item in items),
}


@st.composite
def trace_inputs(draw):
    """A builder of fresh ``(times, states)`` arguments: mostly well formed,
    with bad entries, odd row forms, ragged rows, dimension 0, an empty or
    mismatched trace and non-monotone times mixed in."""
    n = draw(st.integers(0, 6))
    dimension = draw(st.integers(0, 4))
    times = sorted(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n,
                                 unique=True)))
    if draw(st.booleans()):
        # a bad timestamp: NaN, inf, a repeat, a string
        if times:
            k = draw(st.integers(0, n - 1))
            times[k] = draw(st.sampled_from([math.nan, math.inf, -math.inf,
                                             times[k - 1], "x", -0.0]))
        if n and draw(st.booleans()):
            times.reverse()
    rows_count = n + draw(st.sampled_from([0, 0, 0, 1, -1]))
    # clean: finite tuple and list rows of the trace's dimension; ragged:
    # the same of any width; entries: any entries in tuple and list rows;
    # forms: finite entries in any row form; messy: any entries in any form
    mode = draw(st.sampled_from(["clean", "ragged", "entries", "forms", "messy"]))
    finite = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])
    entries = ENTRIES if mode in ("entries", "messy") else finite
    forms = sorted(ROW_FORMS) if mode in ("forms", "messy") else ["tuple", "list"]
    rows = []
    for _ in range(max(0, rows_count)):
        if mode == "clean" or draw(st.booleans()):
            width = dimension
        else:
            width = draw(st.integers(0, 5))
        values = draw(st.lists(entries, min_size=width, max_size=width))
        rows.append((draw(st.sampled_from(forms)), values))
    container = draw(st.sampled_from(sorted(CONTAINERS)))
    times_container = draw(st.sampled_from(["tuple", "list"]))

    def build():
        states = CONTAINERS[container]([ROW_FORMS[form](values) for form, values in rows])
        return CONTAINERS[times_container](times), states

    return build


def exact(values):
    """Every value with its type and bits: ``-0.0`` differs from ``0.0``."""
    return tuple((type(v), v.hex()) for v in values)


def outcome(construct, build):
    try:
        times, states = construct(*build())
    except Exception as exc:
        return type(exc), str(exc)
    return exact(times), tuple(map(exact, states))


def new_trace_fields(times, states):
    trace = Trace(times, states)
    return trace.times, trace.states


@settings(max_examples=500, deadline=None)
@given(trace_inputs())
def test_trace_matches_row_by_row_constructor(build):
    assert outcome(new_trace_fields, build) == outcome(seed_trace_fields, build)


def test_conversion_error_wins_over_the_rows_own_error():
    # the generator row yields a non-number before it fails: float() of the
    # entry fails first, as when the row was converted on its own
    def build():
        return (0.0, 1.0), ((1.0,), raising(["x"]))

    expected = (ValueError, "could not convert string to float: 'x'")
    assert outcome(new_trace_fields, build) == outcome(seed_trace_fields, build) == expected


def test_ragged_rows_with_the_expected_entry_count():
    # three rows of widths 2, 1 and 3 hold the 6 entries of a 3 x 2 trace
    def build():
        return (0.0, 1.0, 2.0), ((1.0, 2.0), (3.0,), (4.0, 5.0, 6.0))

    expected = (TraceValidationError, "ragged trajectory: state dimensions differ")
    assert outcome(new_trace_fields, build) == outcome(seed_trace_fields, build) == expected


def test_dimension_zero():
    trace = Trace((0.0, 1.0, 2.0), ((), [], ()))
    assert trace.states == ((), (), ()) and trace.dimension == 0
