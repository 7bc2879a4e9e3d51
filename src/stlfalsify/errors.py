"""Exception hierarchy shared across the toolkit, and one integer check."""

from __future__ import annotations


class StlFalsifyError(Exception):
    """Base class for all errors raised by this package."""


class StlSyntaxError(StlFalsifyError):
    """Requirement text could not be parsed.

    Carries the character offset of the offending token and the set of
    token descriptions that would have been accepted there.
    """

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"syntax error at position {position}: {message}"
        if expected:
            detail += " (expected " + " | ".join(expected) + ")"
        super().__init__(detail)


class ValidationError(StlFalsifyError):
    """An input violated a documented precondition or invariant."""


class SimulationError(StlFalsifyError):
    """A system under test failed while producing a trace.

    Subject to the run's error policy: ``abort-run`` ends the run with a
    partial history, ``record-and-continue`` logs the failure and keeps
    searching.
    """


class TraceValidationError(SimulationError, ValidationError):
    """A system under test returned output violating the trace invariants."""


def _integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` if it is an ``int``, not a ``bool``, and at least ``minimum``;
    otherwise a :class:`ValidationError` naming ``name``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value
