"""Signal temporal logic formulas: abstract syntax, parsing, and formatting.

Requirement strings are parsed by a hand-written recursive-descent parser
over the following grammar (whitespace separates tokens; keywords are
case-sensitive; identifiers match ``[A-Za-z_][A-Za-z0-9_]*`` and must not
collide with a reserved word)::

    formula     := implication
    implication := disjunction ('->' disjunction)*          right-associative
    disjunction := conjunction (('or' | '\\/' | '||') conjunction)*
    conjunction := unary (('and' | '/\\' | '&&') unary)*
    unary       := ('not' | '!') unary | temporal
    temporal    := ('next' | 'X') unary
                 | ('eventually' | 'F' | '<>') bound? unary
                 | ('always' | 'G' | '[]') bound? unary
                 | atom
    atom        := '(' formula ')' | untilExpr | predicate
    untilExpr   := '(' formula ('until' | 'U') bound? formula ')'
    bound       := '[' number ',' (number | 'inf') ']'
    predicate   := identifier ('<=' | '>=') signedNumber
                 | identifier

Until is binary and must be parenthesized.  An absent bound on a temporal
operator means ``[0, inf)``.  Implication desugars at parse time to
``or(not lhs, rhs)``, so evaluators only ever see the
``{not, and, or}`` connective core for parsed formulas.

A bare identifier is a named predicate resolved against a
:class:`PredicateMap` at evaluation time.  An inline comparison such as
``x <= 5.0`` is desugared into a fresh :class:`LinearPredicate` carried
directly on the :class:`Predicate` node: the comparison ``v <= c`` over state
variable ``v`` at column ``i`` becomes coefficients ``e_i`` with bound ``c``,
and ``v >= c`` becomes coefficients ``-e_i`` with bound ``-c``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import StlSyntaxError, ValidationError

__all__ = [
    "Formula",
    "Predicate",
    "Not",
    "And",
    "Or",
    "Implies",
    "Next",
    "Eventually",
    "Always",
    "Until",
    "TimeBound",
    "LinearPredicate",
    "PredicateMap",
    "parse_formula",
    "format_formula",
    "RESERVED_WORDS",
]

RESERVED_WORDS = frozenset(
    ["not", "and", "or", "next", "eventually", "always", "until", "inf",
     "X", "F", "G", "U"]
)


@dataclass(frozen=True)
class TimeBound:
    """Closed time window ``[lower, upper]`` in seconds; upper may be inf."""

    lower: float
    upper: float

    def __post_init__(self):
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if not self.lower >= 0.0:
            raise ValidationError(f"time bound lower limit must be >= 0, got {self.lower}")
        if not self.lower <= self.upper:
            raise ValidationError(
                f"malformed time bound: lower {self.lower} exceeds upper {self.upper}"
            )


@dataclass(frozen=True)
class LinearPredicate:
    """Half-space constraint ``A . x <= b`` over a trace's state vector.

    The Euclidean norm of the coefficient row is fixed at construction and
    used to normalize robustness into a signed distance to the hyperplane.
    """

    name: str
    coefficients: tuple[float, ...]
    bound: float
    norm: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "bound", float(self.bound))
        if not coeffs:
            raise ValidationError(f"predicate {self.name!r} has an empty coefficient vector")
        if all(c == 0.0 for c in coeffs):
            raise ValidationError(f"predicate {self.name!r} has an all-zero coefficient vector")
        if not all(map(math.isfinite, (*coeffs, self.bound))):
            raise ValidationError(
                f"predicate {self.name!r} has a non-finite coefficient or bound: "
                f"{coeffs} . x <= {self.bound}"
            )
        # hypot stays exact where naive sum-of-squares under- or overflows
        object.__setattr__(self, "norm", math.hypot(*coeffs))


class Formula:
    """Base class of the requirement syntax tree.  Nodes are immutable."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Predicate(Formula):
    """Atomic proposition.

    Bare identifiers are resolved by name in the predicate map at evaluation
    time; predicates desugared from inline comparisons carry their
    :class:`LinearPredicate` in ``definition``.
    """

    name: str
    definition: LinearPredicate | None = None


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    """Material implication.  Parsed ``->`` never produces this node (it is
    desugared to ``Or(Not(lhs), rhs)``); it exists for programmatic use."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    child: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    child: Formula
    bound: TimeBound | None = None


@dataclass(frozen=True)
class Always(Formula):
    child: Formula
    bound: TimeBound | None = None


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula
    bound: TimeBound | None = None


class PredicateMap:
    """Requirement data: named predicates plus the state-variable layout.

    Maps predicate identifiers to :class:`LinearPredicate` entries and state
    variable names to their column index in the trace's state vectors.
    """

    def __init__(self, variables: Sequence[str]):
        variables = tuple(variables)
        if not variables:
            raise ValidationError("at least one state variable is required")
        if len(set(variables)) != len(variables):
            raise ValidationError(f"duplicate state variable names in {variables}")
        self.variables = variables
        self.columns: Mapping[str, int] = {name: i for i, name in enumerate(variables)}
        self._predicates: dict[str, LinearPredicate] = {}

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def add(self, name: str, coefficients: Sequence[float], bound: float) -> LinearPredicate:
        """Register the predicate ``coefficients . x <= bound`` under ``name``."""
        if name in self._predicates:
            raise ValidationError(f"duplicate predicate name {name!r}")
        coeffs = tuple(float(c) for c in coefficients)
        if len(coeffs) != self.dimension:
            raise ValidationError(
                f"predicate {name!r} has {len(coeffs)} coefficients for "
                f"{self.dimension} state variables"
            )
        pred = LinearPredicate(name, coeffs, bound)
        self._predicates[name] = pred
        return pred

    def resolve(self, name: str) -> LinearPredicate:
        try:
            return self._predicates[name]
        except KeyError:
            raise ValidationError(f"unresolved predicate name {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._predicates

    def __iter__(self):
        return iter(self._predicates.values())

    def __len__(self) -> int:
        return len(self._predicates)


# --- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>->|<=|>=|<>|\[\]|\\/|/\\|\|\||&&|[!()\[\],\-])
    """,
    re.VERBOSE,
)

# token kind -> human-readable description used in error messages
_SYMBOL_KINDS = {
    "->": "'->'", "<=": "'<='", ">=": "'>='", "<>": "'<>'", "[]": "'[]'",
    "\\/": "'\\/'", "/\\": "'/\\'", "||": "'||'", "&&": "'&&'", "!": "'!'",
    "(": "'('", ")": "')'", "[": "'['", "]": "']'", ",": "','", "-": "'-'",
}


@dataclass(frozen=True)
class _Token:
    kind: str      # 'number' | 'ident' | one of the operator spellings | 'end'
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise StlSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup == "ws":
            pos = match.end()
            continue
        kind = match.lastgroup if match.lastgroup != "op" else match.group()
        tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


# --- parser ----------------------------------------------------------------

_NOT = ("not", "!")
_AND = ("and", "/\\", "&&")
_OR = ("or", "\\/", "||")
_NEXT = ("next", "X")
_EVENTUALLY = ("eventually", "F", "<>")
_ALWAYS = ("always", "G", "[]")
_UNTIL = ("until", "U")

_ATOM_EXPECTED = ("'('", "'not'", "'next'", "'eventually'", "'always'", "identifier")


class _Parser:
    def __init__(self, tokens: list[_Token], variables: Sequence[str]):
        self.tokens = tokens
        self.index = 0
        self.columns = {name: i for i, name in enumerate(variables)}
        self.dimension = len(variables)

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def at(self, *spellings: str) -> bool:
        token = self.peek()
        if token.kind == "ident":
            return token.text in spellings
        return token.kind in spellings

    def accept(self, *spellings: str) -> _Token | None:
        if self.at(*spellings):
            return self.advance()
        return None

    def expect(self, spelling: str, description: str) -> _Token:
        token = self.accept(spelling)
        if token is None:
            self.fail((description,))
        return token

    def fail(self, expected: tuple[str, ...]):
        token = self.peek()
        got = "end of input" if token.kind == "end" else repr(token.text)
        raise StlSyntaxError(f"unexpected {got}", token.position, expected)

    def parse(self) -> Formula:
        formula = self.implication()
        if self.peek().kind != "end":
            self.fail(("end of input", "binary connective"))
        return formula

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.accept("->"):
            right = self.implication()  # right-associative
            return Or(Not(left), right)
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.accept(*_OR):
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.accept(*_AND):
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        if self.accept(*_NOT):
            return Not(self.unary())
        return self.temporal()

    def temporal(self) -> Formula:
        if self.accept(*_NEXT):
            return Next(self.unary())
        if self.accept(*_EVENTUALLY):
            bound = self.bound() if self.at("[") else None
            return Eventually(self.unary(), bound)
        if self.accept(*_ALWAYS):
            bound = self.bound() if self.at("[") else None
            return Always(self.unary(), bound)
        return self.atom()

    def atom(self) -> Formula:
        if self.accept("("):
            left = self.implication()
            if self.accept(*_UNTIL):
                bound = self.bound() if self.at("[") else None
                right = self.implication()
                self.expect(")", "')'")
                return Until(left, right, bound)
            self.expect(")", "')'")
            return left
        if self.peek().kind == "ident":
            return self.predicate()
        self.fail(_ATOM_EXPECTED)

    def predicate(self) -> Formula:
        token = self.advance()
        name = token.text
        if name in RESERVED_WORDS:
            raise StlSyntaxError(
                f"reserved word {name!r} cannot name a predicate", token.position
            )
        comparison = self.accept("<=", ">=")
        if comparison is None:
            return Predicate(name)
        if name not in self.columns:
            raise StlSyntaxError(
                f"unknown state variable {name!r} in inline comparison",
                token.position,
            )
        value = self.signed_number()
        try:
            return Predicate(*_inline_predicate(
                name, self.columns[name], self.dimension, comparison.text, value
            ))
        except ValidationError as exc:
            raise StlSyntaxError(str(exc), token.position) from None

    def signed_number(self) -> float:
        negative = self.accept("-") is not None
        token = self.peek()
        if token.kind != "number":
            self.fail(("number",))
        self.advance()
        value = float(token.text)
        return -value if negative else value

    def bound(self) -> TimeBound:
        opener = self.expect("[", "'['")
        lower = self.signed_number()
        self.expect(",", "','")
        if self.accept("inf"):
            upper = math.inf
        else:
            upper = self.signed_number()
        self.expect("]", "']'")
        try:
            return TimeBound(lower, upper)
        except ValidationError as exc:
            raise StlSyntaxError(str(exc), opener.position) from None


def _format_number(value: float) -> str:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(float(value))


def _inline_predicate(variable: str, column: int, dimension: int,
                      comparison: str, value: float) -> tuple[str, LinearPredicate]:
    """Fresh predicate for an inline comparison; its name is the canonical
    comparison text, which re-parses to the identical node."""
    name = f"{variable} {comparison} {_format_number(value)}"
    coefficients = [0.0] * dimension
    if comparison == "<=":
        coefficients[column] = 1.0
        bound = value
    else:
        coefficients[column] = -1.0
        bound = -value
    return name, LinearPredicate(name, tuple(coefficients), bound)


def parse_formula(text: str, variables: Sequence[str]) -> Formula:
    """Parse a requirement string into its syntax tree.

    ``variables`` is the ordered list of state-variable names; inline
    comparisons are resolved against it to build coefficient vectors.
    Raises :class:`StlSyntaxError` on malformed input.
    """
    if not text.strip():
        raise StlSyntaxError("empty requirement", 0)
    variables = tuple(variables)
    if not variables:
        raise ValidationError("at least one state variable is required")
    if len(set(variables)) != len(variables):
        raise ValidationError(f"duplicate state variable names in {variables}")
    return _Parser(_tokenize(text), variables).parse()


def _format_bound(bound: TimeBound | None) -> str:
    if bound is None:
        return ""
    return f"[{_format_number(bound.lower)}, {_format_number(bound.upper)}]"


def format_formula(formula: Formula) -> str:
    """Emit canonical requirement text; ``parse_formula`` round-trips it.

    The fixpoint is structural for every parser-producible tree; an
    ``Implies`` node formats as ``->`` and therefore re-parses to its
    desugared ``Or(Not(..), ..)`` form.
    """
    if isinstance(formula, Predicate):
        return formula.name
    if isinstance(formula, Not):
        return f"not ({format_formula(formula.child)})"
    if isinstance(formula, And):
        return f"({format_formula(formula.left)} and {format_formula(formula.right)})"
    if isinstance(formula, Or):
        return f"({format_formula(formula.left)} or {format_formula(formula.right)})"
    if isinstance(formula, Implies):
        return f"({format_formula(formula.left)} -> {format_formula(formula.right)})"
    if isinstance(formula, Next):
        return f"next ({format_formula(formula.child)})"
    if isinstance(formula, Eventually):
        return f"eventually{_format_bound(formula.bound)} ({format_formula(formula.child)})"
    if isinstance(formula, Always):
        return f"always{_format_bound(formula.bound)} ({format_formula(formula.child)})"
    if isinstance(formula, Until):
        return (f"({format_formula(formula.left)} until{_format_bound(formula.bound)} "
                f"{format_formula(formula.right)})")
    raise ValidationError(f"not a formula node: {formula!r}")
