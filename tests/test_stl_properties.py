"""Property tests for the requirement language.

The central law is the round-trip fixpoint: formatting any parser-reachable
formula and parsing it back reproduces the same tree structurally.
"""

import math

from hypothesis import given, settings, strategies as st

from stlfalsify.stl import (
    Always,
    And,
    Eventually,
    Implies,
    Next,
    Not,
    Or,
    Predicate,
    TimeBound,
    Until,
    format_formula,
    parse_formula,
)

VARIABLES = ("x", "y")

names = st.sampled_from(("p1", "p2", "q", "safe", "r2"))
finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def bounds(draw):
    lower = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    if draw(st.booleans()):
        upper = math.inf
    else:
        upper = lower + draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    return TimeBound(lower, upper)


maybe_bound = st.none() | bounds()


@st.composite
def inline_comparisons(draw):
    variable = draw(st.sampled_from(VARIABLES))
    comparison = draw(st.sampled_from(("<=", ">=")))
    value = draw(finite)
    text = f"{variable} {comparison} {value!r}"
    return parse_formula(text, VARIABLES)


leaves = names.map(Predicate) | inline_comparisons()


def _extend(children):
    return st.one_of(
        children.map(Not),
        children.map(Next),
        st.tuples(children, children).map(lambda pair: And(*pair)),
        st.tuples(children, children).map(lambda pair: Or(*pair)),
        st.tuples(children, children).map(lambda pair: Implies(*pair)),
        st.tuples(children, maybe_bound).map(lambda t: Eventually(t[0], t[1])),
        st.tuples(children, maybe_bound).map(lambda t: Always(t[0], t[1])),
        st.tuples(children, children, maybe_bound).map(
            lambda t: Until(t[0], t[1], t[2])
        ),
    )


# max_leaves 32 keeps trees within roughly depth 6
formulas = st.recursive(leaves, _extend, max_leaves=32)


@settings(max_examples=300, deadline=None)
@given(formulas)
def test_round_trip_fixpoint(formula):
    assert parse_formula(format_formula(formula), VARIABLES) == formula


@settings(max_examples=200, deadline=None)
@given(formulas)
def test_formatting_is_stable(formula):
    once = format_formula(formula)
    assert format_formula(parse_formula(once, VARIABLES)) == once


@settings(max_examples=200, deadline=None)
@given(formulas, formulas)
def test_implies_builds_the_parsed_implication(left, right):
    text = f"({format_formula(left)} -> {format_formula(right)})"
    assert Implies(left, right) == parse_formula(text, VARIABLES)


@settings(max_examples=200, deadline=None)
@given(inline_comparisons())
def test_inline_comparison_round_trip(formula):
    assert parse_formula(format_formula(formula), VARIABLES) == formula


@settings(max_examples=100, deadline=None)
@given(names, names, names)
def test_precedence_shape(a, b, c):
    parsed = parse_formula(f"{a} and {b} or {c}", VARIABLES)
    assert parsed == Or(And(Predicate(a), Predicate(b)), Predicate(c))
    parsed = parse_formula(f"{a} or {b} and {c}", VARIABLES)
    assert parsed == Or(Predicate(a), And(Predicate(b), Predicate(c)))


@settings(max_examples=100, deadline=None)
@given(formulas)
def test_canonical_and_alias_spellings_agree(formula):
    canonical = format_formula(formula)
    aliased = (
        canonical.replace("always", "G")
        .replace("eventually", "F")
        .replace("next", "X")
        .replace("until", "U")
        .replace(" and ", " && ")
        .replace(" or ", " || ")
        .replace("not ", "! ")
    )
    assert parse_formula(aliased, VARIABLES) == formula
