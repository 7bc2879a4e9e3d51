"""Requirement language: types, parser, and formatter."""

import math

import pytest

from stlfalsify.errors import StlSyntaxError, ValidationError
from stlfalsify.stl import (
    Always,
    And,
    Eventually,
    Implies,
    LinearPredicate,
    Next,
    Not,
    Or,
    Predicate,
    PredicateMap,
    RESERVED_WORDS,
    TimeBound,
    Until,
    format_formula,
    parse_formula,
)

P1 = Predicate("p1")
P2 = Predicate("p2")


class TestTimeBound:
    def test_holds_floats(self):
        bound = TimeBound(0, 2.5)
        assert bound.lower == 0.0
        assert bound.upper == 2.5

    def test_point_window_allowed(self):
        assert TimeBound(1.5, 1.5).lower == TimeBound(1.5, 1.5).upper

    def test_unbounded_upper(self):
        assert TimeBound(0.5, math.inf).upper == math.inf

    def test_negative_lower_rejected(self):
        with pytest.raises(ValidationError):
            TimeBound(-0.1, 1.0)

    def test_inverted_rejected(self):
        with pytest.raises(ValidationError):
            TimeBound(2.0, 1.0)

    def test_infinite_lower_rejected(self):
        # regression: TimeBound(inf, inf) was accepted and formatted as
        # "[inf, inf]", text the parser rejects
        with pytest.raises(ValidationError, match="finite"):
            TimeBound(math.inf, math.inf)


class TestLinearPredicate:
    def test_norm_is_euclidean(self):
        assert LinearPredicate("p", (3.0, 4.0), 10.0).norm == 5.0

    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(ValidationError):
            LinearPredicate("p", (0.0, 0.0), 1.0)

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValidationError):
            LinearPredicate("p", (), 1.0)

    def test_structural_equality(self):
        assert LinearPredicate("p", (1.0, 0.0), 5.0) == LinearPredicate(
            "p", (1, 0), 5
        )

    @pytest.mark.parametrize("coefficients, bound", [
        ((1.0,), math.nan),
        ((1.0,), math.inf),
        ((1.0, 0.0), -math.inf),
        ((math.inf, 0.0), 1.0),
        ((1.0, -math.inf), 1.0),
        ((1.0, math.nan), 1.0),
    ])
    def test_non_finite_coefficient_or_bound_rejected(self, coefficients, bound):
        # regression: all were accepted. A NaN anywhere or an infinite
        # coefficient then failed every evaluation with "its terms overflow
        # on state ...", blaming the system under test; a +-inf bound gave
        # +-inf robustness, indistinguishable from the vacuity sentinels
        with pytest.raises(ValidationError, match="non-finite"):
            LinearPredicate("p", coefficients, bound)

    def test_overflowing_norm_rejected(self):
        # regression: the norm of finite coefficients overflowed to inf, so
        # the violating state (0.5, 0.0) scored -0.0, which reads as not
        # violated
        predicates = PredicateMap(("x", "y"))
        with pytest.raises(ValidationError, match="non-finite norm"):
            predicates.add("p", (1.5e308, 1.5e308), 1.0)
        assert "p" not in predicates


class TestPredicateMap:
    def test_columns_follow_declaration_order(self):
        predicates = PredicateMap(("a", "b", "c"))
        assert predicates.columns == {"a": 0, "b": 1, "c": 2}
        assert predicates.dimension == 3

    def test_add_and_resolve(self):
        predicates = PredicateMap(("x",))
        added = predicates.add("p1", (1.0,), 5.0)
        assert predicates.resolve("p1") is added
        assert "p1" in predicates
        assert len(predicates) == 1

    def test_duplicate_predicate_rejected(self):
        predicates = PredicateMap(("x",))
        predicates.add("p1", (1.0,), 5.0)
        with pytest.raises(ValidationError):
            predicates.add("p1", (2.0,), 1.0)

    @pytest.mark.parametrize("coefficients, bound", [
        ((1.0,), math.nan),
        ((math.inf,), 1.0),
    ])
    def test_non_finite_predicate_rejected(self, coefficients, bound):
        predicates = PredicateMap(("x",))
        with pytest.raises(ValidationError, match="non-finite"):
            predicates.add("p", coefficients, bound)
        assert "p" not in predicates

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValidationError):
            PredicateMap(("x",)).add("p1", (1.0, 2.0), 5.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            PredicateMap(("x",)).resolve("nope")

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValidationError):
            PredicateMap(("x", "x"))

    def test_no_variables_rejected(self):
        with pytest.raises(ValidationError):
            PredicateMap(())


class TestParser:
    def test_always_bracket_alias(self):
        assert parse_formula("[]p1", ("x",)) == Always(P1)

    def test_bare_predicate(self):
        assert parse_formula("p1", ("x",)) == P1

    def test_bounded_always_over_inline_comparison(self):
        formula = parse_formula("always[0, 2.5] (x <= 5.0)", ("x", "y"))
        assert isinstance(formula, Always)
        assert formula.bound == TimeBound(0.0, 2.5)
        child = formula.child
        assert isinstance(child, Predicate)
        assert child.definition == LinearPredicate(child.name, (1.0, 0.0), 5.0)

    def test_inline_ge_flips_signs(self):
        formula = parse_formula("y >= 2.0", ("x", "y"))
        assert isinstance(formula, Predicate)
        assert formula.definition.coefficients == (0.0, -1.0)
        assert formula.definition.bound == -2.0

    def test_and_binds_tighter_than_or(self):
        a, b, c = Predicate("a"), Predicate("b"), Predicate("c")
        assert parse_formula("a and b or c", ("x",)) == Or(And(a, b), c)

    def test_not_binds_temporal_operand(self):
        assert parse_formula("not F p", ("x",)) == Not(Eventually(Predicate("p")))

    def test_implication_desugars_to_or_not(self):
        a, b = Predicate("a"), Predicate("b")
        assert parse_formula("a -> b", ("x",)) == Or(Not(a), b)

    def test_implication_right_associative(self):
        a, b, c = Predicate("a"), Predicate("b"), Predicate("c")
        assert parse_formula("a -> b -> c", ("x",)) == Or(Not(a), Or(Not(b), c))

    @pytest.mark.parametrize(
        "spellings",
        [
            ("G p1", "always p1", "[] p1", "[]p1"),
            ("F p1", "eventually p1", "<> p1"),
            ("X p1", "next p1"),
            ("! p1", "not p1", "!p1"),
            ("p1 && p2", "p1 and p2", "p1 /\\ p2"),
            ("p1 || p2", "p1 or p2", "p1 \\/ p2"),
            ("(p1 U p2)", "(p1 until p2)"),
            ("F[1, 2] p1", "eventually[1, 2] p1", "<>[1, 2] p1"),
        ],
    )
    def test_alias_spellings_collapse(self, spellings):
        parsed = [parse_formula(text, ("x",)) for text in spellings]
        assert all(tree == parsed[0] for tree in parsed[1:])

    def test_until_requires_parentheses(self):
        with pytest.raises(StlSyntaxError):
            parse_formula("p1 until p2", ("x",))

    def test_bounded_until(self):
        assert parse_formula("(p1 U[0, 1] p2)", ("x",)) == Until(
            P1, P2, TimeBound(0.0, 1.0)
        )

    def test_unbounded_until(self):
        assert parse_formula("(p1 until p2)", ("x",)) == Until(P1, P2)

    def test_inf_upper_bound(self):
        assert parse_formula("F[1, inf] p1", ("x",)) == Eventually(
            P1, TimeBound(1.0, math.inf)
        )

    def test_nested_grouping(self):
        formula = parse_formula("[] (p1 -> <>[0, 3] p2)", ("x",))
        assert formula == Always(Or(Not(P1), Eventually(P2, TimeBound(0.0, 3.0))))

    def test_number_spellings(self):
        for text, value in [
            ("x <= 1e-3", 1e-3),
            ("x <= 0.5", 0.5),
            ("x <= 3", 3.0),
            ("x <= -2.5", -2.5),
            ("x <= 1.5e2", 150.0),
        ]:
            formula = parse_formula(text, ("x",))
            assert formula.definition.bound == value

    def test_syntax_error_carries_position(self):
        with pytest.raises(StlSyntaxError) as err:
            parse_formula("p1 and", ("x",))
        assert err.value.position == len("p1 and")
        assert err.value.expected

    @pytest.mark.parametrize("text", ["x <= 1e400", "[] (x >= -1e400)"])
    def test_overflowing_comparison_literal_rejected(self, text):
        # regression: "x <= 1e400" parsed to a bound of inf and formatted as
        # "x <= inf", text the parser itself rejects
        with pytest.raises(StlSyntaxError, match="non-finite") as err:
            parse_formula(text, ("x",))
        assert err.value.position == text.index("x")

    def test_overflowing_bound_literal_rejected(self):
        # regression: "[1e400, inf]" parsed to TimeBound(inf, inf), which
        # formatted as "always[inf, inf] (x <= 1.0)", text the parser rejects
        text = "[] [1e400, inf] x <= 1"
        with pytest.raises(StlSyntaxError, match="finite") as err:
            parse_formula(text, ("x",))
        assert err.value.position == text.index("[1e400")

    def test_unknown_variable_in_comparison(self):
        with pytest.raises(StlSyntaxError):
            parse_formula("z <= 1.0", ("x",))

    def test_reserved_word_not_a_predicate(self):
        for word in ("inf", "until", "U"):
            assert word in RESERVED_WORDS
        with pytest.raises(StlSyntaxError):
            parse_formula("inf", ("x",))

    def test_inverted_bound_rejected(self):
        with pytest.raises(StlSyntaxError):
            parse_formula("F[2, 1] p1", ("x",))

    def test_negative_bound_rejected(self):
        with pytest.raises(StlSyntaxError):
            parse_formula("F[-1, 2] p1", ("x",))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(StlSyntaxError):
            parse_formula("p1 p2", ("x",))

    def test_unexpected_character_rejected(self):
        with pytest.raises(StlSyntaxError):
            parse_formula("p1 @ p2", ("x",))

    def test_empty_text_rejected(self):
        with pytest.raises(StlSyntaxError):
            parse_formula("   ", ("x",))

    def test_variables_required(self):
        with pytest.raises(ValidationError):
            parse_formula("p1", ())

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValidationError):
            parse_formula("p1", ("x", "x"))


class TestFormatter:
    def test_bare_predicate(self):
        assert format_formula(P1) == "p1"

    def test_unbounded_always(self):
        assert format_formula(Always(P1)) == "always (p1)"

    def test_bounded_until(self):
        assert format_formula(Until(P1, P2, TimeBound(0, 1))) == "(p1 until[0.0, 1.0] p2)"

    def test_implies_formats_as_arrow(self):
        assert format_formula(Implies(P1, P2)) == "(p1 -> p2)"

    def test_inf_bound_formats(self):
        text = format_formula(Eventually(P1, TimeBound(0.5, math.inf)))
        assert text == "eventually[0.5, inf] (p1)"

    def test_next_formats(self):
        assert format_formula(Next(P1)) == "next (p1)"

    def test_str_is_formatter(self):
        formula = And(P1, Not(P2))
        assert str(formula) == format_formula(formula)

    def test_rejects_non_formula(self):
        with pytest.raises(ValidationError):
            format_formula("p1")

    def test_formatted_implies_reparses_to_desugaring(self):
        # parsed "->" never yields Implies, so the round trip lands on the
        # desugared form rather than the original node
        text = format_formula(Implies(P1, P2))
        assert parse_formula(text, ("x",)) == Or(Not(P1), P2)
