"""Tests for repro.engine.expressions."""

import pytest

from repro.engine.expressions import (
    Arithmetic,
    BooleanOp,
    Column,
    Comparison,
    GroupCount,
    InList,
    Like,
    Literal,
    Not,
    SummaryCount,
    conjunction,
    resolve_column,
)
from repro.errors import ExpressionError
from repro.model.tuple import AnnotatedTuple
from repro.summaries.classifier import ClassifierSummary
from repro.summaries.cluster import ClusterGroup, ClusterSummary

SCHEMA = ("r.a", "r.b", "s.x")


def row(*values, summaries=None) -> AnnotatedTuple:
    return AnnotatedTuple(values=tuple(values), summaries=summaries or {})


class TestResolveColumn:
    def test_exact_match(self):
        assert resolve_column(SCHEMA, "r.a") == 0

    def test_suffix_match(self):
        assert resolve_column(SCHEMA, "b") == 1

    def test_ambiguous_suffix_raises(self):
        with pytest.raises(ExpressionError, match="ambiguous"):
            resolve_column(("r.a", "s.a"), "a")

    def test_unknown_raises(self):
        with pytest.raises(ExpressionError, match="unknown column"):
            resolve_column(SCHEMA, "zz")

    def test_aggregate_exact(self):
        assert resolve_column(("r.a", "count(*)"), "count(*)") == 1

    def test_aggregate_suffix(self):
        assert resolve_column(("r.a", "sum(r.b)"), "sum(b)") == 1

    def test_aggregate_function_must_match(self):
        with pytest.raises(ExpressionError):
            resolve_column(("sum(r.b)",), "avg(b)")

    def test_cache_is_bounded(self):
        # A long-running server sees unboundedly many distinct aliases.
        maxsize = resolve_column.cache_info().maxsize
        for i in range(maxsize + 100):
            assert resolve_column((f"t{i}.a", f"t{i}.b"), "b") == 1
        assert resolve_column.cache_info().currsize <= maxsize

    def test_errors_are_not_cached(self):
        schema = ("q.never_cached",)
        for _ in range(2):
            with pytest.raises(ExpressionError):
                resolve_column(schema, "zz")
        assert resolve_column(schema, "never_cached") == 0


class TestEvaluation:
    def test_literal(self):
        assert Literal(5).evaluate(row(), SCHEMA) == 5

    def test_column(self):
        assert Column("r.b").evaluate(row(1, 2, 3), SCHEMA) == 2

    def test_comparisons(self):
        cases = [("=", 2, True), ("!=", 2, False), ("<", 3, True),
                 ("<=", 2, True), (">", 1, True), (">=", 3, False)]
        for op, operand, expected in cases:
            expression = Comparison(op, Column("r.b"), Literal(operand))
            assert expression.evaluate(row(1, 2, 3), SCHEMA) is expected

    def test_comparison_with_null_is_false(self):
        expression = Comparison("=", Column("r.a"), Literal(1))
        assert expression.evaluate(row(None, 2, 3), SCHEMA) is False

    def test_comparison_type_error_wrapped(self):
        expression = Comparison("<", Column("r.a"), Literal("text"))
        with pytest.raises(ExpressionError, match="cannot compare"):
            expression.evaluate(row(1, 2, 3), SCHEMA)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExpressionError):
            Comparison("~~", Literal(1), Literal(2))

    def test_boolean_and_or(self):
        true = Comparison("=", Literal(1), Literal(1))
        false = Comparison("=", Literal(1), Literal(2))
        assert BooleanOp("and", (true, true)).evaluate(row(), SCHEMA)
        assert not BooleanOp("and", (true, false)).evaluate(row(), SCHEMA)
        assert BooleanOp("or", (false, true)).evaluate(row(), SCHEMA)

    def test_not(self):
        false = Comparison("=", Literal(1), Literal(2))
        assert Not(false).evaluate(row(), SCHEMA)

    def test_arithmetic(self):
        expression = Arithmetic("+", Column("r.a"), Arithmetic(
            "*", Column("r.b"), Literal(10)))
        assert expression.evaluate(row(1, 2, 3), SCHEMA) == 21

    def test_arithmetic_null_propagates(self):
        expression = Arithmetic("+", Column("r.a"), Literal(1))
        assert expression.evaluate(row(None, 2, 3), SCHEMA) is None

    def test_division_by_zero_wrapped(self):
        expression = Arithmetic("/", Literal(1), Literal(0))
        with pytest.raises(ExpressionError):
            expression.evaluate(row(), SCHEMA)

    def test_like(self):
        expression = Like(Column("r.a"), "Swan%")
        assert expression.evaluate(row("Swan Goose", 2, 3), SCHEMA)
        assert not expression.evaluate(row("Goose", 2, 3), SCHEMA)

    def test_like_case_insensitive_and_underscore(self):
        assert Like(Literal("ab"), "A_").evaluate(row(), SCHEMA)

    def test_in_list(self):
        expression = InList(Column("r.b"), (1, 2, 3))
        assert expression.evaluate(row(0, 2, 0), SCHEMA)
        assert not expression.evaluate(row(0, 9, 0), SCHEMA)


class TestSummaryFunctions:
    def _summaries(self):
        classifier = ClassifierSummary("C", ["refute", "approve"])
        classifier.add(1, "refute")
        classifier.add(2, "approve")
        classifier.add(3, "approve")
        cluster = ClusterSummary("S")
        cluster.groups = [
            ClusterGroup(member_ids={1}, ranking=[1]),
            ClusterGroup(member_ids={2, 3}, ranking=[2, 3]),
        ]
        return {"C": classifier, "S": cluster}

    def test_summary_count_with_label(self):
        expression = SummaryCount("C", "approve")
        assert expression.evaluate(row(summaries=self._summaries()), ()) == 2

    def test_summary_count_total(self):
        expression = SummaryCount("C")
        assert expression.evaluate(row(summaries=self._summaries()), ()) == 3

    def test_summary_count_missing_instance_is_zero(self):
        assert SummaryCount("nope", "x").evaluate(row(), ()) == 0

    def test_summary_count_label_on_non_classifier(self):
        expression = SummaryCount("S", "label")
        with pytest.raises(ExpressionError, match="requires a classifier"):
            expression.evaluate(row(summaries=self._summaries()), ())

    def test_group_count(self):
        assert GroupCount("S").evaluate(row(summaries=self._summaries()), ()) == 2

    def test_group_count_on_non_cluster(self):
        with pytest.raises(ExpressionError, match="requires a cluster"):
            GroupCount("C").evaluate(row(summaries=self._summaries()), ())

    def test_group_count_missing_instance_is_zero(self):
        assert GroupCount("nope").evaluate(row(), ()) == 0


class TestHelpers:
    def test_conjunction(self):
        true = Comparison("=", Literal(1), Literal(1))
        assert conjunction([]) is None
        assert conjunction([true]) is true
        combined = conjunction([true, true])
        assert isinstance(combined, BooleanOp)

    def test_referenced_columns(self):
        expression = BooleanOp("and", (
            Comparison("=", Column("r.a"), Column("s.x")),
            Like(Column("r.b"), "%"),
        ))
        assert expression.referenced_columns() == {"r.a", "s.x", "r.b"}

    def test_str_renderings(self):
        expression = Comparison("=", Column("a"), Literal("o'brien"))
        assert str(expression) == "a = 'o''brien'"
        assert str(SummaryCount("C", "x")) == "SUMMARY_COUNT('C', 'x')"
        assert str(GroupCount("S")) == "GROUP_COUNT('S')"
