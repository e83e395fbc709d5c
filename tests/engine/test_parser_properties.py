"""Property-based tests of the expression language.

Two round-trip invariants: (1) rendering an expression with ``str()`` and
re-parsing it yields an expression that evaluates identically; (2) the
planner's rewrites (pushdown + normalization) never change query results
on randomized micro-databases.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import InsightNotes
from repro.engine.expressions import (
    Arithmetic,
    BooleanOp,
    Column,
    Comparison,
    Expression,
    IsNull,
    Like,
    Literal,
    Not,
)
from repro.engine.sqlparser import parse_expression
from repro.model.tuple import AnnotatedTuple

SCHEMA = ("t.a", "t.b", "t.c")

columns = st.sampled_from(["a", "b", "c", "t.a", "t.b", "t.c"])
int_literals = st.integers(min_value=-50, max_value=50)
str_literals = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                           whitelist_characters=" '"),
    max_size=8,
)


@st.composite
def operands(draw) -> Expression:
    kind = draw(st.sampled_from(["column", "int", "str"]))
    if kind == "column":
        return Column(draw(columns))
    if kind == "int":
        return Literal(draw(int_literals))
    return Literal(draw(str_literals))


numeric_columns = st.sampled_from(["a", "b", "t.a", "t.b"])


@st.composite
def predicates(draw, depth: int = 2) -> Expression:
    if depth == 0:
        # Ordered comparisons only over the numeric columns: comparing a
        # string column with an int raises, and selection pushdown
        # legitimately changes *when* such an error surfaces.
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        left = Column(draw(numeric_columns))
        right = Literal(draw(int_literals))
        return Comparison(op, left, right)
    kind = draw(st.sampled_from(["cmp", "and", "or", "not", "isnull", "like"]))
    if kind == "cmp":
        return draw(predicates(depth=0))
    if kind == "not":
        return Not(draw(predicates(depth=depth - 1)))
    if kind == "isnull":
        return IsNull(Column(draw(columns)), negated=draw(st.booleans()))
    if kind == "like":
        pattern = draw(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz%_", min_size=1, max_size=6)
        )
        return Like(Column(draw(columns)), pattern)
    parts = draw(st.lists(predicates(depth=depth - 1), min_size=2, max_size=3))
    return BooleanOp("and" if kind == "and" else "or", tuple(parts))


rows = st.tuples(
    st.one_of(st.none(), int_literals),
    st.one_of(st.none(), int_literals),
    st.one_of(st.none(), str_literals),
)


class TestExpressionRoundTrip:
    @given(predicates(), rows)
    @settings(max_examples=150)
    def test_str_reparse_evaluates_identically(self, expression, values):
        rendered = str(expression)
        reparsed = parse_expression(rendered)
        row = AnnotatedTuple(values=values)

        def outcome(expr):
            try:
                return ("value", bool(expr.evaluate(row, SCHEMA)))
            except Exception as error:
                return ("error", type(error).__name__)

        assert outcome(expression) == outcome(reparsed)

    @given(predicates())
    @settings(max_examples=100)
    def test_rendering_is_stable(self, expression):
        once = str(expression)
        twice = str(parse_expression(once))
        assert str(parse_expression(twice)) == twice


class TestPlannerRewriteEquivalence:
    @given(
        st.lists(st.tuples(int_literals, int_literals), min_size=0, max_size=6),
        st.lists(st.tuples(int_literals, str_literals), min_size=0, max_size=6),
        predicates(depth=1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rewrites_preserve_results(self, r_rows, s_rows, predicate):
        notes = InsightNotes()
        notes.create_table("t", ["a", "b"])
        notes.create_table("u", ["a2", "c"])
        for row in r_rows:
            notes.insert("t", row)
        for row in s_rows:
            notes.insert("u", row)
        # Map generated column references onto the t/u schema.
        sql_predicate = (
            str(predicate)
            .replace("t.a", "t0.a").replace("t.b", "t0.b").replace("t.c", "u0.c")
        )
        for bare, qualified in (("a", "t0.a"), ("b", "t0.b"), ("c", "u0.c")):
            sql_predicate = _replace_bare(sql_predicate, bare, qualified)
        sql = (
            "SELECT t0.a, u0.c FROM t t0, u u0 "
            f"WHERE t0.a = u0.a2 AND ({sql_predicate})"
        )
        try:
            notes.planner.normalize_plans = True
            notes.planner.push_selections = True
            full = sorted(map(str, notes.query(sql).rows()))
            notes.planner.normalize_plans = False
            notes.planner.push_selections = False
            plain = sorted(map(str, notes.query(sql).rows()))
        finally:
            notes.close()
        assert full == plain


def _replace_bare(text: str, bare: str, qualified: str) -> str:
    import re

    return re.sub(rf"(?<![\w.]){bare}(?![\w.(])", qualified, text)
