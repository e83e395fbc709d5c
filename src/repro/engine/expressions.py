"""Expression evaluation for predicates and select lists.

Expressions evaluate against an :class:`~repro.model.tuple.AnnotatedTuple`
and the operator's column schema.  Besides ordinary column references,
comparisons, boolean connectives, arithmetic, LIKE, and IN, the engine
exposes two **summary functions** — the "new query operators specific for
annotation summaries" of the paper — usable anywhere an expression is:

* ``SUMMARY_COUNT('<instance>', '<label>')`` — the annotation count under a
  classifier label (or total for the instance when the label is omitted);
* ``GROUP_COUNT('<instance>')`` — the number of groups in a cluster
  summary.

These make summary-based filtering and sorting (``WHERE
SUMMARY_COUNT('ClassBird1','Disease') > 5 ORDER BY GROUP_COUNT(...)``)
plug into any stage of the pipeline, as §2.1 requires.
"""

from __future__ import annotations

import abc
import functools
import re
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import ExpressionError
from repro.model.tuple import AnnotatedTuple
from repro.summaries.classifier import ClassifierSummary
from repro.summaries.cluster import ClusterSummary

#: Bound of the column-resolution cache.  Resolution runs per row, so it
#: is memoized; the bound keeps a long-running server from growing the
#: cache with every distinct alias its clients send.
RESOLUTION_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=RESOLUTION_CACHE_SIZE)
def resolve_column(schema: tuple[str, ...], name: str) -> int:
    """Index of column ``name`` in ``schema``.

    Exact (qualified) matches win; otherwise an unqualified name matches a
    unique qualified column with that suffix.  Ambiguous or unknown names
    raise :class:`ExpressionError` (errors are not cached).
    """
    if name in schema:
        return schema.index(name)
    matches = [
        i for i, column in enumerate(schema) if _suffix_matches(column, name)
    ]
    if not matches:
        raise ExpressionError(
            f"unknown column {name!r}; available: {list(schema)}"
        )
    if len(matches) > 1:
        ambiguous = [schema[i] for i in matches]
        raise ExpressionError(f"ambiguous column {name!r}: {ambiguous}")
    return matches[0]


_AGGREGATE_NAME_RE = re.compile(r"([a-z]+)\((.*)\)")


def _suffix_matches(column: str, name: str) -> bool:
    """Unqualified-match test, aggregate-name aware.

    ``b`` matches ``r.b``; ``sum(b)`` matches ``sum(r.b)``; ``count(*)``
    only matches exactly (handled by the caller's fast path).
    """
    aggregate = _AGGREGATE_NAME_RE.fullmatch(name)
    if aggregate is not None:
        candidate = _AGGREGATE_NAME_RE.fullmatch(column)
        if candidate is None or candidate.group(1) != aggregate.group(1):
            return False
        inner_column, inner_name = candidate.group(2), aggregate.group(2)
        return inner_column == inner_name or _suffix_matches(
            inner_column, inner_name
        )
    return column.rsplit(".", 1)[-1] == name


class Expression(abc.ABC):
    """Base class of the expression AST."""

    @abc.abstractmethod
    def evaluate(self, row: AnnotatedTuple, schema: tuple[str, ...]) -> Any:
        """Value of the expression for ``row`` under ``schema``."""

    @abc.abstractmethod
    def referenced_columns(self) -> set[str]:
        """Column names (as written) this expression references."""

    @abc.abstractmethod
    def __str__(self) -> str:
        """SQL-ish rendering, used in plan displays and output names."""


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def evaluate(self, row: AnnotatedTuple, schema: tuple[str, ...]) -> Any:
        return self.value

    def referenced_columns(self) -> set[str]:
        return set()

    def __str__(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


@dataclass(frozen=True)
class Column(Expression):
    """A (possibly qualified) column reference."""

    name: str

    def evaluate(self, row: AnnotatedTuple, schema: tuple[str, ...]) -> Any:
        return row.values[resolve_column(schema, self.name)]

    def referenced_columns(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


_COMPARISONS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(Expression):
    """A binary comparison; NULL (None) operands compare false."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARISONS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, row: AnnotatedTuple, schema: tuple[str, ...]) -> bool:
        left = self.left.evaluate(row, schema)
        right = self.right.evaluate(row, schema)
        if left is None or right is None:
            return False
        try:
            return _COMPARISONS[self.op](left, right)
        except TypeError as exc:
            raise ExpressionError(
                f"cannot compare {left!r} {self.op} {right!r}"
            ) from exc

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class BooleanOp(Expression):
    """N-ary AND / OR with short-circuit evaluation."""

    op: str  # "and" | "or"
    operands: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if self.op not in ("and", "or"):
            raise ExpressionError(f"unknown boolean operator {self.op!r}")
        if len(self.operands) < 2:
            raise ExpressionError(f"{self.op.upper()} needs >= 2 operands")

    def evaluate(self, row: AnnotatedTuple, schema: tuple[str, ...]) -> bool:
        if self.op == "and":
            return all(op.evaluate(row, schema) for op in self.operands)
        return any(op.evaluate(row, schema) for op in self.operands)

    def referenced_columns(self) -> set[str]:
        columns: set[str] = set()
        for operand in self.operands:
            columns |= operand.referenced_columns()
        return columns

    def __str__(self) -> str:
        joiner = f" {self.op.upper()} "
        return "(" + joiner.join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Not(Expression):
    """Logical negation."""

    operand: Expression

    def evaluate(self, row: AnnotatedTuple, schema: tuple[str, ...]) -> bool:
        return not self.operand.evaluate(row, schema)

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@dataclass(frozen=True)
class Arithmetic(Expression):
    """Binary arithmetic over numeric operands."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, row: AnnotatedTuple, schema: tuple[str, ...]) -> Any:
        left = self.left.evaluate(row, schema)
        right = self.right.evaluate(row, schema)
        if left is None or right is None:
            return None
        try:
            return _ARITHMETIC[self.op](left, right)
        except (TypeError, ZeroDivisionError) as exc:
            raise ExpressionError(
                f"cannot evaluate {left!r} {self.op} {right!r}"
            ) from exc

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Like(Expression):
    """SQL LIKE with ``%`` and ``_`` wildcards, case-insensitive."""

    operand: Expression
    pattern: str

    def evaluate(self, row: AnnotatedTuple, schema: tuple[str, ...]) -> bool:
        value = self.operand.evaluate(row, schema)
        if value is None:
            return False
        regex = re.escape(self.pattern).replace("%", ".*").replace("_", ".")
        return re.fullmatch(regex, str(value), re.IGNORECASE) is not None

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def __str__(self) -> str:
        return f"{self.operand} LIKE '{self.pattern}'"


@dataclass(frozen=True)
class IsNull(Expression):
    """SQL ``IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def evaluate(self, row: AnnotatedTuple, schema: tuple[str, ...]) -> bool:
        is_null = self.operand.evaluate(row, schema) is None
        return not is_null if self.negated else is_null

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def __str__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand} {suffix}"


@dataclass(frozen=True)
class InList(Expression):
    """SQL IN over a literal list."""

    operand: Expression
    values: tuple[Any, ...]

    def evaluate(self, row: AnnotatedTuple, schema: tuple[str, ...]) -> bool:
        return self.operand.evaluate(row, schema) in self.values

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def __str__(self) -> str:
        rendered = ", ".join(str(Literal(value)) for value in self.values)
        return f"{self.operand} IN ({rendered})"


_SCALAR_FUNCTIONS = {
    "lower": lambda v: v.lower() if isinstance(v, str) else v,
    "upper": lambda v: v.upper() if isinstance(v, str) else v,
    "length": lambda v: len(v) if isinstance(v, str) else None,
    "abs": lambda v: abs(v) if isinstance(v, (int, float)) else None,
    "round": lambda v: round(v) if isinstance(v, (int, float)) else None,
}


@dataclass(frozen=True)
class ScalarFunction(Expression):
    """A built-in scalar function: LOWER, UPPER, LENGTH, ABS, ROUND.

    NULL inputs yield NULL; type-mismatched inputs yield NULL rather than
    raising, matching SQL's permissive scalar semantics.
    """

    name: str
    operand: Expression

    def __post_init__(self) -> None:
        if self.name not in _SCALAR_FUNCTIONS:
            raise ExpressionError(f"unknown scalar function {self.name!r}")

    def evaluate(self, row: AnnotatedTuple, schema: tuple[str, ...]) -> Any:
        value = self.operand.evaluate(row, schema)
        if value is None:
            return None
        return _SCALAR_FUNCTIONS[self.name](value)

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def __str__(self) -> str:
        return f"{self.name.upper()}({self.operand})"


@dataclass(frozen=True)
class InSubquery(Expression):
    """``operand IN (SELECT ...)`` — an uncorrelated subquery membership.

    The engine flattens these before execution: the subquery runs once and
    the node is replaced by an :class:`InList` over its values (see
    :meth:`repro.engine.session.InsightNotes.query`).  Evaluating an
    unflattened node is therefore an error.
    """

    operand: Expression
    statement: Any  # SelectStatement; typed loosely to avoid a cycle

    def evaluate(self, row: AnnotatedTuple, schema: tuple[str, ...]) -> bool:
        raise ExpressionError(
            "IN (SELECT ...) must be flattened before evaluation; "
            "run the query through the session"
        )

    def referenced_columns(self) -> set[str]:
        # Only the outer operand references the outer query's columns;
        # the subquery is self-contained (uncorrelated by definition).
        return self.operand.referenced_columns()

    def __str__(self) -> str:
        return f"{self.operand} IN (<subquery>)"


@dataclass(frozen=True)
class SummaryCount(Expression):
    """``SUMMARY_COUNT('<instance>'[, '<label>'])`` — summary-based value.

    For classifier summaries, the count under ``label`` (or the total when
    ``label`` is None).  For any other summary type, the total number of
    contributing annotations.  Tuples without the instance score 0.
    """

    instance: str
    label: str | None = None

    def evaluate(self, row: AnnotatedTuple, schema: tuple[str, ...]) -> int:
        obj = row.summary(self.instance)
        if obj is None:
            return 0
        if self.label is not None:
            if not isinstance(obj, ClassifierSummary):
                raise ExpressionError(
                    f"SUMMARY_COUNT with a label requires a classifier "
                    f"summary; {self.instance!r} is {obj.type_name}"
                )
            return obj.count(self.label)
        return len(obj.annotation_ids())

    def referenced_columns(self) -> set[str]:
        return set()

    def __str__(self) -> str:
        if self.label is None:
            return f"SUMMARY_COUNT('{self.instance}')"
        return f"SUMMARY_COUNT('{self.instance}', '{self.label}')"


@dataclass(frozen=True)
class GroupCount(Expression):
    """``GROUP_COUNT('<instance>')`` — number of cluster groups."""

    instance: str

    def evaluate(self, row: AnnotatedTuple, schema: tuple[str, ...]) -> int:
        obj = row.summary(self.instance)
        if obj is None:
            return 0
        if not isinstance(obj, ClusterSummary):
            raise ExpressionError(
                f"GROUP_COUNT requires a cluster summary; "
                f"{self.instance!r} is {obj.type_name}"
            )
        return len(obj.groups)

    def referenced_columns(self) -> set[str]:
        return set()

    def __str__(self) -> str:
        return f"GROUP_COUNT('{self.instance}')"


def uses_summaries(expr: Expression) -> bool:
    """True when ``expr`` reads summary objects (SUMMARY_COUNT/GROUP_COUNT).

    Used by the planner to decide whether a predicate or sort key needs
    hydrated rows, and whether an IN-subquery plan can skip hydration.
    """
    if isinstance(expr, (SummaryCount, GroupCount)):
        return True
    if isinstance(expr, (Comparison, Arithmetic)):
        return uses_summaries(expr.left) or uses_summaries(expr.right)
    if isinstance(expr, BooleanOp):
        return any(uses_summaries(op) for op in expr.operands)
    if isinstance(expr, (Not, Like, IsNull, InList, ScalarFunction, InSubquery)):
        return uses_summaries(expr.operand)
    return False


def conjunction(parts: Sequence[Expression]) -> Expression | None:
    """AND together ``parts``; None for empty, the part itself for one."""
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return BooleanOp("and", tuple(parts))
