"""Logical query plans.

A logical plan is a tree of immutable nodes produced by the SQL parser (or
built programmatically) and consumed by the planner, which lowers it to a
physical operator pipeline.  Nodes describe *what* to compute; all
summary-propagation semantics live in the physical operators.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

from repro.engine.expressions import Column, Expression
from repro.errors import PlanError

#: Aggregate function names the engine supports.
AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class Aggregate:
    """One aggregate in a GROUP BY select list, e.g. ``SUM(r.b)``.

    ``argument`` is None only for ``COUNT(*)``.
    """

    function: str
    argument: Column | None = None

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise PlanError(f"unknown aggregate function {self.function!r}")
        if self.argument is None and self.function != "count":
            raise PlanError(f"{self.function.upper()}(*) is not supported")

    @property
    def output_name(self) -> str:
        """Column name of the aggregate in the output schema."""
        inner = self.argument.name if self.argument is not None else "*"
        return f"{self.function}({inner})"

    def __str__(self) -> str:
        return self.output_name


class PlanNode(abc.ABC):
    """Base class of logical plan nodes."""

    @abc.abstractmethod
    def children(self) -> tuple["PlanNode", ...]:
        """Child nodes, left to right."""

    @abc.abstractmethod
    def describe(self) -> str:
        """One-line description used in plan renderings."""

    def render(self, indent: int = 0) -> str:
        """Multi-line indented tree rendering."""
        lines = ["  " * indent + self.describe()]
        for child in self.children():
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


@dataclass(frozen=True)
class Scan(PlanNode):
    """Scan a base table under an alias; columns come out qualified.

    ``instances`` restricts which linked summary instances are attached:
    ``None`` means all of them (the default), an empty tuple means none
    (annotation-free processing), and a non-empty tuple names the subset
    to carry — the WITH SUMMARIES clause of the dialect.
    """

    table: str
    alias: str
    instances: tuple[str, ...] | None = None
    #: Sargable predicate compiled to storage SQL (a StorageFilter from
    #: repro.engine.pushdown); typed loosely to avoid an import cycle.
    storage_filter: Any = None
    #: Row cap executed inside the storage statement (LIMIT pushdown).
    storage_limit: int | None = None

    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def describe(self) -> str:
        base = (
            f"Scan({self.table})"
            if self.alias == self.table
            else f"Scan({self.table} AS {self.alias})"
        )
        if self.instances is not None:
            if not self.instances:
                base = f"{base} [no summaries]"
            else:
                base = f"{base} [summaries: {', '.join(self.instances)}]"
        if self.storage_filter is not None:
            base = f"{base} [pushed: {self.storage_filter}]"
        if self.storage_limit is not None:
            base = f"{base} [limit: {self.storage_limit}]"
        return base


@dataclass(frozen=True)
class Hydrate(PlanNode):
    """Attach summary objects and annotation markers to surviving rows.

    Inserted by the planner above a scan's residual selection — *late
    materialization*: only rows that survive filtering (and a pushed
    LIMIT) pay the summary-deserialization tax.  ``table``/``alias``/
    ``instances`` mirror the :class:`Scan` this node serves.
    """

    child: PlanNode
    table: str
    alias: str
    instances: tuple[str, ...] | None = None

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        base = f"Hydrate({self.alias})"
        if self.instances is not None:
            if not self.instances:
                base = f"{base} [no summaries]"
            else:
                base = f"{base} [summaries: {', '.join(self.instances)}]"
        return base


@dataclass(frozen=True)
class Select(PlanNode):
    """Filter rows by a predicate; summaries pass through unchanged."""

    child: PlanNode
    predicate: Expression

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Select({self.predicate})"


@dataclass(frozen=True)
class Project(PlanNode):
    """Keep only the named columns, removing dropped annotations' effects."""

    child: PlanNode
    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise PlanError("projection must keep at least one column")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Project({', '.join(self.columns)})"


@dataclass(frozen=True)
class Compute(PlanNode):
    """Expression projection: each output column is a computed expression.

    The summary semantics generalize :class:`Project`: an annotation
    survives on every output column whose expression references at least
    one of the annotation's input columns; annotations referenced by no
    output lose their effect.
    """

    child: PlanNode
    items: tuple[tuple[Expression, str], ...]  # (expression, output name)

    def __post_init__(self) -> None:
        if not self.items:
            raise PlanError("Compute needs at least one output expression")
        names = [name for _, name in self.items]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate output columns: {names}")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        rendered = ", ".join(
            f"{expression} AS {name}" if str(expression) != name else name
            for expression, name in self.items
        )
        return f"Compute({rendered})"


@dataclass(frozen=True)
class Join(PlanNode):
    """Join; counterpart summary objects are merged dedup-aware.

    With ``outer`` set, unmatched left tuples are emitted NULL-padded on
    the right, keeping their own summaries untouched (a left outer join).
    """

    left: PlanNode
    right: PlanNode
    predicate: Expression | None = None
    outer: bool = False

    def __post_init__(self) -> None:
        if self.outer and self.predicate is None:
            raise PlanError("a LEFT OUTER JOIN requires an ON predicate")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        kind = "LeftOuterJoin" if self.outer else "Join"
        if self.predicate is None:
            return f"{kind}(cross)"
        return f"{kind}({self.predicate})"


@dataclass(frozen=True)
class GroupBy(PlanNode):
    """Group by key columns; group members' summaries are merged."""

    child: PlanNode
    keys: tuple[str, ...]
    aggregates: tuple[Aggregate, ...] = ()
    having: Expression | None = None

    def __post_init__(self) -> None:
        if not self.keys and not self.aggregates:
            raise PlanError("GROUP BY needs keys or aggregates")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        parts = [f"keys=[{', '.join(self.keys)}]"]
        if self.aggregates:
            parts.append(f"aggs=[{', '.join(map(str, self.aggregates))}]")
        if self.having is not None:
            parts.append(f"having={self.having}")
        return f"GroupBy({'; '.join(parts)})"


@dataclass(frozen=True)
class Distinct(PlanNode):
    """Duplicate elimination; duplicates' summaries are merged."""

    child: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return "Distinct"


@dataclass(frozen=True)
class StorageAggregate(PlanNode):
    """A GROUP BY (or DISTINCT) executed entirely inside storage.

    The planner lowers ``GroupBy``/``Distinct`` over a bare scan to this
    leaf whenever the scanned table is provably summary-free (no linked
    instances, no attachments — so merging summaries during grouping is
    a no-op), the scan has no storage LIMIT and the backend is
    single-shard.  SQLite then does the
    grouping in C and only group rows cross into Python.

    ``key_columns``/``aggregates`` use the table's *storage* column
    names; ``output_keys``/``output_aggregates`` carry the engine-side
    schema the replaced node would have produced, so downstream
    resolution (HAVING, Sort over ``count(*)``) is unchanged.
    ``distinct`` marks the Distinct lowering (every output column is a
    key) purely for display.
    """

    table: str
    alias: str
    key_columns: tuple[str, ...]
    output_keys: tuple[str, ...]
    aggregates: tuple[tuple[str, str | None], ...]
    output_aggregates: tuple[str, ...]
    #: Sargable predicate inherited from the replaced Scan, same loose
    #: typing as :attr:`Scan.storage_filter`.
    storage_filter: Any = None
    distinct: bool = False

    def __post_init__(self) -> None:
        if not self.key_columns and not self.aggregates:
            raise PlanError("StorageAggregate needs keys or aggregates")
        if len(self.key_columns) != len(self.output_keys):
            raise PlanError("key columns and output keys must align")
        if len(self.aggregates) != len(self.output_aggregates):
            raise PlanError("aggregates and output names must align")

    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def describe(self) -> str:
        kind = "distinct" if self.distinct else "group"
        parts = [f"{kind} {self.table}"]
        if self.alias != self.table:
            parts[0] = f"{kind} {self.table} AS {self.alias}"
        if self.key_columns:
            parts.append(f"keys=[{', '.join(self.key_columns)}]")
        if self.aggregates:
            rendered = ", ".join(
                f"{function}({column if column is not None else '*'})"
                for function, column in self.aggregates
            )
            parts.append(f"aggs=[{rendered}]")
        if self.storage_filter is not None:
            parts.append(f"pushed: {self.storage_filter}")
        return f"StorageAggregate({'; '.join(parts)})"


@dataclass(frozen=True)
class Sort(PlanNode):
    """Order rows by expressions; summaries pass through unchanged."""

    child: PlanNode
    keys: tuple[Expression, ...]
    descending: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if not self.keys:
            raise PlanError("ORDER BY needs at least one key")
        if self.descending and len(self.descending) != len(self.keys):
            raise PlanError("descending flags must match sort keys")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        flags = self.descending or tuple(False for _ in self.keys)
        rendered = ", ".join(
            f"{key}{' DESC' if desc else ''}" for key, desc in zip(self.keys, flags)
        )
        return f"Sort({rendered})"


@dataclass(frozen=True)
class Limit(PlanNode):
    """Keep the first ``count`` rows."""

    child: PlanNode
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise PlanError(f"LIMIT must be non-negative, got {self.count}")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Limit({self.count})"


@dataclass(frozen=True)
class Union(PlanNode):
    """Bag union of two schema-compatible inputs."""

    left: PlanNode
    right: PlanNode
    distinct: bool = False

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        return "Union(distinct)" if self.distinct else "Union(all)"


def walk(node: PlanNode):
    """Pre-order traversal of a plan tree."""
    yield node
    for child in node.children():
        yield from walk(child)


def plan_cost_estimate(node: PlanNode) -> int:
    """Crude structural complexity estimate for the RCO cache policy.

    Joins and grouping dominate real cost, so they weigh more than
    streaming operators.  Absolute values are meaningless; only relative
    ordering matters to the replacement policy.
    """
    weights = {
        Scan: 1,
        Hydrate: 1,
        Select: 1,
        Project: 1,
        Sort: 2,
        Limit: 0,
        Distinct: 3,
        StorageAggregate: 2,
        Union: 2,
        GroupBy: 4,
        Join: 5,
    }
    return sum(weights.get(type(n), 1) for n in walk(node))
