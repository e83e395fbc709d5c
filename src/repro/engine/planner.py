"""Logical-plan construction, normalization, and physical lowering.

The planner owns the rewrite that makes summary propagation *plan
invariant*.  Theorems 1 and 2 of the engine paper [30] show that equivalent
relational plans produce identical annotation summaries **iff** un-needed
annotations are projected out before any merge operation (join, grouping,
duplicate elimination).  :meth:`Planner.normalize` enforces this by
computing the columns each subtree must supply (top-down) and inserting
projections so no merge ever sees a column — and therefore an annotation —
that the rest of the plan does not need.

The planner also pushes single-relation WHERE conjuncts below joins and
turns join-condition conjuncts into join predicates (enabling the hash
join); these rewrites move whole tuples, never individual annotations, so
they are summary-neutral.

Set the ``normalize_plans`` attribute to False to lower plans as written —
the EXP-QP3 ablation uses this to demonstrate that merge-before-project
plans can disagree; ``push_selections`` switches the selection pushdown
the same way.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from repro.engine import plan as lp
from repro.engine.cost import CatalogStatistics, CostModel, PlannerCounters
from repro.engine.expressions import (
    BooleanOp,
    Expression,
    ExpressionError,
    conjunction,
    resolve_column,
    uses_summaries,
)
from repro.engine.operators import (
    DEFAULT_SCAN_BLOCK_SIZE,
    ComputeOperator,
    DistinctOperator,
    ExecutionStats,
    GroupByOperator,
    HydrateOperator,
    JoinOperator,
    LimitOperator,
    Operator,
    ProjectOperator,
    ScanOperator,
    SelectOperator,
    SortOperator,
    StorageAggregateOperator,
    Tracer,
    UnionOperator,
)
from repro.engine.pushdown import compile_conjuncts
from repro.errors import PlanError

#: Join regions up to this many relations are ordered by exhaustive
#: enumeration; larger regions fall back to a greedy cheapest-next order.
MAX_EXHAUSTIVE_JOIN_LEAVES = 5

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.maintenance.incremental import SummaryManager
    from repro.storage.annotations import AnnotationStore
    from repro.storage.catalog import SummaryCatalog
    from repro.storage.database import Database


class Planner:
    """Turns logical plans into summary-aware physical pipelines."""

    def __init__(
        self,
        database: "Database",
        annotations: "AnnotationStore",
        catalog: "SummaryCatalog",
        manager: "SummaryManager | None" = None,
        scan_block_size: int = DEFAULT_SCAN_BLOCK_SIZE,
        statistics: CatalogStatistics | None = None,
    ) -> None:
        self._db = database
        self._annotations = annotations
        self._catalog = catalog
        self._manager = manager
        #: The Theorems 1-2 ablation switches (see the module docstring).
        self.normalize_plans = True
        self.push_selections = True
        #: Feeds the cost-driven rewrites (join order, hydrate placement,
        #: storage aggregation); without statistics the cost model falls
        #: back to its defaults.
        self._statistics = statistics
        self.counters = PlannerCounters()
        if scan_block_size < 1:
            raise ValueError(
                f"scan_block_size must be >= 1, got {scan_block_size}"
            )
        self.scan_block_size = scan_block_size

    # -- schema inference ---------------------------------------------

    def schema_of(self, node: lp.PlanNode) -> tuple[str, ...]:
        """Qualified output schema of a logical node."""
        if isinstance(node, lp.Scan):
            return tuple(
                f"{node.alias}.{column}" for column in self._db.columns(node.table)
            )
        if isinstance(node, (lp.Select, lp.Sort, lp.Limit, lp.Distinct, lp.Hydrate)):
            return self.schema_of(node.children()[0])
        if isinstance(node, lp.Project):
            child_schema = self.schema_of(node.child)
            return tuple(
                child_schema[resolve_column(child_schema, name)]
                for name in node.columns
            )
        if isinstance(node, lp.Compute):
            return tuple(name for _, name in node.items)
        if isinstance(node, lp.Join):
            return self.schema_of(node.left) + self.schema_of(node.right)
        if isinstance(node, lp.GroupBy):
            child_schema = self.schema_of(node.child)
            keys = tuple(
                child_schema[resolve_column(child_schema, key)] for key in node.keys
            )
            aggs = tuple(
                self._canonical_aggregate_name(aggregate, child_schema)
                for aggregate in node.aggregates
            )
            return keys + aggs
        if isinstance(node, lp.Union):
            return self.schema_of(node.left)
        if isinstance(node, lp.StorageAggregate):
            return node.output_keys + node.output_aggregates
        raise PlanError(f"cannot infer schema of {type(node).__name__}")

    @property
    def cost_model(self) -> CostModel:
        """A cost model over the planner's statistics (cheap to build)."""
        return CostModel(self._statistics, self.schema_of)

    @staticmethod
    def _canonical_aggregate_name(
        aggregate: lp.Aggregate, child_schema: tuple[str, ...]
    ) -> str:
        if aggregate.argument is None:
            return "count(*)"
        index = resolve_column(child_schema, aggregate.argument.name)
        return f"{aggregate.function}({child_schema[index]})"

    # -- selection pushdown -------------------------------------------

    def push_down_selections(self, node: lp.PlanNode) -> lp.PlanNode:
        """Push WHERE conjuncts toward their relations.

        A conjunct referencing only one side of a join moves below it; a
        conjunct spanning both sides becomes (part of) the join predicate.
        Tuple-level only — summary propagation is unaffected.
        """
        if isinstance(node, lp.Select):
            child = self.push_down_selections(node.child)
            conjuncts = _split_conjuncts(node.predicate)
            remaining, child = self._sink_conjuncts(conjuncts, child)
            predicate = conjunction(remaining)
            return lp.Select(child, predicate) if predicate is not None else child
        if isinstance(node, lp.Join):
            return lp.Join(
                self.push_down_selections(node.left),
                self.push_down_selections(node.right),
                node.predicate,
                node.outer,
            )
        rebuilt = _rebuild_with_children(
            node, tuple(self.push_down_selections(c) for c in node.children())
        )
        return rebuilt

    def _sink_conjuncts(
        self, conjuncts: list[Expression], node: lp.PlanNode
    ) -> tuple[list[Expression], lp.PlanNode]:
        """Sink as many conjuncts as possible into ``node``; return the rest."""
        if not conjuncts:
            return [], node
        if isinstance(node, lp.Join):
            if node.outer:
                # Sinking predicates past an outer join changes which left
                # tuples survive NULL-padded; keep the selection above it.
                return conjuncts, node
            left_schema = self.schema_of(node.left)
            right_schema = self.schema_of(node.right)
            left_conjuncts: list[Expression] = []
            right_conjuncts: list[Expression] = []
            join_conjuncts: list[Expression] = []
            remaining: list[Expression] = []
            for conjunct in conjuncts:
                columns = conjunct.referenced_columns()
                if not columns:
                    remaining.append(conjunct)
                elif _all_resolvable(columns, left_schema):
                    left_conjuncts.append(conjunct)
                elif _all_resolvable(columns, right_schema):
                    right_conjuncts.append(conjunct)
                elif _all_resolvable(columns, left_schema + right_schema):
                    join_conjuncts.append(conjunct)
                else:
                    remaining.append(conjunct)
            _, left = self._sink_conjuncts(left_conjuncts, node.left)
            _, right = self._sink_conjuncts(right_conjuncts, node.right)
            predicate_parts = join_conjuncts
            if node.predicate is not None:
                predicate_parts = _split_conjuncts(node.predicate) + join_conjuncts
            return remaining, lp.Join(left, right, conjunction(predicate_parts))
        if isinstance(node, (lp.Select, lp.Scan, lp.Project)):
            predicate = conjunction(conjuncts)
            assert predicate is not None
            return [], lp.Select(node, predicate)
        # Other operators: keep the selection above them.
        return conjuncts, node

    # -- Theorems 1-2 normalization ----------------------------------

    def normalize(self, node: lp.PlanNode) -> lp.PlanNode:
        """Insert projections so merges never see un-needed columns."""
        required = list(self.schema_of(node))
        return self._prune(node, required)

    def _prune(self, node: lp.PlanNode, required: Sequence[str]) -> lp.PlanNode:
        """Rewrite ``node`` to output exactly ``required`` (in order)."""
        schema = self.schema_of(node)
        needed = list(dict.fromkeys(required)) or [schema[0]]

        if isinstance(node, lp.Scan):
            return self._wrap(node, schema, needed)

        if isinstance(node, lp.Project):
            # The projection collapses into the pruning itself.
            return self._prune(node.child, needed)

        if isinstance(node, lp.Compute):
            kept = [
                (expression, name)
                for expression, name in node.items
                if name in set(needed)
            ] or [node.items[0]]
            child_schema = self.schema_of(node.child)
            child_required: list[str] = []
            for expression, _name in kept:
                child_required.extend(
                    _resolve_all(expression.referenced_columns(), child_schema)
                )
            child_required = list(dict.fromkeys(child_required))
            child = self._prune(node.child, child_required or [child_schema[0]])
            computed = lp.Compute(child, tuple(kept))
            return self._wrap(
                computed, [name for _, name in kept], needed
            )

        if isinstance(node, lp.Select):
            child_schema = self.schema_of(node.child)
            child_required = _merge_required(
                needed, _resolve_all(node.predicate.referenced_columns(), child_schema)
            )
            child = self._prune(node.child, child_required)
            return self._wrap(lp.Select(child, node.predicate), child_required, needed)

        if isinstance(node, lp.Sort):
            child_schema = self.schema_of(node.child)
            key_columns: list[str] = []
            for key in node.keys:
                key_columns.extend(
                    _resolve_all(key.referenced_columns(), child_schema)
                )
            child_required = _merge_required(needed, key_columns)
            child = self._prune(node.child, child_required)
            return self._wrap(
                lp.Sort(child, node.keys, node.descending), child_required, needed
            )

        if isinstance(node, lp.Limit):
            return lp.Limit(self._prune(node.child, needed), node.count)

        if isinstance(node, lp.Distinct):
            return lp.Distinct(self._prune(node.child, needed))

        if isinstance(node, lp.Join):
            left_schema = self.schema_of(node.left)
            right_schema = self.schema_of(node.right)
            predicate_columns = (
                _resolve_all(
                    node.predicate.referenced_columns(), left_schema + right_schema
                )
                if node.predicate is not None
                else []
            )
            wanted = _merge_required(needed, predicate_columns)
            left_required = [c for c in wanted if c in set(left_schema)]
            right_required = [c for c in wanted if c in set(right_schema)]
            left = self._prune(node.left, left_required or [left_schema[0]])
            right = self._prune(node.right, right_required or [right_schema[0]])
            joined = lp.Join(left, right, node.predicate, node.outer)
            produced = (left_required or [left_schema[0]]) + (
                right_required or [right_schema[0]]
            )
            return self._wrap(joined, produced, needed)

        if isinstance(node, lp.GroupBy):
            child_schema = self.schema_of(node.child)
            child_required = [
                child_schema[resolve_column(child_schema, key)] for key in node.keys
            ]
            for aggregate in node.aggregates:
                if aggregate.argument is not None:
                    child_required.append(
                        child_schema[
                            resolve_column(child_schema, aggregate.argument.name)
                        ]
                    )
            child_required = list(dict.fromkeys(child_required))
            child = self._prune(node.child, child_required or [child_schema[0]])
            grouped = lp.GroupBy(child, node.keys, node.aggregates, node.having)
            return self._wrap(grouped, self.schema_of(grouped), needed)

        if isinstance(node, lp.Union):
            left_schema = self.schema_of(node.left)
            right_schema = self.schema_of(node.right)
            positions = [left_schema.index(name) for name in needed]
            left = self._prune(node.left, [left_schema[i] for i in positions])
            right = self._prune(node.right, [right_schema[i] for i in positions])
            union: lp.PlanNode = lp.Union(left, right, node.distinct)
            if node.distinct:
                union = lp.Distinct(lp.Union(left, right, False))
            return union

        raise PlanError(f"cannot normalize {type(node).__name__}")

    def _wrap(
        self,
        node: lp.PlanNode,
        produced: Sequence[str],
        needed: Sequence[str],
    ) -> lp.PlanNode:
        """Project ``node`` down to ``needed`` unless it already matches."""
        if tuple(produced) == tuple(needed):
            return node
        return lp.Project(node, tuple(needed))

    # -- cost-driven join ordering ------------------------------------

    def reorder_joins(self, node: lp.PlanNode) -> lp.PlanNode:
        """Pick the cheapest join order for each inner-join region.

        A *region* is a maximal tree of non-outer joins; its leaves and
        the pooled join-predicate conjuncts are order-independent, so
        any left-deep chain over the same leaves is tuple-equivalent,
        and (post-normalization, Theorems 1–2) summary-equivalent too.
        Outer joins are barriers — their operand order is semantic —
        but their subtrees still reorder internally.  The original tree
        always competes as a candidate, so a region is only rewritten
        when the model prices an alternative strictly cheaper.
        """
        if isinstance(node, lp.Join) and not node.outer:
            leaves, conjuncts = self._collect_join_region(node)
            leaves = [self.reorder_joins(leaf) for leaf in leaves]
            return self._order_join_region(node, leaves, conjuncts)
        return _rebuild_with_children(
            node, tuple(self.reorder_joins(c) for c in node.children())
        )

    def _collect_join_region(
        self, node: lp.PlanNode
    ) -> tuple[list[lp.PlanNode], list[Expression]]:
        """Flatten a region into its leaf subtrees + pooled conjuncts."""
        leaves: list[lp.PlanNode] = []
        conjuncts: list[Expression] = []

        def visit(current: lp.PlanNode) -> None:
            if isinstance(current, lp.Join) and not current.outer:
                if current.predicate is not None:
                    conjuncts.extend(_split_conjuncts(current.predicate))
                visit(current.left)
                visit(current.right)
            else:
                leaves.append(current)

        visit(node)
        return leaves, conjuncts

    def _order_join_region(
        self,
        original: lp.PlanNode,
        leaves: list[lp.PlanNode],
        conjuncts: list[Expression],
    ) -> lp.PlanNode:
        model = self.cost_model
        original_schema = self.schema_of(original)
        best = _rebuild_region(original, leaves)
        best_cost = model.estimate(best).cost
        orders = self._candidate_orders(leaves, conjuncts, model)
        self.counters.record("join_orders_considered", len(orders))
        rewritten = False
        for order in orders:
            candidate = self._build_join_chain(leaves, order, conjuncts)
            if candidate is None:
                continue
            cost = model.estimate(candidate).cost
            if cost < best_cost:
                best, best_cost, rewritten = candidate, cost, True
        if not rewritten:
            return best
        self.counters.record("join_orders_rewritten")
        # Restore the original column order; normalization collapses
        # this projection into its own pruning.
        return lp.Project(best, original_schema)

    def _candidate_orders(
        self,
        leaves: list[lp.PlanNode],
        conjuncts: list[Expression],
        model: CostModel,
    ) -> list[tuple[int, ...]]:
        indices = tuple(range(len(leaves)))
        if len(leaves) < 2:
            return []
        if len(leaves) <= MAX_EXHAUSTIVE_JOIN_LEAVES:
            return list(itertools.permutations(indices))
        return [indices, self._greedy_order(leaves, conjuncts, model)]

    def _greedy_order(
        self,
        leaves: list[lp.PlanNode],
        conjuncts: list[Expression],
        model: CostModel,
    ) -> tuple[int, ...]:
        """Cheapest-next heuristic for regions too wide to enumerate."""
        remaining = list(range(len(leaves)))
        start = min(remaining, key=lambda i: model.estimate(leaves[i]).rows)
        order = [start]
        remaining.remove(start)
        while remaining:
            scored: list[tuple[float, int]] = []
            for candidate in remaining:
                chain = self._build_join_chain(
                    leaves, tuple(order + [candidate]), conjuncts
                )
                cost = (
                    model.estimate(chain).cost
                    if chain is not None
                    else float("inf")
                )
                scored.append((cost, candidate))
            _, chosen = min(scored)
            order.append(chosen)
            remaining.remove(chosen)
        return tuple(order)

    def _build_join_chain(
        self,
        leaves: list[lp.PlanNode],
        order: tuple[int, ...],
        conjuncts: list[Expression],
    ) -> lp.PlanNode | None:
        """Left-deep chain over ``leaves`` in ``order``.

        Each pooled conjunct attaches to the first join where it fully
        resolves; joins with no applicable conjunct become crosses (the
        cost model prices them accordingly).  When building a prefix
        (greedy scoring), unplaced conjuncts are simply left off.
        """
        current = leaves[order[0]]
        schema = self.schema_of(current)
        remaining = list(range(len(conjuncts)))
        for index in order[1:]:
            leaf = leaves[index]
            combined = schema + self.schema_of(leaf)
            applicable = [
                i
                for i in remaining
                if _all_resolvable(
                    conjuncts[i].referenced_columns(), combined
                )
            ]
            remaining = [i for i in remaining if i not in applicable]
            predicate = conjunction([conjuncts[i] for i in applicable])
            current = lp.Join(current, leaf, predicate)
            schema = combined
        if remaining and len(order) == len(leaves):
            # A conjunct that resolves nowhere (shouldn't happen for a
            # well-formed region) keeps its tuple semantics as a
            # selection above the chain.
            predicate = conjunction([conjuncts[i] for i in remaining])
            assert predicate is not None
            current = lp.Select(current, predicate)
        return current

    # -- cost-driven aggregation pushdown -----------------------------

    def push_down_aggregates(self, node: lp.PlanNode) -> lp.PlanNode:
        """Lower GROUP BY / DISTINCT over summary-free scans to storage.

        Gated three ways to preserve Theorem 1–2 equivalence and result
        bytes: the scanned table must be provably summary-free (no
        linked instances, no attachments — grouping then merges nothing),
        the backend single-shard (GROUP_CONCAT/AVG don't merge across
        partial aggregates), and the lowering strictly cheaper under the
        cost model.
        """
        rebuilt = _rebuild_with_children(
            node, tuple(self.push_down_aggregates(c) for c in node.children())
        )
        if isinstance(rebuilt, lp.GroupBy):
            lowered = self._lower_aggregate(
                rebuilt.child, rebuilt.keys, rebuilt.aggregates, distinct=False
            )
            if lowered is not None and self._cheaper(lowered, rebuilt):
                self.counters.record("aggregates_pushed")
                if rebuilt.having is not None:
                    return lp.Select(lowered, rebuilt.having)
                return lowered
        if isinstance(rebuilt, lp.Distinct):
            keys = self.schema_of(rebuilt.child)
            lowered = self._lower_aggregate(
                rebuilt.child, keys, (), distinct=True
            )
            if lowered is not None and self._cheaper(lowered, rebuilt):
                self.counters.record("distincts_pushed")
                return lowered
        return rebuilt

    def _cheaper(self, candidate: lp.PlanNode, baseline: lp.PlanNode) -> bool:
        model = self.cost_model
        return model.estimate(candidate).cost < model.estimate(baseline).cost

    def _lower_aggregate(
        self,
        child: lp.PlanNode,
        keys: Sequence[str],
        aggregates: Sequence[lp.Aggregate],
        distinct: bool,
    ) -> lp.StorageAggregate | None:
        """A StorageAggregate equivalent to grouping ``child``, or None."""
        if self._db.shard_count != 1:
            return None
        scan = _scan_under_projects(child)
        if scan is None or scan.storage_limit is not None:
            return None
        if not self._summary_free(scan):
            return None
        child_schema = self.schema_of(child)
        table_columns = set(self._db.columns(scan.table))
        key_columns: list[str] = []
        output_keys: list[str] = []
        for key in keys:
            column = self._storage_column(
                key, child_schema, scan, table_columns
            )
            if column is None:
                return None
            key_columns.append(column[0])
            output_keys.append(column[1])
        aggregate_pairs: list[tuple[str, str | None]] = []
        output_aggregates: list[str] = []
        for aggregate in aggregates:
            if aggregate.argument is None:
                aggregate_pairs.append(("count", None))
                output_aggregates.append("count(*)")
                continue
            column = self._storage_column(
                aggregate.argument.name, child_schema, scan, table_columns
            )
            if column is None:
                return None
            aggregate_pairs.append((aggregate.function, column[0]))
            output_aggregates.append(f"{aggregate.function}({column[1]})")
        return lp.StorageAggregate(
            scan.table,
            scan.alias,
            tuple(key_columns),
            tuple(output_keys),
            tuple(aggregate_pairs),
            tuple(output_aggregates),
            scan.storage_filter,
            distinct,
        )

    def _storage_column(
        self,
        name: str,
        child_schema: tuple[str, ...],
        scan: lp.Scan,
        table_columns: set[str],
    ) -> tuple[str, str] | None:
        """Map a referenced column to ``(storage_name, qualified_name)``."""
        try:
            qualified = child_schema[resolve_column(child_schema, name)]
        except ExpressionError:
            return None
        alias, _, column = qualified.rpartition(".")
        if alias != scan.alias or column not in table_columns:
            return None
        return column, qualified

    def _summary_free(self, scan: lp.Scan) -> bool:
        """True when hydrating ``scan`` would contribute nothing.

        WITH NO SUMMARIES scans skip hydration outright; otherwise the
        table must have neither linked summary instances nor annotation
        attachments — then grouped tuples carry no summaries and no
        attachments, and merge order cannot matter.
        """
        if scan.instances == ():
            return True
        if self._catalog.instances_for_table(scan.table):
            return False
        return not self._annotations.table_has_attachments(scan.table)

    # -- storage pushdown ---------------------------------------------

    def push_into_storage(self, node: lp.PlanNode) -> lp.PlanNode:
        """Compile sargable conjuncts into the scan's storage filter.

        A selection sitting above a scan (possibly through normalization's
        projections) has its sargable conjuncts — comparisons, IN lists,
        NULL tests over data columns with literal operands (see
        :mod:`repro.engine.pushdown`) — compiled to a parameterized SQL
        WHERE executed inside :meth:`Database.scan`.  Non-sargable
        conjuncts stay behind as an in-memory residual selection.
        """
        if isinstance(node, lp.Select):
            child = self.push_into_storage(node.child)
            scan = _scan_under_projects(child)
            if scan is not None:
                table_columns = self._db.columns(scan.table)
                scan_schema = tuple(
                    f"{scan.alias}.{column}" for column in table_columns
                )
                pushed, residual = compile_conjuncts(
                    _split_conjuncts(node.predicate), scan_schema, table_columns
                )
                if pushed is not None:
                    merged = (
                        scan.storage_filter.merge(pushed)
                        if scan.storage_filter is not None
                        else pushed
                    )
                    child = _replace_scan(
                        child, dataclasses.replace(scan, storage_filter=merged)
                    )
                    predicate = conjunction(residual)
                    if predicate is None:
                        return child
                    return lp.Select(child, predicate)
            return lp.Select(child, node.predicate)
        rebuilt = _rebuild_with_children(
            node, tuple(self.push_into_storage(c) for c in node.children())
        )
        # A fully-pushed selection can leave two adjacent projections
        # (normalization put one on each side of it); compose them.
        if isinstance(rebuilt, lp.Project) and isinstance(rebuilt.child, lp.Project):
            inner = rebuilt.child
            inner_schema = self.schema_of(inner)
            composed = tuple(
                inner.columns[resolve_column(inner_schema, name)]
                for name in rebuilt.columns
            )
            return lp.Project(inner.child, composed)
        return rebuilt

    def push_down_limits(self, node: lp.PlanNode) -> lp.PlanNode:
        """Push LIMIT into the storage statement where order-safe.

        A limit descends through row-count-preserving, order-preserving
        nodes (Project, Compute, nested Limit) onto the scan; Sort,
        residual Select, Distinct, GroupBy, and Join block it.  The
        in-memory Limit stays as the authoritative cap.
        """
        node = _rebuild_with_children(
            node, tuple(self.push_down_limits(c) for c in node.children())
        )
        if isinstance(node, lp.Limit):
            sunk = self._sink_limit(node.child, node.count)
            if sunk is not None:
                return lp.Limit(sunk, node.count)
        return node

    def _sink_limit(self, node: lp.PlanNode, count: int) -> lp.PlanNode | None:
        if isinstance(node, lp.Scan):
            limit = (
                count
                if node.storage_limit is None
                else min(node.storage_limit, count)
            )
            return dataclasses.replace(node, storage_limit=limit)
        if isinstance(node, (lp.Project, lp.Compute, lp.Limit)):
            child = self._sink_limit(node.children()[0], count)
            if child is None:
                return None
            return _rebuild_with_children(node, (child,))
        return None

    # -- lazy hydration -----------------------------------------------

    def insert_hydration(self, node: lp.PlanNode) -> lp.PlanNode:
        """Place Hydrate operators over every scan's surviving rows.

        Each scan's pass-through chain (residual selection, projections,
        limit, value-only sort) runs on plain tuples and Hydrate sits at
        the chain's top — directly below the first operator that
        consumes summaries (compute/join/group-by/distinct/union/output)
        — so only surviving rows are hydrated.
        """
        rewritten, scan = self._hydrate_chain(node)
        if scan is not None:
            return self._wrap_hydrate(rewritten, scan)
        return rewritten

    @staticmethod
    def _wrap_hydrate(node: lp.PlanNode, scan: lp.Scan) -> lp.PlanNode:
        if scan.instances == ():
            # WITH NO SUMMARIES: plain relational processing, nothing to
            # hydrate (no attachment bookkeeping either).
            return node
        return lp.Hydrate(node, scan.table, scan.alias, scan.instances)

    def _hydrate_chain(
        self, node: lp.PlanNode
    ) -> tuple[lp.PlanNode, lp.Scan | None]:
        """Rewrite ``node``; the scan is non-None while ``node`` heads an
        un-hydrated pass-through chain whose caller must hydrate."""
        if isinstance(node, lp.Scan):
            return node, node
        if isinstance(node, lp.Select) and not uses_summaries(node.predicate):
            child, scan = self._hydrate_chain(node.child)
            return lp.Select(child, node.predicate), scan
        if isinstance(node, lp.Project):
            child, scan = self._hydrate_chain(node.child)
            return lp.Project(child, node.columns), scan
        if isinstance(node, lp.Limit):
            child, scan = self._hydrate_chain(node.child)
            return lp.Limit(child, node.count), scan
        if isinstance(node, lp.Sort) and not any(
            uses_summaries(key) for key in node.keys
        ):
            child, scan = self._hydrate_chain(node.child)
            return lp.Sort(child, node.keys, node.descending), scan
        if isinstance(node, lp.Select) and self.normalize_plans:
            split = self._split_residual_select(node)
            if split is not None:
                return split, None
        # Barrier (merge or summary-consuming node): hydrate each child
        # subtree at its own top.
        children = tuple(self.insert_hydration(c) for c in node.children())
        return _rebuild_with_children(node, children), None

    def _split_residual_select(self, node: lp.Select) -> lp.PlanNode | None:
        """Cost-driven hydrate placement for mixed residual selections.

        A selection mixing value-only and summary-function conjuncts is
        a hydration barrier under the fixed rules: every row below it
        hydrates.  Splitting it evaluates the value-only conjuncts on
        plain tuples first and hydrates only the survivors — identical
        rows, identical order (Select preserves order), identical
        summaries (hydration commutes with value-only filtering) — so
        the flip is taken whenever the model prices the saved hydration
        above zero.
        """
        conjuncts = _split_conjuncts(node.predicate)
        value_conjuncts = [c for c in conjuncts if not uses_summaries(c)]
        summary_conjuncts = [c for c in conjuncts if uses_summaries(c)]
        if not value_conjuncts or not summary_conjuncts:
            return None
        value_predicate = conjunction(value_conjuncts)
        summary_predicate = conjunction(summary_conjuncts)
        assert value_predicate is not None and summary_predicate is not None
        inner = lp.Select(node.child, value_predicate)
        rewritten, scan = self._hydrate_chain(inner)
        if scan is None:
            return None  # no chain below: the plain barrier is as good
        model = self.cost_model
        child_rows = model.estimate(node.child).rows
        survivors = model.filter_selectivity(value_predicate, node.child)
        saved = (
            child_rows
            * (1.0 - survivors)
            * model.hydration_cost_per_row(scan.table, scan.instances)
        )
        if saved <= 0.0:
            return None
        self.counters.record("hydrate_placements_flipped")
        hydrated = self._wrap_hydrate(rewritten, scan)
        return lp.Select(hydrated, summary_predicate)

    # -- physical lowering -----------------------------------------------

    def prepare(self, node: lp.PlanNode, hydrate: bool = True) -> lp.PlanNode:
        """Apply the configured rewrites to a logical plan.

        ``hydrate=False`` skips hydration entirely — used for plans whose
        consumers only read values (uncorrelated IN-subqueries with no
        summary functions).
        """
        if self.push_selections:
            node = self.push_down_selections(node)
        # Cost rewrites are gated on normalization: Theorems 1-2 make
        # the alternatives summary-equivalent only with project-out
        # before merge in force.
        if self.normalize_plans:
            node = self.reorder_joins(node)
            node = self.normalize(node)
        node = self.push_into_storage(node)
        node = self.push_down_limits(node)
        if self.normalize_plans:
            node = self.push_down_aggregates(node)
        if hydrate:
            node = self.insert_hydration(node)
        self.counters.record("plans_costed")
        return node

    def physical(
        self,
        node: lp.PlanNode,
        tracer: Tracer | None = None,
        stats: ExecutionStats | None = None,
    ) -> Operator:
        """Lower a (prepared) logical plan to a physical operator tree."""
        if isinstance(node, lp.Scan):
            return ScanOperator(
                self._db,
                node.table,
                node.alias,
                tracer=tracer,
                storage_filter=node.storage_filter,
                storage_limit=node.storage_limit,
                stats=stats,
            )
        if isinstance(node, lp.Hydrate):
            return HydrateOperator(
                self.physical(node.child, tracer, stats),
                self._annotations,
                self._catalog,
                node.table,
                node.alias,
                manager=self._manager,
                instances=node.instances,
                tracer=tracer,
                block_size=self.scan_block_size,
                stats=stats,
            )
        if isinstance(node, lp.Select):
            return SelectOperator(
                self.physical(node.child, tracer, stats),
                node.predicate,
                tracer=tracer,
            )
        if isinstance(node, lp.Project):
            return ProjectOperator(
                self.physical(node.child, tracer, stats),
                node.columns,
                tracer=tracer,
            )
        if isinstance(node, lp.Compute):
            return ComputeOperator(
                self.physical(node.child, tracer, stats), node.items, tracer=tracer
            )
        if isinstance(node, lp.Join):
            return JoinOperator(
                self.physical(node.left, tracer, stats),
                self.physical(node.right, tracer, stats),
                node.predicate,
                outer=node.outer,
                tracer=tracer,
            )
        if isinstance(node, lp.GroupBy):
            return GroupByOperator(
                self.physical(node.child, tracer, stats),
                node.keys,
                node.aggregates,
                having=node.having,
                tracer=tracer,
            )
        if isinstance(node, lp.Distinct):
            return DistinctOperator(
                self.physical(node.child, tracer, stats), tracer=tracer
            )
        if isinstance(node, lp.StorageAggregate):
            return StorageAggregateOperator(
                self._db,
                node.table,
                node.alias,
                node.key_columns,
                node.output_keys,
                node.aggregates,
                node.output_aggregates,
                storage_filter=node.storage_filter,
                distinct=node.distinct,
                tracer=tracer,
                stats=stats,
            )
        if isinstance(node, lp.Sort):
            return SortOperator(
                self.physical(node.child, tracer, stats),
                node.keys,
                node.descending,
                tracer=tracer,
            )
        if isinstance(node, lp.Limit):
            return LimitOperator(
                self.physical(node.child, tracer, stats), node.count, tracer=tracer
            )
        if isinstance(node, lp.Union):
            operator: Operator = UnionOperator(
                self.physical(node.left, tracer, stats),
                self.physical(node.right, tracer, stats),
                tracer=tracer,
            )
            if node.distinct:
                operator = DistinctOperator(operator, tracer=tracer)
            return operator
        raise PlanError(f"cannot lower {type(node).__name__}")


def _split_conjuncts(predicate: Expression) -> list[Expression]:
    """Flatten nested top-level ANDs into a conjunct list."""
    if isinstance(predicate, BooleanOp) and predicate.op == "and":
        conjuncts: list[Expression] = []
        for operand in predicate.operands:
            conjuncts.extend(_split_conjuncts(operand))
        return conjuncts
    return [predicate]


def _all_resolvable(columns: set[str], schema: tuple[str, ...]) -> bool:
    """True when every referenced column resolves against ``schema``."""
    for name in columns:
        try:
            resolve_column(schema, name)
        except ExpressionError:
            return False
    return True


def _resolve_all(columns: set[str], schema: tuple[str, ...]) -> list[str]:
    """Resolve referenced names to qualified schema columns, sorted."""
    return sorted(schema[resolve_column(schema, name)] for name in columns)


def _merge_required(base: Sequence[str], extra: Sequence[str]) -> list[str]:
    """Union two required-column lists, keeping first-seen order."""
    return list(dict.fromkeys([*base, *extra]))


def _rebuild_region(
    node: lp.PlanNode, leaves: Sequence[lp.PlanNode]
) -> lp.PlanNode:
    """Rebuild a join region's original shape over (rewritten) leaves.

    ``leaves`` must be in the region's visit order (the order
    ``_collect_join_region`` produced them in).
    """
    iterator = iter(leaves)

    def rebuild(current: lp.PlanNode) -> lp.PlanNode:
        if isinstance(current, lp.Join) and not current.outer:
            left = rebuild(current.left)
            right = rebuild(current.right)
            return lp.Join(left, right, current.predicate, current.outer)
        return next(iterator)

    return rebuild(node)


def _scan_under_projects(node: lp.PlanNode) -> lp.Scan | None:
    """The scan beneath a (possibly empty) chain of projections, if any.

    Normalization inserts projections between a selection and its scan;
    row identity and column values are unchanged through them, so a
    filter compiled against the scan's full schema applies unmodified.
    """
    while isinstance(node, lp.Project):
        node = node.child
    return node if isinstance(node, lp.Scan) else None


def _replace_scan(node: lp.PlanNode, scan: lp.Scan) -> lp.PlanNode:
    """Swap the scan at the bottom of a projection chain for ``scan``."""
    if isinstance(node, lp.Scan):
        return scan
    assert isinstance(node, lp.Project)
    return lp.Project(_replace_scan(node.child, scan), node.columns)


def _node_expressions(node: lp.PlanNode) -> Iterator[Expression]:
    """Every expression a logical node evaluates."""
    if isinstance(node, lp.Select):
        yield node.predicate
    elif isinstance(node, lp.Compute):
        for expression, _name in node.items:
            yield expression
    elif isinstance(node, lp.Join):
        if node.predicate is not None:
            yield node.predicate
    elif isinstance(node, lp.GroupBy):
        if node.having is not None:
            yield node.having
    elif isinstance(node, lp.Sort):
        yield from node.keys


def plan_uses_summaries(node: lp.PlanNode) -> bool:
    """True when any expression in the plan reads summary objects."""
    return any(
        uses_summaries(expression)
        for n in lp.walk(node)
        for expression in _node_expressions(n)
    )


def _rebuild_with_children(
    node: lp.PlanNode, children: tuple[lp.PlanNode, ...]
) -> lp.PlanNode:
    """Clone a logical node with replaced children."""
    if isinstance(node, lp.Scan):
        return node
    if isinstance(node, lp.Hydrate):
        return lp.Hydrate(children[0], node.table, node.alias, node.instances)
    if isinstance(node, lp.Select):
        return lp.Select(children[0], node.predicate)
    if isinstance(node, lp.Project):
        return lp.Project(children[0], node.columns)
    if isinstance(node, lp.Compute):
        return lp.Compute(children[0], node.items)
    if isinstance(node, lp.Join):
        return lp.Join(children[0], children[1], node.predicate, node.outer)
    if isinstance(node, lp.GroupBy):
        return lp.GroupBy(children[0], node.keys, node.aggregates, node.having)
    if isinstance(node, lp.Distinct):
        return lp.Distinct(children[0])
    if isinstance(node, lp.Sort):
        return lp.Sort(children[0], node.keys, node.descending)
    if isinstance(node, lp.Limit):
        return lp.Limit(children[0], node.count)
    if isinstance(node, lp.Union):
        return lp.Union(children[0], children[1], node.distinct)
    if isinstance(node, lp.StorageAggregate):
        return node
    raise PlanError(f"cannot rebuild {type(node).__name__}")
