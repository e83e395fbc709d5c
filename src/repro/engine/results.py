"""Query results and the QID registry.

Every executed query gets a unique **QID**, because zoom-in commands
reference results by QID ("ZoomIn Reference QID = 101 ...").  The
materialized result lives only in the zoom-in cache
(:class:`~repro.zoomin.tiered.TieredZoomInCache`), where results compete
for a byte budget under RCO.  The :class:`ResultRegistry` keeps just each
qid's prepared plan and SQL, so a qid the cache does not hold is
answered by re-executing its plan — exactly the cost the cache exists to
avoid.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.concurrency import make_lock
from repro.errors import UnknownQueryIdError
from repro.model.tuple import AnnotatedTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import PlanNode


@dataclass
class QueryResult:
    """A materialized query result with its annotation summaries.

    Attributes
    ----------
    qid:
        Unique id assigned at execution time; zoom-in references it.
    columns:
        Output schema (qualified column names).
    tuples:
        The result tuples, each carrying its summary objects.
    sql:
        The originating SQL text ("" for programmatic plans).
    plan_text:
        Rendering of the executed physical plan.
    plan_cost:
        Structural cost estimate of the plan (RCO's complexity factor).
    cost_estimate:
        The cost model's abstract-unit estimate of re-running the plan
        (:class:`~repro.engine.cost.CostModel`); 0.0 when the session
        did not price the plan.  Only traces read it: planning, cache
        admission and RCO ranking never do.
    elapsed_seconds:
        Wall-clock execution time.
    trace:
        The :class:`~repro.engine.operators.Tracer` holding per-operator
        intermediate tuples when the query ran with tracing enabled.
    stats:
        The :class:`~repro.engine.operators.ExecutionStats` counters
        (``rows_scanned``, ``rows_hydrated``, ``hydration_blocks``)
        populated during execution; None for deserialized or
        programmatically assembled results.
    """

    qid: int
    columns: tuple[str, ...]
    tuples: list[AnnotatedTuple]
    sql: str = ""
    plan_text: str = ""
    plan_cost: int = 1
    cost_estimate: float = 0.0
    elapsed_seconds: float = 0.0
    trace: Any | None = None
    stats: Any | None = None

    def __len__(self) -> int:
        return len(self.tuples)

    def rows(self) -> list[tuple[Any, ...]]:
        """Plain value rows, without summaries."""
        return [row.values for row in self.tuples]

    def column_index(self, name: str) -> int:
        """Resolve an output column name (qualified or suffix)."""
        from repro.engine.expressions import resolve_column

        return resolve_column(self.columns, name)

    def size_estimate(self) -> int:
        """Approximate in-memory footprint (RCO's overhead factor)."""
        total = 64
        for row in self.tuples:
            total += 16
            for value in row.values:
                total += len(value) if isinstance(value, str) else 8
            total += row.total_summary_size()
            total += 16 * len(row.attachments)
        return total

    def summary_instances(self) -> list[str]:
        """Names of summary instances present anywhere in the result."""
        names: set[str] = set()
        for row in self.tuples:
            names.update(row.summaries)
        return sorted(names)

    # -- serialization (disk-based result cache) -----------------------

    def to_json(self) -> dict[str, Any]:
        """JSON-able form of the full result, summaries included.

        The operator trace is not serialized — it is a debugging view,
        not part of the result.
        """
        return {
            "qid": self.qid,
            "columns": list(self.columns),
            "sql": self.sql,
            "plan_text": self.plan_text,
            "plan_cost": self.plan_cost,
            "cost_estimate": self.cost_estimate,
            "elapsed_seconds": self.elapsed_seconds,
            "tuples": [
                {
                    "values": list(row.values),
                    "summaries": {
                        name: obj.to_json()
                        for name, obj in row.summaries.items()
                    },
                    "attachments": {
                        str(annotation_id): sorted(columns)
                        for annotation_id, columns in row.attachments.items()
                    },
                    "source_rows": sorted(
                        [table, row_id] for table, row_id in row.source_rows
                    ),
                }
                for row in self.tuples
            ],
        }

    @classmethod
    def from_json(cls, data: dict[str, Any], registry) -> "QueryResult":
        """Rebuild a result serialized by :meth:`to_json`.

        ``registry`` is the summary-type registry used to revive the
        summary objects.
        """
        tuples = []
        for entry in data["tuples"]:
            tuples.append(
                AnnotatedTuple(
                    values=tuple(entry["values"]),
                    summaries={
                        name: registry.object_from_json(obj)
                        for name, obj in entry["summaries"].items()
                    },
                    attachments={
                        int(annotation_id): frozenset(columns)
                        for annotation_id, columns in entry["attachments"].items()
                    },
                    source_rows=frozenset(
                        (table, row_id)
                        for table, row_id in entry["source_rows"]
                    ),
                )
            )
        return cls(
            qid=data["qid"],
            columns=tuple(data["columns"]),
            tuples=tuples,
            sql=data.get("sql", ""),
            plan_text=data.get("plan_text", ""),
            plan_cost=data.get("plan_cost", 1),
            cost_estimate=data.get("cost_estimate", 0.0),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
        )


class PlanRecord(NamedTuple):
    """What re-executes a query: its prepared logical plan and SQL."""

    plan: PlanNode
    sql: str


class ResultRegistry:
    """QID allocator plus a bounded qid -> :class:`PlanRecord` map.

    Holds no results.  ``capacity`` caps the number of recorded plans,
    oldest-first; a qid past the bound that the zoom-in cache no longer
    holds is gone (:class:`UnknownQueryIdError`).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._plans: OrderedDict[int, PlanRecord] = OrderedDict()
        # itertools.count.__next__ is atomic under the GIL, but the
        # record map and its eviction loop are not.
        self._lock = make_lock("engine.results")
        self._qid_counter = itertools.count(101)  # matches the paper's QID=101

    def next_qid(self) -> int:
        """Allocate the next query id."""
        return next(self._qid_counter)

    def register(self, qid: int, plan: PlanNode, sql: str = "") -> None:
        """Record how to re-execute ``qid``, evicting oldest-first."""
        with self._lock:
            self._plans.pop(qid, None)
            self._plans[qid] = PlanRecord(plan, sql)
            while len(self._plans) > self._capacity:
                self._plans.popitem(last=False)

    def plan(self, qid: int) -> PlanRecord:
        """The recorded plan of ``qid`` or raise :class:`UnknownQueryIdError`."""
        with self._lock:
            try:
                return self._plans[qid]
            except KeyError:
                raise UnknownQueryIdError(qid) from None

    def __contains__(self, qid: int) -> bool:
        with self._lock:
            return qid in self._plans

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)
