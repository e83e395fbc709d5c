"""Structured per-query tracing.

Every executed query gets a :class:`QueryTrace` — a JSON-able record of
what the planner decided (plan fingerprint, cost estimate), what
execution did (wall clock, the engine's counters, per-operator timings
when the query ran with tracing enabled), and everything the zoom-in
cache subsequently did *to* the result (tier hits and misses, the
admission verdict, demotions, promotions, evictions with their causes,
single-flight recomputes).  Traces follow the lint CLI's ``--format
json`` house idiom: one structured payload per query, retrievable via
``session.trace(qid)`` and the serve ``trace`` op.

The store is bounded (one ring of recent traces) and thread-safe; cache
events for a query whose trace has aged out are dropped rather than
resurrected — a trace is an observability view, not an audit log.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.concurrency import make_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.results import QueryResult


def plan_fingerprint(plan_text: str) -> str:
    """A short stable fingerprint of a rendered plan.

    Whitespace-insensitive so cosmetic render changes don't churn
    fingerprints; 12 hex chars is plenty for a per-session namespace.
    """
    canonical = " ".join(plan_text.split())
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class CacheEvent:
    """One thing the zoom-in cache did involving a query's result.

    ``kind`` vocabulary: ``admit`` / ``reject`` (admission verdicts),
    ``hit-memory`` / ``hit-disk`` / ``miss`` (lookups), ``promote`` /
    ``demote`` (tier transitions), ``evict`` (left the cache, with the
    cause in ``detail``), ``recompute`` / ``coalesced`` (single-flight
    outcomes).
    """

    kind: str
    tier: str = ""
    detail: str = ""

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"kind": self.kind}
        if self.tier:
            payload["tier"] = self.tier
        if self.detail:
            payload["detail"] = self.detail
        return payload


@dataclass
class QueryTrace:
    """The per-query observability record."""

    qid: int
    sql: str = ""
    fingerprint: str = ""
    plan_text: str = ""
    plan_cost: int = 1
    cost_estimate: float = 0.0
    elapsed_seconds: float = 0.0
    execution: dict[str, Any] = field(default_factory=dict)
    operator_timings: list[dict[str, Any]] = field(default_factory=list)
    cache_events: list[CacheEvent] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        """The full trace as one JSON-able payload."""
        return {
            "qid": self.qid,
            "sql": self.sql,
            "fingerprint": self.fingerprint,
            "plan_text": self.plan_text,
            "plan_cost": self.plan_cost,
            "cost_estimate": round(self.cost_estimate, 3),
            "elapsed_seconds": self.elapsed_seconds,
            "execution": dict(self.execution),
            "operator_timings": [dict(t) for t in self.operator_timings],
            "cache_events": [event.to_json() for event in self.cache_events],
        }


class TraceStore:
    """Bounded, thread-safe ring of recent :class:`QueryTrace` records.

    ``capacity`` traces are retained, oldest-first eviction — the same
    shape as the result registry's plan record, so a qid still
    addressable for zoom-ins usually still has its trace.  All mutation is under one
    lock; everything recorded is plain in-memory bookkeeping (no SQL,
    no I/O), so holding it is cheap.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._traces: OrderedDict[int, QueryTrace] = OrderedDict()
        self._lock = make_lock("zoomin.traces")

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def record_query(self, result: "QueryResult") -> QueryTrace:
        """Open (or refresh) the trace for a just-executed result."""
        trace = QueryTrace(
            qid=result.qid,
            sql=result.sql,
            fingerprint=plan_fingerprint(result.plan_text),
            plan_text=result.plan_text,
            plan_cost=result.plan_cost,
            cost_estimate=result.cost_estimate,
            elapsed_seconds=result.elapsed_seconds,
            execution=result.stats.to_json() if result.stats is not None else {},
            operator_timings=(
                result.trace.timings_json()
                if result.trace is not None
                and hasattr(result.trace, "timings_json")
                else []
            ),
        )
        with self._lock:
            self._traces.pop(result.qid, None)
            self._traces[result.qid] = trace
            while len(self._traces) > self._capacity:
                self._traces.popitem(last=False)
        return trace

    def record_event(self, qid: int, event: CacheEvent) -> None:
        """Append a cache event to ``qid``'s trace (dropped if aged out)."""
        with self._lock:
            trace = self._traces.get(qid)
            if trace is not None:
                trace.cache_events.append(event)

    def get(self, qid: int) -> QueryTrace | None:
        """The trace for ``qid``, or None when unknown/aged out."""
        with self._lock:
            return self._traces.get(qid)

    def to_json(self, qid: int) -> dict[str, Any] | None:
        """JSON payload of one trace, or None."""
        with self._lock:
            trace = self._traces.get(qid)
            return trace.to_json() if trace is not None else None

    def qids(self) -> list[int]:
        """Traced qids, oldest first."""
        with self._lock:
            return list(self._traces)
