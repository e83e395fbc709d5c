"""Exception hierarchy for the InsightNotes reproduction.

Every error raised by the library derives from :class:`InsightNotesError`,
so callers can catch one base class at the API boundary.  Subclasses are
grouped by subsystem (storage, catalog, query engine, zoom-in) and carry
enough context in their message to diagnose the failure without a debugger.
"""

from __future__ import annotations


class InsightNotesError(Exception):
    """Base class for all errors raised by this library."""


class StorageError(InsightNotesError):
    """A failure in the SQLite-backed storage layer."""


class SchemaError(StorageError):
    """A table or column was declared or referenced inconsistently."""


class UnknownTableError(SchemaError):
    """A referenced table does not exist in the database."""

    def __init__(self, table: str) -> None:
        super().__init__(f"unknown table: {table!r}")
        self.table = table


class UnknownColumnError(SchemaError):
    """A referenced column does not exist in its table."""

    def __init__(self, table: str, column: str) -> None:
        super().__init__(f"unknown column: {table!r}.{column!r}")
        self.table = table
        self.column = column


class AnnotationError(InsightNotesError):
    """An annotation operation failed (bad attachment, missing id, ...)."""


class UnknownAnnotationError(AnnotationError):
    """A referenced annotation id does not exist."""

    def __init__(self, annotation_id: int) -> None:
        super().__init__(f"unknown annotation id: {annotation_id}")
        self.annotation_id = annotation_id


class CatalogError(InsightNotesError):
    """A summary-catalog operation failed."""


class UnknownSummaryTypeError(CatalogError):
    """A summary type name is not registered with the engine."""

    def __init__(self, type_name: str) -> None:
        super().__init__(f"unknown summary type: {type_name!r}")
        self.type_name = type_name


class UnknownInstanceError(CatalogError):
    """A summary instance id/name is not defined in the catalog."""

    def __init__(self, instance: str) -> None:
        super().__init__(f"unknown summary instance: {instance!r}")
        self.instance = instance


class DuplicateInstanceError(CatalogError):
    """A summary instance with the same name already exists."""

    def __init__(self, instance: str) -> None:
        super().__init__(f"summary instance already exists: {instance!r}")
        self.instance = instance


class QueryError(InsightNotesError):
    """A query could not be parsed, planned, or executed."""


class SQLSyntaxError(QueryError):
    """The SQL text could not be parsed.

    Carries the offending position so front-ends can point at it.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class PlanError(QueryError):
    """A logical plan was structurally invalid."""


class ExpressionError(QueryError):
    """A predicate or expression could not be evaluated."""


class ZoomInError(InsightNotesError):
    """A zoom-in command failed."""


class UnknownQueryIdError(ZoomInError):
    """The referenced QID is neither cached nor in the plan record."""

    def __init__(self, qid: int) -> None:
        super().__init__(f"unknown query id: {qid}")
        self.qid = qid


class ZoomInSyntaxError(ZoomInError):
    """The ZOOMIN command text could not be parsed."""


class MaintenanceError(InsightNotesError):
    """Incremental summary maintenance failed."""


class ServeError(InsightNotesError):
    """A failure in the annotation service layer."""


class ServerOverloadedError(ServeError):
    """A request was rejected because its admission queue is full.

    The 429-style backpressure signal: the server is healthy but the
    per-class (reader/writer) queue has no room, so the client should
    back off and retry rather than pile more work on.
    """

    def __init__(self, op_class: str, capacity: int) -> None:
        super().__init__(
            f"server overloaded: {op_class} admission queue is full "
            f"(capacity {capacity}); retry later"
        )
        self.op_class = op_class
        self.capacity = capacity


class ServerClosedError(ServeError):
    """A request arrived while the server is draining or stopped."""

    def __init__(self, state: str = "closed") -> None:
        super().__init__(
            f"server is {state}: no new requests are admitted"
        )
        self.state = state


class RequestTimeoutError(ServeError):
    """A request exceeded the server's per-request deadline.

    The worker thread running the request cannot be interrupted (CPython
    threads are not cancellable), so the underlying work may still
    complete and be counted in the drain — only the *caller* stops
    waiting.  See DESIGN.md §12 for the bridge caveats.
    """

    def __init__(self, op: str, timeout_s: float) -> None:
        super().__init__(
            f"request {op!r} exceeded the {timeout_s:.3f}s deadline"
        )
        self.op = op
        self.timeout_s = timeout_s
