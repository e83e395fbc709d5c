"""Outside-in tracing: timing wrappers around the layers' public entry points.

Installed only for the traced round of a ``--trace 1`` run; end-to-end
numbers never come from a process with these wrappers active.  Each
wrapped call is one span ``(span, parent, op, name, start_ns, end_ns,
busy_ns)`` kept in memory and written to ``trace.jsonl`` afterwards.
A generator-returning entry point (``Database.scan``) is one span whose
``busy_ns`` sums the time inside each ``next()``, so a consumer's own
work between two rows is not charged to storage.  A span's self time is
its ``busy_ns`` minus its direct children's ``busy_ns``; a layer's self
times therefore add up to the op's wall-clock.

The current span and the current op live in context variables, which
follow asyncio tasks; :meth:`AnnotationServer.submit` is wrapped to carry
them onto the lane's worker thread, and the request ``id`` carries the
op id across the socket.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from array import array
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from typing import Any, NamedTuple

_SPAN: contextvars.ContextVar[int] = contextvars.ContextVar("e2e_span", default=-1)
_OP: contextvars.ContextVar[int] = contextvars.ContextVar("e2e_op", default=-1)
_now = time.perf_counter_ns

ROOT = ("client", "op")


class Span(NamedTuple):
    span: int
    parent: int
    op: int
    name: int
    start_ns: int
    end_ns: int
    busy_ns: int


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """``span id -> self time``: busy time minus the direct children's."""
    spans = list(spans)
    children: dict[int, int] = defaultdict(int)
    for span in spans:
        children[span.parent] += span.busy_ns
    return {span.span: max(0, span.busy_ns - children[span.span]) for span in spans}


def adopt_orphans(spans: Iterable[Span], root_name: int) -> list[Span]:
    """Hang parentless spans of an op under that op's root span.

    Server-side spans start on another thread, where no parent is in
    scope; they belong under the client span that carries the same op id.
    """
    spans = list(spans)
    roots = {span.op: span.span for span in spans if span.name == root_name}
    return [
        span._replace(parent=roots[span.op])
        if span.parent == -1 and span.name != root_name and span.op in roots
        else span
        for span in spans
    ]


class Tracer:
    """Installs the wrappers, collects spans and boundary counts."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []
        self._name_ids: dict[tuple[str, str], int] = {}
        self._buffer = array("q")
        self._ids = itertools.count()
        self._undo: list[Callable[[], None]] = []
        self.missing: list[str] = []
        #: Counts taken where the work happens.
        self.rows: list[tuple[int, int, int]] = []  # scanned, hydrated, returned
        self.result_bytes: dict[int, tuple[int, int]] = {}
        self.response_bytes: list[int] = []
        self.zooms: list[tuple[int, str]] = []
        #: Set to a ``Database.track_queries()`` counter for the traced round:
        #: op id -> the slice of its statement log that ran during the op.
        self.statements: Any = None
        self.statement_ranges: dict[int, tuple[int, int]] = {}
        self.root_name = self.name_id(*ROOT)

    # -- recording -------------------------------------------------------

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """The client's root span around one op."""
        op_token = _OP.set(op_id)
        span = next(self._ids)
        span_token = _SPAN.set(span)
        first = self.statements.count if self.statements is not None else 0
        start = _now()
        try:
            yield
        finally:
            end = _now()
            _SPAN.reset(span_token)
            _OP.reset(op_token)
            self._buffer.extend((span, -1, op_id, self.root_name, start, end, end - start))
            if self.statements is not None:
                self.statement_ranges[op_id] = (first, self.statements.count)

    def _wrap(self, fn: Callable, name: int, post: Callable | None) -> Callable:
        buffer, ids = self._buffer, self._ids

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                span, parent = next(ids), _SPAN.get()
                token = _SPAN.set(span)
                start = _now()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = _now()
                    _SPAN.reset(token)
                    buffer.extend((span, parent, _OP.get(), name, start, end, end - start))
            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span, parent = next(ids), _SPAN.get()
            token = _SPAN.set(span)
            start = _now()
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(result, args)
                return result
            finally:
                end = _now()
                _SPAN.reset(token)
                buffer.extend((span, parent, _OP.get(), name, start, end, end - start))
        return traced

    def _wrap_iterator(self, fn: Callable, name: int) -> Callable:
        buffer, ids = self._buffer, self._ids

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            span, parent, op = next(ids), _SPAN.get(), _OP.get()
            start = _now()
            token = _SPAN.set(span)
            try:
                iterator = iter(fn(*args, **kwargs))
            finally:
                _SPAN.reset(token)
            busy = _now() - start

            def rows() -> Iterator[Any]:
                nonlocal busy
                end = start + busy
                try:
                    while True:
                        begun = _now()
                        token = _SPAN.set(span)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            _SPAN.reset(token)
                            end = _now()
                            busy += end - begun
                        yield item
                finally:
                    buffer.extend((span, parent, op, name, start, end, busy))
            return rows()
        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _method(self, layer: str, name: str, cls: type, attr: str,
                post: Callable | None = None, iterator: bool = False) -> None:
        fn = cls.__dict__.get(attr)
        if not callable(fn):
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        name_id = self.name_id(layer, name)
        self._patch(cls, attr, self._wrap_iterator(fn, name_id) if iterator
                    else self._wrap(fn, name_id, post))

    def _function(self, layer: str, name: str, module: Any, attr: str,
                  post: Callable | None = None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = self._wrap(fn, self.name_id(layer, name), post)
        # ``from x import f`` bound the function in every importer too.
        for loaded in list(sys.modules.values()):
            if loaded is None or not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is fn:
                    self._patch(loaded, key, wrapper)

    def install(self, cache_type: type) -> None:
        """Wrap the entry points; ``cache_type`` is the live zoom-in cache's class."""
        # import_module returns the module even where its package re-exports
        # a function of the same name (``repro.text.tokenize``).
        load = importlib.import_module
        cost, executor, planner = (
            load(f"repro.engine.{m}") for m in ("cost", "executor", "planner"))
        results, session, sqlparser = (
            load(f"repro.engine.{m}") for m in ("results", "session", "sqlparser"))
        protocol, server = load("repro.serve.protocol"), load("repro.serve.server")
        annotations, catalog, database = (
            load(f"repro.storage.{m}") for m in ("annotations", "catalog", "database"))
        similarity, tokenize, vectorize = (
            load(f"repro.text.{m}") for m in ("similarity", "tokenize", "vectorize"))
        zoom_executor, tracing = load("repro.zoomin.executor"), load("repro.zoomin.tracing")
        from repro.maintenance.incremental import SummaryManager
        from repro.summaries.base import SummaryInstance, SummaryObject

        self._function("serve", "decode", protocol, "decode_request", self._decoded)
        self._function("serve", "encode", protocol, "encode_response", self._encoded)
        self._function("serve", "handle", protocol, "handle_request")
        for attr in ("query", "zoomin", "add_annotations", "statistics"):
            self._method("serve", "dispatch", server.AnnotationServer, attr)
        self._carry_context(server.AnnotationServer)

        for attr in ("query", "zoomin", "add_annotations"):
            self._method("engine", "session", session.InsightNotes, attr)
        self._function("engine", "parse", sqlparser, "parse_sql")
        self._function("engine", "build_logical", sqlparser, "build_logical")
        self._method("engine", "prepare", planner.Planner, "prepare")
        self._method("engine", "physical", planner.Planner, "physical")
        self._function("engine", "execute_plan", executor, "execute_plan", self._executed)
        self._method("engine", "observe", cost.CatalogStatistics, "observe_execution")
        self._method("engine", "estimate", cost.CostModel, "estimate")
        self._method("engine", "register", results.ResultRegistry, "register")
        self._method("engine", "record_query", tracing.TraceStore, "record_query")
        self._method("engine", "size_estimate", results.QueryResult, "size_estimate",
                     self._sized)

        self._method("storage", "scan", database.Database, "scan", iterator=True)
        self._method("storage", "scan_aggregate", database.Database, "scan_aggregate")
        self._method("storage", "load_objects", catalog.SummaryCatalog, "load_objects_for_table")
        self._method("storage", "save_objects", catalog.SummaryCatalog, "save_objects")
        self._method("storage", "attachments", annotations.AnnotationStore,
                     "attachments_for_rows")
        self._method("storage", "add_many", annotations.AnnotationStore, "add_many")
        self._method("storage", "get_many", annotations.AnnotationStore, "get_many")

        for attr in ("add_annotations", "objects_for_rows", "attachments_for_rows", "flush"):
            self._method("maintenance", attr, SummaryManager, attr)

        for cls in _subclasses(SummaryObject):
            kind = cls.__name__.removesuffix("Summary").lower() or "base"
            for attr in ("merge", "remove_annotations", "fold_many",
                         "for_query", "copy", "size_estimate"):
                if callable(cls.__dict__.get(attr)) and not getattr(
                    cls.__dict__[attr], "__isabstractmethod__", False
                ):
                    self._method("summaries", f"{attr}:{kind}", cls, attr)
        for cls in _subclasses(SummaryInstance):
            if callable(cls.__dict__.get("analyze")) and not inspect.isabstract(cls):
                self._method("summaries", "analyze", cls, "analyze")

        self._method("zoomin", "execute", zoom_executor.ZoomInExecutor, "execute", self._zoomed)
        for attr in ("get", "get_or_compute"):
            if attr in cache_type.__dict__:
                self._method("zoomin", "cache_get", cache_type, attr)
        self._method("zoomin", "cache_put", cache_type, "put")

        self._method("text", "tokenize", tokenize.Tokenizer, "tokens")
        self._function("text", "tokenize", tokenize, "tokenize")
        self._function("text", "vectorize", vectorize, "term_frequencies")
        self._function("text", "vectorize", vectorize, "normalize")
        for attr in ("vector", "vector_from_tokens"):
            self._method("text", "vectorize", vectorize.TfIdfVectorizer, attr)
        self._function("text", "cosine", similarity, "cosine_similarity")

    def _carry_context(self, server_cls: type) -> None:
        """Make a lane's worker thread run ``fn`` in the submitting task's context."""
        submit = server_cls.__dict__["submit"]

        @functools.wraps(submit)
        async def carrying(server: Any, lane: str, op: str, fn: Callable,
                           *args: Any, **kwargs: Any) -> Any:
            context = contextvars.copy_context()
            return await submit(server, lane, op, lambda: context.run(fn), *args, **kwargs)

        self._patch(server_cls, "submit", carrying)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- boundary counts -------------------------------------------------

    def _decoded(self, request: dict[str, Any], _args: tuple) -> None:
        request_id = request.get("id")
        if isinstance(request_id, int):
            _OP.set(request_id)

    def _encoded(self, line: bytes, _args: tuple) -> None:
        self.response_bytes.append(len(line))

    def _executed(self, result: Any, _args: tuple) -> None:
        stats = result.stats
        if stats is not None:
            self.rows.append((stats.rows_scanned, stats.rows_hydrated, len(result.tuples)))

    def _sized(self, size: int, args: tuple) -> None:
        result = args[0]
        self.result_bytes.setdefault(result.qid, (size, len(result.tuples)))

    def _zoomed(self, zoom: Any, _args: tuple) -> None:
        self.zooms.append((zoom.annotation_count(), zoom.source))

    # -- results ---------------------------------------------------------

    def spans(self) -> list[Span]:
        flat = self._buffer
        width = len(Span._fields)
        spans = [Span(*flat[i : i + width]) for i in range(0, len(flat), width)]
        return adopt_orphans(spans, self.root_name)

    def write_jsonl(self, path: str, spans: list[Span]) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in spans:
                layer, name = self.names[span.name]
                out.write(json.dumps({
                    "op_id": span.op, "layer": layer, "name": name,
                    "start_ns": span.start_ns, "end_ns": span.end_ns,
                    "busy_ns": span.busy_ns, "span": span.span, "parent": span.parent,
                }) + "\n")


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class Breakdown:
    """Per-op self time by span name, from one traced round."""

    def __init__(self, tracer: Tracer, spans: list[Span], op_class: dict[int, str]) -> None:
        self._names = tracer.names
        self.op_class = op_class
        own = self_times(spans)
        self.per_op: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self.calls: dict[int, int] = defaultdict(int)
        self.wall_ns = 0
        for span in spans:
            if span.op not in op_class:
                continue  # outside any op: statistics probes, set-up
            self.per_op[span.op][span.name] += own[span.span]
            self.calls[span.name] += 1
            if span.name == tracer.root_name:
                self.wall_ns += span.busy_ns

    def _ids(self, layer: str, prefixes: tuple[str, ...]) -> set[int]:
        return {
            i for i, (span_layer, name) in enumerate(self._names)
            if span_layer == layer and (not prefixes or name.startswith(prefixes))
        }

    def self_ms(self, layer: str, *prefixes: str, classes: tuple[str, ...] = ()) -> list[float]:
        """Per-op self time (ms) of the named spans, over the ops that have them."""
        ids = self._ids(layer, prefixes)
        values = []
        for op, by_name in self.per_op.items():
            if classes and self.op_class[op] not in classes:
                continue
            if ids & by_name.keys():
                values.append(sum(by_name[i] for i in ids & by_name.keys()) / 1e6)
        return values

    def call_count(self, layer: str, *prefixes: str) -> int:
        return sum(self.calls[i] for i in self._ids(layer, prefixes))

    def share(self, layer: str, *prefixes: str) -> float:
        """Total self time of the named spans / total traced wall-clock."""
        ids = self._ids(layer, prefixes)
        total = sum(ns for by_name in self.per_op.values() for i, ns in by_name.items()
                    if i in ids)
        return total / self.wall_ns if self.wall_ns else 0.0

    def top(self, count: int) -> list[tuple[str, float]]:
        """The ``count`` span names with the largest share of the wall-clock."""
        totals: dict[int, int] = defaultdict(int)
        for by_name in self.per_op.values():
            for i, ns in by_name.items():
                totals[i] += ns
        ranked = sorted(totals.items(), key=lambda item: -item[1])[:count]
        return [(".".join(self._names[i]), ns / self.wall_ns) for i, ns in ranked]
