"""Interprocedural lock-context dataflow over the call graph.

:class:`LockFlow` computes, for every project function, the summaries
the interprocedural rules consume:

* ``sql_reachable`` — the function (or anything it transitively calls)
  executes SQL or checks out a pooled connection;
* ``blocking_reachable`` — it transitively reaches an unbounded
  blocking call (``Future.result()`` / ``queue.get()`` without a
  timeout, ``Event.wait()``, ``select.select``, socket reads,
  ``time.sleep``), with a description of the witness site;
* ``lock_acquires`` — the set of lock identities it may transitively
  acquire (the edges of IN007's static acquisition-order graph);
* ``lock_regions`` — its own ``with``-lock regions, each with the locks
  held and the statements + resolved call sites inside.

All summaries are fixpoints over the conservative call graph: a cycle
of mutually recursive helpers converges because every transfer function
is monotone over finite sets.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.lint.callgraph import (
    CallSite,
    FunctionInfo,
    LockInfo,
    Project,
)
from repro.analysis.lint.framework import dotted_name

#: Method names that execute SQL or check out a pooled connection (the
#: IN001 lexical convention; rules.locks re-exports these).
SQL_METHODS = frozenset(
    {
        "execute",
        "executemany",
        "executescript",
        "fetch_all",
        "fetch_one",
        "transaction",
        "read_connection",
        "commit_shards",
        "save_object",
        "save_objects",
        "load_object",
        "load_objects_for_table",
        "delete_object",
        "instances_for_table",
        "attachments_for_row",
        "attachments_for_rows",
        "annotations_for_row",
        "rows_for_annotation",
    }
)

#: ``.read()`` / ``.write()`` count as checkouts when the receiver is a
#: pool (``self._pool.read()``), not for arbitrary file-like objects.
POOL_CHECKOUTS = frozenset({"read", "write"})

#: Attribute calls that block unboundedly when called with no timeout.
_BLOCKING_NO_TIMEOUT_METHODS = frozenset({"result", "wait"})

#: ``.get()`` blocks only on queue-like receivers; gate on the receiver
#: name so ``dict.get`` never trips the rule.
_QUEUEISH_TOKENS = ("queue", "mailbox", "inbox")

#: Dotted calls that block regardless of arguments.
_BLOCKING_DOTTED = frozenset(
    {
        "select.select",
        "time.sleep",
        "socket.create_connection",
    }
)

#: Socket-style methods that block on network peers.
_SOCKET_METHODS = frozenset({"accept", "recv", "recvfrom"})


@dataclass
class BlockingSite:
    """One potentially unbounded blocking call."""

    node: ast.Call
    description: str


@dataclass
class LockRegion:
    """The body of one ``with``-lock statement in one function."""

    function: FunctionInfo
    locks: tuple[LockInfo, ...]  # locks this region's with-items hold
    with_node: ast.With | ast.AsyncWith
    #: resolved project calls lexically inside the region (nested
    #: with-regions included — an inner lock does not release the outer)
    calls: list[CallSite] = field(default_factory=list)
    #: SQL/pool-checkout calls lexically inside the region
    sql_calls: list[ast.Call] = field(default_factory=list)
    #: unbounded blocking calls lexically inside the region
    blocking: list[BlockingSite] = field(default_factory=list)
    #: locks acquired by nested with-statements inside the region
    nested_locks: list[tuple[LockInfo, ast.With | ast.AsyncWith]] = field(
        default_factory=list
    )


def is_direct_sql_call(call: ast.Call) -> bool:
    """The IN001 lexical convention: SQL method or pool checkout."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in SQL_METHODS:
        return True
    receiver = (dotted_name(func.value) or "").lower()
    return func.attr in POOL_CHECKOUTS and "pool" in receiver


def _has_timeout(call: ast.Call) -> bool:
    if any(keyword.arg == "timeout" for keyword in call.keywords):
        return True
    return bool(call.args)


def _receiver_tokens(func: ast.Attribute) -> str:
    receiver = func.value
    # Descend subscripts: queues[shard].get() blocks like queue.get().
    while isinstance(receiver, ast.Subscript):
        receiver = receiver.value
    return (dotted_name(receiver) or "").lower()


def classify_blocking(call: ast.Call) -> str | None:
    """A description when ``call`` may block unboundedly, else None."""
    func = call.func
    dotted = dotted_name(func) or ""
    if dotted in _BLOCKING_DOTTED or (
        dotted.split(".")[-1] == "sleep" and dotted.startswith("time.")
    ):
        return f"blocking call '{dotted}'"
    if not isinstance(func, ast.Attribute):
        return None
    method = func.attr
    if method in _BLOCKING_NO_TIMEOUT_METHODS and not _has_timeout(call):
        return f"unbounded '.{method}()' (no timeout)"
    if method == "get" and not _has_timeout(call):
        receiver = _receiver_tokens(func)
        tail = receiver.split(".")[-1]
        if any(token in tail for token in _QUEUEISH_TOKENS) or tail == "q":
            return "unbounded 'queue.get()' (no timeout)"
    if method in _SOCKET_METHODS:
        receiver = _receiver_tokens(func)
        if "sock" in receiver or "conn" in receiver.split(".")[-1]:
            return f"blocking socket call '.{method}()'"
    return None


class LockFlow:
    """The fixpoint summaries + per-function lock regions."""

    def __init__(self, project: Project) -> None:
        self.project = project
        graph = project.graph
        #: function key -> its lock regions (outermost-first, document order)
        self.regions: dict[str, list[LockRegion]] = {}
        self._direct_sql: dict[str, list[ast.Call]] = {}
        self._direct_blocking: dict[str, list[BlockingSite]] = {}
        #: function key -> locks its own with-statements acquire
        self._direct_locks: dict[str, set[LockInfo]] = {}

        for key, info in graph.functions.items():
            self._scan_function(key, info)

        self.sql_reachable: set[str] = self._reach_fixpoint(
            {key for key, sites in self._direct_sql.items() if sites}
        )
        self.blocking_reachable: set[str] = self._reach_fixpoint(
            {key for key, sites in self._direct_blocking.items() if sites}
        )
        self.lock_acquires: dict[str, set[LockInfo]] = (
            self._locks_fixpoint()
        )

    # -- reading the summaries ----------------------------------------

    def blocking_witness(self, key: str) -> str:
        """A human-readable witness for a blocking-reachable function."""
        queue: list[str] = [key]
        seen = {key}
        graph = self.project.graph
        while queue:
            current = queue.pop(0)
            sites = self._direct_blocking.get(current)
            if sites:
                info = graph.functions[current]
                return (
                    f"{sites[0].description} in "
                    f"{info.qualname} ({info.module.path}:"
                    f"{sites[0].node.lineno})"
                )
            for site in graph.calls.get(current, []):
                if site.callee not in seen:
                    seen.add(site.callee)
                    queue.append(site.callee)
        return "blocking call"

    def sql_witness(self, key: str) -> str:
        """A human-readable witness for a SQL-reachable function."""
        queue: list[str] = [key]
        seen = {key}
        graph = self.project.graph
        while queue:
            current = queue.pop(0)
            sites = self._direct_sql.get(current)
            if sites:
                info = graph.functions[current]
                label = dotted_name(sites[0].func) or "SQL"
                return (
                    f"'{label}' in {info.qualname} "
                    f"({info.module.path}:{sites[0].lineno})"
                )
            for site in graph.calls.get(current, []):
                if site.callee not in seen:
                    seen.add(site.callee)
                    queue.append(site.callee)
        return "SQL"

    # -- per-function scan ---------------------------------------------

    def _scan_function(self, key: str, info: FunctionInfo) -> None:
        graph = self.project.graph
        regions: list[LockRegion] = []
        sql: list[ast.Call] = []
        blocking: list[BlockingSite] = []
        acquired: set[LockInfo] = set()
        calls_by_node: dict[ast.Call, CallSite] = {
            site.node: site for site in graph.calls.get(key, [])
        }

        def visit(node: ast.AST, active: list[LockRegion]) -> None:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return  # nested callables are analyzed under their own key
            if isinstance(node, (ast.With, ast.AsyncWith)):
                locks = tuple(
                    lock
                    for item in node.items
                    if (lock := graph.resolve_lock(info, item.context_expr))
                    is not None
                )
                # The with-items themselves evaluate *before* the lock
                # is held; scan them under the surrounding regions only.
                for item in node.items:
                    visit(item.context_expr, active)
                if locks:
                    region = LockRegion(
                        function=info,
                        locks=locks,
                        with_node=node,
                    )
                    regions.append(region)
                    acquired.update(locks)
                    for outer in active:
                        for lock in locks:
                            outer.nested_locks.append((lock, node))
                    inner = [*active, region]
                else:
                    inner = active
                for stmt in node.body:
                    visit(stmt, inner)
                return
            if isinstance(node, ast.Call):
                note_call(node, active)
            for child in ast.iter_child_nodes(node):
                visit(child, active)

        def note_call(call: ast.Call, active: list[LockRegion]) -> None:
            site = calls_by_node.get(call)
            if site is not None:
                for region in active:
                    region.calls.append(site)
            if is_direct_sql_call(call):
                sql.append(call)
                for region in active:
                    region.sql_calls.append(call)
            description = classify_blocking(call)
            if description is not None:
                blocking_site = BlockingSite(call, description)
                blocking.append(blocking_site)
                for region in active:
                    region.blocking.append(blocking_site)

        for child in ast.iter_child_nodes(info.node):
            visit(child, [])
        self.regions[key] = regions
        self._direct_sql[key] = sql
        self._direct_blocking[key] = blocking
        self._direct_locks[key] = acquired

    # -- fixpoints ------------------------------------------------------

    def _reach_fixpoint(self, seeds: set[str]) -> set[str]:
        """Backward reachability: callers of members become members."""
        graph = self.project.graph
        callers: dict[str, set[str]] = {}
        for caller, sites in graph.calls.items():
            for site in sites:
                callers.setdefault(site.callee, set()).add(caller)
        reached = set(seeds)
        worklist = list(seeds)
        while worklist:
            current = worklist.pop()
            for caller in callers.get(current, ()):
                if caller not in reached:
                    reached.add(caller)
                    worklist.append(caller)
        return reached

    def _locks_fixpoint(self) -> dict[str, set[LockInfo]]:
        graph = self.project.graph
        acquires = {
            key: set(locks) for key, locks in self._direct_locks.items()
        }
        changed = True
        while changed:
            changed = False
            for caller, sites in graph.calls.items():
                target = acquires.setdefault(caller, set())
                before = len(target)
                for site in sites:
                    target.update(acquires.get(site.callee, ()))
                if len(target) != before:
                    changed = True
        return acquires


def get_lockflow(project: Project) -> LockFlow:
    """The project's LockFlow, computed once and cached on the project
    (several rules consume the same summaries)."""
    flow = getattr(project, "_lockflow", None)
    if flow is None:
        flow = LockFlow(project)
        project._lockflow = flow  # type: ignore[attr-defined]
    return flow
