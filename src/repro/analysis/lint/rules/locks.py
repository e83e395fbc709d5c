"""Concurrency rules: lock scope and executor-callable discipline.

IN001 — the probe-under-lock / SQL-outside-lock / fill-under-lock
discipline (DESIGN.md §9): no storage statement and no pool checkout may
run while a ``threading`` lock is held, because a reader blocked inside
SQLite would stall every thread waiting on that lock.  The documented
exception is ``SummaryManager``'s write path, which holds its re-entrant
lock end to end — write paths are serialized behind the storage layer's
single-writer lock anyway (the allowlist below names those methods).

IN005 — callables handed to a ``ThreadPoolExecutor`` run on worker
threads; they may only *read* shared engine state.  Mutating an
attribute from a submitted callable is a data race unless that attribute
is in the documented lock-protected inventory or the assignment is
itself under a lock.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.lint.callgraph import CallGraph, FunctionInfo, Project
from repro.analysis.lint.framework import (
    Finding,
    ModuleSource,
    ProjectRule,
    dotted_name,
    register,
)
from repro.analysis.lint.lockflow import (
    POOL_CHECKOUTS,
    SQL_METHODS,
    get_lockflow,
    is_direct_sql_call,
)

#: Backwards-compatible alias (the canonical set lives in lockflow).
_POOL_CHECKOUTS = POOL_CHECKOUTS

#: The documented fill-under-lock sites (module path suffix, qualname).
#: SummaryManager's write path holds its RLock across storage calls by
#: design — see the lock inventory in DESIGN.md §9.  The annotation id
#: sequence likewise grants cached runs under its lock: the one-row
#: meta-shard transaction must be atomic with the per-thread run
#: bookkeeping, or two threads could be granted overlapping id ranges
#: (DESIGN.md §11's lock inventory).
IN001_ALLOWLIST = frozenset(
    {
        ("repro/maintenance/incremental.py", "SummaryManager.flush"),
        ("repro/maintenance/incremental.py", "SummaryManager.on_annotation_added"),
        ("repro/maintenance/incremental.py", "SummaryManager.add_annotations"),
        ("repro/maintenance/incremental.py", "SummaryManager.on_annotation_deleted"),
        ("repro/maintenance/incremental.py", "SummaryManager.on_row_deleted"),
        ("repro/storage/annotations.py", "AnnotationStore._reserve_ids"),
        ("repro/storage/annotations.py", "AnnotationStore._pin_id"),
        # SQLiteResultStore shares one connection across query threads;
        # ``with self._connection`` transaction state lives on that
        # connection, so the write methods must be serialized end to
        # end by the store's transaction mutex (DESIGN.md §14's lock
        # inventory).  The lock exists precisely to hold across the SQL
        # it wraps; reads stay lock-free.
        ("repro/zoomin/stores.py", "SQLiteResultStore.put"),
        ("repro/zoomin/stores.py", "SQLiteResultStore.update_access"),
        ("repro/zoomin/stores.py", "SQLiteResultStore.delete"),
        ("repro/zoomin/stores.py", "SQLiteResultStore.clear"),
    }
)

#: Attributes that are lock-protected by construction (DESIGN.md §9's
#: inventory) and therefore safe to assign from executor callables.
IN005_LOCKED_INVENTORY = frozenset(
    {
        "reader",  # ConnectionPool._local.reader is thread-local state
    }
)


def _is_lock_context(expr: ast.expr) -> bool:
    """True when a ``with`` item looks like a threading lock.

    Lexical convention: the final name component contains ``lock``
    (``self._lock``, ``self._cache_lock``, ``registry_lock``) or the
    expression is a bare ``Lock()`` / ``RLock()`` construction.
    """
    name = dotted_name(expr)
    if name is not None:
        return "lock" in name.split(".")[-1].lower()
    if isinstance(expr, ast.Call):
        func = dotted_name(expr.func) or ""
        return func.split(".")[-1] in ("Lock", "RLock")
    return False


def _module_suffix_matches(path: str, suffix: str) -> bool:
    return path.endswith(suffix)


def _allowlisted(path: str, qualname: str) -> bool:
    """True when ``qualname`` in the module at ``path`` is a documented
    fill-under-lock site (IN001_ALLOWLIST)."""
    for suffix, allowed in IN001_ALLOWLIST:
        if _module_suffix_matches(path, suffix) and (
            qualname == allowed or qualname.startswith(allowed + ".")
        ):
            return True
    return False


@register
class NoSQLUnderLock(ProjectRule):
    """IN001: no SQL/pool checkout while holding a lock.

    Two layers share the rule id:

    * the **lexical** pass — SQL or a pool checkout written directly
      inside a ``with``-lock body (the original PR-5 rule);
    * the **interprocedural** pass — a call made while holding a
      non-``guards_io`` lock whose callee (transitively, over the
      project call graph) executes SQL.  The finding anchors at the
      *call site in the lock-holding function*, which is where a
      ``# insightlint: disable=IN001`` suppression belongs — the callee
      is innocent; holding the lock across it is the defect.
    """

    rule_id = "IN001"
    summary = (
        "no SQL execution or pool checkout while holding a threading "
        "lock, directly or through helper calls (probe under lock, "
        "SQL outside, fill under lock)"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            yield from self._walk(module, module.tree.body, "", in_lock=False)
        yield from self._check_interprocedural(project)

    def _check_interprocedural(self, project: Project) -> Iterator[Finding]:
        flow = get_lockflow(project)
        for key, regions in flow.regions.items():
            info = project.graph.functions[key]
            if _allowlisted(info.module.path, info.qualname):
                continue
            reported: set[tuple[int, int]] = set()
            for region in regions:
                held = [
                    lock for lock in region.locks if not lock.guards_io
                ]
                if not held:
                    continue
                names = ", ".join(sorted(f"'{lock.name}'" for lock in held))
                for site in region.calls:
                    if site.callee not in flow.sql_reachable:
                        continue
                    if is_direct_sql_call(site.node):
                        continue  # the lexical pass already reports it
                    anchor = (site.node.lineno, site.node.col_offset)
                    if anchor in reported:
                        continue
                    reported.add(anchor)
                    callee = project.graph.functions[site.callee]
                    yield Finding(
                        path=info.module.path,
                        line=site.node.lineno,
                        column=site.node.col_offset + 1,
                        rule=self.rule_id,
                        severity=self.severity,
                        message=(
                            f"call to {callee.qualname} reaches SQL "
                            f"({flow.sql_witness(site.callee)}) while "
                            f"holding lock(s) {names}; run the SQL "
                            "outside the lock or add the documented "
                            "site to the IN001 allowlist"
                        ),
                    )

    def _walk(
        self,
        module: ModuleSource,
        body: list[ast.stmt],
        qualname: str,
        in_lock: bool,
    ) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{qualname}.{node.name}" if qualname else node.name
                # A nested function's body runs when *called*, not where
                # it is defined — the lock context does not carry in.
                yield from self._walk(module, node.body, inner, False)
            elif isinstance(node, ast.ClassDef):
                inner = f"{qualname}.{node.name}" if qualname else node.name
                yield from self._walk(module, node.body, inner, in_lock)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                locked = in_lock or any(
                    _is_lock_context(item.context_expr) for item in node.items
                )
                if locked and not in_lock:
                    # Entering a lock: the with-items themselves ran
                    # before the lock was taken; only the body counts.
                    pass
                elif in_lock:
                    for item in node.items:
                        yield from self._check_expr(
                            module, item.context_expr, qualname
                        )
                yield from self._walk(module, node.body, qualname, locked)
            else:
                if in_lock:
                    for child in ast.walk(node):
                        if isinstance(child, ast.Call):
                            yield from self._check_call(
                                module, child, qualname
                            )
                # Compound statements (if/for/try) contain nested
                # statements; when not under a lock we must still
                # descend to find with-blocks inside them.
                if not in_lock:
                    for field in ("body", "orelse", "finalbody"):
                        inner_body = getattr(node, field, None)
                        if inner_body:
                            yield from self._walk(
                                module, inner_body, qualname, in_lock
                            )
                    for handler in getattr(node, "handlers", []) or []:
                        yield from self._walk(
                            module, handler.body, qualname, in_lock
                        )

    def _check_expr(
        self, module: ModuleSource, expr: ast.expr, qualname: str
    ) -> Iterator[Finding]:
        for child in ast.walk(expr):
            if isinstance(child, ast.Call):
                yield from self._check_call(module, child, qualname)

    def _check_call(
        self, module: ModuleSource, call: ast.Call, qualname: str
    ) -> Iterator[Finding]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        is_sql = func.attr in SQL_METHODS
        receiver = (dotted_name(func.value) or "").lower()
        is_checkout = func.attr in _POOL_CHECKOUTS and "pool" in receiver
        if not (is_sql or is_checkout):
            return
        for suffix, allowed in IN001_ALLOWLIST:
            if _module_suffix_matches(module.path, suffix) and (
                qualname == allowed or qualname.startswith(allowed + ".")
            ):
                return
        what = "pool checkout" if is_checkout else "SQL call"
        yield self.finding(
            module,
            call,
            f"{what} '{dotted_name(func) or func.attr}' inside a lock "
            "body; run SQL outside the lock (probe under lock, SQL "
            "outside, fill under lock) or add the documented site to "
            "the IN001 allowlist",
        )


def _unguarded_self_writes(info: FunctionInfo, graph: CallGraph) -> list[str]:
    """Dotted names of ``self.*`` attributes ``info`` assigns outside
    any lock region (IN005's interprocedural payload).

    Any lock counts as a guard here — including ``guards_io`` locks —
    because IN005 is about data races, not blocking.  ``__init__`` is
    skipped (construction happens-before publication to worker
    threads), as are nested callables (analyzed under their own key),
    inventory attributes, and thread-local (``self._local.*``)
    receivers.
    """
    if info.qualname.split(".")[-1] == "__init__":
        return []
    writes: list[str] = []

    def visit(node: ast.AST, in_lock: bool) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            locked = in_lock or any(
                graph.resolve_lock(info, item.context_expr) is not None
                or _is_lock_context(item.context_expr)
                for item in node.items
            )
            for stmt in node.body:
                visit(stmt, locked)
            return
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        if not in_lock:
            for target in targets:
                base = target
                while isinstance(base, ast.Subscript):
                    base = base.value
                if not isinstance(base, ast.Attribute):
                    continue
                if base.attr in IN005_LOCKED_INVENTORY:
                    continue
                # Only bare ``self.attr`` receivers count: deeper paths
                # (``self._local.x``) are either thread-local or flagged
                # by the lexical pass on the submitted root itself.
                if (dotted_name(base.value) or "") != "self":
                    continue
                writes.append(dotted_name(base) or base.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, in_lock)

    for child in ast.iter_child_nodes(info.node):
        visit(child, False)
    return writes


@register
class NoSharedMutationInExecutorCallables(ProjectRule):
    """IN005: executor-submitted callables must not mutate shared state.

    The lexical pass checks the submitted callable's own body; the
    interprocedural pass follows the call graph from the submitted
    callable and reports helpers that assign ``self.*`` attributes
    outside any lock — the finding anchors at the *submit site*, where
    the decision to run that code on a worker thread was made.
    """

    rule_id = "IN005"
    summary = (
        "callables submitted to a ThreadPoolExecutor may not assign "
        "attributes of shared objects unless lock-protected, directly "
        "or through helpers"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            yield from self._check_module(module)
        yield from self._check_interprocedural(project)

    def _check_module(self, module: ModuleSource) -> Iterator[Finding]:
        submitted = self._submitted_callables(module.tree)
        if not submitted:
            return
        functions = self._functions_by_name(module.tree)
        for name, call_site in submitted:
            if isinstance(name, ast.Lambda):
                yield from self._check_body(
                    module, [ast.Expr(value=name.body)], "<lambda>"
                )
                continue
            target = functions.get(name)
            if target is None:
                continue
            yield from self._check_body(module, target.body, target.name)

    def _check_interprocedural(self, project: Project) -> Iterator[Finding]:
        graph = project.graph
        reported: set[tuple[str, int, int, str, str]] = set()
        for key, info in graph.functions.items():
            for node in ast.walk(info.node):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("submit", "map")
                    and node.args
                ):
                    continue
                root = graph.resolve_callable_ref(info, node.args[0])
                if root is None:
                    continue
                yield from self._check_reachable_helpers(
                    project, info, node, root, reported
                )

    def _check_reachable_helpers(
        self,
        project: Project,
        submitter: FunctionInfo,
        submit_node: ast.Call,
        root: str,
        reported: set[tuple[str, int, int, str, str]],
    ) -> Iterator[Finding]:
        graph = project.graph
        seen = {root}
        queue = [
            site.callee
            for site in graph.calls.get(root, [])
            if site.callee not in seen
        ]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            helper = graph.functions[current]
            for write in _unguarded_self_writes(helper, graph):
                anchor = (
                    submitter.module.path,
                    submit_node.lineno,
                    submit_node.col_offset,
                    helper.qualname,
                    write,
                )
                if anchor in reported:
                    continue
                reported.add(anchor)
                yield Finding(
                    path=submitter.module.path,
                    line=submit_node.lineno,
                    column=submit_node.col_offset + 1,
                    rule=self.rule_id,
                    severity=self.severity,
                    message=(
                        f"executor-submitted callable reaches "
                        f"{helper.qualname} ({helper.module.path}), "
                        f"which assigns '{write}' outside a lock; "
                        "worker threads must not mutate shared state "
                        "(guard the assignment or add the attribute to "
                        "the lock-protected inventory)"
                    ),
                )
            for site in graph.calls.get(current, []):
                if site.callee not in seen:
                    queue.append(site.callee)

    def _submitted_callables(
        self, tree: ast.Module
    ) -> list[tuple[str | ast.Lambda, ast.Call]]:
        found: list[tuple[str | ast.Lambda, ast.Call]] = []
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "map")
                and node.args
            ):
                continue
            callee = node.args[0]
            if isinstance(callee, ast.Lambda):
                found.append((callee, node))
            elif isinstance(callee, ast.Name):
                found.append((callee.id, node))
            elif isinstance(callee, ast.Attribute):
                found.append((callee.attr, node))
        return found

    def _functions_by_name(
        self, tree: ast.Module
    ) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
        functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, node)
        return functions

    def _check_body(
        self, module: ModuleSource, body: list[ast.stmt], name: str
    ) -> Iterator[Finding]:
        yield from self._walk(module, body, name, in_lock=False)

    def _walk(
        self,
        module: ModuleSource,
        body: list[ast.stmt],
        name: str,
        in_lock: bool,
    ) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, (ast.With, ast.AsyncWith)):
                locked = in_lock or any(
                    _is_lock_context(item.context_expr) for item in node.items
                )
                yield from self._walk(module, node.body, name, locked)
                continue
            if not in_lock:
                yield from self._check_stmt(module, node, name)
            for field in ("body", "orelse", "finalbody"):
                inner = getattr(node, field, None)
                if inner:
                    yield from self._walk(module, inner, name, in_lock)
            for handler in getattr(node, "handlers", []) or []:
                yield from self._walk(module, handler.body, name, in_lock)

    def _check_stmt(
        self, module: ModuleSource, stmt: ast.stmt, name: str
    ) -> Iterator[Finding]:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Expr):
            return
        for target in targets:
            base = target
            while isinstance(base, ast.Subscript):
                base = base.value
            if not isinstance(base, ast.Attribute):
                continue
            if base.attr in IN005_LOCKED_INVENTORY:
                continue
            receiver = dotted_name(base.value) or ""
            if receiver.endswith("_local") or "._local" in f".{receiver}":
                continue  # threading.local() state is per-thread
            yield self.finding(
                module,
                target,
                f"executor callable {name!r} assigns "
                f"'{dotted_name(base) or base.attr}'; submitted callables "
                "must not mutate shared state outside a lock (add the "
                "attribute to the lock-protected inventory if it is "
                "guarded)",
            )
