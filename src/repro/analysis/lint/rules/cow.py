"""No in-place mutation of shared summary objects.

IN004 — summary objects returned by the catalog and manager caches are
*shared*: the same live object is handed to every concurrent query that
touches the row.  So are query-time values: ``for_query()`` returns one
value cached on the stored object, and ``without()``/``merge()`` results
share every group or set they did not rebuild; ``row.summary(name)``
returns such a value too.  Engine operators must never mutate either
kind in place — they project with ``without()`` (through the row's
pending drop set) and combine with ``merge()``, or mutate a ``copy()``.
The rule tracks,
within each function in ``engine/`` modules, names bound from cache
getters and value methods and flags attribute assignment or
mutating-method calls on them unless a copy was interposed.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.lint.framework import (
    Finding,
    ModuleSource,
    Rule,
    register,
)

#: Getters returning one shared object, and the methods returning values.
OBJECT_GETTERS = frozenset(
    {"load_object", "current_object", "for_query", "without", "merge", "summary"}
)

#: Getters returning a mapping of shared objects.
BULK_GETTERS = frozenset({"load_objects_for_table", "objects_for_rows"})

#: Copies that make an object private to this query.
COPY_METHODS = frozenset({"copy"})

#: In-place mutations of a summary object (or its containers).
MUTATING_METHODS = frozenset(
    {
        "remove_annotations",
        "fold",
        "fold_many",
        "add_entry",
        "rerank_groups",
        "merge_from",
        "add_annotation",
        "clear",
        "rerank",
        "update",
        "append",
        "extend",
        "add",
        "discard",
        "pop",
        "popitem",
        "remove",
        "insert",
        "setdefault",
    }
)

#: The rule only applies where shared objects cross into query
#: processing; maintenance code (the write path) mutates caches by design.
_ENGINE_PATH_MARKERS = ("/engine/", "/zoomin/")

_OBJ = "object"
_MAP = "mapping"


@register
class CopyOnWriteSummaries(Rule):
    """IN004: no in-place mutation of shared summary objects or values."""

    rule_id = "IN004"
    summary = (
        "engine operators must not mutate a cache-shared summary object or "
        "a for_query()/without()/merge() value; project with without(), "
        "combine with merge(), or mutate a copy()"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not any(marker in module.path for marker in _ENGINE_PATH_MARKERS):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _check_function(
        self,
        module: ModuleSource,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        taints: dict[str, str] = {}
        yield from self._walk(module, function.body, taints)

    def _walk(
        self,
        module: ModuleSource,
        body: list[ast.stmt],
        taints: dict[str, str],
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested scope: fresh analysis elsewhere
            yield from self._check_stmt(module, stmt, taints)
            if isinstance(stmt, ast.For):
                self._taint_loop_target(stmt, taints)
            for field in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, field, None)
                if inner:
                    yield from self._walk(module, inner, taints)
            for handler in getattr(stmt, "handlers", []) or []:
                yield from self._walk(module, handler.body, taints)

    # -- taint bookkeeping ---------------------------------------------

    def _taint_of_expr(
        self, node: ast.expr, taints: dict[str, str]
    ) -> str | None:
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            attr = node.func.attr
            if attr in OBJECT_GETTERS:
                return _OBJ
            if attr in BULK_GETTERS:
                return _MAP
            if attr in COPY_METHODS:
                return None  # copies are private — never tainted
            receiver = node.func.value
            if (
                isinstance(receiver, ast.Name)
                and taints.get(receiver.id) == _MAP
                and attr == "get"
            ):
                return _OBJ
        if isinstance(node, ast.Subscript):
            base = node.value
            if isinstance(base, ast.Name) and taints.get(base.id) == _MAP:
                return _OBJ
        if isinstance(node, ast.Name):
            return taints.get(node.id)
        if isinstance(node, ast.IfExp):
            return self._taint_of_expr(
                node.body, taints
            ) or self._taint_of_expr(node.orelse, taints)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                taint = self._taint_of_expr(value, taints)
                if taint is not None:
                    return taint
        return None

    def _taint_loop_target(
        self, stmt: ast.For, taints: dict[str, str]
    ) -> None:
        """``for obj in mapping.values()`` / ``for k, obj in .items()``."""
        iterator = stmt.iter
        if not (
            isinstance(iterator, ast.Call)
            and isinstance(iterator.func, ast.Attribute)
            and isinstance(iterator.func.value, ast.Name)
            and taints.get(iterator.func.value.id) == _MAP
        ):
            return
        attr = iterator.func.attr
        target = stmt.target
        if attr == "values" and isinstance(target, ast.Name):
            taints[target.id] = _OBJ
        elif (
            attr == "items"
            and isinstance(target, ast.Tuple)
            and len(target.elts) == 2
            and isinstance(target.elts[1], ast.Name)
        ):
            taints[target.elts[1].id] = _OBJ

    # -- violations ----------------------------------------------------

    def _check_stmt(
        self, module: ModuleSource, stmt: ast.stmt, taints: dict[str, str]
    ) -> Iterator[Finding]:
        if isinstance(stmt, ast.Assign):
            taint = self._taint_of_expr(stmt.value, taints)
            for target in stmt.targets:
                yield from self._check_target(module, target, taints)
                if isinstance(target, ast.Name):
                    if taint is None:
                        taints.pop(target.id, None)
                    else:
                        taints[target.id] = taint
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            taint = self._taint_of_expr(stmt.value, taints)
            if isinstance(stmt.target, ast.Name):
                if taint is None:
                    taints.pop(stmt.target.id, None)
                else:
                    taints[stmt.target.id] = taint
        elif isinstance(stmt, ast.AugAssign):
            yield from self._check_target(module, stmt.target, taints)
        elif isinstance(stmt, ast.Expr):
            yield from self._check_mutating_call(module, stmt.value, taints)

    def _check_target(
        self, module: ModuleSource, target: ast.expr, taints: dict[str, str]
    ) -> Iterator[Finding]:
        base = target
        while isinstance(base, (ast.Attribute, ast.Subscript)):
            base = base.value
        if (
            isinstance(base, ast.Name)
            and taints.get(base.id) == _OBJ
            and base is not target
        ):
            yield self.finding(
                module,
                target,
                f"assignment into {base.id!r}, a shared summary object or "
                "for_query() value; project it with without(), combine it "
                f"with merge(), or assign into {base.id}.copy()",
            )

    def _check_mutating_call(
        self, module: ModuleSource, expr: ast.expr, taints: dict[str, str]
    ) -> Iterator[Finding]:
        if not (
            isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)
        ):
            return
        attr = expr.func.attr
        if attr not in MUTATING_METHODS:
            return
        base = expr.func.value
        while isinstance(base, (ast.Attribute, ast.Subscript)):
            base = base.value
        if isinstance(base, ast.Name) and taints.get(base.id) in (_OBJ, _MAP):
            yield self.finding(
                module,
                expr,
                f"call to {attr}() mutates {base.id!r}, a shared summary "
                "object or for_query() value, in place; project it with "
                f"without(), combine it with merge(), or mutate {base.id}.copy()",
            )
