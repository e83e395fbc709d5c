"""The built-in insightlint rule set.

Importing this package registers every rule with the framework registry
(:func:`repro.analysis.lint.framework.all_rules` does so lazily).

==========  ==========================================================
IN001       no SQL / pool checkout while holding a threading lock
            (lexical + interprocedural over the project call graph)
IN002       sqlite3.connect only in storage/pool.py
IN003       parameterized SQL only; identifiers via sqlsafe helpers
IN004       no in-place mutation of shared summaries or query values
IN005       no shared-state mutation from executor-submitted callables
            (lexical + interprocedural through helper calls)
IN006       no silent broad excepts
IN007       lock acquisition order must be globally consistent (a
            cycle in the static order graph is a potential deadlock)
IN008       no unbounded blocking call while holding a lock
            (guards_io locks exempt)
==========  ==========================================================
"""

from repro.analysis.lint.rules import cow, exceptions, interlock, locks, sql

__all__ = ["cow", "exceptions", "interlock", "locks", "sql"]
