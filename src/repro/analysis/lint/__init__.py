"""insightlint — AST-based invariant checking for the engine's disciplines.

The concurrency, SQL-safety, and summary-value conventions that keep the
engine correct (DESIGN.md §6–§9) are enforced mechanically here instead
of by reviewers re-deriving them per diff.  See DESIGN.md §10 for the
rule catalogue and the suppression syntax.

Public API: :func:`lint_source` (hermetic, for tests), :func:`run_lint`
(the CLI driver), :func:`all_rules`.
"""

from repro.analysis.lint.framework import (
    ALL_RULES,
    Finding,
    LintReport,
    ModuleSource,
    Rule,
    all_rules,
    lint_source,
    register,
    run_lint,
)

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintReport",
    "ModuleSource",
    "Rule",
    "all_rules",
    "lint_source",
    "register",
    "run_lint",
]
