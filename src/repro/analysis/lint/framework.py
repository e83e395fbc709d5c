"""The insightlint core: findings, rule registry, suppression, baseline.

The engine's correctness under concurrency rests on conventions that no
general-purpose linter knows about — probe-under-lock / SQL-outside-lock,
pool-only database access, parameterized-only SQL, no in-place mutation
of shared summary objects or of query-time values (project with
``without()``, combine with ``merge()``).  ``insightlint``
turns those conventions into machine-checked rules over Python's ``ast``
(the same move the InsightNotes engine makes with invariant properties:
declare the discipline once, enforce it mechanically everywhere).

Layout
------
* :class:`Finding` — one rule violation at one source location;
* :class:`Rule` — the rule contract; concrete rules live in
  :mod:`repro.analysis.lint.rules` and self-register via :func:`register`;
* :class:`ModuleSource` — a parsed module plus its per-line suppressions;
* :class:`Baseline` — grandfathered findings, keyed ``rule::path`` with a
  count (line numbers churn too much to key on);
* :func:`run_lint` — the driver the CLI and the tests share.

Suppression
-----------
A trailing comment silences specific rules on that line::

    cursor.execute(sql)  # insightlint: disable=IN003 -- fragment is vetted

A comment alone on a line applies to the *next* line.  ``disable`` with
no rule list silences every rule.  Suppressions are for sites where the
invariant provably holds but the lexical analysis cannot see it; the
baseline is for grandfathered debt that should shrink, never grow.
"""

from __future__ import annotations

import abc
import ast
import io
import json
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:
    from repro.analysis.lint.callgraph import Project

#: Marker meaning "all rules suppressed on this line".
ALL_RULES = "*"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    column: int
    rule: str
    severity: str
    message: str

    def key(self) -> str:
        """The baseline key — stable across unrelated line churn."""
        return f"{self.rule}::{self.path}"

    def to_json(self) -> dict[str, object]:
        """Plain-dict view for the ``--format json`` report."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }

    def render(self) -> str:
        """The ``--format text`` line."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )


class ModuleSource:
    """A module under analysis: path, text, tree, and suppressed lines."""

    def __init__(self, path: str, text: str, tree: ast.Module) -> None:
        self.path = path
        self.text = text
        self.tree = tree
        self.lines = text.splitlines()
        self.suppressions = _parse_suppressions(text)

    def suppressed(self, rule_id: str, line: int) -> bool:
        """True when ``rule_id`` is disabled on ``line``."""
        rules = self.suppressions.get(line)
        return rules is not None and (ALL_RULES in rules or rule_id in rules)


def _parse_suppressions(text: str) -> dict[int, frozenset[str]]:
    """Map line numbers to the rule ids disabled there.

    Uses the tokenizer (not a regex over raw lines) so directives inside
    string literals are never misread as comments.  A comment that is the
    only token on its line applies to the next line instead.
    """
    suppressions: dict[int, set[str]] = {}
    code_lines: set[int] = set()
    comments: list[tuple[int, str]] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return {}
    for token in tokens:
        if token.type == tokenize.COMMENT:
            comments.append((token.start[0], token.string))
        elif token.type not in (
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
        ):
            code_lines.add(token.start[0])
    for line, comment in comments:
        rules = _parse_directive(comment)
        if rules is None:
            continue
        target = line if line in code_lines else line + 1
        suppressions.setdefault(target, set()).update(rules)
    return {line: frozenset(rules) for line, rules in suppressions.items()}


def _parse_directive(comment: str) -> set[str] | None:
    """Rule ids from an ``# insightlint: disable=...`` comment, or None."""
    body = comment.lstrip("#").strip()
    if not body.startswith("insightlint:"):
        return None
    directive = body[len("insightlint:") :].strip()
    if not directive.startswith("disable"):
        return None
    directive = directive[len("disable") :]
    if not directive.startswith("="):
        return {ALL_RULES}
    # Everything up to whitespace after the '=' is the rule list; the
    # rest of the comment is free-form justification.
    listed = directive[1:].split()[0] if directive[1:].split() else ""
    rules = {rule.strip() for rule in listed.split(",") if rule.strip()}
    return rules or {ALL_RULES}


class Rule(abc.ABC):
    """One invariant checker.  Subclasses set the class attributes and
    implement :meth:`check`; registration is via :func:`register`."""

    rule_id: ClassVar[str]
    severity: ClassVar[str] = "error"
    summary: ClassVar[str]

    @abc.abstractmethod
    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Yield findings for ``module``."""

    def finding(
        self, module: ModuleSource, node: ast.AST, message: str
    ) -> Finding:
        """A finding anchored at ``node``."""
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            severity=self.severity,
            message=message,
        )


class ProjectRule(Rule):
    """A rule that needs the whole project (call graph, lock map).

    Subclasses implement :meth:`check_project`; the inherited
    :meth:`check` wraps a lone module in a single-module project, so
    ``lint_source`` fixtures exercise the interprocedural machinery
    without touching the filesystem.
    """

    @abc.abstractmethod
    def check_project(self, project: Project) -> Iterator[Finding]:
        """Yield findings across the whole project."""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        from repro.analysis.lint.callgraph import Project as _Project

        yield from self.check_project(_Project([module]))


_REGISTRY: dict[str, Rule] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register a rule."""
    instance = rule_class()
    if rule_class.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id: {rule_class.rule_id}")
    _REGISTRY[rule_class.rule_id] = instance
    return rule_class


def all_rules() -> dict[str, Rule]:
    """The registered rules, importing the built-in set on first use."""
    from repro.analysis.lint import rules as _builtin  # noqa: F401

    return dict(_REGISTRY)


# -- helpers shared by the rule implementations -------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# -- baseline ----------------------------------------------------------


class Baseline:
    """Grandfathered findings: ``rule::path`` keys with allowed counts.

    The format deliberately omits line numbers so unrelated edits do not
    invalidate entries; a file either still carries N grandfathered
    violations of a rule or it does not.  ``apply`` consumes allowances
    first-come (file order), so newly added violations in a baselined
    file still surface once the allowance is spent.
    """

    VERSION = 1

    def __init__(self, entries: dict[str, int] | None = None) -> None:
        self.entries = dict(entries or {})

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        if not path.exists():
            return cls()
        data = json.loads(path.read_text())
        if data.get("version") != cls.VERSION:
            raise ValueError(
                f"unsupported baseline version {data.get('version')!r} "
                f"in {path} (expected {cls.VERSION})"
            )
        entries = data.get("entries", {})
        if not isinstance(entries, dict) or not all(
            isinstance(count, int) and count > 0 for count in entries.values()
        ):
            raise ValueError(f"malformed baseline entries in {path}")
        return cls(entries)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        """A baseline grandfathering exactly the given findings."""
        entries: dict[str, int] = {}
        for finding in findings:
            entries[finding.key()] = entries.get(finding.key(), 0) + 1
        return cls(entries)

    def save(self, path: Path) -> None:
        """Write the baseline file (sorted keys, stable diffs)."""
        payload = {
            "version": self.VERSION,
            "entries": dict(sorted(self.entries.items())),
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")

    def merged_with(
        self, findings: Iterable[Finding], linted_paths: Iterable[str]
    ) -> "Baseline":
        """A new baseline with linted paths rebuilt from ``findings``.

        Entries whose path was linted are replaced by the observed
        counts — so allowances *shrink* (or vanish) when violations are
        fixed — while entries for paths outside the linted set are
        preserved untouched.  This is the ``--fix-baseline`` semantics:
        refreshing from a subset of the tree must never wipe other
        files' grandfathered debt, and fixing a violation must never
        leave a stale allowance behind for the next regression to hide
        under.
        """
        linted = set(linted_paths)
        entries = {
            key: count
            for key, count in self.entries.items()
            if key.split("::", 1)[-1] not in linted
        }
        entries.update(Baseline.from_findings(findings).entries)
        return Baseline(entries)

    def apply(
        self, findings: Sequence[Finding]
    ) -> tuple[list[Finding], list[Finding]]:
        """Split findings into ``(fresh, grandfathered)``."""
        remaining = dict(self.entries)
        fresh: list[Finding] = []
        grandfathered: list[Finding] = []
        for finding in findings:
            if remaining.get(finding.key(), 0) > 0:
                remaining[finding.key()] -= 1
                grandfathered.append(finding)
            else:
                fresh.append(finding)
        return fresh, grandfathered


# -- driver ------------------------------------------------------------


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding]
    grandfathered: list[Finding]
    suppressed: int
    files_checked: int
    parse_errors: list[Finding]
    #: repo-relative paths actually parsed this run (what --fix-baseline
    #: may rebuild; entries for other paths must be preserved)
    checked_paths: set[str] = dataclass_field(default_factory=set)

    @property
    def failed(self) -> bool:
        """True when any fresh error-severity finding remains."""
        return any(f.severity == "error" for f in self.findings) or bool(
            self.parse_errors
        )


def collect_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(
                candidate
                for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts
            )
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def relative_path(path: Path, root: Path | None = None) -> str:
    """Repo-relative posix path when possible (stable baseline keys)."""
    base = root or Path.cwd()
    try:
        return path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_source(
    source: str,
    path: str = "module.py",
    rule_ids: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint an in-memory module — the hermetic entry point the rule tests
    use (fixtures stay inline strings, never repo files).

    Project rules see a single-module project, so inline fixtures
    exercise the interprocedural rules too.
    """
    tree = ast.parse(source)
    module = ModuleSource(path, source, tree)
    rules = all_rules()
    selected = (
        [rules[rule_id] for rule_id in rule_ids] if rule_ids else rules.values()
    )
    findings = [
        finding
        for rule in selected
        for finding in rule.check(module)
        if not module.suppressed(finding.rule, finding.line)
    ]
    return sorted(findings)


def _parse_one(
    file_path: Path, root: Path | None
) -> tuple[ModuleSource | None, Finding | None]:
    """Parse one file into a module, or a parse-error finding."""
    rel = relative_path(file_path, root)
    text = file_path.read_text()
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        return None, Finding(
            path=rel,
            line=exc.lineno or 1,
            column=(exc.offset or 0) + 1,
            rule="IN000",
            severity="error",
            message=f"file does not parse: {exc.msg}",
        )
    return ModuleSource(rel, text, tree), None


def parse_modules(
    files: Sequence[Path],
    root: Path | None = None,
    jobs: int | None = None,
) -> tuple[list[ModuleSource], list[Finding]]:
    """Parse ``files`` (in parallel when ``jobs`` allows) into modules.

    Parsing dominates lint wall-clock and ``ast.parse`` releases the
    GIL while tokenizing, so a small thread pool gives a real speedup;
    results come back in input order regardless of completion order.
    """
    if jobs is None:
        jobs = min(8, len(files)) or 1
    modules: list[ModuleSource] = []
    parse_errors: list[Finding] = []
    if jobs <= 1 or len(files) <= 1:
        parsed = [_parse_one(file_path, root) for file_path in files]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parsed = list(
                pool.map(lambda file_path: _parse_one(file_path, root), files)
            )
    for module, error in parsed:
        if module is not None:
            modules.append(module)
        if error is not None:
            parse_errors.append(error)
    return modules, parse_errors


def run_lint(
    paths: Sequence[Path],
    baseline: Baseline | None = None,
    root: Path | None = None,
    rule_ids: Sequence[str] | None = None,
    report_paths: set[str] | None = None,
    jobs: int | None = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths``.

    ``baseline`` (when given) moves grandfathered findings out of the
    failing set; ``root`` anchors the repo-relative paths used in
    findings and baseline keys (defaults to the current directory).
    ``rule_ids`` restricts the rule set; ``report_paths`` (when given)
    restricts *reported* findings to those repo-relative paths while
    still parsing and analyzing everything — the ``--changed-only``
    quick path, which must keep the whole project visible or the
    interprocedural rules would miss cross-file effects.  ``jobs``
    bounds the parallel parse pool.
    """
    from repro.analysis.lint.callgraph import Project

    rules = all_rules()
    if rule_ids is not None:
        unknown = [rule_id for rule_id in rule_ids if rule_id not in rules]
        if unknown:
            raise ValueError(f"unknown rule ids: {', '.join(unknown)}")
        rules = {rule_id: rules[rule_id] for rule_id in rule_ids}
    module_rules = [
        rule for rule in rules.values() if not isinstance(rule, ProjectRule)
    ]
    project_rules = [
        rule for rule in rules.values() if isinstance(rule, ProjectRule)
    ]

    files = collect_files(paths)
    modules, parse_errors = parse_modules(files, root, jobs)
    by_path = {module.path: module for module in modules}

    findings: list[Finding] = []
    suppressed = 0

    def admit(module: ModuleSource | None, finding: Finding) -> None:
        nonlocal suppressed
        if module is not None and module.suppressed(
            finding.rule, finding.line
        ):
            suppressed += 1
            return
        if report_paths is not None and finding.path not in report_paths:
            return
        findings.append(finding)

    for module in modules:
        for rule in module_rules:
            for finding in rule.check(module):
                admit(module, finding)
    if project_rules:
        project = Project(modules)
        for rule in project_rules:
            for finding in rule.check_project(project):
                admit(by_path.get(finding.path), finding)

    if report_paths is not None:
        parse_errors = [
            error for error in parse_errors if error.path in report_paths
        ]
    findings.sort()
    grandfathered: list[Finding] = []
    if baseline is not None:
        findings, grandfathered = baseline.apply(findings)
    return LintReport(
        findings=findings,
        grandfathered=grandfathered,
        suppressed=suppressed,
        files_checked=len(files),
        parse_errors=parse_errors,
        checked_paths={relative_path(file_path, root) for file_path in files},
    )
