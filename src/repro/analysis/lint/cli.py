"""The insightlint command line.

Usage::

    PYTHONPATH=src python -m repro.analysis.lint [paths...]
        [--format text|json] [--output PATH]
        [--rules IN001,IN007] [--list-rules]

Exit status is 0 when no unsuppressed error-severity finding remains, 1
otherwise, and 2 for usage errors (missing path, unknown rule).
``--format json`` emits a machine-readable report — CI uploads it as an
artifact — while ``--output`` writes the report to a file and keeps the
human summary on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.lint.framework import LintReport, all_rules, run_lint


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="AST-based invariant checker for the InsightNotes engine",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the report to a file instead of stdout "
        "(a one-line summary still prints)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _render_text(report: LintReport) -> str:
    lines = [finding.render() for finding in report.parse_errors]
    lines += [finding.render() for finding in report.findings]
    lines.append(_summary_line(report))
    return "\n".join(lines)


def _render_json(report: LintReport) -> str:
    payload = {
        "version": 1,
        "findings": [
            finding.to_json()
            for finding in (*report.parse_errors, *report.findings)
        ],
        "summary": {
            "files_checked": report.files_checked,
            "findings": len(report.findings) + len(report.parse_errors),
            "suppressed": report.suppressed,
            "failed": report.failed,
        },
    }
    return json.dumps(payload, indent=2)


def _summary_line(report: LintReport) -> str:
    total = len(report.findings) + len(report.parse_errors)
    return (
        f"insightlint: {total} finding(s) across "
        f"{report.files_checked} file(s) "
        f"({report.suppressed} suppressed)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, rule in sorted(all_rules().items()):
            print(f"{rule_id}  [{rule.severity}]  {rule.summary}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path: {', '.join(map(str, missing))}")

    rule_ids = None
    if args.rules is not None:
        rule_ids = [
            rule_id.strip()
            for rule_id in args.rules.split(",")
            if rule_id.strip()
        ]

    try:
        report = run_lint(paths, rule_ids=rule_ids)
    except ValueError as exc:
        print(f"insightlint: {exc}", file=sys.stderr)
        return 2
    rendered = (
        _render_json(report) if args.format == "json" else _render_text(report)
    )
    if args.output is not None:
        args.output.write_text(rendered + "\n")
        print(_summary_line(report))
    else:
        print(rendered)
    return 1 if report.failed else 0
