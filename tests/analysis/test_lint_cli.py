"""CLI-level tests for ``python -m repro.analysis.lint``.

Exercise the exit-code contract (0 clean / 1 findings / 2 usage), both
report formats, ``--output`` and ``--rules`` on temporary trees — plus
one subprocess test proving the module entry point works the way CI
invokes it.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN_SOURCE = textwrap.dedent(
    """
    def fetch(conn, row_id):
        return conn.execute("SELECT * FROM birds WHERE rowid = ?", (row_id,))
    """
)

BAD_SOURCE = textwrap.dedent(
    """
    def fetch(conn, table):
        return conn.execute(f"SELECT * FROM {table}")
    """
)


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A temp working tree; lint paths live here."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_module(tree: Path, name: str, source: str) -> Path:
    target = tree / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return target


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        write_module(tree, "pkg/clean.py", CLEAN_SOURCE)
        assert main(["pkg"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_one(self, tree, capsys):
        write_module(tree, "pkg/bad.py", BAD_SOURCE)
        assert main(["pkg"]) == 1
        out = capsys.readouterr().out
        assert "IN003" in out
        assert "pkg/bad.py" in out

    def test_unparseable_file_exits_one(self, tree, capsys):
        write_module(tree, "pkg/broken.py", "def broken(:\n")
        assert main(["pkg"]) == 1
        assert "IN000" in capsys.readouterr().out

    def test_missing_path_is_a_usage_error(self, tree):
        with pytest.raises(SystemExit) as excinfo:
            main(["no/such/dir"])
        assert excinfo.value.code == 2


class TestFormats:
    def test_json_report_shape(self, tree, capsys):
        write_module(tree, "pkg/bad.py", BAD_SOURCE)
        assert main(["pkg", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["summary"]["failed"] is True
        assert payload["summary"]["files_checked"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "IN003"
        assert finding["path"] == "pkg/bad.py"
        assert finding["line"] >= 1

    def test_output_writes_report_file_and_prints_summary(
        self, tree, capsys
    ):
        write_module(tree, "pkg/bad.py", BAD_SOURCE)
        report_path = tree / "report.json"
        code = main(
            ["pkg", "--format", "json", "--output", str(report_path)]
        )
        assert code == 1
        payload = json.loads(report_path.read_text())
        assert payload["summary"]["findings"] == 1
        assert "1 finding(s)" in capsys.readouterr().out

    def test_list_rules_names_all_eight(self, tree, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "IN001",
            "IN002",
            "IN003",
            "IN004",
            "IN005",
            "IN006",
            "IN007",
            "IN008",
        ):
            assert rule_id in out


class TestRuleSelection:
    def test_rules_flag_restricts_the_rule_set(self, tree, capsys):
        write_module(tree, "pkg/bad.py", BAD_SOURCE)
        # The file violates IN003 but not IN006 — restricting to IN006
        # must pass, restricting to IN003 must fail.
        assert main(["pkg", "--rules", "IN006"]) == 0
        capsys.readouterr()
        assert main(["pkg", "--rules", "IN003"]) == 1
        assert "IN003" in capsys.readouterr().out

    def test_unknown_rule_id_is_a_usage_error(self, tree, capsys):
        write_module(tree, "pkg/clean.py", CLEAN_SOURCE)
        assert main(["pkg", "--rules", "IN999"]) == 2
        assert "unknown rule ids" in capsys.readouterr().err


def test_module_entry_point_subprocess(tmp_path):
    """``python -m repro.analysis.lint`` exits non-zero on a known-bad
    fixture — the exact invocation the CI self-check step performs."""
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SOURCE)
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", str(bad)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert completed.returncode == 1
    assert "IN003" in completed.stdout
