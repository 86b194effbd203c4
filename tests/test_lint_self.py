"""The self-check: the shipped tree is lint-clean through the real CLI,
and the known-bad fixture fails it — exactly what CI gates on."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.base import rule_ids

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


@pytest.fixture(scope="module")
def json_scan() -> subprocess.CompletedProcess:
    """One default-scope ``--format json`` run, shared by the tests reading it."""
    return run_cli("--format", "json")


class TestSelfCheck:
    def test_repo_is_lint_clean(self, json_scan):
        assert json_scan.returncode == 0, json_scan.stdout + json_scan.stderr
        assert json.loads(json_scan.stdout)["clean"] is True
        # The text rendering of a clean verdict, checked on one file so the
        # tree is not scanned a second time.
        result = run_cli("src/repro/__init__.py")
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.startswith("clean — 1 files")

    def test_bad_fixture_fails_the_gate(self):
        result = run_cli("tests/fixtures/lint_bad.py")
        assert result.returncode == 1, result.stdout + result.stderr
        # The fixture exercises one rule per determinism family plus the
        # frozen and pragma meta checks.
        for rule_id in (
            "REPRO-D101",
            "REPRO-D102",
            "REPRO-D103",
            "REPRO-D104",
            "REPRO-F301",
            "REPRO-A001",
        ):
            assert rule_id in result.stdout, rule_id

    def test_bad_fixture_is_excluded_from_default_scan(self, json_scan):
        assert json_scan.returncode == 0
        payload = json.loads(json_scan.stdout)
        scanned_bad = [
            row
            for row in payload["findings"] + payload["suppressed"]
            if "lint_bad" in row["path"]
        ]
        assert not scanned_bad

    def test_json_report_shape(self, json_scan):
        payload = json.loads(json_scan.stdout)
        assert payload["clean"] is True
        assert payload["files_scanned"] > 100
        assert payload["rules_run"] == len(rule_ids())
        # The shipped suppressions are all reasoned.
        assert payload["suppressed"]
        for row in payload["suppressed"]:
            assert row["suppression_reason"]

    def test_list_rules_covers_every_id(self):
        result = run_cli("--list-rules")
        assert result.returncode == 0
        for rule_id in rule_ids():
            assert rule_id in result.stdout

    def test_usage_error_on_unknown_path(self):
        result = run_cli("no/such/path.py")
        assert result.returncode == 2
