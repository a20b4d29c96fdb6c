"""End-to-end CLI tests: exit codes, JSON output, explain, cache flags."""

import json
import os
import subprocess
import sys
from pathlib import Path

from .conftest import write_module

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_RNG = "import random\n\n\ndef draw():\n    return random.random()\n"
CLEAN = "def double(x):\n    return 2 * x\n"


def reprolint(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


class TestGateExitCodes:
    def test_seeded_violation_exits_nonzero(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/bad.py", BAD_RNG)
        proc = reprolint("--jobs", "1", cwd=tmp_repo)
        assert proc.returncode == 1
        assert "DET002" in proc.stdout
        assert "random.random" in proc.stdout

    def test_clean_tree_exits_zero(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/ok.py", CLEAN)
        proc = reprolint("--jobs", "1", cwd=tmp_repo)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_unknown_rule_is_usage_error(self, tmp_repo):
        proc = reprolint("--rules", "NOPE999", cwd=tmp_repo)
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr

    def test_list_rules_names_all_builtins(self, tmp_repo):
        proc = reprolint("--list-rules", cwd=tmp_repo)
        assert proc.returncode == 0
        for rule in ("DET001", "DET002", "DET003",
                     "CTX001", "CTX002", "SIM001", "SUP001"):
            assert rule in proc.stdout


class TestJsonOutput:
    def test_output_file_carries_the_report(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/bad.py", BAD_RNG)
        out = tmp_repo / "reprolint.json"
        proc = reprolint(
            "--format", "json", "--output", str(out), "--jobs", "1",
            cwd=tmp_repo,
        )
        assert proc.returncode == 1
        data = json.loads(out.read_text())
        assert data["schema"] == "reprolint-v2"
        assert data["ok"] is False
        assert data["counts"]["errors"] == 1
        assert data["findings"][0]["rule"] == "DET002"
        # stdout keeps the one-line summary for CI logs
        assert proc.stdout.strip().startswith("reprolint:")

    def test_paths_in_report_are_repo_relative(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/bad.py", BAD_RNG)
        proc = reprolint("--format", "json", "--jobs", "1", cwd=tmp_repo)
        data = json.loads(proc.stdout)
        assert data["findings"][0]["path"] == "src/repro/sim/bad.py"


class TestExplain:
    def test_every_rule_explains(self, tmp_path):
        import repro.analysis.checkers  # noqa: F401 — registers everything
        from repro.analysis.registry import all_rule_ids, explain_rule

        for rule in all_rule_ids():
            text = explain_rule(rule)
            assert rule in text
            assert "protects:" in text
            assert "Violating example" in text, rule
            assert "Sanctioned fix" in text, rule

    def test_explain_prints_invariant_example_and_fix(self, tmp_path):
        proc = reprolint("--explain", "SEED001", cwd=tmp_path)
        assert proc.returncode == 0
        assert "SEED001" in proc.stdout
        assert "Violating example::" in proc.stdout
        assert "Sanctioned fix::" in proc.stdout

    def test_explain_whole_program_rules_say_so(self, tmp_path):
        proc = reprolint("--explain", "DET004", cwd=tmp_path)
        assert proc.returncode == 0
        assert "whole-program" in proc.stdout

    def test_explain_unknown_rule_is_usage_error(self, tmp_path):
        proc = reprolint("--explain", "NOPE999", cwd=tmp_path)
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr


class TestSarifOutput:
    def test_sarif_format_emits_valid_log(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/bad.py", BAD_RNG)
        out = tmp_repo / "reprolint.sarif"
        proc = reprolint(
            "--format", "sarif", "--output", str(out), "--jobs", "1",
            cwd=tmp_repo,
        )
        assert proc.returncode == 1  # findings still gate the exit code
        log = json.loads(out.read_text())
        assert log["version"] == "2.1.0"
        results = log["runs"][0]["results"]
        assert results[0]["ruleId"] == "DET002"
        rule_ids = {r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]}
        assert {"DET004", "SEED001", "PKL001", "PAR001"} <= rule_ids


class TestCacheFlags:
    def test_default_run_writes_repo_root_cache(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/ok.py", CLEAN)
        assert reprolint("--jobs", "1", cwd=tmp_repo).returncode == 0
        assert (tmp_repo / ".reprolint-cache.json").exists()

    def test_no_cache_leaves_no_file(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/ok.py", CLEAN)
        assert reprolint("--no-cache", "--jobs", "1",
                         cwd=tmp_repo).returncode == 0
        assert not (tmp_repo / ".reprolint-cache.json").exists()

    def test_cache_path_override(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/ok.py", CLEAN)
        target = tmp_repo / "build" / "lint-cache.json"
        proc = reprolint("--cache", str(target), "--jobs", "1", cwd=tmp_repo)
        assert proc.returncode == 0
        assert target.exists()
        assert not (tmp_repo / ".reprolint-cache.json").exists()
