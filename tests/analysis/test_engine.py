"""The engine: discovery, parallel == serial, SYNTAX."""

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.engine import discover_files, find_repo_root, run_analysis

from .conftest import write_module

BAD_RNG = "import random\n\n\ndef draw():\n    return random.random()\n"
CLEAN = "def double(x):\n    return 2 * x\n"


class TestDiscovery:
    def test_files_sorted_by_relpath(self, tmp_repo):
        write_module(tmp_repo, "src/repro/zz.py", CLEAN)
        write_module(tmp_repo, "src/repro/aa.py", CLEAN)
        rels = [rel for _, rel in discover_files(tmp_repo)]
        assert rels == ["src/repro/aa.py", "src/repro/zz.py"]

    def test_pycache_and_fixture_tree_excluded(self, tmp_repo):
        write_module(tmp_repo, "src/repro/__pycache__/junk.py", CLEAN)
        write_module(tmp_repo, "tests/analysis/fixtures/bad.py", BAD_RNG)
        write_module(tmp_repo, "src/repro/ok.py", CLEAN)
        rels = [rel for _, rel in discover_files(tmp_repo)]
        assert rels == ["src/repro/ok.py"]

    def test_explicit_paths_narrow_the_scan(self, tmp_repo):
        write_module(tmp_repo, "src/repro/a.py", CLEAN)
        write_module(tmp_repo, "src/repro/b.py", CLEAN)
        rels = [rel for _, rel in discover_files(tmp_repo, ["src/repro/b.py"])]
        assert rels == ["src/repro/b.py"]

    def test_find_repo_root_walks_up_to_pyproject(self, tmp_repo):
        nested = tmp_repo / "src" / "repro"
        assert find_repo_root(nested) == tmp_repo


class TestRunAnalysis:
    def test_seeded_violation_fails_the_gate(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/bad.py", BAD_RNG)
        result = run_analysis(tmp_repo)
        assert not result.ok
        assert [f.rule for f in result.errors] == ["DET002"]

    def test_clean_tree_passes(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/ok.py", CLEAN)
        result = run_analysis(tmp_repo)
        assert result.ok
        assert result.files_scanned == 1

    def test_unparseable_file_is_a_syntax_finding(self, tmp_repo):
        write_module(tmp_repo, "src/repro/broken.py", "def f(:\n")
        result = run_analysis(tmp_repo)
        assert [f.rule for f in result.errors] == ["SYNTAX"]

    def test_baseline_is_applied(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/bad.py", BAD_RNG)
        baseline = Baseline([BaselineEntry(
            rule="DET002", path="src/repro/sim/bad.py",
            key="random.random", reason="fixture",
        )])
        result = run_analysis(tmp_repo, baseline=baseline)
        assert result.ok
        assert len(result.baselined) == 1

    def test_rule_selection_narrows_the_run(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/bad.py", BAD_RNG)
        result = run_analysis(tmp_repo, rules=["CTX001"])
        assert result.ok  # the DET002 violation is out of selection

    def test_parallel_equals_serial(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/bad.py", BAD_RNG)
        write_module(tmp_repo, "src/repro/sim/worse.py", BAD_RNG + "\nS = {1}\nfor v in S:\n    pass\n")
        for i in range(6):
            write_module(tmp_repo, f"src/repro/mod{i}.py", CLEAN)
        serial = run_analysis(tmp_repo, jobs=1)
        parallel = run_analysis(tmp_repo, jobs=4)
        assert serial.findings == parallel.findings
        assert serial.files_scanned == parallel.files_scanned


class TestStaleScoping:
    """Staleness is only judged where the run actually looked."""

    ENTRY = BaselineEntry(
        "DET002", "src/repro/sim/bad.py", "random.random", "legacy draw"
    )

    def test_full_run_reports_genuinely_fixed_entry(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/bad.py", CLEAN)  # fixed
        result = run_analysis(tmp_repo, baseline=Baseline([self.ENTRY]))
        assert [e.key for e in result.stale_entries] == ["random.random"]

    def test_narrowed_paths_do_not_report_unanalysed_files(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/bad.py", BAD_RNG)
        write_module(tmp_repo, "src/repro/sim/other.py", CLEAN)
        result = run_analysis(
            tmp_repo, paths=["src/repro/sim/other.py"],
            baseline=Baseline([self.ENTRY]),
        )
        assert result.stale_entries == []

    def test_narrowed_rules_do_not_report_inactive_rules(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/bad.py", BAD_RNG)
        result = run_analysis(
            tmp_repo, rules=["DET001"], baseline=Baseline([self.ENTRY])
        )
        assert result.stale_entries == []
