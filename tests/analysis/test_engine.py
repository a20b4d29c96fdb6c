"""The engine: discovery, parallel == serial, SYNTAX, stale suppressions."""

from repro.analysis.engine import discover_files, find_repo_root, run_analysis

from .conftest import write_module

BAD_RNG = "import random\n\n\ndef draw():\n    return random.random()\n"
CLEAN = "def double(x):\n    return 2 * x\n"
LITERAL_SEED = (
    "import numpy as np\n\n\n"
    "def make():\n"
    "    return np.random.default_rng(0)"
    "  # reprolint: disable=SEED001 -- fixed fallback stream\n"
)
#: The same comment left behind after the literal seed was fixed.
STALE_SEED = (
    "import numpy as np\n\n\n"
    "def make(seed):\n"
    "    return np.random.default_rng(seed)"
    "  # reprolint: disable=SEED001 -- fixed fallback stream\n"
)


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

    def test_inline_suppression_is_applied(self, tmp_repo):
        write_module(
            tmp_repo, "src/repro/sim/bad.py",
            BAD_RNG.replace(
                "random.random()\n",
                "random.random()  # reprolint: disable=DET002 -- fixture\n",
            ),
        )
        result = run_analysis(tmp_repo)
        assert result.ok
        assert result.findings == []

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
    """A project-rule suppression that covers nothing is SUP002 — judged
    only where the run actually looked."""

    def test_live_project_rule_suppression_is_silent(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/rng.py", LITERAL_SEED)
        result = run_analysis(tmp_repo)
        assert result.findings == []

    def test_full_run_reports_genuinely_fixed_entry(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/rng.py", STALE_SEED)
        result = run_analysis(tmp_repo)
        assert [(f.rule, f.line, f.key) for f in result.findings] == [
            ("SUP002", 5, "unused:SEED001"),
        ]
        assert result.ok  # a warning, like every SUP002

    def test_narrowed_paths_do_not_report_unanalysed_files(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/rng.py", STALE_SEED)
        write_module(tmp_repo, "src/repro/sim/other.py", CLEAN)
        result = run_analysis(tmp_repo, paths=["src/repro/sim/other.py"])
        assert result.findings == []

    def test_narrowed_rules_do_not_report_inactive_rules(self, tmp_repo):
        write_module(tmp_repo, "src/repro/sim/rng.py", STALE_SEED)
        result = run_analysis(tmp_repo, rules=["DET001"])
        assert result.findings == []

    def test_out_of_scope_path_is_not_judged(self, tmp_repo):
        # SEED001 never anchors findings under src/repro/analysis/, so it
        # cannot judge a SEED001 comment there (as for per-file rules).
        write_module(tmp_repo, "src/repro/analysis/rng.py", STALE_SEED)
        result = run_analysis(tmp_repo)
        assert result.findings == []
