"""Per-section fault containment of the experiment runner and its CLI."""

import json
from pathlib import Path

import pytest

from repro.__main__ import _write_json, parse_args
from repro.__main__ import main as cli_main
from repro.errors import ConfigurationError
from repro.experiments.runner import (
    RunnerReport,
    SectionReport,
    build_sections,
    run_report,
    run_sections,
)
from repro.runtime import RunConfig, RunContext


def _boom() -> str:
    raise RuntimeError("section exploded")


class TestSectionIsolation:
    def test_failing_section_does_not_abort_the_report(self):
        report = run_sections({
            "E98 before": lambda: "before-text",
            "E99 broken": _boom,
            "E100 after": lambda: "after-text",
        })
        assert not report.ok
        assert report.failures == ["E99 broken"]
        assert "before-text" in report.text
        assert "after-text" in report.text
        assert "[ERROR] RuntimeError: section exploded" in report.text
        assert "FAILED SECTIONS" in report.text

    def test_clean_report_has_no_error_banners(self):
        report = run_sections({"E98 fine": lambda: "ok"})
        assert report.ok
        assert report.failures == []
        assert "[ERROR]" not in report.text
        assert "FAILED SECTIONS" not in report.text

    def test_report_structure(self):
        report = RunnerReport(sections=[
            SectionReport(title="a", text="x"),
            SectionReport(title="b", error="E"),
        ])
        assert [s.ok for s in report.sections] == [True, False]
        assert not report.ok


def _config_file(tmp_path, fields) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(fields))
    return str(path)


#: Every CLI flag: its argv and the RunConfig fields it sets, given a
#: scratch directory (``--metrics`` and ``--json`` name outputs and leave
#: the config at the CLI defaults).
FLAGS = {
    "--config": lambda tmp: (
        ["--config", _config_file(tmp, {"root_seed": 5})], {"root_seed": 5}
    ),
    "--fast": lambda tmp: (["--fast"], {"smoke": True}),
    "--jobs": lambda tmp: (["--jobs", "3"], {"jobs": 3}),
    "--timeout": lambda tmp: (["--timeout", "2.5"], {"timeout_s": 2.5}),
    "--resume": lambda tmp: (
        ["--resume", str(tmp / "j")], {"resume_dir": str(tmp / "j")}
    ),
    "--chaos": lambda tmp: (
        ["--chaos", "die:5", "--jobs", "2"], {"chaos": "die:5", "jobs": 2}
    ),
    "--chaos-seed": lambda tmp: (["--chaos-seed", "7"], {"chaos_seed": 7}),
    "--metrics": lambda tmp: (["--metrics", "m.jsonl"], {}),
    "--profile": lambda tmp: (["--profile"], {"profile": True}),
    "--no-progress": lambda tmp: (["--no-progress"], {"progress": False}),
    "--json": lambda tmp: (["--json", "out.json"], {}),
}


class TestCli:
    """One parser serves the full report and ``run EXPERIMENT`` alike."""

    def test_defaults_preserve_serial_behaviour(self):
        args, config = parse_args([])
        assert config.jobs == 0
        assert config.timeout_s is None
        assert config.resume_dir is None
        assert not config.smoke
        assert args.command == [] and args.metrics is None and args.json is None

    def test_flags_parse(self):
        _, config = parse_args([
            "--fast", "--jobs", "4", "--timeout", "2.5",
            "--resume", "/tmp/journals",
        ])
        assert config.smoke
        assert config.jobs == 4
        assert config.timeout_s == pytest.approx(2.5)
        assert config.resume_dir == "/tmp/journals"

    @pytest.mark.parametrize("flag", sorted(FLAGS))
    def test_flag_gives_the_same_config_in_both_modes(self, flag, tmp_path):
        argv, fields = FLAGS[flag](tmp_path)
        report_args, report_config = parse_args(argv)
        run_args, run_config = parse_args(["run", "mttf_table", *argv])
        expected = RunConfig.from_dict({"progress": True, **fields})
        assert report_config == run_config == expected
        assert report_args.command == []
        assert run_args.command == ["run", "mttf_table"]
        assert (report_args.metrics, report_args.json) == (
            run_args.metrics, run_args.json
        )

    def test_flags_may_precede_the_run_command(self):
        _, config = parse_args(["--fast", "run", "mttf_table", "--jobs", "2"])
        assert config.smoke and config.jobs == 2

    def test_output_flags_parse(self):
        args, _ = parse_args(["--metrics", "m.jsonl", "--json", "-"])
        assert args.metrics == Path("m.jsonl")
        assert args.json == "-"

    @pytest.mark.parametrize("mode", [[], ["run", "coverage_table"]])
    def test_flags_override_the_config_file(self, mode, tmp_path):
        path = _config_file(tmp_path, {"jobs": 2, "smoke": False, "root_seed": 9})
        _, config = parse_args([*mode, "--config", path, "--jobs", "1", "--fast"])
        assert config.jobs == 1 and config.smoke
        assert config.root_seed == 9  # no flag for it: the file's value stands

    def test_config_file_fields_stand_without_flags(self, tmp_path):
        path = _config_file(tmp_path, {"jobs": 2, "progress": False})
        _, config = parse_args(["--config", path])
        assert config.jobs == 2 and not config.progress

    @pytest.mark.parametrize("mode", [[], ["run", "mttf_table"]])
    def test_progress_is_on_by_default_in_every_mode(self, mode, tmp_path):
        assert parse_args(mode)[1].progress
        path = _config_file(tmp_path, {"jobs": 1})
        assert parse_args([*mode, "--config", path])[1].progress

    @pytest.mark.parametrize("mode", [[], ["run", "coverage_table"]])
    def test_chaos_without_jobs_is_an_error(self, mode, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_args([*mode, "--fast", "--chaos", "die:5"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_chaos_from_the_config_file_also_needs_jobs(self, tmp_path, capsys):
        path = _config_file(tmp_path, {"chaos": "die:5"})
        with pytest.raises(SystemExit):
            parse_args(["--config", path])
        assert "--jobs" in capsys.readouterr().err
        _, config = parse_args(["--config", path, "--jobs", "2"])
        assert config.chaos == "die:5" and config.jobs == 2

    def test_bad_chaos_spec_is_rejected_before_any_section_runs(self, capsys):
        assert cli_main(["--jobs", "2", "--chaos", "bogus:1"]) == 2
        captured = capsys.readouterr()
        assert "bad chaos event" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["run"], ["report"], ["run", "a", "b"]])
    def test_bad_commands_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            parse_args(argv)

    def test_bad_config_file_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown RunConfig keys"):
            parse_args(["--config", _config_file(tmp_path, {"jbos": 2})])


class TestCliRun:
    def test_run_mode_exports_metrics_and_json(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.jsonl"
        json_path = tmp_path / "out.json"
        assert cli_main([
            "run", "mttf_table", "--fast", "--profile",
            "--metrics", str(metrics_path), "--json", str(json_path),
        ]) == 0
        rows = [json.loads(line) for line in metrics_path.read_text().splitlines()]
        assert [row["section"] for row in rows] == ["E2  Headline table - R(1y) and MTTF"]
        exported = json.loads(json_path.read_text())
        assert exported["id"] == "mttf_table"
        assert "E2  Headline table" in capsys.readouterr().out

    def test_full_report_json_is_keyed_by_experiment_id(self, tmp_path):
        report = run_report(RunConfig(smoke=True), experiment="mttf_table")
        path = tmp_path / "all.json"
        _write_json(str(path), report, experiment=None)
        exported = json.loads(path.read_text())
        assert list(exported) == ["mttf_table"]
        assert exported["mttf_table"]["index"] == "E2"

    def test_resume_dir_is_created(self, tmp_path):
        journals = tmp_path / "a" / "journals"
        assert cli_main(["run", "mttf_table", "--resume", str(journals)]) == 0
        assert journals.is_dir()

    def test_unknown_experiment_exits_2(self, capsys):
        assert cli_main(["run", "no_such_experiment"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestSectionIndex:
    def test_campaign_sections_receive_journal_paths(self, tmp_path):
        sections = build_sections(RunContext(RunConfig(
            smoke=True, jobs=2, timeout_s=9.0, resume_dir=str(tmp_path),
        )))
        assert len(sections) == 16
        assert any(title.startswith("E5 ") for title in sections)

    def test_index_is_complete_without_resume(self):
        sections = build_sections(RunContext(RunConfig(smoke=True)))
        markers = ("E1 ", "E2 ", "E3 ", "E4 ", "E5 ", "E6 ", "E7 ",
                   "E8a", "E8b", "E9 ", "E10", "E11", "E12", "E13", "E14",
                   "E15")
        for marker in markers:
            assert any(t.startswith(marker) for t in sections), marker

    def test_run_report_can_run_one_experiment(self):
        report = run_report(RunConfig(smoke=True), experiment="mttf_table")
        assert [s.title for s in report.sections] == [
            "E2  Headline table - R(1y) and MTTF"
        ]
        assert report.ok
        assert report.sections[0].text.startswith(report.sections[0].result.render())
