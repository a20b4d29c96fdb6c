"""Report rendering: stable text, JSON schema round-trip, exit codes."""

import json

import pytest

from repro.analysis.engine import AnalysisResult
from repro.analysis.findings import ERROR, WARNING, Finding, sort_findings
from repro.analysis.report import (
    REPORT_SCHEMA, exit_code, parse_json_report, render_json, render_json_dict,
    render_sarif, render_sarif_dict, render_text,
)


def finding(rule="DET001", path="src/repro/sim/a.py", line=3, col=4,
            key="time.time", severity=ERROR):
    return Finding(
        rule=rule, severity=severity, path=path, line=line, col=col,
        message=f"violation of {rule}", key=key, hint="fix it",
    )


def result(findings=(), files=5):
    return AnalysisResult(
        findings=list(findings), files_scanned=files,
        rules=["CTX001", "DET001"],
    )


class TestFindingRoundTrip:
    def test_to_dict_from_dict_is_identity(self):
        f = finding()
        assert Finding.from_dict(f.to_dict()) == f

    def test_unknown_fields_rejected(self):
        data = finding().to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown finding fields"):
            Finding.from_dict(data)

    def test_absolute_paths_rejected(self):
        with pytest.raises(ValueError, match="repo-relative"):
            finding(path="/abs/path.py")

    def test_backslash_paths_rejected(self):
        with pytest.raises(ValueError, match="repo-relative"):
            finding(path="src\\repro\\a.py")


class TestStableOrder:
    def test_sort_is_path_line_col_rule_key(self):
        unsorted = [
            finding(path="src/repro/b.py", line=1),
            finding(path="src/repro/a.py", line=9),
            finding(path="src/repro/a.py", line=2, rule="SIM001", key="z"),
            finding(path="src/repro/a.py", line=2, rule="DET001", key="a"),
        ]
        ordered = sort_findings(unsorted)
        assert [(f.path, f.line, f.rule) for f in ordered] == [
            ("src/repro/a.py", 2, "DET001"),
            ("src/repro/a.py", 2, "SIM001"),
            ("src/repro/a.py", 9, "DET001"),
            ("src/repro/b.py", 1, "DET001"),
        ]


class TestJsonReport:
    def test_schema_and_counts(self):
        data = render_json_dict(result(
            findings=[finding(), finding(key="w", severity=WARNING)],
        ))
        assert data["schema"] == REPORT_SCHEMA
        assert data["counts"] == {"errors": 1, "warnings": 1, "files": 5}
        assert data["ok"] is False
        assert set(data) == {"schema", "rules", "counts", "ok", "findings"}

    def test_round_trip_recovers_all_findings(self):
        original = result(
            findings=[finding(), finding(rule="CTX001", key="T", line=7)],
        )
        # Through actual JSON text, as CI artifacts are consumed.
        recovered = parse_json_report(json.loads(render_json(original)))
        assert recovered == original.findings

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="reprolint-v2"):
            parse_json_report({"schema": "something-else"})

    def test_json_is_deterministic(self):
        r = result(findings=[finding()])
        assert render_json(r) == render_json(r)


class TestTextReport:
    def test_location_rule_severity_line(self):
        text = render_text(result(findings=[finding()]))
        assert "src/repro/sim/a.py:3:4 DET001 error: violation of DET001" in text
        assert "hint: fix it" in text

    def test_summary_line_counts(self):
        text = render_text(result(findings=[finding()]))
        assert text.strip().endswith(
            "reprolint: 1 error, 0 warnings (5 files)"
        )


class TestExitCode:
    def test_clean_is_zero(self):
        assert exit_code(result()) == 0

    def test_error_is_one(self):
        assert exit_code(result(findings=[finding()])) == 1

    def test_warnings_stay_zero(self):
        r = result(findings=[finding(severity=WARNING)])
        assert exit_code(r) == 0


class TestSarifReport:
    def _log(self, **kw):
        return render_sarif_dict(result(**kw))

    def test_skeleton_version_and_schema(self):
        log = self._log()
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        assert len(log["runs"]) == 1

    def test_driver_declares_every_active_rule(self):
        log = self._log()
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["name"] == "reprolint"
        assert [r["id"] for r in driver["rules"]] == ["CTX001", "DET001"]
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]

    def test_result_location_and_level(self):
        log = self._log(findings=[finding(line=3, col=4)])
        sarif_result = log["runs"][0]["results"][0]
        assert sarif_result["ruleId"] == "DET001"
        assert sarif_result["level"] == "error"
        loc = sarif_result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/repro/sim/a.py"
        assert loc["artifactLocation"]["uriBaseId"] == "SRCROOT"
        # SARIF columns are 1-based; Finding.col is 0-based.
        assert loc["region"] == {"startLine": 3, "startColumn": 5}

    def test_warning_level(self):
        log = self._log(findings=[finding(severity=WARNING)])
        assert log["runs"][0]["results"][0]["level"] == "warning"

    def test_fingerprint_is_line_independent(self):
        prints = [
            self._log(findings=[finding(line=line)])["runs"][0]["results"][0][
                "partialFingerprints"
            ]
            for line in (3, 40)
        ]
        # (rule, path, key): an edit that only shifts the line keeps it.
        assert prints == [{
            "reprolintKey/v1": "DET001:src/repro/sim/a.py:time.time"
        }] * 2

    def test_render_sarif_is_valid_deterministic_json(self):
        r = result(findings=[finding()])
        text = render_sarif(r)
        assert json.loads(text) == render_sarif_dict(r)
        assert render_sarif(r) == render_sarif(r)
