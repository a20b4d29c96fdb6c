"""Report rendering: human text, machine JSON, and SARIF 2.1.0.

All formats are **stable**: repo-relative POSIX paths and findings
sorted by ``(file, line, col, rule, key)`` — so two runs over the same
tree produce byte-identical reports on any machine, and CI artifacts
diff cleanly across runs.

The SARIF output targets code-scanning UIs (GitHub's
``upload-sarif`` action): every rule that ran is described in the
driver's rule table, and every finding carries a line-independent
``partialFingerprint`` (its ``(rule, path, key)`` identity), so alert
identity survives unrelated edits.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .engine import AnalysisResult
from .findings import ERROR, Finding
from .registry import rule_descriptions

#: Schema identifier carried by every JSON report.
REPORT_SCHEMA = "reprolint-v2"

#: The SARIF version emitted by :func:`render_sarif`.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(result: AnalysisResult) -> str:
    """Human-readable report, one ``path:line:col RULE severity`` per finding."""
    lines: List[str] = []
    for finding in result.findings:
        lines.append(
            f"{finding.location} {finding.rule} {finding.severity}: "
            f"{finding.message}"
        )
        if finding.hint:
            lines.append(f"    hint: {finding.hint}")
    errors = len(result.errors)
    warnings = len(result.warnings)
    lines.append(
        f"reprolint: {errors} error{'s' if errors != 1 else ''}, "
        f"{warnings} warning{'s' if warnings != 1 else ''} "
        f"({result.files_scanned} files)"
    )
    return "\n".join(lines) + "\n"


def render_json_dict(result: AnalysisResult) -> Dict[str, Any]:
    """The JSON report as a plain dict (see :data:`REPORT_SCHEMA`)."""
    return {
        "schema": REPORT_SCHEMA,
        "rules": list(result.rules),
        "counts": {
            "errors": len(result.errors),
            "warnings": len(result.warnings),
            "files": result.files_scanned,
        },
        "ok": result.ok,
        "findings": [f.to_dict() for f in result.findings],
    }


def render_json(result: AnalysisResult) -> str:
    return json.dumps(render_json_dict(result), indent=2) + "\n"


def parse_json_report(data: Dict[str, Any]) -> List[Finding]:
    """Reconstruct the findings of a JSON report (round-trip helper).

    Returns the findings in report order.  Raises ``ValueError`` on
    schema mismatch.
    """
    if data.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"not a {REPORT_SCHEMA} report: {data.get('schema')!r}")
    return [Finding.from_dict(raw) for raw in data.get("findings", [])]


def exit_code(result: AnalysisResult) -> int:
    """0 when the gate passes, 1 when any error finding remains."""
    return 0 if result.ok else 1


# ----------------------------------------------------------------------
# SARIF 2.1.0
# ----------------------------------------------------------------------
def _sarif_result(finding: Finding) -> Dict[str, Any]:
    return {
        "ruleId": finding.rule,
        "level": "error" if finding.severity == ERROR else "warning",
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path,
                    "uriBaseId": "SRCROOT",
                },
                "region": {
                    "startLine": finding.line,
                    "startColumn": finding.col + 1,
                },
            },
        }],
        # Line-independent, so code-scanning alert identity survives
        # edits that only shift code.
        "partialFingerprints": {
            "reprolintKey/v1": f"{finding.rule}:{finding.path}:{finding.key}",
        },
    }


def render_sarif_dict(result: AnalysisResult) -> Dict[str, Any]:
    """The analysis result as a SARIF 2.1.0 log (plain dict)."""
    descriptions = rule_descriptions()
    rules = []
    for rule_id in result.rules:
        info = descriptions.get(rule_id, {})
        rule: Dict[str, Any] = {
            "id": rule_id,
            "shortDescription": {"text": info.get("title", rule_id)},
            "defaultConfiguration": {
                "level": "error" if info.get("severity", ERROR) == ERROR
                else "warning",
            },
        }
        if info.get("invariant"):
            rule["fullDescription"] = {"text": f"Protects: {info['invariant']}"}
        rules.append(rule)
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "reprolint",
                    "rules": rules,
                },
            },
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": [_sarif_result(f) for f in result.findings],
        }],
    }


def render_sarif(result: AnalysisResult) -> str:
    return json.dumps(render_sarif_dict(result), indent=2) + "\n"


__all__ = [
    "REPORT_SCHEMA", "SARIF_VERSION", "render_text", "render_json",
    "render_json_dict", "render_sarif", "render_sarif_dict",
    "parse_json_report", "exit_code", "ERROR",
]
