"""Structured findings: the unit of output of every reprolint checker.

A :class:`Finding` is one rule violation at one source location.  Findings
are designed to diff cleanly across machines and CI runs:

* ``path`` is always **repo-relative POSIX** (``src/repro/sim/events.py``),
  never absolute, never backslashed;
* reports are **stable-sorted** by ``(path, line, col, rule, key)``
  (:func:`sort_findings`), so the same tree produces byte-identical
  reports regardless of filesystem walk order or worker scheduling;
* every finding carries a **stable key** — a checker-chosen fingerprint
  that does *not* include the line number (e.g. the offending symbol name
  or resolved call target), so a finding's identity (the SARIF
  ``partialFingerprints``) survives unrelated edits that shift lines.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Sequence, Tuple

#: Severity levels.  ``error`` findings fail the gate (exit code 1) unless
#: suppressed inline; ``warning`` findings (unused suppressions) are
#: reported but never change the exit code.
ERROR = "error"
WARNING = "warning"

SEVERITIES = (ERROR, WARNING)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one location.

    Attributes
    ----------
    rule:
        Rule identifier (``DET001``, ``CTX001``, ...).
    severity:
        ``"error"`` or ``"warning"``.
    path:
        Repo-relative POSIX path of the offending file.
    line, col:
        1-based line and 0-based column of the offending node.
    message:
        Human-readable statement of the violation.
    key:
        Line-number-independent fingerprint; ``(rule, path, key)`` is
        the finding's identity across edits that shift lines.
    hint:
        How to fix (or how to legitimately suppress) the violation.
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    key: str
    hint: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")
        if "\\" in self.path or self.path.startswith("/"):
            raise ValueError(f"finding path must be repo-relative POSIX, got {self.path!r}")

    # ------------------------------------------------------------------
    # Serialisation (JSON report round-trip)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON projection (stable field order via dataclass order)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Finding":
        """Inverse of :meth:`to_dict`; rejects unknown fields."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown finding fields: {sorted(unknown)}")
        return cls(**data)

    @property
    def location(self) -> str:
        """``path:line:col`` — the clickable anchor used in text output."""
        return f"{self.path}:{self.line}:{self.col}"


def sort_key(finding: Finding) -> Tuple[str, int, int, str, str]:
    """The canonical report order: (file, line, col, rule, key)."""
    return (finding.path, finding.line, finding.col, finding.rule, finding.key)


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    """Stable-sort *findings* into canonical report order."""
    return sorted(findings, key=sort_key)
