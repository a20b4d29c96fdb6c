"""Inline suppression comments: ``# reprolint: disable=RULE -- reason``.

Grammar (one comment, applies to the physical line it sits on)::

    # reprolint: disable=DET001 -- instrumentation only; feeds obs timers
    # reprolint: disable=DET001,SIM001 -- <reason covers both rules>

The reason is **mandatory and non-empty** — an exemption without a
justification is itself a violation (rule SUP001, error).  Inline
comments are the only way to exempt a finding, so each exemption sits on
the line it excuses.  A well-formed suppression that matches no finding
on its line is reported as SUP002 (warning) so stale exemptions get
cleaned up rather than silently accumulating.  A comment is judged once
every rule it names has run (per-file or whole-program; a rule that
never applies to the comment's path has run there too), and is stale
when it covered no finding of either pass.
"""

from __future__ import annotations

import dataclasses
import io
import re
import tokenize
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .findings import ERROR, WARNING, Finding
from .registry import is_known_rule

#: Matches the whole suppression comment; group 1 = rule list, group 2 =
#: optional `` -- reason`` tail (reason text in group 3).
_PATTERN = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]*)(\s*--\s*(.*))?$"
)


def _iter_comments(source: str) -> List[Tuple[int, str]]:
    """``(line, text)`` for every comment token in *source*.

    Tokenising (rather than line-scanning) means the grammar shown in a
    docstring or a string literal is never mistaken for a suppression.
    A file that fails to tokenise yields no comments — the engine already
    reports it as a SYNTAX finding.
    """
    comments: List[Tuple[int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return comments


@dataclasses.dataclass(frozen=True)
class Suppression:
    """One parsed ``# reprolint: disable=`` comment."""

    line: int
    rules: Tuple[str, ...]
    reason: str

    def covers(self, finding: Finding) -> bool:
        return finding.line == self.line and finding.rule in self.rules


def parse_suppressions(
    source: str, relpath: str
) -> Tuple[List[Suppression], List[Finding]]:
    """Extract suppressions from *source*.

    Returns ``(valid_suppressions, problems)`` where *problems* are SUP001
    findings for malformed comments (empty rule list, unknown rule id, or
    missing/empty reason).  Malformed suppressions suppress nothing.
    """
    suppressions: List[Suppression] = []
    problems: List[Finding] = []

    def problem(lineno: int, message: str, key: str) -> None:
        problems.append(Finding(
            rule="SUP001",
            severity=ERROR,
            path=relpath,
            line=lineno,
            col=0,
            message=message,
            key=key,
            hint="write `# reprolint: disable=RULE[,RULE] -- reason` with "
                 "known rule ids and a non-empty reason",
        ))

    for lineno, text in _iter_comments(source):
        if "reprolint:" not in text:
            continue
        match = _PATTERN.search(text)
        if match is None:
            # A reprolint marker that is not a valid disable comment is a
            # typo waiting to silently not work — flag it.
            problem(lineno, "unrecognised `reprolint:` comment", "bad-comment")
            continue
        rules = tuple(r.strip() for r in match.group(1).split(",") if r.strip())
        reason = (match.group(3) or "").strip()
        if not rules:
            problem(lineno, "suppression lists no rule ids", "no-rules")
            continue
        unknown = sorted(r for r in rules if not is_known_rule(r))
        if unknown:
            problem(
                lineno,
                f"suppression names unknown rule(s): {', '.join(unknown)}",
                f"unknown-rule:{','.join(unknown)}",
            )
            continue
        if not reason:
            problem(
                lineno,
                f"suppression of {', '.join(rules)} has no reason "
                "(a non-empty `-- reason` is required)",
                f"no-reason:{','.join(rules)}",
            )
            continue
        suppressions.append(Suppression(line=lineno, rules=rules, reason=reason))
    return suppressions, problems


def apply_suppressions(
    findings: List[Finding],
    suppressions: List[Suppression],
    relpath: str,
    active_rules: Optional[FrozenSet[str]] = None,
) -> Tuple[List[Finding], List[Finding]]:
    """Drop findings covered by a suppression; report unused suppressions.

    Returns ``(kept_findings, unused_warnings)`` where *unused_warnings*
    are SUP002 findings for suppressions that covered nothing.  A
    suppression is only judged unused when every rule it names is in
    *active_rules* (the rules the run evaluates) — a partial run
    (``--rules CTX001``) must not flag a DET001 suppression it never
    evaluated.  ``active_rules=None`` judges everything.
    """
    used: Dict[int, bool] = {id(s): False for s in suppressions}
    kept: List[Finding] = []
    for finding in findings:
        covering = next((s for s in suppressions if s.covers(finding)), None)
        if covering is None:
            kept.append(finding)
        else:
            used[id(covering)] = True
    unused: List[Finding] = []
    for suppression in suppressions:
        if used[id(suppression)]:
            continue
        if active_rules is not None and not set(suppression.rules) <= active_rules:
            continue
        unused.append(unused_suppression(relpath, suppression.line, suppression.rules))
    return kept, unused


def unused_suppression(relpath: str, line: int, rules: Sequence[str]) -> Finding:
    """The SUP002 warning for a suppression of *rules* that covered nothing."""
    return Finding(
        rule="SUP002",
        severity=WARNING,
        path=relpath,
        line=line,
        col=0,
        message=(
            f"suppression of {', '.join(rules)} matches no finding on this "
            "line — remove it"
        ),
        key=f"unused:{','.join(rules)}",
        hint="delete the stale `# reprolint: disable=` comment",
    )
