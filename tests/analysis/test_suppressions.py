"""Suppression grammar: mandatory reasons, hygiene rules SUP001/SUP002."""

from repro.analysis.findings import ERROR, Finding
from repro.analysis.suppressions import (
    Suppression, apply_suppressions, parse_suppressions,
)

RELPATH = "src/repro/sim/mod.py"


def finding(rule="DET001", line=2, key="time.time"):
    return Finding(
        rule=rule, severity=ERROR, path=RELPATH, line=line, col=0,
        message="m", key=key,
    )


class TestParsing:
    def test_single_rule_with_reason(self):
        src = "import time\nx = time.time()  # reprolint: disable=DET001 -- obs only\n"
        sups, problems = parse_suppressions(src, RELPATH)
        assert problems == []
        assert len(sups) == 1
        assert sups[0].line == 2
        assert sups[0].rules == ("DET001",)
        assert sups[0].reason == "obs only"

    def test_multiple_rules_share_one_reason(self):
        src = "x = 1  # reprolint: disable=DET001,SIM001 -- both justified\n"
        sups, problems = parse_suppressions(src, RELPATH)
        assert problems == []
        assert sups[0].rules == ("DET001", "SIM001")

    def test_missing_reason_is_sup001(self):
        src = "x = 1  # reprolint: disable=DET001\n"
        sups, problems = parse_suppressions(src, RELPATH)
        assert sups == []
        assert [p.rule for p in problems] == ["SUP001"]
        assert "reason" in problems[0].message

    def test_empty_reason_is_sup001(self):
        src = "x = 1  # reprolint: disable=DET001 --   \n"
        sups, problems = parse_suppressions(src, RELPATH)
        assert sups == []
        assert [p.rule for p in problems] == ["SUP001"]

    def test_unknown_rule_is_sup001(self):
        src = "x = 1  # reprolint: disable=NOPE999 -- reason\n"
        sups, problems = parse_suppressions(src, RELPATH)
        assert sups == []
        assert problems[0].rule == "SUP001"
        assert "NOPE999" in problems[0].message

    def test_no_rules_is_sup001(self):
        src = "x = 1  # reprolint: disable= -- reason\n"
        sups, problems = parse_suppressions(src, RELPATH)
        assert sups == []
        assert problems[0].key == "no-rules"

    def test_typoed_marker_is_sup001(self):
        # A marker comment that fails to parse as a disable comment would
        # silently do nothing — that is flagged, not ignored.
        src = "x = 1  # reprolint: disbale=DET001 -- reason\n"
        sups, problems = parse_suppressions(src, RELPATH)
        assert sups == []
        assert problems[0].key == "bad-comment"

    def test_grammar_in_docstring_is_not_a_suppression(self):
        src = '"""Write `# reprolint: disable=RULE` to suppress."""\nx = 1\n'
        sups, problems = parse_suppressions(src, RELPATH)
        assert sups == []
        assert problems == []

    def test_unparseable_source_yields_nothing(self):
        # The engine reports SYNTAX separately; the parser must not crash.
        sups, problems = parse_suppressions("def f(:\n", RELPATH)
        assert sups == []
        assert problems == []


class TestApplication:
    def test_covered_finding_is_dropped(self):
        sup = Suppression(line=2, rules=("DET001",), reason="r")
        kept, unused = apply_suppressions([finding(line=2)], [sup], RELPATH)
        assert kept == []
        assert unused == []

    def test_wrong_line_does_not_cover(self):
        sup = Suppression(line=3, rules=("DET001",), reason="r")
        kept, unused = apply_suppressions([finding(line=2)], [sup], RELPATH)
        assert len(kept) == 1
        assert [u.rule for u in unused] == ["SUP002"]

    def test_wrong_rule_does_not_cover(self):
        sup = Suppression(line=2, rules=("SIM001",), reason="r")
        kept, unused = apply_suppressions([finding(line=2)], [sup], RELPATH)
        assert len(kept) == 1
        assert [u.rule for u in unused] == ["SUP002"]

    def test_unused_suppression_is_sup002_warning(self):
        sup = Suppression(line=9, rules=("DET001",), reason="r")
        kept, unused = apply_suppressions([], [sup], RELPATH)
        assert kept == []
        assert unused[0].rule == "SUP002"
        assert unused[0].severity == "warning"
        assert unused[0].line == 9

    def test_partial_run_never_flags_unevaluated_suppressions(self):
        # `--rules CTX001` must not call a DET001 suppression unused: the
        # rule it names never ran.
        sup = Suppression(line=2, rules=("DET001",), reason="r")
        kept, unused = apply_suppressions(
            [], [sup], RELPATH, active_rules=frozenset({"CTX001"})
        )
        assert kept == []
        assert unused == []

    def test_active_rule_set_still_flags_judged_suppressions(self):
        sup = Suppression(line=2, rules=("DET001",), reason="r")
        kept, unused = apply_suppressions(
            [], [sup], RELPATH, active_rules=frozenset({"DET001"})
        )
        assert [u.rule for u in unused] == ["SUP002"]
