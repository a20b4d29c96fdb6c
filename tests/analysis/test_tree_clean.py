"""The gate over the real tree: reprolint must pass on this repository.

This is the acceptance bar the CI lint job enforces; running it in the
test suite means a violation fails locally before it fails in CI, with
the finding (file:line, rule, hint) in the assertion message.
"""

from pathlib import Path

from repro.analysis.engine import discover_files, run_analysis
from repro.analysis.report import render_text
from repro.analysis.suppressions import parse_suppressions

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Inline suppression comments in the scanned tree.  The pawl of the
#: exemption ratchet: adding an exemption needs a deliberate bump here in
#: the same diff; removing one needs the count lowered.
INLINE_SUPPRESSIONS = 17


def test_repository_is_reprolint_clean():
    result = run_analysis(REPO_ROOT, jobs=1)
    assert result.ok, "\n" + render_text(result)
    # Warnings (unused suppressions) don't fail the gate, but the
    # committed tree keeps itself free of them too.
    assert result.warnings == [], "\n" + render_text(result)
    assert result.files_scanned > 100  # the scan actually covered the tree


def test_inline_suppressions_are_ratcheted_tight():
    found = []
    for path, rel in discover_files(REPO_ROOT):
        suppressions, _ = parse_suppressions(path.read_text("utf-8"), rel)
        found += [f"{rel}:{s.line} {','.join(s.rules)}" for s in suppressions]
    assert len(found) == INLINE_SUPPRESSIONS, "\n".join(found)
