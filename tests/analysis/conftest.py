"""Shared helpers for the reprolint test suite."""

from pathlib import Path

import pytest

from repro.analysis import analyze_file, get_checker

#: Deliberate-violation fixture modules (excluded from tree scans).
FIXTURES = Path(__file__).parent / "fixtures"

#: Default pretend location: in scope for every src/repro/ rule.
DEFAULT_RELPATH = "src/repro/sim/fixture_mod.py"


@pytest.fixture
def run_rule():
    """Run one rule over a fixture file under a pretend repo path."""

    def run(rule_id, fixture, relpath=DEFAULT_RELPATH):
        checker = get_checker(rule_id)
        assert checker.applies_to(relpath), (
            f"{rule_id} does not apply to {relpath}; fix the test's relpath"
        )
        return analyze_file(FIXTURES / fixture, relpath, [checker], [rule_id])

    return run


@pytest.fixture
def tmp_repo(tmp_path):
    """A minimal scannable repo tree: pyproject marker plus src/repro/."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname='tmp'\n")
    (tmp_path / "src" / "repro").mkdir(parents=True)
    return tmp_path


def write_module(root: Path, relpath: str, source: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path
