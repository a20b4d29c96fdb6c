"""Smoke test of the combined experiment runner (python -m repro)."""

import pytest

from repro.experiments.runner import run_report
from repro.runtime import RunConfig

# A full --fast report runs every experiment end to end (~10 s).
pytestmark = pytest.mark.slow


class TestRunner:
    def test_fast_report_contains_every_experiment(self):
        report = run_report(RunConfig(smoke=True)).text
        for marker in (
            "E1 ", "E2 ", "E3 ", "E4 ", "E5 ", "E6 ", "E7 ",
            "E8a", "E8b", "E9 ", "E10", "E11", "E12", "E13", "E14",
        ):
            assert marker in report, f"section {marker.strip()} missing"
        # Key reproduced claims surface in the combined report.
        assert "paper: +55%" in report
        assert "matches paper" in report or "matches Figure 13" in report
        assert "P_T" in report
