"""Smoke test of the example scripts: each one runs and prints something.

The examples are entry points in their own right (they import library
surface the report does not), so each runs as a separate process, the way
a reader runs it: ``PYTHONPATH=src python examples/<name>.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = REPO_ROOT / "examples"

#: Examples that take tens of seconds (a braking simulation, a Monte Carlo
#: cross-check); the rest finish in about 1.5 s each.
SLOW = {"brake_by_wire.py", "monte_carlo_validation.py"}


def _params():
    for path in sorted(EXAMPLES.glob("*.py")):
        marks = [pytest.mark.slow] if path.name in SLOW else []
        yield pytest.param(path, id=path.stem, marks=marks)


def test_slow_examples_exist():
    # A renamed example must not silently lose its slow mark.
    assert {path.name for path in EXAMPLES.glob("*.py")} >= SLOW


@pytest.mark.parametrize("script", _params())
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), f"{script.name} printed nothing"
