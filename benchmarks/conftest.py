"""Benchmark-suite hooks: ``--json PATH`` for machine-readable results.

Measurements reported through :mod:`common` during the session are written
to PATH at session end (schema ``repro-bench-v1``); CI feeds the file to
``check_regression.py`` against the committed baseline.

The repository root goes on ``sys.path`` so benches can import the test
oracles (``tests.oracles``) under a bare ``pytest`` as under
``python -m pytest``.
"""

import sys
from pathlib import Path

import common

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def pytest_addoption(parser):
    parser.addoption(
        "--json",
        action="store",
        default=None,
        metavar="PATH",
        help="write machine-readable benchmark results to PATH",
    )


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--json")
    if path and common.SESSION.entries:
        common.SESSION.emit(path)
