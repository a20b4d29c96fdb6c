"""Make the program importable for the ledger's self-tests.

Run with ``python -m pytest benchmarks/ledger -q`` from the repository root.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
