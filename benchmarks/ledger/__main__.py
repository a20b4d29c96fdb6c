"""``python3 benchmarks/ledger ...`` entry point (see ``cli.py``)."""

import os
import sys

# Run as a directory, Python puts this directory first on sys.path, which
# would expose ``trace.py`` as a top-level module shadowing the standard
# library's.  Import the package from its parent directory instead.
_HERE = os.path.dirname(os.path.abspath(__file__))
if sys.path and os.path.abspath(sys.path[0] or os.curdir) == _HERE:
    sys.path[0] = os.path.dirname(_HERE)

from ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
