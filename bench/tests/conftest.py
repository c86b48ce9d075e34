"""Make ``bench`` (and, for the modules that need it, ``repro``) importable
when the self-tests are run as ``python -m pytest bench/tests -q``."""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
for entry in (str(REPO / "src"), str(REPO)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
