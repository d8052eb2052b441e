"""Make ``bench_e2e`` and the program importable: these tests run with
``pytest bench_e2e/tests`` and are not part of the tier-1 ``testpaths``."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
