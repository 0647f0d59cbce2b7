"""Put the program's sources and the benchmark package on ``sys.path``
for the benchmark's self-tests (``python3 -m pytest perfbench``)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
