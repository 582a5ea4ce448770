"""Harness tests: ``pytest benchmarks/perf`` from the root of the repo.

The harness is a set of flat modules next to ``run.py`` (it runs as a
script, not as a package), so they are put on ``sys.path`` here.
"""

import pathlib
import sys

PERF = pathlib.Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
for path in (ROOT / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
