"""The benchmark's own self-checks, run as part of the test suite.

perfbench/spans.py binds library names from outside (for example
``curve.PeriodicCurve.side_of``), so removing or renaming one of them breaks
the benchmark without breaking any library test; this test catches that.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
