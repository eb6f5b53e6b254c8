"""``tools/ab.py``, the interleaved A/B timing of two checkouts, on one
checkout against itself: the same code gives the same answers."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_of_a_checkout_against_itself_changes_no_answer():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT), "--passes", "1", "--requests", "40"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "answers changed: 0 of 40" in done.stdout, done.stdout
    digests = {line.split()[-1] for line in done.stdout.splitlines() if line.startswith("digest ")}
    assert len(digests) == 1, done.stdout
