"""``tools/ab.py``, the interleaved A/B timing of two checkouts, on one
checkout against itself: the same code gives the same answers, and a
workload of several request kinds gets a B/A line by kind."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ab(*options: str) -> str:
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT), "--passes", "1", *options],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_ab_of_a_checkout_against_itself_changes_no_answer():
    stdout = _ab("--requests", "40")
    assert "by kind" not in stdout  # graphs_small has one kind
    assert "answers changed: 0 of 40" in stdout, stdout
    digests = {line.split()[-1] for line in stdout.splitlines() if line.startswith("digest ")}
    assert len(digests) == 1, stdout


def test_ab_prints_the_ratio_by_request_kind():
    stdout = _ab("--workload", "select_combine", "--requests", "24")
    (line,) = [line for line in stdout.splitlines() if "by kind" in line]
    parts = line.split(": ", 1)[1].split(", ")
    assert [part.split()[0] for part in parts] == ["combine", "crossing", "cycle"], line
    assert sum(int(part.split("(")[1].split()[0]) for part in parts) == 24, line
    assert "answers changed: 0 of 24" in stdout, stdout
