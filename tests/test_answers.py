"""Answer digests of the benchmark's workloads, pinned.

The simplicity work on this package promises bit-identical answers, and the
benchmark's answer digest is how that is checked.  This test runs the slices
that ``perfbench/selfcheck.py`` uses (220 requests of each benchmarked
workload, seed 7), and graphs_cap's own six requests of seed 1, through
``perfbench/run.py``'s own measurement loop, once each, and compares the
digests with the pinned values.  A change that alters answers on purpose
updates the pin and says in its description which digest changed and why.

``run.import_library`` drops and re-imports every ``rbymatch`` module, so the
slices run in a subprocess, away from the modules this test session holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# workload: (seed, requests, or 0 for the workload's own count, digest)
PINNED = {
    "graphs_small": (7, 220, "96dde076d1c8ac791347bb0cd02ddf85caaed676dc81ce5a11f93e9beb1fe647"),
    "select_combine": (7, 220, "156c25908ee0e834e901e4ef115294f9985c3238de190904454259982988944d"),
    "graphs_cap": (1, 0, "b1aa3d0262162e21c833ed12a3896e071dc2ca25bd0e6936aec4210b27d6c016"),
}

_DIGESTS = """
import json, sys
from random import Random

sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run
import workloads

out = {}
for spec in sys.argv[3:]:
    name, seed, count = spec.split(":")
    workload = workloads.make_workload(name, run.import_library())
    workload.count = int(count) or workload.count
    requests = workload.generate(Random(f"{name}:{seed}"))
    tally, _ = run.measure(workload, requests, 0, run.RefClock())
    out[name] = [workloads.answer_digest(tally.keys), tally.failed, tally.errors]
print(json.dumps(out))
"""


def test_answer_digests_are_pinned():
    done = subprocess.run(
        [
            sys.executable, "-c", _DIGESTS, str(ROOT / "perfbench"), str(ROOT / "src"),
            *(f"{name}:{seed}:{count}" for name, (seed, count, _) in PINNED.items()),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    got = json.loads(done.stdout)
    for name, (_, _, digest) in PINNED.items():
        answer, failed, errors = got[name]
        assert failed == 0, f"{name}: {errors}"
        assert answer == digest, f"{name}: answer digest {answer}"
