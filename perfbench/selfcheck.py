"""Self-checks of the benchmark, on small slices of each workload.

    python3 perfbench/selfcheck.py

1. One seed yields byte-identical inputs; another seed yields other inputs.
2. Honest answers pass every check, and a deliberately corrupted answer is
   counted as a failed request.
3. With the wrappers installed, every per-layer metric is non-zero on the
   workload meant to exercise it, and uninstalling restores the library.

Exits with code 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
from random import Random

import run
import workloads
from spans import FACE_CLASSES, Tracer

BENCHMARKED = ("graphs_small", "select_combine")
SLICE = 220  # requests per workload: 20 of each graph size, 18 full patterns

GRAPH_LAYERS = ("lpface.", "simplex.", "oracle.", "driver.")
SELECT_LAYERS = ("cycles.", "union.", "curve.")


def _slice(name: str, seed: int):
    lib = run.import_library()
    workload = workloads.make_workload(name, lib)
    workload.count = SLICE
    return lib, workload, workload.generate(Random(f"{name}:{seed}"))


def check_inputs_repeat(name: str) -> None:
    first = workloads.encode_inputs(_slice(name, 7)[2])
    again = workloads.encode_inputs(_slice(name, 7)[2])
    other = workloads.encode_inputs(_slice(name, 8)[2])
    assert first == again, f"{name}: seed 7 gave different inputs on a second generation"
    assert first != other, f"{name}: seeds 7 and 8 gave the same inputs"


def check_corruption_counted(name: str) -> None:
    _, workload, requests = _slice(name, 7)
    clock = run.RefClock()
    honest, _ = run.measure(workload, requests, 0, clock)
    assert honest.failed == 0, f"{name}: honest answers failed: {honest.errors}"
    corruptible = sum(key != workloads.INFEASIBLE for key in honest.keys)
    bad, _ = run.measure(workload, requests, 0, clock, tamper=workload.corrupt)
    assert corruptible > 0 and bad.failed == corruptible, (
        f"{name}: {bad.failed} of {corruptible} corrupted answers counted as failures"
    )


def check_layers_exercised(name: str, prefixes: tuple[str, ...], per_layer: list[str]) -> None:
    lib, workload, requests = _slice(name, 7)
    tracer = Tracer(lib)
    tally, passes, plain, traced = run.measure_traced(workload, requests, 0, run.RefClock(), tracer)
    assert tally.failed == 0, f"{name}: traced requests failed: {tally.errors}"
    for owner, key, original, _ in tracer.bindings:
        assert getattr(owner, key) is original, f"{owner.__name__}.{key} not restored"
    values = tracer.layer_metrics(passes)
    values["trace.overhead_frac"] = plain / traced - 1.0
    missing = [m for m in per_layer if m not in values]
    assert not missing, f"metrics declared but not computed: {missing}"
    classes = [f"lpface.minimal_face.class.{c}" for c in FACE_CLASSES]
    empty = [m for m in per_layer
             if m.startswith(prefixes) and m not in classes and not values[m]]
    assert not empty, f"{name}: empty per-layer metrics {empty}"
    if "lpface." in prefixes:
        faces = sum(values[m] for m in classes)
        assert faces == values["lpface.minimal_face.calls"] > 0, f"{name}: face classes do not add up"


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in declared["per_layer"]]
    assert [w["name"] for w in declared["workloads"]] == list(BENCHMARKED)
    for name in BENCHMARKED:
        check_inputs_repeat(name)
        check_corruption_counted(name)
        print(f"{name}: inputs repeat, corrupted answers are counted")
    check_layers_exercised("graphs_small", GRAPH_LAYERS, per_layer)
    check_layers_exercised("select_combine", SELECT_LAYERS, per_layer)
    print("per-layer metrics are non-empty where they are meant to be exercised")
    return 0


if __name__ == "__main__":
    sys.exit(main())
