"""Interleaved A/B timing of two checkouts on one perfbench workload.

    python3 tools/ab.py A B [--workload graphs_small] [--seed 1] [--passes 10] [--requests N]

A and B are checkout roots, each with ``src/rbymatch``.  Each checkout's
package is imported under its own name (``rbymatch_a``, ``rbymatch_b``; its
modules import each other relatively), so both run in one process and meet
the machine's drift at the same moments.  The requests come from this
checkout's ``perfbench/workloads.py``, only read, one set per side from the
same seed (``--requests`` cuts the workload's count).  Every answer is
computed and checked once per side by ``workload.check``, against the side's
own yardstick, before any timing.  Then each pass serves every request on
both sides, ``perf_counter`` around each call, and the side that goes first
alternates from one request to the next and from one pass to the next.

Printed: B/A of the summed request time per pass (median, min and max over
the passes), and its median per request kind when the workload has more
than one kind (``select_combine``'s combine, crossing and cycle), which
shows where a change's time moved.  A kind of few short requests can read
a few percent off 1 even between identical copies: ``select_combine``'s
cycle kind reads 1.02-1.05 with the same code on both sides, and still
does with the sides loaded in the other order, with one checkout on both
sides, with the roles reversed and with the request order shuffled in
each pass, so neither load order nor request order causes it.  A per-kind
figure under about 5% on that kind is noise.  Per side, the p50 and
the 11th-largest of the per-request median times, as ``perfbench/run.py``
reads ``latency_p50_ms`` and ``latency_tail_ms``; the number of requests
whose answer key differs between the sides; and both answer digests.  Exits 1 if an answer fails its
check.  Standard library only; not part of the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
from pathlib import Path
from random import Random
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

MODULES = ("graph", "oracle", "simplex", "lpface", "cycles", "union", "curve", "driver")
TAIL_BEYOND = 10


def load(checkout: Path, name: str) -> SimpleNamespace:
    """``checkout``'s ``src/rbymatch`` imported as the package ``name``."""
    package = checkout / "src" / "rbymatch"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


class Side:
    """One checkout's workload, requests, answer keys and request times."""

    def __init__(self, checkout: Path, name: str, workload: str, seed: int, count: int | None):
        self.workload = workloads.make_workload(workload, load(checkout, name))
        if count:
            self.workload.count = count
        self.requests = self.workload.generate(Random(f"{workload}:{seed}"))
        self.times: list[list[float]] = [[] for _ in self.requests]
        self.keys = []

    def check(self) -> list[str]:
        """Solves and checks every request once; the failures, by request."""
        failures, workload = [], self.workload
        for i, req in enumerate(self.requests):
            try:
                answer = workload.run(req)
                opt = workload.yardstick(req) if req.kind in workload.yardstick_kinds else None
                reason = workload.check(req, answer, opt)
            except Exception as exc:  # any raise is a failed request, as in perfbench
                answer, reason = None, f"{type(exc).__name__}: {exc}"
            if reason is not None:
                failures.append(f"request {i}: {reason}")
            self.keys.append(None if reason else workload.answer_key(req, answer))
        return failures

    def serve(self, i: int) -> float:
        t0 = perf_counter()
        self.workload.run(self.requests[i])
        elapsed = perf_counter() - t0
        self.times[i].append(elapsed)
        return elapsed

    def pass_total(self, ids: list[int], p: int) -> float:
        """The summed time of requests ``ids`` in pass ``p``."""
        return sum(self.times[i][p] for i in ids)

    def latencies(self) -> tuple[float, float]:
        """(p50, the 11th-largest) of the per-request median times, in ms;
        the largest when there are 10 or fewer, as perfbench reads it."""
        per_request = sorted(statistics.median(t) for t in self.times)
        tail = per_request[-TAIL_BEYOND - 1] if len(per_request) > TAIL_BEYOND else per_request[-1]
        return statistics.median(per_request) * 1e3, tail * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout A (the base)")
    parser.add_argument("b", type=Path, help="checkout B")
    parser.add_argument("--workload", default="graphs_small", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=10)
    parser.add_argument("--requests", type=int, default=None, help="serve only the first N requests")
    args = parser.parse_args(argv)

    a = Side(args.a.resolve(), "rbymatch_a", args.workload, args.seed, args.requests)
    b = Side(args.b.resolve(), "rbymatch_b", args.workload, args.seed, args.requests)
    if workloads.encode_inputs(a.requests) != workloads.encode_inputs(b.requests):
        print("the two sides generated different inputs", file=sys.stderr)
        return 1
    failures = [f"{label} {line}" for label, side in (("A", a), ("B", b)) for line in side.check()]
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    if failures:
        return 1
    gc.collect()
    gc.freeze()
    ratios = []
    count = len(a.requests)
    for p in range(args.passes):
        total_a = total_b = 0.0
        for i in range(count):
            if (i + p) % 2:
                total_b += b.serve(i)
                total_a += a.serve(i)
            else:
                total_a += a.serve(i)
                total_b += b.serve(i)
        ratios.append(total_b / total_a)
    by_kind: dict[str, list[int]] = {}
    for i, req in enumerate(a.requests):
        by_kind.setdefault(req.kind, []).append(i)
    (p50_a, tail_a), (p50_b, tail_b) = a.latencies(), b.latencies()
    changed = sum(ka != kb for ka, kb in zip(a.keys, b.keys))
    print(f"workload {args.workload} seed {args.seed}: {count} requests, {args.passes} passes")
    print(f"B/A per pass: median {statistics.median(ratios):.4f} min {min(ratios):.4f} max {max(ratios):.4f}")
    if len(by_kind) > 1:
        kinds = []
        for kind, ids in sorted(by_kind.items()):
            ratio = statistics.median(
                b.pass_total(ids, p) / a.pass_total(ids, p) for p in range(args.passes)
            )
            kinds.append(f"{kind} {ratio:.4f} ({len(ids)} requests)")
        print(f"B/A per pass by kind, median: {', '.join(kinds)}")
    print(f"p50 ms: A {p50_a:.4f} B {p50_b:.4f} B/A {p50_b / p50_a:.4f}")
    print(f"11th-largest ms: A {tail_a:.4f} B {tail_b:.4f} B/A {tail_b / tail_a:.4f}")
    print(f"answers changed: {changed} of {count}")
    print(f"digest A: {workloads.answer_digest(a.keys)}")
    print(f"digest B: {workloads.answer_digest(b.keys)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
