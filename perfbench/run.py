"""Seeded closed-loop benchmark of the rbymatch pipeline.

    python3 perfbench/run.py --workload graphs_small --seed 1 --seconds 45 --trace 0

One client in one process sends each request after the previous one returns.
Set-up (importing the library, generating the seeded inputs and one warm-up
request) is done three times and timed apart from the requests; the median
is ``setup_s``.  The request set is then served in whole passes until the
time is spent (at least one pass), and every answer is checked outside the
timed region.  With ``--trace 1`` the first ``trace_count`` requests are each
run once plain and once with the per-layer wrappers of ``spans.py``
installed, alternating which goes first; the spans are written to
``perfbench/out/`` and the last line carries the per-layer metrics.
The metric names and units are those of ``BENCHMARK.json``.

Durations, per-layer span times included, are reported in reference
seconds (see ``RefClock``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The library is imported
from ``src/`` next to this directory; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter
from types import SimpleNamespace

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
LIBRARY_MODULES = ("graph", "oracle", "simplex", "lpface", "cycles", "union", "curve", "driver")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
SHOWN_ERRORS = 5
CALIBRATION_INTERVAL_S = 0.05
# Median time of one ``_kernel()`` call on a 2-core x86-64 virtual machine
# under CPython 3.11; a reference second is a second of a machine this fast.
KERNEL_REFERENCE_S = 0.0015


def _kernel():
    """Fixed standard-library work in the library's mix of operations:
    rational arithmetic, small frozensets and dictionary updates."""
    acc = Fraction(0)
    seen: dict[frozenset, int] = {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        key = frozenset((i % 13, i % 11, i % 3))
        seen[key] = seen.get(key, 0) + 1
    return acc, len(seen)


class RefClock:
    """Scales measured durations to reference seconds.

    On a shared machine the speed of the whole process drifts by a fifth or
    more within seconds, which no single timing can tell from a change in
    the library.  ``_kernel`` is timed (median of three calls) at least every
    ``CALIBRATION_INTERVAL_S`` between requests; every duration recorded in
    between is multiplied by ``KERNEL_REFERENCE_S`` over the mean of the
    kernel times at the interval's two ends.  The kernel runs no library
    code, so a faster library still reads faster.
    """

    def __init__(self):
        self.pending: list[tuple[list, float]] = []
        self.kernel = self._time_kernel()
        self.at = perf_counter()
        self.scales: list[float] = []

    @staticmethod
    def _time_kernel() -> float:
        times = []
        for _ in range(3):
            t0 = perf_counter()
            _kernel()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def record(self, sink: list, seconds: float) -> None:
        """Append ``seconds`` to ``sink`` in reference seconds, once the
        interval it belongs to is closed."""
        self.pending.append((sink, seconds))
        if perf_counter() - self.at >= CALIBRATION_INTERVAL_S:
            self.settle()

    def settle(self) -> None:
        """Close the current interval."""
        kernel = self._time_kernel()
        scale = KERNEL_REFERENCE_S / ((self.kernel + kernel) / 2)
        if self.pending:
            self.scales.append(scale)
        for sink, seconds in self.pending:
            sink.append(seconds * scale)
        self.pending.clear()
        self.kernel = kernel
        self.at = perf_counter()


def import_library() -> SimpleNamespace:
    """Fresh import of the library from ``src/``: every ``rbymatch`` module
    is dropped first, so the import cost is paid again."""
    for name in [n for n in sys.modules if n == "rbymatch" or n.startswith("rbymatch.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = SimpleNamespace(**{m: importlib.import_module(f"rbymatch.{m}") for m in LIBRARY_MODULES})
    if not Path(lib.driver.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rbymatch was imported from {lib.driver.__file__}, not {SRC}")
    return lib


def set_up(name: str, seed: int, clock: RefClock):
    """Import, generate and warm up ``SETUP_REPEATS`` times.  Returns the
    last library, workload and requests, each repeat's reference seconds
    and wall-clock (import, generate, warm-up) split, and whether every
    repeat produced byte-identical inputs."""
    totals, splits, encodings = [], [], set()
    lib = workload = requests = None
    for _ in range(SETUP_REPEATS):
        lib = workload = requests = None  # each repeat starts from the same heap
        gc.collect()
        clock.settle()
        t0 = perf_counter()
        lib = import_library()
        t1 = perf_counter()
        workload = workloads.make_workload(name, lib)
        requests = workload.generate(Random(f"{name}:{seed}"))
        t2 = perf_counter()
        workload.run(requests[0])
        t3 = perf_counter()
        clock.record(totals, t3 - t0)
        clock.settle()
        splits.append((t1 - t0, t2 - t1, t3 - t2))
        encodings.add(workloads.encode_inputs(requests))
    # The inputs live for the whole run: keep them out of the collector's
    # scans so that the request set's size does not tax every request.
    gc.collect()
    gc.freeze()
    return lib, workload, requests, totals, splits, len(encodings) == 1


class Tally:
    """Outcome of every request served: latency samples of the answered
    ones, yardstick timings, failures, and the answer keys of the first
    pass (later passes must reproduce them)."""

    def __init__(self, count: int):
        self.latency = [[] for _ in range(count)]
        self.yardstick = [[] for _ in range(count)]
        self.keys = [None] * count
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, index: int, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < SHOWN_ERRORS:
            self.errors.append(f"request {index}: {reason}")


def serve(workload, req, index: int, tally: Tally, clock: RefClock, tamper=None) -> float | None:
    """Run one request, time it, check it; returns its wall-clock latency,
    or None when it failed.  The yardstick is timed into the tally."""
    tally.attempted += 1
    t0 = perf_counter()
    try:
        answer = workload.run(req)
    except Exception as exc:  # any raise, InvariantError included, is a failed request
        tally.fail(index, f"{type(exc).__name__}: {exc}")
        return None
    elapsed = perf_counter() - t0
    reference = None
    if req.kind in workload.yardstick_kinds:
        t1 = perf_counter()
        reference = workload.yardstick(req)
        clock.record(tally.yardstick[index], perf_counter() - t1)
    if tamper is not None:
        answer = tamper(req, answer)
    reason = workload.check(req, answer, reference)
    if reason is None:
        key = workload.answer_key(req, answer)
        if tally.keys[index] is None:
            tally.keys[index] = key
        elif tally.keys[index] != key:
            reason = "answer differs from the first pass"
    if reason is not None:
        tally.fail(index, reason)
        return None
    return elapsed


def _whole_passes(seconds: float, one_pass) -> int:
    """Call ``one_pass`` until another would end past ``seconds``; the first
    call always happens.  Returns the number of calls."""
    start = perf_counter()
    passes = 0
    while True:
        pass_start = perf_counter()
        one_pass()
        passes += 1
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            return passes


def measure(workload, requests, seconds: float, clock: RefClock, tamper=None) -> tuple[Tally, int]:
    """Serve the request set in whole passes for ``seconds``."""
    tally = Tally(len(requests))

    def one_pass():
        for i, req in enumerate(requests):
            latency = serve(workload, req, i, tally, clock, tamper)
            if latency is not None:
                clock.record(tally.latency[i], latency)
        clock.settle()

    return tally, _whole_passes(seconds, one_pass)


def measure_traced(workload, requests, seconds: float, clock: RefClock, tracer: Tracer):
    """Each request once plain and once traced, the order alternating by
    request, in whole passes for ``seconds``.  Span busy times are rescaled
    to reference seconds.  Returns the tally, the passes, and the plain and
    traced request seconds."""
    tally = Tally(len(requests))
    plain, traced = [], []
    span_ranges, span_scales = [], []

    def one_pass():
        for i, req in enumerate(requests):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                first_span = len(tracer.spans)
                if with_trace:
                    tracer.request = i
                    tracer.install()
                try:
                    latency = serve(workload, req, i, tally, clock)
                finally:
                    tracer.uninstall()
                if with_trace:
                    span_ranges.append((first_span, len(tracer.spans)))
                    clock.record(span_scales, 1.0)
                if latency is not None:
                    clock.record(traced if with_trace else plain, latency)
        clock.settle()

    passes = _whole_passes(seconds, one_pass)
    for (first, end), scale in zip(span_ranges, span_scales):
        for span in tracer.spans[first:end]:
            span.busy *= scale
    return tally, passes, sum(plain), sum(traced)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) of the highest nearest-rank
    percentile with at least TAIL_BEYOND samples beyond it; the maximum
    when there are too few samples for one."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1], 0
    index = n - TAIL_BEYOND - 1
    return 100.0 * (index + 1) / n, ordered[index], TAIL_BEYOND


def end_to_end(tally: Tally, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and a note on the samples behind each."""
    per_request = [statistics.median(s) for s in tally.latency if s]
    ys = [(statistics.median(lat), statistics.median(y))
          for lat, y in zip(tally.latency, tally.yardstick) if lat and y]
    samples = f"{len(per_request)} requests, {sum(len(s) for s in tally.latency)} samples"
    pct, tail_s, beyond = tail(per_request)
    metrics = {
        "throughput_rps": len(per_request) / sum(per_request),
        "latency_p50_ms": statistics.median(per_request) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "solve_over_oracle": sum(a for a, _ in ys) / sum(b for _, b in ys),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    notes = {
        "throughput_rps": samples,
        "latency_p50_ms": samples + "; a request's latency is the median of its samples",
        "latency_tail_ms": f"p{pct:.2f}, {beyond} of {samples} beyond it",
        "solve_over_oracle": f"{len(ys)} requests",
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    clock = RefClock()
    try:
        lib, workload, requests, totals, splits, identical = set_up(args.workload, args.seed, clock)
    except ImportError as exc:
        print(f"cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(totals)
    print(f"workload {args.workload} seed {args.seed}: {len(requests)} requests")
    print("setup (reference s): " + " ".join(f"{t:.4f}" for t in totals))
    for label, column in (("import", 0), ("generate", 1), ("warm-up", 2)):
        print(f"setup {label} (wall s): " + " ".join(f"{t[column]:.4f}" for t in splits))
    if not identical:
        print("set-up repeats generated different inputs from one seed", file=sys.stderr)
        return 1

    notes = {}
    if args.trace:
        subset = requests[: workload.trace_count]
        tracer = Tracer(lib)
        tally, passes, plain, traced = measure_traced(workload, subset, args.seconds, clock, tracer)
        values = tracer.layer_metrics(passes)
        values["trace.overhead_frac"] = plain / traced - 1.0
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(spans_path)
        print(f"traced {len(subset)} requests x {passes} passes; {len(tracer.spans)} spans in {spans_path}")
    else:
        tally, passes = measure(workload, requests, args.seconds, clock)
        values, notes = end_to_end(tally, setup_s)
        print(f"passes: {passes}")
        print(f"error_rate: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6f}")
    scales = clock.scales
    print(f"reference/wall scale: median {statistics.median(scales):.4f} "
          f"min {min(scales):.4f} max {max(scales):.4f} over {len(scales)} intervals")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    print(f"answer digest: {workloads.answer_digest(tally.keys)}")
    for line in tally.errors:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name}: {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
