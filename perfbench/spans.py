"""Per-layer spans recorded from outside the library.

``Tracer.install`` rebinds each traced function in every ``rbymatch`` module
namespace that holds it, so a call is caught in whichever module makes it
(``driver.build_lp``, ``lpface.solve_standard_form``, ``union.solve_even_cycle``
and so on); patching only the defining module would miss imported names.
``uninstall`` restores the originals.  Spans stay in memory until ``dump``.

The load is one closed-loop client in one thread, so spans nest strictly:
a span's self time is its busy time minus its children's busy time, and no
span ever waits on another.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

FACE_CLASSES = ("singleton", "segment", "triangle", "parallelogram")

# (module, attribute) of each traced public function; the span is named
# "<module>.<attribute>".
TRACED_FUNCTIONS = (
    ("driver", "solve"),
    ("lpface", "build_lp"),
    ("lpface", "solve_lp"),
    ("lpface", "minimal_face"),
    ("simplex", "solve_standard_form"),
    ("oracle", "enumerate_matchings"),
    ("oracle", "exact_optimum"),
    ("cycles", "solve_path_or_cycle"),
    ("cycles", "solve_fractional"),
    ("cycles", "solve_even_cycle"),
    ("union", "combine_two_matchings"),
    ("curve", "find_crossing_pair"),
)
SIDE_OF = "curve.PeriodicCurve.side_of"
GENERATORS = {"oracle.enumerate_matchings"}


class Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end", "busy", "counters", "ctx")

    def __init__(self, sid, parent, request, name, start):
        self.id, self.parent, self.request, self.name = sid, parent, request, name
        self.start = self.end = start
        self.busy = 0.0
        self.counters: dict[str, int] = {}
        self.ctx = None  # in-memory context for child counters; never written


class _TimedGenerator:
    """Times every ``next()`` of a wrapped generator into its span."""

    def __init__(self, span: Span, gen):
        self.span, self.gen = span, gen
        span.counters["yielded"] = 0

    def __iter__(self):
        return self

    def __next__(self):
        t0 = perf_counter()
        try:
            item = next(self.gen)
        finally:
            t1 = perf_counter()
            self.span.busy += t1 - t0
            self.span.end = t1
        self.span.counters["yielded"] += 1
        return item


def _odd_sets(support_vertices: int) -> int:
    """Odd subsets of size >= 3 among s vertices: 2^(s-1) - s."""
    s = support_vertices
    return (1 << (s - 1)) - s if s >= 3 else 0


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.request = -1
        self.bindings = self._find_bindings()

    # -- wrappers ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, self.request, name, perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        span.busy += span.end - span.start
        self.stack.pop()

    def _wrap(self, name: str, fn):
        on_exit = getattr(self, "_count_" + name.replace(".", "_"), None)
        generator = name in GENERATORS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            if name == "lpface.solve_lp":
                span.ctx = args[0].graph
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_exit is not None:
                on_exit(span, args, result)
            return _TimedGenerator(span, result) if generator else result

        return wrapper

    def _count_lpface_build_lp(self, span, args, model):
        span.counters["rows"] = len(model.blossom_rows)

    def _count_simplex_solve_standard_form(self, span, args, result):
        n_vars, _, ub_rows, eq_rows = args
        rows = len(ub_rows) + len(eq_rows)
        span.counters["tableau_cells"] = rows * (n_vars + rows)
        span.counters["ub_rows"] = len(ub_rows)
        span.counters["infeasible"] = int(result is None)
        parent = self.spans[span.parent] if span.parent is not None else None
        if result is not None and parent is not None and parent.name == "lpface.solve_lp":
            graph = parent.ctx
            support = {u for e, x in enumerate(result.x) if x != 0 for u in graph.endpoints(e)}
            span.counters["odd_sets_scanned"] = _odd_sets(len(support))

    def _count_lpface_minimal_face(self, span, args, face):
        span.counters["vertices"] = len(face.vertex_matchings)
        span.counters["class." + face.classification] = 1

    def _find_bindings(self):
        """(owner, attribute, original, wrapper) for every namespace that
        holds a traced function, the defining module included."""
        modules = [m for n, m in sys.modules.items() if n == "rbymatch" or n.startswith("rbymatch.")]
        out = []
        for mod_name, attr in TRACED_FUNCTIONS:
            fn = getattr(getattr(self.lib, mod_name), attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        out.append((module, key, fn, wrapper))
        cls = self.lib.curve.PeriodicCurve
        out.append((cls, "side_of", cls.side_of, self._wrap(SIDE_OF, cls.side_of)))
        return out

    def install(self) -> None:
        for owner, key, _, wrapper in self.bindings:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self.bindings:
            setattr(owner, key, original)

    # -- results ----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer totals over the traced requests, divided by ``passes``."""
        child_busy = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_busy[span.parent] += span.busy
        busy = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        last_ub_rows: dict[int, int] = {}
        vertex_count: dict[int, int] = {}
        rounds = 0
        for span in self.spans:
            name = span.name
            busy[name] += span.busy
            self_s[name] += span.busy - child_busy[span.id]
            calls[name] += 1
            for key, value in span.counters.items():
                counts[f"{name}.{key}"] += value
            if name == "lpface.solve_lp":
                vertex_count[span.id] = span.ctx.vertex_count
            if name == "simplex.solve_standard_form" and span.parent in vertex_count:
                rounds += 1
                last_ub_rows[span.parent] = span.counters["ub_rows"]
        activated = sum(rows - vertex_count[sid] for sid, rows in last_ub_rows.items())
        scanned = counts["simplex.solve_standard_form.odd_sets_scanned"]
        enumerated = counts["oracle.enumerate_matchings.yielded"]
        out = {}
        for mod_name, attr in TRACED_FUNCTIONS + (tuple(SIDE_OF.rsplit(".", 1)),):
            name = f"{mod_name}.{attr}"
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        out["lpface.build_lp.rows"] = counts["lpface.build_lp.rows"]
        out["lpface.solve_lp.rounds"] = rounds / calls["lpface.solve_lp"] if calls["lpface.solve_lp"] else 0.0
        out["lpface.solve_lp.rows_activated"] = activated
        out["lpface.solve_lp.odd_sets_scanned"] = scanned
        out["lpface.solve_lp.activation_ratio"] = activated / scanned if scanned else 0.0
        for key in ("tableau_cells", "infeasible"):
            out[f"simplex.solve_standard_form.{key}"] = counts[f"simplex.solve_standard_form.{key}"]
        out["oracle.enumerate_matchings.yielded"] = enumerated
        vertices = counts["lpface.minimal_face.vertices"]
        out["lpface.minimal_face.vertex_ratio"] = vertices / enumerated if enumerated else 0.0
        for cls in FACE_CLASSES:
            out[f"lpface.minimal_face.class.{cls}"] = counts[f"lpface.minimal_face.class.{cls}"]
        ratios = {"lpface.solve_lp.rounds", "lpface.solve_lp.activation_ratio",
                  "lpface.minimal_face.vertex_ratio"}
        return {k: (v if k in ratios else v / passes) for k, v in out.items()}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "request": s.request, "name": s.name,
                    "start": s.start, "end": s.end, "busy": s.busy, "counters": s.counters,
                }) + "\n")
