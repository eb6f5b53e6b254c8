"""Seeded request sets, the request runners and the answer checks.

Each workload turns a seed into a fixed list of requests.  A request holds
its inputs twice: as plain data (``spec``, used for the byte-identity
self-check and the digest) and as library objects (``args``, built during
set-up so that no timed region pays for construction).

Inputs are stratified rather than drawn independently: the graph size and
the requirement kind cycle through fixed patterns, and only the details
inside each stratum come from the seed.  The marginal distribution is the
one of acceptance criteria 4 and 7, but the per-seed mix of cheap and
expensive requests no longer varies, which keeps seed-to-seed spread low.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

INFEASIBLE = "infeasible"


@dataclass
class Request:
    kind: str
    spec: tuple
    args: tuple


def encode_inputs(requests: list[Request]) -> bytes:
    """Canonical bytes of a request set's inputs."""
    return json.dumps([[r.kind, r.spec] for r in requests]).encode()


def _random_graph_edges(rng: random.Random, n: int, max_edges: int):
    """Criterion-7 graph: each pair an edge with probability 1/4, random
    color, then shuffled and truncated to ``max_edges``."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.randrange(4) == 0:
                edges.append((u, v, rng.choice("RBY")))
    rng.shuffle(edges)
    return edges[:max_edges]


def _random_maximal_matching(rng: random.Random, edges, skip_third: bool):
    """Greedy matching over a shuffled edge order.  With ``skip_third`` each
    edge is passed over with probability 1/3, as criterion 7 does."""
    ids = list(range(len(edges)))
    rng.shuffle(ids)
    used, out = set(), []
    for e in ids:
        if skip_third and rng.randrange(3) == 0:
            continue
        u, v, _ = edges[e]
        if u in used or v in used:
            continue
        used |= {u, v}
        out.append(e)
    return sorted(out)


# The generators and checks use their own small helpers rather than the
# library's, so inputs and verdicts stay put when the library changes.


def _profile(colors) -> tuple[int, int]:
    colors = list(colors)
    return (sum(c == "R" for c in colors), sum(c == "B" for c in colors))


def _segment_points(p0, p1):
    g = math.gcd(abs(p1[0] - p0[0]), abs(p1[1] - p0[1]))
    if g == 0:
        return [p0]
    dx, dy = (p1[0] - p0[0]) // g, (p1[1] - p0[1]) // g
    return [(p0[0] + k * dx, p0[1] + k * dy) for k in range(g + 1)]


def _half_blue_points(p0, p1):
    """Points of the segment with integer red and half-integer blue."""
    dr, db = p1[0] - p0[0], p1[1] - p0[1]
    out = []
    if dr == 0:
        lo, hi = sorted((p0[1], p1[1]))
        out = [(p0[0], Fraction(2 * b + 1, 2)) for b in range(lo, hi)]
    else:
        for r in range(min(p0[0], p1[0]), max(p0[0], p1[0]) + 1):
            blue = p0[1] + Fraction(db * (r - p0[0]), dr)
            if blue.denominator == 2:
                out.append((r, blue))
    return out


def answer_digest(items) -> str:
    """SHA-256 over the answer keys of a request set, in request order."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


class GraphWorkload:
    """Criterion-7 traffic through ``driver.solve``, with
    ``oracle.exact_optimum`` as the yardstick.

    Request i has ``n_lo + i % span`` vertices; requests with ``i % 10 < 7``
    ask for the profile of a random maximal matching and the rest for
    uniform color counts, some of which are LP-infeasible.
    """

    yardstick_kinds = ("graph",)

    def __init__(self, lib, n_lo: int, n_hi: int, max_edges: int, count: int, trace_count: int):
        self.lib = lib
        self.n_lo, self.n_hi, self.max_edges = n_lo, n_hi, max_edges
        self.count, self.trace_count = count, trace_count

    def generate(self, rng: random.Random) -> list[Request]:
        span = self.n_hi - self.n_lo + 1
        out = []
        for i in range(self.count):
            n = self.n_lo + i % span
            edges = _random_graph_edges(rng, n, self.max_edges)
            colors = [c for _, _, c in edges]
            if i % 10 < 7:
                chosen = _random_maximal_matching(rng, edges, skip_third=True)
                kr, kb = _profile(colors[e] for e in chosen)
            else:
                reds, blues = _profile(colors)
                kr, kb = rng.randrange(reds + 1), rng.randrange(blues + 1)
            graph = self.lib.graph.ColoredGraph(n, edges)
            out.append(Request("graph", (n, edges, kr, kb), (graph, kr, kb)))
        return out

    def run(self, req: Request):
        graph, kr, kb = req.args
        return self.lib.driver.solve(graph, kr, kb)

    def yardstick(self, req: Request):
        graph, kr, kb = req.args
        return self.lib.oracle.exact_optimum(graph, kr, kb)

    def check(self, req: Request, report, opt) -> str | None:
        graph, kr, kb = req.args
        if report is None:
            return None if opt is None else "solve says infeasible, oracle found a matching"
        if not self.lib.driver.verify(graph, kr, kb, report):
            return "driver.verify rejected the report"
        if opt is not None and report.alpha_star < len(opt):
            return f"alpha_star {report.alpha_star} below the oracle optimum {len(opt)}"
        return None

    def answer_key(self, req: Request, report):
        if report is None:
            return INFEASIBLE
        return (str(report.alpha_star), report.face_class, sorted(report.matching))

    def corrupt(self, req: Request, report):
        """A wrong answer for the self-check: a nonexistent edge id joins the
        matching.  An infeasible answer stays as it is."""
        if report is None:
            return None
        graph = req.args[0]
        return dataclasses.replace(report, matching=report.matching | {graph.edge_count})


class SelectCombineWorkload:
    """No LP: cycle selection, the two-matchings combiner and crossing
    certificates, interleaved in the fixed ``pattern``.

    One cycle selection, three crossings and eight combiner calls per twelve
    requests: each kind then takes between a fifth and two fifths of the
    workload's time on the seed commit.
    """

    pattern = (
        "combine", "crossing", "combine", "combine", "crossing", "combine",
        "cycle", "combine", "crossing", "combine", "combine", "combine",
    )
    count = trace_count = 2016
    cycle_edges = (4, 120)
    combine_n, combine_edges = 20, 40
    curve_moves = (2, 12)
    yardstick_kinds = ("combine",)

    def __init__(self, lib):
        self.lib = lib

    def generate(self, rng: random.Random) -> list[Request]:
        made = {"cycle": 0, "combine": 0, "crossing": 0}
        out = []
        for i in range(self.count):
            kind = self.pattern[i % len(self.pattern)]
            out.append(getattr(self, f"_gen_{kind}")(rng, made[kind]))
            made[kind] += 1
        return out

    def _gen_cycle(self, rng: random.Random, j: int) -> Request:
        """An even cycle of stratified length.  Odd j asks
        ``solve_fractional`` for a half-blue point (colors redrawn until the
        segment has one), even j asks ``solve_even_cycle`` for a lattice
        point, so every length gets the same mix of both."""
        lo, hi = self.cycle_edges
        length = lo + 2 * ((j // 2) % ((hi - lo) // 2 + 1))
        while True:
            colors = "".join(rng.choice("RBY") for _ in range(length))
            p0 = _profile(colors[0::2])
            p1 = _profile(colors[1::2])
            points = _half_blue_points(p0, p1) if j % 2 else _segment_points(p0, p1)
            if points:
                break
        kr, kb = points[rng.randrange(len(points))]
        spec = (colors, kr, [kb.numerator, kb.denominator] if j % 2 else kb)
        comp = self.lib.graph.even_cycle_from_string(colors)
        return Request("cycle", spec, (comp, kr, kb))

    def _gen_combine(self, rng: random.Random, j: int) -> Request:
        """Two random maximal matchings whose profile segment has an interior
        lattice point (redrawn until it has one), and such a point.  The
        yardstick graph is their union, the combiner's own search space."""
        n = self.combine_n
        edges = _random_graph_edges(rng, n, self.combine_edges)
        colors = [c for _, _, c in edges]
        while True:
            m0 = _random_maximal_matching(rng, edges, skip_third=False)
            m1 = _random_maximal_matching(rng, edges, skip_third=False)
            p0 = _profile(colors[e] for e in m0)
            p1 = _profile(colors[e] for e in m1)
            interior = _segment_points(p0, p1)[1:-1]
            if interior:
                break
        kr, kb = interior[rng.randrange(len(interior))]
        graph = self.lib.graph.ColoredGraph(n, edges)
        union = self.lib.graph.ColoredGraph(n, [edges[e] for e in sorted(set(m0) | set(m1))])
        return Request("combine", (n, edges, m0, m1, kr, kb), (graph, m0, m1, kr, kb, union))

    def _gen_crossing(self, rng: random.Random, j: int) -> Request:
        """Criterion-4 generator: an injective unit-move curve and an interior
        lattice point q of its period segment, off the curve (rejection
        sampling, so it runs library code during set-up)."""
        curve = self.lib.curve
        moves = sorted(curve.MOVE_OF_PAIR.values())
        lo, hi = self.curve_moves
        while True:
            ell = rng.randrange(lo, hi + 1)
            poly = curve.polyline_from_moves(rng.choice(moves) for _ in range(ell))
            dx, dy = poly.period_shift
            g = math.gcd(abs(dx), abs(dy))
            qs = [(dx * k // g, dy * k // g) for k in range(1, g)]
            if not qs or not curve.check_injective(poly):
                continue
            periodic = curve.PeriodicCurve(poly)
            qs = [q for q in qs if not periodic.on_curve((Fraction(q[0]), Fraction(q[1])))]
            if not qs:
                continue
            q = qs[rng.randrange(len(qs))]
            return Request("crossing", (poly.points, q), (poly, q))

    def run(self, req: Request):
        lib = self.lib
        if req.kind == "cycle":
            comp, kr, kb = req.args
            if isinstance(kb, Fraction):
                return lib.cycles.solve_fractional(comp, kr, kb)
            return lib.cycles.solve_even_cycle(comp, kr, kb)
        if req.kind == "combine":
            graph, m0, m1, kr, kb, _ = req.args
            return lib.union.combine_two_matchings(graph, m0, m1, kr, kb)
        poly, q = req.args
        cp = lib.curve.find_crossing_pair(poly, q)
        before, after = self._probes(poly, q, cp)
        periodic = lib.curve.PeriodicCurve(poly)
        return cp, periodic.side_of(before), periodic.side_of(after)

    def _probes(self, poly, q, cp):
        """Criterion-4 probe points just before the contact run and just
        after it, on the translate by q."""
        ev = self.lib.curve.periodic_eval
        s = cp.v - cp.overlap_length
        before = ev(poly, s - Fraction(1, 2))
        after = ev(poly, cp.v + Fraction(1, 2))
        return ((before[0] + q[0], before[1] + q[1]), (after[0] + q[0], after[1] + q[1]))

    def yardstick(self, req: Request):
        _, _, _, kr, kb, union = req.args
        return self.lib.oracle.exact_optimum(union, kr, kb)

    def check(self, req: Request, answer, opt) -> str | None:
        return getattr(self, f"_check_{req.kind}")(req, answer)

    def _check_cycle(self, req: Request, positions) -> str | None:
        comp, kr, kb = req.args
        n = len(comp)
        graph = self.lib.graph.cycle_graph(comp.colors)
        if not self.lib.graph.validate_matching(graph, positions):
            return "cycle selection is not a matching"
        red, blue = _profile(comp.colors[p] for p in positions)
        top = math.ceil(kb)
        if red != kr or blue not in (top - 1, top):
            return f"cycle selection profile {(red, blue)} misses {(kr, kb)}"
        if len(positions) < n // 2 - 1:
            return f"cycle selection has {len(positions)} edges, bound {n // 2 - 1}"
        return None

    def _check_combine(self, req: Request, result) -> str | None:
        graph, m0, m1, kr, kb, _ = req.args
        if not self.lib.graph.validate_matching(graph, result):
            return "combined set is not a matching"
        red, blue = _profile(graph.color(e) for e in result)
        if red != kr or blue not in (kb - 1, kb):
            return f"combined profile {(red, blue)} misses {(kr, kb)}"
        if len(result) < min(len(m0), len(m1)) - 2:
            return f"combined size {len(result)} below min(|M0|, |M1|) - 2"
        return None

    def _check_crossing(self, req: Request, answer) -> str | None:
        poly, q = req.args
        cp, side_before, side_after = answer
        ev = self.lib.curve.periodic_eval
        if not (cp.v < cp.u < cp.v + poly.period_length):
            return "crossing pair out of order"
        contact, translate = ev(poly, cp.u), ev(poly, cp.v)
        if (contact[0] - translate[0], contact[1] - translate[1]) != q:
            return "contact minus translate differs from q"
        on = self.lib.curve.PeriodicCurve.ON
        if on in (side_before, side_after) or side_before == side_after:
            return f"probe sides {side_before}, {side_after} do not certify a crossing"
        return None

    def answer_key(self, req: Request, answer):
        if req.kind == "crossing":
            cp, side_before, side_after = answer
            return (str(cp.u), str(cp.v), cp.kind, cp.overlap_length, side_before, side_after)
        return sorted(answer)

    def corrupt(self, req: Request, answer):
        """A wrong answer for the self-check: equal probe sides, or a
        nonexistent position joining the selection."""
        if req.kind == "crossing":
            cp, side_before, _ = answer
            return cp, side_before, side_before
        size = len(req.args[0]) if req.kind == "cycle" else req.args[0].edge_count
        return frozenset(answer) | {size}


def make_workload(name: str, lib):
    """The named workload at its fixed benchmark size.

    ``graphs_cap`` (n 18..20, m <= 40) is for manual profiling only: its
    solves take seconds each and their cost varies several-fold between
    instances, so the few that fit in one run cannot give steady figures.
    """
    if name == "graphs_small":
        return GraphWorkload(lib, 4, 14, 24, count=1980, trace_count=990)
    if name == "graphs_cap":
        return GraphWorkload(lib, 18, 20, 40, count=6, trace_count=6)
    if name == "select_combine":
        return SelectCombineWorkload(lib)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("graphs_small", "select_combine", "graphs_cap")
