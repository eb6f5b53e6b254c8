"""Colored-graph and matching data model shared by all solvers.

Edges carry a color in {R, B, Y} and a stable integer id (their index in the
input edge sequence).  Parallel edges are allowed; self-loops are not.  All
types are immutable after construction and every operation here is a pure
function, so they are safe to share across test shards.

The symmetric difference of two matchings splits into alternating paths and
even cycles.  walk_symdiff walks each once, by per-vertex lookups of the one
M0 edge and the one M1 edge at a vertex, into a plain edge-id list, whether
it closes, and one parity bit, the matching of edge 0, that labels every
edge; the combiner edits those lists in place, and the driver solves a face
side on its one component's colors.  CycleOrPath is the
selectors' color input and holds colors only.  check_colors is the one color
and cycle-length check, shared by CycleOrPath and the selectors' strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

RED = "R"
BLUE = "B"
YELLOW = "Y"
COLORS = (RED, BLUE, YELLOW)
_COLOR_SET = frozenset(COLORS)


class Edge(NamedTuple):
    u: int
    v: int
    color: str


class ColorProfile(NamedTuple):
    red: int
    blue: int
    yellow: int

    @property
    def rb(self) -> tuple[int, int]:
        return (self.red, self.blue)


def profile_of_colors(colors: Iterable[str]) -> ColorProfile:
    red = blue = yellow = 0
    for c in colors:
        if c == RED:
            red += 1
        elif c == BLUE:
            blue += 1
        elif c == YELLOW:
            yellow += 1
        else:
            raise ValueError(f"unknown color {c!r}")
    return ColorProfile(red, blue, yellow)


class ColoredGraph:
    """An edge-colored multigraph on vertices 0..vertex_count-1."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: Iterable[tuple]):
        if not isinstance(vertex_count, int) or vertex_count < 0:
            raise ValueError(f"vertex_count must be a nonnegative int, got {vertex_count!r}")
        normalized = []
        for e in edges:
            edge = Edge(*e)
            if not (isinstance(edge.u, int) and isinstance(edge.v, int)):
                raise ValueError(f"edge endpoint is not an int: {edge}")
            if not (0 <= edge.u < vertex_count and 0 <= edge.v < vertex_count):
                raise ValueError(f"edge endpoint out of range: {edge}")
            if edge.u == edge.v:
                raise ValueError(f"self-loop not allowed: {edge}")
            if edge.color not in COLORS:
                raise ValueError(f"unknown color {edge.color!r}")
            normalized.append(edge)
        self.vertex_count = vertex_count
        self.edges: tuple[Edge, ...] = tuple(normalized)

    def __repr__(self) -> str:
        return f"ColoredGraph({self.vertex_count}, {list(self.edges)!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColoredGraph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def incident(self, vertex: int) -> tuple[int, ...]:
        """The ids of the edges at ``vertex``, ascending; ValueError for a
        vertex that is not one of the graph's."""
        if not (isinstance(vertex, int) and 0 <= vertex < self.vertex_count):
            raise ValueError(f"vertex out of range: {vertex!r}")
        return tuple(i for i, (u, v, _) in enumerate(self.edges) if vertex in (u, v))

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        e = self.edges[edge_id]
        return (e.u, e.v)

    def color(self, edge_id: int) -> str:
        return self.edges[edge_id].color

    def color_counts(self) -> ColorProfile:
        return profile_of_colors(e.color for e in self.edges)


def cycle_graph(colors: str | Iterable[str]) -> ColoredGraph:
    """Cycle with edge i joining vertex i to vertex (i+1) mod n."""
    cols = list(colors)
    n = len(cols)
    if n < 2:
        raise ValueError("cycle needs at least 2 edges")
    return ColoredGraph(n, [(i, (i + 1) % n, c) for i, c in enumerate(cols)])


def path_graph(colors: str | Iterable[str]) -> ColoredGraph:
    """Path with edge i joining vertex i to vertex i+1."""
    cols = list(colors)
    if not cols:
        raise ValueError("path needs at least 1 edge")
    return ColoredGraph(len(cols) + 1, [(i, i + 1, c) for i, c in enumerate(cols)])


def check_colors(colors: Sequence[str], is_cycle: bool) -> None:
    """ValueError unless a cycle has an even number of edges, at least 2,
    and every color is R, B or Y; the first failing check names the fault."""
    n = len(colors)
    if is_cycle and (n % 2 != 0 or n < 2):
        raise ValueError("a cycle needs an even number of edges, at least 2")
    if not _COLOR_SET.issuperset(colors):
        bad = next(c for c in colors if c not in COLORS)
        raise ValueError(f"unknown color {bad!r}")


@dataclass(frozen=True)
class CycleOrPath:
    """A colored path or even cycle, its edges numbered from 0: consecutive
    edges come from different matchings, so the even positions form one
    matching and the odd positions the other.  No host-graph ids are kept;
    a caller maps positions back through its own edge list."""

    colors: tuple[str, ...]
    is_cycle: bool

    def __post_init__(self):
        check_colors(self.colors, self.is_cycle)

    def __len__(self) -> int:
        return len(self.colors)

    def profile_of(self, positions: Iterable[int]) -> ColorProfile:
        return profile_of_colors(self.colors[p] for p in positions)

    def _slice_profile(self, start: int) -> ColorProfile:
        # __post_init__ admits only R, B and Y, so three counts cover the slice
        colors = self.colors[start::2]
        return ColorProfile(colors.count(RED), colors.count(BLUE), colors.count(YELLOW))

    def even_profile(self) -> ColorProfile:
        return self._slice_profile(0)

    def odd_profile(self) -> ColorProfile:
        return self._slice_profile(1)


def even_cycle_from_string(colors: str | Iterable[str]) -> CycleOrPath:
    return CycleOrPath(tuple(colors), True)


def path_from_string(colors: str | Iterable[str]) -> CycleOrPath:
    return CycleOrPath(tuple(colors), False)


def validate_matching(graph: ColoredGraph, edge_ids: Iterable[int]) -> bool:
    """True iff the ids exist in the graph and no two edges share a vertex.

    A repeated id shares both its ends with itself, so it fails too."""
    edges = graph.edges
    count = len(edges)
    used: set[int] = set()
    for eid in edge_ids:
        if not isinstance(eid, int) or not 0 <= eid < count:
            return False
        u, v, _ = edges[eid]
        if u in used or v in used:
            return False
        used.add(u)
        used.add(v)
    return True


def color_profile(graph: ColoredGraph, edge_ids: Iterable[int]) -> ColorProfile:
    """Exact per-color counts of a matching's edges."""
    ids = list(edge_ids)
    if not validate_matching(graph, ids):
        raise ValueError("edge set is not a matching")
    return profile_of_colors(graph.color(eid) for eid in ids)


def walk_symdiff(
    graph: ColoredGraph,
    m0: Iterable[int],
    m1: Iterable[int],
) -> list[tuple[list[int], bool, int]]:
    """The components of M0 symmetric-difference M1, each as its list of
    edge ids in walk order, whether it closes, and ``first``.

    Each matching puts at most one edge at a vertex, so a vertex meets at
    most two difference edges, consecutive edges come from different
    matchings and every closed walk is an even cycle.  The walk follows, at
    each vertex, the edge of the other matching there: one lookup per step.
    Each component is walked once from its smallest edge id.  A cycle starts
    there and proceeds toward the smaller of the two neighbouring ids; a path
    starts at its end edge with the smaller id.  Components are emitted in
    order of their first edge id, which for a path is its smaller end edge,
    not necessarily the smallest id it contains.  ``first`` is 0 when edge 0
    is in M0, 1 when it is in M1.  Vertices are looked up during the walk
    and not returned: consecutive edges share one, and no reader needs which.

    This is the call that validates M0 and M1 (ValueError if either is no
    matching), so callers that pass the full matchings need no check of
    their own.  Shared edges cancel and change nothing in the output.
    """
    set0, set1 = frozenset(m0), frozenset(m1)
    if not validate_matching(graph, set0):
        raise ValueError("m0 is not a matching")
    if not validate_matching(graph, set1):
        raise ValueError("m1 is not a matching")
    host = graph.edges
    only0, only1 = set0 - set1, set1 - set0
    # mates[s][x]: the edge of M_s, not shared, at vertex x
    mates: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for at, only in zip(mates, (only0, only1)):
        for eid in only:
            u, v, _ = host[eid]
            at[u] = at[v] = eid

    def walk(seed: int, vtx: int, side: int, edges: list[int]) -> bool:
        # extend edges past seed through vtx; back at seed?
        eid = mates[side].get(vtx)
        while eid is not None and eid != seed:
            edges.append(eid)
            u, v, _ = host[eid]
            vtx = v if vtx == u else u
            side ^= 1
            eid = mates[side].get(vtx)
        return eid == seed

    visited: set[int] = set()
    components = []
    for seed in sorted(only0 | only1):
        if seed in visited:
            continue
        other = 1 if seed in only0 else 0
        u, v, _ = host[seed]
        nb_u, nb_v = mates[other].get(u), mates[other].get(v)
        if nb_u is not None and (nb_v is None or nb_u < nb_v):
            u, v = v, u  # leave through v, toward the smaller neighbour
        edges = [seed]
        closed = walk(seed, v, other, edges)
        if not closed:
            back: list[int] = []
            walk(seed, u, other, back)
            edges = back[::-1] + edges
            if edges[-1] < edges[0]:
                edges.reverse()
        visited.update(edges)
        components.append((edges, closed, 0 if edges[0] in only0 else 1))
    components.sort(key=lambda c: c[0][0])
    return components

