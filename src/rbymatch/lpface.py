"""Color-constrained matching LP and minimal-face extraction.

The model is the classical matching polytope description (nonnegativity,
degree constraints, and one blossom inequality per odd vertex set) with two
equality rows pinning the red and blue totals, solved exactly by the
integer simplex; its optimum stays integers over one denominator d from the
last pivot to the face.  The model's blossom rows are a lazy sequence,
generated only when iterated, and the solver never reads them: it starts
from the degree and color rows and appends the rows that separation finds
violated, round by round, each round re-optimizing the last one's tableau
by the dual simplex and purging the rows slack at its optimum, until none
is violated, which yields a basic optimal
solution of the full model (a vertex of a relaxation that is feasible for
the full region is a vertex of it).  Separation and tightness scans run on
the LP's own integers over d, as a search pruned by each odd set's degree
slack plus cut (``_odd_sets``).

The solver presolves the model exactly before its first tableau: it drops
rows that other rows imply and fixes columns that the rows fix, and the
feasible region stays the same set of points (Brearley, Mitra & Williams
1975; Andersen & Andersen 1995).  A color C with requirement 0 has x(C) = 0
with x >= 0, which fixes each of its edges at 0.  Those edges are forced:
they leave every degree row, every blossom row and the objective, and C's
equality row goes; with both requirements 0 there is no equality row, so
phase 1 never runs.  The other edges are live.  A vertex with no live edge
has the row 0 <= 1.  A vertex v whose live edges all end at one neighbour w
has x(delta(v)) <= x(delta(w)) <= 1, so w's row implies v's; w keeps its
row unless its live edges all end at v too, and of two such vertices the
lower keeps its row.  A forced edge stays as an all-zero column with
objective 0: no pivot enters it and no basis holds it, so every basic
solution has it at 0 and lies in the full region, of which it is then a
vertex too; ``alpha*`` and every infeasibility verdict are the full
model's.  Separation reads the live graph: blossom rows sum live edges
only, and ``_implied`` counts live neighbours (the argument below runs
through their degree rows, kept or implied by kept ones).

A matching can certify the optimum before any tableau.  Forced edges are 0,
and summing the degree rows of V_live, the vertices with a live edge, counts
every live edge twice, so x(E) <= |V_live| / 2; when |V_live| is odd, its
blossom row gives (|V_live| - 1) / 2.  A matching M of the live edges with
exactly k_red red and k_blue blue edges is a vertex of the matching polytope
in the two color planes, hence of the full model (their intersection), and
its own minimal face; if 2 |M| >= |V_live| - 1, it reaches the bound and is
a basic optimum.

Both scans read the optimum's structure first.  At a point x of the degree
rows, an edge with x_e = 1 leaves its two ends no other support edge, and
for an odd set S:

  * if S holds both ends of an x_e = 1 edge, dropping them keeps the excess
    x(E(S)) - (|S| - 1) / 2; a matching inside the support that covers the
    tight degree vertices holds e, so it is tight on S iff on the rest;
  * if S holds one end u of such an edge, or a vertex u without support,
    x(E(S)) = x(E(S - u)) <= |S - u| / 2, so S is not violated; if S is
    tight, every vertex of S - u is degree-tight with all its support edges
    inside S - u, so every such matching matches S - u perfectly and is
    tight on S.

So only the fractional vertices, the ends of edges with 0 < x_e < 1, need a
scan to tell whether some odd set is violated, or to find the tight ones.
The same argument ranks the violated sets without a scan of the whole
support: each is a violated set T of the fractional vertices plus whole
x_e = 1 pairs, each pair adding 1 to the right-hand side and 1 to x(E(S)),
so it has T's excess; and every such union is violated.  A round that
activates rows expands T's excess groups, from the highest, by the 2^k
unions of the k unit pairs, which picks the same rows as the full scan.

Most of those unions hang off T by one vertex, and their rows are implied:
if a vertex w of S has at most one live neighbour y inside S, then
x(E(S)) <= x(E(S - {w, y})) + x(delta(y)) <= (|S| - 3) / 2 + 1, the rhs of
S (for |S| = 3 every edge of S meets y).  Only 2-connected sets give facets
(Pulleyblank & Edmonds 1974); the round drops the sets with a vertex of
fewer than two neighbours in them, a test on the live graph alone, and
keeps the others where they ranked.  S - {w, y} is violated at least as
much as S and has a smaller mask, so it ranks ahead of S; by induction on
|S| each dropped row is implied by the round's kept rows and degree rows,
and the region the round solves over is the one it would solve over with
every ranked row.

An integral optimum is a matching (self-loops are rejected and parallel
edges share a degree row); it meets every blossom row and is its own minimal
face, so neither scan runs.  It is read from the LP's integers, every x_e in
{0, d}, without splitting the point.

The minimal face of the matching polytope containing the optimum is, by its
definition, the set of matchings inside the support that are tight on every
degree and blossom row tight at the optimum.  By the argument above these
are the matchings of the fractional edges that cover the tight fractional
vertices (the enumerator prunes the rest) and are tight on every odd set
tight on the fractional vertices, each with the x_e = 1 edges added: they
are the only support edges at their tight ends, so they are added to each
survivor rather than enumerated.  At most four survive, forming a point,
segment, triangle, or parallelogram; the face layer ends at that
``FaceDescriptor``, which the driver's case split reads as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .errors import InvariantError
from .graph import BLUE, RED, YELLOW, ColoredGraph, profile_of_colors, validate_matching
from .oracle import OracleCap, DEFAULT_CAP, check_cap, enumerate_matchings
from .simplex import LPResult, solve_standard_form


@dataclass(frozen=True)
class BlossomRow:
    vertex_mask: int
    rhs: int  # (|S| - 1) // 2

    def edge_ids(self, graph: ColoredGraph) -> list[int]:
        mask = self.vertex_mask
        return [eid for eid, (u, v, _) in enumerate(graph.edges) if (mask >> u) & (mask >> v) & 1]


@dataclass(frozen=True)
class BlossomRows:
    """One row per odd vertex set of size >= 3, by size and then in
    lexicographic order, generated on demand: len() is 2^(n-1) - n.

    The full model, for checks that a solution meets every row; the solver
    never iterates it or counts it."""

    vertex_count: int

    def __len__(self) -> int:
        n = self.vertex_count
        return (1 << (n - 1)) - n if n else 0

    def __iter__(self):
        n = self.vertex_count
        for size in range(3, n + 1, 2):
            for subset in combinations(range(n), size):
                yield BlossomRow(sum(1 << v for v in subset), (size - 1) // 2)


@dataclass(frozen=True)
class LPModel:
    graph: ColoredGraph
    k_red: int
    k_blue: int
    blossom_rows: BlossomRows


SINGLETON = "singleton"
SEGMENT = "segment"
TRIANGLE = "triangle"
PARALLELOGRAM = "parallelogram"


@dataclass(frozen=True)
class FaceDescriptor:
    vertex_matchings: tuple[frozenset[int], ...]
    classification: str
    projected_vertices: tuple[tuple[int, int], ...]
    # how the vertices were found: "integral", or "fractional" with the
    # fractional vertex and tight odd set counts
    route: str = field(compare=False)


def build_lp(
    graph: ColoredGraph, k_red: int, k_blue: int, cap: OracleCap = DEFAULT_CAP
) -> LPModel:
    """The full model, one blossom row per odd set of >= 3 vertices."""
    if not (isinstance(k_red, int) and isinstance(k_blue, int)):
        raise ValueError(f"color requirements must be ints, got ({k_red!r}, {k_blue!r})")
    if k_red < 0 or k_blue < 0:
        raise ValueError("color requirements must be nonnegative")
    check_cap(graph, cap)
    return LPModel(graph, k_red, k_blue, BlossomRows(graph.vertex_count))


def _split_point(
    graph: ColoredGraph, numerators: Sequence[int], d: int
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """(the ids of the edges with x_e = 1, (edge id, edge vertex mask, d *
    x_e) per other support edge) for the point x = numerators / d."""
    units: list[int] = []
    fractional: list[tuple[int, int, int]] = []
    for e, num in enumerate(numerators):
        if num == d:
            units.append(e)
        elif num:
            u, v = graph.endpoints(e)
            fractional.append((e, (1 << u) | (1 << v), num))
    return units, fractional


def _odd_sets(
    support: list[tuple[int, int]], den: int, tight: bool
) -> list[tuple[int, int, int]]:
    """(mask, rhs, excess) for every odd set S of >= 3 vertices of the given
    support edges, each (vertex mask, den * x_e), whose excess
    2 * den * (x(E(S)) - rhs) is 0 (tight) or > 0 (violated), by mask.

    With X = den * x and slacks s_v = den - X(delta(v)), a set T has excess
    den - c(T) at cost c(T) = s(T) + X(delta(T)).  At a point of the degree
    rows (every s_v >= 0, else InvariantError) a partial set's cost never
    falls, so a search over the covered vertices in breadth-first order drops
    it once the cost passes den (tight) or reaches den (violated).  The work
    follows the qualifying sets, not the 2^s subsets of s vertices, but is
    not polynomial: k disjoint half-integral triangles have 2^(k-1) violated
    unions.  The solver passes the fractional edges (0 < x_e < 1) of an LP
    point over the LP's own d: it finds a violated set iff the full support
    has one, its violated sets rank the support's (``_top_violated``), and a
    matching of the support that covers the tight degree vertices is tight
    on every tight blossom row iff on its tight sets (see the module
    docstring).
    """
    slack: dict[int, int] = {}
    adjacent: dict[int, dict[int, int]] = {}
    for emask, x in support:
        low = emask & -emask
        for v, u in ((low, emask ^ low), (emask ^ low, low)):
            slack[v] = slack.get(v, den) - x
            row = adjacent.setdefault(v, {})
            row[u] = row.get(u, 0) + x
    if any(s < 0 for s in slack.values()):
        raise InvariantError("odd-set scan needs a point of the degree rows")
    # (mask, cost so far) of each partial set over the decided vertices; the
    # cost counts the slacks taken and X on edges cut between decided vertices
    bound = den if tight else den - 1
    partial = [(0, 0)]
    queued = decided = 0
    for start in sorted(slack):
        queue = [] if start & queued else [start]
        queued |= start
        for v in queue:
            # X from v into each subset of its decided neighbours
            back = 0
            inside = {0: 0}
            for u, x in adjacent[v].items():
                if u & decided:
                    back |= u
                    inside.update([(k | u, w + x) for k, w in inside.items()])
                elif not u & queued:
                    queued |= u
                    queue.append(u)
            decided |= v
            taken = slack[v] + inside[back]
            grown = []
            for mask, cost in partial:
                w = inside[mask & back]
                if cost + w <= bound:
                    grown.append((mask, cost + w))
                if cost + taken - w <= bound:
                    grown.append((mask | v, cost + taken - w))
            partial = grown
    return sorted(
        (mask, size // 2, den - cost)
        for mask, cost in partial
        if (size := mask.bit_count()) & 1 and size >= 3 and (cost == den or not tight)
    )


def _top_violated(
    violated: list[tuple[int, int, int]], unit_pairs: list[int], limit: int
) -> list[tuple[int, int, int]]:
    """The first ``limit`` violated odd sets of the support by (-excess,
    mask), as (mask, rhs, excess), from the ``violated`` sets of the
    fractional vertices and the vertex masks of the x_e = 1 edges.

    The support's violated sets are those T plus any union of unit pairs, at
    T's excess (see the module docstring).  The pairs are disjoint, so
    building the unions in ascending pair order lists them by mask, and
    so does ``T | union`` for one T: the group's first ``room`` sets lie
    among the first ``room`` unions of each of its sets T.  Later unions sort
    after earlier ones, so the doubling stops once ``limit`` are built.
    """
    unions = [(0, 0)]  # (mask, pairs in it)
    for pair in sorted(unit_pairs):
        if len(unions) >= limit:
            break
        unions += [(mask | pair, count + 1) for mask, count in unions]
    groups: dict[int, list[tuple[int, int]]] = {}
    for mask, rhs, excess in violated:
        groups.setdefault(excess, []).append((mask, rhs))
    ranked: list[tuple[int, int, int]] = []
    for excess in sorted(groups, reverse=True):
        room = limit - len(ranked)
        group = sorted(
            (mask | union, rhs + count, excess)
            for mask, rhs in groups[excess]
            for union, count in unions[:room]
        )
        ranked += group[:room]
        if len(ranked) == limit:
            break
    return ranked


def _implied(mask: int, neighbours: list[int]) -> bool:
    """Whether some vertex of the odd set ``mask`` has fewer than two
    distinct neighbours in it, ``neighbours[v]`` being the mask of v's live
    neighbours: then the set's blossom row is implied by a smaller set's
    and a degree row (see the module docstring)."""
    return any(
        (neighbours[v] & mask).bit_count() < 2 for v in range(mask.bit_length()) if mask >> v & 1
    )


def solve_lp(model: LPModel) -> LPResult | None:
    """Basic optimal solution of the full model, exact in integers, or None.

    A count screen returns None before any row is built when k_red >
    |V(R)| // 2, k_blue > |V(B)| // 2 or k_red + k_blue > |V(R u B)| // 2,
    V(C) being the set of vertices that the edges of the colours C touch.
    That is the LP's own infeasibility: summing the degree rows of V(C)
    counts every edge of C twice, so 2 x(C) <= |V(C)|, and the color rows
    pin x(R) = k_red and x(B) = k_blue, which are integers.  A color
    required 0 adds no vertex to V(R u B), which changes no verdict: the
    other color's own test already fails whenever the joint one does.

    Next, one greedy matching M of the live edges may certify the optimum:
    by the sum of their ends' live-neighbour counts, then id, it takes red
    and blue edges with both ends free until exactly k_red and k_blue are
    taken, then every yellow edge with both ends free.  Forced edges are 0,
    so the degree rows of V_live, the vertices with a live edge, and its
    blossom row when |V_live| is odd give alpha* <= |V_live| // 2; M lies in
    the two color planes, so it is a vertex of the full model and its own
    minimal face.  If M meets both counts and 2 |M| >= |V_live| - 1, it is
    returned as ``LPResult(chi(M), |M|, 1)``, with no tableau, which
    ``minimal_face`` reads as an integral optimum; otherwise the LP runs.

    One pass over the edges builds the screen's masks, the live edges'
    degree rows, their neighbour masks, the objective and the color rows
    of the nonzero requirements (the presolve of the module docstring).
    The kept degree rows and those color rows are solved from scratch by
    the two-phase simplex, by phase 2 alone when both requirements are 0.
    Violated blossom rows are then appended in rounds (most
    violated first, at most 24 per round), and each round re-optimizes the
    last round's final tableau by the dual simplex (``start=``), so the
    result is deterministic.  Before a round appends, it purges the active
    rows slack at the last optimum: their slacks are basic, so each is a
    row deletion and the point stays optimal.  Each round passes the degree
    rows and the rows still active as the objects it passed before, in
    their order, ahead of the new ones, which is how ``solve_standard_form``
    tells kept rows from purged ones.  Both the test for a last
    round and the ranking of the rows a round activates scan the
    fractional vertices only; an optimum whose integers are all 0 or d has
    no fractional edge, violates no odd set and is returned without a split
    or a scan.

    A round activates only the ranked sets whose every vertex has two
    distinct live neighbours in the set (``_implied``, see the module
    docstring); the slots of the sets it drops stay empty.  Filling them
    from further down the ranking took more rounds: 6 LP calls became 28
    on one n = 59 graph past the cap.

    The loop ends: every active row holds at a round's optimum, so every
    set a round finds violated is not active, and a set is purged at most
    once, so no set is activated more than twice.  Each round activates a
    row, since the first-ranked set is never implied (a smaller set would
    rank ahead of it).  A round that would activate an active set, or no
    set, breaks that argument and raises InvariantError.
    """
    graph, k_red, k_blue = model.graph, model.k_red, model.k_blue
    m = graph.edge_count
    red: list[tuple[int, int]] = []
    blue: list[tuple[int, int]] = []
    red_ends = blue_ends = 0  # the vertex masks V(R) and V(B)
    objective = [0] * m  # 1 on the live edges, 0 on the forced ones
    incident: list[list[tuple[int, int]]] = [[] for _ in range(graph.vertex_count)]
    neighbours = [0] * graph.vertex_count  # each vertex's live neighbour mask
    for e, (u, v, color) in enumerate(graph.edges):
        if color == RED:
            if not k_red:
                continue
            red.append((e, 1))
            red_ends |= 1 << u | 1 << v
        elif color == BLUE:
            if not k_blue:
                continue
            blue.append((e, 1))
            blue_ends |= 1 << u | 1 << v
        objective[e] = 1
        incident[u].append((e, 1))
        incident[v].append((e, 1))
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    if (
        k_red > red_ends.bit_count() // 2
        or k_blue > blue_ends.bit_count() // 2
        or k_red + k_blue > (red_ends | blue_ends).bit_count() // 2
    ):
        return None
    # the certificate: red and blue edges while their counts are short, then
    # yellow ones, both ends free, fewest live neighbours at the ends first
    edges = graph.edges
    count = [near.bit_count() for near in neighbours]
    live = [e for e, c in enumerate(objective) if c]
    order = sorted(live, key=lambda e: (count[edges[e][0]] + count[edges[e][1]], e))
    need = {RED: k_red, BLUE: k_blue, YELLOW: m}  # m: yellow is never short
    matched = 0
    chi = [0] * m
    for colors in ((RED, BLUE), (YELLOW,)):
        for e in order:
            u, v, color = edges[e]
            if color in colors and need[color] and not matched & (ends := 1 << u | 1 << v):
                need[color] -= 1
                matched |= ends
                chi[e] = 1
    if not need[RED] and not need[BLUE] and matched.bit_count() + 1 >= sum(map(bool, neighbours)):
        return LPResult(chi, matched.bit_count() // 2, 1)
    # a vertex keeps its row if it has two live neighbours, or if it and its
    # one live neighbour have only each other and it is the lower (see the
    # module docstring)
    degree_rows = [
        (incident[v], 1)
        for v, near in enumerate(neighbours)
        if near & (near - 1) or (1 << v < near and neighbours[near.bit_length() - 1] == 1 << v)
    ]
    eq_rows = [(coeffs, k) for coeffs, k in ((red, k_red), (blue, k_blue)) if k]
    res = solve_standard_form(m, objective, degree_rows, eq_rows)
    active: dict[int, tuple[list[tuple[int, int]], int]] = {}  # mask: row, in order
    purged: set[int] = set()
    while True:
        if res is None or set(res.x) <= {0, res.d}:
            return res
        units, fractional = _split_point(graph, res.x, res.d)
        violated = _odd_sets([(emask, x) for _, emask, x in fractional], res.d, tight=False)
        if not violated:
            return res
        x, d = res.x, res.d
        for mask, (coeffs, rhs) in list(active.items()):
            if mask not in purged and sum(x[e] for e, _ in coeffs) < rhs * d:
                purged.add(mask)
                del active[mask]
        # the excess is the violation times 2 d, common to all sets, so it
        # orders them as the rational violation does
        pairs = [(1 << u) | (1 << v) for u, v in map(graph.endpoints, units)]
        ranked = _top_violated(violated, pairs, 24)
        rows = [(mask, rhs) for mask, rhs, _ in ranked if not _implied(mask, neighbours)]
        if not rows:
            raise InvariantError(f"separation offered only implied odd sets, {len(ranked)} of them")
        for mask, rhs in rows:
            if mask in active:
                raise InvariantError(f"separation found the active odd set {mask:#x} violated")
            active[mask] = ([(e, 1) for e in BlossomRow(mask, rhs).edge_ids(graph) if objective[e]], rhs)
        res = solve_standard_form(m, objective, degree_rows + list(active.values()), eq_rows, start=res)


def minimal_face(
    graph: ColoredGraph, solution: LPResult, cap: OracleCap = DEFAULT_CAP
) -> FaceDescriptor:
    """Vertices of the smallest matching-polytope face containing the optimum.

    A solution whose integers are all 0 or d must be a matching, which is a
    vertex of the polytope and so its own minimal face.  Otherwise a matching
    is a face vertex iff its support stays inside the optimum's support and
    its characteristic vector is tight on every degree and blossom row tight
    at the optimum.  Such a matching holds every x_e = 1 edge, so only the
    matchings of the fractional edges that cover the tight fractional
    vertices are enumerated (``cover``), kept if tight on every odd set
    tight on the fractional vertices (see the module docstring), and the
    unit edges are added to each survivor.  More than four vertices would
    contradict the dimension bound and is a fatal internal error.
    """
    check_cap(graph, cap)
    d = solution.d
    if set(solution.x) <= {0, d}:
        unit_edges = frozenset(e for e, num in enumerate(solution.x) if num)
        if not validate_matching(graph, unit_edges):
            raise InvariantError("integral optimum is not a matching")
        return _describe_face(graph, [unit_edges], "integral")
    units, fractional = _split_point(graph, solution.x, d)
    edge_mask = {e: emask for e, emask, _ in fractional}
    # d * x(delta(v)) per fractional vertex v, keyed by its bit
    load: dict[int, int] = {}
    for _, emask, x in fractional:
        low = emask & -emask
        for v in (low, emask ^ low):
            load[v] = load.get(v, 0) + x
    tight_degree = sum(v for v, x in load.items() if x == d)
    tight = _odd_sets([(emask, x) for _, emask, x in fractional], d, tight=True)
    vertices = []
    for m in enumerate_matchings(graph, restrict_support=edge_mask, cap=cap, cover=tight_degree):
        masks = [edge_mask[e] for e in m]
        if all(sum(emask & mask == emask for emask in masks) == rhs for mask, rhs, _ in tight):
            vertices.append(m.union(units))
    route = f"fractional vertices={len(load)} tight_sets={len(tight)}"
    return _describe_face(graph, vertices, route)


def _describe_face(
    graph: ColoredGraph, vertices: list[frozenset[int]], route: str
) -> FaceDescriptor:
    """Classify and order the face vertices found on ``route``."""
    if not vertices:
        raise InvariantError("optimal solution lies in no face of the enumeration")
    if len(vertices) > 4:
        raise InvariantError(
            f"minimal face has {len(vertices)} vertices; dimension bound violated"
        )
    vertices = sorted(vertices, key=lambda m: tuple(sorted(m)))
    # enumerate_matchings yields each matching once, and a line meets the 0/1
    # cube in at most two vertices, so no three face vertices are collinear
    # and the count fixes the class; four affinely independent vertices still
    # fail in _order_parallelogram.
    classification = (SINGLETON, SEGMENT, TRIANGLE, PARALLELOGRAM)[len(vertices) - 1]
    if classification == PARALLELOGRAM:
        vertices = _order_parallelogram(vertices)
    # every vertex is a matching already: validated on the integral route,
    # enumerated as one on the others
    edges = graph.edges
    projected = tuple(profile_of_colors(edges[e][2] for e in m).rb for m in vertices)
    return FaceDescriptor(
        vertex_matchings=tuple(vertices),
        classification=classification,
        projected_vertices=projected,  # type: ignore[arg-type]
        route=route,
    )


def _order_parallelogram(vertices: list[frozenset[int]]) -> list[frozenset[int]]:
    """Cyclic order [v1, v2, v3, v4] with v1 + v3 = v2 + v4 as vectors."""
    v1 = vertices[0]
    rest = vertices[1:]
    for opp_idx in range(3):
        opposite = rest[opp_idx]
        others = [rest[i] for i in range(3) if i != opp_idx]
        c, d = others
        # chi(v1) + chi(opposite) == chi(c) + chi(d): entry 2 is the
        # intersection, entry 1 the symmetric difference
        if v1 & opposite == c & d and v1 ^ opposite == c ^ d:
            a, b = sorted(others, key=lambda m: tuple(sorted(m)))
            return [v1, a, opposite, b]
    raise InvariantError("four face vertices do not form a parallelogram")

