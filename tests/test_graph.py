from __future__ import annotations

import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbymatch.graph import (
    ColoredGraph,
    ColorProfile,
    CycleOrPath,
    color_profile,
    cycle_graph,
    even_cycle_from_string,
    path_graph,
    validate_matching,
    walk_symdiff,
)

FIG1 = "RBYBRBYB"
FIG3 = "YBYBYRYRYBRBYRBRBR"


def test_color_profile_fig1_even_edges():
    g = cycle_graph(FIG1)
    assert color_profile(g, {0, 2, 4, 6}) == ColorProfile(2, 0, 2)


def test_color_profile_empty():
    g = cycle_graph(FIG1)
    assert color_profile(g, set()) == ColorProfile(0, 0, 0)


def test_color_profile_fig3_odd_edges():
    g = cycle_graph(FIG3)
    odd = set(range(1, 18, 2))
    assert color_profile(g, odd) == ColorProfile(5, 4, 0)


def test_color_profile_rejects_out_of_range():
    g = cycle_graph(FIG1)
    # a non-int id is rejected like every other bad id
    for ids in ({99}, ["0"], [None]):
        with pytest.raises(ValueError, match="edge set is not a matching"):
            color_profile(g, ids)


def test_validate_matching_cases():
    g = cycle_graph(FIG1)
    assert validate_matching(g, {0, 3})
    assert not validate_matching(g, {0, 1})
    assert validate_matching(g, set())
    assert not validate_matching(g, {-1})
    assert not validate_matching(g, {0, 8})


@pytest.mark.parametrize(
    "ids, ok",
    [
        (["0"], False),
        ([0.0], False),
        ([None], False),
        ([2, "0"], False),
        ([0, 0], False),  # a repeated id is two edges sharing both ends
        ([3, 3], False),
        ([-1], False),
        ([8], False),  # equal to edge_count
        ([7], True),
        ([], True),
        ([0, 2, 4, 6], True),
        ((i for i in (1, 3)), True),
    ],
)
def test_validate_matching_contract(ids, ok):
    g = cycle_graph(FIG1)
    assert validate_matching(g, ids) is ok


def test_graph_rejects_self_loop_and_bad_color():
    with pytest.raises(ValueError):
        ColoredGraph(2, [(0, 0, "R")])
    with pytest.raises(ValueError):
        ColoredGraph(2, [(0, 1, "Q")])


def test_graph_rejects_a_vertex_count_or_endpoint_that_is_no_int():
    for count in (2.5, 2.0, "3", None):
        with pytest.raises(ValueError, match="vertex_count must be a nonnegative int"):
            ColoredGraph(count, [])
    for edge in ((0.0, 1, "R"), (0, 1.0, "R"), ("0", 1, "R")):
        with pytest.raises(ValueError, match="edge endpoint is not an int"):
            ColoredGraph(3, [edge])
    # bool is an int, as validate_matching takes it
    g = ColoredGraph(True + 1, [(False, True, "R")])
    assert g.vertex_count == 2 and g.endpoints(0) == (0, 1)


def test_parallel_edges_allowed():
    g = ColoredGraph(2, [(0, 1, "R"), (0, 1, "Y")])
    assert g.edge_count == 2
    assert not validate_matching(g, {0, 1})


def test_incident_lists_ids_ascending_with_parallel_edges():
    g = ColoredGraph(5, [(1, 0, "R"), (2, 3, "B"), (0, 1, "Y"), (3, 1, "R"), (0, 1, "B")])
    assert [g.incident(v) for v in range(5)] == [(0, 2, 4), (0, 2, 3, 4), (1,), (1, 3), ()]


@pytest.mark.parametrize("vertex", [5, -1, 1.0, "0"])
def test_incident_rejects_a_vertex_that_is_not_the_graphs(vertex):
    # as the constructor rejects such an endpoint: past the end, negative,
    # or no int at all
    g = ColoredGraph(5, [(1, 0, "R"), (2, 3, "B")])
    with pytest.raises(ValueError, match="vertex out of range"):
        g.incident(vertex)


def test_symdiff_equal_matchings_empty():
    g = cycle_graph("RBRB")
    assert walk_symdiff(g, {0, 2}, {0, 2}) == []


def test_symdiff_four_cycle():
    g = cycle_graph("RBRB")
    comps = walk_symdiff(g, {0, 2}, {1, 3})
    assert len(comps) == 1
    ((edges, closed, first),) = comps
    assert closed
    assert len(edges) == 4
    assert set(edges) == {0, 1, 2, 3}
    assert edges[0] == 0
    assert first == 0


def test_symdiff_two_isolated_edges():
    g = ColoredGraph(4, [(0, 1, "R"), (2, 3, "B")])
    comps = walk_symdiff(g, {0}, {1})
    assert [closed for _, closed, _ in comps] == [False, False]
    assert [edges for edges, _, _ in comps] == [[0], [1]]
    assert [first for _, _, first in comps] == [0, 1]


def test_symdiff_path_numbering_starts_at_smaller_extremal_id():
    # path 0-1-2-3-4 alternating matchings: edges 0,2 in m0 and 1,3 in m1
    g = path_graph("RBRB")
    comps = walk_symdiff(g, {1, 3}, {0, 2})
    ((edges, closed, first),) = comps
    assert edges == [0, 1, 2, 3]
    assert first == 1
    assert not closed


def test_symdiff_orders_components_by_first_edge_not_smallest_id():
    # the path 3-0-4 holds the smallest id 0 but starts at its end edge 3
    g = ColoredGraph(
        7, [(1, 2, "R"), (4, 5, "B"), (5, 6, "R"), (0, 1, "B"), (2, 3, "Y")]
    )
    comps = walk_symdiff(g, {0, 1}, {2, 3, 4})
    assert [edges for edges, _, _ in comps] == [[1, 2], [3, 0, 4]]


def _random_graph(rng: random.Random, n: int, m: int) -> ColoredGraph:
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        edges.append((u, v, rng.choice("RBY")))
    return ColoredGraph(n, edges)


def _random_matching(rng: random.Random, g: ColoredGraph) -> set[int]:
    ids = list(range(g.edge_count))
    rng.shuffle(ids)
    used: set[int] = set()
    out: set[int] = set()
    for eid in ids:
        if rng.randrange(2):
            continue
        u, v = g.endpoints(eid)
        if u in used or v in used:
            continue
        used |= {u, v}
        out.add(eid)
    return out


def test_symdiff_alternation_random():
    rng = random.Random(7)
    for _ in range(200):
        g = _random_graph(rng, rng.randrange(2, 12), rng.randrange(0, 16))
        m0 = _random_matching(rng, g)
        m1 = _random_matching(rng, g)
        comps = walk_symdiff(g, m0, m1)
        degree: dict[int, int] = {}
        for eid in m0 ^ m1:
            for vtx in g.endpoints(eid):
                degree[vtx] = degree.get(vtx, 0) + 1
        seen: set[int] = set()
        for edges, closed, first in comps:
            for i, eid in enumerate(edges):
                assert first ^ (i & 1) == (0 if eid in m0 else 1)
            # a closed walk is the component whose every vertex has degree 2
            assert closed == all(degree[v] == 2 for e in edges for v in g.endpoints(e))
            if closed:
                assert len(edges) % 2 == 0
            seen |= set(edges)
        assert seen == (m0 ^ m1)


@given(st.lists(st.sampled_from("RBY"), min_size=1, max_size=12))
@settings(max_examples=80, deadline=None)
def test_profile_additive_over_disjoint_sets(colors):
    g = ColoredGraph(
        2 * len(colors),
        [(2 * i, 2 * i + 1, c) for i, c in enumerate(colors)],
    )
    ids = list(range(len(colors)))
    half = ids[: len(ids) // 2]
    rest = ids[len(ids) // 2 :]
    total = color_profile(g, ids)
    a, b = color_profile(g, half), color_profile(g, rest)
    assert total == (a.red + b.red, a.blue + b.blue, a.yellow + b.yellow)
    counts = g.color_counts()
    assert total.red <= counts.red
    assert total.blue <= counts.blue
    assert total.yellow <= counts.yellow


def test_cycle_or_path_validation():
    with pytest.raises(ValueError):
        CycleOrPath(("R", "B", "Y"), True)  # an odd cycle
    with pytest.raises(ValueError):
        CycleOrPath((), True)
    with pytest.raises(ValueError, match="unknown color 'Q'"):
        CycleOrPath(("R", "Q"), False)
    with pytest.raises(ValueError, match="unknown color 'X'"):  # the first bad one
        CycleOrPath(("B", "X", "Y", "Q"), False)
    # colors only: a component's host-graph ids stay with its walk
    assert [f.name for f in fields(CycleOrPath)] == ["colors", "is_cycle"]
    c = even_cycle_from_string("RBYB")
    assert c.profile_of((0, 2)) == c.even_profile() == ColorProfile(1, 0, 1)


def _reference_symdiff(graph, m0, m1):
    """BFS, degree pass and ordered walk per component.  The reference for
    walk_symdiff."""
    set0, set1 = frozenset(m0), frozenset(m1)
    diff = sorted(set0 ^ set1)
    incident: dict[int, list[int]] = {}
    for eid in diff:
        for vtx in graph.endpoints(eid):
            incident.setdefault(vtx, []).append(eid)

    def other_endpoint(eid, vtx):
        u, v = graph.endpoints(eid)
        return v if vtx == u else u

    def walk(start_edge, start_vertex, component):
        order, prev_edge, vtx = [start_edge], start_edge, start_vertex
        while True:
            nxt = [e for e in incident[vtx] if e != prev_edge and e in component]
            if not nxt or nxt[0] == start_edge:
                return order
            prev_edge = nxt[0]
            order.append(prev_edge)
            vtx = other_endpoint(prev_edge, vtx)

    visited: set[int] = set()
    out = []
    for seed in diff:
        if seed in visited:
            continue
        component, frontier = {seed}, [seed]
        while frontier:
            for vtx in graph.endpoints(frontier.pop()):
                for nb in incident[vtx]:
                    if nb not in component:
                        component.add(nb)
                        frontier.append(nb)
        visited |= component
        degree: dict[int, int] = {}
        for eid in component:
            for vtx in graph.endpoints(eid):
                degree[vtx] = degree.get(vtx, 0) + 1
        if any(d == 1 for d in degree.values()):
            first = min(
                e for e in component if any(degree[v] == 1 for v in graph.endpoints(e))
            )
            u, v = graph.endpoints(first)
            inner = v if degree[u] == 1 else u
            order = walk(first, inner, component)
            is_cycle = False
        else:
            first = min(component)
            u, v = graph.endpoints(first)
            nb_u = [e for e in incident[u] if e != first]
            nb_v = [e for e in incident[v] if e != first]
            order = walk(first, v if nb_v[0] <= nb_u[0] else u, component)
            is_cycle = True
        matching = 0 if order[0] in set0 else 1
        out.append((is_cycle, tuple(order), matching))
    out.sort(key=lambda c: c[1][0])
    return out


def _random_multigraph(rng: random.Random) -> ColoredGraph:
    n = rng.randrange(2, 14)
    edges: list[tuple[int, int, str]] = []
    for _ in range(rng.randrange(0, 22)):
        if edges and rng.randrange(4) == 0:
            u, v, _ = rng.choice(edges)  # a parallel edge
        else:
            u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.choice("RBY")))
    return ColoredGraph(n, edges)


def test_symdiff_matches_reference_walk():
    rng = random.Random(6)
    kinds = {"cycle": 0, "even path": 0, "odd path": 0}
    two_cycles = 0
    for _ in range(2000):
        g = _random_multigraph(rng)
        m0, m1 = _random_matching(rng, g), _random_matching(rng, g)
        got = walk_symdiff(g, m0, m1)
        want = _reference_symdiff(g, m0, m1)
        assert [(closed, tuple(edges), first) for edges, closed, first in got] == want
        for edges, closed, _ in got:
            kinds["cycle" if closed else ("even path", "odd path")[len(edges) % 2]] += 1
            two_cycles += closed and len(edges) == 2
    assert two_cycles >= 50
    assert min(kinds.values()) >= 200, kinds


def _incident_list_walk(graph, m0, m1):
    """The walk of M0 Δ M1 by a dict of incident-edge lists per vertex and
    a scan of that list per step, as (edge ids, closed, first) lists.  The reference for walk_symdiff's per-vertex mate lookups."""
    set0, set1 = frozenset(m0), frozenset(m1)
    if not validate_matching(graph, set0):
        raise ValueError("m0 is not a matching")
    if not validate_matching(graph, set1):
        raise ValueError("m1 is not a matching")
    diff = sorted(set0 ^ set1)
    host = graph.edges
    incident: dict[int, list[int]] = {}
    for eid in diff:
        u, v, _ = host[eid]
        incident.setdefault(u, []).append(eid)
        incident.setdefault(v, []).append(eid)

    def next_edge(eid, vtx):
        return next((e for e in incident[vtx] if e != eid), None)

    def walk(seed, vtx):
        edges = []
        eid = next_edge(seed, vtx)
        while eid is not None and eid != seed:
            edges.append(eid)
            u, v, _ = host[eid]
            vtx = v if vtx == u else u
            eid = next_edge(eid, vtx)
        return edges, eid == seed

    visited: set[int] = set()
    out = []
    for seed in diff:
        if seed in visited:
            continue
        u, v, _ = host[seed]
        nb_u, nb_v = next_edge(seed, u), next_edge(seed, v)
        if nb_u is not None and (nb_v is None or nb_u < nb_v):
            u, v = v, u
        edges, closed = walk(seed, v)
        order = [seed] + edges
        if not closed:
            back, _ = walk(seed, u)
            order = back[::-1] + order
            if order[-1] < order[0]:
                order.reverse()
        visited.update(order)
        out.append((order, closed, 0 if order[0] in set0 else 1))
    out.sort(key=lambda c: c[0][0])
    return out


def _overlapping_matchings(rng: random.Random, g: ColoredGraph):
    """Two random matchings of g; m1 starts from a random part of m0, so the
    pair shares edges whenever m0 is not empty."""
    m0 = _random_matching(rng, g)
    m1 = {e for e in m0 if rng.randrange(2)}
    used = {v for e in m1 for v in g.endpoints(e)}
    ids = list(range(g.edge_count))
    rng.shuffle(ids)
    for eid in ids:
        u, v = g.endpoints(eid)
        if rng.randrange(2) and u not in used and v not in used:
            used |= {u, v}
            m1.add(eid)
    return m0, m1


def _walk_cases(rng: random.Random):
    """Seeded (graph, m0, m1) triples of four shapes, in turn: small
    multigraphs with shared and parallel edges, the benchmark's n = 20,
    m <= 40 pairs of maximal matchings, disjoint edges (single-edge paths),
    and long even cycles with shuffled edge ids and a few chords."""
    for i in range(2400):
        shape = i % 4
        if shape == 0:
            g = _random_multigraph(rng)
            yield (g, *_overlapping_matchings(rng, g))
        elif shape == 1:
            edges = []
            for _ in range(rng.randrange(20, 41)):
                u, v = rng.sample(range(20), 2)
                edges.append((u, v, rng.choice("RBY")))
            g = ColoredGraph(20, edges)
            yield g, _maximal_matching(rng, g), _maximal_matching(rng, g)
        elif shape == 2:
            k = rng.randrange(1, 8)
            g = ColoredGraph(2 * k, [(2 * j, 2 * j + 1, rng.choice("RBY")) for j in range(k)])
            yield (g, *_overlapping_matchings(rng, g))
        else:
            n = 2 * rng.randrange(2, 31)
            ring = [(j, (j + 1) % n, rng.choice("RBY")) for j in range(n)]
            chords = [tuple(rng.sample(range(n), 2)) + ("Y",) for _ in range(rng.randrange(3))]
            order = list(range(n + len(chords)))
            rng.shuffle(order)
            edges = [(ring + chords)[j] for j in order]
            g = ColoredGraph(n, edges)
            parity = rng.randrange(2)
            m0 = {order.index(j) for j in range(parity, n, 2)}
            m1 = {order.index(j) for j in range(1 - parity, n, 2)}
            if rng.randrange(2):  # drop one edge: a long path
                m1.discard(order.index(1 - parity))
            yield g, m0, m1


def _maximal_matching(rng: random.Random, g: ColoredGraph) -> set[int]:
    ids = list(range(g.edge_count))
    rng.shuffle(ids)
    used: set[int] = set()
    out: set[int] = set()
    for eid in ids:
        u, v = g.endpoints(eid)
        if u not in used and v not in used:
            used |= {u, v}
            out.add(eid)
    return out


def test_walk_matches_the_incident_list_walk():
    rng = random.Random(28)
    seen = dict.fromkeys(
        ("shared", "two-cycle", "single edge", "cycle >= 20", "path >= 20", "n = 20"), 0
    )
    for g, m0, m1 in _walk_cases(rng):
        got = walk_symdiff(g, m0, m1)
        assert got == _incident_list_walk(g, m0, m1)
        seen["shared"] += bool(set(m0) & set(m1))
        seen["n = 20"] += g.vertex_count == 20
        for edges, closed, _ in got:
            seen["two-cycle"] += closed and len(edges) == 2
            seen["single edge"] += len(edges) == 1
            seen["cycle >= 20"] += closed and len(edges) >= 20
            seen["path >= 20"] += not closed and len(edges) >= 20
    assert min(seen.values()) >= 50, seen


def test_walk_names_the_first_bad_matching():
    g = ColoredGraph(3, [(0, 1, "R"), (1, 2, "B")])
    for m0, m1, bad in (
        ({0, 1}, {0, 1}, "m0"),  # both share vertex 1: m0 is named
        ({0, 1}, {0}, "m0"),
        ({0}, {0, 1}, "m1"),
        ({2}, {-1}, "m0"),  # ids out of range
        ({1}, {5}, "m1"),
    ):
        with pytest.raises(ValueError, match=f"^{bad} is not a matching$"):
            walk_symdiff(g, m0, m1)
