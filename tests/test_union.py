from __future__ import annotations

import hashlib
import random

import pytest

from rbymatch.errors import InvariantError
from rbymatch.graph import (
    ColoredGraph,
    color_profile,
    cycle_graph,
    path_graph,
    validate_matching,
    walk_symdiff,
)
from rbymatch import graph as graph_module
from rbymatch import union
from rbymatch.oracle import best_profile_size, exact_optimum
from rbymatch.union import (
    _blocks,
    _contract_block,
    _lift,
    _orient_start_source0,
    _reverse_block,
    _rotate_cycle,
    combine_two_matchings,
)


def _two_cycles_instance() -> ColoredGraph:
    edges = []
    for i in range(8):  # cycle 1: RYRYRYRY
        edges.append((i, (i + 1) % 8, "RY"[i % 2]))
    for i in range(8):  # cycle 2: BYBYBYBY
        edges.append((8 + i, 8 + (i + 1) % 8, "BY"[i % 2]))
    return ColoredGraph(16, edges)


def _glue(monkeypatch, g: ColoredGraph, m0, m1, positions):
    # the glue case on the blocks of m0 and m1, its selector replaced by one
    # that records the glued colors and takes the given positions
    glued = []

    def select(colors, kr, kb):
        glued.append("".join(colors))
        return frozenset(positions)

    monkeypatch.setattr(union, "solve_even_cycle", select)
    blocks = _blocks(g, m0, m1)
    even, aug0, aug1 = union._classify(blocks)
    for b in even:  # as _solve_blocks orients them before the glue test
        _orient_start_source0(b)
    return glued, union._case_glue(even, aug0, aug1, 0, 0)


def test_glue_single_augmenting_pair(monkeypatch):
    g = ColoredGraph(4, [(0, 1, "R"), (2, 3, "B")])
    assert _glue(monkeypatch, g, {0}, {1}, {0, 1}) == (["RB"], {0, 1})
    assert _glue(monkeypatch, g, {0}, {1}, {1}) == (["RB"], {1})


def test_glue_single_leftover_path_gets_dummy(monkeypatch):
    g = ColoredGraph(2, [(0, 1, "R")])
    # the dummy at position 1 maps to no edge
    assert _glue(monkeypatch, g, {0}, set(), {0, 1}) == (["RY"], {0})
    assert _glue(monkeypatch, g, {0}, set(), {1}) == (["RY"], set())


def test_glue_two_cycles(monkeypatch):
    g = _two_cycles_instance()
    # matching of all red/blue edges: even positions within each cycle
    m0 = frozenset(i for i in range(8) if i % 2 == 0) | frozenset(
        8 + i for i in range(8) if i % 2 == 0
    )
    m1 = frozenset(i for i in range(8) if i % 2 == 1) | frozenset(
        8 + i for i in range(8) if i % 2 == 1
    )
    comps = walk_symdiff(g, m0, m1)
    assert [closed for _, closed, _ in comps] == [True, True]
    glued = ["RY" * 4 + "BY" * 4]
    # the opened spans are (0, 7) and (8, 15): taking both ends of one drops
    # one end, the end after a red start and the start before a yellow end
    assert _glue(monkeypatch, g, m0, m1, {0, 7}) == (glued, {0})
    assert _glue(monkeypatch, g, m0, m1, {8, 15}) == (glued, {15})
    assert _glue(monkeypatch, g, m0, m1, {7, 8}) == (glued, {7, 8})
    with pytest.raises(InvariantError, match="two opened cycles"):
        _glue(monkeypatch, g, m0, m1, {0, 7, 8, 15})


def _cycle_block(colors: str):
    # even ids form m0, so the block starts at edge 0 in matching 0 and no
    # orientation rotates it: its opened ends are edges 0 and n - 1
    g = cycle_graph(colors)
    m0 = frozenset(range(0, len(colors), 2))
    (block,) = _blocks(g, m0, frozenset(range(g.edge_count)) - m0)
    assert block.edges == list(range(len(colors))) and block.first == 0
    return block


@pytest.mark.parametrize(
    "colors, kept",
    [
        ("RYRB", 0),  # red start: the end goes
        ("RBRY", 0),
        ("BRBR", 3),  # red end: the start goes
        ("YRYR", 3),
        ("BRBY", 3),  # blue start, yellow end: the start goes
        ("YRYB", 0),  # yellow start, blue end: the end goes
    ],
)
def test_glue_repairs_an_opened_cycle(monkeypatch, colors, kept):
    # the selector takes both ends of the opened cycle, which share vertex 0
    n = len(colors)
    monkeypatch.setattr(union, "solve_even_cycle", lambda c, kr, kb: frozenset({0, n - 1}))
    assert union._case_glue([_cycle_block(colors)], [], [], 0, 0) == {kept}


def test_glue_rejects_opened_ends_of_one_color(monkeypatch):
    # an uncontracted block: its ends are both red
    monkeypatch.setattr(union, "solve_even_cycle", lambda c, kr, kb: frozenset({0, 3}))
    with pytest.raises(InvariantError, match="in a proper component"):
        union._case_glue([_cycle_block("RBYR")], [], [], 0, 0)


def test_glue_rejects_an_aug0_path_without_an_aug1_partner():
    # combine_two_matchings makes matching 0 the larger one, so more aug0
    # paths than aug1 paths is a broken invariant, not bad input
    (block,) = _blocks(path_graph("R"), frozenset(), frozenset({0}))
    assert union._classify([block]) == ([], [block], [])
    with pytest.raises(InvariantError, match="more paths augment"):
        union._case_glue([], [block], [], 0, 0)


@pytest.mark.parametrize(
    "two_cycle,rest",
    [
        # a BRBR 4-cycle is left: the single-block solve
        ("R", [(2, 3, "B"), (3, 4, "R"), (4, 5, "B"), (5, 2, "R")]),
        # two RY paths are left: the glue case
        ("B", [(2, 3, "R"), (3, 4, "Y"), (5, 6, "R"), (6, 7, "Y")]),
    ],
)
def test_combine_contracts_same_color_two_cycle(two_cycle, rest):
    # edges 0 and 1 join vertices 0 and 1; even ids form m0, odd ids m1
    edges = [(0, 1, two_cycle), (1, 0, two_cycle)] + rest
    g = ColoredGraph(max(max(u, v) for u, v, _ in edges) + 1, edges)
    m0 = frozenset(range(0, len(edges), 2))
    m1 = frozenset(range(1, len(edges), 2))
    (block, *_) = _blocks(g, m0, m1)
    assert block.is_cycle and block.edges == [0, 1]
    records = []
    # the pair is the whole cycle, so no block edge lies before or after it
    assert _contract_block(block, records) == ((1, 0) if two_cycle == "R" else (0, 1))
    assert len(block) == 0
    assert records == [(0, 1, None, None)]

    pa, pb = color_profile(g, m0).rb, color_profile(g, m1).rb
    for kr, kb in _segment_points(pa, pb)[1:-1]:
        got = combine_two_matchings(g, m0, m1, kr, kb)
        assert validate_matching(g, got) and got & {0, 1}
        prof = color_profile(g, got)
        assert prof.red == kr and prof.blue in (kb - 1, kb)
        best = exact_optimum(g, prof.red, prof.blue)
        assert best is not None and len(best) >= len(got) >= min(len(m0), len(m1)) - 2


@pytest.mark.parametrize(
    "colors, is_cycle, records",
    [
        # a path: the neighbours of the pair, None past an end
        ("BRRY", False, [(1, 2, 0, 3)]),
        ("RRB", False, [(0, 1, None, 2)]),
        ("BRR", False, [(1, 2, 0, None)]),
        # a cycle is rotated to the pair first, so its neighbours wrap around
        ("RBBY", True, [(1, 2, 0, 3)]),
        ("RBRR", True, [(2, 3, 1, 0)]),
        ("RBYR", True, [(3, 0, 2, 1)]),
        # a contraction makes the edges around the pair neighbours
        ("RRRR", False, [(0, 1, None, 2), (2, 3, None, None)]),
        ("BRRB", False, [(1, 2, 0, 3), (0, 3, None, None)]),
        ("BRRB", True, [(1, 2, 0, 3), (3, 0, None, None)]),
    ],
)
def test_contract_records_the_neighbouring_edges(colors, is_cycle, records):
    g = (cycle_graph if is_cycle else path_graph)(colors)
    m0 = frozenset(range(0, len(colors), 2))
    (block,) = _blocks(g, m0, frozenset(range(g.edge_count)) - m0)
    got: list = []
    _contract_block(block, got)
    assert got == records


def test_lift_takes_the_free_side():
    # edges 0 and 1 were contracted on the path 3-0-1-2-4 of edges 2, 0, 1,
    # 3: edge 2 lies before the pair and edge 3 after it
    records = [(0, 1, 2, 3)]
    assert _lift(records, set()) == {0}
    assert _lift(records, {2}) == {1, 2}
    assert _lift(records, {3}) == {0, 3}
    # a 2-cycle has no neighbour on either side: the smaller id goes back
    assert _lift([(1, 0, None, None)], set()) == {0}


def test_lift_rejects_two_taken_sides():
    with pytest.raises(InvariantError, match="both contraction lift candidates"):
        _lift([(0, 1, 2, 3)], {2, 3})


def test_lift_replays_newest_first():
    # a path of edges 0..3; (1, 2) went first, between edges 0 and 3, then
    # (0, 3), the whole path left
    records = [(1, 2, 0, 3), (0, 3, None, None)]
    # the newest record picks edge 0, which forces edge 2 for the older one
    assert _lift(records, set()) == {0, 2}


def test_combine_identical_matchings():
    g = cycle_graph("RBYBRBYB")
    m = frozenset({0, 2, 4, 6})
    got = combine_two_matchings(g, m, m, 2, 0)
    assert got == m


def _two_cycles_matchings() -> tuple[frozenset[int], frozenset[int]]:
    # the even and the odd edges of both cycles of _two_cycles_instance
    return (
        frozenset(range(0, 16, 2)),
        frozenset(range(1, 16, 2)),
    )


def test_combine_two_cycles_tightness():
    g = _two_cycles_instance()
    m0, m1 = _two_cycles_matchings()
    got = combine_two_matchings(g, m0, m1, 2, 2)
    assert validate_matching(g, got)
    prof = color_profile(g, got)
    assert prof.red == 2 and prof.blue in (1, 2)
    assert len(got) == 6  # |m1| - 2; the oracle confirms optimality below
    assert best_profile_size(g, [(2, 2), (2, 1)]) == 6


def test_combine_checks_its_size_bound(monkeypatch):
    # the answer sits exactly at |m1| - 2, so losing one yellow edge keeps
    # the profile but breaks the size bound, which the combiner checks itself
    g = _two_cycles_instance()
    m0, m1 = _two_cycles_matchings()
    solve_blocks = union._solve_blocks

    def drop_a_yellow(blocks, *args):
        got = solve_blocks(blocks, *args)
        return got - {min(e for e in got if g.color(e) == "Y")}

    monkeypatch.setattr(union, "_solve_blocks", drop_a_yellow)
    with pytest.raises(InvariantError, match="5 edges, the smaller input 8"):
        combine_two_matchings(g, m0, m1, 2, 2)


def test_combine_requires_on_segment():
    g = cycle_graph("RBYBRBYB")
    with pytest.raises(ValueError):
        combine_two_matchings(g, {0, 2, 4, 6}, {1, 3, 5, 7}, 3, 3)


@pytest.mark.parametrize(
    "m0, m1",
    [
        ({0, 1}, {1, 3, 5, 7}),  # edges 0 and 1 share vertex 1
        ({0, 2, 4, 6}, {1, 3, 5, 6}),  # edges 5 and 6 share vertex 6
        ({0, 2, 4, 8}, {1, 3, 5, 7}),  # the cycle has edges 0..7
        ({0, 2, 4, 6}, {-1, 3, 5}),
    ],
)
def test_combine_rejects_bad_matchings(m0, m1):
    g = cycle_graph("RBYBRBYB")
    with pytest.raises(ValueError):
        combine_two_matchings(g, m0, m1, 1, 2)


def _random_graph_and_matchings(rng: random.Random, n_max=12):
    n = rng.randrange(2, n_max)
    edges = []
    for _ in range(rng.randrange(1, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.choice("RBY")))
    g = ColoredGraph(n, edges)

    def rand_matching():
        ids = list(range(g.edge_count))
        rng.shuffle(ids)
        used, out = set(), set()
        for e in ids:
            if rng.randrange(3) == 0:
                continue
            u, v = g.endpoints(e)
            if u in used or v in used:
                continue
            used |= {u, v}
            out.add(e)
        return frozenset(out)

    return g, rand_matching(), rand_matching()


def _segment_points(p0, p1):
    from math import gcd

    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    if dx == 0 and dy == 0:
        return [p0]
    gg = gcd(abs(dx), abs(dy))
    return [(p0[0] + dx * k // gg, p0[1] + dy * k // gg) for k in range(gg + 1)]


def test_combine_random_contract():
    rng = random.Random(2025)
    trials = 0
    while trials < 500:
        g, ma, mb = _random_graph_and_matchings(rng)
        if len(ma) < len(mb):
            ma, mb = mb, ma
        pa = color_profile(g, ma).rb
        pb = color_profile(g, mb).rb
        pts = _segment_points(pa, pb)
        kr, kb = pts[rng.randrange(len(pts))]
        got = combine_two_matchings(g, ma, mb, kr, kb)
        assert validate_matching(g, got)
        prof = color_profile(g, got)
        assert prof.red == kr
        assert prof.blue in (kb - 1, kb)
        assert len(got) >= len(mb) - 2
        union_graph_edges = ma | mb
        # acyclic unions (every symdiff component a path) strengthen the bound
        comps = walk_symdiff(g, ma - mb, mb - ma)
        if not any(closed for _, closed, _ in comps):
            assert len(got) >= len(mb) - 1
        trials += 1


def _structured_union(rng: random.Random, palettes=("RB", "RBY", "RRBB", "RRBBYY"), mixed=False):
    """Disjoint alternating components biased toward same-color runs, which
    force contraction cascades and the no-yellow recursion.  Each component
    starts in m0, or in either matching when ``mixed``; only mixed starts
    give odd paths that augment each matching, so only they reach joins,
    and only with a palette without yellow."""
    edges = []
    m0, m1 = set(), set()
    base = 0
    palette = rng.choice(palettes)
    for _ in range(rng.randrange(1, 5)):
        length = rng.randrange(1, 9)
        is_cycle = length >= 4 and length % 2 == 0 and rng.randrange(2) == 0
        n = length if is_cycle else length + 1
        start = rng.randrange(2) if mixed else 0
        for i in range(length):
            u = base + i
            v = base + (i + 1) % n if is_cycle else base + i + 1
            edges.append((u, v, rng.choice(palette)))
            (m0 if (i + start) % 2 == 0 else m1).add(len(edges) - 1)
        base += n
    return ColoredGraph(base, edges), frozenset(m0), frozenset(m1)


def test_combine_structured_components_torture(monkeypatch):
    # every third trial draws mixed starts without yellow, which reach joins
    solve_blocks = union._solve_blocks
    joined = 0
    comp_of: dict[int, int] = {}

    def spy(blocks, *args):
        nonlocal joined
        joined += sum(len({comp_of[e] for e in b.edges}) > 1 for b in blocks)
        return solve_blocks(blocks, *args)

    monkeypatch.setattr(union, "_solve_blocks", spy)
    rng = random.Random(616)
    trials = 0
    while trials < 800:
        if trials % 3 == 2:
            g, ma, mb = _structured_union(rng, ("RB", "RRBB"), mixed=True)
        else:
            g, ma, mb = _structured_union(rng)
        if len(ma) < len(mb):
            ma, mb = mb, ma
        pa = color_profile(g, ma).rb
        pb = color_profile(g, mb).rb
        pts = _segment_points(pa, pb)
        kr, kb = pts[rng.randrange(len(pts))]
        comps = walk_symdiff(g, ma - mb, mb - ma)
        comp_of = {e: k for k, (edges, _, _) in enumerate(comps) for e in edges}
        got = combine_two_matchings(g, ma, mb, kr, kb)
        assert validate_matching(g, got)
        prof = color_profile(g, got)
        assert prof.red == kr and prof.blue in (kb - 1, kb)
        assert len(got) >= len(mb) - 2
        if not any(closed for _, closed, _ in comps):
            assert len(got) >= len(mb) - 1
        trials += 1
    assert joined > 0


def test_combine_output_at_most_oracle():
    rng = random.Random(77)
    for _ in range(60):
        g, ma, mb = _random_graph_and_matchings(rng, n_max=9)
        if len(ma) < len(mb):
            ma, mb = mb, ma
        pa = color_profile(g, ma).rb
        pb = color_profile(g, mb).rb
        pts = _segment_points(pa, pb)
        kr, kb = pts[rng.randrange(len(pts))]
        got = combine_two_matchings(g, ma, mb, kr, kb)
        prof = color_profile(g, got)
        oracle_best = exact_optimum(g, prof.red, prof.blue)
        assert oracle_best is not None and len(oracle_best) >= len(got)


def _labels_kept(block, label) -> bool:
    return all(label[e] == block.first ^ (i & 1) for i, e in enumerate(block.edges))


def test_first_bit_labels_every_edge(monkeypatch):
    # edge i of a block comes from matching first ^ (i & 1): the bit must
    # follow every reversal, rotation, contraction and join
    rng = random.Random(4242)
    for _ in range(300):
        g, m0, m1 = _structured_union(rng)
        label = {e: 0 if e in m0 else 1 for e in m0 ^ m1}
        for block in _blocks(g, m0, m1):
            assert _labels_kept(block, label)
            _reverse_block(block)
            assert _labels_kept(block, label)
            if block.is_cycle:
                _rotate_cycle(block, rng.randrange(len(block)))
                assert _labels_kept(block, label)
            _orient_start_source0(block)
            assert _labels_kept(block, label)
            _contract_block(block, [])
            assert _labels_kept(block, label)

    # joins happen inside the no-yellow case; check every block solved
    solve_blocks = union._solve_blocks
    checked = {"blocks": 0, "joined": 0}
    state = {}

    def spy(blocks, *args):
        for b in blocks:
            assert _labels_kept(b, state["label"])
            checked["blocks"] += 1
            checked["joined"] += len({state["comp_of"][e] for e in b.edges}) > 1
        return solve_blocks(blocks, *args)

    monkeypatch.setattr(union, "_solve_blocks", spy)
    for _ in range(800):
        g, ma, mb = _structured_union(rng, ("RB", "RRBB"), mixed=True)
        a0, a1 = ma - mb, mb - ma
        if len(a0) < len(a1):
            a0, a1 = a1, a0  # the combiner's own orientation
        state["label"] = {e: 0 for e in a0} | {e: 1 for e in a1}
        comps = walk_symdiff(g, ma, mb)
        state["comp_of"] = {e: k for k, (edges, _, _) in enumerate(comps) for e in edges}
        pts = _segment_points(color_profile(g, ma).rb, color_profile(g, mb).rb)
        combine_two_matchings(g, ma, mb, *pts[rng.randrange(len(pts))])
    assert checked["blocks"] > 0 and checked["joined"] > 0


def _maximal_matching(rng: random.Random, g: ColoredGraph) -> frozenset[int]:
    ids = list(range(g.edge_count))
    rng.shuffle(ids)
    used, out = set(), set()
    for e in ids:
        u, v = g.endpoints(e)
        if u not in used and v not in used:
            used |= {u, v}
            out.add(e)
    return frozenset(out)


def test_combine_validates_each_matching_once(monkeypatch):
    # requests shaped like the benchmark's combiner calls: n = 20, m <= 40,
    # two random maximal matchings and an interior lattice requirement; the
    # two inputs and the result are validated once each, wherever the call
    # comes from
    calls = 0

    def spy(graph, edge_ids):
        nonlocal calls
        calls += 1
        return validate_matching(graph, edge_ids)

    monkeypatch.setattr(graph_module, "validate_matching", spy)
    monkeypatch.setattr(union, "validate_matching", spy, raising=False)
    rng = random.Random(16)
    combined = 0
    while combined < 60:
        edges = []
        for _ in range(rng.randrange(20, 41)):
            u, v = rng.sample(range(20), 2)
            edges.append((u, v, rng.choice("RBY")))
        g = ColoredGraph(20, edges)
        ma, mb = _maximal_matching(rng, g), _maximal_matching(rng, g)
        pts = _segment_points(color_profile(g, ma).rb, color_profile(g, mb).rb)[1:-1]
        if not pts:
            continue
        calls = 0
        combine_two_matchings(g, ma, mb, *pts[rng.randrange(len(pts))])
        assert calls == 3
        combined += 1


def _copied_blocks(graph: ColoredGraph, m0, m1) -> list[union._Block]:
    """The blocks built the earlier way: a copy of each walked component,
    with its colors read in walk order."""
    host = graph.edges
    return [
        union._Block(list(edges), [host[e].color for e in edges], first, closed)
        for edges, closed, first in walk_symdiff(graph, m0, m1)
    ]


def test_combine_matches_a_combiner_on_copied_components(monkeypatch):
    # benchmark-shaped requests (n = 20, m <= 40, two random maximal
    # matchings, an interior lattice point) and, every fourth, a structured
    # union that forces contractions and joins
    rng = random.Random(28)
    requests = []
    while len(requests) < 2000:
        if len(requests) % 4 == 3:
            g, ma, mb = _structured_union(rng, mixed=rng.randrange(2) == 1)
        else:
            edges = []
            for _ in range(rng.randrange(20, 41)):
                u, v = rng.sample(range(20), 2)
                edges.append((u, v, rng.choice("RBY")))
            g = ColoredGraph(20, edges)
            ma, mb = _maximal_matching(rng, g), _maximal_matching(rng, g)
        pts = _segment_points(color_profile(g, ma).rb, color_profile(g, mb).rb)[1:-1]
        if pts:
            requests.append((g, ma, mb, *pts[rng.randrange(len(pts))]))
    got = [combine_two_matchings(*r) for r in requests]
    monkeypatch.setattr(union, "_blocks", _copied_blocks)
    assert [combine_two_matchings(*r) for r in requests] == got


def test_combine_names_the_first_bad_matching():
    g = cycle_graph("RBYBRBYB")
    with pytest.raises(ValueError, match="^m0 is not a matching$"):
        combine_two_matchings(g, {0, 1}, {1, 2}, 1, 2)
    with pytest.raises(ValueError, match="^m1 is not a matching$"):
        combine_two_matchings(g, {0, 2}, {1, 2}, 1, 2)


def test_classify_runs_once_per_level(monkeypatch):
    # benchmark-shaped requests as above: every _solve_blocks level sorts
    # its blocks into kinds once, glue levels included
    counts = dict.fromkeys(("_solve_blocks", "_classify", "_case_glue"), 0)
    for name in counts:

        def counted(*args, name=name, original=getattr(union, name)):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(union, name, counted)
    rng = random.Random(18)
    combined = glued = 0
    while combined < 60:
        edges = []
        for _ in range(rng.randrange(20, 41)):
            u, v = rng.sample(range(20), 2)
            edges.append((u, v, rng.choice("RBY")))
        g = ColoredGraph(20, edges)
        ma, mb = _maximal_matching(rng, g), _maximal_matching(rng, g)
        pts = _segment_points(color_profile(g, ma).rb, color_profile(g, mb).rb)[1:-1]
        if not pts:
            continue
        counts.update(dict.fromkeys(counts, 0))
        combine_two_matchings(g, ma, mb, *pts[rng.randrange(len(pts))])
        assert counts["_classify"] == counts["_solve_blocks"] > 0
        glued += counts["_case_glue"]
        combined += 1
    assert glued > 0


def _contraction_heavy_request(rng: random.Random):
    """A structured union with mixed starts and no yellow, which reaches
    joins, plus 2-cycles (same-colour ones contract) and shared edges, its
    edge ids shuffled so that lifts break ties both ways; with an interior
    lattice point of its segment, or None when the segment has none."""
    g, m0, m1 = _structured_union(rng, ("RB", "RRBB", "RRRB"), mixed=True)
    edges = list(g.edges)
    n = g.vertex_count
    m0, m1 = set(m0), set(m1)
    for _ in range(rng.randrange(3)):
        edges += [(n, n + 1, rng.choice("RB")), (n + 1, n, rng.choice("RB"))]
        m0.add(len(edges) - 2)
        m1.add(len(edges) - 1)
        n += 2
    for _ in range(rng.randrange(2)):
        edges.append((n, n + 1, rng.choice("RB")))
        m0.add(len(edges) - 1)
        m1.add(len(edges) - 1)
        n += 2
    order = list(range(len(edges)))
    rng.shuffle(order)
    new_id = {old: new for new, old in enumerate(order)}
    g = ColoredGraph(n, [edges[old] for old in order])
    m0, m1 = frozenset(new_id[e] for e in m0), frozenset(new_id[e] for e in m1)
    pts = _segment_points(color_profile(g, m0).rb, color_profile(g, m1).rb)[1:-1]
    return (g, m0, m1, *pts[rng.randrange(len(pts))]) if pts else None


def test_combine_answers_pinned_on_contraction_heavy_unions(monkeypatch):
    # a fixed digest of 2,000 answers, so that a change to the contraction
    # records or to their replay shows even where the answer stays valid
    solve_blocks, lift = union._solve_blocks, union._lift
    seen = dict.fromkeys(("joined", "lifted", "two_cycles", "shared"), 0)
    comp_of: dict[int, int] = {}

    def spy_solve(blocks, *args):
        seen["joined"] += sum(len({comp_of[e] for e in b.edges}) > 1 for b in blocks)
        return solve_blocks(blocks, *args)

    def spy_lift(records, *args):
        seen["lifted"] += len(records)
        return lift(records, *args)

    monkeypatch.setattr(union, "_solve_blocks", spy_solve)
    monkeypatch.setattr(union, "_lift", spy_lift)
    rng = random.Random(3232)
    digest = hashlib.sha256()
    served = 0
    while served < 2000:
        request = _contraction_heavy_request(rng)
        if request is None:
            continue
        g, m0, m1 = request[:3]
        comps = walk_symdiff(g, m0, m1)
        comp_of = {e: k for k, (edges, _, _) in enumerate(comps) for e in edges}
        seen["two_cycles"] += sum(len(edges) == 2 and closed for edges, closed, _ in comps)
        seen["shared"] += bool(m0 & m1)
        got = combine_two_matchings(*request)
        digest.update(repr(sorted(got)).encode() + b"\n")
        served += 1
    assert all(count > 100 for count in seen.values()), seen
    assert digest.hexdigest() == (
        "beaae396a4f635c4c9415e53d00f8798e05346f059a5a84fb482d40e50b30ddc"
    )
