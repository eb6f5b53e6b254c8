from __future__ import annotations

import random

import pytest

from rbymatch.errors import CapExceededError
from rbymatch.graph import ColoredGraph, color_profile, cycle_graph, path_graph
from rbymatch.oracle import (
    OracleCap,
    enumerate_matchings,
    exact_optimum,
    max_matching_size,
)

FIG1 = "RBYBRBYB"
TIGHT_PATH = "BRYRYBYBYRYRB"


def test_enumerate_single_edge():
    g = ColoredGraph(2, [(0, 1, "R")])
    assert list(enumerate_matchings(g)) == [frozenset(), frozenset({0})]


def test_enumerate_triangle():
    g = cycle_graph("RBY")
    ms = list(enumerate_matchings(g))
    assert len(ms) == 4
    assert frozenset() in ms
    assert all(len(m) <= 1 for m in ms)


def test_enumerate_four_cycle_lexicographic():
    g = cycle_graph("RBRB")
    ms = [tuple(sorted(m)) for m in enumerate_matchings(g)]
    assert ms == [(), (0,), (0, 2), (1,), (1, 3), (2,), (3,)]


def test_enumerate_cap():
    g = ColoredGraph(30, [])
    with pytest.raises(CapExceededError):
        list(enumerate_matchings(g))
    list(enumerate_matchings(g, cap=OracleCap(max_vertices=30)))


def _fib(n: int) -> int:
    a, b = 2, 3
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def _lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_enumeration_counts_match_closed_forms():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(1, 10)
        colors = "".join(rng.choice("RBY") for _ in range(n))
        # paths with n edges have fib(n) matchings (Fibonacci convention above)
        path = path_graph(colors)
        assert sum(1 for _ in enumerate_matchings(path)) == _fib(n)
        if n >= 3:
            cyc = cycle_graph(colors)
            assert sum(1 for _ in enumerate_matchings(cyc)) == _lucas(n)


def test_exact_optimum_fig1_infeasible_profile():
    g = cycle_graph(FIG1)
    assert exact_optimum(g, 2, 1) is None


def test_exact_optimum_single_red_edge():
    g = ColoredGraph(2, [(0, 1, "R")])
    assert exact_optimum(g, 1, 0) == frozenset({0})


def test_exact_optimum_tightness_path():
    g = path_graph(TIGHT_PATH)
    m = exact_optimum(g, 3, 2)
    assert m is not None
    assert len(m) == 5
    assert color_profile(g, m).rb == (3, 2)


def test_exact_optimum_matches_enumeration():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(2, 9)
        edges = []
        for _ in range(rng.randrange(0, 12)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, rng.choice("RBY")))
        g = ColoredGraph(n, edges)
        kr, kb = rng.randrange(0, 3), rng.randrange(0, 3)
        best = None
        for m in enumerate_matchings(g):
            p = color_profile(g, m)
            if (p.red, p.blue) == (kr, kb) and (best is None or len(m) > len(best)):
                best = m
        got = exact_optimum(g, kr, kb)
        if best is None:
            assert got is None
        else:
            assert got is not None and len(got) == len(best)
            p = color_profile(g, got)
            assert (p.red, p.blue) == (kr, kb)


def test_exact_optimum_lexicographic_tiebreak():
    # two disjoint red edges, either alone is optimal for (1, 0)
    g = ColoredGraph(4, [(0, 1, "R"), (2, 3, "R")])
    assert exact_optimum(g, 1, 0) == frozenset({0})


def test_max_matching_size_cases():
    assert max_matching_size(ColoredGraph(3, [])) == 0
    assert max_matching_size(cycle_graph("RB" * 4)) == 4
    assert max_matching_size(path_graph(TIGHT_PATH)) == 7


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def _graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from("RBY")
    )
    edges = [e for e in draw(st.lists(pairs, max_size=10)) if e[0] != e[1]]
    return ColoredGraph(n, edges)


@given(_graphs())
@settings(max_examples=60, deadline=None)
def test_enumeration_yields_unique_valid_matchings(g):
    from rbymatch.graph import validate_matching

    seen = set()
    for m in enumerate_matchings(g):
        assert m not in seen
        seen.add(m)
        assert validate_matching(g, m)


def test_max_matching_size_equals_enumeration_max():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(2, 9)
        edges = []
        for _ in range(rng.randrange(0, 12)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, rng.choice("RBY")))
        g = ColoredGraph(n, edges)
        assert max_matching_size(g) == max(len(m) for m in enumerate_matchings(g))


def _reference_enumerate_matchings(graph, restrict_support=None):
    """The recursive enumeration, one nested generator per depth: the order
    reference for the explicit-stack walk."""
    if restrict_support is None:
        candidates = list(range(graph.edge_count))
    else:
        candidates = sorted(set(restrict_support))
    used: set[int] = set()
    chosen: list[int] = []

    def rec(start):
        yield frozenset(chosen)
        for idx in range(start, len(candidates)):
            u, v = graph.endpoints(candidates[idx])
            if u in used or v in used:
                continue
            used.update((u, v))
            chosen.append(candidates[idx])
            yield from rec(idx + 1)
            chosen.pop()
            used.difference_update((u, v))

    return rec(0)


def test_enumeration_order_matches_the_recursive_reference():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randrange(1, 13)
        edges = []
        for _ in range(rng.randrange(0, 22)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, rng.choice("RBY")))
        g = ColoredGraph(n, edges)
        assert list(enumerate_matchings(g)) == list(_reference_enumerate_matchings(g))
        support = [e for e in range(g.edge_count) if rng.random() < 0.6]
        support += support[: rng.randrange(3)]  # repeats are read once
        assert list(enumerate_matchings(g, restrict_support=support)) == list(
            _reference_enumerate_matchings(g, support)
        )


def test_a_cover_mask_filters_the_walk_and_keeps_its_order():
    # seeded multigraphs (parallel edges included): cover=m yields exactly
    # the matchings of the unpruned walk that cover m, in its order, and
    # cover=0 the unchanged walk
    rng = random.Random(4711)
    pruned = 0
    for _ in range(300):
        n = rng.randrange(1, 11)
        edges = []
        for _ in range(rng.randrange(0, 20)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, rng.choice("RBY")))
        g = ColoredGraph(n, edges)
        support = [e for e in range(g.edge_count) if rng.random() < 0.7]
        full = list(_reference_enumerate_matchings(g, support))
        assert list(enumerate_matchings(g, restrict_support=support, cover=0)) == full
        for _ in range(4):
            cover = rng.randrange(1 << n)
            want = []
            for m in full:
                covered = 0
                for e in m:
                    u, v = g.endpoints(e)
                    covered |= (1 << u) | (1 << v)
                if not cover & ~covered:
                    want.append(m)
            got = list(enumerate_matchings(g, restrict_support=support, cover=cover))
            assert got == want
            pruned += 0 < len(want) < len(full)
    assert pruned >= 100, pruned


def test_enumeration_checks_its_input_before_the_first_yield():
    g = ColoredGraph(3, [(0, 1, "R")])
    with pytest.raises(ValueError):
        enumerate_matchings(g, restrict_support=[1])
    with pytest.raises(CapExceededError):
        enumerate_matchings(ColoredGraph(30, []))
