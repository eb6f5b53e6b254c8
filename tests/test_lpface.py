from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from rbymatch import lpface
from rbymatch.errors import CapExceededError, InvariantError
from rbymatch.graph import BLUE, RED, ColoredGraph, color_profile, cycle_graph
from rbymatch.lpface import (
    PARALLELOGRAM,
    SEGMENT,
    SINGLETON,
    TRIANGLE,
    BlossomRow,
    BlossomRows,
    FaceDescriptor,
    LPModel,
    _describe_face,
    _odd_sets,
    _split_point,
    _top_violated,
    build_lp,
    minimal_face,
    solve_lp,
)
from rbymatch.graph import walk_symdiff
from rbymatch.oracle import OracleCap, enumerate_matchings, exact_optimum
from rbymatch.simplex import LPResult, solve_standard_form

FIG1 = "RBYBRBYB"
FIG3 = "YBYBYRYRYBRBYRBRBR"


def test_build_lp_single_edge():
    g = ColoredGraph(2, [(0, 1, "R")])
    model = build_lp(g, 1, 0)
    assert len(model.blossom_rows) == 0


def test_build_lp_triangle():
    g = cycle_graph("RBY")
    model = build_lp(g, 0, 0)
    assert len(model.blossom_rows) == 1
    row = next(iter(model.blossom_rows))
    assert row.rhs == 1
    assert row.vertex_mask == 0b111
    assert row.edge_ids(g) == [0, 1, 2]


def test_build_lp_eight_cycle_row_count():
    g = cycle_graph(FIG1)
    model = build_lp(g, 1, 2)
    assert len(model.blossom_rows) == 120  # C(8,3)+C(8,5)+C(8,7)


def _materialized_rows(n):
    rows = []
    for size in range(3, n + 1, 2):
        for subset in combinations(range(n), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            rows.append(BlossomRow(mask, (size - 1) // 2))
    return tuple(rows)


def test_lazy_blossom_rows_behave_like_the_materialized_tuple():
    # in length and in iteration order, all that the solver and the
    # acceptance suite read of them
    for n in range(13):
        rows = BlossomRows(n)
        expected = _materialized_rows(n)
        assert len(rows) == len(expected)
        assert list(rows) == list(expected)


def test_build_lp_at_the_cap_does_not_materialize_rows():
    g = ColoredGraph(20, [(v, v + 1, "RBY"[v % 3]) for v in range(19)])
    tracemalloc.start()
    try:
        model = build_lp(g, 0, 0)
        assert len(model.blossom_rows) == 524_268  # 2^19 - 20
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # a materialized row costs about 100 bytes


def test_build_lp_cap():
    g = ColoredGraph(25, [])
    with pytest.raises(CapExceededError):
        build_lp(g, 0, 0)


def test_solve_lp_single_red_edge():
    g = ColoredGraph(2, [(0, 1, "R")])
    sol = solve_lp(build_lp(g, 1, 0))
    assert sol is not None
    assert sol.objective == 1
    assert sol.values == (Fraction(1),)


def test_solve_lp_fig1_value():
    g = cycle_graph(FIG1)
    sol = solve_lp(build_lp(g, 1, 2))
    assert sol is not None
    assert sol.objective == 4


def test_solve_lp_fig1_infeasible():
    g = cycle_graph(FIG1)
    assert solve_lp(build_lp(g, 3, 0)) is None


def test_solve_lp_triangle_blossom_binds():
    # triangle of red edges: without the blossom row, 3/2 would be feasible
    g = cycle_graph("RRR")
    sol = solve_lp(build_lp(g, 1, 0))
    assert sol is not None
    assert sol.objective == 1


def _lp_calls(model):
    """(solve_lp's result, the solve_standard_form calls it made)."""
    calls = []

    def counted(*lp, start=None):
        calls.append(start)
        return solve_standard_form(*lp, start=start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpface, "solve_standard_form", counted)
        return solve_lp(model), len(calls)


@pytest.mark.parametrize(
    "edges, k_red, k_blue",
    [
        # red alone: V(R) = {0, 1, 2}, so x(R) <= 3/2
        ([(0, 1, "R"), (1, 2, "R"), (2, 3, "B")], 2, 0),
        # blue alone: V(B) = {0, 1, 2, 3, 4}, so x(B) <= 5/2
        ([(0, 1, "B"), (1, 2, "B"), (2, 3, "B"), (3, 4, "B"), (4, 5, "R")], 0, 3),
        # both together: V(R) and V(B) have two vertices each, their union three
        ([(0, 1, "R"), (1, 2, "B"), (2, 3, "Y")], 1, 1),
    ],
)
def test_count_screen_decides_before_any_lp(edges, k_red, k_blue):
    g = ColoredGraph(6, edges)
    assert _lp_calls(build_lp(g, k_red, k_blue)) == (None, 0)
    assert exact_optimum(g, k_red, k_blue) is None


@pytest.mark.parametrize(
    "edges, k_red, k_blue, alpha",
    [
        ([(0, 1, "R"), (1, 2, "R"), (2, 3, "B")], 1, 1, 2),
        ([(0, 1, "B"), (1, 2, "B"), (2, 3, "B"), (3, 4, "B"), (4, 5, "R")], 0, 2, 2),
        ([(0, 1, "R"), (1, 2, "B"), (2, 3, "B"), (3, 4, "Y")], 1, 1, 2),
    ],
)
def test_count_screen_keeps_requirements_at_its_bounds(edges, k_red, k_blue, alpha):
    # each sits exactly at the bound that decides its row of the test above
    g = ColoredGraph(6, edges)
    sol, calls = _lp_calls(build_lp(g, k_red, k_blue))
    assert sol.objective == alpha == len(exact_optimum(g, k_red, k_blue)) and calls >= 1


def test_count_screen_leaves_other_infeasible_requirements_to_the_lp():
    # a red star: V(R) has four vertices, but its edges share vertex 0
    g = ColoredGraph(4, [(0, 1, "R"), (0, 2, "R"), (0, 3, "R")])
    assert _lp_calls(build_lp(g, 2, 0)) == (None, 1)
    assert exact_optimum(g, 2, 0) is None


def project_profile(graph: ColoredGraph, x) -> tuple[Fraction, Fraction]:
    """(red total, blue total) of a rational solution or matching."""
    if isinstance(x, LPResult):
        colors = [graph.color(e) for e in range(graph.edge_count)]
        red = sum((v for v, c in zip(x.values, colors) if c == RED), Fraction(0))
        blue = sum((v for v, c in zip(x.values, colors) if c == BLUE), Fraction(0))
        return (red, blue)
    prof = color_profile(graph, x)
    return (Fraction(prof.red), Fraction(prof.blue))


def lp_point(values) -> LPResult:
    """A hand-made point of the matching LP (objective: the sum of the
    values), as integers over the lcm of its denominators."""
    d = lcm(*(Fraction(x).denominator for x in values))
    x = [int(v * d) for v in values]
    return LPResult(x, sum(x), d)


def _scaled(graph, values):
    """The support of a point given as Fractions, scaled to integers by the
    lcm den of the denominators: (edge vertex mask, den * x_e) per support
    edge, and den.  The reference scans read it."""
    den = lcm(*(Fraction(x).denominator for x in values))
    support = [
        (sum(1 << u for u in graph.endpoints(e)), int(x * den))
        for e, x in enumerate(values)
        if x
    ]
    return support, den


def test_solve_lp_satisfies_model_exactly():
    rng = random.Random(10)
    for _ in range(40):
        n = rng.randrange(2, 9)
        edges = []
        for _ in range(rng.randrange(1, 14)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, rng.choice("RBY")))
        if not edges:
            continue
        g = ColoredGraph(n, edges)
        kr = rng.randrange(0, 3)
        kb = rng.randrange(0, 3)
        model = build_lp(g, kr, kb)
        sol = solve_lp(model)
        if sol is None:
            assert exact_optimum(g, kr, kb) is None
            continue
        assert sum(sol.values) == sol.objective
        assert project_profile(g, sol) == (kr, kb)
        for v in range(n):
            assert sum(sol.values[e] for e in g.incident(v)) <= 1
        for row in model.blossom_rows:
            ids = row.edge_ids(g)
            assert sum(sol.values[e] for e in ids) <= row.rhs
        opt = exact_optimum(g, kr, kb)
        if opt is not None:
            assert sol.objective >= len(opt)


def _support(solution: LPResult) -> tuple[int, ...]:
    return tuple(e for e, x in enumerate(solution.values) if x != 0)


def convex_coefficients(
    graph: ColoredGraph, face: FaceDescriptor, solution: LPResult
) -> list[Fraction] | None:
    """Exact convex-combination coefficients writing the optimum over the
    face vertices; None when no such combination exists."""
    vertices = face.vertex_matchings
    k = len(vertices)
    edges = sorted(set().union(*vertices) | set(_support(solution)))
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for e in edges:
        rows.append([Fraction(1) if e in m else Fraction(0) for m in vertices])
        rhs.append(solution.values[e])
    rows.append([Fraction(1)] * k)
    rhs.append(Fraction(1))
    coeffs = _solve_linear_system(rows, rhs, k)
    if coeffs is None:
        return None
    if any(c < 0 for c in coeffs):
        return None
    return coeffs


def _solve_linear_system(
    rows: list[list[Fraction]], rhs: list[Fraction], n: int
) -> list[Fraction] | None:
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, len(aug)) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        pv = aug[rank][col]
        aug[rank] = [c / pv for c in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(aug)):
        if aug[i][-1] != 0:
            return None  # inconsistent
    solution = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        solution[col] = aug[i][-1]
    # verify (free variables default to zero)
    for row, b in zip(rows, rhs):
        if sum((a * x for a, x in zip(row, solution)), Fraction(0)) != b:
            return None
    return solution


def test_project_profile_cases():
    g = cycle_graph(FIG3)
    assert project_profile(g, frozenset()) == (0, 0)
    m0 = frozenset(range(0, 18, 2))
    assert project_profile(g, m0) == (1, 2)


def test_minimal_face_singleton():
    g = ColoredGraph(2, [(0, 1, "R")])
    model = build_lp(g, 1, 0)
    sol = solve_lp(model)
    face = minimal_face(g, model, sol)
    assert face.classification == SINGLETON
    assert face.vertex_matchings == (frozenset({0}),)


def test_minimal_face_segment_four_cycle():
    g = cycle_graph("RBRB")
    model = build_lp(g, 1, 1)
    sol = solve_lp(model)
    assert sol is not None
    assert sol.values == (Fraction(1, 2),) * 4
    face = minimal_face(g, model, sol)
    assert face.classification == SEGMENT
    assert set(face.vertex_matchings) == {frozenset({0, 2}), frozenset({1, 3})}
    coeffs = convex_coefficients(g, face, sol)
    assert coeffs == [Fraction(1, 2), Fraction(1, 2)]
    # segment endpoints are adjacent: one alternating component between them
    comps = walk_symdiff(g, *face.vertex_matchings)
    assert len(comps) == 1 and comps[0][1]


def test_separation_and_face_read_the_integer_point_only():
    # the Fraction view is built on first read: neither the separation
    # rounds nor the face step builds it
    g = cycle_graph("RBRB")
    model = build_lp(g, 1, 1)
    sol = solve_lp(model)
    face = minimal_face(g, model, sol)
    assert face.classification == SEGMENT and sol.d > 1
    assert "values" not in sol.__dict__
    assert sol.values == (Fraction(1, 2),) * 4 and "values" in sol.__dict__


def _two_c4_instance():
    edges = [(i, (i + 1) % 4, "RY"[i % 2]) for i in range(4)]
    edges += [(4 + i, 4 + (i + 1) % 4, "BY"[i % 2]) for i in range(4)]
    return ColoredGraph(8, edges)


def test_minimal_face_parallelogram():
    g = _two_c4_instance()
    model = build_lp(g, 1, 1)
    sol = solve_lp(model)
    assert sol is not None
    assert sol.objective == 4
    face = minimal_face(g, model, sol)
    assert face.classification == PARALLELOGRAM
    assert set(face.projected_vertices) == {(2, 2), (2, 0), (0, 0), (0, 2)}
    # cyclic order: v1 - v2 == v4 - v3 on the projections as well
    p = face.projected_vertices
    assert (p[0][0] - p[1][0], p[0][1] - p[1][1]) == (
        p[3][0] - p[2][0],
        p[3][1] - p[2][1],
    )
    coeffs = convex_coefficients(g, face, sol)
    assert coeffs is not None and sum(coeffs) == 1 and all(c >= 0 for c in coeffs)
    # consecutive face vertices are adjacent: their symdiff is one component
    vs = face.vertex_matchings
    for i in range(4):
        a, b = vs[i], vs[(i + 1) % 4]
        comps = walk_symdiff(g, a, b)
        assert len(comps) == 1


def test_face_vertex_sizes_close():
    g = _two_c4_instance()
    model = build_lp(g, 1, 1)
    sol = solve_lp(model)
    face = minimal_face(g, model, sol)
    sizes = [len(m) for m in face.vertex_matchings]
    assert max(sizes) - min(sizes) <= 2


def test_minimal_face_random_convexity():
    rng = random.Random(31)
    done = 0
    while done < 60:
        n = rng.randrange(2, 9)
        edges = []
        for _ in range(rng.randrange(1, 12)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, rng.choice("RBY")))
        if not edges:
            continue
        g = ColoredGraph(n, edges)
        ms = [m for m in enumerate_matchings(g) if m]
        if not ms:
            continue
        target = ms[rng.randrange(len(ms))]
        prof = color_profile(g, target)
        model = build_lp(g, prof.red, prof.blue)
        sol = solve_lp(model)
        assert sol is not None  # the matching itself is feasible
        face = minimal_face(g, model, sol)
        assert 1 <= len(face.vertex_matchings) <= 4
        coeffs = convex_coefficients(g, face, sol)
        assert coeffs is not None
        assert sum(coeffs) == 1
        # sizes along the face stay within the structural bounds
        sizes = [len(m) for m in face.vertex_matchings]
        spread = 2 if face.classification == PARALLELOGRAM else 1
        assert max(sizes) - min(sizes) <= spread
        done += 1


def _reference_odd_sets(support, den, tight):
    """What ``_odd_sets`` returns, from a table of the excess over all 2^s
    subsets of the s covered vertices; it needs no point of the degree rows."""
    covered = 0
    pair: dict[int, int] = {}
    for emask, x in support:
        covered |= emask
        pair[emask] = pair.get(emask, 0) + 2 * x
    # g[T] = 2 den x(E(T)) - den (|T| - 1) over the subsets T of the vertices
    # added so far, indexed by local mask (bit k for vertices[k]); adding v
    # appends g[T + v] = g[T] + a[T] for every T, a[T] = 2 den x(E(v, T)) - den
    vertices = [v for v in range(covered.bit_length()) if (covered >> v) & 1]
    g = [den]
    for k, v in enumerate(vertices):
        a = [-den]
        for u in vertices[:k]:
            w = pair.get((1 << u) | (1 << v), 0)
            a = a + [t + w for t in a] if w else a * 2
        g += [s + t for s, t in zip(g, a)]
    if tight:
        selected = [t for t, excess in enumerate(g) if excess == 0]
    else:
        selected = [t for t, excess in enumerate(g) if excess > 0]
    return [
        (sum(1 << v for k, v in enumerate(vertices) if (t >> k) & 1), size // 2, g[t])
        for t in selected
        if (size := t.bit_count()) & 1 and size >= 3
    ]


def _tight_rows(model, solution, scan=_odd_sets):
    """Tight degree vertices and tight odd sets (mask, rhs) scanned over the
    whole support: the reference for the fractional-vertex scan."""
    support, den = _scaled(model.graph, solution.values)
    tight_degree = [
        v
        for v in range(model.graph.vertex_count)
        if sum(x for emask, x in support if (emask >> v) & 1) == den
    ]
    return tight_degree, [(mask, rhs) for mask, rhs, _ in scan(support, den, tight=True)]


def _fraction_tight_rows(graph, values):
    """The Fraction scan the integer one replaced: every odd set of >= 3
    support vertices, summed edge by edge."""
    support = [
        (sum(1 << u for u in graph.endpoints(e)), x) for e, x in enumerate(values) if x != 0
    ]
    vertices = sorted({u for e, x in enumerate(values) if x != 0 for u in graph.endpoints(e)})
    degree = [
        v
        for v in range(graph.vertex_count)
        if sum((values[e] for e in graph.incident(v)), Fraction(0)) == 1
    ]
    blossoms = []
    for size in range(3, len(vertices) + 1, 2):
        for subset in combinations(vertices, size):
            mask = sum(1 << v for v in subset)
            value = sum((x for emask, x in support if emask & mask == emask), Fraction(0))
            if value == (size - 1) // 2:
                blossoms.append((mask, (size - 1) // 2))
    return degree, sorted(blossoms)


def test_integer_tight_rows_match_fraction_scan():
    # the criterion-8 generator (n <= 10), on the LP optimum and on the
    # point a third of the way from it to a random matching
    from test_acceptance import _random_instance

    # parallel edges, denominators 2 and 3 (the largest is not their lcm),
    # and a point outside the polytope, where {0, 1, 2} is violated: outside
    # the degree rows too, so only the table scan takes it
    g = ColoredGraph(5, [(0, 1, "R"), (0, 1, "B"), (1, 2, "Y"), (2, 3, "R"), (3, 4, "B")])
    values = (Fraction(1, 2), Fraction(1, 2)) + (Fraction(1, 3),) * 3
    degree, blossoms = _tight_rows(build_lp(g, 0, 0), lp_point(values), _reference_odd_sets)
    assert (degree, blossoms) == _fraction_tight_rows(g, values)
    assert (0b01011, 1) in blossoms and (0b11111, 2) in blossoms

    rng = random.Random(808)
    checked = fractional = 0
    while checked < 150:
        g = _random_instance(rng, n_lo=2, n_hi=10, max_edges=18)
        counts = g.color_counts()
        kr = rng.randrange(counts.red + 1)
        kb = rng.randrange(counts.blue + 1)
        model = build_lp(g, kr, kb)
        sol = solve_lp(model)
        if sol is None:
            continue
        matchings = list(enumerate_matchings(g))
        other = matchings[rng.randrange(len(matchings))]
        mixed = tuple((2 * x + (e in other)) / 3 for e, x in enumerate(sol.values))
        for values in (sol.values, mixed):
            degree, blossoms = _tight_rows(model, lp_point(values))
            assert (degree, blossoms) == _fraction_tight_rows(g, values)
            fractional += any(x.denominator > 1 for x in values)
        checked += 1
    assert fractional >= 100


def _full_rows(model, active):
    """(ub_rows, eq_rows) of the full model over every degree row, the
    ``active`` blossom rows and the two color rows, built edge by edge."""
    graph = model.graph
    m = graph.edge_count
    ub_rows = [
        ([(e, 1) for e in range(m) if v in graph.endpoints(e)], 1)
        for v in range(graph.vertex_count)
    ]
    for row in active:
        inside = [e for e in range(m) if all((row.vertex_mask >> u) & 1 for u in graph.endpoints(e))]
        ub_rows.append(([(e, 1) for e in inside], row.rhs))
    eq_rows = [
        ([(e, 1) for e in range(m) if graph.color(e) == color], k)
        for color, k in ((RED, model.k_red), (BLUE, model.k_blue))
    ]
    return ub_rows, eq_rows


def _live_edges(model):
    """The ids of the edges whose color is not required 0."""
    zero = {color for color, k in ((RED, model.k_red), (BLUE, model.k_blue)) if k == 0}
    return [e for e in range(model.graph.edge_count) if model.graph.color(e) not in zero]


def _live_neighbours(model, v):
    """The set of the other ends of v's live edges."""
    return {u for e in _live_edges(model) for u in model.graph.endpoints(e) if v in model.graph.endpoints(e) and u != v}


def _kept_degree_rows(model):
    """The vertices whose degree row the presolve keeps: those with two live
    neighbours, and the lower of two vertices whose live edges all join
    them to each other."""
    kept = []
    for v in range(model.graph.vertex_count):
        near = _live_neighbours(model, v)
        if len(near) > 1 or (near and _live_neighbours(model, min(near)) == {v} and v < min(near)):
            kept.append(v)
    return kept


def _reference_rows(model, active):
    """(objective, ub_rows, eq_rows) of the presolved LP over the ``active``
    blossom rows, built edge by edge: an edge of a color required 0 is
    forced to 0, with objective 0 and in no row, and that color's row goes;
    the degree rows are those of ``_kept_degree_rows``."""
    graph = model.graph
    m = graph.edge_count
    live = _live_edges(model)
    ub_rows = [([(e, 1) for e in live if v in graph.endpoints(e)], 1) for v in _kept_degree_rows(model)]
    for row in active:
        inside = [e for e in live if all((row.vertex_mask >> u) & 1 for u in graph.endpoints(e))]
        ub_rows.append(([(e, 1) for e in inside], row.rhs))
    eq_rows = [
        ([(e, 1) for e in range(m) if graph.color(e) == color], k)
        for color, k in ((RED, model.k_red), (BLUE, model.k_blue))
        if k
    ]
    return [int(e in live) for e in range(m)], ub_rows, eq_rows


def _reference_lp(model, active):
    m = model.graph.edge_count
    return solve_standard_form(m, [1] * m, *_full_rows(model, active))


def _reference_solve_lp(model, rounds):
    """The separation loop over the full model that scanned the whole
    support in every round; appends the LP rows of each round, as (ub_rows,
    eq_rows), to ``rounds``."""
    active = []
    for _ in range(len(model.blossom_rows) + 1):
        rounds.append(_full_rows(model, active))
        res = _reference_lp(model, active)
        if res is None:
            return None
        violated = _odd_sets(*_scaled(model.graph, res.values), tight=False)
        if not violated:
            return res
        violated.sort(key=lambda row: (-row[2], row[0]))
        active += [BlossomRow(mask, rhs) for mask, rhs, _ in violated[:24]]
    raise AssertionError("blossom separation did not converge")


def _reference_face_vertices(model, solution):
    """Matchings inside the support tight on every tight degree row and on
    every tight odd set of the whole support."""
    graph = model.graph
    tight_degree, tight_blossoms = _tight_rows(model, solution)
    vertices = []
    for m in enumerate_matchings(graph, restrict_support=_support(solution)):
        covered = {u for e in m for u in graph.endpoints(e)}
        if any(v not in covered for v in tight_degree):
            continue
        if all(
            sum(all((mask >> u) & 1 for u in graph.endpoints(e)) for e in m) == rhs
            for mask, rhs in tight_blossoms
        ):
            vertices.append(m)
    return sorted(vertices, key=lambda m: tuple(sorted(m)))


def _face_vertices(model, solution):
    """minimal_face's vertices before the dimension bound is applied."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpface, "_describe_face", lambda graph, vertices, route: vertices)
        vertices = minimal_face(model.graph, model, solution)
    return sorted(vertices, key=lambda m: tuple(sorted(m)))


def _assert_routes_agree(model, solution=None, purges=None):
    """solve_lp and minimal_face against the full-support reference, at the
    optimum (or at ``solution``, a point of the polytope).

    At the optimum, solve_lp's rounds are replayed: each round must hand the
    simplex the presolved rows of the reference separation (``_next_rows``)
    at the last round's optimum, and each round's warm optimum must equal a
    from-scratch solve over the same rows in value and in feasibility.  The
    last must be the solution, with no violated set on the whole support,
    and match the from-scratch reference loop over the full model in value
    and feasibility.  Adds the rows purged to the Counter ``purges``, if
    given."""
    if solution is None:
        graph, m = model.graph, model.graph.edge_count
        rounds = []

        def recorded(n_vars, objective, ub_rows, eq_rows, start=None):
            res = solve_standard_form(n_vars, objective, ub_rows, eq_rows, start=start)
            rounds.append((list(objective), list(ub_rows), list(eq_rows), res))
            return res

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lpface, "solve_standard_form", recorded)
            solution = solve_lp(model)
        # no round at all when the count screen decides the model
        assert solution is (rounds[-1][3] if rounds else None)
        active, purged = [], set()
        for k, (objective, ub_rows, eq_rows, res) in enumerate(rounds):
            assert (objective, ub_rows, eq_rows) == _reference_rows(model, active)
            cold = solve_standard_form(m, objective, ub_rows, eq_rows)
            assert (res is None) == (cold is None)
            if res is None:
                break
            assert res.objective == cold.objective
            violated = _odd_sets(*_scaled(graph, res.values), tight=False)
            assert bool(violated) == (k < len(rounds) - 1)
            active = _next_rows(model, active, purged, res, violated)
        if purges is not None:
            purges["purged"] += len(purged)
        want = _reference_solve_lp(model, [])
        assert (solution is None) == (want is None)
        if solution is None:
            return None
        assert solution.objective == want.objective
        expected = _describe_face(model.graph, _reference_face_vertices(model, solution), "")
        assert minimal_face(model.graph, model, solution) == expected
    assert _face_vertices(model, solution) == _reference_face_vertices(model, solution)
    return solution


def _next_rows(model, active, purged, res, violated):
    """The blossom rows of the round after the optimum ``res``: the
    ``active`` rows less those slack at ``res`` that are not in ``purged``
    (which takes them), then those of the first 24 ``violated`` sets of the
    whole support by (-excess, mask) that are not ``_loosely_attached``."""
    graph = model.graph
    kept = []
    for row in active:
        inside = sum(x for e, x in enumerate(res.values) if all((row.vertex_mask >> u) & 1 for u in graph.endpoints(e)))
        if row.vertex_mask not in purged and inside < row.rhs:
            purged.add(row.vertex_mask)
        else:
            kept.append(row)
    ranked = sorted(violated, key=lambda row: (-row[2], row[0]))[:24]
    return kept + [BlossomRow(mask, rhs) for mask, rhs, _ in ranked if not _loosely_attached(model, mask)]


def _loosely_attached(model, mask):
    """Whether some vertex of the set ``mask`` has fewer than two distinct
    neighbours inside it, counted over the live edges."""
    inside = {v: set() for v in range(model.graph.vertex_count) if (mask >> v) & 1}
    for u, v in map(model.graph.endpoints, _live_edges(model)):
        if u in inside and v in inside:
            inside[u].add(v)
            inside[v].add(u)
    return any(len(neighbours) < 2 for neighbours in inside.values())


def _has_fractional_edge(values):
    return any(x.denominator > 1 for x in values)


def test_fractional_routes_match_the_full_scan_on_the_lp_generator():
    # the criterion-8 generator, at the optimum and at (2x + chi_M) / 3
    from test_acceptance import _random_instance

    rng = random.Random(4242)
    checked = fractional = 0
    while checked < 200:
        g = _random_instance(rng, n_lo=2, n_hi=10, max_edges=18)
        counts = g.color_counts()
        model = build_lp(g, rng.randrange(counts.red + 1), rng.randrange(counts.blue + 1))
        sol = _assert_routes_agree(model)
        if sol is None:
            continue
        matchings = list(enumerate_matchings(g))
        other = matchings[rng.randrange(len(matchings))]
        mixed = tuple((2 * x + (e in other)) / 3 for e, x in enumerate(sol.values))
        _assert_routes_agree(model, lp_point(mixed))
        fractional += _has_fractional_edge(sol.values) + _has_fractional_edge(mixed)
        checked += 1
    assert fractional >= 100


def test_fractional_routes_match_the_full_scan_on_multigraphs():
    rng = random.Random(77)
    checked = 0
    while checked < 80:
        n = rng.randrange(3, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [(*rng.choice(pairs), rng.choice("RBY")) for _ in range(rng.randrange(3, 13))]
        g = ColoredGraph(n, edges)
        counts = g.color_counts()
        model = build_lp(g, rng.randrange(counts.red + 1), rng.randrange(counts.blue + 1))
        sol = _assert_routes_agree(model)
        if sol is None:
            continue
        other = list(enumerate_matchings(g))[-1]
        mixed = tuple((2 * x + (e in other)) / 3 for e, x in enumerate(sol.values))
        _assert_routes_agree(model, lp_point(mixed))
        checked += 1
    # a parallel pair at 1/2 each, next to a 4-cycle at 1/4 and 3/4
    g = ColoredGraph(
        6,
        [(0, 1, "R"), (0, 1, "B"), (2, 3, "R"), (3, 4, "Y"), (4, 5, "B"), (5, 2, "Y"), (1, 2, "Y")],
    )
    values = (Fraction(1, 2), Fraction(1, 2)) + (Fraction(1, 4), Fraction(3, 4)) * 2 + (Fraction(0),)
    _assert_routes_agree(build_lp(g, 0, 0), lp_point(values))


def test_separation_rounds_match_the_full_scan_at_the_benchmark_size(monkeypatch):
    # graphs_small's largest graphs (n 11..14, m = 24, the profile of a
    # random maximal matching): some rounds there have more than 24
    # violated sets or several excess groups, so the rows activated in
    # each round are compared where the limit and the group order matter,
    # and where warm rounds purge slack rows
    rounds = Counter()

    def counted(violated, unit_pairs, limit):
        ranked = _top_violated(violated, unit_pairs, len(violated) << len(unit_pairs))
        rounds["over the limit"] += len(ranked) > limit
        rounds["several excess groups"] += len({excess for _, _, excess in ranked}) > 1
        return ranked[:limit]

    monkeypatch.setattr(lpface, "_top_violated", counted)
    rng = random.Random(1)
    for _ in range(100):
        _assert_routes_agree(_benchmark_size_model(rng), purges=rounds)
    assert min(rounds.values()) >= 3, rounds


def _benchmark_size_model(rng):
    """The LP of one of graphs_small's largest graphs: n 11..14, m = 24, and
    the profile of a random maximal matching as the requirement."""
    n = rng.randint(11, 14)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [(u, v, rng.choice("RBY")) for u, v in rng.sample(pairs, 24)]
    used, kr, kb = set(), 0, 0
    for u, v, c in rng.sample(edges, len(edges)):
        if not used & {u, v}:
            used |= {u, v}
            kr, kb = kr + (c == RED), kb + (c == BLUE)
    return build_lp(ColoredGraph(n, edges), kr, kb)


def _violation(graph, values, mask):
    """x(E(S)) - (|S| - 1) / 2 at the point ``values`` for the set ``mask``."""
    inside = sum(x for e, x in enumerate(values) if all((mask >> u) & 1 for u in graph.endpoints(e)))
    return inside - (mask.bit_count() - 1) // 2


def _assert_dropped_rows_are_implied(model, tally):
    """Replays solve_lp's rounds: each appends the rows of the ranked sets
    that are not ``_loosely_attached``, in ranked order, and keeps the first
    ranked set; each dropped set S has a vertex w whose only neighbour in S,
    if any, is y, with S - {w, y} of >= 3 vertices and violated at least as
    much as S at the round's point.  Counts the rounds and the sets dropped
    in ``tally``."""
    graph = model.graph
    lps, ranked = [], []

    def recorded(*lp, start=None):
        res = solve_standard_form(*lp, start=start)
        lps.append((lp[2], res))
        return res

    def offered(violated, unit_pairs, limit):
        ranked.append(_top_violated(violated, unit_pairs, limit))
        return ranked[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpface, "solve_standard_form", recorded)
        mp.setattr(lpface, "_top_violated", offered)
        solve_lp(model)
    # a model the count screen decides makes no LP call
    assert len(ranked) == max(len(lps) - 1, 0)
    for (before, res), (after, _), top in zip(lps, lps[1:], ranked):
        appended = [row for row in after if all(row is not r for r in before)]
        live = set(_live_edges(model))
        rows = {mask: ([(e, 1) for e in BlossomRow(mask, rhs).edge_ids(graph) if e in live], rhs) for mask, rhs, _ in top}
        kept = [mask for mask, _, _ in top if not _loosely_attached(model, mask)]
        assert appended == [rows[mask] for mask in kept]
        assert kept[0] == top[0][0]
        for mask in set(rows) - set(kept):
            assert any(_is_implied_at(model, res.values, mask, w) for w in range(graph.vertex_count) if (mask >> w) & 1)
            tally["dropped"] += 1
        tally["rounds"] += 1


def _is_implied_at(model, values, mask, w):
    """Whether w has at most one live neighbour y in ``mask`` and some such
    y (any vertex of the set if w has none) leaves a set of >= 3 vertices
    violated at ``values`` at least as much as ``mask``."""
    graph = model.graph
    inside = {y for y in _live_neighbours(model, w) if (mask >> y) & 1}
    if len(inside) > 1:
        return False
    others = inside or {y for y in range(graph.vertex_count) if (mask >> y) & 1 and y != w}
    return any(
        (rest := mask & ~(1 << w) & ~(1 << y)).bit_count() >= 3
        and _violation(graph, values, mask) <= _violation(graph, values, rest)
        for y in others
    )


def test_dropped_rows_are_implied_and_the_first_set_is_kept():
    # the criterion-8 generator and graphs_small's largest graphs
    from test_acceptance import _random_instance

    generator, benchmark = Counter(), Counter()
    rng = random.Random(4242)
    for _ in range(1000):
        g = _random_instance(rng, n_lo=2, n_hi=10, max_edges=18)
        counts = g.color_counts()
        model = build_lp(g, rng.randrange(counts.red + 1), rng.randrange(counts.blue + 1))
        _assert_dropped_rows_are_implied(model, generator)
    rng = random.Random(11)
    for _ in range(100):
        _assert_dropped_rows_are_implied(_benchmark_size_model(rng), benchmark)
    for tally in (generator, benchmark):
        assert tally["rounds"] >= 20 and tally["dropped"] >= 30, (generator, benchmark)


def _assert_presolve_holds(model, tally):
    """At every round's point of solve_lp, each degree row the presolve
    drops holds and each forced edge is 0; counts the points, the dropped
    rows checked (and those tight there) and the forced edges in ``tally``."""
    graph = model.graph
    points = []

    def recorded(*lp, start=None):
        points.append(solve_standard_form(*lp, start=start))
        return points[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpface, "solve_standard_form", recorded)
        solve_lp(model)
    live = set(_live_edges(model))
    forced = [e for e in range(graph.edge_count) if e not in live]
    dropped = set(range(graph.vertex_count)) - set(_kept_degree_rows(model))
    for res in filter(None, points):
        for v in dropped:
            load = sum(res.values[e] for e in graph.incident(v))
            assert load <= 1, (graph, v, load)
            tally["tight dropped rows"] += load == 1
        assert [res.x[e] for e in forced] == [0] * len(forced)
        tally["points"] += 1
        tally["dropped rows"] += len(dropped)
        tally["forced edges"] += len(forced)


def _multigraph_with_isolated_edges(rng):
    """A random multigraph on 3..7 vertices, with parallel edges, beside
    one to three components of one to three parallel edges each."""
    n = rng.randrange(3, 8)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [(*rng.choice(pairs), rng.choice("RBY")) for _ in range(rng.randrange(3, 13))]
    for _ in range(rng.randrange(1, 4)):
        ends = (n, n + 1) if rng.randrange(2) else (n + 1, n)
        edges += [(*ends, rng.choice("RBY")) for _ in range(rng.randrange(1, 4))]
        n += 2
    rng.shuffle(edges)
    return ColoredGraph(n, edges)


def test_dropped_degree_rows_hold_and_forced_edges_are_zero_at_every_round():
    # graphs_small's largest graphs, and multigraphs with parallel and
    # isolated edges, under requirements that are 0 for a color now and then
    benchmark, multigraphs = Counter(), Counter()
    rng = random.Random(31)
    for _ in range(100):
        _assert_presolve_holds(_benchmark_size_model(rng), benchmark)
    for _ in range(300):
        g = _multigraph_with_isolated_edges(rng)
        counts = g.color_counts()
        _assert_presolve_holds(build_lp(g, rng.randrange(counts.red + 1), rng.randrange(counts.blue + 1)), multigraphs)
    for tally in (benchmark, multigraphs):
        assert tally["points"] > 100 and tally["forced edges"] > 100, (benchmark, multigraphs)
        assert tally["tight dropped rows"] >= 40, (benchmark, multigraphs)


def test_zero_requirements_pass_no_equality_row():
    # yellow triangle 0-1-2 and yellow edge 4-5; the red and blue edges are
    # forced to 0, so vertex 3 has no live edge and only vertex 4 of the
    # pair 4, 5 keeps its row; the triangle's row takes 5/2 to 2
    g = ColoredGraph(
        6, [(0, 1, "Y"), (1, 2, "Y"), (0, 2, "Y"), (2, 3, "R"), (3, 4, "B"), (4, 5, "Y"), (3, 5, "R")]
    )
    calls = []

    def recorded(n_vars, objective, ub_rows, eq_rows, start=None):
        calls.append((objective, ub_rows[:4], eq_rows))
        return solve_standard_form(n_vars, objective, ub_rows, eq_rows, start=start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpface, "solve_standard_form", recorded)
        sol = solve_lp(build_lp(g, 0, 0))
    degree_rows = [([(0, 1), (2, 1)], 1), ([(0, 1), (1, 1)], 1), ([(1, 1), (2, 1)], 1), ([(5, 1)], 1)]
    assert calls == [([1, 1, 1, 0, 0, 1, 0], degree_rows, [])] * 2
    assert sol.objective == 2 == len(exact_optimum(g, 0, 0))
    assert [sol.x[e] for e in (3, 4, 6)] == [0, 0, 0]


def test_a_vertex_whose_edges_all_reach_one_neighbour_loses_its_row():
    # vertex 1's two parallel edges and vertex 4's edge end at vertices
    # whose rows hold them; vertices 0 and 5 are joined only to each other,
    # by two parallel edges listed from 5, and only 0, the lower, keeps its
    # row, ahead of the others
    g = ColoredGraph(6, [(5, 0, "R"), (0, 5, "Y"), (1, 2, "Y"), (2, 1, "R"), (2, 3, "Y"), (3, 4, "B")])
    model = build_lp(g, 1, 1)
    assert _kept_degree_rows(model) == [0, 2, 3]
    calls = []

    def recorded(*lp, start=None):
        calls.append(lp[2:])
        return solve_standard_form(*lp, start=start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpface, "solve_standard_form", recorded)
        sol = solve_lp(model)
    degree_rows = [([(0, 1), (1, 1)], 1), ([(2, 1), (3, 1), (4, 1)], 1), ([(4, 1), (5, 1)], 1)]
    assert calls == [(degree_rows, [([(0, 1), (3, 1)], 1), ([(5, 1)], 1)])]
    assert sol.objective == 3 == len(exact_optimum(g, 1, 1))


def test_separation_raises_when_a_round_offers_only_implied_sets(monkeypatch):
    # the half-integral triangle next to a unit edge, ranked as if only
    # their union, where vertex 4 has one neighbour, were violated
    g = ColoredGraph(5, [(0, 1, "Y"), (1, 2, "Y"), (0, 2, "Y"), (3, 4, "R"), (2, 3, "Y")])
    monkeypatch.setattr(lpface, "_top_violated", lambda violated, unit_pairs, limit: [(0b11111, 2, 1)])
    with pytest.raises(InvariantError, match="only implied odd sets"):
        solve_lp(build_lp(g, 1, 0))


def test_warm_rounds_match_the_reference_loop_past_the_cap():
    # one seeded graph per n = 22..30 (edge probability 0.15, at most 2n
    # edges, requirements from 2..6): alpha* and feasibility as the
    # from-scratch loop over every row it activates finds them
    rng = random.Random(2230)
    cap = OracleCap(128, 400)
    outcomes = Counter()
    for n in range(22, 31):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15]
        rng.shuffle(pairs)
        g = ColoredGraph(n, [(u, v, rng.choice("RBY")) for u, v in pairs[: 2 * n]])
        model = build_lp(g, rng.randint(2, 6), rng.randint(2, 6), cap)
        rounds = []
        want = _reference_solve_lp(model, rounds)
        got = solve_lp(model)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.objective == want.objective
        outcomes["infeasible" if got is None else "several rounds" if len(rounds) > 1 else "one round"] += 1
    assert min(outcomes.values()) >= 1 and len(outcomes) == 3, outcomes


def _pastcap_model(seed: int, n: int) -> LPModel:
    """The LP of ``tools/pastcap.py``'s graph n, drawn from
    ``Random(f"pastcap:{seed}:{n}")``: each vertex pair an edge with
    probability 0.15, shuffled and cut to 2n edges, random colors, both
    requirements from 2..6, under OracleCap(128, 400)."""
    rng = random.Random(f"pastcap:{seed}:{n}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15]
    rng.shuffle(pairs)
    g = ColoredGraph(n, [(u, v, rng.choice("RBY")) for u, v in pairs[: 2 * n]])
    return build_lp(g, rng.randint(2, 6), rng.randint(2, 6), OracleCap(128, 400))


def test_a_set_is_purged_at_most_once_past_the_cap(monkeypatch):
    # a seeded n = 42 graph whose warm rounds purge sets that are violated
    # again later: re-activated, they stay, so no row leaves the LP twice;
    # alpha* is the reference loop's
    n = 42
    model = _pastcap_model(8, n)
    rounds = []

    def recorded(*lp, start=None):
        rounds.append(lp)
        return solve_standard_form(*lp, start=start)

    monkeypatch.setattr(lpface, "solve_standard_form", recorded)
    got = solve_lp(model)
    # a blossom row by its edges and rhs
    active = [{(tuple(coeffs), rhs) for coeffs, rhs in lp[2][n:]} for lp in rounds]
    purges, reactivated, gone = Counter(), 0, set()
    for before, after in zip(active, active[1:]):
        purges.update(before - after)
        reactivated += len(gone & (after - before))
        gone |= before - after
    assert max(purges.values()) == 1 and reactivated >= 5, (purges, reactivated)
    # the last warm optimum is a from-scratch optimum over the same rows;
    # the from-scratch loop over every row it activates (too slow here, as
    # is its full-support scan) also ends at 20
    assert got.objective == solve_standard_form(*rounds[-1]).objective == 20


def test_separation_rows_past_the_cap_end_in_few_rounds():
    # the rows each round adds are the most violated odd sets of the whole
    # support, the fractional vertices' sets widened by unions of the x_e = 1
    # edges (_top_violated): activating the fractional vertices' sets alone
    # takes 200 LPs on this n = 59 graph where these rows take 9
    got, calls = _lp_calls(_pastcap_model(2, 59))
    assert got.objective == 28 and calls <= 12, calls


def test_separation_on_a_half_integral_triangle_next_to_a_unit_edge(monkeypatch):
    # without blossom rows the optimum is x = 1/2 on the triangle {0, 1, 2}
    # and x = 1 on 3-4, joined to it by the zero edge 2-3; {0, 1, 2} and
    # {0, 1, 2, 3, 4} are violated by as much, but vertex 4's only neighbour
    # in the union is 3, so only the triangle is activated; vertex 4's
    # degree row is implied by vertex 3's, so the LP has 4 degree rows
    g = ColoredGraph(5, [(0, 1, "Y"), (1, 2, "Y"), (0, 2, "Y"), (3, 4, "R"), (2, 3, "Y")])
    model = build_lp(g, 1, 0)
    first = _reference_lp(model, [])
    assert list(first.values) == [Fraction(1, 2)] * 3 + [1, 0]
    assert [mask for mask, _, _ in _odd_sets(*_scaled(g, first.values), tight=False)] == [
        0b00111,
        0b11111,
    ]
    rounds = []

    def recorded(*lp, start=None):
        rounds.append(lp[2][4:])
        return solve_standard_form(*lp, start=start)

    monkeypatch.setattr(lpface, "solve_standard_form", recorded)
    sol = solve_lp(model)
    assert rounds == [[], [([(0, 1), (1, 1), (2, 1)], 1)]]
    assert sol.objective == 2
    monkeypatch.undo()
    assert _assert_routes_agree(model).objective == 2


def test_separation_raises_when_a_round_would_reactivate_a_row(monkeypatch):
    # two disjoint half-integral triangles; the ranking is made to offer the
    # first triangle in every round, so round 2, with the second triangle
    # still violated, would activate it again
    g = ColoredGraph(6, [(0, 1, "Y"), (1, 2, "Y"), (0, 2, "Y"), (3, 4, "Y"), (4, 5, "Y"), (3, 5, "Y")])
    calls = []

    def stale(violated, unit_pairs, limit):
        calls.append([mask for mask, _, _ in violated])
        return [(0b111, 1, 2)]

    monkeypatch.setattr(lpface, "_top_violated", stale)
    with pytest.raises(InvariantError, match="active odd set 0x7"):
        solve_lp(build_lp(g, 0, 0))
    assert calls == [[0b000111, 0b111000], [0b111000]]


def _solve_integral_first_rounds(monkeypatch, name):
    """Solves and verifies the seeded criterion-7 requests whose first round
    is integral with ``lpface.<name>`` patched to raise; returns how many."""
    from rbymatch.driver import solve, verify
    from test_acceptance import _random_instance, _random_matching_profile

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called at an integral optimum")

    monkeypatch.setattr(lpface, name, refuse)
    rng = random.Random(2718)
    solved = 0
    for _ in range(120):
        g = _random_instance(rng)
        kr, kb = _random_matching_profile(rng, g)
        first = _reference_lp(build_lp(g, kr, kb), [])
        if first is not None and not _has_fractional_edge(first.values):
            rep = solve(g, kr, kb)
            assert rep is not None and verify(g, kr, kb, rep)
            solved += 1
    return solved


def test_an_integral_first_round_scans_no_odd_set(monkeypatch):
    # an optimum with no fractional edge violates no odd set, so a request
    # whose first round is integral solves without the scan
    assert _solve_integral_first_rounds(monkeypatch, "_odd_sets") >= 80


def test_an_integral_optimum_builds_no_support(monkeypatch):
    # solve_lp and minimal_face read an integral optimum (every x_e in
    # {0, d}) from the LP's integers, without splitting it
    assert _solve_integral_first_rounds(monkeypatch, "_split_point") >= 80


@pytest.mark.parametrize(
    "x, d, integral",
    [
        ([3, 0, 3, 0, 3], 3, True),  # d > 1, every x_e in {0, d}
        ([0, 0, 0, 0, 0], 7, True),  # the empty matching
        ([1, 1, 1, 1, 2], 2, False),  # x_e = d beside 0 < x_e < d
    ],
    ids=["integral-d3", "empty", "mixed"],
)
def test_the_integrality_test_reads_the_lp_integers(monkeypatch, x, d, integral):
    # a 4-cycle and a separate edge; the mixed point is the 4-cycle at 1/2,
    # which violates no odd set, beside the unit edge
    g = ColoredGraph(6, [(0, 1, "R"), (1, 2, "B"), (2, 3, "R"), (3, 0, "B"), (4, 5, "Y")])
    point = LPResult(x, sum(x), d)
    built = []

    def spy(graph, numerators, den):
        built.append(numerators)
        return _split_point(graph, numerators, den)

    monkeypatch.setattr(lpface, "_split_point", spy)
    monkeypatch.setattr(lpface, "solve_standard_form", lambda *lp: point)
    model = build_lp(g, 0, 0)
    assert solve_lp(model) is point
    face = minimal_face(g, model, point)
    if integral:
        assert built == [] and face.route == "integral"
        assert face.vertex_matchings == (frozenset(e for e, num in enumerate(x) if num),)
    else:
        assert built == [x, x] and face.route.startswith("fractional vertices=4 ")
        assert set(face.vertex_matchings) == {frozenset({0, 2, 4}), frozenset({1, 3, 4})}


def test_face_with_tight_sets_that_split_unit_edges():
    # a 4-cycle at 1/2 beside the unit edges 4-5 and 6-7; {4, 5, 6} and
    # {0, 1, 2, 3, 4} are tight and each holds one end of a unit edge
    g = ColoredGraph(
        8,
        [(0, 1, "R"), (1, 2, "B"), (2, 3, "R"), (3, 0, "B"), (4, 5, "Y"), (6, 7, "Y"),
         (5, 6, "Y"), (3, 4, "Y")],
    )
    model = build_lp(g, 1, 1)
    sol = _assert_routes_agree(model)
    assert sol.values == (Fraction(1, 2),) * 4 + (1, 1, 0, 0)
    _, tight = _tight_rows(model, sol)
    assert (0b1110000, 1) in tight and (0b11111, 2) in tight
    face = minimal_face(g, model, sol)
    assert face.classification == SEGMENT
    assert set(face.vertex_matchings) == {frozenset({0, 2, 4, 5}), frozenset({1, 3, 4, 5})}
    assert face.route.startswith("fractional vertices=4 ")


def test_integral_optimum_is_its_own_face_and_keeps_every_check():
    g = cycle_graph(FIG1)
    model = build_lp(g, 2, 0)
    sol = solve_lp(model)
    assert not _has_fractional_edge(sol.values)
    face = minimal_face(g, model, sol)
    assert face.classification == SINGLETON and face.route == "integral"
    assert face.vertex_matchings == (frozenset(_support(sol)),)
    assert face == _describe_face(g, _reference_face_vertices(model, sol), "")
    # the cap is still enforced, though nothing is enumerated
    with pytest.raises(CapExceededError):
        minimal_face(g, model, sol, OracleCap(max_vertices=7))
    with pytest.raises(CapExceededError):
        minimal_face(g, model, sol, OracleCap(max_edges=7))
    # an integral point that is not a matching lies in no face
    path = ColoredGraph(3, [(0, 1, "R"), (1, 2, "B")])
    point = lp_point((1, 1))
    with pytest.raises(InvariantError):
        minimal_face(path, build_lp(path, 1, 1), point)


def test_face_check_keeps_nested_tight_sets():
    # {0, 1, 2} and {0, 1, 2, 3, 4} are tight and nested; the matching {0}
    # is tight on every degree row and on the inner set but not the outer
    g = ColoredGraph(5, [(0, 1, "R"), (0, 3, "B"), (3, 4, "Y"), (0, 4, "R"), (1, 2, "B")])
    values = (Fraction(1, 3),) * 4 + (Fraction(2, 3),)
    point = lp_point(values)
    model = build_lp(g, 0, 0)
    _assert_routes_agree(model, point)
    face = minimal_face(g, model, point)
    assert face.vertex_matchings == (frozenset({0, 2}), frozenset({1, 4}), frozenset({3, 4}))
    assert face.route == "fractional vertices=5 tight_sets=3"


def test_describe_face_classifies_by_vertex_count():
    g = ColoredGraph(8, [(0, 1, "R"), (2, 3, "B"), (4, 5, "Y"), (6, 7, "R")])
    matchings = [frozenset({e}) for e in range(4)]
    for k, cls in ((1, SINGLETON), (2, SEGMENT), (3, TRIANGLE)):
        face = _describe_face(g, matchings[:k], "")
        assert face.classification == cls
        assert face.vertex_matchings == tuple(matchings[:k])
    square = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    face = _describe_face(g, square, "")
    assert face.classification == PARALLELOGRAM
    assert face.vertex_matchings == (frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({1}))
    # four affinely independent vertices span a 3-dimensional simplex
    with pytest.raises(InvariantError):
        _describe_face(g, matchings, "")


def test_parallelogram_sides_have_disjoint_supports():
    # v1 + v3 = a + b as 0/1 vectors: every element of v1 ^ v3 lies in
    # exactly one of a and b, so consecutive sides never share an edge, and
    # no other pairing of four distinct vertices sums alike
    rng = random.Random(522)
    found = 0
    while found < 300:
        quad = [frozenset(i for i in range(4) if rng.randrange(2)) for _ in range(4)]
        v1, a, v3, b = quad
        if len(set(quad)) < 4 or v1 & v3 != a & b or v1 ^ v3 != a ^ b:
            continue
        found += 1
        rest = [a, v3, b]
        rng.shuffle(rest)
        ordered = lpface._order_parallelogram([v1, *rest])
        assert ordered[0] == v1 and ordered[2] == v3 and {ordered[1], ordered[3]} == {a, b}
        for i in range(4):
            before, at, after = ordered[i - 1], ordered[i], ordered[(i + 1) % 4]
            assert not (before ^ at) & (at ^ after)


def _ranking_point(rng):
    """A point of the degree rows on shuffled vertex labels: odd and even
    cycles and short paths at fractional values (odd half-cycles and odd
    cycles just above their blossom bound among them), x_e = 1 edges, zero
    edges and free vertices."""
    labels = list(range(16))
    rng.shuffle(labels)
    fresh = iter(labels)
    edges, values = [], []

    def add(u, v, x):
        edges.append((u, v, rng.choice("RBY")))
        values.append(Fraction(x))

    units = rng.randrange(6)
    for _ in range(units):
        add(next(fresh), next(fresh), 1)
    room = rng.randrange(3, 15 - 2 * units)
    while room >= 2:
        kind = rng.choice(("odd", "odd", "odd", "even", "path"))
        size = {"odd": rng.choice((3, 3, 5)), "even": 4, "path": rng.choice((2, 3))}[kind]
        if size > room:
            break
        room -= size
        vs = [next(fresh) for _ in range(size)]
        x = Fraction(rng.choice(("1/2", "1/2", "2/5", "3/7", "1/3")))
        for u, v in zip(vs, vs[1:] + vs[:1] if kind != "path" else vs[1:]):
            add(u, v, x)
    for _ in range(rng.randrange(4)):
        u, v = rng.sample(range(16), 2)
        add(u, v, 0)
    return ColoredGraph(16, edges), values


def test_ranking_from_the_fractional_scan_matches_the_full_support():
    rng = random.Random(2997)
    many = tied = 0
    for _ in range(3000):
        g, values = _ranking_point(rng)
        support, den = _scaled(g, values)
        full = sorted(_odd_sets(support, den, tight=False), key=lambda row: (-row[2], row[0]))
        violated = _odd_sets([(emask, x) for emask, x in support if x != den], den, tight=False)
        units = [emask for emask, x in support if x == den]
        for limit in (1, 24, len(full) + 1):
            assert _top_violated(violated, units, limit) == full[:limit]
        many += len(full) > 24
        tied += len({excess for _, _, excess in full}) < len(full)
    assert many >= 100 and tied >= 1000, (many, tied)


def _fraction_split(graph, values, d):
    """What ``_split_point`` returns, read from the Fraction values: the
    edges at 1, and (edge id, vertex mask, d * x_e) for every other edge
    in the support."""
    units = [e for e, x in enumerate(values) if x == 1]
    rest = [
        (e, sum(1 << u for u in graph.endpoints(e)), int(x * d))
        for e, x in enumerate(values)
        if x not in (0, 1)
    ]
    return units, rest


def test_the_split_matches_the_fraction_values(monkeypatch):
    # random integer points: zeros, common factors of every numerator with
    # d, numerators equal to d, and d = 1
    rng = random.Random(5151)
    g = ColoredGraph(6, [(u, v, "RBY"[(u + v) % 3]) for u in range(6) for v in range(u + 1, 6)])
    for _ in range(2000):
        d = rng.choice((1, 2, 6, 12, 30, 35, 64, 210))
        k = rng.choice((1, 1, 2, 3, 5))
        numerators = [rng.choice((0, 0, k * rng.randrange(d + 1))) for _ in range(g.edge_count)]
        values = [Fraction(num, d) for num in numerators]
        assert _split_point(g, numerators, d) == _fraction_split(g, values, d)
    # and every LP of the separation rounds on criterion-7 requests
    results = []

    def keep(*args, **kwargs):
        results.append(solve_standard_form(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(lpface, "solve_standard_form", keep)
    fractional = 0
    for _ in range(400):
        n = rng.randrange(4, 11)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.randrange(3) == 0]
        g = ColoredGraph(n, [(u, v, rng.choice("RBY")) for u, v in pairs])
        matchings = list(enumerate_matchings(g))
        prof = color_profile(g, matchings[rng.randrange(len(matchings))])
        solve_lp(build_lp(g, prof.red, prof.blue))
        for res in results:
            assert _split_point(g, res.x, res.d) == _fraction_split(g, res.values, res.d)
            fractional += _has_fractional_edge(res.values)
        results.clear()
    assert fractional >= 50, fractional


def test_face_of_a_half_integral_triangle_with_three_unit_edges():
    # the triangle {0, 1, 2} carries 1/2, 1/2 and 0 and is tight, inside the
    # half-integral 4-cycle 0-1-3-2; the unit edges 4-5, 6-7 and 8-9 hang off
    # it by zero edges, so the full support has tight sets that hold unit
    # pairs and sets that split them
    g = ColoredGraph(
        10,
        [(0, 1, "R"), (1, 2, "Y"), (0, 2, "B"), (1, 3, "B"), (2, 3, "R"),
         (4, 5, "Y"), (6, 7, "R"), (8, 9, "B"), (2, 4, "Y"), (3, 6, "Y"), (0, 8, "R")],
    )
    half = Fraction(1, 2)
    values = (half, 0, half, half, half, 1, 1, 1, 0, 0, 0)
    point = lp_point(values)
    model = build_lp(g, 0, 0)
    _, tight = _tight_rows(model, point)
    assert (0b111, 1) in tight and (0b1110, 1) in tight and (0b110111, 2) in tight
    yielded = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            lpface,
            "enumerate_matchings",
            lambda *args, **kw: (yielded.append(m) or m for m in enumerate_matchings(*args, **kw)),
        )
        _assert_routes_agree(model, point)
        face = minimal_face(g, model, point)
    assert face == _describe_face(g, _reference_face_vertices(model, point), "")
    assert set(face.vertex_matchings) == {frozenset({0, 4, 5, 6, 7}), frozenset({2, 3, 5, 6, 7})}
    assert face.route == "fractional vertices=4 tight_sets=4"
    # only the matchings of the 4-cycle that cover its four tight vertices
    # are enumerated, its two perfect matchings per call, not those of the
    # whole support with its three unit edges
    assert len(yielded) == 2 * 2


def _degree_row_point(rng):
    """(support, den) of a random point of the degree rows in integers over
    den: odd and even cycles, paths, parallel pairs and unit pairs on
    shuffled labels, then random edges at whatever slack is left."""
    den = rng.randrange(2, 8)
    labels = list(range(20))
    rng.shuffle(labels)
    budget = rng.randrange(3, 17)
    vertices, fresh = labels[:budget], iter(labels[:budget])
    room = dict.fromkeys(vertices, den)
    support = []

    def add(u, v, x):
        x = min(x, room[u], room[v])
        if x > 0:
            support.append(((1 << u) | (1 << v), x))
            room[u] -= x
            room[v] -= x

    left = budget
    while left >= 2:
        kind = rng.choice(("odd", "odd", "even", "path", "parallel", "unit"))
        size = {"odd": rng.choice((3, 5, 7)), "even": rng.choice((4, 6)), "path": 3}.get(kind, 2)
        if size > left:
            continue
        left -= size
        vs = [next(fresh) for _ in range(size)]
        if kind == "unit":
            add(*vs, den)
        elif kind == "parallel":
            a = rng.randrange(1, den)
            add(*vs, a)
            add(*vs, rng.randrange(1, den - a + 1))
        else:
            x = rng.choice((den // 2, den // 2, rng.randrange(1, den)))
            ring = vs + vs[:1] if kind != "path" else vs
            for u, v in zip(ring, ring[1:]):
                add(u, v, x)
    for _ in range(rng.randrange(6)):
        u, v = rng.sample(vertices, 2)
        add(u, v, rng.randrange(1, den + 1))
    return support, den


def test_odd_set_search_matches_the_table_scan():
    rng = random.Random(2020)
    found = Counter()
    for _ in range(400):
        support, den = _degree_row_point(rng)
        covered = 0
        for emask, _ in support:
            covered |= emask
        for tight in (False, True):
            sets = _odd_sets(support, den, tight)
            assert sets == _reference_odd_sets(support, den, tight)
            found["tight" if tight else "violated"] += bool(sets)
        found["f >= 14"] += covered.bit_count() >= 14
    assert min(found.values()) >= 40, found


def test_odd_set_search_on_a_long_half_integral_even_cycle():
    # x = 1/2 on a 40-cycle: every vertex is degree-tight, so the tight odd
    # sets are those cut by exactly two edges, the odd arcs of >= 3 vertices,
    # and none is violated; the table would hold 2^40 entries
    n = 40
    support = [((1 << v) | (1 << (v + 1) % n), 1) for v in range(n)]
    arcs = sorted(
        (sum(1 << (start + i) % n for i in range(size)), size // 2, 0)
        for start in range(n)
        for size in range(3, n, 2)
    )
    assert _odd_sets(support, 2, tight=True) == arcs
    assert _odd_sets(support, 2, tight=False) == []


def test_odd_set_search_needs_a_point_of_the_degree_rows():
    # X(delta(1)) = 3 > den at vertex 1 of a path
    support = [(0b011, 2), (0b110, 1)]
    for tight in (False, True):
        with pytest.raises(InvariantError, match="degree rows"):
            _odd_sets(support, 2, tight)


def test_top_violated_builds_only_the_unions_it_reads():
    # 20 unit pairs above one violated triangle: the first 24 unions in mask
    # order are those of the first pairs, counted in binary
    pairs = [0b11 << (3 + 2 * k) for k in range(20)]
    unions = [sum(pairs[k] for k in range(5) if (i >> k) & 1) for i in range(24)]
    expected = [(0b111 | union, 1 + union.bit_count() // 2, 2) for union in unions]
    tracemalloc.start()
    try:
        ranked = _top_violated([(0b111, 1, 2)], pairs[::-1], 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ranked == expected
    assert peak < 1_000_000  # every union of the 20 pairs is 2^20 tuples
