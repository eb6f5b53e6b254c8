from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbymatch.driver import (
    SolveReport,
    _boundary_cuts,
    _from_optimum,
    _on_side,
    _point_affine_rank,
    solve,
    verify,
)
from rbymatch import driver, lpface
from rbymatch.cycles import solve_fractional
from rbymatch.errors import InvariantError
from rbymatch.graph import (
    ColoredGraph,
    CycleOrPath,
    color_profile,
    cycle_graph,
    path_graph,
    walk_symdiff,
)
from rbymatch.lpface import (
    SEGMENT,
    BlossomRows,
    FaceDescriptor,
    build_lp,
    minimal_face,
    solve_lp,
)
from rbymatch.oracle import DEFAULT_CAP, OracleCap, enumerate_matchings, exact_optimum
from rbymatch.simplex import solve_standard_form
from test_acceptance import _random_instance as _criterion_7_instance
from test_acceptance import _random_matching_profile
from test_lpface import _two_c4_instance, lp_point

FIG1 = "RBYBRBYB"


def test_solve_single_red_edge():
    g = ColoredGraph(2, [(0, 1, "R")])
    rep = solve(g, 1, 0)
    assert rep is not None
    assert rep.alpha_star == 1
    assert rep.face_class == "singleton"
    assert rep.matching == frozenset({0})
    assert verify(g, 1, 0, rep)


def test_trace_names_the_face_route():
    g = ColoredGraph(2, [(0, 1, "R")])
    assert "face: route=integral" in solve(g, 1, 0).trace
    rep = solve(cycle_graph(FIG1), 1, 2)
    assert "face: route=fractional vertices=8 tight_sets=24" in rep.trace


def test_solve_fig1_segment_case():
    g = cycle_graph(FIG1)
    rep = solve(g, 1, 2)
    assert rep is not None
    assert rep.alpha_star == 4
    assert rep.face_class == "segment"
    assert len(rep.matching) >= 3
    assert rep.profile.red == 1 and rep.profile.blue in (1, 2)
    assert verify(g, 1, 2, rep)


def test_solve_two_c4_parallelogram_case():
    edges = [(i, (i + 1) % 4, "RY"[i % 2]) for i in range(4)]
    edges += [(4 + i, 4 + (i + 1) % 4, "BY"[i % 2]) for i in range(4)]
    g = ColoredGraph(8, edges)
    rep = solve(g, 1, 1)
    assert rep is not None
    assert rep.alpha_star == 4
    assert rep.face_class == "parallelogram"
    assert len(rep.matching) >= 1
    assert rep.profile.red == 1 and rep.profile.blue in (0, 1)
    assert verify(g, 1, 1, rep)
    oracle_best = exact_optimum(g, 1, 1)
    assert oracle_best is not None and len(oracle_best) == 2


def test_solve_infeasible_returns_none():
    g = cycle_graph(FIG1)
    assert solve(g, 3, 0) is None


# seven vertices, vertex 6 isolated: round 1 is feasible at a fractional
# point, and round 2 adds blossom rows that leave no point meeting the color
# rows, which the dual simplex of the warm round finds
LATER_ROUND_INFEASIBLE = ColoredGraph(
    7,
    [(0, 2, "R"), (0, 4, "B"), (1, 3, "R"), (1, 4, "R"), (1, 5, "B"), (2, 4, "B"), (3, 5, "R"), (4, 5, "Y")],
)


def test_infeasibility_found_in_a_later_round(monkeypatch):
    calls = []

    def recorded(*lp, start=None):
        res = solve_standard_form(*lp, start=start)
        calls.append((start is not None, res is not None))
        return res

    with monkeypatch.context() as mp:
        mp.setattr(lpface, "solve_standard_form", recorded)
        assert solve_lp(build_lp(LATER_ROUND_INFEASIBLE, 2, 1)) is None
    assert calls == [(False, True), (True, False)]
    assert solve(LATER_ROUND_INFEASIBLE, 2, 1) is None
    assert exact_optimum(LATER_ROUND_INFEASIBLE, 2, 1) is None


def test_a_value_error_inside_the_lp_is_an_invariant_failure(monkeypatch):
    # build_lp has checked the input, so a ValueError from the simplex is a
    # broken internal guarantee, not bad input
    def fail(*args, **kwargs):
        raise ValueError("right-hand sides must be nonnegative")

    monkeypatch.setattr(lpface, "solve_standard_form", fail)
    with pytest.raises(InvariantError, match="right-hand sides must be nonnegative; trace="):
        solve(cycle_graph(FIG1), 1, 2)


def test_solve_empty_graph():
    g = ColoredGraph(3, [])
    rep = solve(g, 0, 0)
    assert rep is not None
    assert rep.alpha_star == 0
    assert rep.matching == frozenset()
    assert verify(g, 0, 0, rep)
    assert solve(g, 1, 0) is None


def test_solve_rejects_negative_requirements():
    g = cycle_graph(FIG1)
    with pytest.raises(ValueError):
        solve(g, -1, 0)


def test_solve_past_64_vertices_under_a_raised_cap():
    # 2^(n-1) - n, the full model's row count, fits no index from n = 65
    cap = OracleCap(128, 400)
    for n in (64, 65, 66):
        colors = ("RBY" * n)[:n]
        for g in (path_graph(colors[: n - 1]), cycle_graph(colors)):
            assert g.vertex_count == n
            rep = solve(g, 5, 5, cap)
            assert rep is not None and verify(g, 5, 5, rep)


@pytest.mark.parametrize("n", [65, 71])
def test_an_odd_yellow_cycle_past_64_vertices(monkeypatch, n):
    # at x = 1/2 the whole cycle is the one violated odd set; its row, over
    # all n vertices, takes alpha* from n/2 to (n - 1)/2
    g = cycle_graph("Y" * n)
    rows = []

    def recorded(*lp, start=None):
        rows.append(lp[2][n:])
        return solve_standard_form(*lp, start=start)

    monkeypatch.setattr(lpface, "solve_standard_form", recorded)
    rep = solve(g, 0, 0, OracleCap(128, 400))
    assert rows == [[], [([(e, 1) for e in range(n)], (n - 1) // 2)]]
    assert rep.alpha_star == (n - 1) // 2 and verify(g, 0, 0, rep)


def test_solve_never_reads_the_full_blossom_model(monkeypatch):
    def exponential(self):
        raise AssertionError("the solve path read the 2^(n-1)-row model")

    monkeypatch.setattr(BlossomRows, "__len__", exponential)
    monkeypatch.setattr(BlossomRows, "__iter__", exponential)
    rng = random.Random(1414)
    solved = 0
    for _ in range(100):
        g = _criterion_7_instance(rng)
        if rng.randrange(10) < 7:
            kr, kb = _random_matching_profile(rng, g)
        else:
            counts = g.color_counts()
            kr, kb = rng.randrange(counts.red + 1), rng.randrange(counts.blue + 1)
        rep = solve(g, kr, kb)
        if rep is not None:
            assert verify(g, kr, kb, rep)
            solved += 1
    assert solved >= 70, solved


def test_verify_rejects_tampered_reports():
    g = ColoredGraph(4, [(0, 1, "R"), (2, 3, "R")])
    rep = solve(g, 2, 0)
    assert rep is not None and verify(g, 2, 0, rep)
    smaller = replace(rep, matching=frozenset(list(rep.matching)[:1]))
    assert not verify(g, 2, 0, smaller)  # red count now wrong
    inflated = replace(rep, alpha_star=rep.alpha_star + 6)
    assert not verify(g, 2, 0, inflated)  # size bound fails


def test_verify_rejects_nonmatching():
    g = cycle_graph("RRBB")
    rep = solve(g, 1, 1)
    assert rep is not None
    bogus = replace(rep, matching=frozenset({0, 1}))
    assert not verify(g, 1, 1, bogus)


def _random_instance(rng: random.Random):
    n = rng.randrange(2, 11)
    density_num = rng.randrange(1, 4)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.randrange(6) < density_num:
                edges.append((u, v, rng.choice("RBY")))
    if len(edges) > 24:
        edges = edges[:24]
    return ColoredGraph(n, edges)


def test_solve_random_feasible_instances():
    rng = random.Random(99)
    solved = 0
    cases = set()
    while solved < 120:
        g = _random_instance(rng)
        ms = list(enumerate_matchings(g))
        m = ms[rng.randrange(len(ms))]
        prof = color_profile(g, m)
        rep = solve(g, prof.red, prof.blue)
        assert rep is not None  # feasible by construction
        assert verify(g, prof.red, prof.blue, rep)
        assert rep.profile.red == prof.red
        assert rep.profile.blue in (prof.blue - 1, prof.blue)
        assert len(rep.matching) >= math.floor(rep.alpha_star) - 3
        assert rep.alpha_star >= len(m)
        opt = exact_optimum(g, prof.red, prof.blue)
        assert opt is not None
        assert rep.alpha_star >= len(opt)
        cases.add(rep.face_class)
        solved += 1
    assert "singleton" in cases and "segment" in cases


TRIANGLE_FACE_EDGES = [
    (0, 1, "R"),
    (0, 3, "Y"),
    (0, 7, "B"),
    (1, 3, "B"),
    (2, 3, "R"),
    (4, 7, "R"),
    (4, 8, "B"),
    (5, 8, "Y"),
]

PARALLELOGRAM_FACE_EDGES = [
    (0, 4, "B"),
    (0, 7, "B"),
    (1, 5, "B"),
    (1, 6, "R"),
    (2, 6, "B"),
    (3, 7, "R"),
    (4, 6, "R"),
    (4, 7, "R"),
    (6, 7, "Y"),
]


def test_solve_triangle_face_instance():
    g = ColoredGraph(9, TRIANGLE_FACE_EDGES)
    rep = solve(g, 1, 1)
    assert rep is not None
    assert rep.face_class == "triangle"
    assert rep.alpha_star == Fraction(13, 4)
    assert rep.profile.red == 1 and rep.profile.blue in (0, 1)
    assert len(rep.matching) >= math.floor(rep.alpha_star) - 3
    assert verify(g, 1, 1, rep)
    # the vertical cut passes through a projected vertex on this instance;
    # the side holding that cut returns exactly the vertex's matching
    model = build_lp(g, 1, 1)
    face = minimal_face(g, model, solve_lp(model))
    (idx,) = [v for v, p in enumerate(face.projected_vertices) if p[0] == 1]
    blue = Fraction(face.projected_vertices[idx][1])
    side = dict(_boundary_cuts(face, 1))[blue]
    assert idx in side
    assert _on_side(g, face, *side, 1, blue, []) == face.vertex_matchings[idx]


def test_solve_parallelogram_face_instance():
    g = ColoredGraph(8, PARALLELOGRAM_FACE_EDGES)
    rep = solve(g, 1, 1)
    assert rep is not None
    assert rep.face_class == "parallelogram"
    assert rep.alpha_star == Fraction(5, 2)
    assert verify(g, 1, 1, rep)


def test_boundary_cut_geometry():
    face = FaceDescriptor(
        vertex_matchings=(frozenset(), frozenset(), frozenset()),
        classification="triangle",
        projected_vertices=((1, 0), (3, 1), (1, 2)),
        route="hand-made",
    )
    # through the vertices (1, 0) and (1, 2), skipping the vertical side
    assert _boundary_cuts(face, 1) == [(0, (0, 1)), (2, (1, 2))]
    assert _boundary_cuts(face, 2) == [(Fraction(1, 2), (0, 1)), (Fraction(3, 2), (1, 2))]


def test_face_step_rejects_a_projection_that_loses_rank():
    # both perfect matchings of RYYR have profile (1, 0): their midpoint is
    # no basic optimum, and its segment face projects onto a single point
    g = cycle_graph("RYYR")
    model = build_lp(g, 1, 0)
    mid = lp_point((Fraction(1, 2),) * 4)
    face = minimal_face(g, model, mid)
    assert face.classification == SEGMENT
    assert set(face.projected_vertices) == {(1, 0)}
    with pytest.raises(InvariantError, match="affine rank 0"):
        _from_optimum(g, model, mid, 1, 0, DEFAULT_CAP, [])


def test_solve_adversarial_lp_only_instances():
    # requirements where the LP is feasible regardless of integral attainability
    rng = random.Random(123)
    solved = 0
    while solved < 60:
        g = _random_instance(rng)
        counts = g.color_counts()
        kr = rng.randrange(0, max(1, counts.red + 1))
        kb = rng.randrange(0, max(1, counts.blue + 1))
        rep = solve(g, kr, kb)
        if rep is None:
            continue
        assert verify(g, kr, kb, rep)
        solved += 1


def _criterion_7_request(rng: random.Random):
    from test_acceptance import _random_instance, _random_matching_profile

    g = _random_instance(rng)
    if rng.randrange(10) < 7:
        return g, _random_matching_profile(rng, g)
    counts = g.color_counts()
    return g, (rng.randrange(counts.red + 1), rng.randrange(counts.blue + 1))


def test_every_face_side_is_solved_on_the_walked_component(monkeypatch):
    # each side's answer is the shared edges plus the selector's positions
    # on the CycleOrPath of the walk's one component, mapped through the
    # walk's edge list; about one solve in 35 reaches the cuts
    on_side = driver._on_side
    seen = dict.fromkeys(("segment", "low cut", "high cut"), 0)

    def spy(graph, face, i, j, k_red, k_blue, trace):
        got = on_side(graph, face, i, j, k_red, k_blue, trace)
        ma, mb = face.vertex_matchings[i], face.vertex_matchings[j]
        ((edges, closed, _),) = walk_symdiff(graph, ma, mb)
        shared = color_profile(graph, ma & mb)
        comp = CycleOrPath(tuple(graph.color(e) for e in edges), closed)
        positions = solve_fractional(comp, k_red - shared.red, k_blue - shared.blue)
        assert got == (ma & mb) | {edges[p] for p in positions}
        assert trace[-1] == (
            f"side ({i},{j}): shared={len(ma & mb)} "
            f"component={'cycle' if closed else 'path'} len={len(edges)} blue={k_blue}"
        )
        if face.classification == SEGMENT:
            seen["segment"] += 1
        else:
            (blue_lo, _), (blue_hi, _) = _boundary_cuts(face, k_red)
            seen["low cut" if k_blue == blue_lo else "high cut"] += 1
            assert k_blue in (blue_lo, blue_hi)
        return got

    monkeypatch.setattr(driver, "_on_side", spy)
    rng = random.Random(30)
    for _ in range(1200):
        g, (kr, kb) = _criterion_7_request(rng)
        solve(g, kr, kb)
    assert min(seen.values()) >= 20, seen


def test_a_side_between_vertices_two_components_apart_is_an_invariant_failure():
    # the two 4-cycles of RYRY and BYBY, each switched to its other half
    face = FaceDescriptor(
        vertex_matchings=(frozenset({0, 2, 4, 6}), frozenset({1, 3, 5, 7})),
        classification=SEGMENT,
        projected_vertices=((2, 2), (0, 0)),
        route="hand-made",
    )
    with pytest.raises(InvariantError, match="differ in 2 components"):
        _on_side(_two_c4_instance(), face, 0, 1, 1, 1, [])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_solve_and_face_do_not_depend_on_labels(data):
    g, (kr, kb) = _criterion_7_request(random.Random(data.draw(st.integers(0, 2**32 - 1))))
    n, m = g.vertex_count, g.edge_count
    relabel = data.draw(st.permutations(range(n)))
    order = data.draw(st.permutations(range(m)))  # new edge j is old edge order[j]
    new_id = {old: new for new, old in enumerate(order)}
    edges = [(relabel[g.endpoints(e)[0]], relabel[g.endpoints(e)[1]], g.color(e)) for e in order]
    h = ColoredGraph(n, edges)
    padded = ColoredGraph(data.draw(st.integers(n, 20)), [(*g.endpoints(e), g.color(e)) for e in range(m)])

    base = solve(g, kr, kb)
    relabeled = solve(h, kr, kb)
    isolated = solve(padded, kr, kb)
    if base is None:
        assert relabeled is None and isolated is None
        return
    for graph, rep in ((h, relabeled), (padded, isolated)):
        assert rep is not None and rep.ok and verify(graph, kr, kb, rep)
        assert rep.alpha_star == base.alpha_star
    # isolated vertices leave every pivot and every scanned set as it was
    assert (isolated.matching, isolated.face_class, isolated.trace[1:]) == (
        base.matching,
        base.face_class,
        base.trace[1:],
    )
    # the simplex may pick another optimal vertex under new labels, so the
    # face is compared at the base optimum carried over to the new labels
    model = build_lp(g, kr, kb)
    sol = solve_lp(model)
    face = minimal_face(g, model, sol)
    mapped = minimal_face(h, build_lp(h, kr, kb), lp_point([sol.values[e] for e in order]))
    assert mapped.classification == face.classification
    assert set(mapped.vertex_matchings) == {
        frozenset(new_id[e] for e in v) for v in face.vertex_matchings
    }
    assert mapped.route == face.route


def test_basic_optimum_faces_keep_their_dimension_in_projection():
    # about one optimum in 150 has a parallelogram face, so 600 optimums see
    # every class
    rng = random.Random(13)
    classes = set()
    optimums = 0
    while optimums < 600:
        g, (kr, kb) = _criterion_7_request(rng)
        model = build_lp(g, kr, kb)
        sol = solve_lp(model)
        if sol is None:
            continue
        optimums += 1
        face = minimal_face(g, model, sol)
        k = len(face.vertex_matchings)
        assert _point_affine_rank(face.projected_vertices) == min(k - 1, 2)
        classes.add(face.classification)
    assert classes == {"singleton", "segment", "triangle", "parallelogram"}
