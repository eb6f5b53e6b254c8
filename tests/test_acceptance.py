"""Acceptance suite: one test per published guarantee, each printing a
pass/fail line with its runtime.  All checks are exact; the time budgets are
part of the contract and asserted."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from rbymatch.curve import (
    PeriodicCurve,
    MOVE_OF_PAIR,
    all_intersecting_pairs,
    check_injective,
    find_crossing_pair,
    imbalance_curve,
    periodic_eval,
    polyline_from_moves,
)
from rbymatch.cycles import segment_integer_points, solve_even_cycle, solve_path_or_cycle
from rbymatch.driver import solve, verify
from rbymatch.graph import (
    ColoredGraph,
    color_profile,
    cycle_graph,
    even_cycle_from_string,
    path_from_string,
    path_graph,
    validate_matching,
)
from rbymatch.lpface import SINGLETON, build_lp, minimal_face, solve_lp
from rbymatch.oracle import exact_optimum, max_matching_size
from rbymatch.union import combine_two_matchings

TIGHT_PATH = "BRYRYBYBYRYRB"
FIG3 = "YBYBYRYRYBRBYRBRBR"
MOVES = sorted(MOVE_OF_PAIR.values())


def _report(criterion: str, started: float, limit: float) -> float:
    elapsed = time.monotonic() - started
    print(f"PASS {criterion} ({elapsed:.2f}s, limit {limit:.0f}s)")
    return elapsed


def test_criterion_1_path_tightness():
    started = time.monotonic()
    comp = path_from_string(TIGHT_PATH)
    got = solve_path_or_cycle(comp, 3, 2)
    g = path_graph(TIGHT_PATH)
    assert validate_matching(g, got)
    prof = color_profile(g, got)
    assert len(got) == 5
    assert prof.rb in ((3, 2), (3, 1))
    assert len(list(range(0, 13, 2))) == 7  # |M0|
    assert color_profile(g, range(0, 13, 2)).rb == (0, 2)
    assert color_profile(g, range(1, 13, 2)).rb == (4, 2)
    assert max_matching_size(g) == 7
    assert max(len(exact_optimum(g, kr, kb) or ()) for kr, kb in [(3, 2), (3, 1)]) == 5
    elapsed = _report("criterion 1 (odd-path tightness)", started, 1)
    assert elapsed < 1


def _two_eight_cycles() -> ColoredGraph:
    edges = [(i, (i + 1) % 8, "RY"[i % 2]) for i in range(8)]
    edges += [(8 + i, 8 + (i + 1) % 8, "BY"[i % 2]) for i in range(8)]
    return ColoredGraph(16, edges)


def test_criterion_2_union_tightness():
    started = time.monotonic()
    g = _two_eight_cycles()
    m0 = frozenset(e for e in range(16) if e % 2 == 0)
    m1 = frozenset(e for e in range(16) if e % 2 == 1)
    assert color_profile(g, m0).rb == (4, 4)
    assert color_profile(g, m1).rb == (0, 0)
    got = combine_two_matchings(g, m0, m1, 2, 2)
    assert validate_matching(g, got)
    prof = color_profile(g, got)
    assert len(got) == 6
    assert prof.red == 2 and prof.blue in (1, 2)
    assert max(len(exact_optimum(g, kr, kb) or ()) for kr, kb in [(2, 2), (2, 1)]) == 6
    elapsed = _report("criterion 2 (two-matchings tightness)", started, 5)
    assert elapsed < 5


def test_criterion_3_cycle_suite():
    started = time.monotonic()
    rng = random.Random(20260809)
    for trial in range(1000):
        ell = rng.randrange(2, 16)
        colors = "".join(rng.choice("RBY") for _ in range(2 * ell))
        comp = even_cycle_from_string(colors)
        p0 = comp.even_profile().rb
        p1 = comp.odd_profile().rb
        points = segment_integer_points(p0, p1)
        kr, kb = points[rng.randrange(len(points))]
        got = solve_even_cycle(comp, kr, kb)
        assert len(got) >= ell - 1
        g = cycle_graph(colors)
        assert validate_matching(g, got)
        prof = color_profile(g, got)
        if (kr, kb) in (p0, p1):
            assert prof.rb == (kr, kb)
        elif "Y" in colors:
            assert prof.rb == (kr, kb)
        else:
            assert prof.rb == (kr, kb - 1)
    elapsed = _report("criterion 3 (cycle suite, 1000 instances)", started, 60)
    assert elapsed < 60


def _interior_lattice_points(delta):
    g = math.gcd(abs(delta[0]), abs(delta[1]))
    return [
        (delta[0] * k // g, delta[1] * k // g) for k in range(1, g)
    ]


def test_criterion_4_crossing_fuzz():
    started = time.monotonic()
    rng = random.Random(404)
    done = 0
    attempts = 0
    while done < 10000:
        attempts += 1
        assert attempts < 2_000_000
        ell = rng.randrange(2, 13)
        poly = polyline_from_moves(rng.choice(MOVES) for _ in range(ell))
        if poly.period_shift == (0, 0):
            continue
        qs = _interior_lattice_points(poly.period_shift)
        if not qs or not check_injective(poly):
            continue
        curve = PeriodicCurve(poly)
        qs = [q for q in qs if not curve.on_curve((Fraction(q[0]), Fraction(q[1])))]
        if not qs:
            continue
        q = qs[rng.randrange(len(qs))]
        cp = find_crossing_pair(poly, q)
        assert cp.v < cp.u < cp.v + poly.period_length
        # independent certificate re-validation through side classification
        s = cp.v - cp.overlap_length
        offset = (Fraction(q[0]), Fraction(q[1]))
        before = periodic_eval(poly, s - Fraction(1, 2))
        after = periodic_eval(poly, cp.v + Fraction(1, 2))
        before = (before[0] + offset[0], before[1] + offset[1])
        after = (after[0] + offset[0], after[1] + offset[1])
        side_b = curve.side_of(before)
        side_a = curve.side_of(after)
        assert PeriodicCurve.ON not in (side_b, side_a)
        assert side_b != side_a
        contact = periodic_eval(poly, cp.u)
        translate = periodic_eval(poly, cp.v)
        assert (contact[0] - translate[0], contact[1] - translate[1]) == q
        # overlap classification relations, re-derived from the raw curve
        for j in range(cp.overlap_length + 1):
            if cp.kind == "OverlapOppositeOrientation":
                lhs = periodic_eval(poly, cp.u + j)
            else:
                lhs = periodic_eval(poly, cp.u - j)
            rhs = periodic_eval(poly, cp.v - j)
            assert (lhs[0] - rhs[0], lhs[1] - rhs[1]) == q
        done += 1
    elapsed = _report("criterion 4 (crossing fuzz, 10000 curves)", started, 120)
    assert elapsed < 120


def test_criterion_5_intersection_fuzz():
    started = time.monotonic()
    rng = random.Random(505)
    done = 0
    attempts = 0
    while done < 10000:
        attempts += 1
        assert attempts < 400000
        ell = rng.randrange(2, 13)
        poly = polyline_from_moves(rng.choice(MOVES) for _ in range(ell))
        if poly.period_shift == (0, 0):
            continue
        qs = _interior_lattice_points(poly.period_shift)
        if not qs:
            continue
        q = qs[rng.randrange(len(qs))]
        pair = next(iter(all_intersecting_pairs(poly, q)), None)
        assert pair is not None
        assert pair.v < pair.u < pair.v + poly.period_length
        pu = periodic_eval(poly, pair.u)
        pv = periodic_eval(poly, pair.v)
        assert (pu[0] - pv[0], pu[1] - pv[1]) == q
        done += 1
    elapsed = _report("criterion 5 (intersection fuzz, 10000 curves)", started, 60)
    assert elapsed < 60


def test_criterion_6_imbalance_curve_golden():
    started = time.monotonic()
    poly = imbalance_curve(FIG3)
    assert poly.points == (
        (0, 0),
        (0, 1),
        (0, 2),
        (1, 2),
        (2, 2),
        (2, 3),
        (1, 4),
        (2, 4),
        (3, 3),
        (4, 2),
    )
    d5 = poly.points[5]
    d2 = poly.points[2]
    assert (d5[0] - d2[0], d5[1] - d2[1]) == (2, 1)
    assert (5, 2) in set(all_intersecting_pairs(poly, (2, 1)))
    elapsed = _report("criterion 6 (imbalance curve golden)", started, 1)
    assert elapsed < 1


def _random_instance(rng: random.Random, n_lo=4, n_hi=14, max_edges=24):
    n = rng.randrange(n_lo, n_hi + 1)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.randrange(4) == 0:
                edges.append((u, v, rng.choice("RBY")))
    rng.shuffle(edges)
    return ColoredGraph(n, edges[:max_edges])


def _random_matching_profile(rng: random.Random, g: ColoredGraph):
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
    return color_profile(g, out).rb


def test_criterion_7_end_to_end():
    started = time.monotonic()
    rng = random.Random(70707)
    solved = 0
    faces = {}
    worst_gap = 0
    while solved < 500:
        g = _random_instance(rng)
        if rng.randrange(10) < 7:
            kr, kb = _random_matching_profile(rng, g)
        else:
            counts = g.color_counts()
            kr = rng.randrange(counts.red + 1)
            kb = rng.randrange(counts.blue + 1)
        report = solve(g, kr, kb)
        if report is None:
            continue
        assert report.profile.red == kr
        assert report.profile.blue in (kb - 1, kb)
        assert len(report.matching) >= math.floor(report.alpha_star) - 3
        worst_gap = max(worst_gap, math.floor(report.alpha_star) - len(report.matching))
        assert verify(g, kr, kb, report)
        opt = exact_optimum(g, kr, kb)
        if opt is not None:
            assert report.alpha_star >= len(opt)
        faces[report.face_class] = faces.get(report.face_class, 0) + 1
        solved += 1
    elapsed = _report(
        f"criterion 7 (end-to-end, 500 instances, faces={faces}, "
        f"worst size gap={worst_gap})",
        started,
        600,
    )
    assert elapsed < 600


def test_criterion_8_lp_exactness():
    started = time.monotonic()
    rng = random.Random(808)
    solved = 0
    while solved < 200:
        g = _random_instance(rng, n_lo=2, n_hi=10, max_edges=18)
        counts = g.color_counts()
        kr = rng.randrange(counts.red + 1)
        kb = rng.randrange(counts.blue + 1)
        model = build_lp(g, kr, kb)
        sol = solve_lp(model)
        if sol is None:
            continue
        # objective is reproduced by substituting the solution into the model
        assert sum(sol.values) == sol.objective
        for v in range(g.vertex_count):
            assert sum(sol.values[e] for e in g.incident(v)) <= 1
        for row in model.blossom_rows:
            assert sum(sol.values[e] for e in row.edge_ids(g)) <= row.rhs
        red = sum(sol.values[e] for e in range(g.edge_count) if g.color(e) == "R")
        blue = sum(sol.values[e] for e in range(g.edge_count) if g.color(e) == "B")
        assert (red, blue) == (kr, kb)
        face = minimal_face(g, sol)
        if face.classification == SINGLETON:
            assert all(x.denominator == 1 for x in sol.values)
            size = len(face.vertex_matchings[0])
            assert sol.objective == size
            assert math.ceil(sol.objective) == sol.objective
        solved += 1
    elapsed = _report("criterion 8 (LP exactness, 200 instances)", started, 120)
    assert elapsed < 120
