"""End-to-end solver: LP, minimal face, and the four-case combination.

Solving the color-constrained matching LP exactly puts a basic optimum in
the relative interior of a face with at most four matching vertices.  The
optimum is a vertex of the polytope cut by the two color rows, so the face's
projection onto (red, blue) keeps the face's dimension: a lost dimension
would leave a segment through the optimum with both color sums fixed.  The
driver checks that rank and splits on the face's class:

  * point: the face's one vertex has the required profile; take it.
  * segment: the requirement sits on the face's one side.
  * triangle / parallelogram: the vertical line through the required red
    count cuts the projected boundary twice, each time on a non-vertical
    side; the two matchings of the cuts merge through the two-matchings
    combiner.

The segment's point and every cut are resolved on a face side (_on_side):
adjacent vertices of the matching polytope differ in one alternating path or
cycle, and the cycle selector finishes on it.  A cut through a projected
vertex is an end of a side and needs no case of its own: at full rank the
two ends of a side project to different points, so the selector's endpoint
check returns that vertex's matching.

Every produced matching keeps the red requirement exactly, loses at most one
blue edge, and has size at least floor(optimum) - 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cycles import solve_fractional
from .errors import InvariantError
from .graph import (
    ColoredGraph,
    ColorProfile,
    profile_of_colors,
    validate_matching,
    walk_symdiff,
)
from .lpface import SEGMENT, SINGLETON, FaceDescriptor, build_lp, minimal_face, solve_lp
from .oracle import OracleCap, DEFAULT_CAP
from .union import combine_two_matchings


@dataclass(frozen=True)
class SolveReport:
    matching: frozenset[int]
    profile: ColorProfile
    alpha_star: Fraction
    face_class: str
    guarantee_ok: tuple[bool, bool, bool]  # size bound, red exact, blue window
    trace: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(self.guarantee_ok)


def solve(
    graph: ColoredGraph,
    k_red: int,
    k_blue: int,
    cap: OracleCap = DEFAULT_CAP,
) -> SolveReport | None:
    """Solve the requirement on a colored graph; None iff the LP is infeasible."""
    model = build_lp(graph, k_red, k_blue, cap)
    trace = [f"lp: edges={graph.edge_count}"]
    try:
        solution = solve_lp(model)
        if solution is None:
            return None
        alpha = solution.objective
        trace.append(f"lp: alpha_star={alpha}")
        face_class, matching = _from_optimum(graph, model, solution, k_red, k_blue, cap, trace)
    except ValueError as exc:
        # build_lp checked the input: past it, a ValueError is a broken
        # internal guarantee, not bad input
        raise InvariantError(f"{exc}; trace={trace}") from exc

    checked = _guarantees(graph, k_red, k_blue, matching, alpha)
    if checked is None:
        raise InvariantError(f"driver produced an invalid matching; trace={trace}")
    guarantee, profile = checked
    trace.append(
        f"result: size={len(matching)} profile={profile.rb} floor_alpha={math.floor(alpha)}"
    )
    report = SolveReport(
        matching=frozenset(matching),
        profile=profile,
        alpha_star=alpha,
        face_class=face_class,
        guarantee_ok=guarantee,
        trace=tuple(trace),
    )
    if not report.ok:
        raise InvariantError(f"guarantee check failed: {guarantee}; trace={trace}")
    return report


def _guarantees(graph, k_red, k_blue, matching, alpha):
    """((size bound, red exact, blue window), profile) of a matching against
    the requirement and the optimum alpha; None if it is no matching."""
    if not validate_matching(graph, matching):
        return None
    edges = graph.edges
    profile = profile_of_colors(edges[e][2] for e in matching)
    size_ok = len(matching) >= math.floor(alpha) - 3
    return (size_ok, profile.red == k_red, profile.blue in (k_blue - 1, k_blue)), profile


def _from_optimum(
    graph, model, solution, k_red, k_blue, cap, trace
) -> tuple[str, frozenset[int]]:
    """(face class, matching) built from the LP optimum."""
    face = minimal_face(graph, model, solution, cap)
    trace.append(f"face: route={face.route}")
    trace.append(
        f"face: {face.classification} vertices={[sorted(m) for m in face.vertex_matchings]}"
    )
    rank = _point_affine_rank(face.projected_vertices)
    if rank != min(len(face.vertex_matchings) - 1, 2):
        raise InvariantError(
            f"{face.classification} face projects with affine rank {rank}; "
            "the optimum is not basic"
        )

    if face.classification == SINGLETON:
        matching = _case_singleton(face, k_red, k_blue, trace)
    elif face.classification == SEGMENT:
        matching = _on_side(graph, face, 0, 1, k_red, k_blue, trace)
    else:
        matching = _case_cut_and_combine(graph, face, k_red, k_blue, trace)
    return face.classification, matching


def _point_affine_rank(points: tuple[tuple[int, int], ...]) -> int:
    """Dimension (0, 1 or 2) of the affine hull of the projected vertices."""
    base = points[0]
    diffs = [(p[0] - base[0], p[1] - base[1]) for p in points[1:]]
    diffs = [d for d in diffs if d != (0, 0)]
    if not diffs:
        return 0
    first = diffs[0]
    for d in diffs[1:]:
        if first[0] * d[1] - first[1] * d[0] != 0:
            return 2
    return 1


def verify(graph: ColoredGraph, k_red: int, k_blue: int, report: SolveReport) -> bool:
    """Re-check a report from scratch: matching validity, exact red count,
    blue within one, and the size bound against the reported optimum."""
    checked = _guarantees(graph, k_red, k_blue, report.matching, report.alpha_star)
    return checked is not None and all(checked[0])


def _case_singleton(face: FaceDescriptor, k_red, k_blue, trace) -> frozenset[int]:
    matching = face.vertex_matchings[0]
    prof = face.projected_vertices[0]
    if prof != (k_red, k_blue):
        raise InvariantError(
            f"singleton face vertex has profile {prof}, not {(k_red, k_blue)}"
        )
    trace.append(f"singleton: size={len(matching)}")
    return matching


def _on_side(graph, face: FaceDescriptor, i, j, k_red, k_blue, trace) -> frozenset[int]:
    """Matching on the face side (i, j) with k_red red edges and ceil(k_blue)
    or ceil(k_blue) - 1 blue ones (k_blue may be fractional): the shared
    edges plus the selector's answer on the one walked component's colors,
    mapped back through the walk's edge list."""
    ma, mb = face.vertex_matchings[i], face.vertex_matchings[j]
    shared = ma & mb
    comps = walk_symdiff(graph, ma, mb)
    if len(comps) != 1:
        raise InvariantError(f"adjacent face vertices differ in {len(comps)} components")
    edges, closed, _ = comps[0]
    sp = profile_of_colors(graph.color(e) for e in shared)
    trace.append(
        f"side ({i},{j}): shared={len(shared)} component={'cycle' if closed else 'path'} "
        f"len={len(edges)} blue={k_blue}"
    )
    colors = [graph.color(e) for e in edges]
    positions = solve_fractional(colors, k_red - sp.red, k_blue - sp.blue)
    return shared.union(edges[p] for p in positions)


def _boundary_cuts(face: FaceDescriptor, k_red: int):
    """Intersections of the line (red == k_red) with the projected boundary.

    Returns a sorted list of (blue_value, (i, j)), one entry per distinct blue
    value, where (i, j) is a non-vertical side holding the point.  A point at
    a vertex is held by both sides through it and keeps the first; a vertical
    side's ends lie on the non-vertical sides next to it.
    """
    pts = face.projected_vertices
    k = len(pts)  # a triangle, or a parallelogram in cyclic order
    cuts: dict[Fraction, tuple[int, int]] = {}
    for i in range(k):
        j = (i + 1) % k
        a, b = pts[i], pts[j]
        if a[0] == b[0]:
            continue
        lo, hi = sorted((a[0], b[0]))
        if not (lo <= k_red <= hi):
            continue
        y = Fraction(a[1]) + Fraction(b[1] - a[1]) * Fraction(k_red - a[0], b[0] - a[0])
        cuts.setdefault(y, (i, j))
    return sorted(cuts.items())


def _case_cut_and_combine(graph, face: FaceDescriptor, k_red, k_blue, trace) -> frozenset[int]:
    cuts = _boundary_cuts(face, k_red)
    if len(cuts) != 2:
        raise InvariantError(f"cut line meets the projected boundary at {len(cuts)} points")
    (blue_lo, side_lo), (blue_hi, side_hi) = cuts
    if not (blue_lo < k_blue < blue_hi):
        raise InvariantError(
            f"requirement blue {k_blue} outside cut window ({blue_lo}, {blue_hi})"
        )
    trace.append(f"{face.classification}: cut window blue=({blue_lo}, {blue_hi})")
    m_low = _on_side(graph, face, *side_lo, k_red, blue_lo, trace)
    m_high = _on_side(graph, face, *side_hi, k_red, blue_hi, trace)
    # the combiner validates both; count their colors only
    p_low = profile_of_colors(graph.color(e) for e in m_low)
    p_high = profile_of_colors(graph.color(e) for e in m_high)
    if p_low.red != k_red or p_high.red != k_red:
        raise InvariantError("cut matchings lost the exact red count")
    if not (p_low.blue <= k_blue <= p_high.blue):
        raise InvariantError(
            f"cut matchings have blues {(p_low.blue, p_high.blue)}; "
            f"requirement {k_blue} not between them"
        )
    trace.append(f"combine: sizes=({len(m_low)},{len(m_high)}) blues=({p_low.blue},{p_high.blue})")
    return combine_two_matchings(graph, m_low, m_high, k_red, k_blue)
