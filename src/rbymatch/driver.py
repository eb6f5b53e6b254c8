"""End-to-end solver: LP, minimal face, and the four-case combination.

Solving the color-constrained matching LP exactly puts a basic optimum in
the relative interior of a face with at most four matching vertices.  The
optimum is a vertex of the polytope cut by the two color rows, so the face's
projection onto (red, blue) keeps the face's dimension: a lost dimension
would leave a segment through the optimum with both color sums fixed.  The
driver checks that rank and splits on the face's class:

  * point: the face's one vertex has the required profile; take it.
  * segment: the requirement sits between two adjacent matchings; their
    symmetric difference is one alternating path or cycle and the cycle
    selector finishes.
  * triangle / parallelogram: the vertical line through the required red
    count cuts the projected boundary twice; each cut point yields a matching
    via the fractional cycle selector on a face side (or the hosting vertex
    itself), and the two results merge through the two-matchings combiner.

Every produced matching keeps the red requirement exactly, loses at most one
blue edge, and has size at least floor(optimum) - 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cycles import solve_fractional, solve_path_or_cycle
from .errors import InvariantError
from .graph import (
    ColoredGraph,
    ColorProfile,
    color_profile,
    profile_of_colors,
    symdiff_components,
    validate_matching,
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
    if k_red < 0 or k_blue < 0:
        raise ValueError("color requirements must be nonnegative")
    trace: list[str] = []
    model = build_lp(graph, k_red, k_blue, cap)
    trace.append(f"lp: edges={graph.edge_count} blossom_rows={len(model.blossom_rows)}")
    solution = solve_lp(model)
    if solution is None:
        return None
    alpha = solution.objective
    trace.append(f"lp: alpha_star={alpha}")
    try:
        face_class, matching = _from_optimum(graph, model, solution, k_red, k_blue, cap, trace)
    except ValueError as exc:
        # the input was checked above: past the LP, a ValueError is a broken
        # internal guarantee, not bad input
        raise InvariantError(f"{exc}; trace={trace}") from exc

    if not validate_matching(graph, matching):
        raise InvariantError(f"driver produced an invalid matching; trace={trace}")
    profile = profile_of_colors(graph.color(e) for e in matching)
    floor_alpha = math.floor(alpha)
    guarantee = (
        len(matching) >= floor_alpha - 3,
        profile.red == k_red,
        profile.blue in (k_blue - 1, k_blue),
    )
    trace.append(
        f"result: size={len(matching)} profile={profile.rb} floor_alpha={floor_alpha}"
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
        matching = _case_singleton(graph, face, k_red, k_blue, trace)
    elif face.classification == SEGMENT:
        matching = _case_segment(graph, face, k_red, k_blue, trace)
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


def verify(
    graph: ColoredGraph, k_red: int, k_blue: int, report: SolveReport
) -> bool:
    """Re-check a report from scratch: matching validity, exact red count,
    blue within one, and the size bound against the reported optimum."""
    if not validate_matching(graph, report.matching):
        return False
    try:
        profile = color_profile(graph, report.matching)
    except ValueError:
        return False
    if profile.red != k_red:
        return False
    if profile.blue not in (k_blue - 1, k_blue):
        return False
    if len(report.matching) < math.floor(report.alpha_star) - 3:
        return False
    return True


def _case_singleton(graph, face: FaceDescriptor, k_red, k_blue, trace) -> frozenset[int]:
    matching = face.vertex_matchings[0]
    # a face vertex, validated when the face was built
    prof = profile_of_colors(graph.color(e) for e in matching)
    if prof.rb != (k_red, k_blue):
        raise InvariantError(
            f"singleton face vertex has profile {prof.rb}, not {(k_red, k_blue)}"
        )
    trace.append(f"singleton: size={len(matching)}")
    return matching


def _pair_component(graph, ma: frozenset[int], mb: frozenset[int]):
    """Shared edges plus the single alternating component of two adjacent
    matchings."""
    shared = ma & mb
    comps = symdiff_components(graph, ma - shared, mb - shared)
    if len(comps) != 1:
        raise InvariantError(
            f"adjacent face vertices differ in {len(comps)} components"
        )
    return shared, comps[0]


def _case_segment(graph, face: FaceDescriptor, k_red, k_blue, trace) -> frozenset[int]:
    ma, mb = face.vertex_matchings
    shared, comp = _pair_component(graph, ma, mb)
    sp = color_profile(graph, shared)
    trace.append(
        f"segment: shared={len(shared)} component={comp.kind} len={len(comp)}"
    )
    positions = solve_path_or_cycle(comp, k_red - sp.red, k_blue - sp.blue)
    return frozenset(shared | comp.to_edge_ids(positions))


def _boundary_cuts(face: FaceDescriptor, k_red: int):
    """Intersections of the line (red == k_red) with the projected boundary.

    Returns a list of (blue_value, host) where host is either
    ("vertex", index) or ("side", i, j); one entry per distinct blue value.
    """
    pts = face.projected_vertices
    k = len(pts)
    if k == 3:
        sides = [(0, 1), (0, 2), (1, 2)]
    else:
        sides = [(0, 1), (1, 2), (2, 3), (3, 0)]
    hosts: dict[Fraction, tuple] = {}
    for idx, p in enumerate(pts):
        if p[0] == k_red:
            hosts[Fraction(p[1])] = ("vertex", idx)
    for i, j in sides:
        a, b = pts[i], pts[j]
        if a[0] == b[0]:
            continue  # vertical side through the cut is impossible here
        lo, hi = sorted((a[0], b[0]))
        if not (lo <= k_red <= hi):
            continue
        y = Fraction(a[1]) + Fraction(b[1] - a[1]) * Fraction(k_red - a[0], b[0] - a[0])
        hosts.setdefault(y, ("side", i, j))
    return sorted(hosts.items())


def _matching_for_cut(graph, face: FaceDescriptor, host, k_red, blue_target, trace):
    if host[0] == "vertex":
        matching = face.vertex_matchings[host[1]]
        trace.append(f"cut: vertex host blue={blue_target}")
        return matching
    _, i, j = host
    ma = face.vertex_matchings[i]
    mb = face.vertex_matchings[j]
    shared, comp = _pair_component(graph, ma, mb)
    sp = color_profile(graph, shared)
    positions = solve_fractional(
        comp, k_red - sp.red, Fraction(blue_target) - sp.blue
    )
    trace.append(
        f"cut: side host ({i},{j}) blue_target={blue_target} component={comp.kind}"
    )
    return frozenset(shared | comp.to_edge_ids(positions))


def _case_cut_and_combine(
    graph, face: FaceDescriptor, k_red, k_blue, trace
) -> frozenset[int]:
    cuts = _boundary_cuts(face, k_red)
    if len(cuts) != 2:
        raise InvariantError(
            f"cut line meets the projected boundary at {len(cuts)} points"
        )
    (blue_lo, host_lo), (blue_hi, host_hi) = cuts
    if not (blue_lo < k_blue < blue_hi):
        raise InvariantError(
            f"requirement blue {k_blue} outside cut window ({blue_lo}, {blue_hi})"
        )
    trace.append(
        f"{face.classification}: cut window blue=({blue_lo}, {blue_hi})"
    )
    m_low = _matching_for_cut(graph, face, host_lo, k_red, blue_lo, trace)
    m_high = _matching_for_cut(graph, face, host_hi, k_red, blue_hi, trace)
    p_low = color_profile(graph, m_low)
    p_high = color_profile(graph, m_high)
    if p_low.red != k_red or p_high.red != k_red:
        raise InvariantError("cut matchings lost the exact red count")
    if not (p_low.blue <= k_blue <= p_high.blue):
        raise InvariantError(
            f"cut matchings have blues {(p_low.blue, p_high.blue)}; "
            f"requirement {k_blue} not between them"
        )
    trace.append(
        f"combine: sizes=({len(m_low)},{len(m_high)}) "
        f"blues=({p_low.blue},{p_high.blue})"
    )
    return combine_two_matchings(graph, m_low, m_high, k_red, k_blue)
