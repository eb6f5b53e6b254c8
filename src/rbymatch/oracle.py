"""Brute-force ground truth for small instances.

Everything here is exhaustive and therefore only usable below a hard size cap.
The cap is an error, never a silent approximation: callers that need larger
instances must not rely on this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapExceededError
from .graph import BLUE, RED, ColoredGraph


@dataclass(frozen=True)
class OracleCap:
    max_vertices: int = 20
    max_edges: int = 40


DEFAULT_CAP = OracleCap()


def check_size(vertex_count: int, edge_count: int, cap: OracleCap = DEFAULT_CAP) -> None:
    """CapExceededError if either count is past the cap, vertices first;
    callers check counts before they build anything of that size."""
    if vertex_count > cap.max_vertices:
        raise CapExceededError(f"{vertex_count} vertices exceeds oracle cap {cap.max_vertices}")
    if edge_count > cap.max_edges:
        raise CapExceededError(f"{edge_count} edges exceeds oracle cap {cap.max_edges}")


def check_cap(graph: ColoredGraph, cap: OracleCap = DEFAULT_CAP) -> None:
    check_size(graph.vertex_count, graph.edge_count, cap)


def enumerate_matchings(
    graph: ColoredGraph,
    restrict_support: Iterable[int] | None = None,
    cap: OracleCap = DEFAULT_CAP,
    cover: int = 0,
) -> Iterator[frozenset[int]]:
    """Yield every matching exactly once, lexicographic by sorted id list.

    ``cover`` is a vertex mask: only the matchings that cover all of its
    vertices are yielded, in the same order.  The search drops a branch
    once a vertex of the mask is neither covered nor an end of a candidate
    edge at or after the branch's next one.
    """
    check_cap(graph, cap)
    if restrict_support is None:
        candidates = list(range(graph.edge_count))
    else:
        candidates = sorted(set(restrict_support))
        for eid in candidates:
            if not (0 <= eid < graph.edge_count):
                raise ValueError(f"edge id {eid} out of range")
    masks = [(1 << u) | (1 << v) for u, v in map(graph.endpoints, candidates)]
    reach = [0] * (len(masks) + 1)  # reach[i]: the ends of candidates i and on
    for i in range(len(masks) - 1, -1, -1):
        reach[i] = reach[i + 1] | masks[i]

    def walk() -> Iterator[frozenset[int]]:
        # depth-first on an explicit stack, so a yield costs the same at any
        # depth: resume[i] is the next candidate to try at depth i, and the
        # edge that opened depth i sits just before resume[i - 1]
        used, ids, resume = 0, [], [0]
        if not cover:
            yield frozenset()
        while resume:
            idx = resume[-1]
            while idx < len(masks) and used & masks[idx]:
                idx += 1
            if idx == len(masks) or cover & ~(used | reach[idx]):
                resume.pop()
                if resume:
                    used ^= masks[resume[-1] - 1]
                    ids.pop()
                continue
            resume[-1] = idx + 1
            used |= masks[idx]
            ids.append(candidates[idx])
            resume.append(idx + 1)
            if not cover & ~used:
                yield frozenset(ids)

    return walk()


def _search_best(
    graph: ColoredGraph,
    target: tuple[int, int] | None,
    cap: OracleCap,
) -> frozenset[int] | None:
    """Largest matching (optionally with exact (red, blue) profile).

    Depth-first include/exclude on edges in id order, so the first matching
    found at any given size is the lexicographically smallest one; pruning by
    an optimistic size bound keeps this fast at oracle scale.
    """
    check_cap(graph, cap)
    m = graph.edge_count
    endpoints = [graph.endpoints(e) for e in range(m)]
    colors = [graph.color(e) for e in range(m)]
    reds_suffix = [0] * (m + 1)
    blues_suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        reds_suffix[i] = reds_suffix[i + 1] + (colors[i] == RED)
        blues_suffix[i] = blues_suffix[i + 1] + (colors[i] == BLUE)

    best: list[frozenset[int] | None] = [None]
    best_size = [-1]
    used: set[int] = set()
    chosen: list[int] = []
    red_count = [0]
    blue_count = [0]

    def feasible_leaf() -> bool:
        if target is None:
            return True
        return red_count[0] == target[0] and blue_count[0] == target[1]

    def rec(idx: int) -> None:
        if feasible_leaf() and len(chosen) > best_size[0]:
            best_size[0] = len(chosen)
            best[0] = frozenset(chosen)
        if idx == m:
            return
        free = graph.vertex_count - 2 * len(chosen)
        bound = len(chosen) + min(m - idx, free // 2)
        if bound <= best_size[0]:
            return
        if target is not None:
            if red_count[0] > target[0] or blue_count[0] > target[1]:
                return
            if red_count[0] + reds_suffix[idx] < target[0]:
                return
            if blue_count[0] + blues_suffix[idx] < target[1]:
                return
        u, v = endpoints[idx]
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
            chosen.append(idx)
            if colors[idx] == RED:
                red_count[0] += 1
            elif colors[idx] == BLUE:
                blue_count[0] += 1
            rec(idx + 1)
            if colors[idx] == RED:
                red_count[0] -= 1
            elif colors[idx] == BLUE:
                blue_count[0] -= 1
            chosen.pop()
            used.discard(u)
            used.discard(v)
        rec(idx + 1)

    rec(0)
    return best[0]


def exact_optimum(
    graph: ColoredGraph,
    k_red: int,
    k_blue: int,
    cap: OracleCap = DEFAULT_CAP,
) -> frozenset[int] | None:
    """Maximum-cardinality matching with exactly the requested profile.

    Returns None when no matching has the profile.  Ties are broken toward
    the lexicographically smallest sorted id list.
    """
    if k_red < 0 or k_blue < 0:
        raise ValueError("color requirements must be nonnegative")
    return _search_best(graph, (k_red, k_blue), cap)


def max_matching_size(graph: ColoredGraph, cap: OracleCap = DEFAULT_CAP) -> int:
    """Maximum matching cardinality, colors ignored."""
    best = _search_best(graph, None, cap)
    assert best is not None  # the empty matching always exists
    return len(best)


def best_profile_size(
    graph: ColoredGraph,
    profiles: Iterable[tuple[int, int]],
    cap: OracleCap = DEFAULT_CAP,
) -> int | None:
    """Largest matching size over several admissible (red, blue) profiles."""
    sizes = []
    for k_red, k_blue in profiles:
        m = exact_optimum(graph, k_red, k_blue, cap)
        if m is not None:
            sizes.append(len(m))
    return max(sizes) if sizes else None
