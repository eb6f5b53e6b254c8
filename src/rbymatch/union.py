"""Combining two arbitrary matchings into one meeting a requirement point.

The union of two disjoint matchings decomposes into alternating paths and
even cycles.  After contracting same-color consecutive pairs (journaled, so
answers lift back), either some slack exists (size imbalance or a yellow
edge) and all components glue into a single even cycle solvable by the cycle
selector at the cost of dummy edges and at most one repair edge, or the
instance is a tight red-blue situation handled by recursing on one component
at a time.  The result keeps the red requirement exactly, loses at most one
blue edge, and has size at least two below the smaller matching (one below
when the union is acyclic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .curve import on_segment
from .cycles import solve_even_cycle, solve_path_or_cycle
from .errors import InvariantError
from .graph import (
    BLUE,
    RED,
    YELLOW,
    ColoredGraph,
    CycleOrPath,
    color_profile,
    profile_of_colors,
    symdiff_components,
    validate_matching,
)
from .lift import ContractionJournal, ContractionRecord, DisjointSets


@dataclass
class _Block:
    """One alternating component during normalization.

    ``verts[i]`` is an original vertex inside the class sitting left of edge
    i (paths carry one extra trailing vertex); sources are 0/1 matching
    labels.  Cycles keep verts the same length as edges.
    """

    edges: list[int]
    colors: list[str]
    sources: list[int]
    verts: list[int]
    is_cycle: bool

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def min_edge(self) -> int:
        return min(self.edges)

    def path_class(self) -> str:
        if self.is_cycle:
            return "cycle"
        if len(self.edges) % 2 == 0:
            return "even"
        return "aug0" if self.sources[0] == 1 else "aug1"
        # aug0: extremes in matching 1 (matching 0 can augment along it)
        # aug1: extremes in matching 0


def _block_from_component(comp: CycleOrPath) -> _Block:
    if comp.sources is None or comp.edge_ids is None or comp.vertices is None:
        raise ValueError("components must carry matching labels, edge ids and vertices")
    for a, b in zip(comp.sources, comp.sources[1:]):
        if a == b:
            raise ValueError("component does not alternate between the matchings")
    if comp.is_cycle and comp.sources[0] == comp.sources[-1]:
        raise ValueError("component does not alternate between the matchings")
    return _Block(
        edges=list(comp.edge_ids),
        colors=list(comp.colors),
        sources=list(comp.sources),
        verts=list(comp.vertices),
        is_cycle=comp.is_cycle,
    )


def _reverse_block(block: _Block) -> None:
    block.edges.reverse()
    block.colors.reverse()
    block.sources.reverse()
    block.verts.reverse()


def _rotate_cycle(block: _Block, start: int) -> None:
    block.edges = block.edges[start:] + block.edges[:start]
    block.colors = block.colors[start:] + block.colors[:start]
    block.sources = block.sources[start:] + block.sources[:start]
    block.verts = block.verts[start:] + block.verts[:start]


def _orient_start_source0(block: _Block) -> None:
    if block.is_cycle:
        starts = [i for i, s in enumerate(block.sources) if s == 0]
        best = min(starts, key=lambda i: block.edges[i])
        _rotate_cycle(block, best)
    else:
        if block.sources[0] != 0 and block.sources[-1] == 0:
            _reverse_block(block)


def _contract_block(
    block: _Block,
    dsu: DisjointSets,
    journal: ContractionJournal,
) -> tuple[int, int]:
    """Contract same-color consecutive pairs until proper; returns the
    requirement shift (reds removed, blues removed)."""
    dr = db = 0
    while block.edges:
        length = len(block.edges)
        hit = -1
        limit = length if block.is_cycle else length - 1
        for i in range(limit):
            if block.colors[i] == block.colors[(i + 1) % length]:
                hit = i
                break
        if hit < 0:
            break
        if block.is_cycle:
            _rotate_cycle(block, hit)
            hit = 0
        ea, eb = block.edges[hit], block.edges[hit + 1]
        color = block.colors[hit]
        far_a = block.verts[hit]
        far_b = block.verts[(hit + 2) % len(block.verts)]  # a 2-cycle wraps
        journal.add(
            ContractionRecord(
                edge_a=ea,
                edge_b=eb,
                color=color,
                outer_a=dsu.members(far_a),
                outer_b=dsu.members(far_b),
            )
        )
        mid = block.verts[hit + 1]
        dsu.union(far_a, mid)
        dsu.union(far_a, far_b)
        if color == RED:
            dr += 1
        elif color == BLUE:
            db += 1
        del block.edges[hit : hit + 2]
        del block.colors[hit : hit + 2]
        del block.sources[hit : hit + 2]
        del block.verts[hit + 1 : hit + 3]
    return dr, db


@dataclass(frozen=True)
class GluedCycle:
    """All components glued into one even cycle.

    Edges of the first matching sit on even positions; edges of the second
    matching and dummy yellow edges sit on odd positions.  ``edge_map`` sends
    positions back to original edge ids (None for dummies); ``block_spans``
    records each component's [start, end] positions and whether it was an
    opened cycle, whose first and last edges still collide in the host graph.
    """

    colors: tuple[str, ...]
    edge_map: tuple[int | None, ...]
    block_spans: tuple[tuple[int, int, bool], ...]


def _classify(
    blocks: Sequence[_Block],
) -> tuple[list[_Block], list[_Block], list[_Block]]:
    """(cycles and even paths in input order, aug0 paths, aug1 paths), the
    augmenting paths sorted by smallest edge id."""
    even = [b for b in blocks if b.path_class() in ("cycle", "even")]
    aug0, aug1 = (
        sorted((b for b in blocks if b.path_class() == c), key=lambda b: b.min_edge)
        for c in ("aug0", "aug1")
    )
    return even, aug0, aug1


def glue_components(blocks: Sequence[_Block]) -> GluedCycle:
    """Open cycles, patch augmenting paths in pairs, pad the rest with dummy
    yellow edges, and concatenate everything into one even cycle."""
    even_blocks, aug0, aug1 = _classify(blocks)
    if len(aug0) > len(aug1):
        raise ValueError("more paths augment the larger matching than the smaller")

    for b in even_blocks:
        _orient_start_source0(b)
    even_blocks.sort(key=lambda b: b.min_edge)

    pieces: list[tuple[_Block | None, _Block, bool]] = []
    # (optional leading aug1 of a patched pair, block, was_cycle)
    for b in even_blocks:
        pieces.append((None, b, b.is_cycle))
    patched = []
    for b1, b0 in zip(aug1, aug0):
        patched.append((b1, b0, False))
    patched.sort(key=lambda t: min(t[0].min_edge, t[1].min_edge))
    pieces.extend(patched)
    leftover = aug1[len(aug0):]
    for b in leftover:
        pieces.append((None, b, None))  # None marks "needs dummy"

    colors: list[str] = []
    edge_map: list[int | None] = []
    sources: list[int] = []
    spans: list[tuple[int, int, bool]] = []
    for lead, block, was_cycle in pieces:
        start = len(colors)
        if lead is not None:
            colors.extend(lead.colors)
            edge_map.extend(lead.edges)
            sources.extend(lead.sources)
            spans.append((start, start + len(lead.edges) - 1, False))
            start = len(colors)
        colors.extend(block.colors)
        edge_map.extend(block.edges)
        sources.extend(block.sources)
        if was_cycle is None:  # leftover path: pad with a dummy edge
            spans.append((start, start + len(block.edges) - 1, False))
            colors.append(YELLOW)
            edge_map.append(None)
            sources.append(1)
        else:
            spans.append((start, start + len(block.edges) - 1, bool(was_cycle)))

    glued = GluedCycle(tuple(colors), tuple(edge_map), tuple(spans))
    n = len(colors)
    if n % 2 != 0:
        raise InvariantError("glued cycle has odd length")
    for pos, src in enumerate(sources):
        if src != pos % 2:
            raise InvariantError(
                "first-matching edges must land on even glued positions"
            )
    return glued


def combine_two_matchings(
    graph: ColoredGraph,
    m0: Iterable[int],
    m1: Iterable[int],
    k_red: int,
    k_blue: int,
) -> frozenset[int]:
    """Matching with exactly k_red red and k_blue or k_blue - 1 blue edges.

    Requires the requirement point on the segment between the two matchings'
    profiles.  The result has size at least |smaller matching| - 2, improving
    to -1 when the union contains no cycle.
    """
    set0 = frozenset(m0)
    set1 = frozenset(m1)
    if not validate_matching(graph, set0) or not validate_matching(graph, set1):
        raise ValueError("inputs must be matchings")
    p0 = _rb(graph, set0)
    p1 = _rb(graph, set1)
    if not on_segment((k_red, k_blue), p0, p1):
        raise ValueError(
            f"requirement {(k_red, k_blue)} not on the segment {p0}..{p1}"
        )

    shared = set0 & set1
    shared_red, shared_blue = _rb(graph, shared)
    kr = k_red - shared_red
    kb = k_blue - shared_blue
    a0 = set0 - shared
    a1 = set1 - shared
    if len(a0) < len(a1):
        a0, a1 = a1, a0

    q0 = _rb(graph, a0)
    q1 = _rb(graph, a1)
    if (kr, kb) == q0:
        return frozenset(shared | a0)
    if (kr, kb) == q1:
        return frozenset(shared | a1)

    dsu = DisjointSets(graph.vertex_count)
    journal = ContractionJournal()
    blocks = [_block_from_component(c) for c in symdiff_components(graph, a0, a1)]
    for b in blocks:
        dr, db = _contract_block(b, dsu, journal)
        kr -= dr
        kb -= db
    blocks = [b for b in blocks if len(b)]

    side0, side1 = _side(blocks, 0), _side(blocks, 1)
    rp0, rp1 = _side_profile(blocks, 0), _side_profile(blocks, 1)
    if not on_segment((kr, kb), rp0, rp1):
        raise InvariantError("requirement left the profile segment after contraction")

    if (kr, kb) == rp0:
        inner = side0
    elif (kr, kb) == rp1:
        inner = side1
    elif not blocks:
        raise InvariantError("no components left but requirement not met")
    elif len(blocks) == 1:
        inner = _solve_single_block(blocks[0], kr, kb)
    elif len(side0) > len(side1) or any(YELLOW in b.colors for b in blocks):
        inner = _case_glue(blocks, kr, kb)
    else:
        inner = _case_no_yellow(blocks, kr, kb, dsu, journal)

    lifted = journal.lift(inner, graph.endpoints)
    result = frozenset(shared | lifted)
    prof = color_profile(graph, result)
    if prof.red != k_red or prof.blue not in (k_blue - 1, k_blue):
        raise InvariantError(
            f"combined matching has profile {prof.rb}, requirement {(k_red, k_blue)}"
        )
    return result


def _rb(graph: ColoredGraph, edge_ids: Iterable[int]) -> tuple[int, int]:
    # (red, blue) of edges from the two matchings validated on entry
    return profile_of_colors(graph.color(e) for e in edge_ids).rb


def _side(blocks: Sequence[_Block], source: int) -> frozenset[int]:
    return frozenset(e for b in blocks for e, s in zip(b.edges, b.sources) if s == source)


def _side_profile(blocks: Sequence[_Block], source: int) -> tuple[int, int]:
    return profile_of_colors(
        c for b in blocks for c, s in zip(b.colors, b.sources) if s == source
    ).rb


def _solve_single_block(block: _Block, kr: int, kb: int) -> frozenset[int]:
    # an even path is solved as the even cycle on the same colors, so a
    # cycle block needs no separate kind
    positions = solve_path_or_cycle(block.colors, kr, kb)
    return frozenset(block.edges[p] for p in positions)


def _case_glue(blocks: list[_Block], kr: int, kb: int) -> frozenset[int]:
    """Glue everything into one cycle, solve, strip dummies, repair."""
    glued = glue_components(blocks)
    positions = solve_even_cycle(glued.colors, kr, kb)
    chosen = set(positions)
    conflicts = []
    for start, end, was_cycle in glued.block_spans:
        if was_cycle and start in chosen and end in chosen:
            conflicts.append((start, end))
    if len(conflicts) > 1:
        raise InvariantError("two opened cycles conflict; contradiction with parity")
    if conflicts:
        start, end = conflicts[0]
        ca, cb = glued.colors[start], glued.colors[end]
        if ca == RED and cb == RED:
            raise InvariantError("both conflicting edges red in a proper component")
        if ca == RED:
            drop = end
        elif cb == RED:
            drop = start
        elif ca == BLUE:
            drop = start
        elif cb == BLUE:
            drop = end
        else:
            raise InvariantError("conflicting edges share a color in a proper component")
        chosen.discard(drop)
    out = set()
    for p in chosen:
        orig = glued.edge_map[p]
        if orig is not None:
            out.add(orig)
    return frozenset(out)


def _case_no_yellow(
    blocks: list[_Block],
    kr: int,
    kb: int,
    dsu: DisjointSets,
    journal: ContractionJournal,
) -> frozenset[int]:
    """Equal sizes, no yellow: join odd paths, then peel components."""
    rest, aug0, aug1 = _classify(blocks)
    if len(aug1) != len(aug0):
        raise InvariantError("odd paths unbalanced although the matchings have equal size")
    for b1, b0 in zip(aug1, aug0):
        joined = _Block(
            edges=b1.edges + b0.edges,
            colors=b1.colors + b0.colors,
            sources=b1.sources + b0.sources,
            verts=b1.verts + b0.verts[1:],
            is_cycle=False,
        )
        dsu.union(b1.verts[-1], b0.verts[0])
        dr, db = _contract_block(joined, dsu, journal)
        kr -= dr
        kb -= db
        if len(joined):
            rest.append(joined)
    for b in rest:
        _orient_start_source0(b)
    return _recurse_no_yellow(rest, kr, kb)


def _recurse_no_yellow(blocks: list[_Block], kr: int, kb: int) -> frozenset[int]:
    p0, p1 = _side_profile(blocks, 0), _side_profile(blocks, 1)
    if not on_segment((kr, kb), p0, p1):
        raise InvariantError("requirement left the segment during recursion")
    if (kr, kb) == p0:
        return _side(blocks, 0)
    if (kr, kb) == p1:
        return _side(blocks, 1)
    if len(blocks) == 1:
        return _solve_single_block(blocks[0], kr, kb)

    # component types: even part red vs even part blue (strict alternation)
    def block_type(b: _Block) -> str:
        return "RB" if b.colors[b.sources.index(0)] == RED else "BR"

    r0, r1 = p0[0], p1[0]
    crossing = "RB" if r1 > r0 else "BR"
    candidates = [b for b in blocks if block_type(b) == crossing]
    if candidates:
        chosen = min(candidates, key=lambda b: b.min_edge)
    else:
        chosen = min(blocks, key=lambda b: (len(b.edges), b.min_edge))
    rest = [b for b in blocks if b is not chosen]
    ev, od = _side_profile([chosen], 0), _side_profile([chosen], 1)
    rp0 = (p0[0] - ev[0], p0[1] - ev[1])
    rp1 = (p1[0] - od[0], p1[1] - od[1])
    for source, (dr, db) in enumerate((ev, od)):
        k = (kr - dr, kb - db)
        if on_segment(k, rp0, rp1):
            return _side([chosen], source) | _recurse_no_yellow(rest, *k)
    raise InvariantError("neither half of the chosen component keeps the segment")
