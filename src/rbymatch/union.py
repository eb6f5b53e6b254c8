"""Combining two arbitrary matchings into one meeting a requirement point.

The union of two disjoint matchings decomposes into alternating paths and
even cycles, each held as a _Block.  A block alternates between the two
matchings, so one parity bit, the matching of its edge 0, labels every edge:
reversal, rotation, contraction of a pair and joining two paths update that
bit instead of a per-edge list.

The module owns the contraction state: one record (edge_a, edge_b, before,
after) per contracted pair, where before and after are the block edges next
to the pair when it was contracted (None at a path end or in a 2-cycle).
_lift re-inserts one edge of each pair into the reduced answer from the
records alone: blocks share no vertex, a join makes two blocks one, and
shared edges are added only after the lift, so the neighbouring block edges
decide each lift and no vertex is tracked.

One recursive solver (_solve_blocks) runs on the contracted blocks, and each
level sorts them once into three kinds (_classify): cycles and even paths,
and the odd paths that augment matching 0 or matching 1.  With slack (more
paths of one kind, or a yellow edge) every block is glued into one even
cycle for the cycle selector; _case_glue holds the layout and the repair of
an opened cycle.  Otherwise the blocks are red-blue: odd paths are joined in
pairs, and then components are peeled one at a time.  The result keeps the
red requirement exactly, loses at most one blue edge, and has size at least
two below the smaller matching (one below when the union is acyclic).

combine_two_matchings validates its inputs in its one walk of the symmetric
difference (graph.walk_symdiff), whose lists become the blocks (_blocks)
with no CycleOrPath in between.  It validates a built result once, which
must then pass two checks: its profile meets the requirement, and it has at
least |smaller matching| - 2 edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .curve import on_segment
from .cycles import solve_even_cycle, solve_path_or_cycle
from .errors import InvariantError
from .graph import BLUE, RED, YELLOW, ColoredGraph, color_profile, walk_symdiff


@dataclass
class _Block:
    """One alternating component during normalization, held in the edge
    list walk_symdiff returns, which contraction, rotation and joining edit
    in place.  ``first`` is the matching (0 or 1) of edge 0; the component
    alternates, so edge i comes from matching ``first ^ (i & 1)``.
    """

    edges: list[int]
    colors: list[str]
    first: int
    is_cycle: bool

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def min_edge(self) -> int:
        return min(self.edges)


def _blocks(graph: ColoredGraph, m0: Iterable[int], m1: Iterable[int]) -> list[_Block]:
    """The blocks of M0 symmetric-difference M1, built from walk_symdiff's
    lists as they come, in its order; the walk validates M0 and M1."""
    host = graph.edges
    return [
        _Block(edges, [host[e][2] for e in edges], first, is_cycle)
        for edges, is_cycle, first in walk_symdiff(graph, m0, m1)
    ]


def _reverse_block(block: _Block) -> None:
    block.edges.reverse()
    block.colors.reverse()
    if len(block) % 2 == 0:
        block.first ^= 1


def _rotate_cycle(block: _Block, start: int) -> None:
    block.edges = block.edges[start:] + block.edges[:start]
    block.colors = block.colors[start:] + block.colors[:start]
    block.first ^= start & 1


def _orient_start_source0(block: _Block) -> None:
    if block.is_cycle:
        best = min(range(block.first, len(block), 2), key=lambda i: block.edges[i])
        _rotate_cycle(block, best)
    elif block.first == 1 and len(block) % 2 == 0:
        _reverse_block(block)


# A contraction record: the two contracted edges and the block edges before
# edge_a and after edge_b when the pair was contracted, None where there is
# none (a path end, or a 2-cycle, whose two edges are the pair).
_Record = tuple[int, int, int | None, int | None]


def _contract_block(block: _Block, records: list[_Record]) -> tuple[int, int]:
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
        color = block.colors[hit]
        edges = block.edges
        # a cycle's pair starts at 0 now, so edges[-1] comes before it
        before = edges[hit - 1] if hit or (block.is_cycle and length > 2) else None
        after = edges[hit + 2] if hit + 2 < length else None
        records.append((edges[hit], edges[hit + 1], before, after))
        if color == RED:
            dr += 1
        elif color == BLUE:
            db += 1
        del block.edges[hit : hit + 2]
        del block.colors[hit : hit + 2]
    return dr, db


def _classify(
    blocks: Sequence[_Block],
) -> tuple[list[_Block], list[_Block], list[_Block]]:
    """(cycles and even paths in input order, aug0 paths, aug1 paths), the
    odd paths by smallest edge id.  Only a path can have odd length; one with
    edge 0 in matching 1 has both ends there and augments matching 0."""
    even: list[_Block] = []
    odd: list[_Block] = []
    for b in blocks:
        (odd if len(b.edges) & 1 else even).append(b)
    odd.sort(key=lambda b: b.min_edge)
    return even, [b for b in odd if b.first], [b for b in odd if not b.first]


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

    The walk of M0 symmetric-difference M1 validates both inputs
    (ValueError if either is no matching).  A built result is validated,
    and InvariantError is raised unless it meets the requirement and that
    size bound.
    """
    set0 = frozenset(m0)
    set1 = frozenset(m1)
    blocks = _blocks(graph, set0, set1)
    shared = set0 & set1
    edges = graph.edges
    shared_colors = [edges[e].color for e in shared]
    shared_red, shared_blue = shared_colors.count(RED), shared_colors.count(BLUE)
    (r0, b0), (r1, b1) = _side_profile(blocks, 0), _side_profile(blocks, 1)
    p0 = (shared_red + r0, shared_blue + b0)
    p1 = (shared_red + r1, shared_blue + b1)
    if not on_segment((k_red, k_blue), p0, p1):
        raise ValueError(
            f"requirement {(k_red, k_blue)} not on the segment {p0}..{p1}"
        )
    if len(set0) < len(set1):
        # matching 0 is the larger one from here on
        set0, set1, p0, p1 = set1, set0, p1, p0
        for b in blocks:
            b.first ^= 1
    if (k_red, k_blue) == p0:
        return set0
    if (k_red, k_blue) == p1:
        return set1

    kr = k_red - shared_red
    kb = k_blue - shared_blue
    records: list[_Record] = []
    for b in blocks:
        dr, db = _contract_block(b, records)
        kr -= dr
        kb -= db
    inner = _solve_blocks([b for b in blocks if len(b)], kr, kb, records)
    result = frozenset(shared | _lift(records, inner))
    prof = color_profile(graph, result)
    if prof.red != k_red or prof.blue not in (k_blue - 1, k_blue):
        raise InvariantError(
            f"combined matching has profile {prof.rb}, requirement {(k_red, k_blue)}"
        )
    if len(result) < len(set1) - 2:
        raise InvariantError(
            f"combined matching has {len(result)} edges, the smaller input {len(set1)}"
        )
    return result


def _lift(records: Sequence[_Record], matching: Iterable[int]) -> frozenset[int]:
    """Re-insert one edge of each contracted pair, newest record first.

    Contracting two adjacent same-color edges removes both and merges their
    three endpoints into one vertex, so a matching of the reduced instance
    meets that vertex at most once, through before or after.  Blocks share
    no vertex, a join makes two blocks one, and shared edges are added only
    after the lift, so at the record's level the side beyond edge_a is met
    only by before and the side beyond edge_b only by after.  A taken before
    forces edge_b, a taken after forces edge_a, two free sides take the
    smaller id, and two taken sides mean the input was no matching.
    Replaying newest first puts back the edges of later contractions before
    a record is read, so each record meets the matching of its own level,
    which makes the lift sound.
    """
    current = set(matching)
    for edge_a, edge_b, before, after in reversed(records):
        if before in current:
            if after in current:
                raise InvariantError(
                    "both contraction lift candidates blocked; invalid input matching"
                )
            current.add(edge_b)
        elif after in current:
            current.add(edge_a)
        else:
            current.add(min(edge_a, edge_b))
    return frozenset(current)


def _side(blocks: Sequence[_Block], source: int) -> frozenset[int]:
    return frozenset(e for b in blocks for e in b.edges[source ^ b.first :: 2])


def _side_profile(blocks: Sequence[_Block], source: int) -> tuple[int, int]:
    red = blue = 0
    for b in blocks:
        colors = b.colors[source ^ b.first :: 2]
        red += colors.count(RED)
        blue += colors.count(BLUE)
    return red, blue


def _case_glue(
    even: list[_Block], aug0: list[_Block], aug1: list[_Block], kr: int, kb: int
) -> frozenset[int]:
    """Glue every block into one even cycle, solve, strip dummies, repair.

    Layout: the cycles and even paths, which the caller has oriented, by
    smallest edge id; the odd paths in (aug1, aug0) pairs by the pair's
    smallest edge id; each leftover aug1 path followed by a dummy yellow
    edge.  Matching-0 edges land on even positions.  An opened cycle's ends
    share a vertex, and in a proper block they differ in color: if the
    selector takes both, the end edge goes when the start edge is red or the
    end edge blue, else the start edge.
    """
    if len(aug0) > len(aug1):
        raise InvariantError("more paths augment the larger matching than the smaller")
    pairs = sorted(zip(aug1, aug0), key=lambda p: min(p[0].min_edge, p[1].min_edge))
    pieces = [(b, False) for b in sorted(even, key=lambda b: b.min_edge)]
    pieces += [(b, False) for pair in pairs for b in pair]
    pieces += [(b, True) for b in aug1[len(aug0):]]

    colors: list[str] = []
    edge_map: list[int | None] = []
    opened: list[tuple[int, int]] = []  # (start, end) positions of a cycle
    for block, padded in pieces:
        if len(colors) % 2 != block.first:
            raise InvariantError("first-matching edges must land on even glued positions")
        if block.is_cycle:
            opened.append((len(colors), len(colors) + len(block) - 1))
        colors += block.colors
        edge_map += block.edges
        if padded:
            colors.append(YELLOW)
            edge_map.append(None)
    if len(colors) % 2 != 0:
        raise InvariantError("glued cycle has odd length")

    chosen = set(solve_even_cycle(colors, kr, kb))
    conflicts = [(s, e) for s, e in opened if s in chosen and e in chosen]
    if len(conflicts) > 1:
        raise InvariantError("two opened cycles conflict; contradiction with parity")
    if conflicts:
        [(start, end)] = conflicts
        if colors[start] == colors[end]:
            raise InvariantError("conflicting edges share a color in a proper component")
        chosen.discard(end if colors[start] == RED or colors[end] == BLUE else start)
    return frozenset(edge_map[p] for p in chosen if edge_map[p] is not None)


def _solve_blocks(
    blocks: list[_Block],
    kr: int,
    kb: int,
    records: list[_Record],
) -> frozenset[int]:
    """Matching of the contracted blocks with exactly kr red and kb or kb - 1
    blue edges: a side at its profile, the selector on a single block, the
    glue case with slack, else the odd paths joined in pairs and solved
    again, else one component peeled off, the half of it that keeps the
    requirement on the rest's segment taken, and the rest solved."""
    even, aug0, aug1 = _classify(blocks)
    p0, p1 = _side_profile(blocks, 0), _side_profile(blocks, 1)
    if not on_segment((kr, kb), p0, p1):
        raise InvariantError(f"requirement {(kr, kb)} left the segment {p0}..{p1}")
    if (kr, kb) == p0:
        return _side(blocks, 0)
    if (kr, kb) == p1:
        return _side(blocks, 1)
    if len(blocks) == 1:
        # a path is solved as the cycle that closes it, so no kind is needed
        block = blocks[0]
        positions = solve_path_or_cycle(block.colors, kr, kb)
        return frozenset(block.edges[p] for p in positions)
    for b in even:
        _orient_start_source0(b)
    # the sides differ in size exactly when the two kinds of odd path differ
    # in number
    if len(aug0) != len(aug1) or any(YELLOW in b.colors for b in blocks):
        return _case_glue(even, aug0, aug1, kr, kb)
    if aug0:
        # a joined path starts in matching 0 and has even length, so every
        # block the next call sees is oriented before its one-block solve
        for b1, b0 in zip(aug1, aug0):
            joined = _Block(
                edges=b1.edges + b0.edges,
                colors=b1.colors + b0.colors,
                first=b1.first,
                is_cycle=False,
            )
            dr, db = _contract_block(joined, records)
            kr -= dr
            kb -= db
            if len(joined):
                even.append(joined)
        return _solve_blocks(even, kr, kb, records)

    # every block is red-blue and proper: peel one whose matching-0 edges
    # are red exactly when the red count grows toward side 1
    red_first = p1[0] > p0[0]
    candidates = [b for b in blocks if (b.colors[b.first] == RED) == red_first]
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
            return _side([chosen], source) | _solve_blocks(rest, *k, records)
    raise InvariantError("neither half of the chosen component keeps the segment")
