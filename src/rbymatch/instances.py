"""Instance file format and the seeded instance generator.

The format is line oriented and diff friendly: ``#`` comments, a ``graph N``
header followed by ``e u v C`` edge lines (or the ``cycle STRING`` shorthand),
and one ``require kR kB`` line.  Generation uses integer-only arithmetic on a
seeded Mersenne Twister, so identical generator specs produce byte-identical
instances on every platform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cycles import segment_integer_points
from .errors import ParseError
from .graph import COLORS, ColoredGraph, color_profile, cycle_graph
from .oracle import OracleCap, DEFAULT_CAP, check_cap, check_size, enumerate_matchings

Instance = tuple[ColoredGraph, int, int]


def decimal_integer(text: str) -> int | None:
    """The value of ``text`` if it is an optional ``-`` and ``str.isdecimal``
    digits, else None; ``int`` alone also reads a ``+`` sign and ``_``
    between digits."""
    return int(text) if text.removeprefix("-").isdecimal() else None


def parse_instance(text: str) -> Instance:
    """Parse an instance file into (graph, k_red, k_blue).

    Raises CapExceededError as soon as a header names more vertices, or an
    edge line goes past more edges, than the default oracle cap allows, so
    no over-cap graph is built.
    """
    vertex_count: int | None = None
    cycle_colors: str | None = None
    edges: list[tuple[int, int, str]] = []
    require: tuple[int, int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "graph":
            if vertex_count is not None or cycle_colors is not None:
                raise ParseError("duplicate graph header", lineno)
            if len(parts) != 2 or not parts[1].isdecimal():
                raise ParseError("expected: graph <vertex_count>", lineno)
            vertex_count = int(parts[1])
            check_size(vertex_count, 0)
        elif kind == "cycle":
            if vertex_count is not None or cycle_colors is not None:
                raise ParseError("duplicate graph header", lineno)
            if len(parts) != 2:
                raise ParseError("expected: cycle <COLORS>", lineno)
            colors = parts[1].upper()
            bad = [c for c in colors if c not in COLORS]
            if bad:
                raise ParseError(f"unknown color letter {bad[0]!r}", lineno)
            if len(colors) < 2:
                raise ParseError("cycle needs at least 2 edges", lineno)
            check_size(len(colors), len(colors))
            cycle_colors = colors
        elif kind == "e":
            if cycle_colors is not None:
                raise ParseError("a cycle instance takes no edge lines", lineno)
            if vertex_count is None:
                raise ParseError("edge line before graph header", lineno)
            check_size(vertex_count, len(edges) + 1)
            if len(parts) != 4:
                raise ParseError("expected: e <u> <v> <COLOR>", lineno)
            u, v = decimal_integer(parts[1]), decimal_integer(parts[2])
            if u is None or v is None:
                raise ParseError("edge endpoints must be integers", lineno)
            color = parts[3].upper()
            if color not in COLORS:
                raise ParseError(f"unknown color letter {parts[3]!r}", lineno)
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ParseError("vertex id out of range", lineno)
            if u == v:
                raise ParseError("self-loops are not allowed", lineno)
            edges.append((u, v, color))
        elif kind == "require":
            if require is not None:
                raise ParseError("duplicate require line", lineno)
            if len(parts) != 3:
                raise ParseError("expected: require <kR> <kB>", lineno)
            kr, kb = decimal_integer(parts[1]), decimal_integer(parts[2])
            if kr is None or kb is None:
                raise ParseError("requirements must be integers", lineno)
            if kr < 0 or kb < 0:
                raise ParseError("requirements must be nonnegative", lineno)
            require = (kr, kb)
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno)
    if require is None:
        raise ParseError("missing require line")
    if cycle_colors is not None:
        return (cycle_graph(cycle_colors), *require)
    if vertex_count is None:
        raise ParseError("missing graph header")
    return (ColoredGraph(vertex_count, edges), *require)


def serialize_instance(graph: ColoredGraph, k_red: int, k_blue: int) -> str:
    lines = [f"graph {graph.vertex_count}"]
    for e in graph.edges:
        lines.append(f"e {e.u} {e.v} {e.color}")
    lines.append(f"require {k_red} {k_blue}")
    return "\n".join(lines) + "\n"


RANDOM_GRAPH = "random_graph"
RANDOM_CYCLE = "random_cycle"
FEASIBLE_PROFILE = "feasible_profile"
MODES = (RANDOM_GRAPH, RANDOM_CYCLE, FEASIBLE_PROFILE)


@dataclass(frozen=True)
class GenSpec:
    mode: str
    vertex_count: int
    edge_density: Fraction = Fraction(1, 4)
    color_weights: tuple[Fraction, Fraction, Fraction] = (
        Fraction(1),
        Fraction(1),
        Fraction(1),
    )
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        if not (0 <= self.edge_density <= 1):
            raise ValueError("edge_density must be within [0, 1]")
        if any(w < 0 for w in self.color_weights) or not any(self.color_weights):
            raise ValueError("color weights must be nonnegative, not all zero")


def _color_picker(rng: random.Random, weights):
    denom = 1
    for w in weights:
        denom *= Fraction(w).denominator
    ints = [int(Fraction(w) * denom) for w in weights]
    total = sum(ints)

    def pick() -> str:
        r = rng.randrange(total)
        acc = 0
        for c, w in zip("RBY", ints):
            acc += w
            if r < acc:
                return c
        raise AssertionError("unreachable")

    return pick


def generate_instance(spec: GenSpec, cap: OracleCap = DEFAULT_CAP) -> str:
    """Deterministic instance text for a generator spec.

    Raises CapExceededError before drawing anything if the instance would
    have more vertices than the cap allows; a cycle has the spec's vertex
    count rounded down to even, and at least 2.  A graph drawn with more
    edges than the cap allows raises it too, so no mode writes an instance
    that `parse_instance` rejects.
    """
    n = spec.vertex_count
    if spec.mode == RANDOM_CYCLE:
        n = max(2 * (n // 2), 2)
    check_size(n, 0, cap)
    rng = random.Random(spec.seed)
    pick = _color_picker(rng, spec.color_weights)
    density = Fraction(spec.edge_density)

    if spec.mode == RANDOM_CYCLE:
        colors = "".join(pick() for _ in range(n))
        g = cycle_graph(colors)
        even = color_profile(g, range(0, n, 2))
        odd = color_profile(g, range(1, n, 2))
        points = segment_integer_points(even.rb, odd.rb)
        kr, kb = points[rng.randrange(len(points))]
        lines = [f"cycle {colors}", f"require {kr} {kb}"]
        return "\n".join(lines) + "\n"

    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.randrange(density.denominator) < density.numerator:
                edges.append((u, v, pick()))
    g = ColoredGraph(n, edges)
    check_cap(g, cap)

    if spec.mode == FEASIBLE_PROFILE:
        matchings = list(enumerate_matchings(g, cap=cap))
        chosen = matchings[rng.randrange(len(matchings))]
        prof = color_profile(g, chosen)
        kr, kb = prof.red, prof.blue
    else:
        counts = g.color_counts()
        kr = rng.randrange(counts.red + 1)
        kb = rng.randrange(counts.blue + 1)
    return serialize_instance(g, kr, kb)
