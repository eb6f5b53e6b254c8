"""Matchings with an exact red count and a near-exact blue count.

Given a graph whose edges are colored red, blue, or yellow and a requirement
(k_red, k_blue), the solver finds a matching with exactly k_red red edges,
k_blue or k_blue - 1 blue edges, and size at least floor(opt) - 3, where opt
is the optimum of the color-constrained matching LP over the matching
polytope.  A brute-force oracle, an exact integer LP layer, and the lattice
curve machinery of the crossing certificates are exposed as submodules; the
cycle solvers take only the curve module's segment test.
"""

from .driver import SolveReport, solve, verify
from .errors import (
    CapExceededError,
    CrossingNotFoundError,
    InvariantError,
    ParseError,
    RbyMatchError,
)
from .graph import (
    ColoredGraph,
    ColorProfile,
    CycleOrPath,
    Edge,
    color_profile,
    cycle_graph,
    path_graph,
    validate_matching,
    walk_symdiff,
)
from .instances import GenSpec, generate_instance, parse_instance, serialize_instance
from .oracle import OracleCap, enumerate_matchings, exact_optimum, max_matching_size

__all__ = [
    "CapExceededError",
    "ColorProfile",
    "ColoredGraph",
    "CrossingNotFoundError",
    "CycleOrPath",
    "Edge",
    "GenSpec",
    "InvariantError",
    "OracleCap",
    "ParseError",
    "RbyMatchError",
    "SolveReport",
    "color_profile",
    "cycle_graph",
    "enumerate_matchings",
    "exact_optimum",
    "generate_instance",
    "max_matching_size",
    "parse_instance",
    "path_graph",
    "serialize_instance",
    "solve",
    "validate_matching",
    "verify",
    "walk_symdiff",
]

__version__ = "0.1.0"
