"""Matching selection on colored paths and even cycles.

Given an even cycle whose perfect matchings are its even and odd edges, any
integer requirement point on the segment between their color profiles is met
(exactly when a yellow edge exists, give or take one blue edge otherwise) by
a matching that exposes at most two nodes.  Such a near-perfect matching is
fixed by its exposed pair, so one selector (_near_perfect) scans the pairs in
order, reads each candidate's red and blue counts from prefix counts in O(1),
and builds only the first that fits.  One core (_select) checks the segment,
tries the two endpoints and then runs that scan; the integer and the
fractional solvers differ only in the profiles they pass it.

The near-perfect matchings are exactly the paper's good-path quasi-matchings
minus one of their two colliding edges, so the scan needs no imbalance
curve; the tests build the paper's constructive good-path lemma on it and
check it against the paper's figures.

Paths reduce to cycles (_closed): an even path identifies its extremes, an
odd path gains one dummy yellow edge which is stripped from the answer.

The core works on a tuple of colors.  A CycleOrPath input was checked when
it was built; a str, list or tuple input is checked once by graph's
check_colors, the check CycleOrPath itself runs, so every input kind raises
the same ValueError and none is wrapped in a CycleOrPath first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .curve import on_segment
from .errors import InvariantError
from .graph import BLUE, RED, YELLOW, CycleOrPath, check_colors


def _as_cycle(cycle: CycleOrPath | str | Iterable[str]) -> tuple[str, ...]:
    """The colors of an even cycle, checked as CycleOrPath checks them."""
    if isinstance(cycle, CycleOrPath):
        if not cycle.is_cycle:
            raise ValueError("expected an even cycle")
        return cycle.colors
    colors = tuple(cycle)
    check_colors(colors, True)
    return colors


def _near_perfect(
    colors: tuple[str, ...], targets: set[tuple[int, int]]
) -> frozenset[int] | None:
    """First near-perfect matching whose (red, blue) profile is in targets.

    Candidates are ordered by their exposed pair (a, b), a < b, b - a odd.
    Exposing a and b leaves the edges a+1, a+3, ..., b-1 and b+1, b+3, ...,
    a+n-2 (mod n): two same-parity runs, so each candidate's counts are
    differences of per-parity prefix counts over two laps of the cycle, and
    only the winning matching is built.  None if no candidate qualifies.
    """
    n = len(colors)
    # red[i]: red positions j < i of i's parity, counted over two laps
    red = [0, 0]
    blue = [0, 0]
    for i in range(2 * n):
        c = colors[i % n]
        red.append(red[i] + (c == RED))
        blue.append(blue[i] + (c == BLUE))
    for a in range(n):
        for b in range(a + 1, n, 2):
            r = red[b] - red[a + 1] + red[a + n] - red[b + 1]
            bl = blue[b] - blue[a + 1] + blue[a + n] - blue[b + 1]
            if (r, bl) in targets:
                return frozenset(range(a + 1, b, 2)) | frozenset(
                    p % n for p in range(b + 1, a + n, 2)
                )
    return None


def _select(
    colors: tuple[str, ...], k, ends: set[tuple[int, int]], near: set[tuple[int, int]]
) -> frozenset[int]:
    """The selection steps every solver shares, on an even cycle's colors.

    Checks that k lies on the segment between the even and odd profiles, then
    returns the even edges if their profile is in ends, else the odd edges if
    theirs is, else the first near-perfect matching with a profile in near.
    """
    even, odd = colors[0::2], colors[1::2]
    p0 = (even.count(RED), even.count(BLUE))
    p1 = (odd.count(RED), odd.count(BLUE))
    if not on_segment(k, p0, p1):
        # str, not repr: a fractional blue count reads 1/2
        raise ValueError(f"requirement ({k[0]}, {k[1]}) is not on the segment {p0}..{p1}")
    if p0 in ends:
        return frozenset(range(0, len(colors), 2))
    if p1 in ends:
        return frozenset(range(1, len(colors), 2))
    positions = _near_perfect(colors, near)
    if positions is None:
        raise InvariantError(
            f"no near-perfect matching with profile in {sorted(near)} exists; "
            "this falsifies the selection guarantee"
        )
    return positions


def _closed(
    comp: CycleOrPath | str | Iterable[str],
) -> tuple[tuple[str, ...], int | None]:
    """The colors of the even cycle a path, cycle or color string is solved
    as, and the position of the dummy yellow edge that closes an odd path
    (else None)."""
    if isinstance(comp, CycleOrPath):
        if comp.is_cycle:
            return comp.colors, None
        colors = comp.colors
    else:
        colors = tuple(comp)
        # an odd string is closed below, so only the colors are checked
        check_colors(colors, len(colors) % 2 == 0)
    if len(colors) % 2 == 0:
        return colors, None
    return colors + (YELLOW,), len(colors)


def solve_even_cycle(
    cycle: CycleOrPath | str | Iterable[str], k_red: int, k_blue: int
) -> frozenset[int]:
    """Matching positions meeting the requirement point on an even cycle.

    Endpoint requirements return the even or odd edges.  Interior points are
    met exactly when the cycle has a yellow edge and with one blue edge short
    otherwise, by the first near-perfect matching (see _near_perfect) with
    that profile, so at most two nodes are exposed.
    """
    colors = _as_cycle(cycle)
    k = (k_red, k_blue)
    near = {k} if YELLOW in colors else {(k_red, k_blue - 1)}
    return _select(colors, k, {k}, near)


def solve_path_or_cycle(
    comp: CycleOrPath | str | Iterable[str], k_red: int, k_blue: int
) -> frozenset[int]:
    """Matching with exactly k_red red and k_blue or k_blue-1 blue edges.

    Input is a colored path or even cycle with the requirement point on the
    segment between the profiles of its even and odd edges; the result has at
    least one edge fewer than the smaller of those two matchings.
    """
    colors, dummy = _closed(comp)
    return solve_even_cycle(colors, k_red, k_blue) - {dummy}


def solve_fractional(
    comp: CycleOrPath | str | Iterable[str], k_red: int, k_blue
) -> frozenset[int]:
    """Requirement with integer red and possibly fractional blue component.

    Returns a matching with exactly k_red red edges and ceil(k_blue) or
    ceil(k_blue) - 1 blue edges, of size at least one below the smaller of
    the even/odd matchings: the even or the odd edges when their profile
    fits, else the first near-perfect matching (see _near_perfect) that does.
    Integral k_blue goes to solve_path_or_cycle.
    """
    k_blue = Fraction(k_blue)
    if k_blue.denominator == 1:
        return solve_path_or_cycle(comp, k_red, int(k_blue))
    colors, dummy = _closed(comp)
    ceil_blue = -((-k_blue.numerator) // k_blue.denominator)
    targets = {(k_red, ceil_blue), (k_red, ceil_blue - 1)}
    return _select(colors, (k_red, k_blue), targets, targets) - {dummy}


def segment_integer_points(p0, p1) -> list[tuple[int, int]]:
    """Integer points of the segment [p0, p1], endpoints included, in order."""
    from math import gcd

    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    if dx == 0 and dy == 0:
        return [tuple(p0)]
    g = gcd(abs(dx), abs(dy))
    return [(p0[0] + dx * k // g, p0[1] + dy * k // g) for k in range(g + 1)]
