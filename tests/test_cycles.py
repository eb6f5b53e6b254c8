from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from rbymatch.curve import all_intersecting_pairs, imbalance_curve, on_open_segment
from rbymatch.cycles import (
    on_segment,
    segment_integer_points,
    solve_even_cycle,
    solve_fractional,
    solve_path_or_cycle,
)
from rbymatch.errors import InvariantError
from rbymatch.graph import (
    RED,
    YELLOW,
    CycleOrPath,
    color_profile,
    cycle_graph,
    even_cycle_from_string,
    path_from_string,
    profile_of_colors,
)
from rbymatch.oracle import exact_optimum

FIG1 = "RBYBRBYB"
FIG3 = "YBYBYRYRYBRBYRBRBR"
FIG5 = "YBYBYRYRYR"
TIGHT_PATH = "BRYRYBYBYRYRB"


# The paper's constructive good-path lemma: a path of the cycle whose
# imbalance equals the requirement offset yields a quasi-matching with the
# requirement's profile, and dropping one of its two colliding edges a
# near-perfect matching.  The selector in cycles.py scans those matchings
# directly; these build them from the imbalance curve, as the paper does.
class GoodPath(NamedTuple):
    v: int
    u: int


def is_proper_cycle(comp: CycleOrPath) -> bool:
    n = len(comp)
    return all(comp.colors[i] != comp.colors[(i + 1) % n] for i in range(n))


def find_good_path(colors: str, k_red: int, k_blue: int) -> GoodPath:
    """Even-start path indices (v, u) whose imbalance equals the requirement
    offset; edges 2v..2u-1 of the cycle, taken modulo its length."""
    comp = even_cycle_from_string(colors)
    if not is_proper_cycle(comp):
        raise ValueError("good-path search requires a proper coloring")
    p0 = comp.even_profile().rb
    p1 = comp.odd_profile().rb
    if not on_open_segment((k_red, k_blue), p0, p1):
        raise ValueError("requirement must lie strictly between the endpoint profiles")
    q = (k_red - p0[0], k_blue - p0[1])
    poly = imbalance_curve(comp)
    pairs = all_intersecting_pairs(poly, q)
    if not pairs:
        raise InvariantError("no good path exists; falsifies the intersecting-pair guarantee")
    u, v = pairs[0]
    ell = poly.period_length
    if v >= ell:
        u, v = u - ell, v - ell
    return GoodPath(v=v, u=u)


def quasi_matching_from_good_path(
    colors: str, v: int, u: int, k_red: int, k_blue: int
) -> tuple[frozenset[int], frozenset[int]]:
    """The odd-in/even-out quasi-matching of a good path and its repaired matching.

    The quasi-matching takes the odd edges inside the path and the even edges
    outside it: one adjacent pair (2u-1, 2u) remains, and dropping whichever
    member is not red (preferring yellow, which keeps the blue count exact)
    yields a matching with exactly k_red red and k_blue or k_blue - 1 blue
    edges, exposing two nodes.
    """
    comp = even_cycle_from_string(colors)
    n = len(comp)
    ell = n // 2
    if not (0 <= v < ell and v < u < v + ell):
        raise ValueError("(v, u) must satisfy 0 <= v < ell and v < u < v + ell")
    path = [(2 * v + i) % n for i in range(2 * (u - v))]
    odd_in = path[1::2]
    delta = _imbalance(comp, path)
    q = (k_red - comp.even_profile().red, k_blue - comp.even_profile().blue)
    if delta != q:
        raise ValueError(f"path imbalance {delta} does not match requirement offset {q}")
    outside = set(range(n)) - set(path)
    even_out = [p for p in outside if p % 2 == 0]
    quasi = frozenset(odd_in) | frozenset(even_out)
    if len(quasi) != ell:
        raise InvariantError("quasi-matching must have exactly half the edges")
    last_in = (2 * u - 1) % n
    first_out = (2 * u) % n
    non_red = [p for p in (last_in, first_out) if colors[p] != RED]
    if not non_red:
        raise ValueError("both boundary edges red; the coloring is not proper")
    yellow = [p for p in non_red if colors[p] == YELLOW]
    drop = yellow[0] if yellow else non_red[0]
    return quasi, quasi - {drop}


def _imbalance(comp: CycleOrPath, path_positions: list[int]) -> tuple[int, int]:
    odd = profile_of_colors(comp.colors[p] for p in path_positions[1::2])
    even = profile_of_colors(comp.colors[p] for p in path_positions[0::2])
    return (odd.red - even.red, odd.blue - even.blue)


def _check(colors: str, positions, size_min: int, rb):
    comp = even_cycle_from_string(colors)
    assert len(positions) >= size_min
    # no two cyclically adjacent positions
    n = len(colors)
    for p in positions:
        assert (p + 1) % n not in positions
    assert comp.profile_of(positions).rb == rb


def _even_edges(comp: CycleOrPath) -> frozenset[int]:
    return frozenset(range(0, len(comp), 2))


def _odd_edges(comp: CycleOrPath) -> frozenset[int]:
    return frozenset(range(1, len(comp), 2))


def near_perfect_matchings(n: int):
    """Reference: all matchings of a length-n cycle exposing exactly two
    vertices, as (a, b, positions), ordered by the exposed pair (a, b)."""
    for a in range(n):
        for b in range(a + 1, n):
            if (b - a) % 2 == 0:
                continue
            positions = []
            pos = (a + 1) % n
            while pos != b:
                positions.append(pos)
                pos = (pos + 2) % n
            pos = (b + 1) % n
            while pos != a:
                positions.append(pos)
                pos = (pos + 2) % n
            yield (a, b, frozenset(positions))


def _scan_even_cycle(colors: str, k_red: int, k_blue: int):
    """Reference selector: endpoints, else the first near-perfect matching
    with profile (k_red, k_blue), or one blue short without yellow."""
    comp = even_cycle_from_string(colors)
    if (k_red, k_blue) == comp.even_profile().rb:
        return _even_edges(comp)
    if (k_red, k_blue) == comp.odd_profile().rb:
        return _odd_edges(comp)
    target = (k_red, k_blue) if "Y" in colors else (k_red, k_blue - 1)
    for _, _, positions in near_perfect_matchings(len(colors)):
        if comp.profile_of(positions).rb == target:
            return positions
    return None


def _scan_fractional(colors: str, k_red: int, k_blue: Fraction):
    """Reference for a half-blue point: the even edges, the odd edges, then
    the near-perfect matchings, first with ceil(k_blue) or one fewer blue."""
    comp = even_cycle_from_string(colors)
    ceil_blue = -((-k_blue.numerator) // k_blue.denominator)
    targets = {(k_red, ceil_blue), (k_red, ceil_blue - 1)}
    candidates = [_even_edges(comp), _odd_edges(comp)]
    candidates += [pos for _, _, pos in near_perfect_matchings(len(colors))]
    return next((pos for pos in candidates if comp.profile_of(pos).rb in targets), None)


def test_near_perfect_count():
    for ell in (2, 3, 5, 8):
        ms = list(near_perfect_matchings(2 * ell))
        assert len(ms) == ell * ell
        for a, b, pos in ms:
            assert len(pos) == ell - 1
            assert (b - a) % 2 == 1


def test_solve_even_cycle_fig1():
    got = solve_even_cycle(FIG1, 1, 2)
    _check(FIG1, got, 3, (1, 2))


def test_solve_even_cycle_fig3():
    got = solve_even_cycle(FIG3, 3, 3)
    _check(FIG3, got, 8, (3, 3))


def test_solve_even_cycle_endpoints():
    comp = even_cycle_from_string(FIG1)
    p0 = comp.even_profile().rb
    assert solve_even_cycle(FIG1, *p0) == _even_edges(comp)
    p1 = comp.odd_profile().rb
    assert solve_even_cycle(FIG1, *p1) == _odd_edges(comp)


def test_solve_even_cycle_no_yellow_drops_one_blue():
    got = solve_even_cycle("RBRB", 1, 1)
    _check("RBRB", got, 1, (1, 0))


def test_solve_even_cycle_rejects_off_segment():
    with pytest.raises(ValueError):
        solve_even_cycle(FIG1, 2, 1)


def test_solve_path_tightness_instance():
    comp = path_from_string(TIGHT_PATH)
    got = solve_path_or_cycle(comp, 3, 2)
    prof = profile_of_colors(TIGHT_PATH[p] for p in got)
    assert prof.red == 3 and prof.blue in (1, 2)
    assert len(got) >= 5


def test_solve_path_even_path_trivial():
    got = solve_path_or_cycle(path_from_string("RB"), 1, 0)
    assert got == frozenset({0})


def test_solve_path_delegates_even_cycle():
    comp = even_cycle_from_string(FIG1)
    got = solve_path_or_cycle(comp, 1, 2)
    _check(FIG1, got, 3, (1, 2))


def test_solve_fractional_fig5():
    got = solve_fractional(even_cycle_from_string(FIG5), 1, Fraction(2, 3))
    comp = even_cycle_from_string(FIG5)
    assert len(got) >= 4
    assert comp.profile_of(got).rb in {(1, 0), (1, 1)}


def test_solve_fractional_integral_delegates():
    got = solve_fractional(even_cycle_from_string(FIG1), 1, Fraction(2))
    _check(FIG1, got, 3, (1, 2))


def test_solve_fractional_endpoint():
    comp = even_cycle_from_string(FIG1)
    p0 = comp.even_profile().rb
    assert solve_fractional(comp, p0[0], Fraction(p0[1])) == _even_edges(comp)


def _half_blue_points(p0, p1):
    lo, hi = sorted((p0, p1))
    out = []
    for r in range(lo[0], hi[0] + 1):
        for twice_blue in range(2 * min(lo[1], hi[1]) + 1, 2 * max(lo[1], hi[1]), 2):
            if on_segment((r, Fraction(twice_blue, 2)), p0, p1):
                out.append((r, Fraction(twice_blue, 2)))
    return out


def test_selectors_return_the_scan_first_hit():
    rng = random.Random(2024)
    for alphabet in ("RBY", "RB", "RY", "BY", "RBYY"):
        for _ in range(40):
            ell = rng.randrange(1, 31)
            colors = "".join(rng.choice(alphabet) for _ in range(2 * ell))
            comp = even_cycle_from_string(colors)
            p0, p1 = comp.even_profile().rb, comp.odd_profile().rb
            for kr, kb in segment_integer_points(p0, p1):
                assert solve_even_cycle(colors, kr, kb) == _scan_even_cycle(colors, kr, kb)
            for kr, kb in _half_blue_points(p0, p1):
                assert solve_fractional(comp, kr, kb) == _scan_fractional(colors, kr, kb)
    for alphabet in ("RBY", "RB", "RY"):
        for _ in range(40):
            path = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 31)))
            # the reference solves the cycle on the path's colors, an odd path
            # closed by a dummy yellow edge that the answer leaves out
            closed, dummy = (path + "Y", {len(path)}) if len(path) % 2 else (path, set())
            comp = even_cycle_from_string(closed)
            p0, p1 = comp.even_profile().rb, comp.odd_profile().rb
            for kr, kb in segment_integer_points(p0, p1):
                want = _scan_even_cycle(closed, kr, kb) - dummy
                assert solve_path_or_cycle(path, kr, kb) == want
                assert solve_fractional(path, kr, Fraction(kb)) == want
            for kr, kb in _half_blue_points(p0, p1):
                assert solve_fractional(path, kr, kb) == _scan_fractional(closed, kr, kb) - dummy


def test_selectors_read_str_list_and_cycle_or_path_alike():
    # the same colors as a str, a list and a CycleOrPath: every selector
    # that takes the shape returns the same positions for all three
    rng = random.Random(28)
    for _ in range(400):
        colors = "".join(rng.choice("RBY") for _ in range(rng.randrange(1, 41)))
        is_cycle = len(colors) % 2 == 0 and rng.randrange(2) == 1
        comp = (even_cycle_from_string if is_cycle else path_from_string)(colors)
        closed = even_cycle_from_string(colors + "Y" * (len(colors) % 2))
        p0, p1 = closed.even_profile().rb, closed.odd_profile().rb
        requests = segment_integer_points(p0, p1) + _half_blue_points(p0, p1)
        for kr, kb in rng.sample(requests, min(4, len(requests))):
            selectors = [solve_fractional]
            if kb == int(kb):
                selectors.append(solve_path_or_cycle)
                if is_cycle:
                    selectors.append(solve_even_cycle)
            for select in selectors:
                got = [select(c, kr, kb) for c in (colors, list(colors), comp)]
                assert got[0] == got[1] == got[2], (select.__name__, colors, kr, kb)


ODD_CYCLE = "a cycle needs an even number of edges, at least 2"


@pytest.mark.parametrize("as_list", [False, True])
@pytest.mark.parametrize(
    "select, colors, message",
    [
        (solve_even_cycle, "RBQB", "unknown color 'Q'"),
        (solve_even_cycle, "RBR", ODD_CYCLE),
        (solve_even_cycle, "RQB", ODD_CYCLE),  # the length is checked first
        (solve_even_cycle, "", ODD_CYCLE),
        (solve_path_or_cycle, "RBQB", "unknown color 'Q'"),
        (solve_path_or_cycle, "RQB", "unknown color 'Q'"),  # an odd path is closed
        (solve_path_or_cycle, "rb", "unknown color 'r'"),
        (solve_path_or_cycle, "", ODD_CYCLE),
        (solve_fractional, "RBRBQ", "unknown color 'Q'"),
        (solve_fractional, "", ODD_CYCLE),
    ],
)
def test_selectors_reject_bad_colors_with_the_cycle_or_path_message(
    select, colors, message, as_list
):
    # the messages CycleOrPath raises for the same colors
    with pytest.raises(ValueError, match=f"^{message}$"):
        select(list(colors) if as_list else colors, 0, Fraction(1, 2))


@pytest.mark.parametrize("colors", ["RB", "RBR"])
def test_solve_even_cycle_rejects_a_path(colors):
    with pytest.raises(ValueError, match="^expected an even cycle$"):
        solve_even_cycle(path_from_string(colors), 0, 0)


def test_find_good_path_fig3():
    gp = find_good_path(FIG3, 3, 3)
    assert 0 <= gp.v < 9 and gp.v < gp.u < gp.v + 9
    # (2,5) and (3,8) are good; the scan returns the minimal (v,u)
    assert gp == (1, 4)


def test_find_good_path_rbrb():
    assert find_good_path("RBRB", 1, 1) == (0, 1)


def test_quasi_matching_fig3():
    quasi, matching = quasi_matching_from_good_path(FIG3, 2, 5, 3, 3)
    assert quasi == frozenset({5, 7, 9}) | frozenset({10, 12, 14, 16, 0, 2})
    comp = even_cycle_from_string(FIG3)
    assert comp.profile_of(quasi).rb == (3, 3)
    assert matching == quasi - {9}
    assert comp.profile_of(matching).rb == (3, 2)
    assert len(matching) == 8


def test_quasi_matching_rbrb():
    quasi, matching = quasi_matching_from_good_path("RBRB", 0, 1, 1, 1)
    assert quasi == frozenset({1, 2})
    assert matching == frozenset({2})


def test_quasi_matching_rejects_bad_path():
    with pytest.raises(ValueError):
        quasi_matching_from_good_path(FIG3, 0, 3, 3, 3)


def test_quasi_matching_profile_identity_random():
    rng = random.Random(31)
    done = 0
    while done < 300:
        ell = rng.randrange(2, 9)
        colors = "".join(rng.choice("RBY") for _ in range(2 * ell))
        comp = even_cycle_from_string(colors)
        if not is_proper_cycle(comp):
            continue
        p0, p1 = comp.even_profile().rb, comp.odd_profile().rb
        pts = [p for p in segment_integer_points(p0, p1) if p not in (p0, p1)]
        if not pts:
            continue
        kr, kb = pts[rng.randrange(len(pts))]
        gp = find_good_path(colors, kr, kb)
        quasi, matching = quasi_matching_from_good_path(colors, gp.v, gp.u, kr, kb)
        assert comp.profile_of(quasi).rb == (kr, kb)
        prof = comp.profile_of(matching)
        assert prof.red == kr and prof.blue in (kb - 1, kb)
        assert len(matching) == ell - 1
        g = cycle_graph(colors)
        assert color_profile(g, matching)  # validates
        done += 1


def test_cycle_selection_matches_oracle_reachability():
    # wherever the solver claims a profile, the oracle agrees it is optimal-size
    rng = random.Random(13)
    for _ in range(60):
        ell = rng.randrange(2, 7)
        colors = "".join(rng.choice("RBY") for _ in range(2 * ell))
        comp = even_cycle_from_string(colors)
        p0, p1 = comp.even_profile().rb, comp.odd_profile().rb
        for kr, kb in segment_integer_points(p0, p1):
            got = solve_even_cycle(colors, kr, kb)
            prof = comp.profile_of(got)
            g = cycle_graph(colors)
            oracle_m = exact_optimum(g, prof.red, prof.blue)
            assert oracle_m is not None
            assert len(oracle_m) >= len(got)


def test_tightness_holds_on_all_three_variants():
    # odd path, even path with a trailing yellow, and the closed cycle all
    # have maximum conforming size exactly |M1| - 1 under (3, 2)
    from rbymatch.graph import path_graph

    g_odd = path_graph(TIGHT_PATH)
    assert max(len(exact_optimum(g_odd, kr, kb) or ()) for kr, kb in [(3, 2), (3, 1)]) == 5
    got = solve_path_or_cycle(path_from_string(TIGHT_PATH), 3, 2)
    assert len(got) == 5

    even = TIGHT_PATH + "Y"
    g_even = path_graph(even)
    assert max(len(exact_optimum(g_even, kr, kb) or ()) for kr, kb in [(3, 2), (3, 1)]) == 6
    got = solve_path_or_cycle(path_from_string(even), 3, 2)
    assert len(got) == 6
    assert color_profile(g_even, got).red == 3

    g_cyc = cycle_graph(even)
    assert max(len(exact_optimum(g_cyc, kr, kb) or ()) for kr, kb in [(3, 2), (3, 1)]) == 6
    got = solve_path_or_cycle(even_cycle_from_string(even), 3, 2)
    assert len(got) == 6


def test_find_good_path_fig3_all_listed_paths_are_good():
    # (2,5) and (3,8) both satisfy the good-path identity
    for v, u in ((2, 5), (3, 8)):
        quasi, _ = quasi_matching_from_good_path(FIG3, v, u, 3, 3)
        comp = even_cycle_from_string(FIG3)
        assert comp.profile_of(quasi).rb == (3, 3)


def test_no_yellow_alternating_construction_matches():
    # red-blue alternating proper cycles: first k_red evens plus compatible blues
    for ell in (2, 3, 4, 5):
        colors = "RB" * ell
        comp = even_cycle_from_string(colors)
        for kr in range(1, ell):
            kb = ell - kr
            got = solve_even_cycle(colors, kr, kb)
            prof = comp.profile_of(got)
            assert prof.rb == (kr, kb - 1)
            assert len(got) == ell - 1
