from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbymatch.errors import CrossingNotFoundError
from rbymatch.curve import (
    MOVE_OF_PAIR,
    OVERLAP_OPPOSITE,
    OVERLAP_SAME,
    PAIR_OF_MOVE,
    SIMPLE,
    CrossingPair,
    LatticePolyline,
    PeriodicCurve,
    all_intersecting_pairs,
    check_injective,
    find_crossing_pair,
    find_intersecting_pair,
    imbalance_curve,
    on_open_segment,
    on_segment,
    periodic_eval,
    polyline_from_moves,
)

FIG3 = "YBYBYRYRYBRBYRBRBR"
FIG3_POINTS = (
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
# schematic overlapping crossings: same orientation, opposite orientation
OVERLAP_A_MOVES = [(0, 1), (0, 1), (1, 0), (1, 0), (0, 1), (1, 0), (1, -1)]
OVERLAP_B_MOVES = [(0, 1)] * 4 + [(1, 0)] * 2 + [(0, -1)] * 2 + [(1, 0)] * 2


def decode_moves(polyline: LatticePolyline) -> tuple[tuple[str, str], ...]:
    """The color pair behind each move."""
    return tuple(PAIR_OF_MOVE[m] for m in polyline.moves)


def test_table1_round_trip():
    for pair, move in MOVE_OF_PAIR.items():
        assert PAIR_OF_MOVE[move] == pair
    assert len(MOVE_OF_PAIR) == 6
    poly = polyline_from_moves(list(MOVE_OF_PAIR.values()))
    assert decode_moves(poly) == tuple(MOVE_OF_PAIR.keys())


def test_imbalance_curve_rbrb():
    p = imbalance_curve("RBRB")
    assert p.points == ((0, 0), (-1, 1), (-2, 2))


def test_imbalance_curve_fig3_golden():
    p = imbalance_curve(FIG3)
    assert p.points == FIG3_POINTS
    assert p.period_length == 9
    assert p.period_shift == (4, 2)


def test_imbalance_curve_rejects_same_color_pair():
    with pytest.raises(ValueError):
        imbalance_curve("RRBB")
    with pytest.raises(ValueError):
        imbalance_curve("RBY")  # odd length


def test_imbalance_curve_accepts_cross_pair_repeats():
    # the improper junction (B, B) sits between moves, which is legal here
    p = imbalance_curve("RBBR")
    assert p.points == ((0, 0), (-1, 1), (0, 0))
    assert p.period_shift == (0, 0)


def test_periodic_eval_in_base_period():
    p = imbalance_curve(FIG3)
    for t in range(10):
        assert periodic_eval(p, t) == FIG3_POINTS[t]
    assert periodic_eval(p, Fraction(1, 2)) == (0, Fraction(1, 2))


def test_periodic_eval_shifted_periods():
    p = imbalance_curve(FIG3)
    assert periodic_eval(p, 11) == (4, 4)
    assert periodic_eval(p, -9) == (-4, -2)


def test_periodic_eval_periodicity_property():
    rng = random.Random(2024)
    p = imbalance_curve(FIG3)
    dx, dy = p.period_shift
    for _ in range(1000):
        t = Fraction(rng.randrange(-4000, 4000), rng.randrange(1, 40))
        a = periodic_eval(p, t + p.period_length)
        b = periodic_eval(p, t)
        assert a == (b[0] + dx, b[1] + dy)


@given(
    st.lists(st.sampled_from(sorted(MOVE_OF_PAIR.values())), min_size=1, max_size=10),
    st.fractions(min_value=-50, max_value=50),
)
@settings(max_examples=120, deadline=None)
def test_periodicity_holds_for_any_move_polyline(moves, t):
    p = polyline_from_moves(moves)
    dx, dy = p.period_shift
    a = periodic_eval(p, t + p.period_length)
    b = periodic_eval(p, t)
    assert a == (b[0] + dx, b[1] + dy)


def _fraction_periodic_eval(polyline, t):
    """The Fraction formula periodic_eval replaced, kept as the reference."""
    t = Fraction(t)
    ell = polyline.period_length
    k = t // ell
    r = t - k * ell
    i = int(r)
    frac = r - i
    a = polyline.points[i]
    b = polyline.points[i + 1]
    base = (a[0] + frac * (b[0] - a[0]), a[1] + frac * (b[1] - a[1]))
    dx, dy = polyline.period_shift
    return (base[0] + k * dx, base[1] + k * dy)


def test_periodic_eval_matches_fraction_reference():
    # negative t and t several periods out, on every segment of each polyline
    rng = random.Random(1919)
    moves = sorted(MOVE_OF_PAIR.values())
    for ell in range(1, 16):
        for _ in range(3):
            p = polyline_from_moves(rng.choice(moves) for _ in range(ell))
            for den in (1, 2, 3, 4, 7):
                for num in range(-60, 60):
                    t = Fraction(num, den)
                    point = periodic_eval(p, t)
                    assert point == _fraction_periodic_eval(p, t), (p.points, t)
                    assert all(type(c) is Fraction for c in point)


def test_integrality_of_lattice_points():
    p = imbalance_curve(FIG3)
    rng = random.Random(6)
    for _ in range(300):
        num = rng.randrange(-300, 300)
        den = rng.randrange(1, 12)
        t = Fraction(num, den)
        x, y = periodic_eval(p, t)
        integral = x.denominator == 1 and y.denominator == 1
        assert integral == (t.denominator == 1)


def test_check_injective_examples():
    assert check_injective(imbalance_curve("RBBR")) is False  # balanced
    assert check_injective(imbalance_curve(FIG3)) is True
    assert check_injective(imbalance_curve("YRYR")) is True


def test_check_injective_backtracking_moves():
    # right, left: retraces its own image
    p = polyline_from_moves([(1, 0), (-1, 0), (1, 0)])
    assert check_injective(p) is False


def _scan_injective(polyline: LatticePolyline) -> bool:
    """Reference: look for d(u) == d(v) + k*delta over every copy k within
    reach of the base period."""
    delta = polyline.period_shift
    if delta == (0, 0):
        return False
    ell = polyline.period_length
    kmax = (2 * ell) // max(abs(delta[0]), abs(delta[1]))
    pts = polyline.points[:ell]
    index: dict = {}
    for v, p in enumerate(pts):
        index.setdefault(p, []).append(v)
    for k in range(kmax + 1):
        for u in range(ell):
            target = (pts[u][0] - k * delta[0], pts[u][1] - k * delta[1])
            if any(k != 0 or u != v for v in index.get(target, ())):
                return False
    return True


def test_check_injective_matches_the_copy_scan():
    rng = random.Random(31)
    moves = sorted(MOVE_OF_PAIR.values())
    seen = {"zero_shift": 0, True: 0, False: 0}
    for _ in range(4000):
        steps = [rng.choice(moves) for _ in range(rng.randrange(1, 25))]
        if rng.randrange(8) == 0:  # close the period: delta = 0
            steps += [(-dx, -dy) for dx, dy in reversed(steps)]
        poly = polyline_from_moves(steps)
        want = _scan_injective(poly)
        assert check_injective(poly) is want, steps
        seen["zero_shift" if poly.period_shift == (0, 0) else want] += 1
    assert min(seen.values()) > 100, seen


def side_of(polyline: LatticePolyline, p) -> str:
    """Classify p against the periodic curve of an injective polyline."""
    if not check_injective(polyline):
        raise ValueError("side classification needs an injective periodic curve")
    return PeriodicCurve(polyline).side_of(p)


def test_side_of_straight_line():
    p = imbalance_curve("YRYR")  # the x axis
    s_up = side_of(p, (0, 1))
    s_down = side_of(p, (0, -1))
    assert s_up != s_down
    assert side_of(p, (Fraction(1, 2), 0)) == PeriodicCurve.ON
    # far copies are still part of the curve
    assert side_of(p, (1000, 0)) == PeriodicCurve.ON
    assert side_of(p, (-1000, 3)) == s_up


def test_side_of_on_curve_midpoint():
    p = imbalance_curve(FIG3)
    mid = periodic_eval(p, Fraction(1, 2))
    assert side_of(p, mid) == PeriodicCurve.ON


def test_side_of_fig3_q_not_on_curve():
    p = imbalance_curve(FIG3)
    assert side_of(p, (2, 1)) != PeriodicCurve.ON


def test_side_of_vertical_drift():
    # pure vertical drift exercises the x-window ray logic
    p = imbalance_curve("YBYB")
    s1 = side_of(p, (1, 0))
    s2 = side_of(p, (-1, 0))
    assert s1 != s2
    assert side_of(p, (1, 10**6)) == s1
    assert side_of(p, (0, Fraction(1, 2))) == PeriodicCurve.ON


def test_intersecting_pairs_fig3():
    p = imbalance_curve(FIG3)
    pairs = all_intersecting_pairs(p, (2, 1))
    as_uv = {(u, v) for u, v in pairs}
    assert (5, 2) in as_uv
    assert (8, 3) in as_uv
    for u, v in pairs:
        assert v < u < v + 9
        pu = periodic_eval(p, u)
        pv = periodic_eval(p, v)
        assert (pu[0] - pv[0], pu[1] - pv[1]) == (2, 1)
    first = find_intersecting_pair(p, (2, 1))
    assert first == min(pairs, key=lambda pr: (pr.v, pr.u))
    assert (first.u, first.v) == (4, 1)


def test_intersecting_pair_rejects_off_segment_q():
    p = polyline_from_moves([(1, 0), (1, 0), (0, 1)])  # "YRYRYB"
    with pytest.raises(ValueError):
        find_intersecting_pair(p, (1, 0))


def test_segment_predicates():
    a, b = (0, 0), (4, 2)
    assert on_segment((2, 1), a, b) and on_open_segment((2, 1), a, b)
    assert on_open_segment((Fraction(1), Fraction(1, 2)), a, b)  # ints and Fractions mix
    for end in (a, b, (Fraction(4), Fraction(2))):
        assert on_segment(end, a, b) and not on_open_segment(end, a, b)
    assert not on_segment((2, 2), a, b) and not on_segment((6, 3), a, b)
    p = imbalance_curve(FIG3)
    for end in (p.points[0], p.points[-1]):  # the period's own endpoints are excluded
        with pytest.raises(ValueError):
            all_intersecting_pairs(p, end)


def test_crossing_fig3():
    p = imbalance_curve(FIG3)
    cp = find_crossing_pair(p, (2, 1))
    assert cp.v < cp.u < cp.v + 9
    assert cp.u == int(cp.u) and cp.v == int(cp.v)
    pu = periodic_eval(p, cp.u)
    pv = periodic_eval(p, cp.v)
    assert (pu[0] - pv[0], pu[1] - pv[1]) == (2, 1)
    # re-validate the side-change certificate independently
    curve = PeriodicCurve(p)
    s = cp.v - cp.overlap_length
    before = periodic_eval(p, s - Fraction(1, 2))
    after = periodic_eval(p, cp.v + Fraction(1, 2))
    before = (before[0] + 2, before[1] + 1)
    after = (after[0] + 2, after[1] + 1)
    assert curve.side_of(before) != curve.side_of(after)
    assert PeriodicCurve.ON not in (curve.side_of(before), curve.side_of(after))


def test_crossing_overlap_type_a_schematic():
    p = polyline_from_moves(OVERLAP_A_MOVES)
    cp = find_crossing_pair(p, (2, 1))
    assert (cp.u, cp.v) == (6, 3)
    assert cp.kind == OVERLAP_SAME
    assert cp.overlap_length == 2


def test_crossing_overlap_type_b_schematic():
    p = polyline_from_moves(OVERLAP_B_MOVES)
    cp = find_crossing_pair(p, (2, 1))
    assert (cp.u, cp.v) == (6, 3)
    assert cp.kind == OVERLAP_OPPOSITE
    assert cp.overlap_length == 2


def test_polyline_rejects_non_unit_moves():
    with pytest.raises(ValueError):
        LatticePolyline(((1, 1), (2, 3), (5, 3)))
    with pytest.raises(ValueError):
        LatticePolyline(((0, 0), (1, 0), (1, 0)))  # zero-length move
    with pytest.raises(ValueError):
        polyline_from_moves([(1, 0), (1, 1)])  # (1, 1) is no color move
    with pytest.raises(ValueError):
        LatticePolyline(((0, 0),))  # a single point
    with pytest.raises(ValueError):
        LatticePolyline(((0, 0), (Fraction(1), 0)))  # a unit move, not an int
    with pytest.raises(ValueError):
        LatticePolyline(((Fraction(1, 2), 0), (Fraction(3, 2), 0)))  # a unit move off the lattice


def test_crossing_rejects_non_lattice_q():
    p = imbalance_curve(FIG3)
    with pytest.raises(ValueError):
        find_crossing_pair(p, (1, Fraction(1, 2)))  # on the period segment
    assert find_crossing_pair(p, (2, 1)).kind in (SIMPLE, OVERLAP_SAME, OVERLAP_OPPOSITE)


def test_crossing_rejects_q_on_curve():
    p = imbalance_curve(FIG3)
    with pytest.raises(ValueError):
        find_crossing_pair(p, (1, 2))  # breakpoint of the curve


def test_crossing_requires_injective():
    p = imbalance_curve("RBBR")
    with pytest.raises(ValueError):
        find_crossing_pair(p, (0, 0))


def test_periodic_curve_rejects_a_non_injective_polyline():
    # a unit square repeated up the y axis: nonzero shift, self-touching copies
    poly = polyline_from_moves([(1, 0), (0, 1), (-1, 0), (0, -1), (0, 1)])
    assert poly.period_shift == (0, 1) and not check_injective(poly)
    with pytest.raises(ValueError, match="injective"):
        PeriodicCurve(poly)
    with pytest.raises(ValueError, match="nonzero period shift"):
        PeriodicCurve(imbalance_curve("RBBR"))


def test_period_shift_equals_profile_difference():
    # the endpoint of the curve is the odd-minus-even profile of the cycle
    rng = random.Random(55)
    from rbymatch.graph import even_cycle_from_string

    done = 0
    while done < 100:
        ell = rng.randrange(1, 10)
        colors = []
        for _ in range(ell):
            pair = rng.choice(list(MOVE_OF_PAIR.keys()))
            colors.extend(pair)
        comp = even_cycle_from_string(colors)
        poly = imbalance_curve(comp)
        even = comp.even_profile()
        odd = comp.odd_profile()
        assert poly.period_shift == (odd.red - even.red, odd.blue - even.blue)
        done += 1


def test_renumbering_translates_periodic_image():
    rng = random.Random(99)
    moves = list(MOVE_OF_PAIR.values())
    for _ in range(50):
        n = rng.randrange(2, 9)
        seq = [rng.choice(moves) for _ in range(n)]
        p = polyline_from_moves(seq)
        rotated = polyline_from_moves(seq[1:] + seq[:1])
        d1 = p.points[1]
        for t in range(-6, 14):
            a = periodic_eval(rotated, t)
            b = periodic_eval(p, t + 1)
            assert a == (b[0] - d1[0], b[1] - d1[1])


def _segment_lattice_points(delta):
    from math import gcd

    g = gcd(abs(delta[0]), abs(delta[1]))
    return [
        (delta[0] * k // g, delta[1] * k // g) for k in range(1, g)
    ]


def test_lemma5_style_fuzz_small():
    rng = random.Random(12345)
    moves = list(MOVE_OF_PAIR.values())
    found = 0
    while found < 200:
        n = rng.randrange(2, 11)
        seq = [rng.choice(moves) for _ in range(n)]
        p = polyline_from_moves(seq)
        qs = [
            q
            for q in _segment_lattice_points(p.period_shift)
            if p.period_shift != (0, 0)
        ]
        if not qs:
            continue
        q = qs[rng.randrange(len(qs))]
        pair = find_intersecting_pair(p, q)
        assert pair is not None
        assert pair.v < pair.u < pair.v + p.period_length
        found += 1


def test_crossing_fuzz_small():
    rng = random.Random(4242)
    moves = list(MOVE_OF_PAIR.values())
    curveless = 0
    found = 0
    while found < 150 and curveless < 20000:
        curveless += 1
        n = rng.randrange(2, 11)
        seq = [rng.choice(moves) for _ in range(n)]
        p = polyline_from_moves(seq)
        if p.period_shift == (0, 0) or not check_injective(p):
            continue
        curve_obj = PeriodicCurve(p)
        qs = [
            q
            for q in _segment_lattice_points(p.period_shift)
            if not curve_obj.on_curve((Fraction(q[0]), Fraction(q[1])))
        ]
        if not qs:
            continue
        q = qs[rng.randrange(len(qs))]
        cp = find_crossing_pair(p, q)
        assert cp.v < cp.u < cp.v + p.period_length
        found += 1
    assert found == 150


class _FractionCurve:
    """The general Fraction engine PeriodicCurve replaced, kept as the
    reference: per-copy segment lists, an on_segment scan, two mirrored ray
    branches and a halving search for the side-A probe."""

    def __init__(self, polyline):
        self.polyline = polyline
        self.delta = polyline.period_shift
        pts = polyline.points
        self._xmin = min(p[0] for p in pts)
        self._xmax = max(p[0] for p in pts)
        self._ymin = min(p[1] for p in pts)
        self._ymax = max(p[1] for p in pts)
        self._copies = {}
        self._ref_parity = None

    def _copy_segments(self, k):
        segs = self._copies.get(k)
        if segs is None:
            off = (self.delta[0] * k, self.delta[1] * k)
            pts = [(p[0] + off[0], p[1] + off[1]) for p in self.polyline.points]
            segs = self._copies[k] = list(zip(pts, pts[1:]))
        return segs

    @staticmethod
    def _k_range(lo, hi, step):
        if step > 0:
            return range(math.ceil(Fraction(lo) / step), math.floor(Fraction(hi) / step) + 1)
        return range(math.ceil(Fraction(hi) / step), math.floor(Fraction(lo) / step) + 1)

    def _copies_touching(self, p):
        ranges = []
        if self.delta[0] != 0:
            ranges.append(self._k_range(p[0] - self._xmax, p[0] - self._xmin, self.delta[0]))
        if self.delta[1] != 0:
            ranges.append(self._k_range(p[1] - self._ymax, p[1] - self._ymin, self.delta[1]))
        ks = set(ranges[0])
        for r in ranges[1:]:
            ks &= set(r)
        return sorted(ks)

    def on_curve(self, p):
        segments = (seg for k in self._copies_touching(p) for seg in self._copy_segments(k))
        return any(on_segment(p, a, b) for a, b in segments)

    def _ray_parity(self, p):
        px, py = p
        count = 0
        if self.delta[1] != 0:
            for k in self._k_range(py - self._ymax - 1, py - self._ymin + 1, self.delta[1]):
                for a, b in self._copy_segments(k):
                    ay, by = a[1], b[1]
                    if not ((ay <= py < by) or (by <= py < ay)):
                        continue
                    x_at = a[0] + (b[0] - a[0]) * Fraction(py - ay, by - ay)
                    assert x_at != px, "ray test anchored on the curve"
                    count += x_at > px
        else:
            for k in self._k_range(px - self._xmax - 1, px - self._xmin + 1, self.delta[0]):
                for a, b in self._copy_segments(k):
                    ax, bx = a[0], b[0]
                    if not ((ax <= px < bx) or (bx <= px < ax)):
                        continue
                    y_at = a[1] + (b[1] - a[1]) * Fraction(px - ax, bx - ax)
                    assert y_at != py, "ray test anchored on the curve"
                    count += y_at > py
        return count & 1

    def _reference_parity(self):
        if self._ref_parity is None:
            a, b = self.polyline.points[0], self.polyline.points[1]
            mid = (Fraction(a[0] + b[0], 2), Fraction(a[1] + b[1], 2))
            left = (a[1] - b[1], b[0] - a[0])
            scale = Fraction(1, 8)
            for _ in range(64):
                probe = (mid[0] + left[0] * scale, mid[1] + left[1] * scale)
                if not self.on_curve(probe):
                    self._ref_parity = self._ray_parity(probe)
                    return self._ref_parity
                scale /= 2
            raise AssertionError("could not place the side-A reference probe")
        return self._ref_parity

    def side_of(self, p):
        p = (Fraction(p[0]), Fraction(p[1]))
        if self.on_curve(p):
            return PeriodicCurve.ON
        if self._ray_parity(p) == self._reference_parity():
            return PeriodicCurve.SIDE_A
        return PeriodicCurve.SIDE_B


def _reference_crossing(polyline, q):
    """(u, v, kind, overlap) of the first certified contact, classified by
    _FractionCurve at Fraction probes; the overlap walk is the library's."""
    ell = polyline.period_length
    offset = (q[0] - polyline.points[0][0], q[1] - polyline.points[0][1])
    curve = _FractionCurve(polyline)

    def g(t):
        x, y = periodic_eval(polyline, t)
        return (x + offset[0], y + offset[1])

    for u, v in all_intersecting_pairs(polyline, q):
        if not 0 < v < ell:
            continue
        i_a = 0
        while i_a < v - 1 and periodic_eval(polyline, u - i_a - 1) == g(v - i_a - 1):
            i_a += 1
        cap_b = min(v - 1, -((u - v - ell) // 2) - 1)
        i_b = 0
        while i_b < cap_b and periodic_eval(polyline, u + i_b + 1) == g(v - i_b - 1):
            i_b += 1
        assert not (i_a and i_b)
        if i_a:
            kind, i = OVERLAP_SAME, i_a
        elif i_b:
            kind, i = OVERLAP_OPPOSITE, i_b
        else:
            kind, i = SIMPLE, 0
        sides = (
            curve.side_of(g(Fraction(2 * (v - i) - 1, 2))),
            curve.side_of(g(Fraction(2 * v + 1, 2))),
        )
        if PeriodicCurve.ON not in sides and sides[0] != sides[1]:
            return (u, v, kind, i)
    return None


def _differential_curves():
    """Seeded criterion-4 curves (injective, with an interior lattice point
    of the period segment), then the drift and overlap special cases."""
    rng = random.Random(404)
    moves = sorted(MOVE_OF_PAIR.values())
    cases = []
    while len(cases) < 40:
        poly = polyline_from_moves(rng.choice(moves) for _ in range(rng.randrange(2, 13)))
        if _segment_lattice_points(poly.period_shift) and check_injective(poly):
            cases.append(pytest.param(poly, id=f"random{len(cases)}"))
    for colors in ("YRYR", "YBYB", "RYRYRY", "YBYBYB", "RBRB", FIG3):
        cases.append(pytest.param(imbalance_curve(colors), id=colors))
    cases.append(pytest.param(polyline_from_moves(OVERLAP_A_MOVES), id="overlap_same"))
    cases.append(pytest.param(polyline_from_moves(OVERLAP_B_MOVES), id="overlap_opposite"))
    return cases


@pytest.mark.parametrize("poly", _differential_curves())
def test_integer_engine_matches_fraction_reference(poly):
    curve, ref = PeriodicCurve(poly), _FractionCurve(poly)
    # every half-integer point of a window two periods wide around the base period
    dx, dy = poly.period_shift
    xs = [p[0] for p in poly.points] + [p[0] - dx for p in poly.points]
    ys = [p[1] for p in poly.points] + [p[1] - dy for p in poly.points]
    for x2 in range(2 * min(xs) - 2, 2 * max(xs) + 3):
        for y2 in range(2 * min(ys) - 2, 2 * max(ys) + 3):
            p = (Fraction(x2, 2), Fraction(y2, 2))
            assert curve.on_curve(p) == ref.on_curve(p), p
            assert curve.side_of(p) == ref.side_of(p), p
    for q in _segment_lattice_points(poly.period_shift):
        if q in poly.points:
            continue
        cp = find_crossing_pair(poly, q)
        assert (cp.u, cp.v, cp.kind, cp.overlap_length) == _reference_crossing(poly, q)


def test_crossing_pairs_match_fraction_reference():
    rng = random.Random(405)
    moves = sorted(MOVE_OF_PAIR.values())
    kinds = {SIMPLE: 0, OVERLAP_SAME: 0, OVERLAP_OPPOSITE: 0}
    while sum(kinds.values()) < 400:
        poly = polyline_from_moves(rng.choice(moves) for _ in range(rng.randrange(2, 13)))
        qs = [q for q in _segment_lattice_points(poly.period_shift) if q not in poly.points]
        if not qs or not check_injective(poly):
            continue
        q = qs[rng.randrange(len(qs))]
        cp = find_crossing_pair(poly, q)
        assert (cp.u, cp.v, cp.kind, cp.overlap_length) == _reference_crossing(poly, q)
        kinds[cp.kind] += 1
    assert min(kinds.values()) >= 20, kinds


def _eval_int(polyline, t):
    """d-infinity(t) at an integer t."""
    pts = polyline.points
    k, r = divmod(t, len(pts) - 1)
    (x0, y0), (xl, yl), (x, y) = pts[0], pts[-1], pts[r]
    return (x + k * (xl - x0), y + k * (yl - y0))


def _walked_crossing(polyline, q):
    """The crossing search that measured each overlap run by evaluating the
    curve again, kept as the reference for the one that reads the runs from
    the pair list."""
    pts = polyline.points
    ell = len(pts) - 1
    offset = (q[0] - pts[0][0], q[1] - pts[0][1])
    curve = PeriodicCurve(polyline)

    def contact(t, v):
        x, y = _eval_int(polyline, t)
        return (x - pts[v][0], y - pts[v][1]) == offset

    def translated_midpoint(t):  # d(t - 1/2) + offset
        (ax, ay), (bx, by) = pts[t - 1], pts[t]
        return (Fraction(ax + bx, 2) + offset[0], Fraction(ay + by, 2) + offset[1])

    for u, v in all_intersecting_pairs(polyline, q):
        if not 0 < v < ell:
            continue
        i_a = 0
        while i_a < v - 1 and contact(u - i_a - 1, v - i_a - 1):
            i_a += 1
        cap_b = min(v - 1, -((u - v - ell) // 2) - 1)
        i_b = 0
        while i_b < cap_b and contact(u + i_b + 1, v - i_b - 1):
            i_b += 1
        assert not (i_a and i_b)
        kind, i = (OVERLAP_SAME, i_a) if i_a else (OVERLAP_OPPOSITE, i_b) if i_b else (SIMPLE, 0)
        sides = {curve.side_of(translated_midpoint(v - i)), curve.side_of(translated_midpoint(v + 1))}
        if PeriodicCurve.ON not in sides and len(sides) == 2:
            return CrossingPair(Fraction(u), Fraction(v), kind, i)
    return None


def test_crossings_match_the_walked_overlap_scan():
    # criterion-4 curves of 2..24 moves, every interior lattice q off the curve
    rng = random.Random(406)
    moves = sorted(MOVE_OF_PAIR.values())
    kinds = {SIMPLE: 0, OVERLAP_SAME: 0, OVERLAP_OPPOSITE: 0}
    curves = 0
    while curves < 2000:
        poly = polyline_from_moves(rng.choice(moves) for _ in range(rng.randrange(2, 25)))
        qs = _segment_lattice_points(poly.period_shift)
        if not qs or not check_injective(poly):
            continue
        curve = PeriodicCurve(poly)
        qs = [q for q in qs if not curve.on_curve(q)]
        if not qs:
            continue
        curves += 1
        for t in range(-2 * poly.period_length, 2 * poly.period_length):
            assert _eval_int(poly, t) == periodic_eval(poly, t), (poly.points, t)
        for q in qs:
            cp = find_crossing_pair(poly, q)
            assert cp == _walked_crossing(poly, q), (poly.points, q)
            kinds[cp.kind] += 1
    assert min(kinds.values()) >= 100, kinds


def test_periodic_curve_rejects_points_off_the_quarter_lattice():
    curve = PeriodicCurve(imbalance_curve(FIG3))
    for p in ((Fraction(1, 3), 0), (0, Fraction(5, 8)), (0.5, 0)):
        with pytest.raises(ValueError):
            curve.side_of(p)
        with pytest.raises(ValueError):
            curve.on_curve(p)
    assert curve.side_of((Fraction(1, 4), Fraction(-3, 4))) != PeriodicCurve.ON




def test_curve_calls_leave_the_polyline_unmemoized():
    # the benchmark serves the same polyline objects on every pass, so data
    # memoized on one would make later passes cheaper than a fresh request
    poly = imbalance_curve(FIG3)
    cp = find_crossing_pair(poly, (2, 1))
    PeriodicCurve(poly).side_of(periodic_eval(poly, cp.v + Fraction(1, 2)))
    assert vars(poly) == {"points": poly.points}
