"""Imbalance-curve engine: periodic unit-move lattice polylines and their crossings.

A properly paired 2L-cycle induces a polyline through integer points whose
moves encode the colors of consecutive edge pairs: each move is one of the
six unit color moves of MOVE_OF_PAIR, and LatticePolyline accepts no other.
This module evaluates the periodic extension of such polylines, decides
injectivity, classifies points against the two plane components cut out by
an injective periodic curve, and searches for intersecting and crossing
pairs between the curve and its translate by a lattice offset.

All arithmetic is in integer coordinates.  Side classification scales the
plane by four, so that the curve's breakpoints, its segment midpoints and
every probe are integer points.  `periodic_eval` computes in integers on
t's numerator and denominator and builds its two Fractions once, so a
Fraction appears only at the public boundary: in what `periodic_eval`
returns, in the points handed to `PeriodicCurve` and in the fields of
`CrossingPair`.  Pair searches are exhaustive integer scans, since unit-move
curves and their lattice translates meet only at integer points; period
lengths are small at the scale this package targets, and certified search
plus verification is the executable counterpart of the existence guarantees
the solvers rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import CrossingNotFoundError, InvariantError
from .graph import CycleOrPath

Point = tuple[Fraction, Fraction]
IntPoint = tuple[int, int]

# move encoding for a consecutive (even, odd) edge color pair
MOVE_OF_PAIR: dict[tuple[str, str], IntPoint] = {
    ("R", "Y"): (-1, 0),
    ("Y", "R"): (1, 0),
    ("B", "Y"): (0, -1),
    ("Y", "B"): (0, 1),
    ("R", "B"): (-1, 1),
    ("B", "R"): (1, -1),
}
PAIR_OF_MOVE = {m: p for p, m in MOVE_OF_PAIR.items()}
UNIT_MOVES = frozenset(PAIR_OF_MOVE)


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


@dataclass(frozen=True)
class LatticePolyline:
    """Unit-move polyline d(0..L) with periodic extension d-infinity."""

    points: tuple[IntPoint, ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("polyline needs at least one segment")
        ax, ay = self.points[0]
        if not (isinstance(ax, int) and isinstance(ay, int)):
            raise ValueError("breakpoints must be integer points")
        for bx, by in self.points[1:]:
            if not (isinstance(bx, int) and isinstance(by, int)):
                raise ValueError("breakpoints must be integer points")
            if (bx - ax, by - ay) not in UNIT_MOVES:
                raise ValueError(f"move {(ax, ay)} -> {(bx, by)} is not a unit color move")
            ax, ay = bx, by

    @property
    def period_length(self) -> int:
        return len(self.points) - 1

    @property
    def period_shift(self) -> IntPoint:
        return _sub(self.points[-1], self.points[0])

    @property
    def moves(self) -> tuple[IntPoint, ...]:
        pts = self.points
        return tuple((bx - ax, by - ay) for (ax, ay), (bx, by) in zip(pts, pts[1:]))


def polyline_from_moves(moves: Iterable[IntPoint]) -> LatticePolyline:
    pts = [(0, 0)]
    for m in moves:
        pts.append((pts[-1][0] + m[0], pts[-1][1] + m[1]))
    return LatticePolyline(tuple(pts))


def imbalance_curve(cycle: CycleOrPath | str | Sequence[str]) -> LatticePolyline:
    """Polyline tracking the color imbalance of growing even prefixes.

    Each consecutive (even, odd) color pair maps to one unit move; a pair of
    equal colors has no move and is rejected (the pairing must be proper).
    """
    if isinstance(cycle, CycleOrPath):
        if not cycle.is_cycle:
            raise ValueError("imbalance curves are defined for even cycles")
        colors = cycle.colors
    else:
        colors = tuple(cycle)
    if len(colors) % 2 != 0 or len(colors) < 2:
        raise ValueError("need an even number of edges, at least 2")
    moves = []
    for i in range(0, len(colors), 2):
        pair = (colors[i], colors[i + 1])
        move = MOVE_OF_PAIR.get(pair)
        if move is None:
            raise ValueError(f"improper color pair {pair} at edges ({i}, {i + 1})")
        moves.append(move)
    return polyline_from_moves(moves)


def periodic_eval(polyline: LatticePolyline, t) -> Point:
    """d-infinity(t): periodic extension with linear interpolation."""
    t = Fraction(t)
    num, den = t.numerator, t.denominator  # t lies part/den along segment i of period k
    pts = polyline.points
    (x0, y0), (xl, yl) = pts[0], pts[-1]
    k, rem = divmod(num, den * (len(pts) - 1))
    i, part = divmod(rem, den)
    (ax, ay), (bx, by) = pts[i], pts[i + 1]
    return (
        Fraction((ax + k * (xl - x0)) * den + part * (bx - ax), den),
        Fraction((ay + k * (yl - y0)) * den + part * (by - ay), den),
    )


def check_injective(polyline: LatticePolyline) -> bool:
    """Whether the periodic extension never revisits a point.

    Translated copies of a unit-move polyline can only meet at integer
    points, and d(i + kL) = d(i) + k*delta, so the extension revisits a point
    iff delta = 0 or two of d(0..L-1) differ by a multiple of delta.  On a
    coordinate h with delta[h] != 0, p - (p[h] // delta[h]) * delta is one
    representative per class of points modulo delta, so the curve is
    injective iff the L representatives are distinct.
    """
    pts = polyline.points
    dx, dy = pts[-1][0] - pts[0][0], pts[-1][1] - pts[0][1]
    if dx == dy == 0:
        return False
    reps = {(x - (k := x // dx if dx else y // dy) * dx, y - k * dy) for x, y in pts[:-1]}
    return len(reps) == len(pts) - 1


def on_segment(p, a, b) -> bool:
    """Whether p lies on the closed segment [a, b]; exact for ints and Fractions."""
    if _cross(_sub(b, a), _sub(p, a)) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(
        a[1], b[1]
    )


def on_open_segment(p, a, b) -> bool:
    """Whether p lies on [a, b] and is neither endpoint."""
    return p != a and p != b and on_segment(p, a, b)


def _quadruple(p) -> IntPoint:
    """4p for a point p of the quarter lattice, given as ints or Fractions."""
    x, y = p
    for c in (x, y):
        if not isinstance(c, (int, Fraction)) or 4 % c.denominator:
            raise ValueError(f"{p} is not a point of the quarter lattice")
    return (x.numerator * (4 // x.denominator), y.numerator * (4 // y.denominator))


class PeriodicCurve:
    """Point classification against an injective periodic polyline.

    The constructor rejects a polyline with a zero period shift or one that
    `check_injective` rejects with a ValueError, since only an injective
    curve cuts the plane into the two components the labels name.

    Everything here runs in integer coordinates scaled by four, which make the
    quarter lattice integral: it holds the curve's breakpoints, the midpoints
    of its segments and every probe.  `on_curve` and `side_of` convert their
    point once and reject a point off that lattice with a ValueError.  The
    constructor builds its point set and ray crossers in plain tuple
    arithmetic, and a classification finds its copies of the period once.

    The plane minus the curve has exactly two connected components.  Side
    labels are fixed deterministically: the component adjacent to the left of
    the first move is SIDE_A.  Its probe sits a quarter unit along the left
    normal from the first segment's midpoint; no unit-move line (x, y or x + y
    an integer) meets the open segment between the two, so the probe is in
    the component the first move has on its left.  Classification counts the
    crossings of a ray along one axis, with the other, held coordinate of the
    query perturbed by +epsilon: the ray runs along +x when the period shift
    has a vertical component and along +y otherwise, so only the copies whose
    span in the held coordinate contains the query's can meet it, and the
    parity is exact.  Moves have slope 0, -1 or infinity, so every crossing
    is an integer.
    """

    SIDE_A = "A"
    SIDE_B = "B"
    ON = "on"

    def __init__(self, polyline: LatticePolyline):
        pts, moves = polyline.points, polyline.moves
        (x0, y0), (xl, yl) = pts[0], pts[-1]
        if xl == x0 and yl == y0:
            raise ValueError("periodic curve requires a nonzero period shift")
        if not check_injective(polyline):
            raise ValueError("periodic curve requires an injective polyline")
        h = self._held = 1 if yl != y0 else 0
        f = 1 - h
        self._shift = (4 * (xl - x0), 4 * (yl - y0))
        quads = [(4 * x, 4 * y) for x, y in pts]
        held = [p[h] for p in quads]
        self._lo, self._hi = min(held), max(held)
        # the 4L quarter-lattice points of one period, each segment without its end
        self._points = frozenset(
            [(x + j * mx, y + j * my) for (x, y), (mx, my) in zip(quads, moves) for j in range(4)]
        )
        # (low, high held coordinate, intercept, slope) of each segment the ray
        # can cross: at held coordinate c it has free coordinate intercept + c * slope
        self._crossers = [
            (min(a[h], b[h]), max(a[h], b[h]), a[f] - a[h] * m[f] * m[h], m[f] * m[h])
            for a, b, m in zip(quads, quads[1:], moves)
            if m[h]
        ]
        mx, my = moves[0]
        probe = (4 * x0 + 2 * mx - my, 4 * y0 + 2 * my + mx)
        ks = self._k_range(probe[h])
        if self._on_curve(probe, ks):
            raise InvariantError("the side-A reference probe lies on the curve")
        self._ref_parity = self._ray_parity(probe, ks)

    def _k_range(self, v: int) -> range:
        """Every k whose copy, shifted by k periods, spans held coordinate v."""
        step = self._shift[self._held]
        lo, hi = v - self._hi, v - self._lo  # k * step in [lo, hi]
        if step < 0:
            step, lo, hi = -step, -hi, -lo
        return range(-(-lo // step), hi // step + 1)

    def _on_curve(self, p: IntPoint, ks: range) -> bool:
        (x, y), (sx, sy), points = p, self._shift, self._points
        for k in ks:
            if (x - k * sx, y - k * sy) in points:
                return True
        return False

    def _ray_parity(self, p: IntPoint, ks: range) -> int:
        h = self._held
        ph, pf, sh, sf = p[h], p[1 - h], self._shift[h], self._shift[1 - h]
        count = 0
        for k in ks:
            c, free = ph - k * sh, pf - k * sf
            for lo, hi, intercept, slope in self._crossers:
                if lo <= c < hi:
                    at = intercept + c * slope
                    if at == free:
                        raise InvariantError("ray test anchored on the curve")
                    if at > free:
                        count += 1
        return count & 1

    def _side(self, p: IntPoint) -> str:
        ks = self._k_range(p[self._held])
        if self._on_curve(p, ks):
            return self.ON
        return self.SIDE_A if self._ray_parity(p, ks) == self._ref_parity else self.SIDE_B

    def on_curve(self, p) -> bool:
        p = _quadruple(p)
        return self._on_curve(p, self._k_range(p[self._held]))

    def side_of(self, p) -> str:
        return self._side(_quadruple(p))


class IntersectingPair(NamedTuple):
    """(u, v) with curve(u) == curve(v) + offset and v < u < v + period."""

    u: int
    v: int


def all_intersecting_pairs(polyline: LatticePolyline, q: IntPoint) -> list[IntersectingPair]:
    """Every integer pair (u, v), 0 <= v <= L, v < u < v + L, with
    d-infinity(u) = d(v) + (q - d(0)); ordered by (v, u)."""
    return _intersecting_pairs(polyline, _require_lattice_offset(polyline, q))


def _intersecting_pairs(polyline: LatticePolyline, offset: IntPoint) -> list[IntersectingPair]:
    pts = polyline.points
    ell = len(pts) - 1
    dx, dy = pts[-1][0] - pts[0][0], pts[-1][1] - pts[0][1]
    ox, oy = offset
    values: dict[IntPoint, list[int]] = {}
    # d-infinity(1..2L - 1): the rest of the base period, then the next period
    for u, p in enumerate(pts[1:] + tuple([(x + dx, y + dy) for x, y in pts[1:-1]]), 1):
        values.setdefault(p, []).append(u)
    pairs = []
    for v, (x, y) in enumerate(pts):  # each u list ascends, so pairs come in (v, u) order
        for u in values.get((x + ox, y + oy), ()):
            if v < u < v + ell:
                pairs.append(IntersectingPair(u, v))
    return pairs


def _require_lattice_offset(polyline: LatticePolyline, q) -> IntPoint:
    if not (isinstance(q[0], int) and isinstance(q[1], int)):
        raise ValueError("q must be a lattice point for integer pair searches")
    a = polyline.points[0]
    if not on_open_segment(q, a, polyline.points[-1]):
        raise ValueError("q must lie strictly between the curve's endpoints")
    return _sub(q, a)


SIMPLE = "Simple"
OVERLAP_SAME = "OverlapSameOrientation"
OVERLAP_OPPOSITE = "OverlapOppositeOrientation"


@dataclass(frozen=True)
class CrossingPair:
    u: Fraction
    v: Fraction
    kind: str
    overlap_length: int

    def __post_init__(self):
        if (self.kind == SIMPLE) != (self.overlap_length == 0):
            raise ValueError("overlap_length must be 0 exactly for simple crossings")


def find_crossing_pair(polyline: LatticePolyline, q: IntPoint) -> CrossingPair:
    """A certified crossing pair for (d-infinity, d + q - d(0)).

    The unit-move polyline must be injective, and q a lattice point strictly
    between its endpoints and off the curve; anything else is a ValueError.
    The returned pair satisfies v < u < v + L; the certificate (the translate
    touches the curve on [s, v] and sits on opposite sides just before s and
    just after v) is verified through side classification before returning.
    Failure to find one would falsify a structural guarantee and raises
    CrossingNotFoundError.
    """
    curve = PeriodicCurve(polyline)  # a ValueError unless the curve is injective
    offset = _require_lattice_offset(polyline, q)
    if q in polyline.points:  # a lattice point meets a unit segment only at its ends
        raise ValueError("q must not lie on the curve itself")
    result = _crossing_lattice(polyline, curve, offset)
    if result is None:
        raise CrossingNotFoundError(
            "no certified crossing pair exists; this falsifies the crossing guarantee"
        )
    u, v, kind, overlap = result
    return CrossingPair(Fraction(u), Fraction(v), kind, overlap)


def _midpoint4(pts: tuple[IntPoint, ...], t: int, offset: IntPoint) -> IntPoint:
    """4 (d(t - 1/2) + offset), 0 < t <= L: the translate's midpoint before t."""
    (ax, ay), (bx, by) = pts[t - 1], pts[t]
    return (2 * (ax + bx) + 4 * offset[0], 2 * (ay + by) + 4 * offset[1])


def _crossing_lattice(
    polyline: LatticePolyline, curve: PeriodicCurve, offset: IntPoint
) -> tuple[int, int, str, int] | None:
    """First contact (v, u), 0 < v < L, whose overlap run [s, v] the
    translate enters and leaves on opposite sides of ``curve``, the
    polyline's, as (u, v, kind, overlap length).

    A same-orientation run is the contacts (u - j, v - j), an opposite one
    (u + j, v - j), for 0 < v - j.  The pair scan lists every contact with
    v' < u' < v' + L, so the runs are read from its list, and that window
    ends an opposite run before u + j - (v - j) reaches L."""
    pts = polyline.points
    ell = len(pts) - 1
    pairs = _intersecting_pairs(polyline, offset)
    contacts = set(pairs)
    for u, v in pairs:
        if not 0 < v < ell:
            continue
        i_a = 0
        while i_a < v - 1 and (u - i_a - 1, v - i_a - 1) in contacts:
            i_a += 1
        i_b = 0
        while i_b < v - 1 and (u + i_b + 1, v - i_b - 1) in contacts:
            i_b += 1
        if i_a and i_b:
            raise InvariantError("overlap in both directions contradicts injectivity")
        if i_a:
            kind, i = OVERLAP_SAME, i_a
        elif i_b:
            kind, i = OVERLAP_OPPOSITE, i_b
        else:
            kind, i = SIMPLE, 0
        s = v - i
        side_before = curve._side(_midpoint4(pts, s, offset))
        side_after = curve._side(_midpoint4(pts, v + 1, offset))
        if PeriodicCurve.ON in (side_before, side_after):
            continue
        if side_before != side_after:
            return u, v, kind, i
    return None
