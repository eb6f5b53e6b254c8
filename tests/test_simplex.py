from __future__ import annotations

import copy
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from rbymatch import lpface, simplex
from rbymatch.errors import InvariantError
from rbymatch.graph import ColoredGraph
from rbymatch.lpface import build_lp, solve_lp
from rbymatch.simplex import solve_standard_form
from test_driver import LATER_ROUND_INFEASIBLE

F = Fraction


def test_single_variable_forced_by_equality():
    res = solve_standard_form(
        1,
        [1],
        ub_rows=[([(0, 1)], 1)],
        eq_rows=[([(0, 1)], 1)],
    )
    assert res is not None
    assert res.values == (F(1),)
    assert res.objective == F(1)


def test_a_pivot_loop_that_stops_improving_raises(monkeypatch):
    # a pivot that leaves the carried reduced-cost rows as they were breaks
    # the loop's invariant: the same column enters again and again, the basis
    # recurs and the objective stands still, which must raise, not hang
    pivot = simplex._Tableau.pivot

    def stale_z(self, row, col, *carried):
        kept = [list(z) for z in carried]
        pivot(self, row, col, *carried)
        for z, old in zip(carried, kept):
            z[:] = old

    monkeypatch.setattr(simplex._Tableau, "pivot", stale_z)
    with pytest.raises(InvariantError, match="revisited a basis"):
        solve_standard_form(
            1,
            [1],
            ub_rows=[([(0, 1)], 1)],
            eq_rows=[([(0, 1)], 1)],
        )


def test_beale_cycling_example_terminates(monkeypatch):
    # Beale's LP (scaled to integers) cycles under the largest-coefficient
    # rule; here no later column offers the element d, so every pivot is
    # Bland's: four degenerate ones on its three rows, so the basis check
    # records a basis, and then the optimum
    pivot = simplex._Tableau.pivot
    stalled = []

    def watch(self, row, col, z):  # no equality rows: every pivot is phase 2's
        before = (z[-1], self.d)
        pivot(self, row, col, z)
        stalled.append(z[-1] * before[1] == before[0] * self.d)

    monkeypatch.setattr(simplex._Tableau, "pivot", watch)
    res = solve_standard_form(
        4,
        [3, -80, 2, -24],
        [
            ([(0, 1), (1, -32), (2, -4), (3, 36)], 0),
            ([(0, 1), (1, -24), (2, -1), (3, 6)], 0),
            ([(2, 1)], 1),
        ],
        [],
    )
    assert (res.values, res.objective) == ((1, 0, 1, 0), 5)
    assert stalled[:5] == [True] * 4 + [False]


def _record_pivots(monkeypatch):
    """(entering variable, pivot element, d before, whether the objective
    stood still) of each pivot of a solve without equality rows."""
    pivot = simplex._Tableau.pivot
    taken = []

    def watch(self, row, s, z):
        var, p, value, d = self.cols[s], self.rows[row][s], z[-1], self.d
        pivot(self, row, s, z)
        taken.append((var, p, d, z[-1] * d == value * self.d))

    monkeypatch.setattr(simplex._Tableau, "pivot", watch)
    return taken


@pytest.mark.parametrize(
    "ub_rows, first, values",
    [
        # Bland's column x0 has the element d = 1, and so has x1: x0 enters
        ([([(0, 1), (1, 1)], 1)], (0, 1, 1, False), (1, 0)),
        # x0's element is 2, and x1's min-ratio row holds 1: x1 enters
        ([([(0, 2), (1, 1)], 2), ([(1, 1)], 3)], (1, 1, 1, False), (0, 2)),
        # x0's element is 2 and x1's 3: no column has d, so Bland's x0 enters
        ([([(0, 2), (1, 3)], 6)], (0, 2, 1, False), (3, 0)),
    ],
)
def test_pivot_prefers_an_element_of_d_across_columns(monkeypatch, ub_rows, first, values):
    taken = _record_pivots(monkeypatch)
    res = solve_standard_form(2, [1, 1], ub_rows, [])
    assert taken[0] == first and res.values == values


@pytest.mark.parametrize(
    "objective, ub_rows, entering, stalls, element",
    [
        # six pivots leave the objective at 0 on these five rows, so the
        # seventh takes Bland's column x4 (element 34 at d = 2), although
        # slack 6 has the element d in its min-ratio row
        (
            [0, 1, 0, -1, -2],
            [
                ([(0, 2), (1, -1), (2, 1), (3, -2), (4, -3)], 0),
                ([(0, 1), (1, 1), (2, -3), (3, -2), (4, -2)], 0),
                ([(0, -2), (2, -1), (3, 1), (4, -3)], 0),
                ([(0, -1), (1, 1), (2, -1), (3, 1), (4, -1)], 0),
                ([(j, 1) for j in range(5)], 1),
            ],
            [1, 3, 0, 2, 7, 0, 4, 6],
            [True] * 6 + [False] * 2,
            (6, 34, 2),
        ),
        # five pivots leave the objective at 0 on these five rows, not more,
        # so the sixth still takes x4 (element d = 6) over Bland's x1 (8)
        (
            [1, 1, 1, 3, 1],
            [
                ([(0, 3), (1, -1), (2, 2), (3, -3), (4, -3)], 0),
                ([(1, 1), (2, -3), (3, -3), (4, 3)], 0),
                ([(0, 2), (2, 2), (4, 2)], 0),
                ([(0, 3), (1, -3), (2, 1)], 0),
                ([(j, 1) for j in range(5)], 1),
            ],
            [1, 0, 2, 3, 5, 4, 1, 6, 7],
            [True] * 6 + [False] * 2 + [True],
            (5, 6, 6),
        ),
    ],
)
def test_pivot_takes_blands_column_once_the_objective_stands_still(
    monkeypatch, objective, ub_rows, entering, stalls, element
):
    # both LPs were found by a seeded search over degenerate LPs
    taken = _record_pivots(monkeypatch)
    res = solve_standard_form(5, objective, ub_rows, [])
    assert [var for var, *_ in taken] == entering
    assert [still for *_, still in taken] == stalls
    at, p, d = element
    assert taken[at][1:3] == (p, d)
    assert res.objective == _fraction_solve(5, objective, ub_rows, [])[1]


def test_infeasible_equality():
    res = solve_standard_form(
        1,
        [1],
        ub_rows=[([(0, 1)], 1)],
        eq_rows=[([(0, 1)], 3)],
    )
    assert res is None


def test_degenerate_redundant_equalities():
    res = solve_standard_form(
        2,
        [1, 1],
        ub_rows=[([(0, 1), (1, 1)], 2)],
        eq_rows=[([(0, 1)], 1), ([(0, 1)], 1)],
    )
    assert res is not None
    assert res.values[0] == F(1)
    assert res.objective == F(2)


def test_fractional_vertex():
    # x0 + x1 <= 1, x1 + x2 <= 1, x2 + x0 <= 1, maximize sum: vertex (1/2,1/2,1/2)
    res = solve_standard_form(
        3,
        [1] * 3,
        ub_rows=[
            ([(0, 1), (1, 1)], 1),
            ([(1, 1), (2, 1)], 1),
            ([(2, 1), (0, 1)], 1),
        ],
        eq_rows=[],
    )
    assert res is not None
    assert res.objective == F(3, 2)
    assert res.values == (F(1, 2),) * 3


def test_a_warm_start_appends_purges_and_checks_its_start():
    # the triangle at 1/2 each, then its blossom row appended; the box rows
    # are slack at both optima, so their slacks are basic and may be purged
    edges = [([(0, 1), (1, 1)], 1), ([(1, 1), (2, 1)], 1), ([(2, 1), (0, 1)], 1)]
    boxes = [([(j, 1)], 1) for j in range(3)]
    first = solve_standard_form(3, [1] * 3, edges + boxes, [])
    assert first.values == (F(1, 2),) * 3 and first.tableau is not None
    # equality and repr ignore the tableau
    assert first == simplex.LPResult(first.x, first.value, first.d)
    assert repr(first) == repr(simplex.LPResult(first.x, first.value, first.d))
    tab = first.tableau
    kept = copy.deepcopy((tab.rows, tab.basis, tab.cols, tab.d, tab.z, tab.ub_rows))
    blossom = ([(0, 1), (1, 1), (2, 1)], 1)
    second = solve_standard_form(3, [1] * 3, edges + [blossom], [], start=first)
    assert second.objective == 1 and second.x.count(second.d) == 1
    # the start is left as it was, so it can start another solve
    assert (tab.rows, tab.basis, tab.cols, tab.d, tab.z, tab.ub_rows) == kept
    assert solve_standard_form(3, [1] * 3, edges + [blossom], [], start=first) == second
    assert second.objective == solve_standard_form(3, [1] * 3, edges + [blossom], []).objective
    # an edge row is tight at the optimum, with its slack nonbasic
    with pytest.raises(InvariantError, match="slack is nonbasic"):
        solve_standard_form(3, [1] * 3, edges[1:] + boxes, [], start=first)
    # the rows are matched as objects: an equal copy is a new row, and the
    # originals it replaces are purged
    with pytest.raises(InvariantError, match="slack is nonbasic"):
        solve_standard_form(3, [1] * 3, [(list(c), b) for c, b in edges + boxes], [], start=first)
    # the start must carry a tableau over the same variables and rows
    with pytest.raises(ValueError, match="no tableau"):
        solve_standard_form(3, [1] * 3, edges, [], start=simplex.LPResult(first.x, first.value, first.d))
    with pytest.raises(ValueError, match="other variables"):
        solve_standard_form(4, [1] * 4, edges + boxes, [], start=first)
    with pytest.raises(ValueError, match="other variables"):
        solve_standard_form(3, [1] * 3, edges + boxes, [([(0, 1)], 0)], start=first)


def _brute_force_max(n, objective, ub_rows, eq_rows, grid):
    best = None
    for point in product(grid, repeat=n):
        ok = all(
            sum(point[j] * a for j, a in coeffs) <= rhs for coeffs, rhs in ub_rows
        ) and all(
            sum(point[j] * a for j, a in coeffs) == rhs for coeffs, rhs in eq_rows
        )
        if ok:
            val = sum(point[j] * objective[j] for j in range(n))
            if best is None or val > best:
                best = val
    return best


def test_random_small_lps_match_grid_search():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randrange(1, 4)
        objective = [rng.randrange(0, 4) for _ in range(n)]
        ub_rows = []
        for _ in range(rng.randrange(1, 4)):
            coeffs = [(j, rng.randrange(0, 3)) for j in range(n)]
            coeffs = [(j, a) for j, a in coeffs if a != 0]
            if not coeffs:
                continue
            ub_rows.append((coeffs, rng.randrange(1, 4)))
        # box constraints keep the problem bounded and the grid finite
        for j in range(n):
            ub_rows.append(([(j, 1)], 2))
        res = solve_standard_form(n, objective, ub_rows, [])
        assert res is not None
        grid = [F(k, 2) for k in range(0, 5)]
        best = _brute_force_max(n, objective, ub_rows, [], grid)
        # vertices of these integer-data LPs lie on the half-integer grid
        assert best is not None
        assert res.objective >= best
        # solution itself must be feasible
        for coeffs, rhs in ub_rows:
            assert sum(res.values[j] * a for j, a in coeffs) <= rhs


def test_zero_variables():
    assert solve_standard_form(0, [], [], []) is not None
    assert solve_standard_form(0, [], [], [([], 1)]) is None
    res = solve_standard_form(0, [], [], [([], 0)])
    assert res is not None and res.objective == 0


# Reference: the Fraction tableau the integer solver replaced, kept as the
# differential oracle.  It divides the pivot row and deletes the rows still
# basic in an artificial after phase 1.


class _FractionTableau:
    def __init__(self, rows, basis, n_total):
        self.rows = rows
        self.basis = basis
        self.n_total = n_total

    def pivot(self, row, col):
        inv = 1 / self.rows[row][col]
        self.rows[row] = [a * inv for a in self.rows[row]]
        for i, r in enumerate(self.rows):
            factor = r[col]
            if i != row and factor != 0:
                self.rows[i] = [a - factor * b for a, b in zip(r, self.rows[row])]
        self.basis[row] = col


def _fraction_ratio_row(tab, enter):
    """The row of least ratio over the rows with a positive entry in column
    ``enter``, ties to the smallest basic variable; -1 if there is none."""
    leave, best = -1, None
    for i, row in enumerate(tab.rows):
        if row[enter] > 0:
            ratio = row[-1] / row[enter]
            if best is None or ratio < best or (ratio == best and tab.basis[i] < tab.basis[leave]):
                best, leave = ratio, i
    return leave


def _fraction_run_simplex(tab, cost, allowed, limit):
    """Bland's pivot, or while the objective has stood still for at most
    ``limit`` pivots (the integer tableau's row count) the first eligible
    column whose min-ratio element is 1 or -1, if any."""
    stalled, value = 0, None
    while True:
        z = [-cost[j] for j in range(tab.n_total)] + [F(0)]
        for i, row in enumerate(tab.rows):
            cb = cost[tab.basis[i]]
            if cb != 0:
                z = [a + cb * b for a, b in zip(z, row)]
        stalled = stalled + 1 if z[-1] == value else 0
        value = z[-1]
        basic = set(tab.basis)
        eligible = [j for j in range(tab.n_total) if allowed[j] and j not in basic and z[j] > 0]
        if not eligible:
            return
        pivots = [(_fraction_ratio_row(tab, j), j) for j in eligible]
        leave, enter = pivots[0]
        assert leave >= 0, "unbounded"
        if stalled <= limit:
            leave, enter = next(
                ((i, j) for i, j in pivots if i >= 0 and abs(tab.rows[i][j]) == 1), (leave, enter)
            )
        tab.pivot(leave, enter)


def _fraction_solve(n_vars, objective, ub_rows, eq_rows):
    n_slack, n_art = len(ub_rows), len(eq_rows)
    n_total = n_vars + n_slack + n_art
    rows = []
    for i, (coeffs, rhs) in enumerate(list(ub_rows) + list(eq_rows)):
        row = [F(0)] * (n_total + 1)
        for j, a in coeffs:
            row[j] += a
        row[n_vars + i] = F(1)
        row[-1] = F(rhs)
        rows.append(row)
    tab = _FractionTableau(rows, list(range(n_vars, n_total)), n_total)
    if n_art:
        cost = [F(0)] * (n_vars + n_slack) + [F(1)] * n_art
        _fraction_run_simplex(tab, cost, [True] * n_total, n_slack + n_art)
        if sum(row[-1] for row, var in zip(tab.rows, tab.basis) if cost[var]):
            return None
        for i in range(len(tab.rows)):
            if tab.basis[i] >= n_vars + n_slack:
                col = next((j for j in range(n_vars + n_slack) if tab.rows[i][j]), -1)
                if col >= 0:
                    tab.pivot(i, col)
        keep = [i for i, var in enumerate(tab.basis) if var < n_vars + n_slack]
        tab.rows = [tab.rows[i] for i in keep]
        tab.basis = [tab.basis[i] for i in keep]
    cost = [-F(c) for c in objective] + [F(0)] * (n_slack + n_art)
    _fraction_run_simplex(tab, cost, [True] * (n_vars + n_slack) + [False] * n_art, n_slack + n_art)
    x = [F(0)] * n_vars
    for row, var in zip(tab.rows, tab.basis):
        if var < n_vars:
            x[var] = row[-1]
    return x, sum((F(c) * v for c, v in zip(objective, x)), F(0))


def _random_lp(rng):
    """A bounded LP and whether it repeats an equality.  Half have 0/1 data,
    degenerate with many optima like the matching LPs, so Bland's tie-break
    decides the vertex; half have negative coefficients."""
    n = rng.randrange(1, 7)
    lo, hi = (1, 2) if rng.randrange(2) else (-3, 4)

    def row(max_rhs):
        support = rng.sample(range(n), rng.randrange(1, n + 1))
        return [(j, rng.randrange(lo, hi)) for j in support], rng.randrange(0, max_rhs)

    objective = [rng.randrange(min(lo, 0), hi) for _ in range(n)]
    # box rows keep every LP bounded
    ub_rows = [row(6) for _ in range(rng.randrange(0, 6))]
    ub_rows += [([(j, 1)], rng.randrange(1, 4)) for j in range(n)]
    eq_rows = [row(5) for _ in range(rng.randrange(0, 4))]
    redundant = bool(eq_rows) and rng.randrange(2) == 0
    if redundant:  # a copy of an equality, possibly scaled
        coeffs, rhs = rng.choice(eq_rows)
        k = rng.randrange(1, 3)
        eq_rows.append(([(j, k * a) for j, a in coeffs], k * rhs))
    rng.shuffle(eq_rows)
    return (n, objective, ub_rows, eq_rows), redundant


def test_integer_tableau_matches_fraction_reference():
    rng = random.Random(2024)
    outcomes = {"feasible": 0, "infeasible": 0, "redundant": 0}
    for _ in range(1500):
        lp, redundant = _random_lp(rng)
        got = solve_standard_form(*lp)
        want = _fraction_solve(*lp)
        if want is None:
            assert got is None
            outcomes["infeasible"] += 1
            continue
        assert got is not None
        assert (list(got.values), got.objective) == want
        assert got.d > 0 and all(type(num) is int for num in got.x + [got.value])
        outcomes["feasible"] += 1
        outcomes["redundant"] += redundant
    # the generator must exercise every path it was built for
    assert min(outcomes.values()) >= 100, outcomes


def test_non_int_data_rejected():
    # integral Fractions are not int data either; the result's views are
    res = solve_standard_form(1, [2], [([(0, 3)], 6)], [])
    assert res is not None and res.values == (F(2),) and res.objective == F(4)
    for lp in (
        ([F(2)], [([(0, 3)], 6)], []),
        ([2], [([(0, F(3))], 6)], []),
        ([2], [([(0, 3)], F(6))], []),
        ([2], [], [([(0, 3)], F(6))]),
    ):
        with pytest.raises(ValueError, match="must be an int"):
            solve_standard_form(1, *lp)
    with pytest.raises(ValueError):
        solve_standard_form(1, [F(1, 2)], [([(0, 1)], 1)], [])
    with pytest.raises(ValueError):
        solve_standard_form(1, [1], [([(0, F(2, 3))], 1)], [])
    with pytest.raises(ValueError):
        solve_standard_form(1, [1], [], [([(0, 1)], F(1, 2))])
    # floating point and strings are not integer data, even when integral
    with pytest.raises(ValueError):
        solve_standard_form(1, [1.0], [([(0, 1)], 1)], [])
    with pytest.raises(ValueError):
        solve_standard_form(1, [1], [([(0, "1")], 1)], [])
    with pytest.raises(ValueError):
        solve_standard_form(1, [1], [([(0, 1)], 1.5)], [])
    with pytest.raises(ValueError):
        solve_standard_form(1, [1], [], [([(0, 1)], "1")])


def test_inputs_are_left_unchanged():
    rng = random.Random(7)
    for _ in range(200):
        (n, objective, ub_rows, eq_rows), _ = _random_lp(rng)
        before = copy.deepcopy((objective, ub_rows, eq_rows))
        solve_standard_form(n, objective, ub_rows, eq_rows)
        assert (objective, ub_rows, eq_rows) == before


# Reference: the full-width dense Bareiss tableau the condensed one replaced.
# It stores every column, the basic identity block d * e_i included, rebuilds
# every row at every column and runs Bland's rule over all columns, so it
# shows that the condensed rows hold the same integers and take the same path.
# A warm solve builds its tableau afresh at the resumed basis, d * B^-1 of the
# whole LP by Fraction elimination, so the condensed copy, purge and appended
# rows are checked against the definition, not against the same updates.

# bound before any test patches the module
_CondensedTableau, _run_simplex = simplex._Tableau, simplex._run_simplex
_run_dual_simplex = simplex._run_dual_simplex


class _DenseTableau:
    """Integer rows (n_total coefficients + rhs) over the denominator d, and
    the <= rows of the LP they were built from."""

    def __init__(self, rows, basis, n_total, ub_rows, d=1):
        self.rows, self.basis, self.n_total, self.d = rows, basis, n_total, d
        self.ub_rows = tuple(ub_rows)
        self.pivots = 0

    def reduced_costs(self, cost):
        z = [-c * self.d for c in cost] + [0]
        for row, var in zip(self.rows, self.basis):
            z = [a + cost[var] * b for a, b in zip(z, row)]
        return z

    def pivot(self, row, col, *zs):
        """Returns the reduced-cost rows ``zs``, updated like the others."""
        prow, p, d = self.rows[row], self.rows[row][col], self.d
        assert p != 0

        def eliminate(r):
            return [(a * p - r[col] * b) // d for a, b in zip(r, prow)]

        self.rows = [r if i == row else eliminate(r) for i, r in enumerate(self.rows)]
        zs = [eliminate(z) for z in zs]
        self.d, self.basis[row] = p, col
        if p < 0:
            self.rows = [[-a for a in r] for r in self.rows]
            zs = [[-a for a in z] for z in zs]
            self.d = -p
        self.pivots += 1
        return zs


def _dense_run(tab, cost, allowed):
    """Bland's pivot over every column, or while the objective has stood
    still for at most ``len(tab.rows)`` pivots the first eligible column
    whose min-ratio element is d or -d, if any."""
    z = tab.reduced_costs(cost)
    stalled = 0
    while True:
        pivots = []
        for j in range(tab.n_total):
            if z[j] > 0 and allowed[j]:
                candidates = [
                    (Fraction(row[-1], row[j]), tab.basis[i], i)
                    for i, row in enumerate(tab.rows)
                    if row[j] > 0
                ]
                pivots.append((min(candidates)[2] if candidates else -1, j))
        if not pivots:
            return z[-1]
        leave, enter = pivots[0]
        if stalled <= len(tab.rows):
            leave, enter = next(
                ((i, j) for i, j in pivots if i >= 0 and abs(tab.rows[i][j]) == tab.d), (leave, enter)
            )
        value, d = z[-1], tab.d
        (z,) = tab.pivot(leave, enter, z)
        stalled = stalled + 1 if z[-1] * d == value * tab.d else 0


def _dense_dual_run(tab, cost, allowed):
    """The dual simplex with Bland's rule over every column: of the rows with
    a negative rhs, that of the smallest basic variable leaves, and the
    allowed column of least z_j / a_j over a_j < 0 enters, ties to the
    smallest; False iff the leaving row has no such column."""
    z = tab.reduced_costs(cost)
    while True:
        out = [(tab.basis[i], i) for i, row in enumerate(tab.rows) if row[-1] < 0]
        if not out:
            return True
        leave = min(out)[1]
        row = tab.rows[leave]
        candidates = [(Fraction(z[j], row[j]), j) for j in range(tab.n_total) if allowed[j] and row[j] < 0]
        if not candidates:
            return False
        (z,) = tab.pivot(leave, min(candidates)[1], z)


def _dense_rows(n_vars, ub_rows, eq_rows):
    """The LP's rows at full width: the coefficients, 1 at the row's own
    slack or artificial column, and the rhs."""
    n_total = n_vars + len(ub_rows) + len(eq_rows)
    rows = []
    for i, (coeffs, rhs) in enumerate(list(ub_rows) + list(eq_rows)):
        row = [0] * (n_total + 1)
        for j, a in coeffs:
            row[j] += int(a)
        row[n_vars + i], row[-1] = 1, int(rhs)
        rows.append(row)
    return rows


def _dense_at_basis(n_vars, ub_rows, eq_rows, basis):
    """The LP's full-width tableau at ``basis``, computed afresh: d * B^-1 of
    its rows, with d = |det B|, by Fraction Gauss-Jordan elimination; row i
    is that of the variable basis[i]."""
    rows = _dense_rows(n_vars, ub_rows, eq_rows)
    k = len(rows)
    aug = [[F(r[var]) for var in basis] + [F(a) for a in r] for r in rows]
    det = F(1)
    for c in range(k):
        p = next(i for i in range(c, k) if aug[i][c])
        if p != c:
            aug[c], aug[p], det = aug[p], aug[c], -det
        pivot = aug[c][c]
        det *= pivot
        aug[c] = [a / pivot for a in aug[c]]
        for i in range(k):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    d = abs(det)
    full = [[a * d for a in r[k:]] for r in aug]
    assert all(a.denominator == 1 for r in full for a in r)
    n_total = len(rows[0]) - 1
    return _DenseTableau([[int(a) for a in r] for r in full], list(basis), n_total, ub_rows, int(d))


def _dense_solve(n_vars, objective, ub_rows, eq_rows, made, start=None):
    """The integer solver on full-width rows; appends its tableau to ``made``.
    With ``start``, a result of this function, it rebuilds the tableau at
    start's final basis over the new rows (a purged row's slack must be
    basic there; each appended row's slack joins the basis) and runs the
    dual simplex."""
    n_slack, n_art = len(ub_rows), len(eq_rows)
    n_total = n_vars + n_slack + n_art
    cost = [-int(c) for c in objective] + [0] * (n_slack + n_art)
    allowed = [True] * (n_vars + n_slack) + [False] * n_art
    if start is not None:
        prev = start.tableau
        # start's rows that ub_rows repeats at its front, as the same
        # objects and in order, keep their slack; the others are purged
        index, kept = list(range(n_vars)), 0
        for row in prev.ub_rows:
            repeated = kept < n_slack and ub_rows[kept] is row
            index.append(n_vars + kept if repeated else None)
            kept += repeated
        index += range(n_vars + n_slack, n_total)
        assert all(index[var] is not None for var in range(prev.n_total) if var not in prev.basis)
        basis = [index[var] for var in prev.basis if index[var] is not None]
        basis += range(n_vars + kept, n_vars + n_slack)
        tab = _dense_at_basis(n_vars, ub_rows, eq_rows, basis)
        made.append(tab)
        if not _dense_dual_run(tab, cost, allowed):
            return None
    else:
        rows = _dense_rows(n_vars, ub_rows, eq_rows)
        tab = _DenseTableau(rows, list(range(n_vars, n_total)), n_total, ub_rows)
        made.append(tab)
        if n_art:
            if _dense_run(tab, [0] * (n_vars + n_slack) + [1] * n_art, [True] * n_total):
                return None
            for i in range(len(tab.rows)):
                if tab.basis[i] >= n_vars + n_slack:
                    col = next((j for j in range(n_vars + n_slack) if tab.rows[i][j]), -1)
                    if col >= 0:
                        tab.pivot(i, col)
        _dense_run(tab, cost, allowed)
    x = [0] * n_vars
    for row, var in zip(tab.rows, tab.basis):
        if var < n_vars:
            x[var] = row[-1]
    value = sum(int(c) * v for c, v in zip(objective, x))
    return simplex.LPResult(x, value, tab.d, tab)


def _full(tab, r, i=None):
    """Condensed row ``r`` (row i of ``tab``, or the carried reduced-cost
    row) at full width: slot j in column cols[j], d at the row's own basic
    column and 0 at every other."""
    full = [0] * (len(tab.basis) + len(tab.cols) + 1)
    for var, a in zip(tab.cols, r):
        full[var] = a
    if i is not None:
        full[tab.basis[i]] = tab.d
    full[-1] = r[-1]
    return full


def _lockstep(cases, made, lps):
    """The production tableau driven beside a full-width dense shadow: both
    take the same pivot, and afterwards every stored row, rhs included,
    must be the shadow's row at the stored columns, with the shadow's basic
    columns d * e_i, and basis and d must agree.  So must every reduced-cost
    row the pivot carries (z = 0 on the basic columns): phase 1's and phase
    2's through phase 1, phase 2's alone through the drive-out, phase 2 and
    the dual simplex.  The shadow starts from the LP last appended to
    ``lps``: the rows as given, for a cold solve, or the tableau rebuilt
    afresh at the resumed basis, for a warm one (``_dense_at_basis``), so
    every copied, purged and appended row is checked against the B^-1 form
    before the first dual pivot.  ``run`` and ``run_dual`` replace the
    simplex loops and check at the start of each phase that the rows they
    price from and carry equal a fresh dense reduced-cost computation.
    Appends each tableau to ``made``; ``cases`` counts the pivot kinds
    exercised and the pivots at d > 1 on 30 rows or more."""

    class Lockstep(_CondensedTableau):
        def __init__(self, rows, basis, cols):
            super().__init__(rows, basis, cols)
            self.runs = self.pivots = 0
            self.dual = False
            made.append(self)

        def start_phase(self, costs, z, *carried):
            """Starts or checks the shadow, then checks the priced rows."""
            n_vars, _, ub_rows, eq_rows = lps[-1]
            if self.runs == 0:
                if self.dual:
                    dense = _dense_at_basis(n_vars, ub_rows, eq_rows, self.basis)
                else:
                    n_total = n_vars + len(ub_rows) + len(eq_rows)
                    rows = _dense_rows(n_vars, ub_rows, eq_rows)
                    dense = _DenseTableau(rows, list(range(n_vars, n_total)), n_total, ub_rows)
                assert [_full(self, r, i) for i, r in enumerate(self.rows)] == dense.rows
                assert (self.basis, self.d) == (dense.basis, dense.d)
                self.dense, self.costs = dense, costs
            fresh = [self.dense.reduced_costs(c) for c in self.costs[self.runs :]]
            assert [_full(self, r) for r in (z, *carried)] == fresh
            self.dense_z = fresh
            self.runs += 1

        @staticmethod
        def run(tab, z, n_allowed, *carried):
            n_vars, objective, ub_rows, eq_rows = lps[-1]
            n_slack, n_art = len(ub_rows), len(eq_rows)
            # phase 1's cost, when there are equality rows, then phase 2's
            costs = [[0] * (n_vars + n_slack) + [1] * n_art] if n_art else []
            costs.append([-int(c) for c in objective] + [0] * (n_slack + n_art))
            cases["phase 2 after phase 1"] += tab.runs == 1
            tab.start_phase(costs, z, *carried)
            return _run_simplex(tab, z, n_allowed, *carried)

        @staticmethod
        def run_dual(tab, z, n_allowed):
            n_vars, objective, ub_rows, eq_rows = lps[-1]
            cost = [-int(c) for c in objective] + [0] * (len(ub_rows) + len(eq_rows))
            tab.dual = True
            tab.start_phase([cost], z)
            feasible = _run_dual_simplex(tab, z, n_allowed)
            cases["infeasible exit"] += not feasible
            return feasible

        def pivot(self, row, s, *carried):
            p, d = self.rows[row][s], self.d
            if self.dual:
                cases[f"dual, d {'= 1' if d == 1 else '> 1'}"] += 1
            elif p == -d:
                cases["p = -d"] += 1
            else:
                kind = "p = d" if p == d else "p != +-d"
                cases[f"{kind}, d {'= 1' if d == 1 else '> 1'}"] += 1
                cases["p < 0, p != -d"] += p < 0
            cases["d > 1, 30+ rows"] += d > 1 and len(self.rows) >= 30
            cases["drive-out"] += not self.dual and self.runs == 1 and len(carried) == 1
            # phase 1's row is no longer carried once phase 1 ends
            del self.dense_z[: len(self.dense_z) - len(carried)]
            self.dense_z = self.dense.pivot(row, self.cols[s], *self.dense_z)
            super().pivot(row, s, *carried)
            self.pivots += 1
            assert [_full(self, r, i) for i, r in enumerate(self.rows)] == self.dense.rows
            assert self.basis == self.dense.basis
            assert self.d == self.dense.d
            assert [_full(self, z) for z in carried] == self.dense_z

    return Lockstep


def _matching_lp(rng, n_lo=3, n_hi=10, sparsity=3):
    """A color-constrained matching instance for ``lpface``: a random graph
    on n_lo..n_hi vertices, each pair an edge with probability 1/sparsity,
    and the profile of a random matching, or random counts that may be
    infeasible."""
    n = rng.randrange(n_lo, n_hi + 1)
    edges = [
        (u, v, rng.choice("RBY"))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.randrange(sparsity) == 0
    ]
    g = ColoredGraph(n, edges)
    if rng.randrange(4):
        used, kr, kb = set(), 0, 0
        for u, v, c in rng.sample(edges, len(edges)):
            if not used & {u, v}:
                used |= {u, v}
                kr, kb = kr + (c == "R"), kb + (c == "B")
    else:
        kr, kb = rng.randrange(4), rng.randrange(4)
    return g, kr, kb


def _solve_matching_lp(g, kr, kb, solver):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpface, "solve_standard_form", solver)
        return solve_lp(build_lp(g, kr, kb))


def _solve_lp(lp, solver):
    return solver(*lp)


# Edge cases: no variables, a coefficient-free equality row with rhs 0 and
# with rhs > 0, a redundant equality row left basic in its artificial, and
# duplicate coefficients of one variable in a row.
_EDGE_LPS = [
    (0, [], [], []),
    (0, [], [([], 2)], []),
    (0, [], [], [([], 0)]),
    (0, [], [], [([], 1)]),
    (2, [1, 1], [([(0, 1)], 1), ([(1, 1)], 1)], [([], 0)]),
    (2, [1, 1], [([(0, 1)], 1), ([(1, 1)], 1)], [([], 3)]),
    (2, [1, 1], [([(0, 1), (1, 1)], 2)], [([(0, 1)], 1), ([(0, 1)], 1)]),
    (2, [1, 2], [([(0, 1), (0, 1), (1, 2)], 3), ([(1, 1), (1, -1), (1, 1)], 1)], [([(0, 2), (0, -1)], 1)]),
]


def _solve_warm_lp(lp, seed, solver):
    """``lp``, then three warm rounds, each purging some of the <= rows
    slack at the last optimum and appending random rows, which may cut it
    off or make the LP infeasible."""
    rng = random.Random(seed)
    n, objective, ub_rows, eq_rows = lp
    res = solver(n, objective, ub_rows, eq_rows)
    for _ in range(3):
        if res is None:
            return None
        x = res.values
        ub_rows = [
            row for row in ub_rows if rng.randrange(2) or sum(x[j] * a for j, a in row[0]) == row[1]
        ]
        for _ in range(rng.randrange(1, 4)):
            support = rng.sample(range(n), rng.randrange(1, n + 1))
            ub_rows.append(([(j, rng.randrange(-1, 3)) for j in support], rng.randrange(0, 3)))
        res = solver(n, objective, ub_rows, eq_rows, start=res)
    return res


def test_sparse_pivot_matches_dense_reference(monkeypatch):
    rng = random.Random(99)
    solves = [partial(_solve_lp, lp) for lp in _EDGE_LPS]
    solves += [partial(_solve_lp, _random_lp(rng)[0]) for _ in range(1500)]
    solves += [partial(_solve_matching_lp, *_matching_lp(rng)) for _ in range(150)]
    # larger graphs, whose separation rounds reach 30 rows and more at d > 1
    big = random.Random(44)
    solves += [partial(_solve_matching_lp, *_matching_lp(big, 12, 16, 4)) for _ in range(10)]
    # round 2 of this request is infeasible
    solves.append(partial(_solve_matching_lp, LATER_ROUND_INFEASIBLE, 2, 1))
    # warm rounds on the generic LPs, at d = 1 more often than the matching LPs
    warm = random.Random(5)
    solves += [partial(_solve_warm_lp, _random_lp(warm)[0], seed) for seed in range(300)]
    cases = Counter()
    made: list = []
    lps: list = []
    lockstep = _lockstep(cases, made, lps)
    monkeypatch.setattr(simplex, "_Tableau", lockstep)
    monkeypatch.setattr(simplex, "_run_simplex", lockstep.run)
    monkeypatch.setattr(simplex, "_run_dual_simplex", lockstep.run_dual)

    def recorded(*lp, start=None):
        lps.append(lp)
        if start is not None:
            kept = sum(any(row is r for r in lp[2]) for row in start.tableau.ub_rows)
            cases["purged rows"] += len(start.tableau.ub_rows) - kept
            cases["appended rows"] += len(lp[2]) - kept
        res = solve_standard_form(*lp, start=start)
        made[-1].feasible = res is not None
        return res

    finals = []
    for solve in solves:
        dense_made: list = []
        want = solve(partial(_dense_solve, made=dense_made))
        made.clear()
        got = solve(recorded)
        assert got == want
        assert [t.pivots for t in made] == [t.pivots for t in dense_made]
        # every phase started from checked rows; an LP infeasible in phase 1
        # has no phase 2, and a warm solve runs the dual simplex alone
        assert all(t.runs == len(t.costs) - (not t.feasible and not t.dual) for t in made)
        finals.append([t.basis for t in made])
    # the redundant equality row stays basic in its artificial, variable 4
    assert 4 in finals[6][0]
    # every branch of the pivot, and pivots at d > 1 on 30 rows or more
    assert cases.pop("d > 1, 30+ rows", 0) >= 5, cases
    # and the phase-2 row carried through drive-out pivots into phase 2
    assert cases.pop("drive-out", 0) >= 300 and cases.pop("phase 2 after phase 1", 0) >= 300, cases
    # warm rounds: rows purged and appended, dual pivots at d = 1 and d > 1,
    # and the dual simplex's infeasible exit
    warm = {key: cases.pop(key, 0) for key in ("purged rows", "appended rows", "dual, d = 1", "dual, d > 1")}
    assert cases.pop("infeasible exit", 0) >= 10 and min(warm.values()) >= 30, (warm, cases)
    assert len(cases) == 6 and min(cases.values()) >= 30, cases
