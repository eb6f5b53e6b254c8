"""Exact two-phase simplex in integers, pivoting on an element of d where an
eligible column allows it and by Bland's anti-cycling rule where it must,
and its dual form for warm starts after rows are added.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968): it holds integers
over one positive common denominator ``d = |det B|``, and every entry is a
minor of the integer input, so each division is exact and the solver never
builds a ``Fraction``: it reports the solution in those integers too.

It is condensed, as in Avis's lrs (2000): the column of the variable basic
in row i is always ``d * e_i``, so a row stores only one integer per
nonbasic variable, ``cols[j]`` naming the variable in slot j, plus the rhs.
The full tableau's Bareiss update on ``p = T[r][s]`` maps each entry ``a``
of every other row, and of the carried reduced-cost rows, to
``(a*p - f*b) // d``, where ``f`` is the row's entry in the entering
column and ``b`` the pivot row's in a's column, makes ``p`` the new ``d``
and, when ``p < 0``, negates everything to keep ``d`` positive.  The
condensed pivot folds that sign into the pivot row: when ``p < 0`` it
negates that row alone, first, so that its slot s holds ``q = |p|``; every
other row then maps ``a`` to ``(a*q - f*b) // d`` at each slot ``j != s``,
and slot s takes the column of the leaving variable, ``-f`` (``f`` when
``p < 0``).  The pivot row, which the update leaves alone, takes ``d``
(``-d`` when ``p < 0``) at slot s, ``d`` becomes ``q``, and the entering
and the leaving variable swap between ``basis[r]`` and ``cols[s]``.  So
every stored integer is the same minor as the full tableau's entry for
that variable, and a pivot rule reading them takes the same pivots.

A minor is one integer however it is computed, so the pivot does only the
work that changes an entry.  When ``p = d`` or ``p = -d`` (``q = d``), as
on most pivots of the 0/1 matching models, the new entry ``a - f*b/d`` is
an integer, so ``d`` divides ``f*b``: a row with ``f = 0`` is left alone,
and any other row changes in place at the pivot row's nonzero slots only,
by ``f*b // d``, and at slot s; ``d`` stays.  Otherwise a row with
``f = 0`` is rescaled to ``a*q // d`` (itself a minor) and any other row
takes the full formula.  At ``d = 1`` no update divides.

Both phases price from reduced-cost rows kept beside the tableau, as in the
textbook two-phase method.  At the starting basis (the slacks and the
artificials), phase 1's row, for the sum of the artificials, is the column
sum of the equality rows, and phase 2's, for ``-c.x``, is ``c`` with a 0
rhs.  Every phase-1 pivot and every pivot that drives an artificial out
updates the phase-2 row like any other row, so phase 2 starts from it.

A feasible solve keeps its final tableau (rows, basis, cols, d, the
phase-2 reduced-cost row and the ``<=`` rows it was built from) in its
``LPResult``, and a later solve over the same variables, objective and
equality rows can start from it (``start=``), as a cutting-plane loop
re-optimizes after adding rows (Lemke 1954).  The copy drops the rows the
caller purged (``solve_standard_form`` states which rows those are): each
must have its slack basic, so its row holds the slack
alone among the other rows' constraints, deleting it is exact and ``d``
stays ``|det B|``; a purged row with a nonbasic slack raises
``InvariantError``.  Each new ``<=`` row ``a.x <= b`` is appended in the
current basis with its own slack basic: it starts as ``d * (a_N, b)`` and
loses, as whole-row operations, ``a_j`` times the row of each basic
variable j it contains.  That is the bordered basis's row ``d * (a - a_B
B^-1 A)``, and the bordered determinant is ``+-d``, so the row is one more
Bareiss minor over the same ``d``.  Variables keep Bland's order
(structurals, then slacks in row order, then artificials), renumbered only
to close up purged slacks.  The phase-2 row is still optimal, every
reduced cost at most 0, and only the appended rows' rhs may be negative, so
the dual simplex takes over with Bland's rule for it: of the rows with a
negative rhs, the one whose basic variable has the smallest index leaves,
and of the allowed columns with a negative entry there, the one with the
least ratio ``z_j / a_j`` enters, ties to the smallest index.  The pivot is
the same sign-folded update (here always ``p < 0``).  A leaving row with no
such column sums variables that are all >= 0 (the artificials are 0) to a
negative rhs, so the LP is infeasible and the solve returns None.
Artificials never re-enter.

The guarantees downstream are combinatorial equalities and inequalities on
integers, so floating point is disqualified.  The primal pivot choice
starts from Bland's rule: the smallest eligible variable (allowed, with a
positive reduced cost) enters, and of the rows of least ratio rhs / a over
a > 0 the one whose basic variable is smallest leaves.  That pivot is taken
when its element is d.  Otherwise the same ratio test runs on the later
eligible variables in variable order, and the first whose element is d
enters at its row; if none has one, Bland's pivot is taken.  A pivot on d
is the cheap kind above, which leaves the rows with ``f = 0`` and d alone,
where any other element rewrites every row.  Once the objective has stood
still for more pivots than the tableau has rows, only Bland's pivot is
taken until it moves.  The choice is deterministic, and the loop ends:
every pivot enters an eligible column at a min-ratio row, so the objective
never worsens, and a pivot that changes it improves it, so no basis recurs
across a change and only finitely many pivots change it; in a stretch
where it stands still, the pivots past ``len(rows)`` are Bland's, which
never cycle (Bland 1977), so every such stretch ends.  The dual simplex
takes Bland's pivot alone.

A run that breaks an invariant could still revisit a basis and loop
forever, so both pivot loops raise ``InvariantError`` when a basis recurs
while the objective stands still, which a correct run never does.  They
record the bases of a degenerate stretch (pivots that leave the objective
unchanged) only past as many pivots as the tableau has rows, where the
primal loop takes Bland's pivots alone: short stretches are common and cost
nothing, and a cycle repeats, so it is still caught on a later lap.

The interface is standard form:

    maximize c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0

with ``int`` data and all right-hand sides nonnegative, which is the only
case the callers here produce.
Returns a basic optimal solution (a vertex of the feasible region) as an
``LPResult``, the final tableau's integers over its denominator, or None when
infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Sequence

from .errors import InvariantError

Row = tuple[Sequence[tuple[int, int]], int]


@dataclass(frozen=True)
class LPResult:
    """A basic optimum as the final tableau holds it, x_j = x[j] / d at
    objective value / d, with ``Fraction`` views built on first read.
    ``tableau`` is that tableau, the start of a warm solve; equality and
    ``repr`` ignore it."""

    x: list[int]
    value: int
    d: int
    tableau: _Tableau | None = field(default=None, compare=False, repr=False)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(num, self.d) for num in self.x)

    @property
    def objective(self) -> Fraction:
        return Fraction(self.value, self.d)


def _integral(value) -> int:
    if isinstance(value, int):
        return int(value)
    raise ValueError(f"LP data must be an int, got {value!r}")


class _Tableau:
    """Condensed integer rows over the denominator d: slot j holds the entry
    of the nonbasic variable ``cols[j]``, the last slot the rhs, and the
    basic column of row i, always d * e_i, is not stored.

    A feasible solve keeps its final tableau in its ``LPResult``, with the
    phase-2 reduced-cost row ``z`` and the ``<=`` rows ``ub_rows`` it was
    built from, so that the next solve can start from it."""

    def __init__(self, rows: list[list[int]], basis: list[int], cols: list[int]):
        self.rows = rows
        self.basis = basis        # basis[i] = variable index basic in row i
        self.cols = cols          # cols[j] = variable index held in slot j
        self.d = 1
        self.z: list[int] = []    # the phase-2 reduced-cost row, once solved
        self.ub_rows: tuple[Row, ...] = ()

    def pivot(self, row: int, s: int, *carried: list[int]) -> None:
        """Sign-folded Bareiss pivot on (row, slot s) in place (see the
        module docstring), swapping ``basis[row]`` into slot s; the carried
        reduced-cost rows are updated in place like any other row."""
        prow = self.rows[row]
        p = prow[s]
        if p == 0:
            raise InvariantError("pivot on zero element")
        d, q = self.d, abs(p)
        if p < 0:
            prow[:] = [-a for a in prow]
        if q == d:
            nonzero = [(j, b) for j, b in enumerate(prow) if b and j != s]
            for r in chain(self.rows, carried):
                f = r[s]
                if not f or r is prow:
                    continue
                if d != 1:
                    for j, b in nonzero:
                        r[j] -= f * b // d
                else:
                    for j, b in nonzero:
                        r[j] -= f * b
                r[s] = -f if p > 0 else f
        else:
            for r in chain(self.rows, carried):
                if r is prow:
                    continue
                f = r[s]
                if not f:
                    r[:] = [a * q for a in r] if d == 1 else [a * q // d for a in r]
                    continue
                if d == 1:
                    r[:] = [a * q - f * b for a, b in zip(r, prow)]
                else:
                    r[:] = [(a * q - f * b) // d for a, b in zip(r, prow)]
                r[s] = -f if p > 0 else f
        prow[s] = d if p > 0 else -d
        self.d = q
        self.basis[row], self.cols[s] = self.cols[s], self.basis[row]


def _min_ratio(rows: list[list[int]], basis: list[int], enter: int) -> int:
    """The row of least ratio rhs / a over the rows with a > 0 in slot
    ``enter``, ties to the smallest basic variable; -1 if there is none."""
    leave = -1
    for i, row in enumerate(rows):
        a = row[enter]
        if a > 0:
            if leave >= 0:
                # rhs_i / a < rhs_leave / a_leave, cross-multiplied (a > 0)
                diff = row[-1] * lead_a - lead_b * a
                if diff > 0 or (diff == 0 and basis[i] > basis[leave]):
                    continue
            leave, lead_a, lead_b = i, a, row[-1]
    return leave


def _run_simplex(tab: _Tableau, z: list[int], n_allowed: int, *carried: list[int]) -> int:
    """Minimize in place from the reduced-cost row z, entering only
    variables below ``n_allowed`` and updating the ``carried`` rows with
    every pivot, by Bland's rule or, while the objective has not stood
    still for more than ``len(rows)`` pivots, by the first eligible column
    in variable order whose min-ratio element is d (see the module
    docstring); returns d times the optimum."""
    rows, basis, cols = tab.rows, tab.basis, tab.cols
    stalled = 0  # pivots since the objective last changed
    seen: set[frozenset[int]] = set()  # bases past len(rows) of those pivots
    while True:
        enter, first = -1, n_allowed
        for j, var in enumerate(cols):
            if var < first and z[j] > 0:
                enter, first = j, var
        if enter < 0:
            return z[-1]
        leave = _min_ratio(rows, basis, enter)
        if leave < 0:
            raise InvariantError("LP unbounded; impossible for bounded models")
        d = tab.d
        if rows[leave][enter] != d and stalled <= len(rows):
            for _, j in sorted((var, j) for j, var in enumerate(cols) if first < var < n_allowed and z[j] > 0):
                i = _min_ratio(rows, basis, j)
                if i >= 0 and rows[i][j] == d:
                    leave, enter = i, j
                    break
        value = z[-1]
        tab.pivot(leave, enter, z, *carried)
        if z[-1] * d != value * tab.d:
            stalled = 0
            seen.clear()
            continue
        stalled += 1
        if stalled > len(rows):
            key = frozenset(basis)
            if key in seen:
                raise InvariantError("simplex revisited a basis; Bland's rule never cycles")
            seen.add(key)


def _run_dual_simplex(tab: _Tableau, z: list[int], n_allowed: int) -> bool:
    """Restore a negative rhs by the dual simplex with Bland's rule, in
    place, from a reduced-cost row z with no positive entry below
    ``n_allowed``, entering only variables below it; False iff some row
    shows the LP infeasible."""
    rows, basis, cols = tab.rows, tab.basis, tab.cols
    stalled = 0  # pivots since the objective last changed
    seen: set[frozenset[int]] = set()  # bases past len(rows) of those pivots
    while True:
        leave, first = -1, len(basis) + len(cols)
        for i, row in enumerate(rows):
            if row[-1] < 0 and basis[i] < first:
                leave, first = i, basis[i]
        if leave < 0:
            return True
        row = rows[leave]
        enter = -1
        for j, var in enumerate(cols):
            a = row[j]
            if a < 0 and var < n_allowed:
                if enter >= 0:
                    # z_j / a < z_enter / a_enter, cross-multiplied (a * a_enter > 0)
                    diff = z[j] * lead_a - lead_z * a
                    if diff > 0 or (diff == 0 and var > cols[enter]):
                        continue
                enter, lead_a, lead_z = j, a, z[j]
        if enter < 0:
            # the row sums nonnegative multiples of variables that are >= 0
            # (the artificials are 0) to a negative rhs
            return False
        value, d = z[-1], tab.d
        tab.pivot(leave, enter, z)
        if z[-1] * d != value * tab.d:
            stalled = 0
            seen.clear()
            continue
        stalled += 1
        if stalled > len(rows):
            key = frozenset(basis)
            if key in seen:
                raise InvariantError("simplex revisited a basis; Bland's rule never cycles")
            seen.add(key)


def _integer_rows(rows: Sequence[Row], width: int) -> list[list[int]]:
    """Sparse rows as integers: coefficients at slots 0..width-1, rhs last."""
    out = []
    for coeffs, rhs in rows:
        rhs = rhs if type(rhs) is int else _integral(rhs)
        if rhs < 0:
            raise ValueError("right-hand sides must be nonnegative")
        row = [0] * (width + 1)
        for j, a in coeffs:
            row[j] += a if type(a) is int else _integral(a)
        row[-1] = rhs
        out.append(row)
    return out


def _resume(start: _Tableau, n_vars: int, ub: tuple[Row, ...], n_eq: int) -> _Tableau:
    """A copy of ``start``'s final tableau over the <= rows ``ub``, in the
    copied basis plus the slack of every appended row: kept, purged and
    appended rows as ``solve_standard_form`` defines them, the copy as the
    module docstring describes it."""
    old = start.ub_rows
    if len(start.rows) + len(start.cols) != n_vars + len(old) + n_eq:
        raise ValueError("start was solved over other variables or equality rows")
    n_slack = len(ub)
    # the new index of each old variable, -1 for the slack of a purged row:
    # kept slacks close up in order, and the artificials follow every slack
    index = list(range(n_vars)) + [-1] * len(old)
    index += range(n_vars + n_slack, n_vars + n_slack + n_eq)
    kept = 0
    for i, row in enumerate(old):
        if kept < n_slack and ub[kept] is row:
            index[n_vars + i] = n_vars + kept
            kept += 1
    cols = [index[var] for var in start.cols]
    if -1 in cols:
        raise InvariantError("a purged row's slack is nonbasic")
    rows: list[list[int]] = []
    basis: list[int] = []
    for row, var in zip(start.rows, start.basis):
        if index[var] >= 0:  # a purged row's slack is basic: drop its row
            rows.append(row[:])
            basis.append(index[var])
    tab = _Tableau(rows, basis, cols)
    d = tab.d = start.d
    tab.z = start.z[:]
    slot = {var: j for j, var in enumerate(cols) if var < n_vars}
    basic_row = {var: rows[i] for i, var in enumerate(basis) if var < n_vars}
    for slack, a in enumerate(_integer_rows(ub[kept:], n_vars), n_vars + kept):
        # d * (a_N, b) less a_j times the row of each basic variable j: the
        # row in the bordered basis, whose determinant is +-d
        row = [0] * len(cols) + [d * a[-1]]
        for var, j in slot.items():
            row[j] = d * a[var]
        terms = [
            brow if f == 1 else [f * y for y in brow]
            for var, brow in basic_row.items()
            if (f := a[var])
        ]
        if terms:
            row = [x - t for x, t in zip(row, map(sum, zip(*terms)))]
        rows.append(row)
        basis.append(slack)
    return tab


def solve_standard_form(
    n_vars: int,
    objective: Sequence[int],
    ub_rows: Sequence[Row],
    eq_rows: Sequence[Row],
    start: LPResult | None = None,
) -> LPResult | None:
    """Maximize objective subject to sparse <= and = rows; None if infeasible.

    Rows are (sparse coefficients, rhs) with rhs >= 0 required; every number
    must be an ``int``, else ValueError.  The arguments are not modified.

    With ``start``, a result of a solve with the same ``n_vars``,
    ``objective`` and ``eq_rows``, the solve resumes from its final tableau
    by the dual simplex.  Which of ``start``'s rows are kept goes by object
    identity, not equality: a row of ``start`` is kept when ``ub_rows``
    lists that same object again, in ``start``'s order, in its leading
    part; every other row of ``start`` is purged, and each purged row must
    have its slack basic, else InvariantError.  Every entry of ``ub_rows``
    past the kept ones is appended as a new row, so a row equal to a kept
    one but a new object, or an old row out of order, counts as purged and
    appended again.
    """
    ub = tuple(ub_rows)
    n_slack = len(ub)
    n_art = len(eq_rows)
    obj = [c if type(c) is int else _integral(c) for c in objective]

    if start is not None:
        if start.tableau is None:
            raise ValueError("start carries no tableau")
        tab = _resume(start.tableau, n_vars, ub, n_art)
        z2 = tab.z
        if not _run_dual_simplex(tab, z2, n_vars + n_slack):
            return None
    else:
        n_total = n_vars + n_slack + n_art
        rows = _integer_rows((*ub, *eq_rows), n_vars)
        tab = _Tableau(rows, list(range(n_vars, n_total)), list(range(n_vars)))
        # the phase-2 row (minimize -c.x) at the all-slack basis, carried
        # through phase 1 and the drive-out
        z2 = obj + [0]

        if n_art:
            # phase 1 minimizes the artificials' sum: its row starts as the
            # column sum of the equality rows, whose artificials are basic
            if _run_simplex(tab, [sum(col) for col in zip(*rows[n_slack:])], n_total, z2):
                return None
            # drive remaining artificial variables out of the basis on the
            # smallest non-artificial variable with a nonzero entry (every
            # basic one has 0 in this row); a row with none is redundant
            # (rhs 0) and stays basic in its artificial, never a pivot row
            # again
            for i in range(len(tab.rows)):
                if tab.basis[i] >= n_vars + n_slack:
                    row = tab.rows[i]
                    s = min(
                        (j for j, var in enumerate(tab.cols) if var < n_vars + n_slack and row[j]),
                        key=tab.cols.__getitem__,
                        default=-1,
                    )
                    if s >= 0:
                        tab.pivot(i, s, z2)

        _run_simplex(tab, z2, n_vars + n_slack)
        tab.z = z2
    tab.ub_rows = ub

    x_num = [0] * n_vars
    for row, var in zip(tab.rows, tab.basis):
        if var < n_vars:
            x_num[var] = row[-1]
    return LPResult(x_num, sum(c * x for c, x in zip(obj, x_num)), tab.d, tab)
