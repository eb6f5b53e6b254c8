"""Exact two-phase simplex with Bland's anti-cycling rule, in integers.

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
that variable, and Bland's rule, taking the smallest nonbasic variable
with a positive reduced cost, takes the same pivots.

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

The guarantees downstream are combinatorial equalities and inequalities on
integers, so floating point is disqualified.  Bland's rule (smallest
eligible index enters, smallest basic variable leaves among ratio ties)
makes the solver deterministic and immune to cycling.  A run that breaks
an invariant could still revisit a basis and loop forever, so the pivot loop
raises ``InvariantError`` when a basis recurs while the objective stands
still, which a correct Bland run never does.  It records the bases of a
degenerate stretch (pivots that leave the objective unchanged) only past as
many pivots as the tableau has rows: short stretches are common and cost
nothing, and a cycle repeats, so it is still caught on a later lap.

The interface is standard form:

    maximize c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0

with integer data (``int`` or integral ``Fraction``) and all right-hand
sides nonnegative, which is the only case the callers here produce.
Returns a basic optimal solution (a vertex of the feasible region) as an
``LPResult``, the final tableau's integers over its denominator, or None when
infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import InvariantError


@dataclass(frozen=True)
class LPResult:
    """A basic optimum as the final tableau holds it, x_j = x[j] / d at
    objective value / d, with ``Fraction`` views built on first read."""

    x: list[int]
    value: int
    d: int

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(num, self.d) for num in self.x)

    @property
    def objective(self) -> Fraction:
        return Fraction(self.value, self.d)


def _integral(value) -> int:
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    raise ValueError(f"LP data must be an int or an integral Fraction, got {value!r}")


class _Tableau:
    """Condensed integer rows over the denominator d: slot j holds the entry
    of the nonbasic variable ``cols[j]``, the last slot the rhs, and the
    basic column of row i, always d * e_i, is not stored."""

    def __init__(self, rows: list[list[int]], basis: list[int], cols: list[int]):
        self.rows = rows
        self.basis = basis        # basis[i] = variable index basic in row i
        self.cols = cols          # cols[j] = variable index held in slot j
        self.d = 1

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
        others = [r for r in self.rows if r is not prow]
        others += carried
        if q == d:
            nonzero = [(j, b) for j, b in enumerate(prow) if b and j != s]
            for r in others:
                f = r[s]
                if not f:
                    continue
                if d == 1:
                    for j, b in nonzero:
                        r[j] -= f * b
                else:
                    for j, b in nonzero:
                        r[j] -= f * b // d
                r[s] = -f if p > 0 else f
        else:
            for r in others:
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


def _run_simplex(tab: _Tableau, z: list[int], n_allowed: int, *carried: list[int]) -> int:
    """Minimize with Bland's rule in place from the reduced-cost row z,
    entering only variables below ``n_allowed`` and updating the ``carried``
    rows with every pivot; returns d times the optimum."""
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
        if leave < 0:
            raise InvariantError("LP unbounded; impossible for bounded models")
        value, d = z[-1], tab.d
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


def solve_standard_form(
    n_vars: int,
    objective: Sequence[int | Fraction],
    ub_rows: Sequence[tuple[Sequence[tuple[int, int | Fraction]], int | Fraction]],
    eq_rows: Sequence[tuple[Sequence[tuple[int, int | Fraction]], int | Fraction]],
) -> LPResult | None:
    """Maximize objective subject to sparse <= and = rows; None if infeasible.

    Rows are (sparse coefficients, rhs) with rhs >= 0 required; every number
    must be an ``int`` or an integral ``Fraction``, else ValueError.  The
    arguments are not modified.
    """
    n_slack = len(ub_rows)
    n_art = len(eq_rows)
    n_total = n_vars + n_slack + n_art

    rows: list[list[int]] = []
    for coeffs, rhs in list(ub_rows) + list(eq_rows):
        rhs = rhs if type(rhs) is int else _integral(rhs)
        if rhs < 0:
            raise ValueError("right-hand sides must be nonnegative")
        row = [0] * (n_vars + 1)
        for j, a in coeffs:
            row[j] += a if type(a) is int else _integral(a)
        row[-1] = rhs
        rows.append(row)
    obj = [c if type(c) is int else _integral(c) for c in objective]
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
        # smallest non-artificial variable with a nonzero entry (every basic
        # one has 0 in this row); a row with none is redundant (rhs 0) and
        # stays basic in its artificial, never a pivot row again
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

    x_num = [0] * n_vars
    for row, var in zip(tab.rows, tab.basis):
        if var < n_vars:
            x_num[var] = row[-1]
    return LPResult(x_num, sum(c * x for c, x in zip(obj, x_num)), tab.d)
