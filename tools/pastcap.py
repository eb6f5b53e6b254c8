"""Past-the-cap solves: one seeded graph per vertex count, timed per layer.

    python3 tools/pastcap.py [--sizes 40-60] [--src DIR]

Graph n has each vertex pair as an edge with probability 0.15, shuffled and
cut to at most 2n edges, random colors, and both requirements drawn from
2..6, all from ``Random(f"pastcap:{SEED}:{n}")``.  Each request runs through
``driver.solve`` under ``OracleCap(128, 400)`` and is checked by
``driver.verify``.  One line per graph gives ``alpha*``, the step that
decided the solve (``screen``: the count screen found it infeasible;
``certificate``: a greedy matching reached the LP's upper bound;
``simplex``: the LP ran), the separation rounds (LPs after the first, 0 with
no LP), the LP calls, the simplex pivots and how many of them had a pivot
element other than +-d (``off_d``, the pivots that rewrite every row), the
rows purged, the rows re-activated (appended with the edges and rhs of a row
an earlier round purged), the CPU seconds in ``lpface.solve_lp`` and in the
whole solve, and the answer size; a summary line follows with the totals of
the LP calls, pivots, ``off_d`` pivots, rows purged, rows re-activated and
LP CPU seconds, the number of solves decided without the simplex, and the
slowest graph.  ``--src`` imports the library from another checkout's ``src``
directory, to compare two versions on one set.

The process limits its own address space to 3 GB (``RLIMIT_AS``) and each
solve to ``TIMEOUT_S`` seconds of wall time (``SIGALRM``); a solve past
either is reported and the run goes on.  Exits 1 if any solve timed out,
failed or did not verify.  Standard library only; not part of the test
suite.
"""

from __future__ import annotations

import argparse
import random
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 3 << 30
SEED = 1
TIMEOUT_S = 120  # wall seconds per solve


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def make_request(n: int):
    """(vertex count, edges, k_red, k_blue) of graph n of the set."""
    rng = random.Random(f"pastcap:{SEED}:{n}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15]
    rng.shuffle(pairs)
    edges = [(u, v, rng.choice("RBY")) for u, v in pairs[: 2 * n]]
    return n, edges, rng.randint(2, 6), rng.randint(2, 6)


class _Counter:
    """Wraps ``driver.solve_lp`` and ``lpface.solve_standard_form``, the
    names the solve calls, and the simplex tableau's ``pivot``, to count LP
    calls, pivots and purged and re-activated rows and time the LP layer."""

    def __init__(self, driver, lpface, simplex):
        self.driver, self.lpface, self.tableau = driver, lpface, simplex._Tableau
        self.solve_lp, self.solve_standard_form = driver.solve_lp, lpface.solve_standard_form
        self.pivot = self.tableau.pivot
        self.calls = self.purged = self.reactivated = self.pivots = self.off_d = 0
        self.gone = set()  # (edges, rhs) of each purged row
        self.lp_s = 0.0

    def lp(self, model):
        t0 = time.process_time()
        try:
            return self.solve_lp(model)
        finally:
            self.lp_s += time.process_time() - t0

    def simplex(self, *args, **kwargs):
        self.calls += 1
        start = kwargs.get("start")
        if start is not None:
            ub_rows, last = args[2], start.tableau.ub_rows
            for row in ub_rows:
                if all(row is not r for r in last):
                    self.reactivated += (tuple(row[0]), row[1]) in self.gone
            for row in last:
                if all(row is not r for r in ub_rows):
                    self.purged += 1
                    self.gone.add((tuple(row[0]), row[1]))
        return self.solve_standard_form(*args, **kwargs)

    def __enter__(self):
        counter, pivot = self, self.pivot

        def counted(tab, row, s, *carried):
            counter.pivots += 1
            counter.off_d += abs(tab.rows[row][s]) != tab.d
            pivot(tab, row, s, *carried)

        self.driver.solve_lp, self.lpface.solve_standard_form = self.lp, self.simplex
        self.tableau.pivot = counted
        return self

    def __exit__(self, *exc):
        self.driver.solve_lp, self.lpface.solve_standard_form = self.solve_lp, self.solve_standard_form
        self.tableau.pivot = self.pivot


def _sizes(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=_sizes, default=range(40, 61), help="vertex counts, such as 40-60")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the library's src directory")
    args = parser.parse_args(argv)

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    signal.signal(signal.SIGALRM, _alarm)
    sys.path.insert(0, str(args.src.resolve()))
    from rbymatch import driver, lpface, simplex
    from rbymatch.graph import ColoredGraph
    from rbymatch.oracle import OracleCap

    cap = OracleCap(128, 400)
    bad = pivots = off_d = lp_calls = purged = reactivated = no_simplex = 0
    total_lp = slowest = 0.0
    slowest_n = None
    for n in args.sizes:
        _, edges, kr, kb = make_request(n)
        graph = ColoredGraph(n, edges)
        head = f"n={n} m={len(edges)} require=({kr},{kb})"
        t0 = time.process_time()
        with _Counter(driver, lpface, simplex) as counter:
            signal.alarm(TIMEOUT_S)
            try:
                report = driver.solve(graph, kr, kb, cap)
            except _Timeout:
                print(f"{head} TIMEOUT after {TIMEOUT_S} s", flush=True)
                bad += 1
                continue
            except Exception as exc:  # MemoryError included: report it, go on
                print(f"{head} FAILED {type(exc).__name__}: {exc}", flush=True)
                bad += 1
                continue
            finally:
                signal.alarm(0)
        solve_s = time.process_time() - t0
        total_lp += counter.lp_s
        pivots += counter.pivots
        off_d += counter.off_d
        lp_calls += counter.calls
        purged += counter.purged
        reactivated += counter.reactivated
        if counter.lp_s >= slowest:
            slowest, slowest_n = counter.lp_s, n
        step = "simplex" if counter.calls else "screen" if report is None else "certificate"
        no_simplex += not counter.calls
        if report is None:
            answer = "alpha*=infeasible"
        else:
            ok = driver.verify(graph, kr, kb, report)
            bad += not ok
            answer = f"alpha*={report.alpha_star} size={len(report.matching)} {'ok' if ok else 'VERIFY FAILED'}"
        print(
            f"{head} {answer} step={step} rounds={max(counter.calls - 1, 0)} lp_calls={counter.calls} "
            f"pivots={counter.pivots} off_d={counter.off_d} purged={counter.purged} reactivated={counter.reactivated} lp_cpu_s={counter.lp_s:.3f} solve_cpu_s={solve_s:.3f}",
            flush=True,
        )
    print(
        f"total lp_calls={lp_calls} pivots={pivots} off_d={off_d} purged={purged} reactivated={reactivated} "
        f"lp_cpu_s={total_lp:.3f} no_simplex={no_simplex} slowest lp_cpu_s={slowest:.3f} (n={slowest_n}) failures={bad}"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
