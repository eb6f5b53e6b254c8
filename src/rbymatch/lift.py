"""Reversible contraction bookkeeping.

Contracting two adjacent same-color edges removes both and merges their three
endpoint vertex classes; a matching of the reduced instance lifts back by
re-inserting exactly one edge of each contracted pair.  Which one is forced by
which side of the merged class the current matching already touches, so every
record snapshots the two outer vertex classes at contraction time.  Replaying
records newest-first with those snapshots keeps every intermediate matching
valid at its own contraction level, which is what makes the lift sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .errors import InvariantError


class DisjointSets:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def members(self, x: int) -> frozenset[int]:
        root = self.find(x)
        return frozenset(v for v in range(len(self.parent)) if self.find(v) == root)


@dataclass(frozen=True)
class ContractionRecord:
    edge_a: int
    edge_b: int
    color: str
    outer_a: frozenset[int]  # vertex class beyond edge_a when contracted
    outer_b: frozenset[int]  # vertex class beyond edge_b when contracted


@dataclass
class ContractionJournal:
    """Ordered contraction records, lifted back newest first."""

    records: list[ContractionRecord] = field(default_factory=list)

    def add(self, record: ContractionRecord) -> None:
        self.records.append(record)

    def lift(
        self,
        matching: Iterable[int],
        endpoints: Callable[[int], tuple[int, int]],
    ) -> frozenset[int]:
        """Re-insert one edge per record, newest record first."""
        current = set(matching)
        occupied: set[int] = set()
        for eid in current:
            occupied.update(endpoints(eid))
        for rec in reversed(self.records):
            blocked_a = bool(rec.outer_a & occupied)
            blocked_b = bool(rec.outer_b & occupied)
            if blocked_a and blocked_b:
                raise InvariantError(
                    "both contraction lift candidates blocked; invalid input matching"
                )
            if blocked_a:
                pick = rec.edge_b
            elif blocked_b:
                pick = rec.edge_a
            else:
                pick = min(rec.edge_a, rec.edge_b)
            current.add(pick)
            occupied.update(endpoints(pick))
        return frozenset(current)
