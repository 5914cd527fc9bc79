"""Exact echelon-form helpers over any field-like coefficient type.

Entries must support +, -, *, /, equality with 0 via truthiness, and
construction of their own zero by `x - x`.  Used with `Fraction` and the
Gaussian-rational scalars.
"""

from __future__ import annotations

from typing import Sequence


class Echelon:
    """Incremental row echelon form; tracks which inserted vectors were independent."""

    def __init__(self):
        self.rows: list[list] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vector: Sequence) -> list:
        v = list(vector)
        for pivot, row in zip(self.pivots, self.rows):
            if v[pivot]:
                factor = v[pivot]
                v = [a - factor * b for a, b in zip(v, row)]
        return v

    def insert(self, vector: Sequence) -> bool:
        """Insert a vector; returns True when it increased the rank."""
        v = self.reduce(vector)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        inv = v[pivot]
        v = [x / inv for x in v]
        at = sum(1 for p in self.pivots if p < pivot)
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True

