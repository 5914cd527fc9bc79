"""The exact linear-algebra kernel: a fraction-free integer echelon form.

Vectors have rational entries (`int` or `Fraction`).  Each is scaled to a
content-free integer vector and reduced by fraction-free elimination
(Bareiss 1968), so no rational arithmetic happens inside the reduction.
"""

from __future__ import annotations

from bisect import bisect
from math import gcd, lcm
from typing import Sequence


def primitive(values: Sequence) -> tuple[int, ...]:
    """The content-free integer multiple of a rational vector.

    Denominators are cleared by their lcm and the gcd of the entries is
    divided out; signs are kept and a zero vector stays zero.
    """
    den = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


class Echelon:
    """Incremental row echelon form over the integers.

    Rows are content-free integer tuples sorted by pivot (the index of
    their first nonzero entry), which is cached in `pivots`.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self):
        self.rows: list[tuple[int, ...]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> "Echelon":
        other = Echelon()
        other.rows = self.rows.copy()
        other.pivots = self.pivots.copy()
        return other

    def insert(self, vector: Sequence) -> bool:
        """Insert a rational vector; returns True when it increased the rank."""
        if len(self.rows) == len(vector):
            return False  # the rows already span the whole space
        v = primitive(vector)
        for p, row in zip(self.pivots, self.rows):
            a = v[p]
            if a:
                b = row[p]
                g = gcd(a, b)
                a //= g
                b //= g
                v = [b * x - a * y for x, y in zip(v, row)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        at = bisect(self.pivots, pivot)
        self.rows.insert(at, primitive(v))
        self.pivots.insert(at, pivot)
        return True
