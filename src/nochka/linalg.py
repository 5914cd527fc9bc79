"""The exact linear-algebra kernel: a fraction-free integer echelon form.

Vectors have rational entries (`int` or `Fraction`).  Each is scaled to a
content-free integer vector and reduced by fraction-free elimination
(Bareiss 1968), so no rational arithmetic happens inside the reduction.
The null space of the rows is read off the same echelon form by integer
back substitution (`Echelon.kernel`).
"""

from __future__ import annotations

from bisect import bisect
from math import gcd, lcm
from operator import mul
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

    def kernel(self, width: int) -> list[tuple[int, ...]]:
        """An integer basis of the vectors x of length `width` with row . x = 0
        for every row: width - rank content-free vectors, one per non-pivot
        column f in increasing order.

        The vector of f is 0 at the other non-pivot columns and positive at f;
        its pivot entries are solved from the last row up, and when a pivot
        entry would be a fraction the vector is scaled to keep it integral.
        """
        if any(len(row) != width for row in self.rows):
            raise ValueError(f"rows do not have {width} entries")
        pivots = set(self.pivots)
        solve = list(zip(self.pivots, self.rows))[::-1]
        basis = []
        for f in range(width):
            if f in pivots:
                continue
            x = [0] * width
            x[f] = 1
            for p, row in solve:
                s = sum(map(mul, row, x))  # x[p] is still 0 here
                if s:
                    a = row[p]
                    if a < 0:
                        a, s = -a, -s
                    g = gcd(a, s)
                    if a != g:
                        x = [v * (a // g) for v in x]
                    x[p] = -s // g
            basis.append(primitive(x))
        return basis
