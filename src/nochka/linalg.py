"""The exact linear-algebra kernel: the null space of a growing set of rows.

Vectors have rational entries (`int` or `Fraction`).  `Echelon` does not
keep the rows it accepts: it keeps an integer basis of their null space,
the vectors x with row . x = 0 for every row.  The row space is the
orthogonal complement of the null space, so a vector v lies in the span of
the rows exactly when v . x = 0 for every basis vector x.  Testing a
width-w vector against rank r therefore costs w - r integer dot products,
with no row built and no gcd taken; only a vector that raises the rank
changes the basis, by fraction-free elimination of one column.  The null
space is the stored basis itself (`Echelon.kernel`).
"""

from __future__ import annotations

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


def _units(width: int) -> list[tuple[int, ...]]:
    return [(0,) * f + (1,) + (0,) * (width - f - 1) for f in range(width)]


class Echelon:
    """Incremental rank and null space of rational rows, over the integers.

    The width is fixed by the first insert.  `basis` then holds one
    content-free integer vector x_f per free column f, in increasing order
    of f: x_f is positive at f, zero at every other free column and
    supported on f and the pivot columns below it.  That is the shape and
    the scale that back substitution in a row echelon form gives, and it
    fixes each x_f uniquely.  Accepting v drops the smallest free column j
    with d = v . x_j != 0 and replaces each later x_f by the content-free
    multiple of |d| x_f - sign(d) (v . x_f) x_j, which is orthogonal to v
    and keeps that shape.  The basis list and its vectors are replaced,
    never mutated, so an `extended` Echelon shares them with its parent.
    """

    __slots__ = ("width", "basis")

    def __init__(self):
        self.width: int | None = None
        self.basis: list[tuple[int, ...]] = []

    @property
    def rank(self) -> int:
        return 0 if self.width is None else self.width - len(self.basis)

    def extended(self, vector: Sequence) -> "Echelon | None":
        """A new Echelon holding these rows and `vector` when the vector
        raises the rank, else None; this one is left unchanged either way.
        Nothing is copied for a rejected vector: the new Echelon starts out
        sharing the basis list, which `insert` replaces and never mutates."""
        other = Echelon()
        other.width, other.basis = self.width, self.basis
        return other if other.insert(vector) else None

    def insert(self, vector: Sequence) -> bool:
        """Insert a rational vector; returns True when it increased the rank.

        A vector whose length is not the width raises ValueError."""
        if self.width is None:
            self.width = len(vector)
            self.basis = _units(self.width)
        elif len(vector) != self.width:
            raise ValueError(f"vector has {len(vector)} entries, not {self.width}")
        basis = self.basis
        if not basis:
            return False  # the rows span the whole space
        # some entry is a Fraction exactly when the sum is not an int
        if type(vector[0]) is not int or type(sum(vector)) is not int:
            vector = primitive(vector)
        for at, x in enumerate(basis):
            d = sum(map(mul, vector, x))
            if d:
                break
        else:
            return False
        kept = basis[:at]
        for y in basis[at + 1:]:
            e = sum(map(mul, vector, y))
            if e:
                g = gcd(d, e)
                a, b = abs(d) // g, (e if d > 0 else -e) // g
                y = [a * s - b * t for s, t in zip(y, x)]
                g = gcd(*y)
                y = tuple([s // g for s in y] if g > 1 else y)
            kept.append(y)
        self.basis = kept
        return True

    def kernel(self, width: int) -> list[tuple[int, ...]]:
        """An integer basis of the vectors x of length `width` with row . x = 0
        for every row: width - rank content-free vectors, one per non-pivot
        column f in increasing order, positive at f and 0 at the other
        non-pivot columns (the unit vectors before any insert)."""
        if self.width is None:
            return _units(width)
        if width != self.width:
            raise ValueError(f"rows do not have {width} entries")
        return list(self.basis)
