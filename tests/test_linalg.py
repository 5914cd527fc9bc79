"""The null-space kernel against a Fraction Gauss-Jordan reference, the
row-echelon kernel it replaced, and sympy."""

import random
from bisect import bisect
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nochka.linalg import Echelon, primitive


def reference_accepts(rows) -> list[bool]:
    """Greedy accept sequence by Gauss-Jordan elimination over Fraction."""
    basis: list[tuple[int, list[Fraction]]] = []  # (pivot, row with row[pivot] == 1)
    accepts = []
    for row in rows:
        v = [Fraction(x) for x in row]
        for p, b in basis:
            if v[p]:
                f = v[p]
                v = [x - f * y for x, y in zip(v, b)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        accepts.append(pivot is not None)
        if pivot is not None:
            v = [x / v[pivot] for x in v]
            basis = [(p, [x - b[pivot] * y for x, y in zip(b, v)]) for p, b in basis]
            basis.append((pivot, v))
    return accepts


class RowEchelon:
    """Reference: the row echelon form that stored the rows, with fraction-free
    reduction on insert and integer back substitution for the kernel."""

    def __init__(self):
        self.rows: list[tuple[int, ...]] = []
        self.pivots: list[int] = []

    def insert(self, vector) -> bool:
        if len(self.rows) == len(vector):
            return False
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
        pivots = set(self.pivots)
        solve = list(zip(self.pivots, self.rows))[::-1]
        basis = []
        for f in range(width):
            if f in pivots:
                continue
            x = [0] * width
            x[f] = 1
            for p, row in solve:
                s = sum(map(mul, row, x))
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


def assert_null_space_shape(ech: Echelon, rows) -> None:
    """Each stored vector is content-free, positive at its free column (its
    last nonzero entry), zero at the other free columns and orthogonal to
    every inserted row."""
    free = [max(i for i, x in enumerate(b) if x) for b in ech.basis]
    assert free == sorted(set(free))
    for b, f in zip(ech.basis, free):
        assert primitive(b) == b and b[f] > 0
        assert all(b[g] == 0 for g in free if g != f)
        assert all(sum(Fraction(x) * y for x, y in zip(r, b)) == 0 for r in rows)


BIG = st.fractions(min_value=-10**15, max_value=10**15, max_denominator=10**12)
ENTRY = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction), BIG)


@st.composite
def planted_rows(draw):
    """Rational rows, some of them rational combinations of earlier rows."""
    width = draw(st.integers(1, 6))
    rows: list[list[Fraction]] = []
    for _ in range(draw(st.integers(1, 10))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.one_of(st.just(Fraction(0)), BIG),
                                   min_size=len(rows), max_size=len(rows)))
            rows.append([sum((c * r[k] for c, r in zip(coeffs, rows)), Fraction(0))
                         for k in range(width)])
        else:
            rows.append(draw(st.lists(ENTRY, min_size=width, max_size=width)))
    return rows


class TestEchelon:
    @given(planted_rows())
    @settings(max_examples=300, deadline=None)
    def test_greedy_accepts_match_reference(self, rows):
        ech, ref = Echelon(), RowEchelon()
        width = len(rows[0])
        accepts = []
        for r in rows:
            accepts.append(ech.insert(r))
            assert accepts[-1] == ref.insert(r)
            assert ech.rank == len(ref.rows)
            assert ech.kernel(width) == ref.kernel(width)
        assert accepts == reference_accepts(rows)
        assert_null_space_shape(ech, rows)

    @given(planted_rows(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_extended_leaves_original_untouched(self, rows, data):
        split = data.draw(st.integers(0, len(rows)))
        ech = Echelon()
        for r in rows[:split]:
            ech.insert(r)
        saved = (ech.width, list(ech.basis))
        child, accepts = ech, []
        for r in rows[split:]:
            extended = child.extended(r)
            accepts.append(extended is not None)
            child = extended or child
        assert (ech.width, ech.basis) == saved
        assert accepts == reference_accepts(rows)[split:]
        assert child.rank == ech.rank + sum(accepts)

    def test_wrong_length_raises(self):
        ech = Echelon()
        ech.insert((1, 2, 3))
        with pytest.raises(ValueError):
            ech.insert((1, 2))
        with pytest.raises(ValueError):
            ech.insert((1, 2, 3, 4))
        assert ech.rank == 1

    def test_full_rank_rejects_without_a_basis(self):
        ech = Echelon()
        assert [ech.insert(r) for r in ((1, 1), (1, -1), (3, 5))] == [True, True, False]
        assert ech.basis == [] and ech.rank == 2

    def test_primitive_keeps_sign(self):
        assert primitive([Fraction(-2, 3), Fraction(4, 9), 0]) == (-3, 2, 0)
        assert primitive([0, 0]) == (0, 0)


def assert_kernel(rows, width: int) -> list[tuple[int, ...]]:
    """Insert the rows, take the kernel and check it: integer, content-free,
    orthogonal to every row, of full column rank width - rank."""
    ech = Echelon()
    for r in rows:
        ech.insert(r)
    basis = ech.kernel(width)
    assert len(basis) == width - ech.rank
    for b in basis:
        assert len(b) == width and all(isinstance(x, int) for x in b)
        assert primitive(b) == b
        assert all(sum(Fraction(x) * y for x, y in zip(r, b)) == 0 for r in rows)
    columns = Echelon()
    assert all(columns.insert(b) for b in basis)
    return basis


class TestKernel:
    def test_empty_echelon_gives_the_unit_vectors(self):
        assert assert_kernel([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_full_rank_has_no_kernel(self):
        assert assert_kernel([(1, 2, 3), (0, 1, 4), (5, 6, 0)], 3) == []

    def test_repeated_rows(self):
        basis = assert_kernel([(0, 3, 6, 0), (0, 6, 12, 0), (0, 1, 2, 0)], 4)
        assert basis == [(1, 0, 0, 0), (0, -2, 1, 0), (0, 0, 0, 1)]

    def test_rational_rows_scale_to_integers(self):
        basis = assert_kernel([(Fraction(1, 2), Fraction(2, 3), 0), (0, 3, 7)], 3)
        assert basis == [(28, -21, 9)]

    def test_mixed_rows_with_an_integer_first_entry(self):
        rows = [(0, Fraction(1, 2), 1, 0), (2, 0, Fraction(-1, 3), 5), (4, 1, Fraction(4, 3), 10)]
        ref = RowEchelon()
        assert [ref.insert(r) for r in rows] == [True, True, False]
        assert assert_kernel(rows, 4) == ref.kernel(4)

    def test_width_must_match(self):
        ech = Echelon()
        ech.insert((1, 2))
        with pytest.raises(ValueError):
            ech.kernel(3)

    @given(planted_rows())
    @settings(max_examples=60, deadline=None)
    def test_kernel_of_planted_rows(self, rows):
        assert_kernel(rows, len(rows[0]))

    def test_matches_sympy_nullspace(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(11)
        for _ in range(40):
            height, width = rng.randint(1, 5), rng.randint(1, 6)
            rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(width)]
                    for _ in range(height)]
            if rng.random() < 0.5:  # plant a combination of two rows
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
            basis = assert_kernel(rows, width)
            assert len(basis) == len(sympy.Matrix(rows).nullspace())
            if basis:
                product = sympy.Matrix(rows) * sympy.Matrix(basis).T
                assert product == sympy.zeros(len(rows), len(basis))

    def test_rank_and_nullity_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(17)
        for _ in range(60):
            height, width = rng.randint(1, 9), rng.randint(1, 9)
            rows = [[rng.choice((0, 0, 1, -1, rng.randint(-50, 50))) for _ in range(width)]
                    for _ in range(height)]
            for _ in range(rng.randint(0, 3)):  # plant integer combinations
                coeffs = [rng.randint(-4, 4) for _ in rows]
                rows.insert(rng.randint(0, len(rows)),
                            [sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(width)])
            ech = Echelon()
            for r in rows:
                ech.insert(r)
            rank = sympy.Matrix(rows).rank()
            assert ech.rank == rank
            assert len(ech.kernel(width)) == width - rank == len(sympy.Matrix(rows).nullspace())
