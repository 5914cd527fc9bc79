"""The fraction-free integer echelon kernel against a Fraction Gauss-Jordan reference."""

import random
from fractions import Fraction

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
        ech = Echelon()
        assert [ech.insert(r) for r in rows] == reference_accepts(rows)
        for row, pivot in zip(ech.rows, ech.pivots):
            assert primitive(row) == row
            assert next(i for i, x in enumerate(row) if x) == pivot
        assert ech.pivots == sorted(ech.pivots)

    @given(planted_rows(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_copy_leaves_original_untouched(self, rows, data):
        split = data.draw(st.integers(0, len(rows)))
        ech = Echelon()
        for r in rows[:split]:
            ech.insert(r)
        saved = (list(ech.rows), list(ech.pivots))
        child = ech.copy()
        accepts = [child.insert(r) for r in rows[split:]]
        assert (ech.rows, ech.pivots) == saved
        assert accepts == reference_accepts(rows)[split:]

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
