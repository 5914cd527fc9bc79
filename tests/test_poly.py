"""Exact polynomial arithmetic, parsing, Groebner bases, and dimension."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nochka.errors import ParseError, ResourceBudgetError
from nochka.poly import (Ideal, Polynomial, degree_m_slice_rank, groebner_basis,
                         ideal_dimension, key_degrevlex, mono_divides,
                         monomials_of_degree, normal_form, parse_polynomial)

V2 = ("x0", "x1")
V3 = ("x0", "x1", "x2")
V4 = ("x0", "x1", "x2", "x3")


def p3(text: str) -> Polynomial:
    return parse_polynomial(text, V3)


class TestParsing:
    def test_conic(self):
        p = p3("x0*x2 - x1^2")
        assert p.degree == 2 and p.is_homogeneous
        assert p.terms == {(1, 0, 1): Fraction(1), (0, 2, 0): Fraction(-1)}

    def test_rational_coefficient(self):
        p = p3("1/2*x0^3 + x1*x2^2")
        assert p.terms[(3, 0, 0)] == Fraction(1, 2)
        assert p.terms[(0, 1, 2)] == 1

    def test_homogeneity_demanded(self):
        with pytest.raises(ParseError):
            parse_polynomial("x0 + x1^2", V3, require_homogeneous=True)

    def test_zero_where_nonzero_required(self):
        with pytest.raises(ParseError):
            parse_polynomial("x0 - x0", V3, require_nonzero=True)

    def test_unknown_variable_with_position(self):
        with pytest.raises(ParseError) as err:
            p3("x0 + y1")
        assert "y1" in str(err.value)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            p3("x0 + + x1")
        assert "position" in str(err.value) or "found" in str(err.value)

    def test_round_trip(self):
        for text in ("x0*x2 - x1^2", "1/2*x0^3 + x1*x2^2", "x0^2 - 2*x0*x1 + x1^2"):
            p = p3(text)
            assert parse_polynomial(p.to_text(V3), V3) == p

    def test_whitespace_insignificant(self):
        assert p3("x0 *x2-  x1^2") == p3("x0*x2 - x1^2")


class TestOrders:
    def test_degrevlex_on_quadric(self):
        # with x0 > x1 > x2, the rightmost smaller exponent wins ties
        assert key_degrevlex((0, 2, 0)) > key_degrevlex((1, 0, 1))

    def test_leading_term(self):
        mono, coeff = p3("x0*x2 - x1^2").leading_term()
        assert mono == (0, 2, 0) and coeff == -1


class TestNormalForm:
    def test_single_reduction(self):
        nf = normal_form(p3("x1^2"), [p3("x0*x2 - x1^2")])
        assert nf == p3("x0*x2")

    def test_generator_reduces_to_zero(self):
        g = p3("x0*x2 - x1^2")
        assert normal_form(g, [g]).is_zero

    def test_constants_irreducible(self):
        one = Polynomial.constant(3, 1)
        assert normal_form(one, [p3("x0"), p3("x1"), p3("x2")]) == one

    def test_linearity(self):
        basis = [p3("x0*x2 - x1^2")]
        a = p3("x1^2 + x0^2")
        b = p3("x1*x2 - x0*x1")
        assert normal_form(a + b, basis) == normal_form(a, basis) + normal_form(b, basis)


class TestGroebner:
    def test_already_reduced(self):
        gb = groebner_basis([p3("x0"), p3("x1")])
        assert set(gb) == {p3("x0"), p3("x1")}

    def test_duplicate_generators_collapse(self):
        f = p3("x0*x2 - x1^2")
        gb = groebner_basis([f, f])
        assert len(gb) == 1

    def test_twisted_cubic(self):
        gens = [parse_polynomial(t, V4) for t in
                ("x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2")]
        gb = groebner_basis(gens)
        assert len(gb) == 3
        for g in gens:
            assert normal_form(g, gb).is_zero

    def test_idempotent(self):
        gens = [parse_polynomial(t, V4) for t in
                ("x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2")]
        gb = groebner_basis(gens)
        assert groebner_basis(gb) == gb

    def test_step_budget(self):
        gens = [parse_polynomial(t, V4) for t in
                ("x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2")]
        with pytest.raises(ResourceBudgetError):
            groebner_basis(gens, max_steps=0)
        with pytest.raises(ResourceBudgetError):
            ideal_dimension(Ideal(gens, max_steps=0))

    def test_inhomogeneous_rejected_by_ideal(self):
        with pytest.raises(ValueError):
            Ideal([p3("x0 + x1^2")])


class TestDimension:
    def test_hyperplane(self):
        assert ideal_dimension(Ideal([p3("x0")])) == 1

    def test_empty_set(self):
        assert ideal_dimension(Ideal([p3("x0"), p3("x1"), p3("x2")])) == -1

    def test_conic_curve(self):
        assert ideal_dimension(Ideal([p3("x0*x2 - x1^2")])) == 1

    def test_whole_space(self):
        assert ideal_dimension(Ideal([], nvars=3)) == 2

    def test_point(self):
        assert ideal_dimension(Ideal([p3("x0"), p3("x1")])) == 0

    def test_redundant_generator_invariant(self):
        f = p3("x0*x2 - x1^2")
        base = Ideal([f])
        extra = Ideal([f, p3("x0") * f])
        assert ideal_dimension(base) == ideal_dimension(extra)


class TestSliceRank:
    def test_zero_ideal(self):
        assert degree_m_slice_rank(Ideal([], nvars=3), 4) == 0

    def test_conic_m2(self):
        assert degree_m_slice_rank(Ideal([p3("x0*x2 - x1^2")]), 2) == 1

    def test_coordinate_ideal_m1(self):
        assert degree_m_slice_rank(Ideal([p3("x0"), p3("x1"), p3("x2")]), 1) == 3

    def test_monomial_ideal_combinatorial_oracle(self):
        gens = [p3("x0^2"), p3("x1*x2")]
        ideal = Ideal(gens)
        for m in range(1, 6):
            direct = sum(
                1 for mono in monomials_of_degree(3, m)
                if any(mono_divides(g.leading_term()[0], mono) for g in gens))
            assert degree_m_slice_rank(ideal, m) == direct

    def test_standard_monomial_complement(self):
        from math import comb
        ideal = Ideal([p3("x0*x2 - x1^2")])
        m = 3
        standard = comb(2 + m, m) - degree_m_slice_rank(ideal, m)
        # the conic curve has Hilbert function 2m+1
        assert standard == 2 * m + 1

    def test_twisted_cubic_hilbert_function(self):
        from math import comb
        ideal = Ideal([parse_polynomial(t, V4) for t in
                       ("x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2")])
        assert ideal_dimension(ideal) == 1
        for m in range(1, 6):
            standard = comb(3 + m, m) - degree_m_slice_rank(ideal, m)
            assert standard == 3 * m + 1


@st.composite
def polynomials(draw):
    nvars = 2
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        terms[mono] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
    return Polynomial(nvars, terms)


class TestRingAxioms:
    @given(polynomials(), polynomials(), polynomials())
    @settings(max_examples=80, deadline=None)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polynomials(), polynomials())
    @settings(max_examples=80, deadline=None)
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a
