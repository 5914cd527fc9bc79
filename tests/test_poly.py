"""Exact polynomial arithmetic, parsing, Groebner bases, and dimension."""

import random
from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nochka.errors import ParseError, ResourceBudgetError
from nochka.geometry import parse_arrangement
from nochka.poly import (Ideal, Polynomial, degree_m_slice_rank, groebner_basis,
                         ideal_dimension, key_degrevlex, mono_divides, monomials_of_degree,
                         next_level, normal_form, parse_polynomial)
from nochka.univar import QQi, float_of

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

    # an arrangement demands nonzero homogeneous polynomials, on both its
    # variety lines (line 4) and its hypersurface lines (line 6)
    ARRANGEMENT = ("[space] M=2 n=1 degV=2 N=2\n[vars] x0 x1 x2\n[variety]\n"
                   "x0*x2 - x1^2\n[hypersurfaces]\nH : x0 + x1\n")

    def test_homogeneity_demanded(self):
        for old, ln in [("x0*x2 - x1^2", 4), ("x0 + x1", 6)]:
            with pytest.raises(ParseError) as err:
                parse_arrangement(self.ARRANGEMENT.replace(old, "x0 + x1^2"))
            assert str(err.value) == f"polynomial must be homogeneous (line {ln})"
            assert err.value.line == ln
        assert parse_polynomial("x0 + x1^2", V3) == p3("x0") + p3("x1^2")

    def test_zero_where_nonzero_required(self):
        for old, ln in [("x0*x2 - x1^2", 4), ("x0 + x1", 6)]:
            with pytest.raises(ParseError) as err:
                parse_arrangement(self.ARRANGEMENT.replace(old, "x0 - x0"))
            assert str(err.value) == f"polynomial must be nonzero (line {ln})"
            assert err.value.line == ln
        assert parse_polynomial("x0 - x0", V3).is_zero

    def test_unknown_variable_with_position(self):
        with pytest.raises(ParseError) as err:
            p3("x0 + y1")
        assert "y1" in str(err.value)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            p3("x0 + + x1")
        assert "position" in str(err.value) or "found" in str(err.value)

    def test_unknown_variable_at_its_first_column(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x0 + y1", V3, line=5)
        assert (err.value.line, err.value.column) == (5, 6)
        assert str(err.value) == "unknown variable 'y1' (line 5, column 6)"

    @pytest.mark.parametrize("text", ["x0 +", "x0 + x1 -", "-"])
    def test_trailing_sign_is_dangling(self, text):
        with pytest.raises(ParseError, match="dangling sign"):
            p3(text)

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


@st.composite
def core_polynomials(draw, nvars: int, max_terms: int = 5, max_degree: int = 3):
    """Sparse polynomials with small rational coefficients, homogeneous or not."""
    homogeneous = draw(st.booleans())
    degree = draw(st.integers(0, max_degree))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        if homogeneous:
            mono = draw(st.sampled_from(list(monomials_of_degree(nvars, degree))))
        else:
            mono = tuple(draw(st.integers(0, max_degree)) for _ in range(nvars))
        terms[mono] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
    return Polynomial(nvars, terms)


@st.composite
def poly_families(draw, count: int, **kwargs):
    nvars = draw(st.integers(2, 4))
    return [draw(core_polynomials(nvars, **kwargs)) for _ in range(count)]


def reference_normal_form(p: Polynomial, divisors) -> Polynomial:
    """Division by rescanning for the largest remaining term at every step."""
    prepared = []
    for g in divisors:
        if not g.is_zero:
            lm = max(g.terms, key=key_degrevlex)
            prepared.append((g, lm, g.terms[lm]))
    work = dict(p.terms)
    remainder = {}
    while work:
        m = max(work, key=key_degrevlex)
        c = work[m]
        for g, lm, lc in prepared:
            if mono_divides(lm, m):
                quot = tuple(x - y for x, y in zip(m, lm))
                factor = c / lc
                for gm, gc in g.terms.items():
                    target = tuple(x + y for x, y in zip(gm, quot))
                    value = work.get(target, Fraction(0)) - factor * gc
                    if value:
                        work[target] = value
                    else:
                        work.pop(target, None)
                break
        else:
            remainder[m] = c
            del work[m]
    return Polynomial(p.nvars, remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    (lmf, lcf), (lmg, lcg) = f.leading_term(), g.leading_term()
    lcm = tuple(max(x, y) for x, y in zip(lmf, lmg))
    return (Polynomial.monomial(f.nvars, tuple(x - y for x, y in zip(lcm, lmf)), 1 / lcf) * f
            - Polynomial.monomial(g.nvars, tuple(x - y for x, y in zip(lcm, lmg)), 1 / lcg) * g)


def assert_canonical(p: Polynomial) -> None:
    assert all(isinstance(c, Fraction) and c != 0 for c in p.terms.values())
    assert all(len(m) == p.nvars and min(m) >= 0 for m in p.terms)


class TestPolyCoreProperties:
    @given(poly_families(4))
    @settings(max_examples=150, deadline=None)
    def test_normal_form_matches_reference_division(self, family):
        p, *divisors = family
        assert normal_form(p, divisors) == reference_normal_form(p, divisors)

    @given(poly_families(2), st.integers(-3, 3))
    @settings(max_examples=150, deadline=None)
    def test_results_store_no_zero_coefficient(self, family, k):
        a, b = family
        shift = tuple(range(a.nvars))
        results = [a + b, a - b, a - a, -a, a * b, a * (a - a), a.scale(k), a.scale(Fraction(k, 2)),
                   a.mono_scale(shift, k), a.derivative(0), a ** 2, normal_form(a, [b])]
        if not a.is_zero:
            results.append(a.monic())
        for r in results:
            assert_canonical(r)
            assert r == Polynomial(r.nvars, r.terms)

    @given(poly_families(2))
    @settings(max_examples=150, deadline=None)
    def test_cached_leading_term(self, family):
        for p in (*family, family[0] * family[1], family[0] + family[1]):
            if p.is_zero:
                continue
            expected = max(p.terms, key=key_degrevlex)
            assert p.leading_term() == (expected, p.terms[expected])
            assert p.leading_term() == (expected, p.terms[expected])

    @given(poly_families(3, max_terms=3, max_degree=2))
    @settings(max_examples=60, deadline=None)
    def test_groebner_basis_invariants(self, gens):
        gb = groebner_basis(gens)
        leads = [g.leading_term()[0] for g in gb]
        for g in gb:
            assert g.leading_term()[1] == 1
            for lm in leads:
                if lm != g.leading_term()[0]:
                    assert not any(mono_divides(lm, m) for m in g.terms)
        for g in gens:
            assert normal_form(g, gb).is_zero
        for i, f in enumerate(gb):
            for g in gb[i + 1:]:
                assert normal_form(s_polynomial(f, g), gb).is_zero

    @given(poly_families(3, max_terms=3, max_degree=2))
    @settings(max_examples=40, deadline=None)
    def test_groebner_basis_matches_sympy(self, gens):
        sympy = pytest.importorskip("sympy")
        nvars = gens[0].nvars
        symbols = sympy.symbols(f"x0:{nvars}")

        def to_sympy(p: Polynomial):
            return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                               * sympy.Mul(*(s ** e for s, e in zip(symbols, m)))
                               for m, c in p.terms.items()))

        def from_sympy(expr) -> frozenset:
            terms = sympy.Poly(expr, *symbols).as_dict()
            return frozenset((m, Fraction(int(c.p), int(c.q))) for m, c in terms.items())

        # both sides must order the variables x0 > x1 > ... the same way
        every = Polynomial(nvars, {m: 1 for d in range(3) for m in monomials_of_degree(nvars, d)})
        ours = [m for m, _ in every.sorted_terms()]
        theirs = [m for m, _ in sympy.Poly(to_sympy(every), *symbols).terms(order="grevlex")]
        assert ours == theirs

        nonzero = [g for g in gens if not g.is_zero]
        gb = groebner_basis(nonzero)
        if not nonzero:
            assert gb == ()
            return
        expected = sympy.groebner([to_sympy(g) for g in nonzero], *symbols, order="grevlex",
                                  domain=sympy.QQ)
        assert {frozenset(g.terms.items()) for g in gb} == {from_sympy(e) for e in expected.exprs}


class TestPackedIntegerKernels:
    """The level step that lays out integer products of factors."""

    @given(st.integers(1, 4), st.integers(1, 4))
    def test_next_level_order_is_monomial_order(self, q, degree):
        # products of the unit exponent vectors are the exponent vectors
        # themselves; each row's last index is its largest variable
        units = [tuple(int(i == j) for i in range(q)) for j in range(q)]
        products, last = units, np.arange(q)
        for _ in range(1, degree):
            parent, last = next_level(last, q)
            products = [tuple(x + y for x, y in zip(products[i], units[j]))
                        for i, j in zip(parent.tolist(), last.tolist())]
        assert products == list(monomials_of_degree(q, degree))
        assert last.tolist() == [max(j for j in range(q) if e[j]) for e in products]


def recursive_monomials(nvars: int, degree: int):
    """Reference: the first exponent from `degree` down to 0, then the rest
    recursively, which lists the tuples lexicographically descending."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in recursive_monomials(nvars - 1, degree - first):
            yield (first,) + rest


@pytest.mark.parametrize("nvars", range(1, 8))
def test_monomials_of_degree_match_recursive_reference(nvars):
    for degree in range(7):
        monos = list(monomials_of_degree(nvars, degree))
        assert monos == list(recursive_monomials(nvars, degree))
        assert monos == sorted(monos, reverse=True)
        assert len(monos) == comb(nvars + degree - 1, degree)


def reference_evaluate_array(form: Polynomial, values):
    """Numeric evaluation as it was before `array_evaluator`: every call
    converts each coefficient and zips each monomial with every variable."""
    values = [np.asarray(v, dtype=np.complex128) for v in values]
    total = np.zeros(np.broadcast_shapes(*(v.shape for v in values)), dtype=np.complex128)
    powers = [[None, v] for v in values]
    for mono, coeff in form.terms.items():
        term = complex(float_of(coeff.numerator, coeff.denominator))
        for v, table, e in zip(values, powers, mono):
            if e:
                while len(table) <= e:
                    table.append(table[-1] * v)
                term = term * table[e]
        total += term
    return total


class TestEvaluateArray:
    @pytest.mark.parametrize("nvars", [1, 3, 5])
    def test_a_reused_evaluator_gives_the_bits_of_the_per_call_loop(self, nvars):
        rng = random.Random(3200 + nvars)
        nprng = np.random.default_rng(nvars)
        for _ in range(10):
            form = Polynomial(nvars, {tuple(rng.randint(0, 3) for _ in range(nvars)):
                                      Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                                      for _ in range(rng.randint(1, 8))})
            evaluate = form.array_evaluator()
            for shape in [(5,), (2, 3), ()]:
                values = [nprng.normal(size=shape) + 1j * nprng.normal(size=shape)
                          for _ in range(nvars)]
                got = evaluate(values)
                want = reference_evaluate_array(form, values)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("nvars", [2, 3, 4])
    def test_matches_exact_evaluation_at_gaussian_rationals(self, nvars):
        rng = random.Random(1400 + nvars)
        for _ in range(12):
            form = Polynomial(nvars, {tuple(rng.randint(0, 4) for _ in range(nvars)):
                                      Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                                      for _ in range(rng.randint(1, 7))})
            points = [[QQi(Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
                           Fraction(rng.randint(-12, 12), rng.randint(1, 6)))
                       for _ in range(nvars)] for _ in range(6)]
            columns = [np.array([complex(pt[i]) for pt in points]) for i in range(nvars)]
            got = form.array_evaluator()(columns)
            assert got.shape == (6,) and got.dtype == np.complex128
            for value, pt in zip(got, points):
                want = complex(form.evaluate_exact(pt, QQi(1)))
                # rounding error is relative to the terms, which may cancel
                scale = sum(abs(float(c)) * prod(abs(complex(x)) ** e for x, e in zip(pt, m))
                            for m, c in form.terms.items())
                assert abs(value - want) <= 1e-13 * scale

    def test_zero_and_constant_forms_take_the_broadcast_shape(self):
        values = [np.ones((2, 1)), np.arange(3.0), np.array(1j)]
        for form, want in ((Polynomial(3), 0j), (Polynomial(3, {(0, 0, 0): Fraction(5, 2)}), 2.5)):
            out = form.array_evaluator()(values)
            assert out.dtype == np.complex128 and out.shape == (2, 3)
            assert (out == want).all()
        out = Polynomial(3, {(0, 1, 2): Fraction(1)}).array_evaluator()(values)
        assert out.shape == (2, 3) and out.tolist() == [[0j, -1, -2]] * 2

    def test_coefficient_past_the_float_range(self):
        form = Polynomial(2, {(1, 0): Fraction(1), (0, 1): Fraction(10 ** 400)})
        with pytest.raises(ValueError, match=f"coefficient {10 ** 400} is past the float range"):
            form.array_evaluator()([np.ones(3), np.ones(3)])

    def test_coefficient_below_the_float_range(self):
        form = Polynomial(2, {(1, 0): Fraction(1), (0, 1): Fraction(1, 10 ** 400)})
        with pytest.raises(ValueError, match=f"coefficient 1/{10 ** 400} is below the float range"):
            form.array_evaluator()([np.ones(3), np.ones(3)])
