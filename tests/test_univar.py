"""Gaussian-rational scalars, univariate polynomials, square-free structure, roots."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nochka.curves import parse_coordinate
from nochka.rootfind import poly_roots_with_multiplicity
from nochka.univar import (QQi, UnivariatePoly, poly_gcd, poly_gcd_many,
                           squarefree_decomposition)


class TestQQi:
    def test_arithmetic(self):
        a = QQi(Fraction(1, 2), 1)
        b = QQi(2, -3)
        assert a + b == QQi(Fraction(5, 2), -2)
        assert a * b == QQi(Fraction(1, 2) * 2 + 3, 1 * 2 - Fraction(3, 2))

    def test_division_inverts(self):
        a = QQi(Fraction(3, 7), Fraction(-2, 5))
        assert (a / a) == QQi(1)
        b = QQi(2, 1)
        assert (a / b) * b == a

    def test_mixing_with_fractions(self):
        a = QQi(1, 1)
        assert Fraction(1, 2) * a == QQi(Fraction(1, 2), Fraction(1, 2))
        assert a - 1 == QQi(0, 1)

    def test_text_forms(self):
        assert str(QQi(1, 2)) == "1+2i"
        assert str(QQi(0, -1)) == "-i"
        assert str(QQi(Fraction(1, 2))) == "1/2"


def up(*coeffs) -> UnivariatePoly:
    return UnivariatePoly(list(coeffs))


class TestUnivariatePoly:
    def test_divmod_exact(self):
        f = up(-6, 11, -6, 1)  # (z-1)(z-2)(z-3)
        g = up(-1, 1)
        q, r = f.divmod_exact(g)
        assert r.is_zero
        assert q == up(6, -5, 1)

    def test_gcd(self):
        a = up(-1, 1) * up(-2, 1)
        b = up(-1, 1) * up(-3, 1)
        assert poly_gcd(a, b) == up(-1, 1)

    def test_gcd_many(self):
        common = up(5, 1)
        polys = [common * up(1, 1), common * up(-2, 1), common * up(0, 3, 1)]
        assert poly_gcd_many(polys) == common.monic()

    def test_pow(self):
        assert up(-2, 1) ** 3 == up(-8, 12, -6, 1)

    def test_derivative(self):
        assert up(1, 2, 3).derivative() == up(2, 6)

    @given(st.lists(st.integers(-4, 4), min_size=0, max_size=5),
           st.lists(st.integers(-4, 4), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_divmod_reconstructs(self, fc, gc):
        f = UnivariatePoly(fc)
        g = UnivariatePoly(gc)
        if g.is_zero:
            return
        q, r = f.divmod_exact(g)
        assert q * g + r == f
        assert r.degree < g.degree


def _horner(p: UnivariatePoly, z: np.ndarray) -> np.ndarray:
    """Reference evaluation: Horner over complex(c), converting at every step."""
    acc = np.zeros_like(z)
    for c in reversed(p.coeffs):
        acc = acc * z + complex(c)
    return acc


def _cached_horner(p: UnivariatePoly, z: np.ndarray) -> np.ndarray:
    """Horner over the cached `complex_coeffs`, converted once per polynomial."""
    return np.polyval(p.complex_coeffs[::-1], z)


NON_REAL = (QQi(1, -3), QQi(Fraction(2, 7), Fraction(5, 3)), QQi(0, -1),
            QQi(Fraction(-4, 9), Fraction(1, 11)))
POINTS = np.array([0.3 + 0.2j, -1.7 + 2.9j, 1e3 - 4e2j, 0j, -0.0 - 1j])


class TestComplexCoefficientCache:
    def test_matches_uncached_horner_bit_for_bit(self):
        p = UnivariatePoly(NON_REAL)
        want = _horner(p, POINTS).tobytes()
        assert _cached_horner(p, POINTS).tobytes() == want
        assert _cached_horner(p, POINTS).tobytes() == want  # second call reads the cache
        assert p.complex_coeffs == tuple(complex(c) for c in NON_REAL)

    def test_coefficient_past_the_float_range(self):
        big = Fraction(-10 ** 400, 3)
        for convert in (lambda: UnivariatePoly([1, QQi(0, big)]).complex_coeffs,
                        lambda: complex(QQi(big))):
            with pytest.raises(ValueError, match=f"coefficient {big} is past the float range"):
                convert()
        # a huge numerator over a huge denominator is in range
        assert UnivariatePoly([QQi(Fraction(10 ** 400 + 1, 10 ** 400))]).complex_coeffs == (1 + 0j,)

    def test_coefficient_below_the_float_range(self):
        tiny = Fraction(-1, 3 * 10 ** 400)
        for convert in (lambda: UnivariatePoly([1, QQi(0, tiny)]).complex_coeffs,
                        lambda: complex(QQi(tiny))):
            with pytest.raises(ValueError, match=f"coefficient {tiny} is below the float range"):
                convert()
        # zero is exact, and a subnormal value still rounds to a nonzero float
        assert complex(QQi(0)) == 0
        assert complex(QQi(Fraction(1, 10 ** 320))) == 1e-320

    def test_polynomials_built_from_an_evaluated_one(self):
        p = UnivariatePoly(NON_REAL)
        q = UnivariatePoly([QQi(2), QQi(0, 1)])
        _cached_horner(p, POINTS)
        _cached_horner(q, POINTS)
        for built in (p + q, p - q, p * q, q * p, p ** 2, p.derivative(),
                      p * QQi(0, 2), -p):
            assert _cached_horner(built, POINTS).tobytes() == _horner(built, POINTS).tobytes()
        assert _cached_horner(p * q, POINTS) == pytest.approx(
            _horner(p, POINTS) * _horner(q, POINTS), rel=1e-12)

    def test_equality_and_hash_ignore_the_cache(self):
        evaluated, fresh = UnivariatePoly(NON_REAL), UnivariatePoly(NON_REAL)
        _cached_horner(evaluated, POINTS)
        assert evaluated == fresh
        assert hash(evaluated) == hash(fresh)
        assert {fresh: "x"}[evaluated] == "x"


class TestSquarefree:
    def test_cubed_factor(self):
        p = up(-2, 1) ** 3 * up(3, 1)
        factors = squarefree_decomposition(p)
        assert sorted((g.degree, k) for g, k in factors) == [(1, 1), (1, 3)]

    def test_squarefree_input(self):
        p = up(-1, 0, 1)
        assert squarefree_decomposition(p) == [(p.monic(), 1)]

    def test_reconstruction(self):
        p = up(1, 1) ** 2 * up(-1, 1) * up(0, 1) ** 4
        product = UnivariatePoly([1])
        for g, k in squarefree_decomposition(p):
            product = product * g ** k
        assert product == p.monic()


class TestPolyRoots:
    def test_constructed_multiplicities(self):
        p = up(-2, 1) ** 3 * up(3, 1)
        roots = poly_roots_with_multiplicity(p)
        found = {(round(z.real, 8), round(z.imag, 8)): k for z, k in roots}
        assert found == {(2.0, 0.0): 3, (-3.0, 0.0): 1}

    def test_gaussian_pair(self):
        roots = poly_roots_with_multiplicity(up(1, 0, 1))
        locs = sorted((round(z.real, 8), round(z.imag, 8)) for z, _ in roots)
        assert locs == [(0.0, -1.0), (0.0, 1.0)]

    def test_total_count(self):
        p = up(3, -1) * up(1, 1) ** 2 * up(-1, 0, 0, 1)
        roots = poly_roots_with_multiplicity(p)
        assert sum(k for _, k in roots) == p.degree

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            poly_roots_with_multiplicity(UnivariatePoly())


def _random_qqi(rng: random.Random) -> QQi:
    return QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 7)))


def _random_poly(rng: random.Random, degree: int) -> UnivariatePoly:
    """Degree exactly `degree`, Gaussian-rational coefficients with denominators <= 7."""
    coeffs = [_random_qqi(rng) for _ in range(degree)]
    lead = _random_qqi(rng)
    return UnivariatePoly(coeffs + [lead if lead else QQi(1, Fraction(1, 7))])


class TestAgainstSympy:
    """Differential checks against sympy's Q(i)[z] (test-only dependency)."""

    SEEDS = range(12)

    @pytest.fixture(autouse=True)
    def _sympy(self):
        self.sympy = pytest.importorskip("sympy")
        self.z = self.sympy.Symbol("z")

    def to_sympy(self, p: UnivariatePoly):
        sp = self.sympy
        return sp.Poly([sp.Rational(c.re.numerator, c.re.denominator)
                        + sp.I * sp.Rational(c.im.numerator, c.im.denominator)
                        for c in reversed(p.coeffs)], self.z, domain=sp.QQ_I)

    def from_sympy(self, q) -> UnivariatePoly:
        def qqi(c):
            re, im = (self.sympy.Rational(part) for part in (self.sympy.re(c), self.sympy.im(c)))
            return QQi(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
        return UnivariatePoly([qqi(c) for c in reversed(q.all_coeffs())])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_product_derivative_division(self, seed):
        rng = random.Random(seed)
        a = _random_poly(rng, rng.randint(0, 8))
        b = _random_poly(rng, rng.randint(0, 5))
        assert any(c.im for c in a.coeffs + b.coeffs)
        sa, sb = self.to_sympy(a), self.to_sympy(b)
        assert a * b == self.from_sympy(sa * sb)
        assert a.derivative() == self.from_sympy(sa.diff(self.z))
        q, r = a.divmod_exact(b)
        sq, sr = sa.div(sb)
        assert (q, r) == (self.from_sympy(sq), self.from_sympy(sr))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gcd_and_squarefree(self, seed):
        rng = random.Random(seed)
        g, u, v = (_random_poly(rng, d) for d in (2, rng.randint(1, 3), rng.randint(1, 3)))
        a, b = g * u, g * v
        assert poly_gcd(a, b) == self.from_sympy(self.to_sympy(a).gcd(self.to_sympy(b)).monic())
        p = _random_poly(rng, 1) * _random_poly(rng, 2) ** 2 * _random_poly(rng, 1) ** 3
        _, factors = self.to_sympy(p).sqf_list()
        expected = {k: self.from_sympy(f.monic()) for f, k in factors}
        assert dict((k, f) for f, k in squarefree_decomposition(p)) == expected


gaussian_rationals = st.builds(
    lambda a, b, d, e: QQi(Fraction(a, d), Fraction(b, e)),
    st.integers(-12, 12), st.integers(-12, 12), st.integers(1, 9), st.integers(1, 9))
gaussian_polys = st.lists(gaussian_rationals, max_size=6).map(UnivariatePoly)


def assert_same_canonical(p: UnivariatePoly, q: UnivariatePoly) -> None:
    assert p == q
    assert hash(p) == hash(q)
    assert (p.re, p.im, p.den) == (q.re, q.im, q.den)
    for r in (p, q):
        assert r.den > 0 and len(r.re) == len(r.im)
        assert math.gcd(r.den, *r.re, *r.im) == 1
        assert not r.re or r.re[-1] or r.im[-1]


class TestCanonicalForm:
    @given(gaussian_polys, gaussian_polys)
    @settings(max_examples=60, deadline=None)
    def test_exact_quotient(self, a, b):
        if b.is_zero:
            return
        q, r = (a * b).divmod_exact(b)
        assert_same_canonical(q, a)
        assert_same_canonical(r, UnivariatePoly())

    @given(gaussian_polys, gaussian_rationals)
    @settings(max_examples=60, deadline=None)
    def test_scale_and_unscale(self, a, c):
        if c.is_zero:
            return
        assert_same_canonical(a * c * (QQi(1) / c), a)

    @given(st.lists(st.tuples(gaussian_rationals, st.integers(0, 4)), max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_repeated_powers(self, pairs):
        total = [QQi(0)] * 5
        for c, k in pairs:
            total[k] = total[k] + c
        text = " + ".join(f"({c})*z^{k}" for c, k in pairs) or "0"
        assert_same_canonical(parse_coordinate(text).poly, UnivariatePoly(total))

    @given(gaussian_polys, gaussian_polys)
    @settings(max_examples=60, deadline=None)
    def test_cancelling_sum(self, a, b):
        assert_same_canonical((a + b) - b - a, UnivariatePoly())
        assert_same_canonical((a + b) - b, a)

    def test_equal_exponents_share_one_key(self):
        f = parse_coordinate("exp(1/2*z + 1/2*z) + exp(z)")
        assert list(f.terms.items()) == [(UnivariatePoly([0, 1]), UnivariatePoly([2]))]
        assert parse_coordinate("exp(1/2*z + 1/2*z) - exp(z)").is_zero


def qqi_product(a: UnivariatePoly, b: UnivariatePoly) -> UnivariatePoly:
    """The product convolved on the QQi coefficient view."""
    out = [QQi(0)] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return UnivariatePoly(out)


rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))
real_polys = st.lists(rationals, max_size=6).map(UnivariatePoly)


class TestProducts:
    """Real numerators take their own convolution and rational scalars scale
    the numerators; both must give the canonical form of the general path."""

    @given(st.one_of(real_polys, gaussian_polys), st.one_of(real_polys, gaussian_polys))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_coefficient_convolution(self, a, b):
        assert_same_canonical(a * b, qqi_product(a, b))

    @given(st.one_of(real_polys, gaussian_polys), st.one_of(rationals, st.integers(-9, 9)))
    @settings(max_examples=80, deadline=None)
    def test_rational_scalar_is_the_constant_polynomial(self, a, c):
        want = qqi_product(a, UnivariatePoly.constant(c))
        assert_same_canonical(a * c, want)
        assert_same_canonical(c * a, want)

    @given(gaussian_rationals, gaussian_rationals)
    @settings(max_examples=80, deadline=None)
    def test_qqi_product(self, x, y):
        for u, v in ((x, y), (QQi(x.re), QQi(y.re)), (QQi(x.re), y)):
            got = u * v
            assert (got.re, got.im) == (u.re * v.re - u.im * v.im, u.re * v.im + u.im * v.re)
            assert type(got.re) is Fraction and type(got.im) is Fraction
