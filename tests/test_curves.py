"""Curve coordinates against the code they replaced: stacked evaluation
against the per-key loop, and the parser's collection against grouping
uncollected term records."""

import random
from fractions import Fraction

import numpy as np
import pytest

from nochka.curves import CurveCoordinate, ProjectiveCurve, compose, parse_coordinate
from nochka.fixtures import (exp_curve, generate_intro_fixture, parabola_curve,
                             pencil_lines_arrangement)
from nochka.poly import Polynomial
from nochka.univar import QQi, UnivariatePoly


def per_key_value_and_derivative(coord: CurveCoordinate, z):
    """(f, f') key by key: one exp and one Horner pass per polynomial."""
    dterms = coord.derivative().terms
    z = np.asarray(z, dtype=np.complex128)
    total = np.zeros_like(z)
    dtotal = np.zeros_like(z)
    with np.errstate(over="ignore", invalid="ignore"):
        for p, c in coord.terms.items():
            e = np.exp(p.eval_array(z)) if p.re else 1.0
            total = total + c.eval_array(z) * e
            d = dterms.get(p)
            if d is not None:
                dtotal = dtotal + d.eval_array(z) * e
    return total, dtotal


def _gaussian(rng: random.Random) -> QQi:
    return QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 5)))


def _poly(rng: random.Random, degree: int) -> UnivariatePoly:
    return UnivariatePoly([_gaussian(rng) for _ in range(degree + 1)])


def _seeded_coordinates():
    rng = random.Random(14)
    coords = []
    for _ in range(12):
        # constant, linear and quadratic exponents, each with its own coefficient
        terms = {_poly(rng, rng.randint(0, 2)): _poly(rng, rng.randint(0, 3))
                 for _ in range(rng.randint(1, 5))}
        coords.append(CurveCoordinate(terms))
    coords += [CurveCoordinate.from_poly(_poly(rng, d)) for d in (0, 1, 4)]
    coords.append(CurveCoordinate({}))
    intro = generate_intro_fixture(1).arrangement
    coords += [compose(q, exp_curve()) for _, q in intro.hypersurfaces[:4]]
    return coords


COORDS = _seeded_coordinates()


def _agree(got, want) -> bool:
    return bool(np.all(np.abs(got - want) <= 1e-12 * np.abs(want)))


@pytest.mark.parametrize("coord", COORDS, ids=lambda c: f"{len(c.terms)}keys")
@pytest.mark.parametrize("shape", [(), (0,), (7,), (2, 3)])
def test_stacked_matches_per_key_loop(coord, shape):
    rng = np.random.default_rng(len(coord.terms) * 10 + len(shape))
    z = 1.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    got = coord.value_and_derivative(z)
    want = per_key_value_and_derivative(coord, z)
    for g, w in zip(got, want):
        assert g.shape == np.shape(z) and g.dtype == np.complex128
        assert _agree(g, w)


@pytest.mark.parametrize("coord", COORDS, ids=lambda c: f"{len(c.terms)}keys")
def test_overflow_is_non_finite_at_the_same_points(coord):
    # exp(z^2) overflows at z = 30 and 27 + i, underflows at 30i
    z = np.array([30.0, 1.0, 30j, -30.0, 27 + 1j, 0.2 - 0.1j, 800.0])
    got = coord.value_and_derivative(z)
    want = per_key_value_and_derivative(coord, z)
    for g, w in zip(got, want):
        finite = np.isfinite(w)
        assert (np.isfinite(g) == finite).all()
        assert _agree(g[finite], w[finite])


def test_exp_z_squared_overflows_to_non_finite():
    coord = exp_curve().coordinates[2]
    f, df = coord.value_and_derivative(np.array([30.0, 1.0]))
    assert not np.isfinite(f[0]) and not np.isfinite(df[0])
    assert np.isfinite(f[1]) and np.isfinite(df[1])


@pytest.mark.parametrize("coord", COORDS, ids=lambda c: f"{len(c.terms)}keys")
def test_each_point_gets_the_bits_of_a_one_point_call(coord):
    # root finding relies on this: a Newton entry or a contour sample must
    # not depend on what it is batched with
    rng = np.random.default_rng(3)
    z = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    f, df = coord.value_and_derivative(z)
    for j in range(z.size):
        fj, dfj = coord.value_and_derivative(z[j:j + 1])
        assert fj.tobytes() == f[j:j + 1].tobytes()
        assert dfj.tobytes() == df[j:j + 1].tobytes()


def _polynomial_curves():
    rng = random.Random(29)
    curves = [parabola_curve()]
    while len(curves) < 7:
        # real integer coefficients for the first few, Gaussian-rational after
        real = len(curves) < 4
        coords = [UnivariatePoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 4))])
                  if real else _poly(rng, rng.randint(0, 3)) for _ in range(3)]
        try:
            curves.append(ProjectiveCurve([CurveCoordinate.from_poly(c) for c in coords]))
        except ValueError:
            pass  # all zero, or a common factor
    return curves


@pytest.mark.parametrize("curve", _polynomial_curves(), ids=lambda c: repr(c)[16:60])
def test_compose_on_a_polynomial_curve_matches_the_keyed_evaluation(curve):
    # compose evaluates on the bare polynomials of a polynomial curve; the
    # exponent-keyed CurveCoordinate arithmetic must give the same terms
    one = CurveCoordinate.from_poly(UnivariatePoly.constant(1))
    intro = generate_intro_fixture(2).arrangement
    targets = [*intro.forms, *pencil_lines_arrangement().normalized_forms(),
               intro.forms[0] * intro.forms[3] - intro.forms[1] ** 2, Polynomial.zero(3)]
    for target in targets:
        got = compose(target, curve)
        want = target.evaluate_exact(curve.coordinates, one)
        assert got.terms == want.terms
        assert got.poly == want.poly


def collect_term_records(terms) -> CurveCoordinate:
    """The collection the parser replaced: (coef, power, exponent) records
    grouped by exponent in order of first appearance, then each group's
    coefficients summed power by power."""
    pairs: dict[UnivariatePoly, list] = {}
    for coef, power, exponent in terms:
        pairs.setdefault(exponent, []).append((coef, power))
    out = {}
    for p, cp in pairs.items():
        acc: dict[int, QQi] = {}
        for coef, power in cp:
            acc[power] = acc.get(power, QQi(0)) + coef
        out[p] = UnivariatePoly([acc.get(k, QQi(0)) for k in range(max(acc, default=-1) + 1)])
    return CurveCoordinate(out)


_EXPONENTS = [UnivariatePoly(), UnivariatePoly([0, 1]), UnivariatePoly([1, 1]),
              UnivariatePoly([0, 0, 1]), UnivariatePoly([0, QQi(0, 1)]),
              UnivariatePoly([Fraction(-1, 2), 0, Fraction(3, 2)])]


def _term_text(rng: random.Random, coef: QQi, power: int, exponent: UnivariatePoly) -> str:
    """'+ coef * z^power * exp(exponent)' as text, its factors split and shuffled."""
    sign, factors = "+", []
    if coef.im == 0 and rng.random() < 0.5:
        sign = "-" if coef.re < 0 else "+"
        factors.append(str(abs(coef.re)))
    elif rng.random() < 0.3:
        factors += ["2", f"({coef / 2})"]
    else:
        factors.append(f"({coef})")
    if power == 1:
        factors.append("z")
    elif power > 1:
        factors += ["z", f"z^{power - 1}"] if rng.random() < 0.3 else [f"z^{power}"]
    if not exponent.is_zero or rng.random() < 0.2:
        split = rng.choice(_EXPONENTS)
        if rng.random() < 0.3:
            factors += [f"exp({split.to_text()})", f"exp({(exponent - split).to_text()})"]
        else:
            factors.append(f"exp({exponent.to_text()})")
    rng.shuffle(factors)
    return f"{sign} {'*'.join(factors)}"


def _seeded_term_texts(texts: int):
    """(text, term records) with 1-6 terms each: Gaussian coefficients, powers of z,
    and exponents drawn from a small pool, so they repeat and, some, cancel."""
    rng = random.Random(31)
    for _ in range(texts):
        terms, count = [], rng.randint(1, 6)
        while len(terms) < count:
            if terms and rng.random() < 0.2:
                coef, power, exponent = rng.choice(terms)
                terms.append((-coef, power, exponent))
                continue
            coef = QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                       rng.choice([0, 0, Fraction(rng.randint(-5, 5), rng.randint(1, 3))]))
            terms.append((coef, rng.randint(0, 3), rng.choice(_EXPONENTS)))
        text = " ".join(_term_text(rng, *t) for t in terms)
        yield text, terms


def test_parser_collects_like_grouping_term_records():
    # the collected keys fix the order of float sums in evaluation, and so
    # the bits of every zero: the order must be the grouping's too
    for text, terms in _seeded_term_texts(600):
        got = parse_coordinate(text)
        want = collect_term_records(terms)
        assert list(got.terms.items()) == list(want.terms.items()), text
