"""Characteristic, divisors, counting, proximity, Jensen, Wronskian, reports."""

import gc
import math
import weakref
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from nochka.curves import (CurveCoordinate, ExpTerm, ProjectiveCurve, compose,
                           parse_coordinate, parse_curve)
from nochka.errors import QuadratureError
from nochka.fixtures import (exp_curve, generate_intro_fixture, parabola_curve,
                             pencil_lines_arrangement, three_point_arrangement)
from nochka.geometry import (Arrangement, codim_oracle, hilbert_function, hilbert_weight,
                             parse_arrangement)
from nochka.nevanlinna import (PERTURB_FACTOR, QUAD_K0, QUAD_KMAX, _averaged_with_perturbation,
                               _circle_average, _circle_averages,
                               cartan_ru_check, characteristic, counting_function,
                               jensen_check, lift_curve, proximity, smt_report,
                               wronskian, wronskian_divisor_check, zero_divisor)
from nochka.poly import Polynomial, monomials_of_degree, parse_polynomial
from nochka.rank_core import linear_matroid_oracle
from nochka.univar import QQi, UnivariatePoly

V3 = ("x0", "x1", "x2")

VANISHING_G_ARRANGEMENT = """[space] M=2 n=2 degV=1 N=2
[vars] x0 x1 x2
[variety]
[hypersurfaces]
H0 : x0
H2 : x2
H3 : x0 + x1 + x2
G : x0*x2 - x1^2
"""
VANISHING_G_CURVE = "[curve] M=2\n1\nexp(z)\nexp(2*z)\n"


def up(*coeffs) -> UnivariatePoly:
    return UnivariatePoly(list(coeffs))


def poly_curve(*polys) -> ProjectiveCurve:
    return ProjectiveCurve([CurveCoordinate.from_poly(p) for p in polys])


def single_exp(exponent: UnivariatePoly) -> CurveCoordinate:
    return CurveCoordinate.from_terms([ExpTerm(QQi(1), 0, exponent)])


class TestCharacteristic:
    def test_line_curve_is_log_r(self):
        f = poly_curve(up(1), up(0, 1))
        assert characteristic(f, 100) == pytest.approx(math.log(100), abs=1e-12)

    def test_parabola_is_two_log_r(self):
        assert characteristic(parabola_curve(), 1000) == pytest.approx(
            2 * math.log(1000), abs=1e-9)

    def test_exponential_closed_form(self):
        f = ProjectiveCurve([CurveCoordinate.from_poly(up(1)), single_exp(up(0, 1))])
        assert characteristic(f, 5) == pytest.approx(5 / math.pi, abs=1e-6)

    def test_radius_below_one_rejected(self):
        with pytest.raises(ValueError):
            characteristic(parabola_curve(), 0.5)

    def test_non_finite_radius_or_tolerance_rejected(self):
        target = parse_polynomial("x0", V3)
        for r, tol in ((math.nan, 1e-9), (math.inf, 1e-9), (2.0, 0.0), (2.0, math.nan)):
            with pytest.raises(ValueError):
                characteristic(parabola_curve(), r, tol=tol)
            with pytest.raises(ValueError):
                proximity(parabola_curve(), target, r, tol=tol)


class _Counted:
    """A synthetic integrand that counts the levels it sees."""

    def __init__(self, fn):
        self.fn = fn
        self.levels = 0

    def __call__(self, values):
        self.levels += 1
        return self.fn(values)


# synthetic integrands map the shared samples (r, thetas) to values
def _smooth(values):
    _, thetas = values
    # a trigonometric polynomial of low degree: 64 points are exact
    return np.cos(thetas) + 2


def _slow(values):
    _, thetas = values
    # sum_{j>=1} a^j cos(j theta): the 2^k-point mean is a^n / (1 - a^n) with
    # n = 2^k, so successive levels differ by about a^(n/2)
    a = 10 ** (-6 / 1024)
    w = a * np.exp(1j * thetas)
    return (w / (1 - w)).real


def _singular_at_two(values):
    r, thetas = values
    return np.sin(thetas) ** 2 + (np.inf if r == 2.0 else r)


def _sawtooth(values):
    # discontinuous: successive levels differ by pi / 2^k, above 1e-9 at every level
    return values[1]


def _samples(r, thetas):
    return r, thetas


class TestSharedQuadrature:
    def test_each_integrand_matches_its_own_run(self):
        fns = [_smooth, _slow, _singular_at_two, _sawtooth]
        shared = [_Counted(fn) for fn in fns]
        outcomes = _circle_averages(_samples, shared, 2.0, tol=1e-9)
        # levels run QUAD_K0 = 6 .. QUAD_KMAX = 20; each integrand stops at its own
        assert [c.levels for c in shared] == [2, 7, 1, QUAD_KMAX - QUAD_K0 + 1]
        for fn, outcome in zip(fns, outcomes):
            [alone] = _circle_averages(_samples, [_Counted(fn)], 2.0, tol=1e-9)
            assert type(outcome) is type(alone)
            if isinstance(alone, float):
                assert outcome == alone
        assert outcomes[0] == 2.0
        assert abs(outcomes[1]) < 1e-9
        assert outcomes[2] is None
        assert isinstance(outcomes[3], QuadratureError)
        assert outcomes[3].achieved > 1e-9
        assert outcomes[3].achieved == _circle_averages(_samples, [_sawtooth], 2.0,
                                                        tol=1e-9)[0].achieved

    def test_base_is_computed_once_per_level(self):
        calls = []

        def base(r, thetas):
            calls.append(len(thetas))
            return r, thetas

        _circle_averages(base, [_Counted(fn) for fn in (_smooth, _slow, _singular_at_two)],
                         2.0, tol=1e-9)
        assert calls == [64] + [1 << (k - 1) for k in range(7, 13)]

    def test_earlier_levels_are_released(self):
        class Samples(list):
            """(r, thetas) that a weak reference can watch."""

        previous, alive = [], []

        def base(r, thetas):
            alive.append(sum(ref() is not None for ref in previous))
            samples = Samples([r, thetas])
            previous.append(weakref.ref(samples))
            return samples

        def watched(fn):
            """`fn` with each array it returns watched as well."""
            def integrand(values):
                out = np.array(fn(values))
                previous.append(weakref.ref(out))
                return out
            return integrand

        _circle_averages(base, [watched(_singular_at_two), watched(_sawtooth)], 2.0, tol=1e-9)
        assert alive == [0] * (QUAD_KMAX - QUAD_K0 + 1)

    def test_perturbation_and_errors_per_integrand(self):
        fns = [_smooth, _slow, _singular_at_two]
        results = _averaged_with_perturbation(_samples, fns, 2.0, tol=1e-9)
        assert results == [_circle_average(_samples, fn, 2.0, tol=1e-9) for fn in fns]
        assert [r for _, r in results] == [2.0, 2.0, 2.0 * PERTURB_FACTOR]
        with pytest.raises(QuadratureError) as shared:
            _averaged_with_perturbation(_samples, fns + [_sawtooth], 2.0, tol=1e-9)
        with pytest.raises(QuadratureError) as alone:
            _circle_average(_samples, _sawtooth, 2.0, tol=1e-9)
        assert shared.value.achieved == alone.value.achieved
        assert str(shared.value) == str(alone.value)

    def test_always_singular_integrand_raises(self):
        def always(values):
            return np.full(values[1].shape, np.nan)

        with pytest.raises(QuadratureError, match="stayed singular"):
            _averaged_with_perturbation(_samples, [_smooth, always], 2.0, tol=1e-9)


def _lines_through_two():
    """Four lines in general position; on the parabola, H3 = x1 - 2*x0 is z - 2."""
    forms = [parse_polynomial(t, V3) for t in ("x0", "x2", "x1 - 2*x0", "x0 + x1 + x2")]
    return forms, Arrangement(2, 2, 1, 2, (),
                              tuple((f"H{k}", f) for k, f in enumerate(forms, 1)), V3)


class TestSingularSamples:
    """A sample z = 2 on the circle r = 2 hits a zero, and that integrand alone
    moves to r = 2 * PERTURB_FACTOR.  There log|z - 2| still has a log
    singularity within 2e-6 of the circle, so only a loose tolerance converges."""

    R_EFF = 2 * PERTURB_FACTOR

    def test_proximity_hits_the_value_floor(self):
        forms, _ = _lines_through_two()
        assert proximity(parabola_curve(), forms[2], 2, tol=1e-5) == \
            proximity(parabola_curve(), forms[2], self.R_EFF, tol=1e-5)

    def test_jensen_records_the_radius_used(self):
        report = jensen_check(parse_coordinate("z - 2"), [2], tol=1e-5)
        assert report.radii_used == (self.R_EFF,)

    def test_smt_report_perturbs_one_target(self):
        _, arr = _lines_through_two()
        report = smt_report(parabola_curve(), arr, Fraction(1, 2), [2], tol=1e-5)
        [row] = report.rows
        assert row.T == characteristic(parabola_curve(), 2, tol=1e-5)
        assert [t.name for t in row.targets if t.r_used != row.r] == ["H3"]
        assert [t.r_used for t in row.targets if t.name == "H3"] == [self.R_EFF]

    def test_cartan_takes_T_at_the_radius_used(self):
        forms, _ = _lines_through_two()
        [row] = cartan_ru_check(parabola_curve(), forms, 1, [2], tol=1e-5).rows
        assert row.T == characteristic(parabola_curve(), self.R_EFF, tol=1e-5)
        assert row.rhs == 4 * row.T

    def test_default_tolerance_does_not_converge(self):
        forms, arr = _lines_through_two()
        calls = [lambda: proximity(parabola_curve(), forms[2], 2),
                 lambda: jensen_check(parse_coordinate("z - 2"), [2]),
                 lambda: smt_report(parabola_curve(), arr, Fraction(1, 2), [2]),
                 lambda: cartan_ru_check(parabola_curve(), forms, 1, [2])]
        for call in calls:
            with pytest.raises(QuadratureError, match="did not converge"):
                call()


class TestSMTSharedGrid:
    """Each row of `smt_report` equals T(r) and m(r, D_j) computed alone."""

    @staticmethod
    def _assert_rows_match(curve, arr, radii, **kwargs):
        report = smt_report(curve, arr, Fraction(1, 2), radii, **kwargs)
        forms = dict(arr.hypersurfaces)
        for row in report.rows:
            assert row.T == characteristic(curve, row.r)
            for t in row.targets:
                assert t.proximity == proximity(curve, forms[t.name], row.r)

    def test_exp_curve_intro_1(self):
        self._assert_rows_match(exp_curve(), generate_intro_fixture(1).arrangement, [2.0])

    def test_parabola_pencil(self):
        self._assert_rows_match(parabola_curve(), pencil_lines_arrangement(), [1.5, 10],
                                truncations=2)


class TestZeroDivisor:
    def test_polynomial_multiplicities(self):
        p = up(-2, 1) ** 3 * up(3, 1)
        div = zero_divisor(p)
        entries = {(round(z.real, 8), round(z.imag, 8)): k for z, k in div.entries}
        assert entries == {(2.0, 0.0): 3, (-3.0, 0.0): 1}
        assert div.radius_of_validity == math.inf

    def test_gaussian_roots(self):
        div = zero_divisor(up(1, 0, 1))
        locs = sorted((round(z.real, 8), round(z.imag, 8)) for z, _ in div.entries)
        assert locs == [(0.0, -1.0), (0.0, 1.0)]

    def test_exp_minus_one(self):
        g = CurveCoordinate.from_terms([ExpTerm(QQi(1), 0, up(0, 1)),
                                        ExpTerm(QQi(-1), 0, UnivariatePoly())])
        div = zero_divisor(g, 7.0)
        assert div.total_multiplicity() == 3
        locations = sorted((round(z.real, 6), round(z.imag, 6)) for z, _ in div.entries)
        two_pi = round(2 * math.pi, 6)
        assert locations == [(0.0, -two_pi), (0.0, 0.0), (-0.0, two_pi)] or \
            locations == [(0.0, -two_pi), (0.0, 0.0), (0.0, two_pi)]

    def test_exp_double_zeros(self):
        # e^{2z} - 2 e^z + 1 has double zeros exactly where e^z - 1 vanishes
        g = CurveCoordinate.from_terms([ExpTerm(QQi(1), 0, up(0, 2)),
                                        ExpTerm(QQi(-2), 0, up(0, 1)),
                                        ExpTerm(QQi(1), 0, UnivariatePoly())])
        div = zero_divisor(g, 7.0)
        assert sorted(k for _, k in div.entries) == [2, 2, 2]
        assert div.total_multiplicity() == 6


class TestCounting:
    def test_closed_form(self):
        div = zero_divisor(up(-2, 1) ** 3 * up(3, 1))
        assert counting_function(div, 10) == pytest.approx(
            3 * math.log(5) + math.log(10 / 3), abs=1e-12)

    def test_truncation(self):
        div = zero_divisor(up(-2, 1) ** 3 * up(3, 1))
        assert counting_function(div, 10, 2) == pytest.approx(
            2 * math.log(5) + math.log(10 / 3), abs=1e-12)

    def test_zero_inside_unit_disk(self):
        div = zero_divisor(up(0, 1))
        for r in (2.0, 5.0, 13.0):
            assert counting_function(div, r) == pytest.approx(math.log(r), abs=1e-12)

    @pytest.mark.parametrize("r", [math.nan, math.inf, 0.5])
    def test_radius_must_be_finite_and_at_least_one(self, r):
        with pytest.raises(ValueError, match="finite and >= 1"):
            counting_function(zero_divisor(up(-2, 1)), r)

    def test_monotone_in_radius_and_truncation(self):
        div = zero_divisor(up(-2, 1) ** 3 * up(3, 1) * up(-5, 1))
        values = [counting_function(div, r) for r in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        assert counting_function(div, 10, 1) <= counting_function(div, 10, 2) \
            <= counting_function(div, 10)

    def test_degree_times_log_r_tail(self):
        p = up(-2, 1) * up(3, 1) * up(-1, 2)  # all roots within |z| < 4
        div = zero_divisor(p)
        base = counting_function(div, 4.0) - p.degree * math.log(4.0)
        for r in (8.0, 64.0):
            assert counting_function(div, r) - p.degree * math.log(r) == \
                pytest.approx(base, abs=1e-12)

    def test_piecewise_linear_convex_in_log_r(self):
        div = zero_divisor(up(-2, 1) ** 2 * up(3, 1) * up(-5, 1) * up(QQi(0, 4), QQi(1)))
        rs = [1.0 * 1.3 ** k for k in range(12)]
        values = [counting_function(div, r) for r in rs]
        slopes = [(b - a) / (math.log(s) - math.log(r))
                  for (r, a), (s, b) in zip(zip(rs, values), zip(rs[1:], values[1:]))]
        # slope in log r is the zero count inside radius r: nondecreasing
        assert all(x <= y + 1e-12 for x, y in zip(slopes, slopes[1:]))

    def test_close_roots_stay_distinct(self):
        # (z - 1)(z - 1 - 10^-9) has two simple zeros, however close they are
        div = zero_divisor(up(-1, 1) * up(-1 - Fraction(1, 10 ** 9), 1))
        assert [k for _, k in div.entries] == [1, 1]
        assert counting_function(div, 10, 1) == pytest.approx(2 * math.log(10), abs=1e-6)

    def test_validity_radius_enforced(self):
        g = CurveCoordinate.from_terms([ExpTerm(QQi(1), 0, up(0, 1)),
                                        ExpTerm(QQi(-1), 0, UnivariatePoly())])
        div = zero_divisor(g, 7.0)
        with pytest.raises(ValueError):
            counting_function(div, 20.0)


class TestProximity:
    def test_vanishing_at_infinity_target(self):
        f = poly_curve(up(1), up(0, 1))
        target = parse_polynomial("x1", ("x0", "x1"))
        assert proximity(f, target, 10) == pytest.approx(0.0, abs=1e-9)

    def test_constant_coordinate_target(self):
        f = poly_curve(up(1), up(0, 1))
        target = parse_polynomial("x0", ("x0", "x1"))
        assert proximity(f, target, 10) == pytest.approx(math.log(10), abs=1e-9)

    def test_degenerate_target_rejected(self):
        target = parse_polynomial("x0*x2 - x1^2", V3)
        with pytest.raises(ValueError):
            proximity(parabola_curve(), target, 10)

    def test_degenerate_target_on_exponential_curve_rejected(self):
        # G(1, e^z, e^{2z}) = e^{2z} - (e^z)^2 vanishes identically
        arr = parse_arrangement(VANISHING_G_ARRANGEMENT)
        curve = parse_curve(VANISHING_G_CURVE)
        G = dict(arr.hypersurfaces)["G"]
        with pytest.raises(ValueError, match="vanishes identically"):
            proximity(curve, G, 2)
        with pytest.raises(ValueError, match="target G vanishes identically on the curve"):
            smt_report(curve, arr, Fraction(1, 2), [2])


class TestJensen:
    def test_constant_function(self):
        report = jensen_check(up(QQi(0, 3)), [2, 4, 8])
        assert report.max_deviation < 1e-9
        assert report.constant == pytest.approx(math.log(3), abs=1e-9)

    def test_quadratic(self):
        report = jensen_check(up(-4, 0, 1), [4, 8, 16])
        assert report.max_deviation < 1e-6
        # all zeros sit outside the unit disk: constant = sum of their log moduli
        assert report.constant == pytest.approx(math.log(4), abs=1e-6)

    def test_zero_inside_unit_disk(self):
        report = jensen_check(up(QQi(Fraction(-1, 2)), QQi(1)), [2, 4, 8])
        assert report.max_deviation < 1e-6
        assert report.constant == pytest.approx(0.0, abs=1e-6)

    def test_phi_vanishing_at_origin_rejected(self):
        with pytest.raises(ValueError):
            jensen_check(up(0, 1), [2, 4])

    def test_phi_at_origin_decided_exactly(self):
        # phi(0) = 10^-20 is tiny but not zero
        report = jensen_check(parse_coordinate("1/100000000000000000000 + z"), [2, 4])
        assert report.max_deviation < 1e-6
        for text in ("exp(z) - 1", "exp(z) - exp(2*z) + z"):
            with pytest.raises(ValueError, match="phi\\(0\\) = 0"):
                jensen_check(parse_coordinate(text), [2, 4])

    def test_transcendental(self):
        phi = CurveCoordinate.from_terms([ExpTerm(QQi(1), 0, up(0, 1)),
                                          ExpTerm(QQi(2), 0, UnivariatePoly())])
        report = jensen_check(phi, [2, 4])
        assert report.max_deviation < 1e-6


class TestWronskian:
    def test_rational_normal_curve(self):
        assert wronskian([up(1), up(0, 1), up(0, 0, 1)]) == up(2)

    def test_cubic_monomials(self):
        assert wronskian([up(1), up(0, 1), up(0, 0, 0, 1)]) == up(0, 6)

    def test_dependent_inputs_vanish(self):
        assert wronskian([up(1, 1), up(2, 2)]).is_zero

    def test_pair(self):
        assert wronskian([up(1), up(0, 1)]) == up(1)


class TestWronskianDivisorCheck:
    def test_equality_case(self):
        report = wronskian_divisor_check([up(1), up(0, 1), up(0, 0, 1)])
        assert report.ok
        row = report.points[0]
        assert (row.product_order, row.wronskian_order, row.bound) == (3, 0, 3)

    def test_two_coordinates(self):
        report = wronskian_divisor_check([up(1), up(0, 1)])
        assert report.ok
        assert report.points[0].bound == 1

    def test_common_factor_rejected(self):
        base = up(-1, 1)
        with pytest.raises(ValueError):
            wronskian_divisor_check([base, base * up(0, 1), base * up(0, 0, 1)])

    def test_dependent_rejected(self):
        with pytest.raises(ValueError):
            wronskian_divisor_check([up(1, 1), up(2, 2), up(0, 1)])

    def test_random_coprime_triples(self):
        import random
        rng = random.Random(11)
        done = 0
        while done < 25:
            polys = [UnivariatePoly([rng.randint(-4, 4) for _ in range(rng.randint(2, 6))])
                     for _ in range(3)]
            if any(p.is_zero for p in polys):
                continue
            from nochka.univar import poly_gcd_many
            if poly_gcd_many(polys).degree > 0 or wronskian(polys).is_zero:
                continue
            assert wronskian_divisor_check(polys).ok
            done += 1


class TestCartan:
    def test_parabola_with_four_lines(self):
        hyps = [parse_polynomial(t, V3) for t in ("x0", "x1", "x2", "x0 + x1 + x2")]
        report = cartan_ru_check(parabola_curve(), hyps, 1, [100])
        assert report.general_position_subsets == 4
        assert report.rows[0].slack >= 0

    def test_single_hyperplane_vacuous_max(self):
        f = poly_curve(up(1), up(0, 1))
        h = parse_polynomial("x1", ("x0", "x1"))
        report = cartan_ru_check(f, [h], 1, [10])
        assert report.general_position_subsets == 0
        assert report.rows[0].max_sum_integral == 0
        assert report.rows[0].lhs == pytest.approx(report.rows[0].wronskian_counting)
        assert report.rows[0].slack >= 0

    def test_degenerate_curve_rejected(self):
        f = poly_curve(up(1, 1), up(2, 2), up(0, 1))
        h = parse_polynomial("x0", V3)
        with pytest.raises(ValueError):
            cartan_ru_check(f, [h], 1, [10])


class TestLift:
    def test_three_point_identity(self):
        arr = three_point_arrangement()
        line = poly_curve(up(1), up(0, 1))
        for m in (1, 2, 3):
            lifted = lift_curve(line, arr, m)
            assert lifted.relation_dim == lifted.q_m - hilbert_function(arr, m).H

    def test_m2_values(self):
        arr = three_point_arrangement()
        line = poly_curve(up(1), up(0, 1))
        lifted = lift_curve(line, arr, 2)
        assert (lifted.q_m, lifted.relation_dim) == (6, 3)

    def test_constant_curve_degenerate(self):
        arr = three_point_arrangement()
        const = poly_curve(up(1), up(2))
        lifted = lift_curve(const, arr, 2)
        assert lifted.relation_dim == lifted.q_m - 1
        assert lifted.degenerate

    def test_identity_on_curved_variety(self):
        # (1 : z : z^2) parametrizes the plane conic; lifting through the
        # coordinate lines must see exactly the conic's coordinate ring
        conic = parse_polynomial("x0*x2 - x1^2", V3)
        hyps = tuple((f"H{i}", parse_polynomial(v, V3)) for i, v in enumerate(V3, 1))
        arr = Arrangement(2, 1, 2, 1, (conic,), hyps, V3)
        for m in (1, 2, 3):
            lifted = lift_curve(parabola_curve(), arr, m)
            assert lifted.relation_dim == lifted.q_m - hilbert_function(arr, m).H
            assert lifted.q_m - lifted.relation_dim == 2 * m + 1

    def test_non_real_coefficients(self):
        # (1 : i*z : -z^2) is the parabola under diag(1, i, -1) and (1 : z+i : z^2)
        # is on the conic (x1 - i*x0)^2 = x0*x2: the rank over Q(i) is 2m+1 for both
        arr = pencil_lines_arrangement()
        i = QQi(0, 1)
        for curve in (poly_curve(up(1), up(0, i), up(0, 0, -1)),
                      poly_curve(up(1), up(i, 1), up(0, 0, 1))):
            for m in (1, 2, 3):
                lifted = lift_curve(curve, arr, m)
                assert lifted.q_m - lifted.relation_dim == 2 * m + 1

    def test_coordinates_equal_fraction_products(self):
        # Q(i) coefficients with denominators and non-real parts on both sides
        # of each product; the reference multiplies `UnivariatePoly`s over QQi
        i = QQi(0, 1)
        curve = poly_curve(up(1), up(Fraction(1, 2), i), up(3, 0, Fraction(2, 3) - i))
        arr = pencil_lines_arrangement()
        composed = [compose(f, curve).poly for f in arr.normalized_forms()]
        for m in (1, 2, 3):
            expected = []
            for combo in combinations_with_replacement(composed, m):
                p = combo[0]
                for f in combo[1:]:
                    p = p * f
                expected.append(p)
            lifted = lift_curve(curve, arr, m)
            assert lifted.coordinates == tuple(expected)
            assert lifted.q_m - lifted.relation_dim == 2 * m + 1

    def test_identically_zero_coordinate(self):
        # x1 + x2 vanishes on (1 : z : -z): the rank counts the span of the
        # nonzero products only
        arr = pencil_lines_arrangement()
        curve = poly_curve(up(1), up(0, 1), up(0, -1))
        lifted = lift_curve(curve, arr, 2)
        assert (lifted.q_m, lifted.rank) == (45, 3)
        assert sum(c.is_zero for c in lifted.coordinates) == 9


class TestNoGarbageCycles:
    def test_products_are_freed_without_the_cycle_collector(self):
        # a reference cycle would keep every product, or an oracle's table,
        # alive until a full collection and raise peak memory
        conic = parse_polynomial("x0*x2 - x1^2", V3)
        hyps = tuple((f"H{k}", parse_polynomial(v, V3)) for k, v in enumerate(V3, 1))
        conic_arr = Arrangement(2, 1, 2, 1, (conic,), hyps, V3)
        pencil = pencil_lines_arrangement()
        curve = parabola_curve()
        exponential = parse_coordinate("exp(z^2) + exp(z) + 2")
        conic_arr.variety_ideal().groebner()
        gc.collect()
        gc.disable()
        try:
            hilbert_function(pencil, 3)
            hilbert_function(conic_arr, 3)
            hilbert_weight(pencil, 3, [Fraction(k, 3) for k in range(9)])
            lift_curve(curve, pencil, 2)
            codim_oracle(pencil)
            linear_matroid_oracle([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], 2)
            zero_divisor(exponential, 2.0)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSMTReport:
    def test_hyperplane_fixture_slack(self):
        report = smt_report(parabola_curve(), pencil_lines_arrangement(),
                            Fraction(1, 2), [10, 100], truncations=2)
        assert report.mode == "hyperplane"
        assert all(row.slack >= 0 for row in report.rows)
        assert max(report.fmt_deviation.values()) < 1e-9

    def test_default_truncation_in_hyperplane_mode(self):
        report = smt_report(parabola_curve(), pencil_lines_arrangement(),
                            Fraction(1, 2), [10])
        assert set(report.truncations) == {2}

    def test_nonpositive_coefficient_gives_trivial_slack(self):
        report = smt_report(parabola_curve(), pencil_lines_arrangement(),
                            Fraction(9, 2), [10])
        assert report.coefficient <= 0
        assert all(row.slack >= 0 for row in report.rows)

    def test_radii_below_one_rejected(self):
        with pytest.raises(ValueError):
            smt_report(parabola_curve(), pencil_lines_arrangement(),
                       Fraction(1, 2), [0.5, 10])

    def test_caveats_present_for_polynomial_hypersurface_mode(self):
        hyps = tuple((f"Q{i}", parse_polynomial(f"x{i}^2", V3)) for i in range(3))
        arr = Arrangement(2, 2, 1, 2, (), hyps, V3)
        report = smt_report(parabola_curve(), arr, Fraction(1), [10])
        assert report.mode == "hypersurface"
        assert any("algebraic image" in c for c in report.caveats)


class TestMaxTermIdentity:
    def test_bounded_gap_over_sampled_circles(self):
        # for every (N+1)-subset J, d log||f|| - max_{j in J} log|Q_j(f)| stays
        # bounded across radii because the J-indexed forms never all vanish on V
        from itertools import combinations
        arr = pencil_lines_arrangement()
        curve = parabola_curve()
        worst = 0.0
        for r in (10.0, 1000.0):
            thetas = np.linspace(0, 2 * np.pi, 64, endpoint=False)
            _, W = curve.circle_values(r, thetas)
            logs = np.stack([np.log(np.abs(f.evaluate_array(list(W))))
                             for f in arr.forms])
            for J in combinations(range(arr.q), arr.N + 1):
                gap = -np.max(logs[list(J)], axis=0)
                worst = max(worst, float(np.max(np.abs(gap))))
        assert worst < 10.0


class TestCurveParsing:
    def test_polynomial_coordinate(self):
        c = parse_coordinate("z^2 - 4")
        assert c.is_polynomial
        assert c.poly == up(-4, 0, 1)

    def test_complex_literals(self):
        c = parse_coordinate("(1-1/2i)*z + 2i")
        assert c.poly == UnivariatePoly([QQi(0, 2), QQi(1, Fraction(-1, 2))])

    def test_exp_terms(self):
        c = parse_coordinate("2*z*exp(z^2) + 1")
        assert not c.is_polynomial
        assert len(c.terms) == 2

    def test_curve_file_round_trip(self):
        curve = exp_curve()
        again = parse_curve(curve.to_text())
        assert again.to_text() == curve.to_text()
        z = np.array([0.3 + 0.2j, -1.1 + 0.7j])
        for a, b in zip(curve.coordinates, again.coordinates):
            assert np.allclose(a.value_and_derivative(z), b.value_and_derivative(z))

    def test_unreduced_polynomial_curve_rejected(self):
        with pytest.raises(ValueError):
            poly_curve(up(-1, 1), up(-1, 1) * up(1, 1))

    def test_wrong_coordinate_count(self):
        from nochka.errors import ParseError
        with pytest.raises(ParseError):
            parse_curve("[curve] M=2\n1\nz\n")
        with pytest.raises(ParseError) as err:
            parse_curve("[curve] M=2\n1\nexp(z\nz\n")
        assert err.value.line == 3

    def test_coordinate_text_round_trip(self):
        import random
        rng = random.Random(5)
        for _ in range(40):
            if rng.random() < 0.5:
                coeffs = [QQi(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                              Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                          for _ in range(rng.randint(1, 5))]
                coord = CurveCoordinate.from_poly(UnivariatePoly(coeffs))
                if coord.is_zero:
                    continue
            else:
                terms = [ExpTerm(QQi(rng.randint(-4, 4), rng.randint(-2, 2)),
                                 rng.randint(0, 3),
                                 UnivariatePoly([rng.randint(-3, 3)
                                                 for _ in range(rng.randint(1, 3))]))
                         for _ in range(rng.randint(1, 3))]
                if all(t.coef.is_zero for t in terms):
                    continue
                coord = CurveCoordinate.from_terms(terms)
            again = parse_coordinate(coord.to_text())
            z = np.array([0.37 + 0.21j, -0.64 + 0.88j, 1.13 - 0.29j])
            assert np.allclose(coord.value_and_derivative(z), again.value_and_derivative(z))


class TestCompose:
    def test_matches_numeric_chain_rule_and_collects(self):
        import random
        rng = random.Random(11)

        def random_terms():
            return [ExpTerm(QQi(rng.randint(-3, 3), rng.randint(-2, 2)), rng.randint(0, 2),
                            UnivariatePoly([rng.randint(-1, 1) for _ in range(rng.randint(1, 3))]))
                    for _ in range(rng.randint(1, 3))]

        def term_sums(terms, z):
            """f and f' summed term by term, independently of the collected form."""
            f, df = np.zeros_like(z), np.zeros_like(z)
            for t in terms:
                e = complex(t.coef) * np.exp(t.exponent.eval_array(z))
                f = f + e * z ** t.power
                df = df + e * (t.power * z ** max(t.power - 1, 0)
                               + z ** t.power * t.exponent.derivative().eval_array(z))
            return f, df

        def relative_error(got, want):
            return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))

        checked = 0
        while checked < 12:
            term_lists = [random_terms() for _ in range(3)]
            try:
                curve = ProjectiveCurve([CurveCoordinate.from_terms(t) for t in term_lists])
            except ValueError:
                continue
            d = rng.randint(1, 3)
            form = Polynomial(3, {m: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                  for m in monomials_of_degree(3, d) if rng.random() < 0.6})
            comp = compose(form, curve)
            if comp.is_zero:
                continue
            z = np.array([rng.uniform(0, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                          for _ in range(16)])
            values, derivs = zip(*(term_sums(t, z) for t in term_lists))
            f, df = comp.value_and_derivative(z)
            assert relative_error(f, form.evaluate_array(values)) < 1e-10
            chain = sum(form.derivative(i).evaluate_array(values) * d
                        for i, d in enumerate(derivs))
            assert relative_error(df, chain) < 1e-10
            checked += 1

        doubled = parse_coordinate("exp(z) + exp(z)")
        assert doubled.terms == {up(0, 1): up(2)}
        # exp(z + 1) = e * exp(z): the constant term is part of the key
        assert len(parse_coordinate("exp(z + 1) + exp(z)").terms) == 2
        assert parse_coordinate("exp(z) - exp(z)").is_zero
