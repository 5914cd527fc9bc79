"""Characteristic, divisors, counting, proximity, Jensen, Wronskian, reports."""

import gc
import math
import random
import tracemalloc
import weakref
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from nochka.curves import (CurveCoordinate, ProjectiveCurve, compose,
                           parse_coordinate, parse_curve)
import nochka.nevanlinna as nevanlinna
import nochka.rootfind as rootfind
from nochka.errors import QuadratureError, ResourceBudgetError
from nochka.fixtures import (exp_curve, generate_intro_fixture, parabola_curve,
                             pencil_lines_arrangement, three_point_arrangement)
from nochka.geometry import (Arrangement, codim_oracle, hilbert_function, hilbert_weight,
                             parse_arrangement)
from nochka.linalg import Echelon
from nochka.nevanlinna import (GOLDEN, MAX_TURNS, QUAD_BLOCK, QUAD_K0, QUAD_KMAX,
                               _averages_off_zeros, _circle_average, _circle_averages,
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
    return CurveCoordinate({exponent: up(1)})


# one term coef * z^power * exp(exponent), uncollected
Term = namedtuple("Term", "coef power exponent")


def term_sum(terms) -> CurveCoordinate:
    """The sum of the terms, added one-term coordinate by one-term coordinate."""
    return sum((CurveCoordinate({exponent: UnivariatePoly([0] * power + [coef])})
                for coef, power, exponent in terms), CurveCoordinate({}))


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
    """A synthetic integrand that counts the levels it sees.  It is called
    once per block, so it counts nodes: after the levels QUAD_K0..k it has
    seen the 2^k nodes of level k's grid, and a level it left after some
    of its blocks still counts."""

    def __init__(self, fn):
        self.fn = fn
        self.nodes = 0

    @property
    def levels(self) -> int:
        return (self.nodes - 1).bit_length() - QUAD_K0 + 1

    def __call__(self, values):
        self.nodes += len(values[1])
        return self.fn(values)


def _blocks_per_level() -> list[int]:
    """The number of blocks of each level QUAD_K0..QUAD_KMAX: the first level
    has 2^QUAD_K0 nodes, level k > QUAD_K0 has 2^(k-1) new ones."""
    nodes = [1 << QUAD_K0] + [1 << (k - 1) for k in range(QUAD_K0 + 1, QUAD_KMAX + 1)]
    return [-(-m // QUAD_BLOCK) for m in nodes]


def _reference_circle_averages(base, integrands, r, *, tol, turn=0.0):
    """`_circle_averages` as it was before blocks: each level's samples
    computed at once, and each integrand's level mean its np.mean."""
    outcomes = [None] * len(integrands)
    means = [0.0] * len(integrands)
    diffs = [math.inf] * len(integrands)
    active = range(len(integrands))
    for k in range(QUAD_K0, QUAD_KMAX + 1):
        if not active:
            break
        n = 1 << k
        first = k == QUAD_K0
        thetas = (np.arange(n) if first else np.arange(1, n, 2)) * (2 * np.pi / n) + turn
        values = base(r, thetas)
        still = []
        for i in active:
            mean = float(np.mean(integrands[i](values)))
            if not math.isfinite(mean):
                continue
            if first:
                means[i] = mean
                still.append(i)
                continue
            nxt = 0.5 * (means[i] + mean)
            diffs[i] = abs(nxt - means[i])
            means[i] = nxt
            if diffs[i] < tol:
                outcomes[i] = nxt
            else:
                still.append(i)
        del values
        active = still
    for i in active:
        outcomes[i] = QuadratureError("circle quadrature did not converge", achieved=diffs[i])
    return outcomes


def _comparable(outcomes) -> list:
    """Outcomes as values `==` compares bit for bit: a mean, None, or an
    error's message and `achieved`."""
    return [(str(o), o.achieved) if isinstance(o, QuadratureError) else o for o in outcomes]


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


def _singular_at_zero_angle(values):
    _, thetas = values
    # infinite at theta = 0, a node of every unturned level; otherwise the
    # trigonometric polynomial of `_smooth`, whose mean is 2
    return np.where(thetas == 0, np.inf, np.cos(thetas) + 2)


# the turn of a singular integrand's first rerun
FIRST_TURN = GOLDEN * 2 * np.pi / (1 << QUAD_K0)


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
        # `_sawtooth` runs every level: one 0 per block
        assert alive == [0] * sum(_blocks_per_level())

    def test_turned_levels_nest(self):
        seen = []

        def base(r, thetas):
            seen.append(thetas)
            return r, thetas

        _circle_averages(base, [_slow], 2.0, tol=1e-9, turn=FIRST_TURN)
        for k in range(QUAD_K0, QUAD_K0 + len(seen)):
            grid = np.sort(np.concatenate(seen[:k - QUAD_K0 + 1]))
            assert np.allclose(grid, np.arange(1 << k) * (2 * np.pi / (1 << k)) + FIRST_TURN,
                               rtol=0, atol=1e-15)

    def test_turned_grid_and_errors_per_integrand(self):
        fns = [_smooth, _slow, _singular_at_zero_angle]
        results = _averages_off_zeros(_samples, fns, 2.0, tol=1e-9)
        assert results == [_circle_average(_samples, fn, 2.0, tol=1e-9) for fn in fns]
        # the unturned grid gives the first two their unturned values bit for bit
        outcomes = _circle_averages(_samples, fns, 2.0, tol=1e-9)
        assert results[:2] == outcomes[:2]
        assert outcomes[2] is None
        # the first turn misses theta = 0, at the same radius
        assert results[2] == pytest.approx(2.0, abs=1e-14)
        [turned] = _circle_averages(_samples, [_singular_at_zero_angle], 2.0, tol=1e-9,
                                    turn=FIRST_TURN)
        assert results[2] == turned
        with pytest.raises(QuadratureError) as shared:
            _averages_off_zeros(_samples, fns + [_sawtooth], 2.0, tol=1e-9)
        with pytest.raises(QuadratureError) as alone:
            _circle_average(_samples, _sawtooth, 2.0, tol=1e-9)
        assert shared.value.achieved == alone.value.achieved
        assert str(shared.value) == str(alone.value)

    def test_singular_integrand_sees_every_turn_at_one_radius(self):
        radii, turns = [], []

        def base(r, thetas):
            radii.append(r)
            turns.append(thetas[0])
            return r, thetas

        with pytest.raises(QuadratureError, match="stayed singular"):
            _averages_off_zeros(base, [_singular_at_two], 2.0, tol=1e-9)
        assert set(radii) == {2.0}
        assert turns == pytest.approx([k * FIRST_TURN for k in range(MAX_TURNS + 1)],
                                      rel=0, abs=1e-15)

    def test_always_singular_integrand_raises(self):
        def always(values):
            return np.full(values[1].shape, np.nan)

        with pytest.raises(QuadratureError, match="stayed singular"):
            _averages_off_zeros(_samples, [_smooth, always], 2.0, tol=1e-9)



# a node of level 15's third block of four: the new nodes are the odd j < 2^15,
# and block b holds j = 2 * QUAD_BLOCK * b + 1 .. 2 * QUAD_BLOCK * (b + 1) - 1
LATE_NODE = 20001 * (2 * np.pi / (1 << 15))


def _infinite_late(values):
    # the sawtooth, which never converges, with its only inf at LATE_NODE
    _, thetas = values
    return np.where(thetas == LATE_NODE, np.inf, thetas)


@pytest.fixture
def against_reference(monkeypatch):
    """Run every `_circle_averages` call of the code under test by the
    whole-level reference too, and assert the same outcomes.  Returns a
    list that gets one (integrand count, largest level's new nodes, turn)
    per call."""
    calls = []

    def checked(base, integrands, r, *, tol, turn=0.0):
        sizes = []

        def recording(rr, thetas):
            sizes.append(len(thetas))
            return base(rr, thetas)

        reference = _reference_circle_averages(recording, integrands, r, tol=tol, turn=turn)
        outcomes = _circle_averages(base, integrands, r, tol=tol, turn=turn)
        assert _comparable(outcomes) == _comparable(reference)
        calls.append((len(integrands), max(sizes), turn))
        return outcomes

    monkeypatch.setattr(nevanlinna, "_circle_averages", checked)
    return calls


class TestBlockedQuadrature:
    """Blocks of QUAD_BLOCK nodes give the whole-level outcomes bit for bit."""

    def test_log_max_on_the_exp_curve(self, against_reference):
        characteristic(exp_curve(), 2)
        # the last level's 2^17 new nodes are 32 blocks
        assert against_reference == [(1, 32 * QUAD_BLOCK, 0.0)]

    def test_smt_report_shared_integrands(self, against_reference):
        smt_report(exp_curve(), generate_intro_fixture(1).arrangement, Fraction(1, 2), [2])
        # T and the twelve proximities on one grid, to a last level of 32 blocks
        assert against_reference == [(13, 32 * QUAD_BLOCK, 0.0)]

    def test_cartan_max_sum(self, against_reference):
        forms = [form for _, form in pencil_lines_arrangement().hypersurfaces]
        cartan_ru_check(parabola_curve(), forms, 1, [5])
        # the last level's 2^14 new nodes are 4 blocks
        assert against_reference == [(2, 4 * QUAD_BLOCK, 0.0)]

    def test_turned_grid(self, against_reference):
        forms, _ = _lines_through_two()
        proximity(parabola_curve(), forms[2], 2, tol=1e-5)
        [(_, _, unturned), (_, nodes, turn)] = against_reference
        assert unturned == 0 and turn == FIRST_TURN and nodes > QUAD_BLOCK

    def test_sawtooth_to_the_last_level(self):
        assert _blocks_per_level()[-1] == 128
        outcomes = _circle_averages(_samples, [_sawtooth], 2.0, tol=1e-9)
        assert isinstance(outcomes[0], QuadratureError)
        assert _comparable(outcomes) == _comparable(
            _reference_circle_averages(_samples, [_sawtooth], 2.0, tol=1e-9))

    def test_an_inf_in_a_late_block(self):
        late, sawtooth = _Counted(_infinite_late), _Counted(_sawtooth)
        outcomes = _circle_averages(_samples, [late, sawtooth], 2.0, tol=1e-9)
        assert outcomes[0] is None
        assert _comparable(outcomes) == _comparable(
            _reference_circle_averages(_samples, [_infinite_late, _sawtooth], 2.0, tol=1e-9))
        # the singular integrand reads no block after the one holding the inf
        assert late.nodes == (1 << 14) + 3 * QUAD_BLOCK
        assert sawtooth.levels == QUAD_KMAX - QUAD_K0 + 1

    def test_base_sees_each_node_once_in_order(self):
        seen = []

        def base(r, thetas):
            assert len(thetas) <= QUAD_BLOCK
            seen.append(thetas)
            return r, thetas

        _circle_averages(base, [_sawtooth], 2.0, tol=1e-9)
        blocks = iter(seen)
        for k, count in zip(range(QUAD_K0, QUAD_KMAX + 1), _blocks_per_level()):
            n = 1 << k
            level = np.concatenate([next(blocks) for _ in range(count)])
            nodes = np.arange(n) if k == QUAD_K0 else np.arange(1, n, 2)
            assert level.tobytes() == (nodes * (2 * np.pi / n)).tobytes()
        assert next(blocks, None) is None

    def test_memory_does_not_grow_with_the_level(self, monkeypatch):
        sizes = []
        circle_values = ProjectiveCurve.circle_values

        def recording(curve, r, thetas):
            sizes.append(len(thetas))
            return circle_values(curve, r, thetas)

        monkeypatch.setattr(ProjectiveCurve, "circle_values", recording)
        tracemalloc.start()
        try:
            characteristic(exp_curve(), 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # level 19 has 2^18 new nodes; whole-level samples peaked at 56 MiB
        assert sum(sizes) == 1 << 19
        assert peak < 8 * 2 ** 20


def _lines_through_two():
    """Four lines in general position; on the parabola, H3 = x1 - 2*x0 is z - 2."""
    forms = [parse_polynomial(t, V3) for t in ("x0", "x2", "x1 - 2*x0", "x0 + x1 + x2")]
    return forms, Arrangement(2, 2, 1, 2, (),
                              tuple((f"H{k}", f) for k, f in enumerate(forms, 1)), V3)


class TestSingularSamples:
    """A sample z = 2 on the circle r = 2 hits a zero, and that integrand alone
    runs again at r = 2 on a turned grid.  log|z - 2| keeps its log
    singularity on the circle, so only a loose tolerance converges; every
    value is still taken at r = 2."""

    def test_proximity_is_taken_at_the_named_radius(self):
        # on |z| = 2: ||f|| = 4, ||Q|| = 2, and the circle mean of log|z - 2| is log 2
        forms, _ = _lines_through_two()
        assert proximity(parabola_curve(), forms[2], 2, tol=1e-5) == \
            pytest.approx(math.log(4), abs=1e-4)

    def test_jensen_reports_the_radii_it_was_given(self):
        report = jensen_check(parse_coordinate("z - 2"), [2], tol=1e-5)
        assert report.as_dict()["radii_used"] == report.as_dict()["radii"] == [2.0]
        assert report.integrals == pytest.approx([math.log(2)], abs=1e-4)

    def test_smt_report_rows_are_at_the_named_radius(self):
        _, arr = _lines_through_two()
        report = smt_report(parabola_curve(), arr, Fraction(1, 2), [2], tol=1e-5)
        [row] = report.rows
        assert row.T == characteristic(parabola_curve(), 2, tol=1e-5)
        h3 = next(t for t in row.targets if t.name == "H3")
        assert h3.N_full == 0
        assert h3.proximity == pytest.approx(math.log(4), abs=1e-4)
        [payload] = report.as_dict()["rows"]
        assert [t["r_used"] for t in payload["targets"]] == [2.0] * 4

    def test_cartan_takes_T_at_the_named_radius(self):
        forms, _ = _lines_through_two()
        [row] = cartan_ru_check(parabola_curve(), forms, 1, [2], tol=1e-5).rows
        assert row.T == characteristic(parabola_curve(), 2)
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
        g = parse_coordinate("exp(z) - 1")
        div = zero_divisor(g, 7.0)
        assert div.total_multiplicity() == 3
        locations = sorted((round(z.real, 6), round(z.imag, 6)) for z, _ in div.entries)
        two_pi = round(2 * math.pi, 6)
        assert locations == [(0.0, -two_pi), (0.0, 0.0), (-0.0, two_pi)] or \
            locations == [(0.0, -two_pi), (0.0, 0.0), (0.0, two_pi)]

    def test_exp_minus_one_with_zeros_on_the_circle(self):
        # +-2 pi i lie on |z| = 2 pi; the certified radius grows past them
        div = zero_divisor(parse_coordinate("exp(z) - 1"), 2 * math.pi)
        assert div.radius_of_validity > 2 * math.pi
        assert sorted(round(z.imag, 9) for z, _ in div.entries) == \
            [round(-2 * math.pi, 9), 0.0, round(2 * math.pi, 9)]
        assert all(abs(z) < div.radius_of_validity for z, _ in div.entries)

    def test_exp_double_zeros(self):
        # e^{2z} - 2 e^z + 1 has double zeros exactly where e^z - 1 vanishes
        g = parse_coordinate("exp(2*z) - 2*exp(z) + 1")
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

    @pytest.mark.parametrize("level", [2.5, True, "3", 0])
    def test_truncation_must_be_an_int_at_least_one(self, level):
        div = zero_divisor(up(-2, 1) ** 3 * up(3, 1))
        with pytest.raises(ValueError, match="truncation level must be >= 1 and an int, got"):
            counting_function(div, 10, level)

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
        g = parse_coordinate("exp(z) - 1")
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


def _target_by_target(curve, arr, rmax):
    """Reference: each target composed, checked and divided in turn."""
    for name, form in arr.hypersurfaces:
        comp = compose(form, curve)
        if comp.is_zero:
            raise ValueError(f"target {name} vanishes identically on the curve")
        zero_divisor(comp, rmax)


class TestSMTErrorOrder:
    """`smt_report` divides its exponential targets in one walk, and raises
    what dividing them one at a time, in order, raises."""

    @pytest.mark.parametrize("order, error", [(("H0", "H2", "H3", "G"), ResourceBudgetError),
                                              (("H0", "G", "H2", "H3"), ValueError),
                                              (("H3", "H2", "G", "H0"), ResourceBudgetError),
                                              (("G", "H3", "H0", "H2"), ValueError)])
    def test_first_failing_target_in_order_raises(self, monkeypatch, order, error):
        head, body = VANISHING_G_ARRANGEMENT.split("[hypersurfaces]\n")
        lines = dict(line.split(" : ") for line in body.strip().splitlines())
        arr = parse_arrangement(head + "[hypersurfaces]\n"
                                + "".join(f"{name} : {lines[name]}\n" for name in order))
        curve = parse_curve(VANISHING_G_CURVE)
        # H3 = 1 + e^z + e^{2z} has its zeros at +-2 pi i/3 + 2 pi i k, so H3
        # is refused at radius 3 with no box allowed; H2 = e^{2z} has none
        monkeypatch.setattr(rootfind, "MAX_BOXES", 0)
        with pytest.raises(error) as want:
            _target_by_target(curve, arr, 3 * 1.001)
        with pytest.raises(error) as got:
            smt_report(curve, arr, Fraction(1, 2), [3])
        assert str(got.value) == str(want.value)


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
        phi = parse_coordinate("exp(z) + 2")
        report = jensen_check(phi, [2, 4])
        assert report.max_deviation < 1e-6


def _mpmath_circle_mean(mpmath, phi, r: float) -> float:
    """The mean of log|phi| over the circle of radius r, by mpmath at 30
    digits over [0, 2 pi] cut into 16 pieces."""
    with mpmath.workdps(30):
        def integrand(t):
            return mpmath.log(abs(phi(r * mpmath.expj(t))))
        cuts = mpmath.linspace(0, 2 * mpmath.pi, 17)
        return float(mpmath.quad(integrand, cuts) / (2 * mpmath.pi))


class TestJensenAgainstMpmath:
    """`jensen_check`'s circle integrals against an independent evaluation."""

    @pytest.mark.parametrize("text, sign", [
        pytest.param("exp(z^2) + exp(z) + 2", 1, id="positive"),
        pytest.param("-exp(z^2) + exp(z) + 2", -1, id="negative", marks=pytest.mark.xfail(
            strict=True, reason="the log|a| row of curves._compile_log_rows drops the phase "
                                "of each coefficient, so log|phi| is that of "
                                "exp(z^2) + exp(z) + 2 (ROADMAP item 1b)")),
    ])
    def test_integrals(self, text, sign):
        mpmath = pytest.importorskip("mpmath")

        def phi(z):
            return sign * mpmath.exp(z * z) + mpmath.exp(z) + 2

        radii = [2, 3]
        expected = [_mpmath_circle_mean(mpmath, phi, r) for r in radii]
        # the quadrature converges spectrally, far inside its 1e-9 tolerance
        assert jensen_check(parse_coordinate(text), radii).integrals == \
            pytest.approx(expected, rel=0, abs=1e-12)


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


def _reference_cartan(curve, hyperplanes, epsilon, radii, *, tol=nevanlinna.DEFAULT_QUAD_TOL):
    """`cartan_ru_check` as it was before the rank table: an `Echelon` on
    every (n+1)-subset of the hyperplanes, and at every sample the max of
    the sums over every subset that is in general position."""
    n = curve.ambient_dim
    wdiv = zero_divisor(wronskian([c.poly for c in curve.coordinates]))
    vectors = [h.linear_coefficients() for h in hyperplanes]
    ksets = []
    for combo in combinations(range(len(hyperplanes)), n + 1):
        ech = Echelon()
        if all(ech.insert(vectors[i]) for i in combo):
            ksets.append(combo)
    proximities = [nevanlinna._proximity_integrand(h) for h in hyperplanes]

    def max_sum(values):
        if not ksets:
            return np.zeros(values[0].shape)
        stacked = np.stack([integrand(values) for integrand in proximities])
        best = None
        for combo in ksets:
            s = stacked[list(combo)].sum(axis=0)
            best = s if best is None else np.maximum(best, s)
        return best

    rows = []
    for r in sorted(radii):
        T, integral = _averages_off_zeros(
            curve.circle_values, [nevanlinna._log_max, max_sum], r, tol=tol)
        ncount = counting_function(wdiv, r)
        lhs = integral + ncount
        rhs = (n + 1 + float(epsilon)) * T
        rows.append(nevanlinna.CartanRadiusRow(r, T, integral, ncount, lhs, rhs, rhs - lhs))
    return nevanlinna.CartanReport(float(epsilon), len(ksets), tuple(rows))


def _seeded_lines(rng: random.Random, q: int, dim: int) -> list[Polynomial]:
    """q seeded linear forms in dim variables: about a fifth repeat an
    earlier form up to a factor, and about a sixth are the sum of two
    earlier ones, so the sets hold parallel and concurrent lines."""
    vectors: list[list[int]] = []
    while len(vectors) < q:
        roll = rng.random()
        if vectors and roll < 0.2:
            v = [rng.choice([-2, 3]) * x for x in rng.choice(vectors)]
        elif len(vectors) >= 2 and roll < 0.35:
            a, b = rng.sample(vectors, 2)
            v = [x + y for x, y in zip(a, b)]
        else:
            v = [rng.randint(-3, 3) for _ in range(dim)]
        if any(v):
            vectors.append(v)
    return [Polynomial(dim, {tuple(int(i == j) for i in range(dim)): c for j, c in enumerate(v)})
            for v in vectors]


class TestCartan:
    TANGENTS = [parse_polynomial(f"x0 + {t}*x1 + {t * t}*x2", V3) for t in range(1, 22)]

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_subset_enumeration_in_P2(self, seed):
        rng = random.Random(seed)
        lines = _seeded_lines(rng, rng.randint(3, 10), 3)
        radii = [rng.choice([3.5, 10, 40]), 250]
        assert cartan_ru_check(parabola_curve(), lines, Fraction(1, 2), radii) == \
            _reference_cartan(parabola_curve(), lines, Fraction(1, 2), radii)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_subset_enumeration_in_P3(self, seed):
        rng = random.Random(100 + seed)
        cubic = poly_curve(up(1), up(0, 1), up(0, 0, 1), up(0, 0, 0, 1))
        planes = _seeded_lines(rng, rng.randint(4, 9), 4)
        assert cartan_ru_check(cubic, planes, 1, [5, 60]) == \
            _reference_cartan(cubic, planes, 1, [5, 60])

    def test_matches_the_subset_enumeration_on_a_turned_grid(self):
        forms, _ = _lines_through_two()
        report = cartan_ru_check(parabola_curve(), forms, 1, [2], tol=1e-5)
        assert report == _reference_cartan(parabola_curve(), forms, 1, [2], tol=1e-5)
        assert report.general_position_subsets == 4

    def test_no_hyperplanes(self):
        report = cartan_ru_check(parabola_curve(), [], 1, [10, 100])
        assert report.general_position_subsets == 0
        assert [row.max_sum_integral for row in report.rows] == [0, 0]

    def test_twenty_tangent_lines(self):
        report = cartan_ru_check(parabola_curve(), self.TANGENTS[:20], 1, [10])
        assert report.general_position_subsets == math.comb(20, 3) == 1140

    def test_more_hyperplanes_than_the_ground_set_refused(self):
        with pytest.raises(ValueError, match="20"):
            cartan_ru_check(parabola_curve(), self.TANGENTS, 1, [10])

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

    @pytest.mark.parametrize("epsilon", [0, -1, Fraction(-1, 2), math.nan, math.inf,
                                         Fraction(10 ** 400)])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        hyps = [parse_polynomial(t, V3) for t in ("x0", "x1", "x2", "x0 + x1 + x2")]
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            cartan_ru_check(parabola_curve(), hyps, epsilon, [100])


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

    def test_rejects_degree_zero(self):
        line = poly_curve(up(1), up(0, 1))
        with pytest.raises(ValueError, match="m must be >= 1"):
            lift_curve(line, three_point_arrangement(), 0)

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

    @pytest.mark.parametrize("m, q_m", [(7, 6435), (8, 12870)])
    def test_refuses_past_the_product_budget_before_building_any(self, monkeypatch, m, q_m):
        # the pencil's nine lines give C(m + 8, m) products, as in `hilbert`,
        # which refuses the same m with the same error
        pencil = pencil_lines_arrangement()
        with pytest.raises(ResourceBudgetError, match=f"q_m = {q_m} exceeds budget 5000"):
            hilbert_function(pencil, m)

        def no_compose(*args):
            raise AssertionError("a form was composed with the curve")

        monkeypatch.setattr(nevanlinna, "compose", no_compose)
        with pytest.raises(ResourceBudgetError, match=f"q_m = {q_m} exceeds budget 5000"):
            lift_curve(parabola_curve(), pencil, m)


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
            wronskian(curve.coordinates)
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

    @pytest.mark.parametrize("epsilon", [0, -1, Fraction(-1, 2), math.nan, math.inf,
                                         Fraction(10 ** 400)])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            smt_report(parabola_curve(), pencil_lines_arrangement(), epsilon, [10])

    @pytest.mark.parametrize("level", [0, -1])
    def test_truncation_below_one_rejected_before_root_finding(self, monkeypatch, level):
        def refuse(*args, **kwargs):
            raise AssertionError("root finding ran")

        monkeypatch.setattr(nevanlinna, "zeros_in_disk", refuse)
        monkeypatch.setattr(nevanlinna, "zero_divisor", refuse)
        with pytest.raises(ValueError, match="truncation level must be >= 1"):
            smt_report(exp_curve(), generate_intro_fixture(1).arrangement, Fraction(1, 2), [2],
                       truncations=level)

    @pytest.mark.parametrize("level", [2.5, True, "3", -math.inf])
    def test_truncation_must_be_an_int_or_inf(self, level):
        with pytest.raises(ValueError, match="an int or math.inf, got"):
            smt_report(parabola_curve(), pencil_lines_arrangement(), Fraction(1, 2), [10],
                       truncations=level)

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
            logs = np.stack([np.log(np.abs(f.array_evaluator()(list(W))))
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

    @pytest.mark.parametrize("text, message, column", [
        ("(1-2i", "expected ')'", 6),
        ("z +", "dangling sign", 3),
        ("2*exp(z -)", "dangling sign", 9),
        ("exp(2*exp(z))", "exp argument must be a polynomial in z", 5),
        ("z z", "expected '+' or '-', found 'z'", 3),
    ])
    def test_error_column_within_the_coordinate(self, text, message, column):
        from nochka.errors import ParseError
        with pytest.raises(ParseError) as err:
            parse_coordinate(text, line=4)
        assert str(err.value) == f"{message} (line 4, column {column})"

    def test_error_column_counts_from_the_line_as_written(self):
        from nochka.errors import ParseError
        with pytest.raises(ParseError) as err:
            parse_curve("[curve] M=1\n1\n   z + $\n")
        assert (err.value.line, err.value.column) == (3, 8)

    def test_bare_i_is_a_word(self):
        assert parse_coordinate("i*z").poly == UnivariatePoly([0, QQi(0, 1)])
        assert parse_coordinate("(-i) + 2i").poly == UnivariatePoly([QQi(0, 1)])

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
                terms = [Term(QQi(rng.randint(-4, 4), rng.randint(-2, 2)),
                              rng.randint(0, 3),
                              UnivariatePoly([rng.randint(-3, 3)
                                              for _ in range(rng.randint(1, 3))]))
                         for _ in range(rng.randint(1, 3))]
                if all(t.coef.is_zero for t in terms):
                    continue
                coord = term_sum(terms)
            again = parse_coordinate(coord.to_text())
            z = np.array([0.37 + 0.21j, -0.64 + 0.88j, 1.13 - 0.29j])
            assert np.allclose(coord.value_and_derivative(z), again.value_and_derivative(z))


class TestCompose:
    def test_matches_numeric_chain_rule_and_collects(self):
        import random
        rng = random.Random(11)

        def random_terms():
            return [Term(QQi(rng.randint(-3, 3), rng.randint(-2, 2)), rng.randint(0, 2),
                         UnivariatePoly([rng.randint(-1, 1) for _ in range(rng.randint(1, 3))]))
                    for _ in range(rng.randint(1, 3))]

        def term_sums(terms, z):
            """f and f' summed term by term, independently of the collected form."""
            f, df = np.zeros_like(z), np.zeros_like(z)
            for t in terms:
                p, dp = (np.polyval(q.complex_coeffs[::-1], z)
                         for q in (t.exponent, t.exponent.derivative()))
                e = complex(t.coef) * np.exp(p)
                f = f + e * z ** t.power
                df = df + e * (t.power * z ** max(t.power - 1, 0) + z ** t.power * dp)
            return f, df

        def relative_error(got, want):
            return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))

        checked = 0
        while checked < 12:
            term_lists = [random_terms() for _ in range(3)]
            try:
                curve = ProjectiveCurve([term_sum(t) for t in term_lists])
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
            assert relative_error(f, form.array_evaluator()(values)) < 1e-10
            chain = sum(form.derivative(i).array_evaluator()(values) * d
                        for i, d in enumerate(derivs))
            assert relative_error(df, chain) < 1e-10
            checked += 1

        doubled = parse_coordinate("exp(z) + exp(z)")
        assert doubled.terms == {up(0, 1): up(2)}
        # exp(z + 1) = e * exp(z): the constant term is part of the key
        assert len(parse_coordinate("exp(z + 1) + exp(z)").terms) == 2
        assert parse_coordinate("exp(z) - exp(z)").is_zero
