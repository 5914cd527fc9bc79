"""Acceptance criteria: one test per criterion, each printing a PASS line.

Random data is drawn from fixed seeds so every run checks identical
instances.  Exact-arithmetic criteria admit no tolerance; numeric criteria
pin the tolerances stated with them.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from nochka.curves import CurveCoordinate, ExpTerm, ProjectiveCurve
from nochka.fixtures import (conic_presentation_arrangement, exp_curve,
                             generate_intro_fixture, parabola_curve,
                             pencil_lines_arrangement, three_point_arrangement)
from nochka.geometry import hilbert_function, hilbert_weight, verify_hilbert_lower_bound
from nochka.linalg import Echelon
from nochka.nevanlinna import (characteristic, counting_function, jensen_check,
                               lift_curve, proximity, smt_report, wronskian,
                               wronskian_divisor_check, zero_divisor)
from nochka.rank_core import (greedy_select, linear_matroid_oracle, nochka_weights,
                              validate_rank_oracle, verify_weight_conditions)
from nochka.rootfind import winding_number
from nochka.univar import QQi, UnivariatePoly, poly_gcd_many


def _report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _random_oracles(rng: random.Random, count: int):
    """Validated linear-matroid oracles with q <= 10, 1 <= n <= 4, n <= N <= 6."""
    oracles = []
    while len(oracles) < count:
        n = rng.randint(1, 4)
        N = rng.randint(n, min(6, (10 + n - 1) // 2))
        q = rng.randint(2 * N - n + 1, 10)
        vectors = []
        while len(vectors) < q:
            if vectors and rng.random() < 0.3:
                base = list(rng.choice(vectors))
                scale = rng.choice((1, 2, 3, -1))
                vectors.append(tuple(x * scale for x in base))
            else:
                v = tuple(rng.randint(-3, 3) for _ in range(n + 1))
                if any(v):
                    vectors.append(v)
        oracle = linear_matroid_oracle(vectors, N)
        if validate_rank_oracle(oracle).ok:
            oracles.append(oracle)
    return oracles


@pytest.fixture(scope="module")
def oracle_pool():
    start = time.perf_counter()
    oracles = _random_oracles(random.Random(20240601), 200)
    return oracles, time.perf_counter() - start


def test_criterion_01_weight_soundness(oracle_pool):
    oracles, generation_seconds = oracle_pool
    start = time.perf_counter()
    for oracle in oracles:
        weights = nochka_weights(oracle)
        report = verify_weight_conditions(oracle, weights)
        assert report.ok, report.summary()
    elapsed = generation_seconds + time.perf_counter() - start
    assert len(oracles) >= 200
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _report("1 weight-soundness (200 oracles, exhaustive exact checks)", True)


def test_criterion_02_fixture_exactness():
    vectors = [(1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1),
               (1, 1, 1), (1, 2, 3)]
    oracle = linear_matroid_oracle(vectors, 4)
    weights = nochka_weights(oracle)
    assert weights.omega == (Fraction(1, 3),) * 3 + (Fraction(1, 2),) * 4
    assert weights.theta == Fraction(1, 2)
    q, n, N = 7, 2, 4
    assert sum(weights.omega) == weights.theta * (q - 2 * N + n - 1) + n + 1 == 3
    _report("2 fixture-exactness (omega, theta, sum identity)", True)


def test_criterion_03_greedy_theorem(oracle_pool):
    oracles, _ = oracle_pool
    rng = random.Random(20240603)
    trials = 0
    while trials < 1000:
        oracle = rng.choice(oracles)
        size = rng.randint(1, min(oracle.q, oracle.N + 1))
        subset = rng.sample(range(1, oracle.q + 1), size)
        costs = [Fraction(rng.randint(0, 8), rng.randint(1, 6)) for _ in range(oracle.q)]
        weights = nochka_weights(oracle)
        chosen = greedy_select(oracle, weights, subset, costs)
        assert oracle.c(chosen) == len(chosen) == oracle.c(subset)
        lhs = sum((weights.omega[j - 1] * costs[j - 1] for j in subset), Fraction(0))
        rhs = sum((costs[j - 1] for j in chosen), Fraction(0))
        assert lhs <= rhs
        trials += 1
    _report("3 greedy-selection (1000 random triples, exact)", True)


def _brute_force_weight(arr, m, costs) -> Fraction:
    from nochka.geometry import _degree_m_vectors
    exps, vectors = _degree_m_vectors(arr, m)
    H = hilbert_function(arr, m).H
    weights = [sum((Fraction(e) * Fraction(c) for e, c in zip(exp, costs)), Fraction(0))
               for exp in exps]
    best = None
    for combo in combinations(range(len(exps)), H):
        ech = Echelon()
        if all(ech.insert(vectors[i]) for i in combo):
            total = sum((weights[i] for i in combo), Fraction(0))
            if best is None or total > best:
                best = total
    return best


def test_criterion_04_hilbert_weight_optimality():
    rng = random.Random(20240604)
    instances = []
    for _ in range(60):
        instances.append((three_point_arrangement(), rng.choice((2, 3, 4))))
    for _ in range(40):
        instances.append((conic_presentation_arrangement(), 2))
    assert len(instances) == 100
    for arr, m in instances:
        costs = [Fraction(rng.randint(0, 9), rng.randint(1, 5)) for _ in range(arr.q)]
        greedy = hilbert_weight(arr, m, costs).S
        brute = _brute_force_weight(arr, m, costs)
        assert greedy == brute
    _report("4 hilbert-weight-optimality (100 instances vs brute force)", True)


def test_criterion_05_hilbert_lower_bound_slack():
    rng = random.Random(20240605)
    arr = three_point_arrangement()
    vectors = [[Fraction(rng.randint(0, 7), rng.randint(1, 5)) for _ in range(3)]
               for _ in range(20)]
    for costs in vectors:
        for m in range(3, 9):
            report = verify_hilbert_lower_bound(arr, m, costs, [1, 2])
            assert report.slack >= 0
    _report("5 hilbert-lower-bound slack (m in 3..8, 20 cost vectors, exact)", True)


def test_criterion_06_hilbert_growth():
    conic = conic_presentation_arrangement()
    for arr in (three_point_arrangement(), conic, pencil_lines_arrangement()):
        for m in range(1, 7):
            assert hilbert_function(arr, m).H >= m + 1
    for m in range(1, 7):
        assert hilbert_function(conic, m).H == 2 * m + 1
    _report("6 hilbert-function growth (H >= m+1; conic H = 2m+1)", True)


def test_criterion_07_wronskian_divisor_bound():
    report = wronskian_divisor_check([UnivariatePoly([1]), UnivariatePoly([0, 1]),
                                      UnivariatePoly([0, 0, 1])])
    row = report.points[0]
    assert (row.product_order - row.wronskian_order, row.bound) == (3, 3)

    rng = random.Random(20240607)
    done = 0
    while done < 100:
        polys = [UnivariatePoly([rng.randint(-5, 5)
                                 for _ in range(rng.randint(2, 9))])
                 for _ in range(3)]
        if any(p.is_zero for p in polys) or any(p.degree > 8 for p in polys):
            continue
        if poly_gcd_many(polys).degree > 0 or wronskian(polys).is_zero:
            continue
        assert wronskian_divisor_check(polys).ok
        done += 1
    _report("7 wronskian-divisor bound (100 coprime triples, exact)", True)


def _random_poly_with_safe_roots(rng: random.Random, radii, degree: int) -> UnivariatePoly:
    """Random polynomial whose roots keep clear of the integration circles."""
    p = UnivariatePoly([rng.randint(1, 4)])
    for _ in range(degree):
        while True:
            radius = rng.uniform(0.2, 20.0)
            if all(abs(radius - r) > 0.15 * r for r in radii):
                break
        angle = rng.uniform(0, 2 * math.pi)
        root = radius * complex(math.cos(angle), math.sin(angle))
        approx = QQi(Fraction(round(root.real * 64), 64), Fraction(round(root.imag * 64), 64))
        p = p * UnivariatePoly([-approx, QQi(1)])
    return p


def test_criterion_08_jensen_and_fmt_consistency():
    radii = [2.0, 4.0, 8.0, 16.0]
    rng = random.Random(20240608)
    for _ in range(20):
        p = _random_poly_with_safe_roots(rng, radii, rng.randint(1, 5))
        if abs(complex(p.coeffs[0])) < 1e-9:
            continue
        report = jensen_check(p, radii)
        assert report.max_deviation < 1e-6
        closed = math.log(abs(complex(p.leading))) + sum(
            k * math.log(abs(z)) for z, k in zero_divisor(p).entries if abs(z) >= 1)
        assert abs(report.constant - closed) < 1e-6

    from nochka.poly import parse_polynomial
    names = ("x0", "x1", "x2")
    pairs = 0
    while pairs < 8:
        coords = [_random_poly_with_safe_roots(rng, radii, rng.randint(0, 3))
                  for _ in range(3)]
        if poly_gcd_many(coords).degree > 0:
            continue
        curve = ProjectiveCurve([CurveCoordinate.from_poly(c) for c in coords])
        target = parse_polynomial(
            rng.choice(("x0 + x1", "x1 - x2", "x0 + 2*x1 - x2", "x0*x2 - x1^2",
                        "x0^2 + x1*x2")), names)
        from nochka.curves import compose
        composed = compose(target, curve)
        if composed.is_zero:
            continue
        if any(min(abs(abs(z) - r) for r in radii) < 0.1
               for z, _ in zero_divisor(composed).entries):
            continue  # keep quadrature well-posed: no zeros hugging a circle
        divisor = zero_divisor(composed)
        d = target.degree
        values = []
        for r in radii:
            fmt = (d * characteristic(curve, r) - counting_function(divisor, r)
                   - proximity(curve, target, r))
            values.append(fmt)
        mean = sum(values) / len(values)
        assert max(abs(v - mean) for v in values) < 1e-5
        pairs += 1
    _report("8 jensen and first-main-theorem consistency (1e-6 / 1e-5)", True)


def test_criterion_09_characteristic_asymptotics():
    line = ProjectiveCurve([CurveCoordinate.from_poly(UnivariatePoly([1])),
                            CurveCoordinate.from_poly(UnivariatePoly([0, 1]))])
    quintic = ProjectiveCurve([CurveCoordinate.from_poly(UnivariatePoly([1])),
                               CurveCoordinate.from_poly(UnivariatePoly([0, 1])),
                               CurveCoordinate.from_poly(UnivariatePoly([0, 0, 0, 0, 0, 1]))])
    r = 1000.0
    cases = [(line, 1), (parabola_curve(), 2), (quintic, 5)]
    for curve, degree in cases:
        T = characteristic(curve, r)
        assert abs(T / math.log(r) - degree) <= 1e-2
    assert characteristic(line, r) == pytest.approx(math.log(r), abs=1e-9)
    assert characteristic(parabola_curve(), r) == pytest.approx(2 * math.log(r), abs=1e-9)
    _report("9 characteristic asymptotics (degrees 1, 2, 5 at r = 1e3)", True)


def test_criterion_10_hyperplane_inequality():
    report = smt_report(parabola_curve(), pencil_lines_arrangement(),
                        Fraction(1, 2), [10.0, 100.0, 1000.0], truncations=2)
    assert report.mode == "hyperplane"
    assert report.coefficient == pytest.approx(9 - 6 + 2 - 1 - 0.5)
    for row in report.rows:
        assert row.slack >= 0
    _report("10 hyperplane main inequality (9 lines, eps=1/2, L=2)", True)


def test_criterion_11_lift_identity():
    arr = three_point_arrangement()
    line = ProjectiveCurve([CurveCoordinate.from_poly(UnivariatePoly([1])),
                            CurveCoordinate.from_poly(UnivariatePoly([0, 1]))])
    expected = {1: 1, 2: 3, 3: 6}  # q_m - H(m), computed from the rank identity
    for m in (1, 2, 3):
        lifted = lift_curve(line, arr, m)
        H = hilbert_function(arr, m).H
        assert lifted.relation_dim == lifted.q_m - H == expected[m]
    _report("11 lift relation dimension equals q_m - H(m) (m = 1, 2, 3)", True)


def test_criterion_12_bounds():
    from nochka.bounds import ParamSet, m_zero, q_m, truncation_levels
    intro = ParamSet(2, 1, 3, 12, (2, 2, 2) + (1,) * 9, Fraction(1))
    assert m_zero(intro) == 9601
    assert q_m(3, 2) == 6
    for q in range(1, 31):
        for m in range(1, 61 - q):
            if q > 1:
                assert q_m(q, m) == q_m(q - 1, m) + q_m(q, m - 1)
    toy = ParamSet(1, 1, 1, 3, (1, 1, 1), Fraction(1))
    result = truncation_levels(toy, hilbert_value=3, hilbert_m=2)
    assert result.lj_exact == (3, 3, 3)
    _report("12 explicit bounds (m0 = 9601, q_m, Pascal cross-check, L_j = 3)", True)


def test_criterion_13_transcendental_pipeline():
    g = CurveCoordinate.from_terms([ExpTerm(QQi(1), 0, UnivariatePoly([0, 1])),
                                    ExpTerm(QQi(-1), 0, UnivariatePoly())])
    divisor = zero_divisor(g, 7.0)
    r = divisor.radius_of_validity
    boundary = winding_number(g.value_and_derivative, lambda t: r * np.exp(2j * np.pi * t),
                              n0=256)
    assert divisor.total_multiplicity() == boundary == 3

    fixture = generate_intro_fixture(1)
    report = smt_report(exp_curve(), fixture.arrangement, Fraction(1, 2), [2.0, 4.0, 6.0])
    assert report.mode == "hypersurface"
    assert max(report.fmt_deviation.values()) < 1e-4
    slacks = [row.slack for row in report.rows]
    assert len(slacks) == 3  # recorded, not asserted: nondegeneracy is transcendental
    _report("13 transcendental pipeline (winding count 3; exp fixture report)", True)
