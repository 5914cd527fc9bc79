"""Arrangements, codimension oracles, position checks, Hilbert data."""

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from nochka import geometry
from nochka.errors import ParseError, ResourceBudgetError
from nochka.fixtures import (conic_presentation_arrangement, generate_intro_fixture,
                             pencil_lines_arrangement, three_point_arrangement)
from nochka.geometry import (Arrangement, check_subgeneral_position, codim_oracle,
                             format_arrangement, hilbert_function, hilbert_weight,
                             parse_arrangement, verify_hilbert_lower_bound)
from nochka.linalg import Echelon
from nochka.poly import Ideal, ideal_dimension, parse_polynomial
from nochka.rank_core import validate_rank_oracle

V3 = ("x0", "x1", "x2")


def plane_lines(*texts: str, N: int) -> Arrangement:
    hyps = tuple((f"H{i}", parse_polynomial(t, V3)) for i, t in enumerate(texts, 1))
    return Arrangement(2, 2, 1, N, (), hyps, V3)


def groebner_codims(arr: Arrangement) -> tuple[int, ...]:
    """c(R) = n - dim(V cut by R) for every subset, one Groebner basis each."""
    table = []
    for mask in range(1 << arr.q):
        gens = list(arr.variety_generators) + [arr.forms[j] for j in range(arr.q)
                                               if mask >> j & 1]
        table.append(arr.n - ideal_dimension(Ideal(gens, nvars=arr.M + 1)))
    return tuple(table)


def _forbidden(*args):
    raise AssertionError("this route must not be taken")


class TestArrangement:
    def test_hypersurface_containing_variety_rejected(self):
        conic = parse_polynomial("x0*x2 - x1^2", V3)
        with pytest.raises(ValueError):
            Arrangement(2, 1, 2, 1, (conic,), (("Q", conic),), V3)

    def test_dimension_declaration_checked(self):
        conic = parse_polynomial("x0*x2 - x1^2", V3)
        line = parse_polynomial("x0", V3)
        with pytest.raises(ValueError):
            Arrangement(2, 2, 2, 2, (conic,), (("H", line),), V3)

    def test_whole_space_requires_n_equals_M(self):
        line = parse_polynomial("x0", V3)
        with pytest.raises(ValueError):
            Arrangement(2, 1, 1, 1, (), (("H", line),), V3)

    def test_variety_arrangement_accepted(self):
        conic = parse_polynomial("x0*x2 - x1^2", V3)
        line = parse_polynomial("x0", V3)
        arr = Arrangement(2, 1, 2, 1, (conic,), (("H", line),), V3)
        assert arr.n == 1 and arr.delta_bound == 2


class TestCodimOracle:
    def test_coordinate_triple_empty(self):
        arr = plane_lines("x0", "x1", "x2", N=2)
        oracle = codim_oracle(arr)
        assert oracle.c([1, 2, 3]) == 3

    def test_single_line(self):
        arr = plane_lines("x0", "x1", "x2", N=2)
        assert codim_oracle(arr).c([1]) == 1

    def test_concurrent_lines(self):
        arr = plane_lines("x1", "x2", "x1 + x2", N=2)
        oracle = codim_oracle(arr)
        assert oracle.c([1, 2, 3]) == 2

    def test_agrees_with_linear_matroid_on_hyperplanes(self, monkeypatch):
        cases = [
            (pencil_lines_arrangement(), {(1, 2, 3): 2}),
            # three concurrent triples, through (1:0:0), (0:1:0) and (0:0:1)
            (plane_lines("x1", "x2", "x1 + x2", "x0", "x0 + x2", "x0 + 2*x2",
                         "x0 + x1", "x0 + 2*x1", "x0 + 3*x1", N=3),
             {(1, 2, 3): 2, (4, 5, 6): 2, (7, 8, 9): 2, (1, 4, 5): 3}),
            # H4 repeats H1
            (plane_lines("x0", "x1", "x2", "2*x0", N=3), {(1, 4): 1, (1, 2, 4): 2}),
        ]
        expected = [groebner_codims(arr) for arr, _ in cases]
        monkeypatch.setattr(geometry, "ideal_dimension", _forbidden)
        for (arr, pinned), table in zip(cases, expected):
            oracle = codim_oracle(arr)
            assert oracle.table == table
            for subset, c in pinned.items():
                assert oracle.c(subset) == c

    def test_lines_on_a_variety_use_groebner(self, monkeypatch):
        conic = parse_polynomial("x0*x2 - x1^2", V3)
        hyps = tuple((f"H{i}", parse_polynomial(t, V3))
                     for i, t in enumerate(("x0", "x2", "x0 + x2", "x1"), 1))
        arr = Arrangement(2, 1, 2, 2, (conic,), hyps, V3)
        calls = []

        def counted(ideal):
            calls.append(ideal)
            return ideal_dimension(ideal)

        monkeypatch.setattr(geometry, "ideal_dimension", counted)
        monkeypatch.setattr(geometry, "linear_matroid_oracle", _forbidden)
        oracle = codim_oracle(arr)
        assert calls
        assert oracle.table == groebner_codims(arr)

    def test_oracle_on_variety(self):
        conic = parse_polynomial("x0*x2 - x1^2", V3)
        hyps = tuple((f"H{i}", parse_polynomial(t, V3))
                     for i, t in enumerate(("x0", "x2", "x0 + x2"), 1))
        arr = Arrangement(2, 1, 2, 1, (conic,), hyps, V3)
        oracle = codim_oracle(arr)
        # each line meets the conic in points: codimension 1 in the curve
        assert all(oracle.c([j]) == 1 for j in (1, 2, 3))
        assert oracle.c([1, 2]) == 2  # x0 = x2 = 0 forces x1 = 0


class TestPositionCheck:
    def test_coordinate_simplex_general_position(self):
        arr = plane_lines("x0", "x1", "x2", N=2)
        report = check_subgeneral_position(arr)
        assert report.ok
        assert report.condition_ii_mode == "proxy"

    def test_five_lines_three_subgeneral(self):
        arr = plane_lines("x1", "x2", "x1 + x2", "x0", "x0 + x1", N=3)
        report = check_subgeneral_position(arr)
        assert report.condition_i.ok

    def test_four_concurrent_lines_fail(self):
        arr = plane_lines("x1", "x2", "x1 + x2", "x1 + 2*x2", N=3)
        report = check_subgeneral_position(arr)
        assert not report.condition_i.ok
        assert not report.ok

    def test_pencil_fixture(self):
        report = check_subgeneral_position(pencil_lines_arrangement())
        assert report.ok
        assert report.oracle.c([1, 2, 3]) == 2  # concurrent triple

    def test_spanning_axiom_tracks_condition_i(self):
        cases = [
            (pencil_lines_arrangement(), True),
            (plane_lines("x1", "x2", "x1 + x2", "x1 + 2*x2", N=3), False),
        ]
        for arr, expected in cases:
            oracle = codim_oracle(arr)
            report = validate_rank_oracle(oracle)
            spanning = next(c.ok for c in report.checks if c.axiom == "spanning")
            position = check_subgeneral_position(arr, oracle=oracle)
            assert spanning == position.condition_i.ok == expected
            # geometric oracles always satisfy the local structure axioms
            for axiom in ("monotone", "unit-increment", "capped", "nonzero-singletons"):
                assert next(c.ok for c in report.checks if c.axiom == axiom)


class TestHilbertFunction:
    def test_three_point_m2(self):
        data = hilbert_function(three_point_arrangement(), 2)
        assert data.q_m == 6 and data.H == 3

    def test_independent_quadratics(self):
        data = hilbert_function(conic_presentation_arrangement(), 1)
        assert data.H == 3

    def test_conic_presentation_growth(self):
        arr = conic_presentation_arrangement()
        for m in range(1, 7):
            assert hilbert_function(arr, m).H == 2 * m + 1

    def test_lower_bound_m_plus_one(self):
        for arr in (three_point_arrangement(), conic_presentation_arrangement(),
                    pencil_lines_arrangement()):
            for m in range(1, 7):
                assert hilbert_function(arr, m).H >= m + 1

    def test_budget(self):
        with pytest.raises(ResourceBudgetError):
            hilbert_function(pencil_lines_arrangement(), 7)

    def test_reruns_identical(self):
        arr = three_point_arrangement()
        a, b = hilbert_function(arr, 3), hilbert_function(arr, 3)
        assert a == b

    def test_rank_matches_sympy(self):
        # H(m) is the rank of the products' coefficient matrix, here built and
        # ranked by sympy from the forms alone
        sympy = pytest.importorskip("sympy")

        def sympy_rank(arr, m):
            xs = sympy.symbols(f"x0:{arr.M + 1}")
            forms = [sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator)
                                    * sympy.prod(x ** e for x, e in zip(xs, mono))
                                    for mono, c in f.terms.items()), *xs)
                     ** (arr.lcm_degree // f.degree) for f in arr.forms]
            rows = [math.prod(combo).as_dict()
                    for combo in combinations_with_replacement(forms, m)]
            monos = sorted({mono for row in rows for mono in row})
            return sympy.Matrix([[row.get(mono, 0) for mono in monos] for row in rows]).rank()

        pencil = pencil_lines_arrangement()
        assert hilbert_weight(pencil, 4, range(1, 10)).H == sympy_rank(pencil, 4)
        intro = generate_intro_fixture(1).arrangement
        assert hilbert_function(intro, 2).H == sympy_rank(intro, 2)

    def test_on_curved_variety(self):
        # the plane conic carried by the coordinate lines is itself, so the
        # degree-m data must match the conic's Hilbert function 2m+1
        conic = parse_polynomial("x0*x2 - x1^2", V3)
        hyps = tuple((f"H{i}", parse_polynomial(v, V3)) for i, v in enumerate(V3, 1))
        arr = Arrangement(2, 1, 2, 1, (conic,), hyps, V3)
        for m in range(1, 5):
            data = hilbert_function(arr, m)
            assert data.H == 2 * m + 1


def brute_force_max_weight(arr: Arrangement, m: int, costs) -> Fraction:
    """Independent oracle: maximum basis weight by exhaustive search."""
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


class TestHilbertWeight:
    def test_conic_relation_weight(self):
        arr = conic_presentation_arrangement()
        result = hilbert_weight(arr, 2, [1, 0, 0])
        assert result.S == 4
        assert result.S == brute_force_max_weight(arr, 2, [1, 0, 0])

    def test_zero_costs(self):
        assert hilbert_weight(three_point_arrangement(), 3, [0, 0, 0]).S == 0

    def test_unique_basis_sums_everything(self):
        arr = conic_presentation_arrangement()
        costs = [Fraction(2), Fraction(1, 3), Fraction(1)]
        result = hilbert_weight(arr, 1, costs)
        assert result.H == 3
        assert result.S == sum((Fraction(e) * c for exp in result.basis
                                for e, c in zip(exp, costs)), Fraction(0))

    def test_matches_brute_force_on_small_cases(self):
        import random
        rng = random.Random(3)
        arr = three_point_arrangement()
        for m in (2, 3, 4):
            costs = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(3)]
            assert hilbert_weight(arr, m, costs).S == brute_force_max_weight(arr, m, costs)


class TestHilbertLowerBound:
    def test_zero_costs_zero_slack(self):
        report = verify_hilbert_lower_bound(three_point_arrangement(), 4,
                                            [0, 0, 0], [1, 2])
        assert report.lhs == report.rhs == 0

    def test_three_point_fixture(self):
        report = verify_hilbert_lower_bound(three_point_arrangement(), 4,
                                            [1, 1, 0], [1, 2])
        assert report.ok and report.slack >= 0

    def test_uniform_costs_slack_closed_form(self):
        arr = three_point_arrangement()
        m = 5
        report = verify_hilbert_lower_bound(arr, m, [1, 1, 1], [1, 2])
        assert report.lhs == 1
        assert report.slack == Fraction((2 * arr.n + 1) * arr.delta_bound, m)

    def test_m_hypothesis_enforced(self):
        with pytest.raises(ValueError):
            verify_hilbert_lower_bound(three_point_arrangement(), 1, [1, 1, 1], [1, 2])

    def test_subset_hypothesis_enforced(self):
        # proportional forms share their zero: the pair does not empty V
        V2 = ("x0", "x1")
        hyps = (("P1", parse_polynomial("x0", V2)),
                ("P2", parse_polynomial("2*x0", V2)),
                ("P3", parse_polynomial("x1", V2)))
        arr = Arrangement(1, 1, 1, 2, (), hyps, V2)
        with pytest.raises(ValueError):
            verify_hilbert_lower_bound(arr, 4, [1, 1, 1], [1, 2])


class TestArrangementFormat:
    def test_round_trip(self):
        for arr in (three_point_arrangement(), pencil_lines_arrangement()):
            text = format_arrangement(arr)
            again = parse_arrangement(text)
            assert again.hypersurfaces == arr.hypersurfaces
            assert (again.M, again.n, again.deg_v, again.N) == \
                (arr.M, arr.n, arr.deg_v, arr.N)

    def test_variety_round_trip(self):
        conic = parse_polynomial("x0*x2 - x1^2", V3)
        hyps = (("H1", parse_polynomial("x0", V3)),)
        arr = Arrangement(2, 1, 2, 1, (conic,), hyps, V3)
        again = parse_arrangement(format_arrangement(arr))
        assert again.variety_generators == arr.variety_generators

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_arrangement("")
        with pytest.raises(ParseError):
            parse_arrangement("[space] M=1 n=1 degV=1\n[vars] x0 x1\n[hypersurfaces]\nH : x0\n")
        with pytest.raises(ParseError):
            parse_arrangement("[space] M=1 n=1 degV=1 N=1\n[vars] x0 x1\n"
                              "[hypersurfaces]\nH : x0 + \n")
