"""Arrangements, codimension oracles, position checks, Hilbert data."""

import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nochka import geometry
from nochka.errors import ParseError, ResourceBudgetError, VerificationError
from nochka.fixtures import (conic_presentation_arrangement, generate_intro_fixture,
                             pencil_lines_arrangement, three_point_arrangement)
from nochka.geometry import (Arrangement, check_subgeneral_position, codim_oracle,
                             format_arrangement, hilbert_function, hilbert_weight,
                             parse_arrangement, verify_hilbert_lower_bound)
from nochka.linalg import Echelon, primitive
from nochka.poly import (DEFAULT_GB_STEPS, Ideal, Polynomial, ideal_dimension,
                         monomials_of_degree, parse_polynomial)
from nochka.rank_core import RankOracle, linear_matroid_oracle, validate_rank_oracle
from nochka.univar import UnivariatePoly, poly_gcd_many

V3 = ("x0", "x1", "x2")
V4 = ("x0", "x1", "x2", "x3")


def plane_lines(*texts: str, N: int) -> Arrangement:
    hyps = tuple((f"H{i}", parse_polynomial(t, V3)) for i, t in enumerate(texts, 1))
    return Arrangement(2, 2, 1, N, (), hyps, V3)


def groebner_codims(arr: Arrangement, pruned: bool = False) -> tuple[int, ...]:
    """c(R) = n - dim(V cut by R) for every subset, one Groebner basis each
    on the forms as given.  With `pruned`, a subset that holds an empty
    subset one smaller is empty with no basis computed."""
    table = []
    for mask in range(1 << arr.q):
        if pruned and any(table[mask ^ 1 << j] == arr.n + 1
                          for j in range(arr.q) if mask >> j & 1):
            table.append(arr.n + 1)
            continue
        gens = list(arr.variety_generators) + [arr.forms[j] for j in range(arr.q)
                                               if mask >> j & 1]
        table.append(arr.n - ideal_dimension(Ideal(gens, nvars=arr.M + 1)))
    return tuple(table)


def _forbidden(*args):
    raise AssertionError("this route must not be taken")


def conic_and_lines() -> Arrangement:
    """The largest ground set: the conic G and the 19 lines
    L_t : x0 + t x1 + t^2 x2, no three concurrent, whose meeting points
    (t s : -(t + s) : 1) are off G."""
    forms = [("G", "x0^2 + x1^2 - 3*x2^2")] + [
        (f"L{t}", f"x0 + {t}*x1 + {t * t}*x2") for t in range(1, 20)]
    return Arrangement(2, 2, 1, 2, (), tuple((name, parse_polynomial(t, V3))
                                             for name, t in forms), V3)


def decided_masks(monkeypatch, arr: Arrangement) -> tuple[list[int], RankOracle]:
    """The masks `codim_oracle` decides, in the order it decides them, and its oracle."""
    decided = []
    walk = geometry._level_walk
    monkeypatch.setattr(geometry, "_level_walk", lambda q, n, decide: walk(
        q, n, lambda mask: decided.append(mask) or decide(mask)))
    return decided, codim_oracle(arr)


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
            assert oracle.table.tolist() == list(table)
            for subset, c in pinned.items():
                assert oracle.c(subset) == c

    def test_all_line_subsets_of_a_mixed_arrangement_skip_groebner(self, monkeypatch):
        arr = Arrangement(2, 2, 1, 2, (), tuple(
            (f"H{i}", parse_polynomial(t, V3)) for i, t in
            enumerate(("x0*x2 - x1^2", "x0", "x1 + x2", "x0 + x1 + x2", "2*x0"), 1)), V3)
        expected = groebner_codims(arr)
        calls = []

        def counted(ideal):
            calls.append(ideal)
            return ideal_dimension(ideal)

        monkeypatch.setattr(geometry, "ideal_dimension", counted)
        oracle = codim_oracle(arr)
        assert oracle.table.tolist() == list(expected)
        # the conic alone, and the conic on each of the five line subsets of
        # rank 1 ({x0, 2*x0} among them), are one form each; a subset of rank
        # 2 cuts out a point, which the restriction decides with no basis, and
        # all-line subsets need none either
        assert calls == []

    @pytest.mark.parametrize("make, count", [
        (lambda: generate_intro_fixture(1).arrangement, 298),
        # the 20 singletons, the 190 pairs, and the 1,140 triples, all spanning
        (conic_and_lines, 1350),
    ], ids=["intro-1", "conic-and-19-lines"])
    def test_decides_only_the_open_subsets(self, monkeypatch, make, count):
        arr = make()
        decided, oracle = decided_masks(monkeypatch, arr)
        # the masks whose immediate subsets are all non-spanning, read off
        # the final table
        masks = np.arange(1, 1 << arr.q)
        open_ = np.ones(len(masks), dtype=bool)
        for j in range(arr.q):
            open_ &= (masks >> j & 1 == 0) | (oracle.table[masks ^ 1 << j] <= arr.n)
        assert len(decided) == count == open_.sum()
        # each once, level by level and then in mask order
        assert decided == sorted(masks[open_].tolist(), key=lambda m: (m.bit_count(), m))

    def test_lines_of_the_largest_ground_set_match_the_matroid(self, monkeypatch):
        arr = conic_and_lines()
        monkeypatch.setattr(geometry, "ideal_dimension", _forbidden)
        oracle = codim_oracle(arr)
        # G is bit 0, so the even masks are the subsets of the lines
        lines = [p.linear_coefficients() for p in arr.forms[1:]]
        assert (oracle.table[::2].tolist()
                == linear_matroid_oracle(lines, arr.N).table.tolist())
        # G meets each line in two points, and no two lines on G
        sizes = np.array([m.bit_count() for m in range(1, 1 << arr.q, 2)])
        assert (oracle.table[1::2] == np.minimum(sizes, arr.n + 1)).all()

    @pytest.mark.parametrize("make", [lambda: generate_intro_fixture(1).arrangement,
                                      lambda: conic_lines_arrangement()],
                             ids=["intro-1", "lines-on-a-conic"])
    def test_points_evaluate_no_line(self, monkeypatch, make):
        arr = make()
        lines = [geometry._integer_terms(p) for p in arr.forms if p.degree == 1]
        evaluated = []
        value_at = geometry._value_at
        monkeypatch.setattr(geometry, "_value_at", lambda terms, point: (
            evaluated.append(terms) or value_at(terms, point)))
        codim_oracle(arr)
        assert evaluated and not any(terms in lines for terms in evaluated)

    @pytest.mark.parametrize("damage", [lambda b: b[:-1], lambda b: b + b[:1],
                                        lambda b: [tuple(x + 1 for x in v) for v in b]],
                             ids=["too-short", "dependent", "not-orthogonal"])
    def test_kernel_basis_is_checked(self, monkeypatch, damage):
        arr = Arrangement(2, 2, 1, 2, (), tuple(
            (f"H{i}", parse_polynomial(t, V3)) for i, t in
            enumerate(("x0*x2 - x1^2", "x0 + x1"), 1)), V3)
        kernel = Echelon.kernel
        monkeypatch.setattr(Echelon, "kernel",
                            lambda ech, width: damage(kernel(ech, width)) if ech.rank
                            else kernel(ech, width))
        with pytest.raises(VerificationError, match="kernel basis"):
            codim_oracle(arr)

    def test_intro_fixture_all_line_subsets(self, monkeypatch):
        arr = generate_intro_fixture(1).arrangement
        calls = []

        def counted(ideal):
            calls.append(ideal)
            return ideal_dimension(ideal)

        monkeypatch.setattr(geometry, "ideal_dimension", counted)
        oracle = codim_oracle(arr)
        # 169 when each subset with a conic ran on all M+1 variables, 298
        # before all-line subsets took exact ranks, 61 before one restricted
        # form and binary forms were decided without a basis, 4 (the conic
        # pairs and triple) before plane forms were certified by a probe line
        assert calls == []
        monkeypatch.undo()
        # every subset, the all-line ones included
        assert oracle.table.tolist() == list(groebner_codims(arr, pruned=True))

    def test_lines_on_a_variety_use_groebner(self, monkeypatch):
        # the twisted cubic's three quadrics restricted to a plane are
        # certified by ranks; with the quadric H5 and no hyperplane, four
        # forms in 3-space still need a basis
        cubic = tuple(parse_polynomial(t, V4) for t in TWISTED_CUBIC)
        hyps = tuple((f"H{i}", parse_polynomial(t, V4))
                     for i, t in enumerate(("x0", "x3", "x1 + x2", "x1",
                                            "-2/3*x1*x2 + x3^2"), 1))
        arr = Arrangement(3, 1, 3, 3, cubic, hyps, V4)
        calls = []

        def counted(ideal):
            calls.append(ideal)
            return ideal_dimension(ideal)

        monkeypatch.setattr(geometry, "ideal_dimension", counted)
        monkeypatch.setattr(geometry, "linear_matroid_oracle", _forbidden)
        oracle = codim_oracle(arr)
        assert calls
        assert all(ideal.nvars == 4 and len(ideal.generators) == 4 for ideal in calls)
        assert oracle.table.tolist() == list(groebner_codims(arr))

    @pytest.mark.parametrize("make", [
        *(lambda seed=seed: generate_intro_fixture(seed).arrangement for seed in range(1, 5)),
        conic_presentation_arrangement,
        lambda: _arrangement(3, 1, 3, TWISTED_CUBIC, [parse_polynomial(t, V4) for t in (
            "1/2*x0 - 3*x2", "-2/3*x1*x2 + x3^2", "x0 + x1 + x3")]),
    ], ids=["intro-1", "intro-2", "intro-3", "intro-4", "conic-presentation",
            "twisted-cubic"])
    def test_tables_match_one_groebner_basis_per_subset(self, make):
        arr = make()
        assert codim_oracle(arr).table.tolist() == list(groebner_codims(arr, pruned=True))

    def test_oracle_on_variety(self):
        conic = parse_polynomial("x0*x2 - x1^2", V3)
        hyps = tuple((f"H{i}", parse_polynomial(t, V3))
                     for i, t in enumerate(("x0", "x2", "x0 + x2"), 1))
        arr = Arrangement(2, 1, 2, 1, (conic,), hyps, V3)
        oracle = codim_oracle(arr)
        # each line meets the conic in points: codimension 1 in the curve
        assert all(oracle.c([j]) == 1 for j in (1, 2, 3))
        assert oracle.c([1, 2]) == 2  # x0 = x2 = 0 forces x1 = 0


COEFF = st.integers(-2, 2)


def _form(draw, nvars: int, degree: int) -> Polynomial:
    monos = list(monomials_of_degree(nvars, degree))
    coeffs = draw(st.lists(COEFF, min_size=len(monos), max_size=len(monos)))
    if not any(coeffs):
        coeffs[0] = 1
    return Polynomial(nvars, dict(zip(monos, coeffs)))


def _arrangement(M: int, n: int, deg_v: int, variety: tuple[str, ...],
                 forms: list[Polynomial]) -> Arrangement:
    names = V4[:M + 1]
    return Arrangement(M, n, deg_v, max(n, len(forms)),
                       tuple(parse_polynomial(t, names) for t in variety),
                       tuple((f"H{i}", p) for i, p in enumerate(forms, 1)), names)


CONIC = ("x0*x2 - x1^2",)
TWISTED_CUBIC = ("x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2")
QUADRIC_SURFACE = ("x0*x3 - x1*x2",)


@st.composite
def mixed_arrangements(draw) -> Arrangement:
    """Hyperplanes with quadrics on the whole plane or 3-space, hyperplanes
    on the conic or on the twisted cubic, or planes with one quadric on the
    quadric surface."""
    kind = draw(st.sampled_from(["plane", "space", "conic", "twisted-cubic",
                                 "quadric-surface"]))
    M = 2 if kind in ("plane", "conic") else 3
    lines = [_form(draw, M + 1, 1) for _ in range(draw(st.integers(1, 3)))]
    if kind == "conic":
        return _arrangement(2, 1, 2, CONIC, lines)
    if kind == "twisted-cubic":
        return _arrangement(3, 1, 3, TWISTED_CUBIC, lines)
    if kind == "quadric-surface":
        quadric = _form(draw, 4, 2)
        # a quadric containing the surface is a multiple of its generator
        assume(not Ideal([parse_polynomial(QUADRIC_SURFACE[0], V4)], nvars=4)
               .normal_form(quadric).is_zero)
        return _arrangement(3, 2, 2, QUADRIC_SURFACE, [quadric] + lines)
    quadrics = [_form(draw, M + 1, 2) for _ in range(draw(st.integers(1, 2)))]
    if kind == "plane":
        if draw(st.booleans()):  # three independent lines: k = M + 1
            lines = [parse_polynomial(v, V3) for v in V3] + lines[:1]
        if draw(st.booleans()):  # a reducible conic through one of the lines
            quadrics.append(lines[-1] * _form(draw, 3, 1))
        if draw(st.booleans()):  # a repeated line
            lines.append(lines[-1].scale(2))
    return _arrangement(M, M, 1, (), quadrics + lines)


class TestRestrictedOracle:
    @given(mixed_arrangements())
    @example(_arrangement(2, 2, 1, (), [parse_polynomial(t, V3) for t in (
        "x0*x2 - x1^2", "x0*x1 + x0*x2", "x0", "2*x0", "x1 + x2")]))
    @example(_arrangement(2, 2, 1, (), [parse_polynomial(t, V3) for t in (
        "x0^2 + x1^2 - x2^2", "x0", "x1", "x2")]))
    @example(_arrangement(3, 3, 1, (), [parse_polynomial(t, V4) for t in (
        "x0*x3 - x1*x2", "x0^2 + x1^2 - x3^2", "x0", "x1 + x2")]))
    @example(_arrangement(2, 1, 2, CONIC, [parse_polynomial(t, V3) for t in (
        "x0", "x1", "x0 + x2")]))
    @example(_arrangement(3, 1, 3, TWISTED_CUBIC, [parse_polynomial(t, V4) for t in (
        "x0", "x3", "x1 + x2")]))
    # the lines meet at (2 : 2 : 1), on the first conic and off the second
    @example(_arrangement(2, 2, 1, (), [parse_polynomial(t, V3) for t in (
        "x0*x2 - x1^2 + 2*x2^2", "x0 - x1", "x1 - 2*x2")]))
    @example(_arrangement(2, 2, 1, (), [parse_polynomial(t, V3) for t in (
        "x0*x2 - x1^2 + 3*x2^2", "x0 - x1", "x1 - 2*x2")]))
    # planes 1-3 meet at (1 : 1 : 1 : 1), on the cubic; planes 1, 2, 4 at
    # (2 : 2 : 2 : 1), off it
    @example(_arrangement(3, 1, 3, TWISTED_CUBIC, [parse_polynomial(t, V4) for t in (
        "x0 - x1", "x1 - x2", "x2 - x3", "x0 - 2*x3")]))
    # planes 2-4 meet at (0 : 0 : 1 : 0), on the surface and off the quadric
    @example(_arrangement(3, 2, 2, QUADRIC_SURFACE, [parse_polynomial(t, V4) for t in (
        "x0^2 + x1*x3 + x2^2", "x0 + x1", "x0 - x3", "x3 + 3*x1")]))
    @settings(max_examples=40, deadline=None)
    def test_matches_one_groebner_basis_per_subset(self, arr):
        assert codim_oracle(arr).table.tolist() == list(groebner_codims(arr))


def substituted(p: Polynomial, basis: list[tuple[int, ...]]) -> Polynomial:
    """Reference restriction: p evaluated in `Fraction`s at the `Polynomial`
    forms x_i = sum_c basis[c][i] t_c, made content-free."""
    r = len(basis)
    units = [tuple(int(c == k) for k in range(r)) for c in range(r)]
    coords = [Polynomial(r, {u: b[i] for u, b in zip(units, basis)}) for i in range(p.nvars)]
    value = p.evaluate_exact(coords, Polynomial.constant(r, 1))
    return Polynomial(r, dict(zip(value.terms, primitive(list(value.terms.values())))))


@st.composite
def restrictions(draw) -> tuple[Polynomial, list[tuple[int, ...]]]:
    """A form of degree 1 to 3 in 3 or 4 variables, and 1 to 4 integer
    vectors with entries small or up to 2^22 in size."""
    nvars = draw(st.integers(3, 4))
    p = _form(draw, nvars, draw(st.integers(1, 3)))
    entry = st.one_of(COEFF, st.integers(-2 ** 22, 2 ** 22))
    basis = draw(st.lists(st.tuples(*[entry] * nvars).filter(any), min_size=1, max_size=4))
    return p, basis


def level_restriction(terms: dict, basis: list[tuple[int, ...]]) -> dict:
    """Reference restriction through the Hilbert level products: p's
    coefficients times the rows of the degree-d products of the coordinate
    forms x_i = sum_c basis[c][i] t_c, in Python ints, made content-free
    over the products' descending columns."""
    d = sum(next(iter(terms)))
    nvars = len(basis[0])
    coords = [[b[i] for b in basis] for i in range(nvars)]
    units = [tuple(int(c == k) for k in range(len(basis))) for c in range(len(basis))]
    cols, blocks = geometry._level_products(coords, units, d)
    rows = dict(zip(monomials_of_degree(nvars, d), np.concatenate(list(blocks)).tolist()))
    total = [sum(c * int(rows[u][j]) for u, c in terms.items()) for j in range(len(cols))]
    g = math.gcd(*total)
    return {u: c // g for u, c in zip(cols, total) if c}


# (form, basis, restriction is zero): p vanishes on the span; the products
# reach 2^66; the products fit int64 but the sum 2^62 * 2^3 does not
RESTRICTION_CASES = [
    (parse_polynomial("x0 - x1", V3), [(1, 1, 0), (2, 2, 5)], True),
    (parse_polynomial("x0^3 - x0*x1*x2 + x2^3", V3),
     [(2 ** 22, 3, -1), (1, -2 ** 22, 2 ** 21)], False),
    (Polynomial(3, {(3, 0, 0): 2 ** 62, (0, 3, 0): 1}), [(2, 1, 0), (1, 0, 1)], False),
]


class TestRestrict:
    """`_restrict` by substitution against `Polynomial` substitution and the
    level products, term for term and in the same order."""

    @given(restrictions())
    @settings(max_examples=80, deadline=None)
    def test_matches_substitution(self, case):
        p, basis = case
        terms = geometry._integer_terms(p)
        restricted = geometry._restrict(terms, basis)
        assert Polynomial(len(basis), restricted) == substituted(p, basis)
        assert list(restricted.items()) == list(level_restriction(terms, basis).items())

    @pytest.mark.parametrize("p, basis, zero", RESTRICTION_CASES,
                             ids=["zero", "products-past-int64", "sums-past-int64"])
    def test_edge_cases(self, p, basis, zero):
        terms = geometry._integer_terms(p)
        restricted = geometry._restrict(terms, basis)
        assert Polynomial(len(basis), restricted) == substituted(p, basis)
        assert (not restricted) == zero
        assert list(restricted.items()) == list(level_restriction(terms, basis).items())
        assert geometry._restrict(terms, basis) == restricted


def _random_form(rng: random.Random, nvars: int, degree: int) -> Polynomial:
    monos = list(monomials_of_degree(nvars, degree))
    coeffs = [rng.randint(-3, 3) for _ in monos]
    if not any(coeffs):
        coeffs[rng.randrange(len(coeffs))] = 1
    return Polynomial(nvars, dict(zip(monos, coeffs)))


def _binary_families(seed: int) -> list[list[Polynomial]]:
    """Families of 2 to 4 binary forms: at random, sharing a factor once or
    twice, vanishing together at (1 : 0) as well, and of unequal degrees
    that share only the zero (1 : 0) or only (0 : 1)."""
    rng = random.Random(seed)
    t0, t1 = Polynomial(2, {(1, 0): 1}), Polynomial(2, {(0, 1): 1})
    shared = [_random_form(rng, 2, rng.randint(1, 2)),
              parse_polynomial("t0^2 + t1^2", ("t0", "t1"))]  # zeros (+-i : 1)
    out = []
    for _ in range(4):
        k = rng.randint(2, 4)
        forms = [_random_form(rng, 2, rng.randint(1, 3)) for _ in range(k)]
        out.append(forms)
        factor = rng.choice(shared)
        out.append([f * factor for f in forms])
        out.append([f * factor * factor for f in forms])
        out.append([f * t1 for f in forms])
        out.append([f * t1 * factor for f in forms])
        uneven = [_random_form(rng, 2, d) for d in rng.sample(range(4), k)]
        out.append([f * t1 for f in uneven])
        out.append([f * t0 for f in uneven])
    return out


def _gcd_dimension(forms: list[Polynomial]) -> int:
    """The binary-forms decision as it was made: a common zero (1 : 0) when
    no form has a t0^d term, else a root of the gcd of the F(z, 1)."""
    if all((g.degree, 0) not in g.terms for g in forms):
        return 0
    dehomogenised = []
    for g in forms:
        coeffs = [Fraction(0)] * (g.degree + 1)
        for (e0, _), c in g.terms.items():
            coeffs[e0] = c
        dehomogenised.append(UnivariatePoly(coeffs))
    return 0 if poly_gcd_many(dehomogenised).degree > 0 else -1


def _through(rng: random.Random, nvars: int, degree: int,
             points: list[tuple[int, ...]]) -> Polynomial:
    """A seeded nonzero form of the degree vanishing at the integer points:
    a random combination of an integer basis of the forms that do."""
    monos = list(monomials_of_degree(nvars, degree))
    ech = Echelon()
    for p in points:
        ech.insert([math.prod(map(pow, p, u)) for u in monos])
    basis = ech.kernel(len(monos))
    while True:
        weights = [rng.randint(-2, 2) for _ in basis]
        coeffs = [sum(w * b[i] for w, b in zip(weights, basis)) for i in range(len(monos))]
        if any(coeffs):
            return Polynomial(nvars, dict(zip(monos, coeffs)))


def _point(rng: random.Random, nvars: int) -> tuple[int, ...]:
    while True:
        p = tuple(rng.randint(-4, 4) for _ in range(nvars))
        if any(p):
            return p


def _plane_families(seed: int) -> list[list[Polynomial]]:
    """Families of 2 to 4 forms in 2 or 3 variables, of degrees 1 to 4
    mixed: at random, through one or two planted points, and (in the
    plane) sharing a factor, so that they meet in a curve."""
    rng = random.Random(seed)
    out = []
    for nvars in (2, 3):
        for _ in range(2):
            degrees = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
            out.append([_random_form(rng, nvars, d) for d in degrees])
            points = [_point(rng, nvars) for _ in range(rng.randint(1, 2))]
            out.append([_through(rng, nvars, max(d, len(points)), points) for d in degrees])
        if nvars == 3:
            factor = _random_form(rng, 3, rng.randint(1, 2))
            out.append([_random_form(rng, 3, rng.randint(1, 4 - factor.degree)) * factor
                        for _ in range(rng.randint(2, 3))])
    return out


def _terms(forms: list[Polynomial]) -> list[dict]:
    return [geometry._integer_terms(f) for f in forms]


def _counted(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(geometry, "ideal_dimension",
                        lambda ideal: calls.append(ideal) or ideal_dimension(ideal))
    return calls


class TestFormsDimension:
    def test_binary_forms_match_groebner(self):
        seen = set()
        for seed in range(40):
            for forms in _binary_families(seed):
                terms = _terms(forms)
                dim = geometry._forms_dimension(terms, 2, DEFAULT_GB_STEPS)
                assert dim == _gcd_dimension(forms) == ideal_dimension(Ideal(forms, nvars=2)), forms
                assert geometry._no_common_zero(terms, 2) == (dim == -1)
                seen.add(dim)
        assert seen == {-1, 0}

    def test_one_form_matches_groebner(self):
        rng = random.Random(5)
        for nvars in (2, 3, 4):
            for _ in range(6):
                form = _random_form(rng, nvars, rng.randint(1, 3))
                assert (geometry._forms_dimension(_terms([form]), nvars, DEFAULT_GB_STEPS)
                        == ideal_dimension(Ideal([form], nvars=nvars)) == nvars - 2)

    def test_macaulay_rank_matches_groebner(self):
        seen = set()
        for seed in range(12):
            for forms in _plane_families(seed):
                nvars = forms[0].nvars
                dim = ideal_dimension(Ideal(forms, nvars=nvars))
                assert geometry._no_common_zero(_terms(forms), nvars) == (dim == -1), forms
                seen.add((nvars, dim))
        assert seen == {(2, -1), (2, 0), (3, -1), (3, 0), (3, 1)}

    def test_ladder_matches_groebner(self, monkeypatch):
        families = [(forms, ideal_dimension(Ideal(forms, nvars=forms[0].nvars)))
                    for seed in range(12) for forms in _plane_families(seed)]
        calls = _counted(monkeypatch)
        for forms, dim in families:
            before = len(calls)
            assert geometry._forms_dimension(_terms(forms), forms[0].nvars,
                                             DEFAULT_GB_STEPS) == dim, forms
            # a probe line meets every plane curve, so only a curve needs a basis
            assert len(calls) - before == (dim == 1)

    def test_space_sections_match_groebner(self, monkeypatch):
        rng = random.Random(11)
        families = []
        for s in (2, 3):
            for _ in range(4):
                forms = [_random_form(rng, 4, rng.randint(1, 2)) for _ in range(s)]
                families.append((forms, ideal_dimension(Ideal(forms, nvars=4))))
        calls = _counted(monkeypatch)
        for forms, dim in families:
            assert (geometry._forms_dimension(_terms(forms), 4, DEFAULT_GB_STEPS)
                    == dim == 3 - len(forms))
        assert calls == []

    def test_other_ideals_take_a_basis(self, monkeypatch):
        rng = random.Random(3)
        point = geometry._probe(3, 1)[0]
        # forms of 3-space containing the probe line: combinations of the
        # two linear forms that vanish on it
        ech = Echelon()
        for b in geometry._probe(4, 1):
            ech.insert(b)
        l1, l2 = (Polynomial(4, dict(zip(monomials_of_degree(4, 1), k))) for k in ech.kernel(4))
        cases = [
            # plane forms through the first point of the probe line
            ([_through(rng, 3, d, [point]) for d in (2, 3)], 0),
            ([_through(rng, 3, d, [point]) for d in (2, 3, 2)], 0),
            ([l1 * _random_form(rng, 4, 1) + l2 * _random_form(rng, 4, 1) for _ in range(2)], 1),
            # an emptiness question in 4 variables
            ([_random_form(rng, 4, 2) for _ in range(4)], -1),
        ]
        for forms, dim in cases:
            nvars = forms[0].nvars
            assert ideal_dimension(Ideal(forms, nvars=nvars)) == dim
            calls = _counted(monkeypatch)
            assert geometry._forms_dimension(_terms(forms), nvars, DEFAULT_GB_STEPS) == dim
            assert len(calls) == 1 and calls[0].nvars == nvars

    def test_probe_points_span(self):
        for nvars in (3, 4, 5):
            for c in (1, 2):
                ech = Echelon()
                for b in geometry._probe(nvars, c):
                    ech.insert(b)
                assert ech.rank == c + 1


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
        assert report.condition_i.witness == "{1,2,3,4} meets V (c = 2)"
        assert not report.ok

    def test_condition_i_witness_is_first_in_mask_order(self):
        # lines 1, 2, 3, 7 meet at (1 : 0 : 0) and lines 3..6 at (0 : 0 : 1);
        # {3,4,5,6} (mask 60) comes before {1,2,3,7} (mask 71)
        arr = plane_lines("x2", "x1 + x2", "x1", "x0", "x0 + x1", "x0 + 2*x1",
                          "x1 + 2*x2", N=3)
        report = check_subgeneral_position(arr)
        assert report.condition_i.witness == "{3,4,5,6} meets V (c = 2)"

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



def conic_lines_arrangement(conic: str = "x0*x2 - x1^2") -> Arrangement:
    """A conic, carried by the three coordinate lines."""
    hyps = tuple((f"H{i}", parse_polynomial(v, V3)) for i, v in enumerate(V3, 1))
    return Arrangement(2, 1, 2, 1, (parse_polynomial(conic, V3),), hyps, V3)


def twisted_cubic_arrangement() -> Arrangement:
    gens = tuple(parse_polynomial(t, V4) for t in ("x0*x2 - x1^2", "x1*x3 - x2^2",
                                                    "x0*x3 - x1*x2"))
    hyps = tuple((name, parse_polynomial(t, V4)) for name, t in
                 (("H0", "1/2*x0 - 3*x2"), ("H1", "x3^2 - 2/3*x1*x2"), ("H2", "x0 + x1 + x3")))
    return Arrangement(3, 1, 3, 2, gens, hyps, V4)


def fraction_rows(arr: Arrangement, m: int) -> list[dict]:
    """Reference rows: each degree-m product of the normalized forms in
    `Fraction` arithmetic, reduced by `Ideal.normal_form`, as a term dict."""
    forms = arr.normalized_forms()
    rows = []
    for combo in combinations_with_replacement(range(arr.q), m):
        p = forms[combo[0]]
        for j in combo[1:]:
            p = p * forms[j]
        rows.append(arr.variety_ideal().normal_form(p).terms)
    return rows


def walk_degree_m_vectors(arr: Arrangement, m: int) -> tuple[list, list]:
    """Reference: the product-by-product walk that the level matrices of
    `_degree_m_vectors` replaced.  Each product is a `Polynomial`, the
    product of its prefix and a form, reduced modulo the variety and made
    content-free (`primitive`) at every step; a level is a list of
    (product, last form index) pairs, and the children of a pair take every
    form from its last index on.  The rows are indexed by every monomial
    some product holds, descending."""
    ideal = arr.variety_ideal() if arr.variety_generators else None

    def step(p: Polynomial) -> Polynomial:
        if ideal is not None:
            p = ideal.normal_form(p)
        return Polynomial(p.nvars, dict(zip(p.terms, primitive(list(p.terms.values())))))

    forms = [step(f) for f in arr.normalized_forms()]
    level = [(f, j) for j, f in enumerate(forms)]
    for _ in range(1, m):
        level = [(step(p * forms[j]), j) for p, last in level for j in range(last, len(forms))]
    products = [p.terms for p, _ in level]
    support = sorted({k for p in products for k in p}, reverse=True)
    index = {k: i for i, k in enumerate(support)}
    vectors = []
    for p in products:
        row = [0] * len(support)
        for k, c in p.items():
            row[index[k]] = int(c)
        vectors.append(tuple(row))
    return list(monomials_of_degree(arr.q, m)), vectors


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

    @pytest.mark.parametrize("make", [pencil_lines_arrangement, conic_lines_arrangement,
                                      lambda: conic_lines_arrangement("2*x0*x2 - 3*x1^2"),
                                      twisted_cubic_arrangement],
                             ids=["pencil", "conic", "scaled-conic", "twisted-cubic"])
    def test_integer_rows_are_multiples_of_fraction_rows(self, make):
        # each row is a nonzero multiple of the rational product's normal form,
        # in descending-monomial column order, and content-free
        from nochka.geometry import _degree_m_vectors
        arr = make()
        for m in range(1, 5):
            exps, vectors = _degree_m_vectors(arr, m)
            assert exps == list(monomials_of_degree(arr.q, m))
            reference = fraction_rows(arr, m)
            support = sorted({mono for row in reference for mono in row}, reverse=True)
            assert len(vectors) == len(reference)
            for vec, row in zip(vectors, reference):
                assert all(isinstance(x, int) for x in vec)
                nonzero = {support[i]: x for i, x in enumerate(vec) if x}
                assert nonzero.keys() == row.keys()
                assert len({Fraction(x) / row[mono] for mono, x in nonzero.items()}) <= 1
                assert math.gcd(*vec) == (1 if row else 0)

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


def assert_rows_match_walk(arr: Arrangement, m: int) -> None:
    exps, vectors = geometry._degree_m_vectors(arr, m)
    assert (exps, vectors) == walk_degree_m_vectors(arr, m)
    assert all(type(x) is int for row in vectors for x in row)


def level_dtypes(arr: Arrangement, m: int) -> set:
    """The dtypes `_degree_m_vectors` builds its levels in, with its rows
    checked against the walk."""
    seen = set()
    level_rows = geometry._level_rows

    def recording(P, *args):
        seen.add(P.dtype)
        return level_rows(P, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_level_rows", recording)
        assert_rows_match_walk(arr, m)
    return seen


@st.composite
def small_arrangements(draw) -> tuple[Arrangement, int]:
    """Forms with coefficients in -2..2 (lines, and on the plane a quadric
    too) on the plane, the conic or the twisted cubic, with 2 <= m <= 4."""
    kind = draw(st.sampled_from(["plane", "conic", "twisted-cubic"]))
    M = 3 if kind == "twisted-cubic" else 2
    forms = [_form(draw, M + 1, 1) for _ in range(draw(st.integers(1, 3)))]
    if kind == "plane":
        if draw(st.booleans()):
            forms.append(_form(draw, 3, 2))
        arr = _arrangement(2, 2, 1, (), forms)
    else:
        arr = (_arrangement(2, 1, 2, CONIC, forms) if kind == "conic"
               else _arrangement(3, 1, 3, TWISTED_CUBIC, forms))
    return arr, draw(st.integers(2, 4))


@st.composite
def wide_lines(draw) -> Arrangement:
    """Two or three lines a*x0 + b*x1 +- x2 with 2^20 <= a <= 2^21 and
    |b| <= 2^21, on the plane or on the conic.  The +-1 keeps each line
    content-free, and no reduction modulo the conic reaches x0^k or x2^k,
    so the degree-k rows stay content-free with an x0^k entry, a product
    of k values of a, of at least 2^(20k)."""
    V = ("x0", "x1", "x2")
    lines = [Polynomial(3, {(1, 0, 0): draw(st.integers(2 ** 20, 2 ** 21)),
                            (0, 1, 0): draw(st.integers(-2 ** 21, 2 ** 21)),
                            (0, 0, 1): draw(st.sampled_from([-1, 1]))})
             for _ in range(draw(st.integers(2, 3)))]
    if draw(st.booleans()):
        return _arrangement(2, 1, 2, CONIC, lines)
    return Arrangement(2, 2, 1, 2, (), tuple((f"H{i}", p) for i, p in enumerate(lines, 1)), V)


class TestDegreeMVectors:
    """The level matrices of `_degree_m_vectors` against the product walk."""

    @pytest.mark.parametrize("make, top", [
        (pencil_lines_arrangement, 6),
        *((lambda s=s: generate_intro_fixture(s).arrangement, 3) for s in range(1, 6)),
        (three_point_arrangement, 6),
        (conic_presentation_arrangement, 6),
        (conic_lines_arrangement, 6),
        (lambda: conic_lines_arrangement("2*x0*x2 - 3*x1^2"), 6),
        (twisted_cubic_arrangement, 6),
    ], ids=["pencil", *(f"intro-{s}" for s in range(1, 6)), "three-point",
            "conic-presentation", "conic", "scaled-conic", "twisted-cubic"])
    def test_fixtures_match_walk(self, make, top):
        arr = make()
        for m in range(1, top + 1):
            assert_rows_match_walk(arr, m)

    def test_cancelled_column_dropped(self):
        # x0^2 x1^2 is reached twice in (x0^2 + 2 x0 x1 - 2 x1^2)^2, with
        # coefficients 1 * (-2) * 2 and 2^2 that cancel
        V = ("x0", "x1", "x2")
        arr = Arrangement(2, 2, 1, 2, (),
                          (("Q", parse_polynomial("x0^2 + 2*x0*x1 - 2*x1^2", V)),), V)
        exps, vectors = geometry._degree_m_vectors(arr, 2)
        assert vectors == [(1, 4, -8, 4)]  # x0^4, x0^3 x1, x0 x1^3, x1^4
        assert_rows_match_walk(arr, 2)

    def test_forms_vanishing_modulo_the_variety(self):
        # the ideal (x0^2) is not radical: A = x0 does not contain V, but its
        # normalized form x0^2 reduces to zero, and so does every product
        # that holds it
        V = ("x0", "x1", "x2")
        arr = Arrangement(2, 1, 2, 1, (parse_polynomial("x0^2", V),),
                          (("A", parse_polynomial("x0", V)),
                           ("B", parse_polynomial("x1*x2 + x0*x1", V))), V)
        for m in range(1, 4):
            exps, vectors = geometry._degree_m_vectors(arr, m)
            assert not any(vectors[0])
            assert_rows_match_walk(arr, m)

    def test_normal_form_scale_counts_in_the_bound(self):
        # modulo 2 x0 x2 = 3 x1^2, with A = 3 * 2^29, the degree-2 products
        # have entries near 2 A^2, within max|row| * max l1 norm = 3 A^2 <
        # 2^63; reducing x1^2 to 2/3 x0 x2 sums them into 8 A^2 > 2^63
        A = 3 * 2 ** 29
        V = ("x0", "x1", "x2")
        lines = (("f", Polynomial(3, {(1, 0, 0): A, (0, 1, 0): A, (0, 0, 1): A + 1})),
                 ("g", Polynomial(3, {(1, 0, 0): A + 1, (0, 1, 0): A, (0, 0, 1): A})))
        arr = Arrangement(2, 1, 2, 2, (parse_polynomial("2*x0*x2 - 3*x1^2", V),), lines, V)
        assert level_dtypes(arr, 2) == {np.dtype(object)}

    @given(small_arrangements())
    @settings(max_examples=40, deadline=None)
    def test_int64_levels_match_walk(self, case):
        arr, m = case
        assert level_dtypes(arr, m) == {np.dtype(np.int64)}

    @given(wide_lines())
    @settings(max_examples=25, deadline=None)
    def test_levels_past_int64_match_walk(self, arr):
        # level 2 is bounded by 2^21 * (2^22 + 1) * 2 < 2^63; level 4 by at
        # least 2^60 * 2^20, so the build crosses to Python ints between them
        assert level_dtypes(arr, 4) == {np.dtype(np.int64), np.dtype(object)}


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

    def test_integer_weights_match_fraction_brute_force(self):
        # cost denominators 2, 3 and 7 are cleared by one lcm of 42
        arr = plane_lines("x0", "x1", "x2", "x0 + x1", N=2)
        for costs in ([Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(3, 2)],
                      [Fraction(1, 7), Fraction(0), Fraction(1, 3), Fraction(1, 7)],
                      [Fraction(5, 3), Fraction(1, 2), Fraction(4, 7), 1]):
            result = hilbert_weight(arr, 2, costs)
            assert result.S == brute_force_max_weight(arr, 2, costs)
            assert result.S == sum((Fraction(e) * Fraction(c) for exp in result.basis
                                    for e, c in zip(exp, costs)), Fraction(0))

    def test_matches_brute_force_on_small_cases(self):
        import random
        rng = random.Random(3)
        arr = three_point_arrangement()
        for m in (2, 3, 4):
            costs = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(3)]
            assert hilbert_weight(arr, m, costs).S == brute_force_max_weight(arr, m, costs)

    def test_matches_the_full_scan(self):
        # the greedy stops once the rows span the slice, and sums the scaled
        # costs over index sequences; the reference scans every row with
        # exponent-vector dot products, as it did before
        def full_scan(arr, m, costs):
            costs = [Fraction(c) for c in costs]
            exps, vectors = geometry._degree_m_vectors(arr, m)
            weights = [sum((e * c for e, c in zip(exp, costs)), Fraction(0)) for exp in exps]
            order = sorted(range(len(exps)), key=weights.__getitem__, reverse=True)
            ech = Echelon()
            chosen = [i for i in order if ech.insert(vectors[i])]
            return (len(chosen), sum((weights[i] for i in chosen), Fraction(0)),
                    tuple(exps[i] for i in sorted(chosen)))

        rng = random.Random(11)
        cases = [(pencil_lines_arrangement(), 4), (pencil_lines_arrangement(), 2),
                 (conic_presentation_arrangement(), 3), (three_point_arrangement(), 4),
                 (generate_intro_fixture(1).arrangement, 2)]
        for arr, m in cases:
            for _ in range(4):
                # few distinct costs, so many weights tie
                costs = [Fraction(rng.randint(0, 3), rng.choice((1, 2, 3))) for _ in range(arr.q)]
                got = hilbert_weight(arr, m, costs)
                assert (got.H, got.S, got.basis) == full_scan(arr, m, costs)


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

    def test_polynomial_error_gives_line_and_column(self):
        text = ("[space] M=2 n=2 degV=1 N=3\n[vars] x0 x1 x2\n[variety]\n"
                "[hypersurfaces]\nA1 : x0 + y1\n")
        with pytest.raises(ParseError) as err:
            parse_arrangement(text)
        assert (err.value.line, err.value.column) == (5, 11)
        assert str(err.value) == "unknown variable 'y1' (line 5, column 11)"
        with pytest.raises(ParseError) as err:
            parse_arrangement(text.replace("x0 + y1", "x0 - x0"))
        assert str(err.value) == "polynomial must be nonzero (line 5)"

    @pytest.mark.parametrize("variety, hypersurface, line, column", [
        ("", "H2 :   x1 + $x2", 7, 13),
        ("  x0*x2 - x1^2 + $", "H1 : x0", 4, 18),
    ], ids=["hypersurface", "variety"])
    def test_error_column_counts_from_the_line_as_written(self, variety, hypersurface,
                                                         line, column):
        text = (f"[space] M=2 n=2 degV=1 N=3\n[vars] x0 x1 x2\n[variety]\n{variety}\n"
                f"[hypersurfaces]\nH0 : x0\n{hypersurface}\n")
        with pytest.raises(ParseError) as err:
            parse_arrangement(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert text.splitlines()[line - 1][column - 1] == "$"
