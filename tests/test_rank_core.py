"""Rank oracle validation, filtration, weights, and greedy selection."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nochka import rank_core
from nochka.errors import ParseError, VerificationError
from nochka.linalg import Echelon, primitive
from nochka.rank_core import (AXIOM_NAMES, AxiomCheck, Filtration, RankOracle,
                              ValidationReport, WeightAssignment, _exact_header,
                              _popcounts, _read_canonical, _set_str, build_filtration,
                              format_oracle, greedy_bases, greedy_select, indices_of, linear_matroid_oracle, mask_of,
                              nochka_weights, parse_oracle, rho, subset_labels,
                              validate_rank_oracle, verify_weight_conditions)

FIXTURE_VECTORS = [(1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1),
                   (1, 1, 1), (1, 2, 3)]


@pytest.fixture(scope="module")
def fixture_oracle() -> RankOracle:
    return linear_matroid_oracle(FIXTURE_VECTORS, 4)


def free_oracle(q: int, n: int, N: int) -> RankOracle:
    table = tuple(min(mask.bit_count(), n + 1) for mask in range(1 << q))
    return RankOracle(q, n, N, table)


class TestValidation:
    def test_fixture_oracle_passes(self, fixture_oracle):
        report = validate_rank_oracle(fixture_oracle)
        assert report.ok, report.summary()

    def test_fixture_oracle_values(self, fixture_oracle):
        assert fixture_oracle.c([1, 2, 3]) == 1
        for mask in range(1 << 7):
            if mask.bit_count() == 5:
                assert fixture_oracle.c_mask(mask) == 3

    def test_spanning_failure_with_witness(self, fixture_oracle):
        # with N = 3 the rank-2 subset {1,2,3,4} of size N+1 violates spanning
        bad = RankOracle(7, 2, 3, fixture_oracle.table)
        report = validate_rank_oracle(bad)
        failing = {c.axiom for c in report.failures()}
        assert "spanning" in failing
        witness = next(c.witness for c in report.checks if c.axiom == "spanning")
        assert witness is not None

    def test_free_oracle_passes(self):
        report = validate_rank_oracle(free_oracle(3, 2, 2))
        assert report.ok

    def test_monotone_violation(self):
        table = list(free_oracle(3, 2, 2).table)
        table[0b111] = 1  # below c of its subsets
        report = validate_rank_oracle(RankOracle(3, 2, 2, tuple(table)))
        assert not report.ok
        assert {c.axiom for c in report.failures()} & {"monotone", "spanning"}

    def test_loop_rejected(self):
        # an element never raising the rank breaks the singleton axiom
        vec = free_oracle(3, 2, 2).table
        table = []
        for mask in range(8):
            table.append(vec[mask & 0b011])  # index 3 is invisible
        report = validate_rank_oracle(RankOracle(3, 2, 2, tuple(table)))
        assert not report.ok
        assert "nonzero-singletons" in {c.axiom for c in report.failures()}

    def test_value_range_rejected_at_construction(self):
        with pytest.raises(ValueError):
            RankOracle(2, 1, 1, (0, 1, 1, 5))

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            RankOracle(0, 1, 1, ())

    def test_exchange_brute_force_agreement(self):
        # closure-based check agrees with the direct subset-pair statement
        import random
        rng = random.Random(7)
        for _ in range(40):
            q = rng.randint(2, 5)
            dim = rng.randint(2, 4)
            vectors = []
            while len(vectors) < q:
                v = tuple(rng.randint(-2, 2) for _ in range(dim))
                if any(v):
                    vectors.append(v)
            oracle = linear_matroid_oracle(vectors, dim - 1)
            report = validate_rank_oracle(oracle)
            exchange_ok = next(c.ok for c in report.checks if c.axiom == "exchange")
            brute = True
            for rmask in range(1 << q):
                target = oracle.c_mask(rmask)
                for kbits in range(1 << q):
                    if kbits & ~rmask:
                        continue
                    if oracle.c_mask(kbits) != kbits.bit_count():
                        continue
                    found = any(
                        (kbits & ~mid) == 0 and (mid & ~rmask) == 0
                        and oracle.c_mask(mid) == mid.bit_count() == target
                        for mid in range(1 << q))
                    if not found:
                        brute = False
                        break
                if not brute:
                    break
            assert exchange_ok == brute


class TestOracleTable:
    def test_tuple_list_and_int8_array_give_equal_oracles(self):
        values = [min(mask.bit_count(), 3) for mask in range(1 << 3)]
        oracles = [RankOracle(3, 2, 2, tuple(values)), RankOracle(3, 2, 2, values),
                   RankOracle(3, 2, 2, np.array(values, dtype=np.int8))]
        assert oracles[0] == oracles[1] == oracles[2]
        assert oracles[0] != RankOracle(3, 2, 3, values)
        assert all(type(o.c_mask(7)) is int and type(o.c([1, 2])) is int for o in oracles)
        assert parse_oracle(format_oracle(oracles[2])) == oracles[0]

    @pytest.mark.parametrize("table, message", [
        ((0, 1, 1.5, 2), "c{2} = 1.5 outside 0..2"),
        ((0, 1, "3", 2), "c{2} = '3' outside 0..2"),
        ([0, 1, 1, 3], "c{1,2} = 3 outside 0..2"),
        (np.array([0, 1, 1, 3]), "c{1,2} = 3 outside 0..2"),
        ((0, 1, 10**30, 2), f"c{{2}} = {10**30} outside 0..2"),
        ((0, 1, 1), "table must have 2^2 entries, got 3"),
    ])
    def test_bad_tables_keep_their_messages(self, table, message):
        with pytest.raises(ValueError) as err:
            RankOracle(2, 1, 1, table)
        assert str(err.value) == message

    @pytest.mark.parametrize("q", [1, 5, 12])
    def test_popcounts_are_bit_counts(self, q):
        pc = _popcounts(q)
        assert pc.dtype == np.int64
        assert pc.tolist() == [mask.bit_count() for mask in range(1 << q)]

    def test_table_is_read_only(self):
        oracle = free_oracle(3, 2, 2)
        with pytest.raises((TypeError, ValueError)):
            oracle.table[0] = 1
        assert oracle.c_mask(0) == 0


class TestRho:
    def test_fixture_value(self, fixture_oracle):
        assert rho(fixture_oracle, [], [1, 2, 3]) == Fraction(1, 3)

    def test_empty_base_is_density(self, fixture_oracle):
        for mask in range(1, 1 << 7):
            subset = indices_of(mask)
            assert rho(fixture_oracle, [], subset) == Fraction(
                fixture_oracle.c_mask(mask), mask.bit_count())

    def test_zero_numerator(self, fixture_oracle):
        assert rho(fixture_oracle, [1], [1, 2]) == 0

    def test_rejects_non_subset(self, fixture_oracle):
        with pytest.raises(ValueError):
            rho(fixture_oracle, [1, 4], [1, 2, 3])
        with pytest.raises(ValueError):
            rho(fixture_oracle, [1, 2], [1, 2])


class TestFiltration:
    def test_fixture_chain(self, fixture_oracle):
        f = build_filtration(fixture_oracle)
        assert f.subsets == ((1, 2, 3),)
        assert f.ratios == (Fraction(1, 3),)
        assert f.theta == Fraction(1, 2)

    def test_general_position_chain_is_empty(self):
        f = build_filtration(free_oracle(4, 2, 2))
        assert f.s == 0
        assert f.theta == 1

    def test_uniform_tight_q(self):
        # q = 2N-n+1 forces the terminal ratio immediately
        f = build_filtration(free_oracle(4, 1, 2))
        assert f.s == 0
        assert f.theta == Fraction(2, 4)

    def test_parameter_violation(self):
        with pytest.raises(ValueError):
            build_filtration(free_oracle(3, 1, 2))  # q < 2N-n+1 = 4

    def test_invalid_oracle_rejected(self):
        table = list(free_oracle(3, 2, 2).table)
        table[0b111] = 1
        with pytest.raises(VerificationError):
            build_filtration(RankOracle(3, 2, 2, tuple(table)))

    def test_deterministic(self, fixture_oracle):
        a = build_filtration(fixture_oracle)
        b = build_filtration(fixture_oracle)
        assert a == b

    def test_two_link_chain(self):
        # collinear triple inside a coplanar 5-set, rest on the moment curve:
        # the chain must climb twice before hitting the terminal threshold
        vectors = [(1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0), (3, 0, 0, 0, 0, 0),
                   (0, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0)]
        vectors += [tuple(t ** k for k in range(6)) for t in range(1, 8)]
        oracle = linear_matroid_oracle(vectors, 8)
        assert validate_rank_oracle(oracle).ok
        f = build_filtration(oracle)
        assert f.subsets == ((1, 2, 3), (1, 2, 3, 4, 5))
        assert f.ratios == (Fraction(1, 3), Fraction(1, 2))
        assert f.theta == Fraction(4, 7)
        w = nochka_weights(oracle)
        assert w.omega == (Fraction(1, 3),) * 3 + (Fraction(1, 2),) * 2 + (Fraction(4, 7),) * 7
        assert sum(w.omega) == 6


class TestWeights:
    def test_fixture_weights(self, fixture_oracle):
        w = nochka_weights(fixture_oracle)
        assert w.omega == (Fraction(1, 3),) * 3 + (Fraction(1, 2),) * 4
        assert w.theta == Fraction(1, 2)
        assert sum(w.omega) == 3

    def test_sum_identity(self, fixture_oracle):
        w = nochka_weights(fixture_oracle)
        q, n, N = 7, 2, 4
        assert sum(w.omega) == w.theta * (q - 2 * N + n - 1) + n + 1

    def test_general_position_all_ones(self):
        w = nochka_weights(free_oracle(5, 2, 2))
        assert all(x == 1 for x in w.omega)
        assert w.theta == 1

    def test_uniform_weights_at_tight_q(self):
        w = nochka_weights(free_oracle(4, 1, 2))
        assert all(x == Fraction(1, 2) for x in w.omega)

    def test_constructed_weights_verify(self, fixture_oracle):
        w = nochka_weights(fixture_oracle)
        assert verify_weight_conditions(fixture_oracle, w).ok

    def test_all_ones_fails_subset_cap(self, fixture_oracle):
        from nochka.rank_core import WeightAssignment
        w = nochka_weights(fixture_oracle)
        bad = WeightAssignment((Fraction(1),) * 7, Fraction(1), w.filtration)
        report = verify_weight_conditions(fixture_oracle, bad)
        assert not report.ok
        witness = next(c.witness for c in report.checks if c.axiom == "subset-cap")
        assert witness.startswith("R={1,2}")

    def test_uniform_half_fails_at_first_triple(self, fixture_oracle):
        from nochka.rank_core import WeightAssignment
        w = nochka_weights(fixture_oracle)
        bad = WeightAssignment((Fraction(1, 2),) * 7, Fraction(1, 2), w.filtration)
        report = verify_weight_conditions(fixture_oracle, bad)
        assert not report.ok
        witness = next(c.witness for c in report.checks if c.axiom == "subset-cap")
        assert witness.startswith("R={1,2,3}")


class TestGreedy:
    def test_fixture_selection(self, fixture_oracle):
        w = nochka_weights(fixture_oracle)
        chosen = greedy_select(fixture_oracle, w, [1, 2, 3, 4], [4, 3, 2, 1, 0, 0, 0])
        assert chosen == (1, 4)
        lhs = Fraction(1, 3) * (4 + 3 + 2) + Fraction(1, 2) * 1
        assert lhs == Fraction(7, 2) <= 5

    def test_constant_costs_reduce_to_subset_cap(self, fixture_oracle):
        w = nochka_weights(fixture_oracle)
        for subset in ([1, 2], [1, 4, 5], [2, 3, 6, 7]):
            chosen = greedy_select(fixture_oracle, w, subset, [1] * 7)
            assert sum(w.omega[j - 1] for j in subset) <= len(chosen)

    def test_singleton(self, fixture_oracle):
        w = nochka_weights(fixture_oracle)
        assert greedy_select(fixture_oracle, w, [5], [0, 0, 0, 0, 7, 0, 0]) == (5,)

    def test_rejects_empty_or_large(self, fixture_oracle):
        w = nochka_weights(fixture_oracle)
        with pytest.raises(ValueError):
            greedy_select(fixture_oracle, w, [], [0] * 7)
        with pytest.raises(ValueError):
            greedy_select(fixture_oracle, w, [1, 2, 3, 4, 5, 6], [0] * 7)

    def test_rejects_negative_costs(self, fixture_oracle):
        w = nochka_weights(fixture_oracle)
        with pytest.raises(ValueError):
            greedy_select(fixture_oracle, w, [1, 2], [-1, 0, 0, 0, 0, 0, 0])


class TestLinearMatroid:
    def test_standard_basis_free(self):
        oracle = linear_matroid_oracle([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2)
        assert oracle.table.tolist() == free_oracle(3, 2, 2).table.tolist()

    def test_collinear_fails_spanning(self):
        oracle = linear_matroid_oracle([(1, 0), (2, 0), (3, 0), (1, 1)], 2)
        report = validate_rank_oracle(oracle)
        assert not report.ok
        assert "spanning" in {c.axiom for c in report.failures()}

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            linear_matroid_oracle([(1, 0), (0, 0)], 1)

    def test_rejects_mixed_dimension(self):
        with pytest.raises(ValueError):
            linear_matroid_oracle([(1, 0), (0, 1, 0)], 1)

    def test_rational_entries(self):
        oracle = linear_matroid_oracle([(Fraction(1, 2), 0), (1, 0), (0, Fraction(2, 3))], 1)
        assert oracle.c([1, 2]) == 1
        assert oracle.c([1, 3]) == 2


def _reference_matroid_table(vectors) -> tuple[int, ...]:
    """The rank table as it was built, one Echelon copy and insert per subset."""
    q = len(vectors)
    ints = [primitive([Fraction(x) for x in v]) for v in vectors]
    table = [0] * (1 << q)
    stack = [(Echelon(), 0, 0)]
    while stack:
        base, mask, j = stack.pop()
        if j == q:
            continue
        stack.append((base, mask, j + 1))
        ech = Echelon()
        ech.width, ech.basis = base.width, list(base.basis)
        ech.insert(ints[j])
        table[mask | 1 << j] = ech.rank
        stack.append((ech, mask | 1 << j, j + 1))
    return tuple(table)


def _vector_family(rng: random.Random, q: int, dim: int) -> list[tuple[int, ...]]:
    """Nonzero integer vectors, some repeating an earlier one up to scale and
    some combining two earlier ones."""
    vectors: list[tuple[int, ...]] = []
    while len(vectors) < q:
        draw = rng.random()
        if vectors and draw < 0.2:
            scale = rng.choice((1, -2, 3))
            v = tuple(scale * x for x in rng.choice(vectors))
        elif len(vectors) >= 2 and draw < 0.45:
            a, b = rng.sample(vectors, 2)
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            v = tuple(s * x + t * y for x, y in zip(a, b))
        else:
            v = tuple(rng.randint(-3, 3) for _ in range(dim))
        if any(v):
            vectors.append(v)
    return vectors


class TestLinearMatroidReference:
    def test_tables_match_the_subset_walk(self):
        rng = random.Random(3)
        for _ in range(120):
            q, dim = rng.randint(1, 14), rng.randint(2, 6)
            vectors = _vector_family(rng, q, dim)
            for N in sorted({dim - 1, rng.randint(dim - 1, dim + 3), max(q, dim - 1)}):
                oracle = linear_matroid_oracle(vectors, N)
                assert (oracle.q, oracle.n, oracle.N) == (q, dim - 1, N)
                assert oracle.table.tolist() == list(_reference_matroid_table(vectors)), vectors

    def test_twenty_vectors_in_three_dimensions(self):
        vectors = _vector_family(random.Random(20), 20, 3)
        oracle = linear_matroid_oracle(vectors, 19)
        assert oracle.table.tolist() == list(_reference_matroid_table(vectors))
        assert set(oracle.table) == {0, 1, 2, 3}

    def test_sampled_subsets_match_sympy_rank(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(29)
        for _ in range(12):
            q, dim = rng.randint(4, 12), rng.randint(2, 6)
            vectors = _vector_family(rng, q, dim)
            oracle = linear_matroid_oracle(vectors, max(q, dim - 1))
            for mask in rng.sample(range(1, 1 << q), min(25, (1 << q) - 1)):
                rows = [vectors[j] for j in range(q) if mask >> j & 1]
                assert oracle.c_mask(mask) == sympy.Matrix(rows).rank(), (vectors, mask)


def _best_basis_sum(table: np.ndarray, weights) -> float:
    """The largest weight sum over the bases of the rank table, by trying
    every mask."""
    q = len(weights)
    pc = _popcounts(q)
    bases = np.flatnonzero((table == pc) & (table == table[-1]))
    return max(sum(weights[j - 1] for j in indices_of(int(m))) for m in bases)


class TestGreedyBases:
    """`greedy_bases` on rank tables of families with loops (zero vectors),
    parallel elements and three concurrent lines, against every basis."""

    FAMILIES = [
        [(0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 1, 1), (1, 1, 1)],
        [(1, 2, 0), (2, 4, 0), (-1, -2, 0), (0, 0, 1), (1, 0, 1), (0, 0, 3)],
        [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, -1, 0), (2, 2, 0)],
        [(1, 0), (0, 0), (2, 0)],
        [(0, 0, 0, 0)],
    ]

    @staticmethod
    def families():
        yield from TestGreedyBases.FAMILIES
        rng = random.Random(11)
        for _ in range(40):
            q, dim = rng.randint(1, 9), rng.randint(2, 4)
            vectors = _vector_family(rng, q, dim)
            for _ in range(rng.randint(0, 2)):  # loops
                vectors.insert(rng.randint(0, len(vectors)), (0,) * dim)
            yield vectors

    def test_matches_the_best_basis(self):
        rng = random.Random(5)
        for vectors in self.families():
            q = len(vectors)
            table = np.array(_reference_matroid_table(vectors), dtype=np.int64)
            # integer-valued weights: every sum is exact, and ties are common
            weights = np.array([[rng.choice([math.inf] + [float(k) for k in range(4)] * 3)
                                 for _ in range(q)] for _ in range(25)])
            masks = greedy_bases(table, np.argsort(-weights, axis=1, kind="stable").T)
            assert masks.shape == (25,)
            for w, mask in zip(weights.tolist(), masks.tolist()):
                assert table[mask] == mask.bit_count() == table[-1], (vectors, w)
                taken = sum(w[j - 1] for j in indices_of(mask))
                assert taken == _best_basis_sum(table, w), (vectors, w)

    def test_takes_only_the_listed_elements(self):
        table = np.array(_reference_matroid_table(self.FAMILIES[2]), dtype=np.int64)
        # elements 5, 3, 1, 2 of the plane x2 = 0: 5 and 3 span it, and 4,
        # off the plane, is not listed
        order = np.array([[4, 2, 0, 1]]).T
        assert greedy_bases(table, order).tolist() == [0b10100]
        assert greedy_bases(table, np.zeros((0, 3), dtype=np.int64)).tolist() == [0, 0, 0]


class TestOracleFormat:
    def test_round_trip(self, fixture_oracle):
        text = format_oracle(fixture_oracle)
        again = parse_oracle(text)
        assert again == fixture_oracle

    def test_empty_subset_dash(self, fixture_oracle):
        text = format_oracle(fixture_oracle)
        assert text.splitlines()[1] == "- : 0"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_oracle("")
        with pytest.raises(ParseError):
            parse_oracle("2 1 1\n- : 0\n1 : 1\n")  # incomplete
        with pytest.raises(ParseError):
            parse_oracle("2 1 1\n- : 0\n1 : 1\n2 : 1\n1,2 : x\n")

    def test_non_canonical_indices(self, fixture_oracle):
        lines = format_oracle(fixture_oracle).splitlines()
        assert lines[4] == "1,2 : 1"
        lines[4] = "01, 2 : 1"
        assert parse_oracle("\n".join(lines)) == fixture_oracle
        unordered = "distinct indices in increasing order"
        for token, message in (("0", "index 0 outside 1..7"), ("8", "index 8 outside 1..7"),
                               ("1,x", "invalid literal"), ("2,1", unordered),
                               ("1,1", unordered), ("1,2,2", unordered), ("3,1,2", unordered),
                               ("02, 1", unordered), ("1, 01", unordered)):
            lines[4] = f"{token} : 1"
            with pytest.raises(ParseError, match=message) as err:
                parse_oracle("\n".join(lines))
            assert err.value.line == 5


def _reference_format(oracle: RankOracle) -> str:
    """The oracle text as it was written one subset at a time."""
    lines = [f"{oracle.q} {oracle.n} {oracle.N}"]
    for mask in range(1 << oracle.q):
        subset = "-" if mask == 0 else ",".join(map(str, indices_of(mask)))
        lines.append(f"{subset} : {oracle.table[mask]}")
    return "\n".join(lines) + "\n"


@st.composite
def random_tables(draw, ns=st.one_of(st.integers(1, 4), st.just(150))) -> RankOracle:
    q = draw(st.integers(1, 8))
    n = draw(ns)  # n = 150: c = 151 is past int8
    N = draw(st.integers(n, n + 3))
    table = draw(st.lists(st.integers(0, n + 1), min_size=1 << q, max_size=1 << q))
    return RankOracle(q, n, N, tuple(table))


SMALL = linear_matroid_oracle([(1, 0), (0, 1), (1, 1)], 2)


def _with_line(i: int, line: str) -> str:
    lines = format_oracle(SMALL).splitlines()
    lines[i] = line
    return "\n".join(lines) + "\n"


# every malformed text with its message and line number, as `parse_oracle`
# reports them, whether the lines before the bad one come in
# `format_oracle`'s order or not
MALFORMED = [
    ("", "empty oracle file", None),
    ("\n", "header must be `q n N`", 1),
    ("3 1\n", "header must be `q n N`", 1),
    ("3 1 x\n", "header must hold three integers", 1),
    ("0 1 1\n", "q out of range 1..20", 1),
    ("21 1 1\n", "q out of range 1..20", 1),
    ("2 1 1\n- : 0\n1 : 1\n", "expected 4 subset lines, got 2", None),
    ("2 1 1\n- : 0\n1 : 1\n2 : 1\n1,2 : x\n", "bad c-value 'x'", 5),
    (_with_line(4, "1,2 : x"), "bad c-value 'x'", 5),
    (_with_line(4, "1,2 : 1.0"), "bad c-value '1.0'", 5),
    (_with_line(4, "1,2 1"), "expected `subset : c-value`", 5),
    (_with_line(4, "1,2 : 1 : 2"), "bad c-value '1 : 2'", 5),
    (_with_line(4, "1,4 : 1"), "index 4 outside 1..3", 5),
    (_with_line(4, "2,1 : 1"), "subset 2,1 must list distinct indices in increasing order", 5),
    (_with_line(4, "1,1 : 1"), "subset 1,1 must list distinct indices in increasing order", 5),
    (_with_line(4, "1 : 1"), "duplicate subset 1", 5),
    (_with_line(3, "3 : 1"), "duplicate subset 3", 6),
    (_with_line(1, "- :"), "bad c-value ''", 2),
    (_with_line(1, "-"), "expected `subset : c-value`", 2),
    (format_oracle(SMALL) + "1 : 1\n", "duplicate subset 1", 10),
    (_with_line(8, "1,2,3 : -1"), "c{1,2,3} = -1 outside 0..2", None),
]

# malformed texts in `format_oracle`'s exact layout with one-digit values:
# the canonical read reaches them, and only the constructor refuses them
CANONICAL_MALFORMED = [
    (_with_line(8, "1,2,3 : 4"), "c{1,2,3} = 4 outside 0..2", None),
    (_with_line(1, "- : 3"), "c{} = 3 outside 0..2", None),
    (_with_line(0, "3 1 0"), "N must be >= n, got N=0 < n=1", None),
]
MALFORMED += CANONICAL_MALFORMED


def _canonical_read(text: str) -> RankOracle | None:
    """`_read_canonical` handed the header and labels `parse_oracle` hands
    it, or None when the text has no exact header."""
    header = _exact_header(text)
    return None if header is None else _read_canonical(text, header, subset_labels(header[0]))


class TestCanonicalOracleText:
    def test_labels_by_mask(self):
        assert subset_labels(1) == ["-", "1"]
        assert subset_labels(3) == ["-", "1", "2", "1,2", "3", "1,3", "2,3", "1,2,3"]
        labels = subset_labels(8)
        assert labels[1:] == [",".join(map(str, indices_of(m))) for m in range(1, 1 << 8)]

    @given(random_tables())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, oracle):
        assert parse_oracle(format_oracle(oracle)) == oracle

    @given(random_tables())
    @settings(max_examples=60, deadline=None)
    def test_format_matches_per_subset_writer(self, oracle):
        assert format_oracle(oracle) == _reference_format(oracle)

    @given(random_tables(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_non_canonical_layouts_read_the_same(self, oracle, rng):
        header, *body = format_oracle(oracle).splitlines()
        shuffled = rng.sample(body, len(body))
        assert parse_oracle("\n".join([header, *shuffled])) == oracle
        spaced = [line.replace(" : ", rng.choice([":", "  :  ", "\t: "])) for line in body]
        assert parse_oracle("\n".join([header, *spaced])) == oracle
        padded = [f"  {line}  " for line in body]
        assert parse_oracle("\n".join([header, *padded])) == oracle
        blanks = [header, ""] + [x for line in body for x in (line, "")]
        assert parse_oracle("\n".join(blanks)) == oracle
        first_label, _, first_value = body[0].partition(" : ")
        arabic = first_value.translate({ord("0") + d: chr(0x660 + d) for d in range(10)})
        variants = [
            "\r\n".join([header, *body]) + "\r\n",
            "\n".join([header, *body]) + "\n\n",
            "\n".join([header, f"{first_label} : 0{first_value}", *body[1:]]) + "\n",
            "\n".join([header.replace(" ", "  ", 1), *body]) + "\n",
            "\n".join([header, f"{first_label} : {arabic}", *body[1:]]) + "\n",
        ]
        for text in variants:
            assert _canonical_read(text) is None
            assert parse_oracle(text) == oracle

    @given(random_tables(st.integers(1, 8)))
    @settings(max_examples=60, deadline=None)
    def test_one_digit_tables_take_the_canonical_read(self, oracle):
        assert _canonical_read(format_oracle(oracle)) == oracle

    def test_parse_oracle_reads_canonical_text_without_the_per_line_reader(self, monkeypatch):
        def per_line(text, labels):
            raise AssertionError("canonical text reached the per-line reader")
        monkeypatch.setattr(rank_core, "_read_lines", per_line)
        assert parse_oracle(format_oracle(SMALL)) == SMALL

    @given(random_tables(st.just(150)))
    @settings(max_examples=30, deadline=None)
    def test_multi_digit_tables_take_the_per_line_reader(self, oracle):
        assume(oracle.table.max() > 9)
        text = format_oracle(oracle)
        assert _canonical_read(text) is None
        assert parse_oracle(text) == oracle

    @given(random_tables(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_moved_line_and_unpadded_label_read_the_same(self, oracle, data):
        header, *body = format_oracle(oracle).splitlines()
        if oracle.q >= 2:
            body[3] = "01, 2" + body[3].removeprefix("1,2")
        i = data.draw(st.integers(0, len(body) - 1))
        j = data.draw(st.integers(0, len(body) - 1))
        body.insert(j, body.pop(i))
        assert parse_oracle("\n".join([header, *body])) == oracle

    def test_malformed_line_after_a_move_keeps_its_line(self):
        lines = format_oracle(SMALL).splitlines()
        lines.insert(1, lines.pop(5))  # `3 : 1` first
        assert lines[5] == "1,2 : 2"
        lines[5] = "01, 2 : 2"
        assert parse_oracle("\n".join(lines)) == SMALL
        lines[7] = "2,3 : x"
        with pytest.raises(ParseError) as err:
            parse_oracle("\n".join(lines))
        assert (str(err.value), err.value.line) == ("bad c-value 'x' (line 8)", 8)
        lines[7] = "3,2 : 2"
        with pytest.raises(ParseError) as err:
            parse_oracle("\n".join(lines))
        assert err.value.line == 8

    @pytest.mark.parametrize("text, message, line", MALFORMED)
    def test_malformed_text_keeps_its_error(self, text, message, line):
        with pytest.raises(ParseError) as err:
            parse_oracle(text)
        assert err.value.line == line
        suffix = "" if line is None else f" (line {line})"
        assert str(err.value) == message + suffix

    @pytest.mark.parametrize("text, message, line", MALFORMED)
    def test_canonical_read_raises_only_the_constructor_error(self, text, message, line):
        if (text, message, line) in CANONICAL_MALFORMED:
            with pytest.raises(ParseError) as err:
                _canonical_read(text)
            assert (str(err.value), err.value.line) == (message, None)
        else:
            assert _canonical_read(text) is None


def _reference_validate(oracle: RankOracle) -> ValidationReport:
    """The axiom checks as they were written, one Python pass per pair of
    elements for submodularity and per independent set for exchange."""
    q, n, N = oracle.q, oracle.n, oracle.N
    t = oracle.table
    pc = _popcounts(q)
    masks = np.arange(1 << q, dtype=np.int64)
    checks = []

    def add(axiom, witness):
        checks.append(AxiomCheck(axiom, witness is None, witness))

    add("empty-set", None if t[0] == 0 else f"c({{}}) = {int(t[0])}")
    singleton_w = None
    for b in range(q):
        if t[1 << b] != 1:
            singleton_w = f"c{_set_str(1 << b)} = {int(t[1 << b])} != 1"
            break
    add("nonzero-singletons", singleton_w)
    mono_w = unit_w = None
    for b in range(q):
        bit = 1 << b
        sub = masks[(masks & bit) == 0]
        d = t[sub | bit] - t[sub]
        if mono_w is None:
            bad = np.nonzero(d < 0)[0]
            if bad.size:
                m = int(sub[bad[0]])
                mono_w = f"c{_set_str(m | bit)} < c{_set_str(m)}"
        if unit_w is None:
            bad = np.nonzero(d > 1)[0]
            if bad.size:
                m = int(sub[bad[0]])
                unit_w = f"c{_set_str(m | bit)} - c{_set_str(m)} = {int(d[bad[0]])}"
    add("monotone", mono_w)
    add("unit-increment", unit_w)
    bad = np.nonzero(t > np.minimum(pc, n + 1))[0]
    add("capped", None if not bad.size else
        f"c{_set_str(int(bad[0]))} = {int(t[bad[0]])} > min({int(pc[bad[0]])},{n + 1})")
    big = np.nonzero((pc >= N + 1) & (t != n + 1))[0]
    add("spanning", None if not big.size else
        f"c{_set_str(int(big[0]))} = {int(t[big[0]])} != {n + 1}"
        f" with #S = {int(pc[big[0]])} >= N+1")

    def submodular_witness():
        for b1 in range(q):
            for b2 in range(b1 + 1, q):
                bits = (1 << b1) | (1 << b2)
                base = masks[(masks & bits) == 0]
                lhs = t[base | bits] + t[base]
                rhs = t[base | (1 << b1)] + t[base | (1 << b2)]
                bad = np.nonzero(lhs > rhs)[0]
                if bad.size:
                    m = int(base[bad[0]])
                    return f"R1={_set_str(m | (1 << b1))}, R2={_set_str(m | (1 << b2))}"
        return None

    add("submodular", submodular_witness())
    exch_w = None
    for m in np.nonzero(t == pc)[0]:
        m = int(m)
        cm = int(t[m])
        cl = m
        for b in range(q):
            bit = 1 << b
            if not m & bit and t[m | bit] == cm:
                cl |= bit
        if int(t[cl]) != cm:
            exch_w = f"K={_set_str(m)}, R={_set_str(cl)}"
            break
    add("exchange", exch_w)
    return ValidationReport(all(c.ok for c in checks), tuple(checks))


def _planted_oracles(seed: int) -> list[RankOracle]:
    """A valid linear matroid oracle and copies with a few values replaced."""
    rng = random.Random(seed)
    q = rng.randint(1, 8)
    n = rng.randint(1, 3)
    N = rng.randint(n, max(n, q))
    vectors = []
    while len(vectors) < q:
        v = tuple(rng.randint(-2, 2) for _ in range(n + 1))
        if any(v):
            vectors.append(v)
    base = linear_matroid_oracle(vectors, N)
    out = [base]
    for _ in range(4):
        table = list(base.table)
        for _ in range(rng.randint(1, 3)):
            table[rng.randrange(1 << q)] = rng.randint(0, n + 1)
        out.append(RankOracle(q, n, N, tuple(table)))
    return out


class TestValidationDifferential:
    def test_reports_match_the_per_subset_checks(self):
        failed = set()
        for seed in range(150):
            for oracle in _planted_oracles(seed):
                report = validate_rank_oracle(oracle)
                assert report.as_dict() == _reference_validate(oracle).as_dict(), oracle
                failed.update(c.axiom for c in report.failures())
        # every axiom was planted to fail somewhere
        assert failed == set(AXIOM_NAMES)

    @given(random_tables())
    @settings(max_examples=60, deadline=None)
    def test_reports_match_on_arbitrary_tables(self, oracle):
        assert validate_rank_oracle(oracle).as_dict() == _reference_validate(oracle).as_dict()


def _reference_subset_cap(oracle: RankOracle, omega) -> str | None:
    """The subset-cap witness as it was found, one Python step per subset."""
    denom = math.lcm(*(x.denominator for x in omega))
    w_int = [int(x * denom) for x in omega]
    sums = [0] * (1 << oracle.q)
    for mask in range(1, 1 << oracle.q):
        low_bit = mask & -mask
        sums[mask] = sums[mask ^ low_bit] + w_int[low_bit.bit_length() - 1]
        if mask.bit_count() <= oracle.N + 1 and sums[mask] > oracle.c_mask(mask) * denom:
            return (f"R={_set_str(mask)}: sum = {Fraction(sums[mask], denom)}"
                    f" > c(R) = {oracle.c_mask(mask)}")
    return None


class TestSubsetCapDifferential:
    @given(random_tables(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_witness_matches_the_per_subset_sums(self, oracle, data):
        omega = tuple(data.draw(st.lists(
            st.fractions(min_value=0, max_value=2, max_denominator=10**12),
            min_size=oracle.q, max_size=oracle.q)))
        weights = WeightAssignment(omega, Fraction(1), Filtration((), (), Fraction(1)))
        report = verify_weight_conditions(oracle, weights)
        cap = next(c for c in report.checks if c.axiom == "subset-cap")
        assert cap.witness == _reference_subset_cap(oracle, omega)

    PRIMES = (2 ** 31 - 1, 2 ** 31 - 19, 2 ** 31 - 61, 2 ** 31 + 11, 2 ** 31 + 45,
              2 ** 31 + 65, 2 ** 31 + 95)

    @pytest.mark.parametrize("omega, witness", [
        # the lcm of the denominators is past 2^63, and so are the caps c(R) * denom
        (tuple(Fraction(p - 1, p) for p in PRIMES), "R={1,2}"),
        (tuple(Fraction(1, p) for p in PRIMES), None),
        # whole weights whose sums pass 2^63: in int64, -3 * 2^62 would wrap
        # to 2^62 and make {1,2,3} a false witness
        ((Fraction(-2 ** 62),) * 7, None),
    ], ids=["caps-past-int64", "caps-past-int64-ok", "sums-past-int64"])
    def test_sums_past_int64_take_python_ints(self, fixture_oracle, omega, witness):
        denom = math.lcm(*(x.denominator for x in omega))
        assert max((fixture_oracle.n + 1) * denom,
                   sum(abs(x * denom) for x in omega)) >= 2 ** 63
        weights = WeightAssignment(omega, Fraction(1), Filtration((), (), Fraction(1)))
        report = verify_weight_conditions(fixture_oracle, weights)
        cap = next(c for c in report.checks if c.axiom == "subset-cap")
        assert cap.witness == _reference_subset_cap(fixture_oracle, omega)
        assert (cap.witness or "").startswith(witness or "")
        assert cap.ok == (witness is None)


def _random_matroid(draw) -> RankOracle:
    n = draw(st.integers(1, 3))
    q = draw(st.integers(2, 7))
    vectors = draw(st.lists(
        st.tuples(*[st.integers(-3, 3) for _ in range(n + 1)]).filter(any),
        min_size=q, max_size=q))
    upper = (q + n - 1) // 2  # largest N with q >= 2N-n+1
    assume(upper >= n)
    N = draw(st.integers(n, upper))
    return linear_matroid_oracle(vectors, N)


@st.composite
def matroid_oracles(draw):
    return _random_matroid(draw)


def _reference_greedy_select(oracle: RankOracle, subset, costs) -> tuple[int, ...]:
    """`greedy_select`'s picks as its freeze loop made them: after each
    pick, the members that no longer raise the rank are frozen, and the
    next pick is the best member, by descending cost then index, not frozen."""
    members = tuple(sorted(set(subset)))
    order = sorted(members, key=lambda j: (-costs[j - 1], j))
    chosen: list[int] = []
    chosen_mask = frozen = 0
    for level in range(1, oracle.c(members) + 1):
        pick = next(j for j in order if not frozen >> (j - 1) & 1)
        chosen.append(pick)
        chosen_mask |= 1 << (pick - 1)
        frozen = 0
        for k in members:
            if oracle.c_mask(chosen_mask | 1 << (k - 1)) == level:
                frozen |= 1 << (k - 1)
    return tuple(chosen)


class TestProperties:
    @given(matroid_oracles())
    @settings(max_examples=60, deadline=None)
    def test_valid_oracles_always_get_verified_weights(self, oracle):
        report = validate_rank_oracle(oracle)
        assume(report.ok)
        weights = nochka_weights(oracle)
        assert verify_weight_conditions(oracle, weights).ok

    @given(matroid_oracles(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_greedy_postconditions_and_scaling(self, oracle, data):
        assume(validate_rank_oracle(oracle).ok)
        weights = nochka_weights(oracle)
        size = data.draw(st.integers(1, min(oracle.q, oracle.N + 1)))
        subset = data.draw(st.permutations(range(1, oracle.q + 1)))[:size]
        costs = data.draw(st.lists(
            st.fractions(min_value=0, max_value=9, max_denominator=8),
            min_size=oracle.q, max_size=oracle.q))
        chosen = greedy_select(oracle, weights, subset, costs)
        assert oracle.c(chosen) == len(chosen) == oracle.c(subset)
        # positive scaling leaves the selection unchanged
        scale = data.draw(st.fractions(min_value=Fraction(1, 5), max_value=7,
                                       max_denominator=6))
        assert scale > 0
        rescaled = greedy_select(oracle, weights, subset, [c * scale for c in costs])
        assert rescaled == chosen

    @given(matroid_oracles(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_greedy_matches_the_freeze_loop(self, oracle, data):
        assume(validate_rank_oracle(oracle).ok)
        weights = nochka_weights(oracle)
        size = data.draw(st.integers(1, min(oracle.q, oracle.N + 1)))
        subset = data.draw(st.permutations(range(1, oracle.q + 1)))[:size]
        # costs from three values: most selections break ties by index
        costs = data.draw(st.lists(st.integers(0, 2), min_size=oracle.q, max_size=oracle.q))
        assert greedy_select(oracle, weights, subset, costs) == \
            _reference_greedy_select(oracle, subset, costs)

    @given(matroid_oracles())
    @settings(max_examples=40, deadline=None)
    def test_filtration_reruns_identical(self, oracle):
        assume(validate_rank_oracle(oracle).ok)
        assert build_filtration(oracle) == build_filtration(oracle)
