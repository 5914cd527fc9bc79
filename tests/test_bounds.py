"""Closed-form constants: lcm degree, m0, q_m, truncation levels."""

from fractions import Fraction

import pytest

from nochka.bounds import ParamSet, m_zero, q_m, truncation_levels


def params(n=2, degV=1, N=3, q=12, degrees=None, eps=1):
    if degrees is None:
        degrees = (2, 2, 2) + (1,) * 9
    return ParamSet(n, degV, N, q, degrees, Fraction(eps))


class TestParamSet:
    def test_intro_parameters(self):
        p = params()
        assert p.lcm_degree == 2
        assert p.delta_bound == 4

    def test_invariants(self):
        with pytest.raises(ValueError):
            params(q=4, degrees=(1, 1, 1, 1))  # q < 2N-n+1 = 5
        with pytest.raises(ValueError):
            params(eps=2)
        with pytest.raises(ValueError):
            params(eps=0)
        with pytest.raises(ValueError):
            ParamSet(2, 1, 1, 3, (1, 1, 1), Fraction(1))  # N < n


class TestMZero:
    def test_intro_value(self):
        assert m_zero(params()) == 9601

    def test_small_value(self):
        p = ParamSet(1, 1, 1, 3, (1, 1, 1), Fraction(1))
        assert m_zero(p) == 73

    def test_halving_epsilon_doubles_product(self):
        full = m_zero(params(eps=1))
        half = m_zero(params(eps=Fraction(1, 2)))
        assert half == 2 * (full - 1) + 1

    def test_exceeds_delta_bound(self):
        for p in (params(), params(eps=Fraction(1, 3)),
                  ParamSet(1, 1, 1, 3, (1, 1, 1), Fraction(1))):
            assert m_zero(p) > p.delta_bound


class TestQm:
    def test_small(self):
        assert q_m(3, 2) == 6
        assert q_m(5, 0) == 1

    def test_pascal_recurrence(self):
        # q_m(q, m) = q_m(q-1, m) + q_m(q, m-1)
        for q in range(1, 31):
            for m in range(1, 61 - q):
                if q > 1:
                    assert q_m(q, m) == q_m(q - 1, m) + q_m(q, m - 1)

    def test_astronomical_log10(self):
        out = truncation_levels(params()).as_dict()
        assert int(out["qm0"]) > 10 ** 36
        texts = [out["qm0"]] + out["Lj_bounds"]
        logs = [out["qm0_log10"]] + out["Lj_bounds_log10"]
        for text, value in zip(texts, logs):
            assert abs(value - (len(text) - 1)) < 1


class TestTruncationLevels:
    def test_toy_exact_levels(self):
        p = ParamSet(1, 1, 1, 3, (1, 1, 1), Fraction(1))
        result = truncation_levels(p, hilbert_value=3, hilbert_m=2)
        assert result.lj_exact == (3, 3, 3)

    def test_equal_degrees_equal_levels(self):
        result = truncation_levels(params())
        assert len(set(result.lj_bounds)) == 2  # degree-2 and degree-1 groups
        assert result.lj_bounds[0] == 2 * (result.qm0 - 1) // 2 + 1

    def test_intro_bound_magnitude(self):
        result = truncation_levels(params())
        assert result.m0 == 9601
        assert result.qm0_log10 > 36

    def test_monotone_in_degree(self):
        p = ParamSet(1, 1, 2, 5, (1, 2, 3, 4, 6), Fraction(1))
        result = truncation_levels(p)
        degs = p.degrees
        for i in range(len(degs)):
            for j in range(len(degs)):
                if degs[i] <= degs[j]:
                    assert result.lj_bounds[i] <= result.lj_bounds[j]

    def test_feasibility_report(self):
        p = ParamSet(1, 1, 1, 3, (1, 1, 1), Fraction(1))
        result = truncation_levels(p, hilbert_value=3, hilbert_m=2)
        assert result.feasibility is not None
        assert {"growth_ok", "tail_ok"} <= set(result.feasibility)

    def test_hilbert_value_requires_m(self):
        with pytest.raises(ValueError):
            truncation_levels(params(), hilbert_value=3)
