"""Closed-form evaluation of the explicit truncation constants.

Everything is arbitrary-precision integer arithmetic; astronomically large
outputs additionally carry a log10 summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, log10

from .errors import VerificationError


@dataclass(frozen=True)
class ParamSet:
    """Arrangement-level parameters for the truncation formulas."""

    n: int
    deg_v: int
    N: int
    q: int
    degrees: tuple[int, ...]
    epsilon: Fraction

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.deg_v < 1:
            raise ValueError("degV must be >= 1")
        if self.N < self.n:
            raise ValueError("N must be >= n")
        if self.q != len(self.degrees):
            raise ValueError(f"q = {self.q} but {len(self.degrees)} degrees given")
        if self.q < 2 * self.N - self.n + 1:
            raise ValueError(f"need q >= 2N-n+1 = {2 * self.N - self.n + 1}")
        if any(d < 1 for d in self.degrees):
            raise ValueError("degrees must be positive")
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must satisfy 0 < epsilon <= 1")

    @property
    def lcm_degree(self) -> int:
        return lcm(*self.degrees)

    @property
    def delta_bound(self) -> int:
        """Upper bound d^n * degV for the degree of the image variety."""
        return self.lcm_degree ** self.n * self.deg_v


def m_zero(params: ParamSet) -> int:
    """floor(4 d^{n+1} q (2n+1)(2N-n+1) degV / epsilon) + 1, exactly."""
    d = params.lcm_degree
    product = (4 * d ** (params.n + 1) * params.q * (2 * params.n + 1)
               * (2 * params.N - params.n + 1) * params.deg_v)
    value = int(Fraction(product) / params.epsilon) + 1
    if not value > params.delta_bound:
        raise VerificationError("m0 must exceed the image-degree bound")
    return value


def q_m(q: int, m: int) -> int:
    """Number of degree-m exponent vectors on q slots: binom(q+m-1, m)."""
    if q < 1 or m < 0:
        raise ValueError("need q >= 1 and m >= 0")
    return comb(q + m - 1, m)


@dataclass(frozen=True)
class BoundsResult:
    d: int
    m0: int
    qm0: int
    qm0_log10: float
    lj_bounds: tuple[int, ...]
    lj_exact: tuple[int, ...] | None = None
    feasibility: dict | None = None

    def as_dict(self) -> dict:
        out = {
            "d": str(self.d),
            "m0": str(self.m0),
            "qm0": str(self.qm0),
            "qm0_log10": self.qm0_log10,
            "Lj_bounds": [str(x) for x in self.lj_bounds],
            "Lj_bounds_log10": [log10(x) for x in self.lj_bounds],
        }
        if self.lj_exact is not None:
            out["Lj_exact"] = [str(x) for x in self.lj_exact]
        if self.feasibility is not None:
            out["feasibility"] = self.feasibility
        return out


def truncation_levels(params: ParamSet, *, hilbert_value: int | None = None,
                      hilbert_m: int | None = None) -> BoundsResult:
    """Truncation-level bounds, and exact levels when a Hilbert value is supplied.

    The j-th bound is floor(d_j (binom(q+m0-1, m0) - 1) / d) + 1.  With
    H = H(m) supplied the exact level floor(d_j (H-1)/d) + 1 is emitted,
    together with the two threshold inequalities that the choice of m
    must satisfy, evaluated with the generic lower bound
    theta = (n+1)/(2N-n+1) of the Nochka constant.
    """
    d = params.lcm_degree
    m0 = m_zero(params)
    qm0 = q_m(params.q, m0)
    lj_bounds = tuple(dj * (qm0 - 1) // d + 1 for dj in params.degrees)

    lj_exact = None
    feasibility = None
    if hilbert_value is not None:
        if hilbert_m is None:
            raise ValueError("hilbert_m required with hilbert_value")
        if hilbert_value < 1 or hilbert_m < 1:
            raise ValueError("hilbert data must be positive")
        lj_exact = tuple(dj * (hilbert_value - 1) // d + 1 for dj in params.degrees)
        theta = Fraction(params.n + 1, 2 * params.N - params.n + 1)
        n = params.n
        delta = params.delta_bound
        threshold = theta * params.epsilon / 4
        growth = Fraction((2 * n + 1) * (n + 1) * d * params.q * delta, hilbert_m)
        tail = Fraction((n + 1) * d, hilbert_value)
        feasibility = {
            "m": hilbert_m,
            "H": hilbert_value,
            "theta": str(theta),
            "growth_term": str(growth),
            "tail_term": str(tail),
            "threshold": str(threshold),
            "growth_ok": growth < threshold,
            "tail_ok": tail < threshold,
        }

    return BoundsResult(d, m0, qm0, log10(qm0), lj_bounds, lj_exact, feasibility)
