"""Argument-principle root finding: batched counts and Newton, adversarial zeros."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from nochka.curves import CurveCoordinate, parse_coordinate
from nochka.errors import ResourceBudgetError, VerificationError
from nochka.rootfind import (ContourNearZero, _boxes, _circles, _newton,
                             poly_roots_with_multiplicity, winding_number, winding_numbers,
                             zeros_in_disk)
from nochka.univar import QQi, UnivariatePoly


def fused(text: str):
    return parse_coordinate(text).value_and_derivative


def single(gamma, k: int):
    """Contour k of a batched gamma(k, t), as a one-contour gamma(t)."""
    return lambda t: gamma(np.full(t.shape, k), t)


class TestBatchInvariance:
    def test_newton_entries_match_one_entry_calls(self):
        # simple zeros at odd multiples of i*pi, double zeros at 2*pi*i*k, and
        # f'(0) = 0: the starts cover strict, loose and failed outcomes
        fd = fused("exp(3*z) - exp(2*z) - exp(z) + 1")
        starts = np.array([0.1 + 3.0j, 0.05 + 0.02j, 0j, -0.2 - 3.3j, 2.5 + 9.0j,
                           1.0 + 6.0j, -4.0 + 1.0j, 0.3 - 6.4j])
        z, strict = _newton(fd, starts)
        for j in range(starts.size):
            zj, sj = _newton(fd, starts[j:j + 1])
            assert zj.tobytes() == z[j:j + 1].tobytes()
            assert sj[0] == strict[j]
        failed = np.isnan(z)
        assert strict.any() and failed.any() and (~strict & ~failed).any()

    def test_contour_counts_match_single_contours(self):
        # f(0) = 0 exactly, so the box [-1, 1] x [0, 1] runs through a zero
        fd = fused("exp(z^2) + exp(z) - 2")
        boxes = np.array([[-1.0, 1.0, 0.0, 1.0], [-5.1, 5.1, -5.1, 5.1], [0.5, 2.0, -0.3, 0.4],
                          [-3.0, 0.1, -3.0, 0.2], [-0.5, 0.5, -0.5, 0.5]])
        centers = np.array([0.0, 1.0 + 1.0j, 0.5, -2.0 + 0.5j])
        radii = np.array([2.0, 0.5, 0.5, 1.5])
        nb = len(boxes)
        box_gamma, circle_gamma = _boxes(boxes), _circles(centers, radii)

        def mixed(k, t):
            return np.where(k < nb, box_gamma(np.minimum(k, nb - 1), t),
                            circle_gamma(np.maximum(k - nb, 0), t))

        batch = winding_numbers(fd, mixed, nb + len(centers))
        for k, count in enumerate(batch):
            try:
                alone = winding_number(fd, single(mixed, k))
            except ContourNearZero:
                alone = None
            assert alone == count
        assert batch[0] is None
        assert batch[4] == 1
        assert batch[nb] is not None


class TestManyZerosNearTheEdge:
    def test_box_count_sees_every_turn_of_exp_z_squared(self):
        # the phase and log-magnitude tests alone certify 28 here: a full turn
        # of arg exp(z^2) fits between two samples of the 5.1 box
        fd = fused("exp(z^2) + exp(z) + 2")
        box = _boxes(np.array([[-5.1, 5.1, -5.1, 5.1]]))
        assert winding_number(fd, single(box, 0)) == 32

    def test_closed_form_zeros_of_exp_z_squared_minus_3(self):
        # exp(z^2) = 3 exactly at z = +-sqrt(log 3 + 2 pi i k)
        result = zeros_in_disk(fused("exp(z^2) - 3"), 6.5)
        want = [s * np.sqrt(complex(math.log(3), 2 * math.pi * k))
                for k in range(-7, 8) for s in (1, -1)]
        want = [w for w in want if abs(w) < 6.5]
        assert len(want) == 26 == len(result.zeros)
        for w in want:
            [(z, k)] = [(z, k) for z, k in result.zeros if abs(z - w) < 1e-9]
            assert k == 1


def _poly_from_roots(roots):
    p = UnivariatePoly.constant(1)
    for root, mult in roots:
        p = p * UnivariatePoly([-root, QQi(1)]) ** mult
    return p


TENTH_MICRO = Fraction(1, 10 ** 7)

# Zeros on the first split lines x = 0 and y = 0 of the covering box, and
# within 1e-7 of them.
ADVERSARIAL = [
    [(QQi(0), 1), (QQi(Fraction(1, 2), Fraction(1, 3)), 1)],
    [(QQi(0, Fraction(3, 4)), 1), (QQi(TENTH_MICRO, Fraction(-1, 2)), 1)],
    [(QQi(0, Fraction(2, 5)), 2), (QQi(Fraction(-1, 3), TENTH_MICRO), 1)],
    [(QQi(-TENTH_MICRO, 1), 1), (QQi(Fraction(6, 5), -TENTH_MICRO), 2), (QQi(0), 1)],
    [(QQi(TENTH_MICRO, TENTH_MICRO), 3), (QQi(0, -1), 1)],
]


def _seeded_cases(count: int):
    rng = random.Random(20091)
    cases = []
    for _ in range(count):
        roots = []
        size = rng.randint(2, 5)
        while len(roots) < size:
            re = Fraction(rng.randint(-15, 15), 10)
            im = Fraction(rng.randint(-15, 15), 10)
            snap = rng.choice(["x", "y", "x-near", "y-near", "free"])
            if snap == "x":
                re = Fraction(0)
            elif snap == "y":
                im = Fraction(0)
            elif snap == "x-near":
                re = rng.choice([1, -1]) * TENTH_MICRO
            elif snap == "y-near":
                im = rng.choice([1, -1]) * TENTH_MICRO
            root = QQi(re, im)
            if all(abs(complex(root) - complex(r)) > 0.05 for r, _ in roots):
                roots.append((root, rng.randint(1, 2)))
        cases.append(roots)
    return cases


@pytest.mark.parametrize("roots", ADVERSARIAL + _seeded_cases(12))
def test_adversarial_zeros_certify_or_refuse(roots):
    p = _poly_from_roots(roots)
    fd = CurveCoordinate.from_poly(p).value_and_derivative
    try:
        result = zeros_in_disk(fd, 2.5)
    except (VerificationError, ResourceBudgetError):
        return
    oracle = [(z, k) for z, k in poly_roots_with_multiplicity(p) if abs(z) < result.radius_used]
    assert len(result.zeros) == len(oracle)
    for z, k in oracle:
        [match] = [(w, j) for w, j in result.zeros if abs(w - z) < 1e-4]
        assert match[1] == k
    assert result.boundary_count == p.degree
