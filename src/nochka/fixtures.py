"""Reference arrangements and curves, plus the seeded 12-curve generator.

The generator realizes the classical 3-subgeneral configuration on the
projective plane with concrete random rational data: three conics through
a common point, two triples of lines concurrent at points off the conics
(each line touching one conic), and a third concurrent line triple.
Every candidate is verified with the exact position check before being
returned; failures retry with fresh randomness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .curves import CurveCoordinate, ProjectiveCurve
from .geometry import Arrangement, _value_at, check_subgeneral_position
from .linalg import primitive
from .poly import Polynomial, parse_polynomial
from .univar import UnivariatePoly

_VARS3 = ("x0", "x1", "x2")
_VARS2 = ("x0", "x1")
MAX_ATTEMPTS = 100


def three_point_arrangement() -> Arrangement:
    """Three distinct points on the projective line, in 1-subgeneral (general) position."""
    forms = [("P1", "x0"), ("P2", "x1"), ("P3", "x0 + x1")]
    return Arrangement(1, 1, 1, 1, (),
                       tuple((n, parse_polynomial(t, _VARS2)) for n, t in forms),
                       _VARS2)


def conic_presentation_arrangement() -> Arrangement:
    """The projective line carried by the three degree-2 monomial forms."""
    forms = [("Q1", "x0^2"), ("Q2", "x0*x1"), ("Q3", "x1^2")]
    return Arrangement(1, 1, 1, 2, (),
                       tuple((n, parse_polynomial(t, _VARS2)) for n, t in forms),
                       _VARS2)


def pencil_lines_arrangement() -> Arrangement:
    """Nine plane lines in three concurrent triples: 3-subgeneral, not general, position."""
    lines = []
    for t in (1, 2, 3):
        lines.append((f"A{t}", f"x1 + {t}*x2"))
    for t in (1, 2, 3):
        lines.append((f"B{t}", f"x0 + {t}*x2"))
    for t in (1, 2, 3):
        lines.append((f"C{t}", f"x0 + {t}*x1"))
    return Arrangement(2, 2, 1, 3, (),
                       tuple((n, parse_polynomial(t, _VARS3)) for n, t in lines),
                       _VARS3)


def parabola_curve() -> ProjectiveCurve:
    return ProjectiveCurve([
        CurveCoordinate.from_poly(UnivariatePoly([1])),
        CurveCoordinate.from_poly(UnivariatePoly([0, 1])),
        CurveCoordinate.from_poly(UnivariatePoly([0, 0, 1])),
    ])


def exp_curve() -> ProjectiveCurve:
    """(1 : e^z : e^{z^2})."""
    return ProjectiveCurve([
        CurveCoordinate.from_poly(UnivariatePoly([1])),
        CurveCoordinate({UnivariatePoly([0, 1]): UnivariatePoly([1])}),
        CurveCoordinate({UnivariatePoly([0, 0, 1]): UnivariatePoly([1])}),
    ])


_MONOS2 = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def _cross(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return primitive([a[1] * b[2] - a[2] * b[1],
                      a[2] * b[0] - a[0] * b[2],
                      a[0] * b[1] - a[1] * b[0]])


def _line_through(a: tuple[int, ...], b: tuple[int, ...]) -> Polynomial | None:
    coeffs = _cross(a, b)
    if all(c == 0 for c in coeffs):
        return None
    return Polynomial(3, {(1, 0, 0): coeffs[0], (0, 1, 0): coeffs[1], (0, 0, 1): coeffs[2]})


@dataclass(frozen=True)
class IntroFixture:
    arrangement: Arrangement
    manifest: dict
    seed: int
    attempts: int


def generate_intro_fixture(seed: int) -> IntroFixture:
    """Emit a verified 12-curve arrangement: 3 conics sharing one point plus
    three concurrent line triples, in 3-subgeneral position on the plane."""
    rng = random.Random(seed)
    for attempt in range(1, MAX_ATTEMPTS + 1):
        built = _try_build(rng)
        if built is None:
            continue
        arrangement, points = built
        report = check_subgeneral_position(arrangement)
        if not report.ok:
            continue
        q = arrangement.q
        coefficient = q - 2 * arrangement.N + arrangement.n - 1
        manifest = {
            "name": f"intro-{seed}",
            "seed": seed,
            "attempts": attempt,
            "q": q,
            "degrees": list(arrangement.degrees),
            "coefficient": coefficient,
            "points": {k: list(v) for k, v in points.items()},
            "position": report.as_dict(),
            "origin": "randomly constructed, then verified by the exact position check",
        }
        return IntroFixture(arrangement, manifest, seed, attempt)
    raise RuntimeError(f"no valid arrangement found in {MAX_ATTEMPTS} attempts (seed {seed})")


def _rand_point(rng: random.Random) -> tuple[int, ...]:
    while True:
        p = tuple(rng.randint(-6, 6) for _ in range(3))
        if any(p):
            return p


def _conic_through(rng: random.Random, point: tuple[int, ...]) -> Polynomial | None:
    values = [Fraction(point[0] ** a * point[1] ** b * point[2] ** c)
              for a, b, c in _MONOS2]
    pivot = next((i for i, v in enumerate(values) if v != 0), None)
    if pivot is None:
        return None
    coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(6)]
    rest = sum((c * v for i, (c, v) in enumerate(zip(coeffs, values)) if i != pivot),
               Fraction(0))
    coeffs[pivot] = -rest / values[pivot]
    ints = primitive(coeffs)
    if all(x == 0 for x in ints):
        return None
    return Polynomial(3, {m: c for m, c in zip(_MONOS2, ints)})


def _second_intersection(rng: random.Random, conic: Polynomial,
                         base: tuple[int, ...]) -> tuple[int, ...] | None:
    """Second meeting point of a random rational line through `base` with the conic."""
    direction = _rand_point(rng)
    alpha = _value_at(conic.terms, direction)
    if alpha == 0:
        return None
    shifted = tuple(b + d for b, d in zip(base, direction))
    beta = _value_at(conic.terms, shifted) - alpha  # polar term, conic(base) = 0
    if beta == 0:
        return None
    t = -beta / alpha
    point = [Fraction(b) + t * d for b, d in zip(base, direction)]
    if all(v == 0 for v in point):
        return None
    return primitive(point)


def _try_build(rng: random.Random):
    a1 = _rand_point(rng)
    conics = []
    for _ in range(3):
        conic = _conic_through(rng, a1)
        if conic is None or conic in conics:
            return None
        conics.append(conic)

    def off_all_conics() -> tuple[int, ...] | None:
        for _ in range(20):
            p = _rand_point(rng)
            if all(_value_at(c.terms, p) != 0 for c in conics):
                return p
        return None

    a2 = off_all_conics()
    a3 = off_all_conics()
    if a2 is None or a3 is None or a2 == a3:
        return None

    b_points = []
    for i, conic in enumerate(conics):
        others = [c for j, c in enumerate(conics) if j != i]
        point = None
        for _ in range(20):
            cand = _second_intersection(rng, conic, a1)
            if cand is None:
                continue
            if all(_value_at(c.terms, cand) != 0 for c in others):
                point = cand
                break
        if point is None:
            return None
        b_points.append(point)

    lines: list[tuple[str, Polynomial]] = []
    for label, apex in (("A2", a2), ("A3", a3)):
        for i, b in enumerate(b_points, 1):
            line = _line_through(apex, b)
            if line is None:
                return None
            lines.append((f"{label}B{i}", line))

    a4 = None
    for _ in range(20):
        p = _rand_point(rng)
        if all(_value_at(c.terms, p) != 0 for c in conics) \
                and all(_value_at(l.terms, p) != 0 for _, l in lines):
            a4 = p
            break
    if a4 is None:
        return None
    third = []
    for i in range(1, 4):
        line = None
        for _ in range(20):
            cand = _line_through(a4, _rand_point(rng))
            if cand is not None and cand not in third \
                    and all(cand != l for _, l in lines):
                line = cand
                break
        if line is None:
            return None
        third.append(line)
    lines.extend((f"L{i}", l) for i, l in enumerate(third, 1))

    hypersurfaces = [(f"G{i}", c) for i, c in enumerate(conics, 1)] + lines
    forms = [p for _, p in hypersurfaces]
    if len(set(forms)) != len(forms):
        return None
    try:
        arrangement = Arrangement(2, 2, 1, 3, (), tuple(hypersurfaces), _VARS3)
    except ValueError:
        return None
    points = {"A1": a1, "A2": a2, "A3": a3, "A4": a4,
              "B1": b_points[0], "B2": b_points[1], "B3": b_points[2]}
    return arrangement, points
