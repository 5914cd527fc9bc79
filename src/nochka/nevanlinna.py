"""Nevanlinna functionals for explicit curves.

Characteristic and proximity are circle averages computed by doubling
trapezoid quadrature (spectrally accurate for periodic integrands).  The
averages a report needs at one radius share one grid: each level's curve
samples are computed once, and each integrand stops at its own level, so
its value equals the one a separate run gives.  A sample is singular when
the integrand is not finite there (for a proximity, also when |Q(w)| <
1e-250); that integrand alone then runs again at the radius inflated by
relative 1e-6 steps.  The zero it hit then lies within about 1e-6 r of the
circle, so the rerun converges only under a loose tolerance.  Zero
divisors are exact for polynomial data and argument-principle counts for
exponential polynomials, with targets Q(f) composed exactly for every
curve; counting functions are closed forms over divisors.
The report builders evaluate both sides of the main inequalities and
record slack per radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .curves import CurveCoordinate, ProjectiveCurve, compose
from .errors import QuadratureError, VerificationError
from .geometry import Arrangement, PositionReport, check_subgeneral_position
from .linalg import Echelon
from .poly import Polynomial, products_of_degree
from .rootfind import CLUSTER_TOL, poly_roots_with_multiplicity, root_key, zeros_in_disk
from .univar import QQI_ZERO, QQi, UnivariatePoly, poly_gcd_many

DEFAULT_QUAD_TOL = 1e-9
QUAD_K0 = 6
QUAD_KMAX = 20
PERTURB_FACTOR = 1 + 1e-6
VALUE_FLOOR = 1e-250


def _circle_averages(base, integrands, r: float, *, tol: float) -> list:
    """Means over the circle of radius r of several integrands, by doubling uniform samples.

    `base(r, thetas)`, such as `ProjectiveCurve.circle_values`, is computed
    once per level and shared; each integrand maps it to its own samples.
    Uniform-sample means on a periodic integrand are the trapezoid rule.
    Each integrand keeps its own running mean and stops once two of its
    successive levels agree within `tol`, so its value is bit for bit the
    one a run with that integrand alone gives.  An integrand with a sample
    that is not finite is singular at this radius and stops there.  Returns
    one outcome per integrand: its mean, None when it was singular, or a
    `QuadratureError` when it did not converge.
    """
    outcomes: list = [None] * len(integrands)
    means = [0.0] * len(integrands)
    diffs = [math.inf] * len(integrands)
    active = range(len(integrands))
    for k in range(QUAD_K0, QUAD_KMAX + 1):
        if not active:
            break
        n = 1 << k
        first = k == QUAD_K0
        # the first level takes every point, each later one only the new odd points
        thetas = (np.arange(n) if first else np.arange(1, n, 2)) * (2 * np.pi / n)
        values = base(r, thetas)
        still = []
        for i in active:
            # an inf or nan sample makes the mean inf or nan; the samples are
            # bound to no name here, so each integrand's array goes at once
            mean = float(np.mean(integrands[i](values)))
            if not math.isfinite(mean):
                continue  # singular: its outcome stays None
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
        # release this level's samples before the next, larger level is computed
        del values
        active = still
    for i in active:
        outcomes[i] = QuadratureError("circle quadrature did not converge", achieved=diffs[i])
    return outcomes


def _averaged_with_perturbation(base, integrands, r: float, *,
                                tol: float) -> list[tuple[float, float]]:
    """Run `_circle_averages`; an integrand that is singular at r runs
    again alone at r inflated by relative 1e-6 steps.

    Returns (value, radius actually used) per integrand, or raises the
    error of the first integrand that failed.
    """
    results = []
    for integrand, outcome in zip(integrands, _circle_averages(base, integrands, r, tol=tol)):
        r_eff = r
        for _ in range(5):  # r and up to five inflations of it
            if outcome is not None:
                break
            r_eff *= PERTURB_FACTOR
            [outcome] = _circle_averages(base, [integrand], r_eff, tol=tol)
        if outcome is None:
            raise QuadratureError(f"integrand stayed singular near radius {r} after perturbations")
        if isinstance(outcome, QuadratureError):
            raise outcome
        results.append((outcome, r_eff))
    return results


def _circle_average(base, integrand, r: float, *, tol: float) -> tuple[float, float]:
    """The one-integrand case: (value, radius actually used)."""
    [result] = _averaged_with_perturbation(base, [integrand], r, tol=tol)
    return result


def _checked_radii(radii: Sequence[float], tol: float) -> list[float]:
    """The radii in ascending order, each checked to be finite and >= 1, after
    checking that the quadrature tolerance is a positive finite number."""
    radii = sorted(float(r) for r in radii)
    if not radii or not all(1 <= r < math.inf for r in radii):
        raise ValueError("radii must be finite and >= 1")
    if not 0 < tol < math.inf:
        raise ValueError(f"quadrature tolerance must be a positive finite number, got {tol}")
    return radii


def _log_max(values) -> np.ndarray:
    """Integrand of T(r) from `circle_values` output: log max_i |f_i|."""
    return values[0]


def _proximity_integrand(target: Polynomial):
    """Integrand of m(r, Q) from `circle_values` output.

    With f = exp(L) w and Q homogeneous of degree d, ||f||^d ||Q|| / |Q(f)|
    equals ||Q|| / |Q(w)|.  A sample with |Q(w)| < VALUE_FLOOR is taken as
    a zero of Q(f) and gives +inf.
    """
    log_norm = math.log(float(target.max_abs_coeff()))

    def integrand(values):
        _, W = values
        av = np.abs(target.evaluate_array(list(W)))
        av[av < VALUE_FLOOR] = 0
        with np.errstate(divide="ignore"):
            return log_norm - np.log(av)

    return integrand


@dataclass(frozen=True)
class ZeroDivisor:
    """Zeros with multiplicities; complete for |z| < radius_of_validity."""

    entries: tuple[tuple[complex, int], ...]
    radius_of_validity: float

    def total_multiplicity(self) -> int:
        return sum(k for _, k in self.entries)

    def as_dict(self) -> dict:
        return {
            "entries": [{"z": [z.real, z.imag], "multiplicity": k} for z, k in self.entries],
            "radius_of_validity": self.radius_of_validity,
        }


def characteristic(curve: ProjectiveCurve, r: float, *, tol: float = DEFAULT_QUAD_TOL) -> float:
    """Circle average of log max_i |f_i| at radius r."""
    [r] = _checked_radii([r], tol)
    value, _ = _circle_average(curve.circle_values, _log_max, r, tol=tol)
    return value


def zero_divisor(obj, radius: float | None = None) -> ZeroDivisor:
    """Zero divisor of a polynomial (exact, valid everywhere) or of an
    exponential polynomial inside |z| < radius (argument principle)."""
    if isinstance(obj, CurveCoordinate) and obj.is_polynomial:
        obj = obj.poly
    if isinstance(obj, UnivariatePoly):
        if obj.is_zero:
            raise ValueError("zero function has no zero divisor")
        return ZeroDivisor(tuple(poly_roots_with_multiplicity(obj)), math.inf)
    if radius is None:
        raise ValueError("a radius is required for non-polynomial functions")
    if not isinstance(obj, CurveCoordinate):
        raise TypeError(f"cannot take the zero divisor of {type(obj).__name__}")
    result = zeros_in_disk(obj.value_and_derivative, radius)
    return ZeroDivisor(tuple(result.zeros), result.radius_used)


def counting_function(divisor: ZeroDivisor, r: float, truncation: int | None = None) -> float:
    """Logarithmically weighted zero count from radius 1: zeros inside the
    unit disk contribute log r, others log(r/|z|), multiplicities capped at
    the truncation level (None: untruncated)."""
    if not 1 <= r < math.inf:
        raise ValueError("radius must be finite and >= 1")
    if r > divisor.radius_of_validity * (1 + 1e-12):
        raise ValueError(f"radius {r} exceeds divisor validity {divisor.radius_of_validity}")
    if truncation is not None and truncation < 1:
        raise ValueError("truncation level must be >= 1")
    total = 0.0
    for z, k in divisor.entries:
        if truncation is not None:
            k = min(k, truncation)
        a = abs(z)
        if a < 1:
            total += k * math.log(r)
        elif a < r:
            total += k * math.log(r / a)
    return total


def proximity(curve: ProjectiveCurve, target: Polynomial, r: float, *,
              tol: float = DEFAULT_QUAD_TOL) -> float:
    """Circle average of log(||f||^d ||Q|| / |Q(f)|) for a homogeneous target Q."""
    [r] = _checked_radii([r], tol)
    if target.is_zero or not target.is_homogeneous:
        raise ValueError("target must be nonzero homogeneous")
    if target.nvars != curve.ambient_dim + 1:
        raise ValueError("variable count mismatch between target and curve")
    if compose(target, curve).is_zero:
        raise ValueError("target vanishes identically on the curve")
    value, _ = _circle_average(curve.circle_values, _proximity_integrand(target), r, tol=tol)
    return value


@dataclass(frozen=True)
class ConstancyReport:
    """Per-radius difference between a circle integral and a counting function."""

    radii: tuple[float, ...]
    radii_used: tuple[float, ...]
    integrals: tuple[float, ...]
    countings: tuple[float, ...]
    constant: float
    max_deviation: float

    def as_dict(self) -> dict:
        return {
            "radii": list(self.radii),
            "radii_used": list(self.radii_used),
            "integrals": list(self.integrals),
            "countings": list(self.countings),
            "constant": self.constant,
            "max_deviation": self.max_deviation,
        }


def jensen_check(phi: CurveCoordinate | UnivariatePoly, radii: Sequence[float], *,
                 tol: float = DEFAULT_QUAD_TOL) -> ConstancyReport:
    """Check that the circle average of log|phi| minus the counting function
    of phi's zeros is constant across the given radii."""
    if isinstance(phi, UnivariatePoly):
        phi = CurveCoordinate.from_poly(phi)
    if phi.is_zero:
        raise ValueError("phi must be nonzero")
    radii = _checked_radii(radii, tol)
    # phi(0) = sum_p c_p(0) exp(p(0)) with every p(0) in Q(i): the exponentials
    # of distinct p(0) are linearly independent over the algebraic numbers
    # (Lindemann-Weierstrass), so phi(0) = 0 exactly when the c_p(0) sum to
    # zero within every group of equal p(0)
    at_zero: dict[QQi, QQi] = {}
    for p, c in phi.terms.items():
        key = p.coeffs[0] if p.coeffs else QQI_ZERO
        at_zero[key] = at_zero.get(key, QQI_ZERO) + c.coeffs[0]
    if all(v.is_zero for v in at_zero.values()):
        raise ValueError("phi(0) = 0: factor out the vanishing power of z first")
    divisor = zero_divisor(phi, radii[-1] * 1.001)

    def circle(rr, thetas):
        return rr * np.exp(1j * thetas)

    used, integrals, countings, diffs = [], [], [], []
    for r in radii:
        integral, r_eff = _circle_average(circle, phi.log_abs_array, r, tol=tol)
        used.append(r_eff)
        integrals.append(integral)
        countings.append(counting_function(divisor, r_eff))
        diffs.append(integral - countings[-1])
    constant = sum(diffs) / len(diffs)
    max_dev = max(abs(d - constant) for d in diffs)
    return ConstancyReport(tuple(radii), tuple(used), tuple(integrals),
                           tuple(countings), constant, max_dev)


def wronskian(functions: Sequence[UnivariatePoly | CurveCoordinate]) -> UnivariatePoly:
    """Determinant of the derivative matrix of polynomial functions, exactly."""
    polys = [f.poly if isinstance(f, CurveCoordinate) else f for f in functions]
    if any(p is None for p in polys):
        raise ValueError("the Wronskian here requires polynomial inputs")
    k = len(polys)
    if k == 0:
        raise ValueError("need at least one function")
    derivs: list[list[UnivariatePoly]] = []
    for p in polys:
        row = [p]
        for _ in range(k - 1):
            row.append(row[-1].derivative())
        derivs.append(row)
    full = (1 << k) - 1
    memo: dict[int, UnivariatePoly] = {0: UnivariatePoly([1])}

    def det(mask: int) -> UnivariatePoly:
        if mask in memo:
            return memo[mask]
        col = k - mask.bit_count()
        total = UnivariatePoly()
        sign = 1
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            sub = det(mask ^ low)
            term = derivs[i][col] * sub
            total = total + term if sign > 0 else total - term
            sign = -sign
            m ^= low
        memo[mask] = total
        return total

    return det(full)


@dataclass(frozen=True)
class WronskianPointCheck:
    point: complex
    coordinate_orders: tuple[int, ...]
    product_order: int
    wronskian_order: int
    bound: int
    ok: bool


@dataclass(frozen=True)
class WronskianReport:
    points: tuple[WronskianPointCheck, ...]
    ok: bool

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "points": [
                {"z": [p.point.real, p.point.imag],
                 "coordinate_orders": list(p.coordinate_orders),
                 "product_order": p.product_order,
                 "wronskian_order": p.wronskian_order,
                 "bound": p.bound, "ok": p.ok}
                for p in self.points
            ],
        }


def wronskian_divisor_check(coordinates: Sequence[UnivariatePoly | CurveCoordinate]) -> WronskianReport:
    """At every zero of the coordinate product, check
    ord(product) - ord(W) <= sum_i min(ord f_i, M) with exact multiplicities."""
    polys = [c.poly if isinstance(c, CurveCoordinate) else c for c in coordinates]
    if any(p is None or p.is_zero for p in polys):
        raise ValueError("coordinates must be nonzero polynomials")
    M = len(polys) - 1
    if poly_gcd_many(polys).degree > 0:
        raise ValueError("coordinates share a common factor; representation is not reduced")
    w = wronskian(polys)
    if w.is_zero:
        raise ValueError("linearly dependent coordinates")

    clusters: list[list] = []  # [center, orders per coordinate, wronskian order]

    def locate(z: complex) -> list | None:
        for cl in clusters:
            if abs(z - cl[0]) <= CLUSTER_TOL * (1 + abs(cl[0])):
                return cl
        return None

    for i, p in enumerate(polys):
        if p.degree < 1:
            continue
        for z, k in poly_roots_with_multiplicity(p):
            cl = locate(z)
            if cl is None:
                cl = [z, [0] * len(polys), 0]
                clusters.append(cl)
            cl[1][i] += k
    if w.degree >= 1:
        for z, k in poly_roots_with_multiplicity(w):
            cl = locate(z)
            if cl is not None:
                cl[2] += k
    points = []
    for center, orders, word in clusters:
        product_order = sum(orders)
        bound = sum(min(o, M) for o in orders)
        points.append(WronskianPointCheck(center, tuple(orders), product_order,
                                          word, bound, product_order - word <= bound))
    points.sort(key=lambda p: root_key(p.point))
    return WronskianReport(tuple(points), all(p.ok for p in points))


@dataclass(frozen=True)
class CartanRadiusRow:
    r: float
    T: float
    max_sum_integral: float
    wronskian_counting: float
    lhs: float
    rhs: float
    slack: float


@dataclass(frozen=True)
class CartanReport:
    epsilon: float
    general_position_subsets: int
    rows: tuple[CartanRadiusRow, ...]

    caveat = ("the inequality admits an exceptional radius set of finite measure; "
              "negative slack at isolated radii is recorded, not failed")

    def as_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "general_position_subsets": self.general_position_subsets,
            "caveat": self.caveat,
            "rows": [vars(r) | {} for r in self.rows],
        }


def cartan_ru_check(curve: ProjectiveCurve, hyperplanes: Sequence[Polynomial],
                    epsilon, radii: Sequence[float], *,
                    tol: float = DEFAULT_QUAD_TOL) -> CartanReport:
    """Evaluate max-sum proximity over general-position (n+1)-subsets plus the
    Wronskian counting function against (n+1+eps) T(r), per radius.

    A vacuous max (no general-position subset) contributes zero.  Negative
    slack at isolated radii is reported, not failed: the inequality allows
    an exceptional radius set of finite measure.
    """
    if not curve.all_polynomial:
        raise ValueError("this check needs a polynomial curve")
    n = curve.ambient_dim
    eps = float(epsilon)
    radii = _checked_radii(radii, tol)
    for h in hyperplanes:
        if h.is_zero or h.degree != 1 or not h.is_homogeneous:
            raise ValueError("hyperplanes must be nonzero linear forms")
        if h.nvars != n + 1:
            raise ValueError("hyperplane variable count mismatch")
    w = wronskian([c.poly for c in curve.coordinates])
    if w.is_zero:
        raise ValueError("degenerate curve: vanishing Wronskian")
    wdiv = zero_divisor(w) if w.degree >= 1 else ZeroDivisor((), math.inf)

    vectors = [h.linear_coefficients() for h in hyperplanes]
    ksets = []
    for combo in combinations(range(len(hyperplanes)), n + 1):
        ech = Echelon()
        if all(ech.insert(vectors[i]) for i in combo):
            ksets.append(combo)
    proximities = [_proximity_integrand(h) for h in hyperplanes]

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
    for r in radii:
        (T, _), (integral, r_eff) = _averaged_with_perturbation(
            curve.circle_values, [_log_max, max_sum], r, tol=tol)
        # both sides at the radius the max-sum integral used
        T = T if r_eff == r else characteristic(curve, r_eff, tol=tol)
        ncount = counting_function(wdiv, r_eff)
        lhs = integral + ncount
        rhs = (n + 1 + eps) * T
        rows.append(CartanRadiusRow(r, T, integral, ncount, lhs, rhs, rhs - lhs))
    return CartanReport(eps, len(ksets), tuple(rows))


@dataclass(frozen=True)
class LiftResult:
    """Monomial lift of degree m: coordinates and the dimension of linear relations."""

    coordinates: tuple[UnivariatePoly, ...]
    q_m: int
    rank: int
    relation_dim: int
    degenerate: bool

    def as_dict(self) -> dict:
        return {"q_m": self.q_m, "rank": self.rank,
                "relation_dim": self.relation_dim, "degenerate": self.degenerate}


def _gaussian_integer_form(p: UnivariatePoly) -> tuple[list[int], list[int], int]:
    """(re, im, den) with p = (re + i*im) / den: integer coefficient lists, low
    to high, over the lcm of the denominators."""
    den = math.lcm(*(x.denominator for c in p.coeffs for x in (c.re, c.im)))
    return ([c.re.numerator * (den // c.re.denominator) for c in p.coeffs],
            [c.im.numerator * (den // c.im.denominator) for c in p.coeffs], den)


def _gaussian_mul(a: tuple, b: tuple) -> tuple[list[int], list[int], int]:
    """Product of two `_gaussian_integer_form`s."""
    ar, ai, ad = a
    br, bi, bd = b
    if not ar or not br:
        return [], [], ad * bd
    re = [0] * (len(ar) + len(br) - 1)
    im = re.copy()
    right = list(zip(br, bi))
    for i, (x, y) in enumerate(zip(ar, ai)):
        if x or y:
            for k, (u, v) in enumerate(right, i):
                re[k] += x * u - y * v
                im[k] += x * v + y * u
    return re, im, ad * bd


def lift_curve(curve: ProjectiveCurve, arr: Arrangement, m: int) -> LiftResult:
    """Compose all degree-m monomials in the normalized forms with the curve and
    measure the space of linear forms vanishing on the lifted coordinates.

    Products are taken over the Gaussian integers with one denominator each;
    a coordinate becomes a `UnivariatePoly` over Q(i) once, at the end."""
    if not curve.all_polynomial:
        raise ValueError("lifting needs a polynomial curve")
    if curve.ambient_dim != arr.M:
        raise ValueError("curve and arrangement ambient dimensions differ")
    if m < 1:
        raise ValueError("m must be >= 1")
    composed = [_gaussian_integer_form(compose(f, curve).poly) for f in arr.normalized_forms()]
    products = products_of_degree(composed, m, _gaussian_mul)
    width = max(len(re) for re, _, _ in products)
    # Rank over Q(i) by realification: w -> [Re w ; Im w] is Q-linear and
    # injective and carries the Q(i)-span of the coordinates onto the Q-span
    # of the images of w and i*w.  That Q-span is closed under w -> i*w, so
    # the image of i*w is independent exactly when the image of w is.  Each
    # row is the image of den*w, a positive multiple, which leaves the rank.
    ech = Echelon()
    coords = []
    for re, im, den in products:
        if den == 1:  # Fraction(x, den) would pay for a gcd on every coefficient
            coords.append(UnivariatePoly([QQi(x, y) for x, y in zip(re, im)]))
        else:
            coords.append(UnivariatePoly([QQi(Fraction(x, den), Fraction(y, den))
                                          for x, y in zip(re, im)]))
        pad = [0] * (width - len(re))
        if ech.insert(re + pad + im + pad):
            ech.insert([-y for y in im] + pad + re + pad)
    rank = ech.rank // 2
    q_m = len(coords)
    return LiftResult(tuple(coords), q_m, rank, q_m - rank, q_m - rank >= q_m - 1)


@dataclass(frozen=True)
class SMTTargetRow:
    name: str
    degree: int
    truncation: int | None
    N_truncated: float
    N_full: float
    proximity: float
    fmt_value: float
    r_used: float


@dataclass(frozen=True)
class SMTRadiusRow:
    r: float
    T: float
    lhs: float
    rhs: float
    slack: float
    targets: tuple[SMTTargetRow, ...]


@dataclass(frozen=True)
class SMTReport:
    """Per-radius evaluation of (q-2N+n-1-eps) T(r) <= sum (1/d_j) N^{[L_j]}(r, D_j)."""

    mode: str
    q: int
    n: int
    N: int
    epsilon: float
    coefficient: float
    truncations: tuple[int | None, ...]
    quad_tol: float
    rows: tuple[SMTRadiusRow, ...]
    fmt_deviation: dict
    caveats: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "q": self.q, "n": self.n, "N": self.N,
            "epsilon": self.epsilon,
            "coefficient": self.coefficient,
            "truncations": ["inf" if t is None else t for t in self.truncations],
            "quad_tol": self.quad_tol,
            "caveats": list(self.caveats),
            "fmt_deviation": dict(self.fmt_deviation),
            "rows": [
                {
                    "r": row.r, "T": row.T, "lhs": row.lhs, "rhs": row.rhs,
                    "slack": row.slack,
                    "targets": [
                        {"name": t.name, "degree": t.degree,
                         "truncation": "inf" if t.truncation is None else t.truncation,
                         "N_truncated": t.N_truncated, "N_full": t.N_full,
                         "proximity": t.proximity, "fmt_value": t.fmt_value,
                         "r_used": t.r_used}
                        for t in row.targets
                    ],
                }
                for row in self.rows
            ],
        }

    def as_tsv(self) -> str:
        lines = ["r\tT\tlhs\trhs\tslack"]
        for row in self.rows:
            lines.append(f"{row.r:.6g}\t{row.T:.12g}\t{row.lhs:.12g}"
                         f"\t{row.rhs:.12g}\t{row.slack:.12g}")
        return "\n".join(lines) + "\n"


def smt_report(curve: ProjectiveCurve, arr: Arrangement, epsilon, radii: Sequence[float], *,
               truncations=None, tol: float = DEFAULT_QUAD_TOL,
               position: PositionReport | None = None) -> SMTReport:
    """Evaluate the subgeneral-position main inequality on explicit data.

    Mode is `hyperplane` when every target is a linear form on the full
    space (truncation defaults to n there) and `hypersurface` otherwise
    (untruncated by default); `truncations`, when given, is one level for
    every target, an int or `math.inf`.  The report carries per-target
    consistency values d_j T(r) - N(r) - m(r), whose constancy across radii
    is the first-main-theorem check, and explicit caveat notes.
    """
    radii = _checked_radii(radii, tol)
    if position is None:
        position = check_subgeneral_position(arr)
    if not position.ok:
        raise VerificationError("arrangement fails the subgeneral-position check")
    if curve.ambient_dim != arr.M:
        raise ValueError("curve and arrangement ambient dimensions differ")
    q, n, N = arr.q, arr.n, arr.N
    eps = float(epsilon)
    mode = "hyperplane" if arr.is_linear else "hypersurface"
    if truncations is None:
        trunc_list: list[int | None] = [n if mode == "hyperplane" else None] * q
    else:
        trunc_list = [None if truncations == math.inf else int(truncations)] * q

    targets = []
    rmax = radii[-1] * 1.001
    for name, form in arr.hypersurfaces:
        comp = compose(form, curve)
        if comp.is_zero:
            raise ValueError(f"target {name} vanishes identically on the curve")
        targets.append((name, form, zero_divisor(comp, rmax)))

    coefficient = q - 2 * N + n - 1 - eps
    rows = []
    fmt_values: dict[str, list[float]] = {name: [] for name, _, _ in targets}
    integrands = [_log_max] + [_proximity_integrand(form) for _, form, _ in targets]
    for r in radii:
        # T(r) and every proximity converge on one shared grid per radius
        (T, _), *proximities = _averaged_with_perturbation(curve.circle_values, integrands,
                                                           r, tol=tol)
        target_rows = []
        rhs = 0.0
        for (name, form, div), trunc, (prox, r_eff) in zip(targets, trunc_list, proximities):
            d = form.degree
            n_full = counting_function(div, r_eff)
            n_trunc = counting_function(div, r, trunc)
            # a perturbed proximity is checked against T at its own radius
            T_eff = T if r_eff == r else characteristic(curve, r_eff, tol=tol)
            fmt = d * T_eff - n_full - prox
            fmt_values[name].append(fmt)
            rhs += n_trunc / d
            target_rows.append(SMTTargetRow(name, d, trunc, n_trunc, n_full,
                                            prox, fmt, r_eff))
        lhs = coefficient * T
        rows.append(SMTRadiusRow(r, T, lhs, rhs, rhs - lhs, tuple(target_rows)))

    fmt_deviation = {}
    for name, values in fmt_values.items():
        mean = sum(values) / len(values)
        fmt_deviation[name] = max(abs(v - mean) for v in values)

    caveats = ["the inequality admits an exceptional radius set of finite measure; "
               "slack is recorded per radius"]
    if mode == "hypersurface" and curve.all_polynomial:
        caveats.append("polynomial curves have algebraic image, so hypersurface-mode "
                       "slack is a sanity evaluation, not a hypothesis-satisfying test")
    return SMTReport(mode, q, n, N, eps, coefficient, tuple(trunc_list), tol,
                     tuple(rows), fmt_deviation, tuple(caveats))
