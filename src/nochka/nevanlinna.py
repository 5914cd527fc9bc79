"""Nevanlinna functionals for explicit curves.

Characteristic and proximity are circle averages computed by doubling
trapezoid quadrature (spectrally accurate for periodic integrands).  The
averages a report needs at one radius share one grid: each level's curve
samples are computed once, block by block of at most QUAD_BLOCK nodes, and
each integrand stops at its own level, so its value equals the one a
separate run gives.  An integrand keeps one sum per block, not its samples,
and its means are those of whole-level samples bit for bit, so memory does
not grow with the level.  A sample is singular when
the integrand is not finite there (for a proximity, also when |Q(w)| <
1e-250); that integrand alone then runs again at the same radius on a
turned grid, whose nodes miss every dyadic angle.  A zero on the circle
stays there, so the rerun converges only under a loose tolerance.  Every
value a report gives is thus taken at the radius its row names.  Zero
divisors are exact for polynomial data and argument-principle counts for
exponential polynomials, with targets Q(f) composed exactly for every
curve; counting functions are closed forms over divisors.
The report builders evaluate both sides of the main inequalities and
record slack per radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import CurveCoordinate, ProjectiveCurve, _compile_log_rows, _log_values, compose
from .errors import QuadratureError, VerificationError
from .geometry import Arrangement, PositionReport, _check_qm_budget, check_subgeneral_position
from .linalg import Echelon
from .poly import Polynomial, next_level
from .rank_core import _popcounts, greedy_bases, linear_matroid_oracle
from .rootfind import CLUSTER_TOL, poly_roots_with_multiplicity, root_key, zeros_in_disk
from .univar import QQI_ZERO, QQi, UnivariatePoly, float_of, poly_gcd_many

DEFAULT_QUAD_TOL = 1e-9
QUAD_K0 = 6
QUAD_KMAX = 20
# nodes per block: a power of two of at least 128 (numpy's pairwise-sum
# leaf), so the halves numpy splits a level into are whole blocks
QUAD_BLOCK = 1 << 12
GOLDEN = (math.sqrt(5) - 1) / 2
MAX_TURNS = 5
VALUE_FLOOR = 1e-250


def _pairwise_total(sums: list[float]) -> float:
    """The total of a power-of-two count of block sums, added as a binary tree
    of neighbours: the order in which numpy's pairwise summation adds the
    halves of a power-of-two array, so the total is bit for bit np.sum of
    the blocks joined."""
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return sums[0]


def _circle_averages(base, integrands, r: float, *, tol: float, turn: float = 0.0) -> list:
    """Means over the circle of radius r of several integrands, by doubling uniform samples.

    Each level's new nodes are taken in consecutive blocks of at most
    QUAD_BLOCK.  `base(r, thetas)`, such as `ProjectiveCurve.circle_values`,
    is computed once per block and shared; each integrand maps it to its
    own float64 samples and keeps only their sum, and a block's samples are
    released before the next block is computed, so memory does not grow
    with the level.  A level's mean is its block sums added by
    `_pairwise_total`, over its node count: bit for bit the np.mean of the
    whole level's samples.
    Uniform-sample means on a periodic integrand are the trapezoid rule.
    Each integrand keeps its own running mean and stops once two of its
    successive levels agree within `tol`, so its value is bit for bit the
    one a run with that integrand alone gives.  An integrand with a block
    sum that is not finite is singular on this grid and reads no further
    block.  Returns one outcome per integrand: its mean, None when it was
    singular, or a `QuadratureError` when it did not converge.  `turn`
    moves every level's angles, so each level still nests in the next.
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
        start, step = (0, 1) if first else (1, 2)
        sums = {i: [] for i in active}
        for lo in range(start, n, step * QUAD_BLOCK):
            thetas = np.arange(lo, min(lo + step * QUAD_BLOCK, n), step) * (2 * np.pi / n) + turn
            values = base(r, thetas)
            for i in list(sums):
                # each integrand's array goes once it is summed
                block = float(np.sum(integrands[i](values)))
                if math.isfinite(block):
                    sums[i].append(block)
                else:
                    del sums[i]  # singular: its outcome stays None
            # release this block's samples before the next one is computed
            del values
            if not sums:
                break
        still = []
        for i, blocks in sums.items():
            mean = _pairwise_total(blocks) / (n // step)
            if not math.isfinite(mean):
                continue  # finite blocks whose total overflows
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
        active = still
    for i in active:
        outcomes[i] = QuadratureError("circle quadrature did not converge", achieved=diffs[i])
    return outcomes


def _averages_off_zeros(base, integrands, r: float, *, tol: float) -> list[float]:
    """Run `_circle_averages`; an integrand that is singular on the grid runs
    again alone at r on grids turned by k * GOLDEN first-level spacings,
    k = 1..MAX_TURNS: GOLDEN is irrational, so they miss every dyadic angle,
    such as 0, where a real zero at an integer radius sits.  The trapezoid
    rule holds on any rotation, so the value is still the mean at r.
    Returns the value per integrand, or raises the first integrand's error."""
    spacing = 2 * np.pi / (1 << QUAD_K0)
    results = []
    for integrand, outcome in zip(integrands, _circle_averages(base, integrands, r, tol=tol)):
        for k in range(1, MAX_TURNS + 1):
            if outcome is not None:
                break
            [outcome] = _circle_averages(base, [integrand], r, tol=tol,
                                         turn=k * GOLDEN * spacing)
        if outcome is None:
            raise QuadratureError(f"integrand stayed singular at radius {r} on every turned grid")
        if isinstance(outcome, QuadratureError):
            raise outcome
        results.append(outcome)
    return results


def _circle_average(base, integrand, r: float, *, tol: float) -> float:
    """The one-integrand case of `_averages_off_zeros`."""
    [result] = _averages_off_zeros(base, [integrand], r, tol=tol)
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


def _checked_epsilon(epsilon) -> float:
    """epsilon as a float, checked to be finite and > 0; a rational past the
    float range counts as infinite.  The bound epsilon <= 1 belongs to the
    explicit m0 of `bounds`, not here."""
    try:
        eps = float(epsilon)
    except OverflowError:
        eps = math.inf
    if not 0 < eps < math.inf:
        raise ValueError("epsilon must be finite and > 0")
    return eps


def _check_float_range(coordinates: Sequence[CurveCoordinate],
                       forms: Sequence[Polynomial] = ()) -> None:
    """Convert every coefficient of the coordinates and forms to a float once,
    so that `float_of` names one past or below the float range as written,
    before root finding converts a monic factor made from it."""
    for coordinate in coordinates:
        for exponent, coefficient in coordinate.terms.items():
            exponent.complex_coeffs, coefficient.complex_coeffs
    for form in forms:
        for x in form.terms.values():
            float_of(x.numerator, x.denominator)


def _check_truncation(level, *, infinite: bool = False) -> None:
    """Refuse a truncation level other than None (untruncated), an int >= 1
    (a bool is not one) or, when `infinite`, math.inf."""
    if not (level is None or isinstance(level, int) and not isinstance(level, bool)
            and level >= 1 or infinite and level == math.inf):
        kinds = "an int or math.inf" if infinite else "an int"
        raise ValueError(f"truncation level must be >= 1 and {kinds}, got {level!r}")


def _log_max(values) -> np.ndarray:
    """Integrand of T(r) from `circle_values` output: log max_i |f_i|."""
    return values[0]


def _proximity_integrand(target: Polynomial):
    """Integrand of m(r, Q) from `circle_values` output.

    With f = exp(L) w and Q homogeneous of degree d, ||f||^d ||Q|| / |Q(f)|
    equals ||Q|| / |Q(w)|.  A sample with |Q(w)| < VALUE_FLOOR is taken as
    a zero of Q(f) and gives +inf.  Q's coefficients are converted to
    complex once, here, not per block.
    """
    norm = target.max_abs_coeff()
    log_norm = math.log(float_of(norm.numerator, norm.denominator))
    evaluate = target.array_evaluator()

    def integrand(values):
        _, W = values
        av = np.abs(evaluate(list(W)))
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


def characteristic(curve: ProjectiveCurve, r: float, *, tol: float = DEFAULT_QUAD_TOL) -> float:
    """Circle average of log max_i |f_i| at radius r."""
    [r] = _checked_radii([r], tol)
    return _circle_average(curve.circle_values, _log_max, r, tol=tol)


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
    [result] = zeros_in_disk([obj.value_and_derivative], radius)
    return _disk_divisor(result)


def _disk_divisor(result) -> ZeroDivisor:
    """The divisor of one `zeros_in_disk` outcome; raises the error that refused it."""
    if isinstance(result, Exception):
        raise result
    return ZeroDivisor(tuple(result.zeros), result.radius_used)


def counting_function(divisor: ZeroDivisor, r: float, truncation: int | None = None) -> float:
    """Logarithmically weighted zero count from radius 1: zeros inside the
    unit disk contribute log r, others log(r/|z|), multiplicities capped at
    the truncation level (None: untruncated)."""
    if not 1 <= r < math.inf:
        raise ValueError("radius must be finite and >= 1")
    if r > divisor.radius_of_validity * (1 + 1e-12):
        raise ValueError(f"radius {r} exceeds divisor validity {divisor.radius_of_validity}")
    _check_truncation(truncation)
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
    return _circle_average(curve.circle_values, _proximity_integrand(target), r, tol=tol)


@dataclass(frozen=True)
class ConstancyReport:
    """Per-radius difference between a circle integral and a counting function;
    each integral is taken at its radius, so JSON `radii_used` repeats `radii`."""

    radii: tuple[float, ...]
    integrals: tuple[float, ...]
    countings: tuple[float, ...]
    constant: float
    max_deviation: float

    def as_dict(self) -> dict:
        return {
            "radii": list(self.radii),
            "radii_used": list(self.radii),
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
        key = QQI_ZERO if p.is_zero else p.coeffs[0]
        at_zero[key] = at_zero.get(key, QQI_ZERO) + c.coeffs[0]
    if all(v.is_zero for v in at_zero.values()):
        raise ValueError("phi(0) = 0: factor out the vanishing power of z first")
    _check_float_range([phi])
    divisor = zero_divisor(phi, radii[-1] * 1.001)
    rows = _compile_log_rows([phi])

    def circle(rr, thetas):
        return rr * np.exp(1j * thetas)

    def log_abs_phi(z):
        # log|phi| = L + log|w| from the evaluator `circle_values` uses
        L, w = _log_values(rows, z)
        with np.errstate(divide="ignore"):
            return L[0] + np.log(np.abs(w[0]))

    integrals = [_circle_average(circle, log_abs_phi, r, tol=tol) for r in radii]
    countings = [counting_function(divisor, r) for r in radii]
    diffs = [i - c for i, c in zip(integrals, countings)]
    constant = sum(diffs) / len(diffs)
    max_dev = max(abs(d - constant) for d in diffs)
    return ConstancyReport(tuple(radii), tuple(integrals), tuple(countings), constant, max_dev)


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
    # minors[mask]: the determinant of the rows in mask against the last
    # popcount(mask) derivative columns, expanded along its first column;
    # built bottom-up by popcount, so each minor's minors come first
    minors: dict[int, UnivariatePoly] = {0: UnivariatePoly([1])}
    for mask in sorted(range(1, 1 << k), key=int.bit_count):
        col = k - mask.bit_count()
        total = UnivariatePoly()
        sign = 1
        m = mask
        while m:
            low = m & -m
            term = derivs[low.bit_length() - 1][col] * minors[mask ^ low]
            total = total + term if sign > 0 else total - term
            sign = -sign
            m ^= low
        minors[mask] = total
    return minors[(1 << k) - 1]


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
        for z, k in poly_roots_with_multiplicity(p):
            cl = locate(z)
            if cl is None:
                cl = [z, [0] * len(polys), 0]
                clusters.append(cl)
            cl[1][i] += k
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

    def as_tsv(self) -> str:
        lines = ["r\tT\tmax_sum_integral\twronskian_counting\tlhs\trhs\tslack"]
        for row in self.rows:
            lines.append(f"{row.r:.6g}\t{row.T:.12g}\t{row.max_sum_integral:.12g}"
                         f"\t{row.wronskian_counting:.12g}\t{row.lhs:.12g}"
                         f"\t{row.rhs:.12g}\t{row.slack:.12g}")
        return "\n".join(lines) + "\n"


def cartan_ru_check(curve: ProjectiveCurve, hyperplanes: Sequence[Polynomial],
                    epsilon, radii: Sequence[float], *,
                    tol: float = DEFAULT_QUAD_TOL) -> CartanReport:
    """Evaluate max-sum proximity over general-position (n+1)-subsets plus the
    Wronskian counting function against (n+1+eps) T(r), per radius.

    The general-position subsets are the bases of the hyperplanes' linear
    matroid, read from its rank table (`linear_matroid_oracle`), so at most
    MAX_GROUND_SET hyperplanes are taken.  At each sample the max is the sum
    over the basis `greedy_bases` takes in descending order of proximity,
    added in index order.  A vacuous max (no general-position subset)
    contributes zero.  Negative slack at isolated radii is reported, not
    failed: the inequality allows an exceptional radius set of finite measure.
    """
    if not curve.all_polynomial:
        raise ValueError("this check needs a polynomial curve")
    n = curve.ambient_dim
    eps = _checked_epsilon(epsilon)
    radii = _checked_radii(radii, tol)
    for h in hyperplanes:
        if h.is_zero or h.degree != 1 or not h.is_homogeneous:
            raise ValueError("hyperplanes must be nonzero linear forms")
        if h.nvars != n + 1:
            raise ValueError("hyperplane variable count mismatch")
    _check_float_range(curve.coordinates, hyperplanes)
    w = wronskian([c.poly for c in curve.coordinates])
    if w.is_zero:
        raise ValueError("degenerate curve: vanishing Wronskian")
    wdiv = zero_divisor(w)

    q = len(hyperplanes)
    bases = 0
    if q:
        table = linear_matroid_oracle([h.linear_coefficients() for h in hyperplanes], n).table
        bases = int(np.count_nonzero((_popcounts(q) == n + 1) & (table == n + 1)))
    proximities = [_proximity_integrand(h) for h in hyperplanes]

    def max_sum(values):
        sums = np.zeros(values[0].shape)
        if not bases:
            return sums
        # negated proximities, one row per sample: a stable ascending sort
        # lists each sample's hyperplanes by descending proximity, ties by
        # index.  A nan proximity comes only where log max |f_i| is not
        # finite, and there no proximity is finite, so the sum is not either.
        neg = np.empty((sums.size, q))
        for j, integrand in enumerate(proximities):
            np.negative(integrand(values), out=neg[:, j])
        chosen = greedy_bases(table, np.argsort(neg, axis=1, kind="stable").T)
        for j in range(q):
            np.subtract(sums, neg[:, j], out=sums, where=(chosen & 1 << j) != 0)
        return sums

    rows = []
    for r in radii:
        T, integral = _averages_off_zeros(curve.circle_values, [_log_max, max_sum], r, tol=tol)
        ncount = counting_function(wdiv, r)
        lhs = integral + ncount
        rhs = (n + 1 + eps) * T
        rows.append(CartanRadiusRow(r, T, integral, ncount, lhs, rhs, rhs - lhs))
    return CartanReport(eps, bases, tuple(rows))


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


def lift_curve(curve: ProjectiveCurve, arr: Arrangement, m: int) -> LiftResult:
    """Compose all degree-m monomials in the normalized forms with the curve and
    measure the space of linear forms vanishing on the lifted coordinates.

    The products are built a level at a time in `monomials_of_degree`
    order, each one its parent's product times one more composed form
    (`next_level`), as the Hilbert rows are, and refused as they are past
    `QM_BUDGET` products.  They are `UnivariatePoly` products, integer
    convolutions over one denominator, so each realified row is read from a
    product's integer numerators `re` and `im`."""
    if not curve.all_polynomial:
        raise ValueError("lifting needs a polynomial curve")
    if curve.ambient_dim != arr.M:
        raise ValueError("curve and arrangement ambient dimensions differ")
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_qm_budget(arr.q, m)
    composed = [compose(f, curve).poly for f in arr.normalized_forms()]
    coords, last = composed, np.arange(len(composed))
    for _ in range(1, m):
        parent, last = next_level(last, len(composed))
        coords = [coords[i] * composed[j] for i, j in zip(parent.tolist(), last.tolist())]
    width = max(len(p.re) for p in coords)
    # Rank over Q(i) by realification: w -> [Re w ; Im w] is Q-linear and
    # injective and carries the Q(i)-span of the coordinates onto the Q-span
    # of the images of w and i*w.  That Q-span is closed under w -> i*w, so
    # the image of i*w is independent exactly when the image of w is.  Each
    # row is the image of den*w, a positive multiple, which leaves the rank.
    ech = Echelon()
    for p in coords:
        pad = [0] * (width - len(p.re))
        if ech.insert([*p.re, *pad, *p.im, *pad]):
            ech.insert([*(-y for y in p.im), *pad, *p.re, *pad])
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
                         "r_used": row.r}
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
    eps = _checked_epsilon(epsilon)
    radii = _checked_radii(radii, tol)
    _check_truncation(truncations, infinite=True)
    if position is None:
        position = check_subgeneral_position(arr)
    if not position.ok:
        raise VerificationError("arrangement fails the subgeneral-position check")
    if curve.ambient_dim != arr.M:
        raise ValueError("curve and arrangement ambient dimensions differ")
    _check_float_range(curve.coordinates, [form for _, form in arr.hypersurfaces])
    q, n, N = arr.q, arr.n, arr.N
    mode = "hyperplane" if arr.is_linear else "hypersurface"
    if truncations is None:
        trunc_list: list[int | None] = [n if mode == "hyperplane" else None] * q
    else:
        trunc_list = [None if truncations == math.inf else truncations] * q

    # the exponential targets' zeros come from one box-tree walk; the first
    # target in order that vanishes identically or is refused raises
    rmax = radii[-1] * 1.001
    composed = [compose(form, curve) for _, form in arr.hypersurfaces]
    exponential = [comp for comp in composed if not comp.is_polynomial]
    in_disk = iter(zeros_in_disk([comp.value_and_derivative for comp in exponential], rmax))
    targets = []
    for (name, form), comp in zip(arr.hypersurfaces, composed):
        if comp.is_zero:
            raise ValueError(f"target {name} vanishes identically on the curve")
        divisor = zero_divisor(comp) if comp.is_polynomial else _disk_divisor(next(in_disk))
        targets.append((name, form, divisor))

    coefficient = q - 2 * N + n - 1 - eps
    rows = []
    fmt_values: dict[str, list[float]] = {name: [] for name, _, _ in targets}
    integrands = [_log_max] + [_proximity_integrand(form) for _, form, _ in targets]
    for r in radii:
        # T(r) and every proximity converge on one shared grid per radius
        T, *proximities = _averages_off_zeros(curve.circle_values, integrands, r, tol=tol)
        target_rows = []
        rhs = 0.0
        for (name, form, div), trunc, prox in zip(targets, trunc_list, proximities):
            d = form.degree
            n_full = counting_function(div, r)
            n_trunc = counting_function(div, r, trunc)
            fmt = d * T - n_full - prox
            fmt_values[name].append(fmt)
            rhs += n_trunc / d
            target_rows.append(SMTTargetRow(name, d, trunc, n_trunc, n_full, prox, fmt))
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
