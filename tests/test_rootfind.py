"""Argument-principle root finding: batched counts and Newton, adversarial zeros."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import nochka.rootfind as rootfind
from nochka.curves import CurveCoordinate, compose, parse_coordinate
from nochka.errors import ResourceBudgetError, VerificationError
from nochka.fixtures import exp_curve, generate_intro_fixture
from nochka.rootfind import (_COVER_SCALES, _SPLIT_FRACTIONS, WINDING_CERT, WINDING_MAX_PASSES,
                             WINDING_MAX_POINTS, ContourNearZero, DiskZeros, _boxes, _circles,
                             _newton, poly_roots_with_multiplicity, winding_number,
                             winding_numbers, zeros_in_disk)
from nochka.univar import QQi, UnivariatePoly


def fused(text: str):
    return parse_coordinate(text).value_and_derivative


def disk_zeros(fd, radius):
    """The one-function outcome of `zeros_in_disk`; raises the error that refused it."""
    [result] = zeros_in_disk([fd], radius)
    if isinstance(result, Exception):
        raise result
    return result


def single(gamma, k: int):
    """Contour k of a batched gamma(k, t), as a one-contour gamma(t)."""
    return lambda t: gamma(np.full(t.shape, k), t)


def boxes_around(starts: np.ndarray, half: float) -> np.ndarray:
    """The boxes (x0, x1, y0, y1) of half-width `half` centred on the starts."""
    return np.stack([starts.real - half, starts.real + half,
                     starts.imag - half, starts.imag + half], axis=-1)


class TestBoundaryPerturbation:
    """A zero on the boundary circle: no winding count there certifies, so
    the radius grows by relative steps of 1e-6 and the outcome says so."""

    def test_real_zero_on_the_circle(self):
        assert disk_zeros(fused("z - 2"), 2.0) == DiskZeros([(2, 1)], 2.000002, True, 1)

    def test_exp_zeros_on_the_circle(self):
        result = disk_zeros(fused("exp(z) - 1"), 2 * math.pi)
        assert result.perturbed and result.boundary_count == 3
        assert result.radius_used == 2 * math.pi * (1 + 1e-6)
        assert [k for _, k in result.zeros] == [1, 1, 1]
        assert sorted(round(z.imag, 9) for z, _ in result.zeros) == \
            [round(-2 * math.pi, 9), 0.0, round(2 * math.pi, 9)]
        assert all(abs(z.real) < 1e-12 for z, _ in result.zeros)


class TestBatchInvariance:
    def test_newton_entries_match_one_entry_calls(self):
        # simple zeros at odd multiples of i*pi, double zeros at 2*pi*i*k, and
        # f'(0) = 0: the starts cover strict, loose and failed outcomes
        fd = fused("exp(3*z) - exp(2*z) - exp(z) + 1")
        starts = np.array([0.1 + 3.0j, 0.05 + 0.02j, 0j, -0.2 - 3.3j, 2.5 + 9.0j,
                           1.0 + 6.0j, -4.0 + 1.0j, 0.3 - 6.4j])
        boxes = boxes_around(starts, 0.5)
        z, strict = _newton([fd], starts, np.zeros(starts.size, dtype=np.intp), boxes)
        for j in range(starts.size):
            zj, sj = _newton([fd], starts[j:j + 1], np.zeros(1, dtype=np.intp), boxes[j:j + 1])
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

        batch = winding_numbers([fd], mixed, nb + len(centers),
                                owner=np.zeros(nb + len(centers), dtype=np.intp))
        for k, count in enumerate(batch):
            try:
                alone = winding_number(fd, single(mixed, k))
            except ContourNearZero:
                alone = None
            assert alone == count
        assert batch[0] is None
        assert batch[4] == 1
        assert batch[nb] is not None


def _reference_newton(fds, z0, owner):
    """`_newton` before it took boxes: every entry runs until it converges,
    fails or uses up NEWTON_ITERATIONS, wherever it goes."""
    z = np.array(z0, dtype=np.complex128)
    last = np.full(z.shape, np.inf)
    strict = np.zeros(z.shape, dtype=bool)
    active = np.arange(z.size)
    for _ in range(rootfind.NEWTON_ITERATIONS):
        if not active.size:
            break
        f, d = rootfind._evaluate(fds, owner, active, z[active])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f / d
        failed = (d == 0) | ~np.isfinite(d) | ~np.isfinite(step)
        z[active[failed]] = np.nan
        active, step = active[~failed], step[~failed]
        z[active] -= step
        last[active] = np.abs(step)
        converged = last[active] < rootfind.NEWTON_TOL * (1 + np.abs(z[active]))
        strict[active[converged]] = True
        active = active[~converged]
    stalled = last[active] >= 1e-6 * (1 + np.abs(z[active]))
    z[active[stalled]] = np.nan
    return z, strict


class TestNewtonStopsOffItsBox:
    def test_a_start_that_runs_off_is_nan_and_evaluated_no_further(self):
        # Newton on z^2 + 1 from a real start stays real and never converges;
        # its first step from 0.01 lands near -50, far off its box.  The other
        # start converges to i inside its own box.
        seen = []

        def fd(z):
            seen.append(z.copy())
            return z * z + 1, 2 * z

        starts = np.array([0.01 + 0j, 0.9j])
        boxes = np.array([[-0.1, 0.1, -0.1, 0.1], [-0.5, 0.5, 0.5, 1.5]])
        z, strict = _newton([fd], starts, np.zeros(2, dtype=np.intp), boxes)
        assert np.isnan(z[0]) and not strict[0]
        assert strict[1] and abs(z[1] - 1j) < 1e-15
        assert seen[0].tolist() == starts.tolist()
        assert all(points.tolist() == [points[0]] for points in seen[1:])
        assert all(points[0].imag > 0.5 for points in seen[1:])
        # the old loop reached the same nan only after every iteration
        seen.clear()
        z_ref, _ = _reference_newton([fd], starts[:1], np.zeros(1, dtype=np.intp))
        assert np.isnan(z_ref[0]) and len(seen) == rootfind.NEWTON_ITERATIONS

    @pytest.mark.parametrize("text", ["exp(3*z) - exp(2*z) - exp(z) + 1",
                                      "-exp(z^2) + (1/2i)*exp(z) - 3", "z^5 - 2*z + 1/3"])
    def test_entries_that_stay_match_the_old_loop_bit_for_bit(self, text):
        fd = fused(text)
        rng = np.random.default_rng(32)
        starts = rng.uniform(-3, 3, 200) + 1j * rng.uniform(-3, 3, 200)
        boxes = boxes_around(starts, rng.choice([0.02, 0.1, 0.3, 1.0], 200))
        owner = np.zeros(starts.size, dtype=np.intp)
        z, strict = _newton([fd], starts, owner, boxes)
        z_ref, strict_ref = _reference_newton([fd], starts, owner)
        stopped = np.isnan(z) & ~np.isnan(z_ref)
        kept = ~stopped
        assert z[kept].tobytes() == z_ref[kept].tobytes()
        assert (strict[kept] == strict_ref[kept]).all()
        # each stopped entry would have ended outside its box, where
        # `zeros_in_disk` does not use it
        x0, x1, y0, y1 = boxes[stopped].T + np.array([[-1e-12], [1e-12], [-1e-12], [1e-12]])
        w = z_ref[stopped]
        assert not ((x0 <= w.real) & (w.real <= x1) & (y0 <= w.imag) & (w.imag <= y1)).any()
        assert stopped.sum() > 20 and (kept & ~np.isnan(z)).sum() > 20


def select_boxes(boxes: np.ndarray):
    """Box boundaries as np.select over the four edges' full-length candidates."""
    x0, x1, y0, y1 = boxes.T
    w, h = x1 - x0, y1 - y0

    def gamma(k, t):
        a0, a1, b0, b1, wk, hk = x0[k], x1[k], y0[k], y1[k], w[k], h[k]
        s = t * (2 * (wk + hk))
        return np.select([s < wk, s < wk + hk, s < 2 * wk + hk],
                         [a0 + s + 1j * b0, a1 + 1j * (b0 + (s - wk)),
                          a1 - (s - wk - hk) + 1j * b1],
                         a0 + 1j * (b1 - (s - 2 * wk - hk)))

    return gamma


@pytest.mark.parametrize("seed", range(6))
def test_box_samples_match_select_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    m = [1, 2, 5, 17, 40, 3][seed]
    x0 = rng.uniform(-3, 3, m)
    y0 = rng.uniform(-3, 3, m)
    # squares, thin boxes, tiny boxes, and corners at -0.0 and 0.0
    w = rng.choice([1.0, 1e-3, 1e-9, 2.5], m) * rng.uniform(0.5, 1.5, m)
    h = w * rng.choice([1.0, 0.01, 37.0], m)
    x0[0], y0[0] = -0.0, 0.0
    boxes = np.stack([x0, x0 + w, y0, y0 + h], axis=-1)
    w, h = boxes[:, 1] - x0, boxes[:, 3] - y0
    k = rng.integers(0, m, 600)
    t = rng.random(600)
    # the corners, where the edge changes
    t[:4 * m] = np.concatenate([np.zeros(m), w / (2 * (w + h)), (w + h) / (2 * (w + h)),
                                (2 * w + h) / (2 * (w + h))])
    k[:4 * m] = np.tile(np.arange(m), 4)
    assert _boxes(boxes)(k, t).tobytes() == select_boxes(boxes)(k, t).tobytes()


def lexsort_winding_numbers(fd, gamma, m, *, n0=64):
    """Reference: `winding_numbers` as it rebuilt each contour's run from the
    contour labels and sorted all samples by (contour, t) after every pass."""
    counts = [None] * m
    t = np.tile(np.linspace(0.0, 1.0, n0, endpoint=False), m)
    k = np.repeat(np.arange(m), n0)
    z = gamma(k, t)
    f, df = fd(z)
    for _ in range(WINDING_MAX_PASSES):
        first = np.flatnonzero(np.diff(k, prepend=-1))
        sizes = np.diff(first, append=k.size)
        last = first + sizes - 1
        nxt = np.arange(1, k.size + 1)
        nxt[last] = first
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            absf = np.abs(f)
            singular = ~np.isfinite(f) | ~np.isfinite(df) | (absf < 1e-280)
            logmag = np.log(absf)
            rate = np.abs(df) / absf
            dphi = np.angle(f[nxt] * np.conj(f))
            bad = ((np.abs(dphi) > 0.9) | (np.abs(logmag[nxt] - logmag) > 0.9)
                   | (np.maximum(rate, rate[nxt]) * np.abs(z[nxt] - z) > 0.9))
        near = np.logical_or.reduceat(singular, first)
        nbad = np.add.reduceat(bad, first, dtype=np.intp)
        turns = np.add.reduceat(dphi, first) / (2 * np.pi)
        ids = k[first]
        for j in np.flatnonzero(~near & (nbad == 0)):
            total = float(turns[j])
            count = round(total)
            if abs(total - count) < WINDING_CERT:
                counts[ids[j]] = count
        open_ = ~near & (nbad > 0) & (sizes + nbad <= WINDING_MAX_POINTS)
        if not open_.any():
            return counts
        keep = np.repeat(open_, sizes)
        t_next = t[nxt]
        t_next[last] += 1.0
        refine = bad & keep
        mids = ((t[refine] + t_next[refine]) / 2.0) % 1.0
        k_mids = k[refine]
        z_mids = gamma(k_mids, mids)
        f_mids, df_mids = fd(z_mids)
        t = np.concatenate([t[keep], mids])
        k = np.concatenate([k[keep], k_mids])
        order = np.lexsort((t, k))
        t, k = t[order], k[order]
        z = np.concatenate([z[keep], z_mids])[order]
        f = np.concatenate([f[keep], f_mids])[order]
        df = np.concatenate([df[keep], df_mids])[order]
    return counts


def _winding_cases():
    """Seeded circles and boxes, contour 0 passing within 1e-3 to 1e-16 of a
    simple zero, so refinement runs deep; then unit circles through a zero
    within 1e-15 of their t = 0 point, where the closing segment's midpoint
    rounds to t = 1.0 and wraps to 0.0."""
    rng = np.random.default_rng(2024)
    cases = []
    for i in range(24):
        centers = rng.normal(size=4) + 1j * rng.normal(size=4)
        radii = rng.uniform(0.2, 2.0, 4)
        if i % 3 == 2:
            x0, y0 = centers.real, centers.imag
            gamma = _boxes(np.stack([x0 - radii, x0 + radii, y0 - radii, y0 + radii], axis=-1))
            zero = x0[0] + radii[0] + 1e-13 + 1j * (y0[0] + radii[0] * rng.uniform(-1, 1))
        else:
            gamma = _circles(centers, radii)
            gap = 10.0 ** -rng.integers(3, 17)
            zero = centers[0] + (radii[0] + gap) * np.exp(2j * np.pi * rng.random())
        cases.append((zero, gamma, 4, int(rng.choice([16, 64, 256]))))
    for offset in (1e-15, 4.5e-16, 1e-16j, 1e-17j):
        cases.append((1.0 + offset, _circles(np.zeros(1), np.ones(1)), 1, 1024))
    return cases


def matched_reference(fd, gamma, m, n0):
    """The counts of `winding_numbers` and the t of every gamma call it made,
    once its counts and every evaluation batch match the reference's."""
    def recorded(calls):
        def evaluate(z):
            calls.append(z.copy())
            return fd(z)
        return evaluate

    ts = []

    def traced(k, t):
        ts.append(t.copy())
        return gamma(k, t)

    ours, theirs = [], []
    counts = winding_numbers([recorded(ours)], traced, m, owner=np.zeros(m, dtype=np.intp),
                             n0=n0)
    assert counts == lexsort_winding_numbers(recorded(theirs), gamma, m, n0=n0)
    assert [z.tobytes() for z in ours] == [z.tobytes() for z in theirs]
    return counts, ts


@pytest.mark.parametrize("zero, gamma, m, n0", _winding_cases())
def test_winding_numbers_match_lexsort_reference_bit_for_bit(zero, gamma, m, n0):
    _, ts = matched_reference(lambda z: (z - zero, np.ones_like(z)), gamma, m, n0)
    if n0 == 1024:
        # a midpoint wrapped to t = 0.0, and later passes ran on it
        wraps = [i for i, t in enumerate(ts) if i and (t == 0.0).any()]
        assert wraps and wraps[0] < len(ts) - 1


@pytest.mark.parametrize("text, gamma, want", [
    ("exp(z^2) + exp(z) + 2", _boxes(np.array([[-5.1, 5.1, -5.1, 5.1], [-2.0, 2.0, -2.0, 2.0]])),
     [32, 4]),
    ("-exp(z^2) + exp(z) + 2", _circles(np.zeros(3), np.array([2.0, 4.0, 6.0])), [2, 12, 24]),
    ("exp(z^2) - 3", _circles(np.array([0.3 + 0.1j, 1.0]), np.array([3.0, 6.5])), [6, 28]),
], ids=["boxes", "circles-about-0", "circles-off-0"])
def test_exponential_sums_match_lexsort_reference_bit_for_bit(text, gamma, want):
    # these contours refine many segments over four or five passes
    counts, _ = matched_reference(fused(text), gamma, len(want), 64)
    assert counts == want


@pytest.mark.parametrize("n, want", [(16000, 16000), (20000, None)])
def test_winding_numbers_stop_at_the_point_cap(n, want):
    # every segment of z^n on the unit circle fails until 131,072 samples,
    # 64 doubled 11 times; z^20000 needs the next doubling, past the cap
    sizes = []

    def fd(z):
        sizes.append(z.size)
        return z ** n, n * z ** (n - 1)

    counts = winding_numbers([fd], _circles(np.zeros(1), np.ones(1)), 1,
                             owner=np.zeros(1, dtype=np.intp))
    assert counts == [want]
    assert len(sizes) == 12 < WINDING_MAX_PASSES
    assert sum(sizes) == 64 << 11 <= WINDING_MAX_POINTS < 64 << 12


class TestManyZerosNearTheEdge:
    def test_box_count_sees_every_turn_of_exp_z_squared(self):
        # the phase and log-magnitude tests alone certify 28 here: a full turn
        # of arg exp(z^2) fits between two samples of the 5.1 box
        fd = fused("exp(z^2) + exp(z) + 2")
        box = _boxes(np.array([[-5.1, 5.1, -5.1, 5.1]]))
        assert winding_number(fd, single(box, 0)) == 32

    def test_closed_form_zeros_of_exp_z_squared_minus_3(self):
        # exp(z^2) = 3 exactly at z = +-sqrt(log 3 + 2 pi i k)
        result = disk_zeros(fused("exp(z^2) - 3"), 6.5)
        want = [s * np.sqrt(complex(math.log(3), 2 * math.pi * k))
                for k in range(-7, 8) for s in (1, -1)]
        want = [w for w in want if abs(w) < 6.5]
        assert len(want) == 26 == len(result.zeros)
        for w in want:
            [(z, k)] = [(z, k) for z, k in result.zeros if abs(z - w) < 1e-9]
            assert k == 1


def intro_targets(seed: int):
    """The 12 targets of the intro fixture `seed` composed with (1 : e^z : e^{z^2})."""
    arr = generate_intro_fixture(seed).arrangement
    return [compose(form, exp_curve()) for _, form in arr.hypersurfaces]


def exp_sums(count: int, *, real: bool):
    """Seeded a e^{z^2} + b e^z + c with nonzero rational (or Gaussian rational) a, b, c."""
    rng = random.Random(4242 + real)

    def coefficient():
        while True:
            re, im = (Fraction(rng.randint(-30, 30), 10) for _ in range(2))
            c = QQi(re, 0 if real else im)
            if not c.is_zero:
                return c

    return [CurveCoordinate({UnivariatePoly([0, 0, 1]): UnivariatePoly([coefficient()]),
                             UnivariatePoly([0, 1]): UnivariatePoly([coefficient()]),
                             UnivariatePoly(): UnivariatePoly([coefficient()])})
            for _ in range(count)]


def same_outcome(a, b) -> bool:
    """Equal `DiskZeros`, or refusals of the same type and message."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def recorded_walk(monkeypatch, fds, radius) -> tuple[list[int], list[int]]:
    """Over one walk: the boxes each function's tree visits (its covering box
    included), and the functions whose trees `_split` refuses."""
    split = rootfind._split
    seen = np.zeros(len(fds), dtype=np.intp)
    refused: list[int] = []

    def recording(*args):
        out = split(*args)
        seen[:] += np.bincount(out[1], minlength=len(fds))
        refused.extend(int(u) for u in out[3])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(rootfind, "_split", recording)
        outcomes = zeros_in_disk(fds, radius)
    return [int(k) + bool(o.boundary_count) for k, o in zip(seen, outcomes)], refused


class TestBatchedWalk:
    """One walk over several functions gives each the outcome it gets alone."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_intro_targets_match_one_function_calls(self, seed):
        fds = [t.value_and_derivative for t in intro_targets(seed)]
        batch = zeros_in_disk(fds, 2.002)
        assert len(batch) == 12
        for fd, got in zip(fds, batch):
            [alone] = zeros_in_disk([fd], 2.002)
            assert isinstance(alone, DiskZeros)
            assert got == alone

    @pytest.mark.parametrize("real", [True, False])
    def test_exponential_sums_match_one_function_calls(self, real):
        fds = [g.value_and_derivative for g in exp_sums(16, real=real)]
        batch = zeros_in_disk(fds, 2.5)
        alone = [zeros_in_disk([fd], 2.5)[0] for fd in fds]
        assert all(same_outcome(a, b) for a, b in zip(batch, alone))
        assert sum(isinstance(a, DiskZeros) and a.boundary_count > 0 for a in alone) >= 12

    def test_empty_batch(self):
        assert zeros_in_disk([], 2.0) == []

    def test_box_budget_is_counted_per_function(self, monkeypatch):
        fds = [t.value_and_derivative for t in intro_targets(1)[:4]]
        want = zeros_in_disk(fds, 2.002)
        totals, _ = recorded_walk(monkeypatch, fds, 2.002)
        assert sum(totals) > max(totals) > 1
        # every function fits the budget alone, the batch as a whole does not
        monkeypatch.setattr(rootfind, "MAX_BOXES", max(totals))
        assert zeros_in_disk(fds, 2.002) == want

    def test_a_refused_function_leaves_the_others_unchanged(self, monkeypatch):
        fds = [t.value_and_derivative for t in intro_targets(2)]
        want = zeros_in_disk(fds, 2.002)
        totals, _ = recorded_walk(monkeypatch, fds, 2.002)
        big = int(np.argmax(totals))
        assert sorted(totals)[-2] < totals[big]
        monkeypatch.setattr(rootfind, "MAX_BOXES", totals[big] - 1)
        got = zeros_in_disk(fds, 2.002)
        assert isinstance(got[big], ResourceBudgetError)
        del got[big], want[big]
        assert got == want


class TestNoContourStalls:
    """No winding count runs to the pass cap: the first cut avoids the axes,
    where the real zeros of these real-coefficient targets lie."""

    @staticmethod
    def _max_passes(monkeypatch, fds, radius) -> int:
        most = [0]
        original = rootfind.winding_numbers

        def counting(fd, gamma, m, **kwargs):
            calls = [0] * len(fd)

            def counted(u):
                def evaluate(z):
                    calls[u] += 1
                    return fd[u](z)
                return evaluate

            out = original([counted(u) for u in range(len(fd))], gamma, m, **kwargs)
            most[0] = max(most[0], max(calls) - 1)  # the first call samples, the rest refine
            return out

        monkeypatch.setattr(rootfind, "winding_numbers", counting)
        outcomes = zeros_in_disk(fds, radius)
        assert all(isinstance(o, DiskZeros) for o in outcomes)
        return most[0]

    def test_intro_1_targets(self, monkeypatch):
        fds = [t.value_and_derivative for t in intro_targets(1)]
        assert 0 < self._max_passes(monkeypatch, fds, 2.002) < WINDING_MAX_PASSES

    def test_real_sum_with_real_zeros(self, monkeypatch):
        fds = [fused("-exp(z^2) + exp(z) + 2")]
        assert 0 < self._max_passes(monkeypatch, fds, 3.003) < WINDING_MAX_PASSES


def _poly_from_roots(roots):
    p = UnivariatePoly.constant(1)
    for root, mult in roots:
        p = p * UnivariatePoly([-root, QQi(1)]) ** mult
    return p


TENTH_MICRO = Fraction(1, 10 ** 7)
RADIUS = 2.5


def first_cut(radius: float) -> Fraction:
    """Where the covering box of the disk of this radius is first cut, in x
    and in y alike: the split rule applied to [-half, half]."""
    half = radius * _COVER_SCALES[0]
    return Fraction(-half + _SPLIT_FRACTIONS[0] * (half - -half))


CUT = first_cut(RADIUS)

# Zeros on the coordinate axes x = 0 and y = 0, where a cut through the
# centre of the covering box would run, and on the first cut lines x = CUT
# and y = CUT; both exactly and within 1e-7.
ADVERSARIAL = [
    [(QQi(0), 1), (QQi(Fraction(1, 2), Fraction(1, 3)), 1)],
    [(QQi(0, Fraction(3, 4)), 1), (QQi(TENTH_MICRO, Fraction(-1, 2)), 1)],
    [(QQi(0, Fraction(2, 5)), 2), (QQi(Fraction(-1, 3), TENTH_MICRO), 1)],
    [(QQi(-TENTH_MICRO, 1), 1), (QQi(Fraction(6, 5), -TENTH_MICRO), 2), (QQi(0), 1)],
    [(QQi(TENTH_MICRO, TENTH_MICRO), 3), (QQi(0, -1), 1)],
    [(QQi(CUT, Fraction(7, 10)), 1), (QQi(Fraction(-1, 2), CUT), 1)],
    [(QQi(CUT, CUT), 2), (QQi(1, Fraction(-1, 3)), 1)],
    [(QQi(CUT + TENTH_MICRO, Fraction(-3, 5)), 1), (QQi(Fraction(-4, 5), CUT - TENTH_MICRO), 2)],
    [(QQi(CUT - TENTH_MICRO, CUT + TENTH_MICRO), 1), (QQi(0), 1), (QQi(CUT, -1), 2)],
    [(QQi(CUT, Fraction(-6, 5)), 3), (QQi(Fraction(9, 10), CUT + TENTH_MICRO), 1)],
]


class TestRestartAndClusters:
    def test_a_refused_tree_starts_again_at_the_next_cover_scale(self, monkeypatch):
        # float rounding splits the triple zero on x = CUT into a 1e-5 cluster
        # that the first cut runs through; the first tree's splits disagree
        p = _poly_from_roots([(QQi(CUT, Fraction(-6, 5)), 3),
                              (QQi(Fraction(9, 10), CUT + TENTH_MICRO), 1)])
        fd = CurveCoordinate.from_poly(p).value_and_derivative
        result = disk_zeros(fd, RADIUS)
        assert recorded_walk(monkeypatch, [fd], RADIUS)[1] == [0]
        assert sorted(k for _, k in result.zeros) == [1, 3]
        [(z, _)] = [(z, k) for z, k in result.zeros if k == 3]
        assert abs(z - complex(CUT, -1.2)) < 1e-4
        # the restart is per function: in a batch the others' results do not change
        other = exp_sums(1, real=True)[0].value_and_derivative
        assert zeros_in_disk([fd, other], RADIUS) == [result, zeros_in_disk([other], RADIUS)[0]]

    def test_double_zero_next_to_a_cut_is_enclosed(self, monkeypatch):
        # the cluster circle around the double zero 1e-7 below y = CUT leaves
        # its box, so a circle around the whole box must wind 2 as well; the
        # first tree certifies it
        p = _poly_from_roots([(QQi(Fraction(-4, 5), CUT - TENTH_MICRO), 2),
                              (QQi(CUT + TENTH_MICRO, Fraction(-3, 5)), 1)])
        fd = CurveCoordinate.from_poly(p).value_and_derivative
        result = disk_zeros(fd, RADIUS)
        assert recorded_walk(monkeypatch, [fd], RADIUS)[1] == []
        [(z, _)] = [(z, k) for z, k in result.zeros if k == 2]
        assert abs(z - complex(-0.8, float(CUT - TENTH_MICRO))) < 1e-6


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
        result = disk_zeros(fd, RADIUS)
    except (VerificationError, ResourceBudgetError):
        return
    oracle = [(z, k) for z, k in poly_roots_with_multiplicity(p) if abs(z) < result.radius_used]
    assert len(result.zeros) == len(oracle)
    for z, k in oracle:
        [match] = [(w, j) for w, j in result.zeros if abs(w - z) < 1e-4]
        assert match[1] == k
    assert result.boundary_count == p.degree


def _mpmath_sums(count: int):
    """Seeded sum_{k <= 3} c_k e^{p_k(z)} with two or three keys: Gaussian-rational
    c_k, negative and non-real among them, and deg p_k <= 2."""
    rng = random.Random(16)
    sums = []
    while len(sums) < count:
        terms = {}
        for _ in range(rng.randint(2, 3)):
            p = UnivariatePoly([QQi(Fraction(rng.randint(-2, 2), 2), Fraction(rng.randint(-1, 1), 2))
                                for _ in range(rng.randint(1, 3))])
            c = QQi(Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                    rng.choice([0, Fraction(rng.randint(-6, 6), rng.randint(1, 3))]))
            terms[p] = UnivariatePoly([c])
        f = CurveCoordinate(terms)
        if len(f.terms) >= 2:
            sums.append(f)
    return sums


def _mpmath_value_and_derivative(mpmath, f: CurveCoordinate):
    """(f(z), f'(z)) in mpmath arithmetic, from the exact coefficients."""
    def mpc(q: QQi):
        return mpmath.mpc(mpmath.mpf(q.re.numerator) / q.re.denominator,
                          mpmath.mpf(q.im.numerator) / q.im.denominator)

    def horner(coeffs, z):
        value = slope = 0
        for a in reversed(coeffs):
            slope = slope * z + value
            value = value * z + a
        return value, slope

    terms = [([mpc(x) for x in p.coeffs], [mpc(x) for x in c.coeffs]) for p, c in f.terms.items()]

    def fd(z):
        value = slope = 0
        for p, c in terms:
            pv, dp = horner(p, z)
            cv, dc = horner(c, z)
            e = mpmath.exp(pv)
            value += cv * e
            slope += (dc + cv * dp) * e
        return value, slope
    return fd


def _mpmath_zero_count(mpmath, fd, radius) -> float:
    """(1/2 pi i) times the contour integral of f'/f over |z| = radius, by
    Gauss-Legendre quadrature in t on 16 arcs, each halved until mpmath's
    error estimate is below 1e-8 per unit of t."""
    def integrand(t):
        z = radius * mpmath.expj(t)
        f, df = fd(z)
        return z * df / f

    def arc(a, b):
        value, error = mpmath.quad(integrand, [a, b], method="gauss-legendre", maxdegree=3,
                                   error=True)
        if error <= 1e-8 * (b - a):
            return value
        return arc(a, (a + b) / 2) + arc((a + b) / 2, b)

    cuts = mpmath.linspace(0, 2 * mpmath.pi, 17)
    return sum(arc(a, b) for a, b in zip(cuts, cuts[1:])) / (2 * mpmath.pi)


@pytest.mark.parametrize("radius", [2, 3])
@pytest.mark.parametrize("index", range(8))
def test_zeros_in_disk_against_mpmath(index, radius):
    # independent references at 30 digits: each simple zero is where
    # mpmath.findroot puts it, no two zeros are one, and the multiplicities
    # add up to the argument-principle integral
    mpmath = pytest.importorskip("mpmath")
    f = _mpmath_sums(8)[index]
    result = disk_zeros(f.value_and_derivative, radius)
    with mpmath.workdps(30):
        fd = _mpmath_value_and_derivative(mpmath, f)
        polished = []
        for z, k in result.zeros:
            w = z
            if k == 1:
                w = mpmath.findroot(lambda x: fd(x)[0], mpmath.mpc(z), df=lambda x: fd(x)[1])
                assert abs(w - z) <= 1e-9 * (1 + abs(z))
            assert all(abs(w - v) > 1e-20 * (1 + abs(w)) for v in polished)
            polished.append(w)
        count = _mpmath_zero_count(mpmath, fd, mpmath.mpf(result.radius_used))
    assert abs(count - round(count.real)) < 1e-3
    assert sum(k for _, k in result.zeros) == round(count.real)
