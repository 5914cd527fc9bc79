"""Numeric zero extraction.

Polynomials get exact square-free decomposition (so multiplicities are
integers by construction) followed by companion-matrix roots and Newton
polish.  General analytic functions, given as evaluators of (f, f'), get
adaptive argument-principle counting on a subdivided box covering the disk,
with certified integer rounding of every winding number.  A contour segment
is halved until three tests pass: the argument of f and log|f| each move by
at most 0.9 across it, and max |f'/f| at its ends times its length is at
most 0.9.  A segment that passes is final, and only the halves of a
failing one are tested again; each sample's f, log|f| and |f'/f| are
worked out once, when it is taken.  `zeros_in_disk` walks the box trees of all
its functions together, one level at a time: the level's Newton starts run
as one batch, and the child contours of every box it splits are counted as
one batch, each refinement pass evaluating every function once over the
new points of its own open contours.  Every contour and Newton start is
tagged by its function, so each function's result is the one it gets
alone, and budgets are counted per function.  The first cut of the origin-centred covering
box stays off the coordinate axes, where the zeros of real data lie.  A
Newton start stops, as failed, once a step takes it more than its box's
size outside its box, since only a point inside its box is used.  A
multiple zero is taken at the point where Newton stalls once a small circle
around it winds its box's count (and, if that circle leaves the box, a
circle around the whole box winds it too); a tree whose splits keep
disagreeing starts again from a slightly larger covering box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ResourceBudgetError, VerificationError
from .univar import UnivariatePoly, float_or_zero, squarefree_decomposition

CLUSTER_TOL = 1e-8
NEWTON_TOL = 1e-13
WINDING_CERT = 0.25
MIN_BOX = 1e-10
WINDING_MAX_PASSES = 48
WINDING_MAX_POINTS = 200_000
MAX_BOXES = 60_000
NEWTON_ITERATIONS = 60


ValueAndDerivative = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


class ContourNearZero(Exception):
    """A contour sample sits on (or refinement cannot separate it from) a zero."""


def root_key(z: complex) -> tuple[float, float]:
    """Sort key of reported zeros: modulus, then argument, both to 9 places."""
    return round(abs(z), 9), round(np.angle(z), 9)


def _merge_clusters(pairs: list[tuple[complex, int]]) -> list[tuple[complex, int]]:
    merged: list[tuple[complex, int]] = []
    for z, k in pairs:
        for i, (w, j) in enumerate(merged):
            if abs(z - w) <= CLUSTER_TOL * (1 + abs(w)):
                merged[i] = ((w * j + z * k) / (j + k), j + k)
                break
        else:
            merged.append((z, k))
    merged.sort(key=lambda t: root_key(t[0]))
    return merged


def _horner(coeffs: tuple[complex, ...], z: complex) -> complex:
    """The polynomial with these coefficients, low to high, at z."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _factor_coeffs(factor: UnivariatePoly) -> tuple[complex, ...]:
    """The coefficients of a monic factor as complexes, low to high.  One
    below the float range is 0, which moves roots below it to 0, where every
    counting function from radius 1 counts them the same; one past it raises
    ValueError naming it."""
    return tuple(complex(float_or_zero(x, factor.den), float_or_zero(y, factor.den))
                 for x, y in zip(factor.re, factor.im))


def poly_roots_with_multiplicity(p: UnivariatePoly) -> list[tuple[complex, int]]:
    """All complex roots with exact multiplicities from the square-free structure.

    The square-free factors are pairwise coprime and each has simple roots,
    so every root found is a distinct zero, however close to another, unless
    it lies below the float range (see `_factor_coeffs`).
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    out: list[tuple[complex, int]] = []
    for factor, mult in squarefree_decomposition(p):
        if factor.degree < 1:
            continue
        coeffs = _factor_coeffs(factor)
        dcoeffs = _factor_coeffs(factor.derivative())
        for root in np.roots(coeffs[::-1]):
            z = complex(root)
            for _ in range(4):
                dv = _horner(dcoeffs, z)
                if dv == 0:
                    break
                step = _horner(coeffs, z) / dv
                z -= step
                if abs(step) < NEWTON_TOL * (1 + abs(z)):
                    break
            out.append((z, mult))
    out.sort(key=lambda t: root_key(t[0]))
    return out


def winding_numbers(fds: Sequence[ValueAndDerivative],
                    gamma: Callable[[np.ndarray, np.ndarray], np.ndarray], m: int, *,
                    owner: np.ndarray, n0: int = 64) -> list[int | None]:
    """Winding numbers of f along the closed contours k = 0..m-1 of gamma(k, t), t in [0, 1).

    `fds[u](z)` returns (f(z), f'(z)), and contour k winds around the zeros
    of the evaluator fds[owner[k]], which the contour is tagged with.  Each
    contour starts from n0 samples and refines on its own: a segment is
    halved unless the argument and the log-magnitude of f each move by at
    most 0.9 across it and max |f'/f| at its ends times its length is at most
    0.9 (the step test, which catches a whole turn of the argument between
    two samples).  The final sum must round to an integer within 0.25.  A
    contour that meets a zero or a non-finite value, fails to round, or
    reaches WINDING_MAX_PASSES or WINDING_MAX_POINTS counts as passing near a
    zero and gets None.  Each pass makes one call of each evaluator over the
    new points of its open contours, and a contour's count does not depend
    on the contours it is batched with.
    """
    counts: list[int | None] = [None] * m
    open_ = np.ones(m, dtype=bool)  # per contour: still refining, its samples, its sum so far
    sizes = np.full(m, n0)
    total = np.zeros(m)
    # the segments still to test, in (contour, start) order; row 0 holds their
    # start, row 1 their end, and t runs over [0, 1], sampled at t mod 1
    grid = np.linspace(0.0, 1.0, n0 + 1)
    k = np.repeat(np.arange(m), n0)
    t = np.stack([np.tile(grid[:-1], m), np.tile(grid[1:], m)])
    z = gamma(k, t[0])
    f, logmag, rate, singular = _samples(fds, owner, k, z)

    def closed(v: np.ndarray) -> np.ndarray:
        # each contour's last segment ends at its first sample
        return np.stack([v, np.roll(v.reshape(m, n0), -1, axis=1).ravel()])

    def halved(v: np.ndarray, s: np.ndarray, v_mid: np.ndarray) -> np.ndarray:
        # the segments s, each as its left half, then its right half
        out = np.empty((2, 2 * s.size), dtype=v.dtype)
        out[0, 0::2] = v[0, s]
        out[0, 1::2] = out[1, 0::2] = v_mid
        out[1, 1::2] = v[1, s]
        return out

    # every sample carries f, log|f| and |f'/f|, worked out once when it is taken
    samples = [closed(v) for v in (z, f, logmag, rate, singular)]
    for _ in range(WINDING_MAX_PASSES):
        z, f, logmag, rate, singular = samples
        near_zero = singular.any(axis=0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dphi = np.angle(f[1] * np.conj(f[0]))
            bad = ((np.abs(dphi) > 0.9) | (np.abs(logmag[1] - logmag[0]) > 0.9)
                   | (rate.max(axis=0) * np.abs(z[1] - z[0]) > 0.9))
        # a segment that passes is final: only its increment is kept
        total += np.bincount(k[~bad], weights=dphi[~bad], minlength=m)
        near = np.bincount(k[near_zero], minlength=m) > 0
        nbad = np.bincount(k[bad], minlength=m)
        for j in np.flatnonzero(open_ & ~near & (nbad == 0)):
            turns = float(total[j]) / (2 * np.pi)
            count = round(turns)
            if abs(turns - count) < WINDING_CERT:
                counts[j] = count
        open_ &= ~near & (nbad > 0) & (sizes + nbad <= WINDING_MAX_POINTS)
        if not open_.any():
            return counts
        sizes += nbad
        s = np.flatnonzero(bad & open_[k])
        k = k[s]
        mid = (t[0, s] + t[1, s]) / 2.0
        z_mid = gamma(k, mid % 1.0)
        at_mid = (z_mid, *_samples(fds, owner, k, z_mid))
        k = np.repeat(k, 2)
        t = halved(t, s, mid)
        samples = [halved(v, s, v_mid) for v, v_mid in zip(samples, at_mid)]
    return counts


def _samples(fds: Sequence[ValueAndDerivative], owner: np.ndarray, k: np.ndarray,
             z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """f, log|f|, |f'|/|f| and the near-a-zero flag (f or f' not finite, or
    |f| < 1e-280) of `winding_numbers`' samples z, item k[i] owning z[i]."""
    f, df = _evaluate(fds, owner, k, z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        absf = np.abs(f)
        singular = ~np.isfinite(f) | ~np.isfinite(df) | (absf < 1e-280)
        return f, np.log(absf), np.abs(df) / absf, singular


def _evaluate(fds: Sequence[ValueAndDerivative], owner: np.ndarray,
              k: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, f') at z, where z[i] belongs to item k[i], by fds[owner[k[i]]]:
    each evaluator is called once on its own points (in order), so every
    point gets the bits of a one-function call."""
    if len(fds) == 1:
        return fds[0](z)
    tags = owner[k]
    order = np.argsort(tags, kind="stable")
    bounds = np.searchsorted(tags[order], np.arange(len(fds) + 1))
    f = np.empty(z.shape, dtype=np.complex128)
    df = np.empty(z.shape, dtype=np.complex128)
    for u, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if lo < hi:
            i = order[lo:hi]
            f[i], df[i] = fds[u](z[i])
    return f, df


def winding_number(fd: ValueAndDerivative, gamma: Callable[[np.ndarray], np.ndarray],
                   *, n0: int = 64) -> int:
    """Winding number of f along one closed contour gamma: [0, 1) -> C.

    The rules are those of `winding_numbers`; a contour near a zero raises
    ContourNearZero.
    """
    [count] = winding_numbers([fd], lambda k, t: gamma(t), 1,
                              owner=np.zeros(1, dtype=np.intp), n0=n0)
    if count is None:
        raise ContourNearZero
    return count


def _circles(centers: np.ndarray, radii: np.ndarray):
    """gamma(k, t) of the circles |z - centers[k]| = radii[k]."""
    return lambda k, t: centers[k] + radii[k] * np.exp(2j * np.pi * t)


def _boxes(boxes: np.ndarray):
    """gamma(k, t) of the boundary of boxes[k] = (x0, x1, y0, y1), counterclockwise.

    A sample at arc length s from the corner (x0, y0) lies on the bottom edge
    for s < w, the right one for s < w + h, the top one for s < 2w + h and
    the left one after that; it is computed on its own edge only.
    """
    x0, x1, y0, y1 = boxes.T
    w, h = x1 - x0, y1 - y0
    edges = (lambda j, s: x0[j] + s + 1j * y0[j],
             lambda j, s: x1[j] + 1j * (y0[j] + (s - w[j])),
             lambda j, s: x1[j] - (s - w[j] - h[j]) + 1j * y1[j],
             lambda j, s: x0[j] + 1j * (y1[j] - (s - 2 * w[j] - h[j])))

    def gamma(k: np.ndarray, t: np.ndarray) -> np.ndarray:
        wk, hk = w[k], h[k]
        s = t * (2 * (wk + hk))
        # w <= w + h <= 2w + h, so the number of these bounds s has reached is its edge
        edge = (s >= wk).astype(np.intp) + (s >= wk + hk) + (s >= 2 * wk + hk)
        z = np.empty(s.shape, dtype=np.complex128)
        for e, point in enumerate(edges):
            i = np.flatnonzero(edge == e)
            z[i] = point(k[i], s[i])
        return z

    return gamma


@dataclass
class DiskZeros:
    zeros: list[tuple[complex, int]]
    radius_used: float
    perturbed: bool
    boundary_count: int


# The covering box is [-s r, s r]^2 for the first of these s whose count
# certifies, and a refused tree starts again at the next one; the first
# fraction cuts it, so it is not 0.5 (see `zeros_in_disk`).
_COVER_SCALES = (1.02, 1.03)
_SPLIT_FRACTIONS = (0.53, 0.5, 0.47, 0.56, 0.44, 0.515, 0.485, 0.61)


def zeros_in_disk(fds: Sequence[ValueAndDerivative], radius: float) -> list[DiskZeros | Exception]:
    """All zeros with |z| < radius of each function, via box subdivision with winding counts.

    `fds[u](z)` returns (f_u(z), f_u'(z)).  Returns one outcome per function:
    its `DiskZeros`, or the `VerificationError` or `ResourceBudgetError` that
    refused it; a refused function drops out of the walk and leaves the
    others' results unchanged.  The box trees of all the functions are walked
    together, one level at a time: one Newton batch for the level's boxes,
    then one batch of child counts for the boxes it splits.  Every contour
    and Newton start is evaluated by its own function, and each of them gets
    the bits of a one-entry call, so each outcome is the one the function
    gets alone.  A function's boundary circle may be inflated by relative
    steps of 1e-6 when a zero sits on it (reported via `perturbed`).  Child
    box counts are checked to sum to their parent's count; the kept zeros
    must add up to the boundary count.  A tree in which some box's splits
    keep disagreeing (its edge runs through a cluster that float evaluation
    cannot resolve) starts again from the covering box at the next of
    _COVER_SCALES, whose cuts lie elsewhere.  MAX_BOXES is counted per
    function, over all its trees.

    The covering box is centred on 0, so its first cut (_SPLIT_FRACTIONS[0])
    is kept off x = 0 and y = 0: a function with real coefficients has its
    real zeros on y = 0, and one that is also real on the imaginary axis (a
    real function of z^2, say) can have zeros on x = 0 as well.  A contour
    through a zero refines until WINDING_MAX_PASSES before the cut is moved,
    so a first cut along an axis costs a full pass budget on such data.
    """
    n = len(fds)
    outcomes: list = [None] * n
    r_used = [radius] * n
    perturbed = [False] * n
    totals = [0] * n
    pending = list(range(n))
    for _ in range(8):
        if not pending:
            break
        circles = _circles(np.zeros(len(pending)), np.array([r_used[u] for u in pending]))
        got = winding_numbers(fds, circles, len(pending), n0=256, owner=np.array(pending))
        still = []
        for u, total in zip(pending, got):
            if total is None:
                r_used[u] *= 1 + 1e-6
                perturbed[u] = True
                still.append(u)
            else:
                totals[u] = total
        pending = still
    for u in pending:
        outcomes[u] = VerificationError(
            "boundary circle could not be certified after perturbations")
    for u in range(n):
        if outcomes[u] is None and not totals[u]:
            outcomes[u] = DiskZeros([], r_used[u], perturbed[u], 0)

    # each function's tree starts from its covering box at its next cover
    # scale: first for every function, and again for one whose tree is refused
    scale_at = [0] * n
    fresh = [u for u in range(n) if outcomes[u] is None]
    found: list[list[tuple[complex, int]]] = [[] for _ in range(n)]
    boxes = np.zeros(n, dtype=np.intp)
    level = np.empty((0, 4))
    owner = counts = np.empty(0, dtype=np.intp)
    while True:
        if fresh:
            covers, left = _covering_boxes(fds, fresh, r_used, scale_at)
            for u in left:
                outcomes[u] = VerificationError("no box around the disk could be certified")
            # a covering box that winds 0 times starts no tree; the final check refuses it
            covers = [(u, box, c) for u, box, c in covers if c]
            level = np.concatenate([level, np.array([box for _, box, _ in covers]).reshape(-1, 4)])
            owner = np.concatenate([owner, np.array([u for u, _, _ in covers], dtype=np.intp)])
            counts = np.concatenate([counts, np.array([c for _, _, c in covers], dtype=np.intp)])
        if not counts.size:
            break
        boxes += np.bincount(owner, minlength=n)
        for u in np.flatnonzero(boxes > MAX_BOXES):
            if outcomes[u] is None:
                outcomes[u] = ResourceBudgetError(f"box subdivision exceeded {MAX_BOXES} boxes")
        alive = np.array([outcomes[u] is None for u in owner], dtype=bool)
        if not alive.all():
            level, owner, counts = level[alive], owner[alive], counts[alive]
            if not counts.size:
                break
        x0, x1, y0, y1 = level.T
        centers = (x0 + x1) / 2 + 1j * ((y0 + y1) / 2)
        scale = 1 + np.abs(centers)
        size = np.maximum(x1 - x0, y1 - y0)
        # multi-zero boxes only profit from Newton once they are small enough
        # that their zeros could form one cluster
        tried = (counts == 1) | (size <= 0.5 * scale)
        z = np.full(counts.size, np.nan, dtype=np.complex128)
        strict = np.zeros(counts.size, dtype=bool)
        if tried.any():
            z[tried], strict[tried] = _newton(fds, centers[tried], owner[tried], level[tried])
        in_box = ((x0 - 1e-12 <= z.real) & (z.real <= x1 + 1e-12)
                  & (y0 - 1e-12 <= z.imag) & (z.imag <= y1 + 1e-12))
        done = (counts == 1) & strict & in_box
        for i in np.flatnonzero(done):
            found[owner[i]].append((complex(z[i]), 1))
        clustered = _clusters_certified(fds, level, owner, counts, z, in_box)
        for i in clustered:
            found[owner[i]].append((complex(z[i]), int(counts[i])))
        done[clustered] = True
        rest = np.flatnonzero(~done)
        tiny = size[rest] < MIN_BOX * scale[rest]
        for i in rest[tiny]:
            found[owner[i]].append((complex(centers[i]), int(counts[i])))
        split = rest[~tiny]
        level, owner, counts, refused = _split(fds, level[split], owner[split], counts[split])
        fresh = [u for u in refused if scale_at[u] < len(_COVER_SCALES)]
        for u in refused:
            found[u] = []
            if u not in fresh:
                outcomes[u] = VerificationError(
                    "box splits kept disagreeing with the parent winding count")

    for u in range(n):
        if outcomes[u] is None:
            kept = _merge_clusters([(z, k) for z, k in found[u] if abs(z) < r_used[u]])
            count = sum(k for _, k in kept)
            if count == totals[u]:
                outcomes[u] = DiskZeros(kept, r_used[u], perturbed[u], totals[u])
            else:
                outcomes[u] = VerificationError(
                    f"disk zero count {count} disagrees with boundary winding {totals[u]}")
    return outcomes


def _covering_boxes(fds, units: list[int], r_used: list[float],
                    scale_at: list[int]) -> tuple[list[tuple[int, np.ndarray, int]], list[int]]:
    """(function, box, count) of the certified covering boxes [-s r, s r]^2 of
    the functions `units`, each at the first of its remaining _COVER_SCALES
    whose count certifies (scale_at[u] moves past it), and the functions
    left without one."""
    covers, left = [], []
    while units:
        half = np.array([r_used[u] * _COVER_SCALES[scale_at[u]] for u in units])
        boxes = np.stack([-half, half, -half, half], axis=-1)
        got = winding_numbers(fds, _boxes(boxes), len(units), owner=np.array(units))
        still = []
        for u, box, c in zip(units, boxes, got):
            scale_at[u] += 1
            if c is not None:
                covers.append((u, box, c))
            elif scale_at[u] < len(_COVER_SCALES):
                still.append(u)
            else:
                left.append(u)
        units = still
    return covers, left


def _clusters_certified(fds, level, owner, counts, z, in_box) -> np.ndarray:
    """Indices of the multi-zero boxes whose Newton point carries the box's full count.

    A multiple zero stalls both the count and plain Newton, so the
    stagnation point w is accepted when a cluster-scale circle D around it
    winds the box's count k.  A D inside the box needs nothing more.  A D
    that leaves the box (w lies near an edge) must be matched by a circle E
    around w that encloses D and the box and winds k as well: then E's zeros
    are the box's zeros, and D's zeros are among them, so they are the box's.
    """
    accepted = []
    idx = np.flatnonzero((counts > 1) & in_box)
    x0, x1, y0, y1 = level[idx].T
    w = z[idx]
    gap = np.minimum.reduce([w.real - x0, x1 - w.real, w.imag - y0, y1 - w.imag])
    corners = np.stack([x0 + 1j * y0, x1 + 1j * y0, x0 + 1j * y1, x1 + 1j * y1])
    reach = np.abs(corners - w).max(axis=0)
    for scale in (1e-6, 1e-5):
        if not idx.size:
            break
        rad = scale * (1 + np.abs(w))
        got = winding_numbers(fds, _circles(w, rad), idx.size, n0=32, owner=owner[idx])
        hit = np.array([c == counts[i] for c, i in zip(got, idx)])
        leaves = np.flatnonzero(hit & (rad >= gap))
        if leaves.size:
            around = _circles(w[leaves], 1.01 * np.maximum(reach[leaves], rad[leaves]))
            wide = winding_numbers(fds, around, leaves.size, owner=owner[idx[leaves]])
            hit[leaves] = [c == counts[i] for c, i in zip(wide, idx[leaves])]
        accepted.extend(idx[hit])
        idx, w, gap, reach = idx[~hit], w[~hit], gap[~hit], reach[~hit]
    return np.array(accepted, dtype=np.intp)


def _split(fds, level: np.ndarray, owner: np.ndarray,
           counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """The children with nonzero counts of every box in `level`, their owners
    and counts, and the functions refused.

    Each box is cut at the first of _SPLIT_FRACTIONS whose four child counts
    are certified and sum to the box's count; the children of all boxes
    still to cut are counted in one batch per try.  A box that runs out of
    fractions refuses its function, whose other boxes are then dropped.
    """
    children: list[np.ndarray] = []
    child_owner: list[int] = []
    child_counts: list[int] = []
    refused: list[int] = []
    tries = np.zeros(counts.size, dtype=np.intp)
    pending = np.arange(counts.size)
    fractions = np.array(_SPLIT_FRACTIONS)
    while pending.size:
        x0, x1, y0, y1 = level[pending].T
        frac = fractions[tries[pending]]
        xm = x0 + frac * (x1 - x0)
        ym = y0 + frac * (y1 - y0)
        quads = np.stack([x0, xm, y0, ym, xm, x1, y0, ym,
                          x0, xm, ym, y1, xm, x1, ym, y1], axis=-1).reshape(-1, 4)
        quad_counts = winding_numbers(fds, _boxes(quads), quads.shape[0],
                                      owner=np.repeat(owner[pending], 4))
        retry = []
        for j, i in enumerate(pending):
            u = owner[i]
            if u in refused:
                continue
            four = quad_counts[4 * j:4 * j + 4]
            if None in four or sum(four) != counts[i]:
                # a contour sneaked past a zero; shift the cut and recount
                tries[i] += 1
                if tries[i] == fractions.size:
                    refused.append(u)
                else:
                    retry.append(i)
                continue
            for quad, c in zip(quads[4 * j:4 * j + 4], four):
                if c:
                    children.append(quad)
                    child_owner.append(u)
                    child_counts.append(c)
        pending = np.array([i for i in retry if owner[i] not in refused], dtype=np.intp)
    keep = [j for j, u in enumerate(child_owner) if u not in refused]
    return (np.array(children).reshape(-1, 4)[keep], np.array(child_owner, dtype=np.intp)[keep],
            np.array(child_counts, dtype=np.intp)[keep], refused)


def _newton(fds: Sequence[ValueAndDerivative], z0: np.ndarray, owner: np.ndarray,
            boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton iteration from every start point; returns (points, strict).

    `fds` and `owner` are as in `winding_numbers`, with owner[j] the function
    of start j, and boxes[j] = (x0, x1, y0, y1) the box start j serves.
    `strict` marks full-tolerance convergence.  Near a multiple zero the
    iteration stalls on evaluation noise, so a point whose final step is
    merely small is still returned (strict=False) for the caller to verify
    by a winding count.  A point is nan where the iteration failed: a zero
    or non-finite derivative or step, no small step within
    NEWTON_ITERATIONS, or a step that lands more than the box's size,
    max(x1 - x0, y1 - y0), outside its box on either axis.  Such an entry
    stops there: `zeros_in_disk` uses only points inside their box, so
    where it would have converged outside, nothing changes, and where it
    would have come back, the box is split instead.  Each iteration
    evaluates the entries still running in one call per evaluator; every
    entry gets the result of a one-entry call.
    """
    z = np.array(z0, dtype=np.complex128)
    x0, x1, y0, y1 = np.asarray(boxes, dtype=float).reshape(-1, 4).T
    size = np.maximum(x1 - x0, y1 - y0)
    left, right, bottom, top = x0 - size, x1 + size, y0 - size, y1 + size
    last = np.full(z.shape, np.inf)
    strict = np.zeros(z.shape, dtype=bool)
    active = np.arange(z.size)
    for _ in range(NEWTON_ITERATIONS):
        if not active.size:
            break
        f, d = _evaluate(fds, owner, active, z[active])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f / d
        failed = (d == 0) | ~np.isfinite(d) | ~np.isfinite(step)
        z[active[failed]] = np.nan
        active, step = active[~failed], step[~failed]
        z[active] -= step
        x, y = z[active].real, z[active].imag
        off = ((x < left[active]) | (x > right[active])
               | (y < bottom[active]) | (y > top[active]))
        z[active[off]] = np.nan
        active, step = active[~off], step[~off]
        last[active] = np.abs(step)
        converged = last[active] < NEWTON_TOL * (1 + np.abs(z[active]))
        strict[active[converged]] = True
        active = active[~converged]
    stalled = last[active] >= 1e-6 * (1 + np.abs(z[active]))
    z[active[stalled]] = np.nan
    return z, strict
