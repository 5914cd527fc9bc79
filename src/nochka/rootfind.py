"""Numeric zero extraction.

Polynomials get exact square-free decomposition (so multiplicities are
integers by construction) followed by companion-matrix roots and Newton
polish.  General analytic functions, given as one evaluator of (f, f'), get
adaptive argument-principle counting on a subdivided box covering the disk,
with certified integer rounding of every winding number.  A contour segment
is halved until three tests pass: the argument of f and log|f| each move by
at most 0.9 across it, and max |f'/f| at its ends times its length is at
most 0.9.  The box tree is walked one level at a time: the level's Newton
starts run as one batch, and the child contours of every box it splits are
counted as one batch, each refinement pass evaluating f and f' once over
the new points of all open contours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ResourceBudgetError, VerificationError
from .univar import UnivariatePoly, squarefree_decomposition

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


def poly_roots_with_multiplicity(p: UnivariatePoly) -> list[tuple[complex, int]]:
    """All complex roots with exact multiplicities from the square-free structure.

    The square-free factors are pairwise coprime and each has simple roots,
    so every root found is a distinct zero, however close to another.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    out: list[tuple[complex, int]] = []
    for factor, mult in squarefree_decomposition(p):
        if factor.degree < 1:
            continue
        coeffs = factor.complex_coeffs
        dcoeffs = factor.derivative().complex_coeffs
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


def winding_numbers(fd: ValueAndDerivative, gamma: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    m: int, *, n0: int = 64) -> list[int | None]:
    """Winding numbers of f along the closed contours k = 0..m-1 of gamma(k, t), t in [0, 1).

    `fd(z)` returns (f(z), f'(z)).  Each contour starts from n0 samples and
    refines on its own: a segment is halved unless the argument and the
    log-magnitude of f each move by at most 0.9 across it and max |f'/f| at
    its ends times its length is at most 0.9 (the step test, which catches a
    whole turn of the argument between two samples).  The final sum must
    round to an integer within 0.25.  A contour that meets a zero or a
    non-finite value, fails to round, or reaches WINDING_MAX_PASSES or
    WINDING_MAX_POINTS counts as passing near a zero and gets None.  Each
    pass makes one fd call over the new points of every open contour, and a
    contour's count does not depend on the contours it is batched with.
    """
    counts: list[int | None] = [None] * m
    ids = np.arange(m)  # the open contours, in order, and their sample counts
    sizes = np.full(m, n0)
    t = np.tile(np.linspace(0.0, 1.0, n0, endpoint=False), m)
    z = gamma(np.repeat(ids, n0), t)
    f, df = fd(z)
    for _ in range(WINDING_MAX_PASSES):
        # samples are sorted by (contour, t); nxt closes each contour on itself
        last = np.cumsum(sizes) - 1
        first = last - (sizes - 1)
        nxt = np.arange(1, t.size + 1)
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
        for j in np.flatnonzero(~near & (nbad == 0)):
            total = float(turns[j])
            count = round(total)
            if abs(total - count) < WINDING_CERT:
                counts[ids[j]] = count
        open_ = ~near & (nbad > 0) & (sizes + nbad <= WINDING_MAX_POINTS)
        if not open_.any():
            return counts
        keep = np.repeat(open_, sizes)
        refine = bad & keep
        left = np.flatnonzero(refine)
        t_next = t[nxt]
        t_next[last] += 1.0
        mids = ((t[left] + t_next[left]) / 2.0) % 1.0
        z_mids = gamma(np.repeat(ids[open_], nbad[open_]), mids)
        f_mids, df_mids = fd(z_mids)
        # Each midpoint goes right after its left endpoint, which keeps the
        # samples sorted by t.  A midpoint of the closing segment that rounds
        # to t = 1.0 wraps to 0.0: it repeats its contour's first sample
        # (t = 0.0), so it goes right after that one instead.
        step = keep + refine.astype(np.intp)
        wrapped = np.flatnonzero(mids == 0.0)
        starts = first[np.searchsorted(last, left[wrapped])]
        step[left[wrapped]] -= 1
        step[starts] += 1
        end = np.cumsum(step)
        at_kept = (end - step)[keep]
        at_mids = end[left] - 1
        at_mids[wrapped] = end[starts] - step[starts] + 1

        def merged(old: np.ndarray, new: np.ndarray) -> np.ndarray:
            out = np.empty(end[-1], dtype=old.dtype)
            out[at_kept] = old[keep]
            out[at_mids] = new
            return out

        t, z, f, df = merged(t, mids), merged(z, z_mids), merged(f, f_mids), merged(df, df_mids)
        ids, sizes = ids[open_], sizes[open_] + nbad[open_]
    return counts


def winding_number(fd: ValueAndDerivative, gamma: Callable[[np.ndarray], np.ndarray],
                   *, n0: int = 64) -> int:
    """Winding number of f along one closed contour gamma: [0, 1) -> C.

    The rules are those of `winding_numbers`; a contour near a zero raises
    ContourNearZero.
    """
    [count] = winding_numbers(fd, lambda k, t: gamma(t), 1, n0=n0)
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


_SPLIT_FRACTIONS = (0.5, 0.53, 0.47, 0.56, 0.44, 0.515, 0.485, 0.61)


def zeros_in_disk(fd: ValueAndDerivative, radius: float) -> DiskZeros:
    """All zeros of f with |z| < radius, via box subdivision with winding counts.

    `fd(z)` returns (f(z), f'(z)).  The boundary circle may be inflated by
    relative steps of 1e-6 when a zero sits on it (reported via
    `perturbed`).  The box tree is walked one level at a time: one Newton
    batch for the level's boxes, then one batch of child counts for the
    boxes it splits.  Child box counts are checked to sum to their parent's
    count; the kept zeros must add up to the boundary count.
    """
    r_used = radius
    perturbed = False
    for _ in range(8):
        [total] = winding_numbers(fd, _circles(np.zeros(1), np.array([r_used])), 1, n0=256)
        if total is not None:
            break
        r_used *= 1 + 1e-6
        perturbed = True
    else:
        raise VerificationError("boundary circle could not be certified after perturbations")
    if total == 0:
        return DiskZeros([], r_used, perturbed, 0)

    for scale in (1.02, 1.03):
        half = r_used * scale
        level = np.array([[-half, half, -half, half]])
        [root_count] = winding_numbers(fd, _boxes(level), 1)
        if root_count is not None:
            break
    else:
        raise VerificationError("no box around the disk could be certified")
    if not root_count:
        level = level[:0]
    counts = np.full(len(level), root_count)

    found: list[tuple[complex, int]] = []
    boxes = 0
    while counts.size:
        boxes += counts.size
        if boxes > MAX_BOXES:
            raise ResourceBudgetError(f"box subdivision exceeded {MAX_BOXES} boxes")
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
            z[tried], strict[tried] = _newton(fd, centers[tried])
        in_box = ((x0 - 1e-12 <= z.real) & (z.real <= x1 + 1e-12)
                  & (y0 - 1e-12 <= z.imag) & (z.imag <= y1 + 1e-12))
        done = (counts == 1) & strict & in_box
        found.extend((complex(w), 1) for w in z[done])
        clustered = _clusters_certified(fd, level, counts, z, in_box)
        found.extend((complex(z[i]), int(counts[i])) for i in clustered)
        done[clustered] = True
        rest = np.flatnonzero(~done)
        tiny = size[rest] < MIN_BOX * scale[rest]
        found.extend((complex(centers[i]), int(counts[i])) for i in rest[tiny])
        level, counts = _split(fd, level[rest[~tiny]], counts[rest[~tiny]])

    kept = [(z, k) for z, k in found if abs(z) < r_used]
    kept = _merge_clusters(kept)
    if sum(k for _, k in kept) != total:
        raise VerificationError(
            f"disk zero count {sum(k for _, k in kept)} disagrees with boundary winding {total}")
    return DiskZeros(kept, r_used, perturbed, total)


def _clusters_certified(fd, level, counts, z, in_box) -> np.ndarray:
    """Indices of the multi-zero boxes whose Newton point carries the box's full count.

    A multiple zero stalls both the count and plain Newton, so the
    stagnation point is accepted when a cluster-scale circle around it,
    inside the box, winds the box's count.
    """
    accepted = []
    idx = np.flatnonzero((counts > 1) & in_box)
    x0, x1, y0, y1 = level[idx].T
    w = z[idx]
    gap = np.minimum.reduce([w.real - x0, x1 - w.real, w.imag - y0, y1 - w.imag])
    for scale in (1e-6, 1e-5):
        rad = scale * (1 + np.abs(w))
        inside = rad < gap
        idx, w, gap, rad = idx[inside], w[inside], gap[inside], rad[inside]
        if not idx.size:
            break
        hit = np.array([c == counts[i] for c, i in
                        zip(winding_numbers(fd, _circles(w, rad), idx.size, n0=32), idx)])
        accepted.extend(idx[hit])
        idx, w, gap = idx[~hit], w[~hit], gap[~hit]
    return np.array(accepted, dtype=np.intp)


def _split(fd, level: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The children with nonzero counts of every box in `level`.

    Each box is cut at the first of _SPLIT_FRACTIONS whose four child counts
    are certified and sum to the box's count; the children of all boxes
    still to cut are counted in one batch per try.
    """
    children: list[np.ndarray] = []
    child_counts: list[int] = []
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
        quad_counts = winding_numbers(fd, _boxes(quads), quads.shape[0])
        retry = []
        for j, i in enumerate(pending):
            four = quad_counts[4 * j:4 * j + 4]
            if None in four or sum(four) != counts[i]:
                # a contour sneaked past a zero; shift the cut and recount
                tries[i] += 1
                if tries[i] == fractions.size:
                    raise VerificationError(
                        "box splits kept disagreeing with the parent winding count")
                retry.append(i)
                continue
            for quad, c in zip(quads[4 * j:4 * j + 4], four):
                if c:
                    children.append(quad)
                    child_counts.append(c)
        pending = np.array(retry, dtype=np.intp)
    return np.array(children).reshape(-1, 4), np.array(child_counts, dtype=np.intp)


def _newton(fd: ValueAndDerivative, z0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton iteration from every start point; returns (points, strict).

    `strict` marks full-tolerance convergence.  Near a multiple zero the
    iteration stalls on evaluation noise, so a point whose final step is
    merely small is still returned (strict=False) for the caller to verify
    by a winding count.  A point is nan where the iteration failed: a zero
    or non-finite derivative or step, or no small step within
    NEWTON_ITERATIONS.  Each iteration evaluates the entries still running
    in one fd call; every entry gets the result of a one-entry call.
    """
    z = np.array(z0, dtype=np.complex128)
    last = np.full(z.shape, np.inf)
    strict = np.zeros(z.shape, dtype=bool)
    active = np.arange(z.size)
    for _ in range(NEWTON_ITERATIONS):
        if not active.size:
            break
        f, d = fd(z[active])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f / d
        failed = (d == 0) | ~np.isfinite(d) | ~np.isfinite(step)
        z[active[failed]] = np.nan
        active, step = active[~failed], step[~failed]
        z[active] -= step
        last[active] = np.abs(step)
        converged = last[active] < NEWTON_TOL * (1 + np.abs(z[active]))
        strict[active[converged]] = True
        active = active[~converged]
    stalled = last[active] >= 1e-6 * (1 + np.abs(z[active]))
    z[active[stalled]] = np.nan
    return z, strict
