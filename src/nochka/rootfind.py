"""Numeric zero extraction.

Polynomials get exact square-free decomposition (so multiplicities are
integers by construction) followed by companion-matrix roots and Newton
polish.  General analytic functions get adaptive argument-principle
counting on a subdivided box covering the disk, with certified integer
rounding of every winding number.
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
        coeffs = factor.numpy_coeffs()[::-1]
        roots = np.roots(coeffs)
        df = factor.derivative()
        for root in roots:
            z = complex(root)
            for _ in range(4):
                dv = df.eval_array(np.array([z]))[0]
                if dv == 0:
                    break
                step = factor.eval_array(np.array([z]))[0] / dv
                z -= step
                if abs(step) < NEWTON_TOL * (1 + abs(z)):
                    break
            out.append((z, mult))
    out.sort(key=lambda t: root_key(t[0]))
    return out


def winding_number(fn: Callable[[np.ndarray], np.ndarray],
                   gamma: Callable[[np.ndarray], np.ndarray],
                   *, n0: int = 64) -> int:
    """Winding number of fn along the closed contour gamma: [0,1) -> C.

    Samples are refined until consecutive argument steps stay below 1
    radian; the final sum must round to an integer within 0.25 or the
    contour is treated as passing too near a zero.  Each refinement pass
    halves every offending segment and evaluates only the new points, so a
    zero close to the contour is detected by the pass cap rather than by
    runaway evaluation.
    """
    t = np.linspace(0.0, 1.0, n0, endpoint=False)
    z = gamma(t)
    v = fn(z)
    for _ in range(WINDING_MAX_PASSES):
        if not np.all(np.isfinite(v)) or np.any(np.abs(v) < 1e-280):
            raise ContourNearZero
        dphi = np.angle(np.roll(v, -1) * np.conj(v))
        logmag = np.log(np.abs(v))
        dlog = np.roll(logmag, -1) - logmag
        # the magnitude criterion guards against whole turns of phase
        # aliasing between samples: both parts of log f must move slowly
        bad = (np.abs(dphi) > 0.9) | (np.abs(dlog) > 0.9)
        if not np.any(bad):
            total = float(np.sum(dphi)) / (2 * np.pi)
            count = round(total)
            if abs(total - count) >= WINDING_CERT:
                raise ContourNearZero
            return count
        if t.size + int(bad.sum()) > WINDING_MAX_POINTS:
            raise ContourNearZero
        nxt = np.roll(t, -1)
        nxt[-1] += 1.0
        mids = ((t[bad] + nxt[bad]) / 2.0) % 1.0
        vm = fn(gamma(mids))
        order = np.argsort(np.concatenate([t, mids]), kind="stable")
        t = np.concatenate([t, mids])[order]
        v = np.concatenate([v, vm])[order]
    raise ContourNearZero


def _circle_gamma(center: complex, radius: float):
    return lambda t: center + radius * np.exp(2j * np.pi * t)


def _box_gamma(x0: float, x1: float, y0: float, y1: float):
    w, h = x1 - x0, y1 - y0
    per = 2 * (w + h)
    b1, b2, b3 = w / per, (w + h) / per, (2 * w + h) / per

    def gamma(t: np.ndarray) -> np.ndarray:
        s = t * per
        z = np.empty(t.shape, dtype=np.complex128)
        m = t < b1
        z[m] = x0 + s[m] + 1j * y0
        m = (t >= b1) & (t < b2)
        z[m] = x1 + 1j * (y0 + (s[m] - w))
        m = (t >= b2) & (t < b3)
        z[m] = x1 - (s[m] - w - h) + 1j * y1
        m = t >= b3
        z[m] = x0 + 1j * (y1 - (s[m] - 2 * w - h))
        return z

    return gamma


@dataclass
class DiskZeros:
    zeros: list[tuple[complex, int]]
    radius_used: float
    perturbed: bool
    boundary_count: int


_SPLIT_FRACTIONS = (0.5, 0.53, 0.47, 0.56, 0.44, 0.515, 0.485, 0.61)


def zeros_in_disk(fn: Callable[[np.ndarray], np.ndarray],
                  dfn: Callable[[np.ndarray], np.ndarray],
                  radius: float) -> DiskZeros:
    """All zeros of fn with |z| < radius, via box subdivision with winding counts.

    The boundary circle may be inflated by relative steps of 1e-6 when a
    zero sits on it (reported via `perturbed`).  Child box counts are
    checked to sum to their parent's count; the kept zeros must add up to
    the boundary count.
    """
    r_used = radius
    perturbed = False
    total = None
    for _ in range(8):
        try:
            total = winding_number(fn, _circle_gamma(0.0, r_used), n0=256)
            break
        except ContourNearZero:
            r_used *= 1 + 1e-6
            perturbed = True
    if total is None:
        raise VerificationError("boundary circle could not be certified after perturbations")
    if total == 0:
        return DiskZeros([], r_used, perturbed, 0)

    def box_count(x0, x1, y0, y1) -> int:
        return winding_number(fn, _box_gamma(x0, x1, y0, y1), n0=64)

    half = r_used * 1.02
    try:
        root_count = box_count(-half, half, -half, half)
    except ContourNearZero:
        half = r_used * 1.03
        root_count = box_count(-half, half, -half, half)

    stack = [(-half, half, -half, half, root_count)]
    found: list[tuple[complex, int]] = []
    boxes = 0
    while stack:
        x0, x1, y0, y1, count = stack.pop()
        if count == 0:
            continue
        boxes += 1
        if boxes > MAX_BOXES:
            raise ResourceBudgetError(f"box subdivision exceeded {MAX_BOXES} boxes")
        cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
        size = max(x1 - x0, y1 - y0)
        # multi-zero boxes only profit from Newton once they are small enough
        # that their zeros could form one cluster
        if count == 1 or size <= 0.5 * (1 + abs(complex(cx, cy))):
            z, strict = _newton(fn, dfn, complex(cx, cy))
        else:
            z, strict = None, False
        in_box = z is not None and x0 - 1e-12 <= z.real <= x1 + 1e-12 \
            and y0 - 1e-12 <= z.imag <= y1 + 1e-12
        if count == 1 and strict and in_box:
            found.append((z, 1))
            continue
        if count > 1 and in_box:
            # a multiple zero stalls both the count and plain Newton; accept
            # the stagnation point when a cluster-scale circle inside the box
            # already carries the full winding count
            edge_gap = min(z.real - x0, x1 - z.real, z.imag - y0, y1 - z.imag)
            accepted = False
            for scale in (1e-6, 1e-5):
                rad = scale * (1 + abs(z))
                if rad >= edge_gap:
                    break
                try:
                    if winding_number(fn, _circle_gamma(z, rad), n0=32) == count:
                        found.append((z, count))
                        accepted = True
                        break
                except ContourNearZero:
                    continue
            if accepted:
                continue
        if size < MIN_BOX * (1 + abs(complex(cx, cy))):
            found.append((complex(cx, cy), count))
            continue
        for frac in _SPLIT_FRACTIONS:
            xm = x0 + frac * (x1 - x0)
            ym = y0 + frac * (y1 - y0)
            try:
                quads = [(x0, xm, y0, ym), (xm, x1, y0, ym),
                         (x0, xm, ym, y1), (xm, x1, ym, y1)]
                counts = [box_count(*qb) for qb in quads]
            except ContourNearZero:
                continue
            if sum(counts) != count:
                continue  # a contour sneaked past a zero; shift the cut and recount
            for qb, c in zip(quads, counts):
                if c:
                    stack.append((*qb, c))
            break
        else:
            raise VerificationError(
                "box splits kept disagreeing with the parent winding count")

    kept = [(z, k) for z, k in found if abs(z) < r_used]
    kept = _merge_clusters(kept)
    if sum(k for _, k in kept) != total:
        raise VerificationError(
            f"disk zero count {sum(k for _, k in kept)} disagrees with boundary winding {total}")
    return DiskZeros(kept, r_used, perturbed, total)


def _newton(fn, dfn, z0: complex) -> tuple[complex | None, bool]:
    """Newton iteration; returns (point, strict).

    `strict` marks full-tolerance convergence.  Near a multiple zero the
    iteration stalls on evaluation noise, so a point whose final step is
    merely small is still returned (strict=False) for the caller to verify
    by a winding count.
    """
    z = z0
    last = np.inf
    for _ in range(NEWTON_ITERATIONS):
        arr = np.array([z])
        d = dfn(arr)[0]
        if d == 0 or not np.isfinite(d):
            return None, False
        step = fn(arr)[0] / d
        if not np.isfinite(step):
            return None, False
        z = z - complex(step)
        last = abs(step)
        if last < NEWTON_TOL * (1 + abs(z)):
            return z, True
    if last < 1e-6 * (1 + abs(z)):
        return z, False
    return None, False
