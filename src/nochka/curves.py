"""Curve coordinates and their evaluation.

A coordinate is an exponential polynomial sum_p c_p(z) * exp(p(z)), kept in
collected normal form: a map from each exponent polynomial p in Q(i)[z] to a
nonzero coefficient polynomial c_p in Q(i)[z].  A polynomial coordinate is
the single key p = 0.  Sums and products stay in this form, so Q(f) is
composed exactly for every curve, and the form is canonical: a coordinate
is identically zero exactly when it has no keys.  Two facts make it so.
Exponentials whose exponents differ in their non-constant part are linearly
independent over C[z].  Exponentials whose exponents differ only by a
constant are exp(c_j) * exp(p) with distinct algebraic c_j, and the exp(c_j)
are linearly independent over the algebraic numbers (Lindemann-Weierstrass);
comparing coefficients of each power of z leaves no relation with
coefficients in Q(i).  Keys are therefore full exponent polynomials,
constant term included: exp(z + 1) = e * exp(z) must stay a separate key.
This is the only form a coordinate takes: the parser adds each term
c * z^k * exp(p) it reads to the coefficient under the key p, keys in order
of first appearance, and that order is the order of every float sum over
the keys.

Every numeric evaluation of curve data goes through stacked Horner rows:
one row builder (`_columns`) turns polynomials into coefficient columns and
one Horner pass (`_horner`) takes every row at a block of points at once.
For root finding each coordinate compiles once, on first use, into the rows
of its exponents, coefficients and derivative coefficients, so that f and f'
at any set of points take one Horner pass, one exp and a sum over the keys,
however many keys the coordinate has.

Circle evaluation returns log-magnitudes and max-rescaled values so that
downstream quadrature never overflows on homogeneous targets: for a
homogeneous Q of degree d, log|Q(f)| = d*log||f|| + log|Q(w)| with
w = f * exp(-log||f||).  Its rows (`_compile_log_rows`) are compiled once
per curve by `ProjectiveCurve.circle_values`, and once per phi by
`nevanlinna.jensen_check`, which reads log|phi| = L + log|w| from the same
evaluator (`_log_values`): the exponents of all the coordinates and the
polynomial coordinates become Horner rows, and each nonzero monomial a z^k
of a coefficient one log row, so a block of points takes one Horner pass,
a max, exp and sum per coordinate, and one log z if some monomial has
k > 0, with the bits of the coordinate-by-coordinate loop.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .errors import ParseError
from .poly import Polynomial, _Scanner
from .univar import (QQI_ZERO, QQi, UnivariatePoly, _join_signed, _signed_monomials,
                     poly_gcd_many)

_ZERO = UnivariatePoly()
_ONE = UnivariatePoly.constant(1)


class CurveCoordinate:
    """Exponential polynomial in collected normal form (see the module docstring).

    `terms` maps exponent polynomials to nonzero coefficient polynomials;
    `poly` is the coordinate as a UnivariatePoly when its only key is 0
    (the zero polynomial when it has none), else None.  `_dterms` holds the
    coordinate and its derivative compiled once into stacked coefficient
    arrays (see `_compile`) when `value_and_derivative` first needs them.
    """

    __slots__ = ("terms", "poly", "_dterms")

    def __init__(self, terms: Mapping[UnivariatePoly, UnivariatePoly]):
        self.terms = {p: c for p, c in terms.items() if not c.is_zero}
        self._dterms = None
        if not self.terms:
            self.poly = _ZERO
        elif len(self.terms) == 1:
            self.poly = self.terms.get(_ZERO)
        else:
            self.poly = None

    @classmethod
    def from_poly(cls, poly: UnivariatePoly) -> "CurveCoordinate":
        return cls({_ZERO: poly})

    @property
    def is_polynomial(self) -> bool:
        return self.poly is not None

    @property
    def is_zero(self) -> bool:
        """Exact: the collected form is canonical."""
        return not self.terms

    def __add__(self, other: "CurveCoordinate") -> "CurveCoordinate":
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out[p] + c if p in out else c
        return CurveCoordinate(out)

    def __mul__(self, other) -> "CurveCoordinate":
        if not isinstance(other, CurveCoordinate):
            return CurveCoordinate({p: c * other for p, c in self.terms.items()})
        out: dict[UnivariatePoly, UnivariatePoly] = {}
        for p, a in self.terms.items():
            for q, b in other.terms.items():
                key = p + q
                prod = a * b
                out[key] = out[key] + prod if key in out else prod
        return CurveCoordinate(out)

    def derivative(self) -> "CurveCoordinate":
        """(c exp(p))' = (c' + c p') exp(p), term by term."""
        out = {}
        for p, c in self.terms.items():
            dc = c.derivative()
            out[p] = dc + c * p.derivative() if p.re else dc
        return CurveCoordinate(out)

    def value_and_derivative(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f(z), f'(z)) in one stacked pass over the compiled coefficient rows.

        (c exp(p))' = (c' + c p') exp(p) keeps the key p, so f and f' share
        each exponential: one Horner pass evaluates every exponent,
        coefficient and derivative coefficient row at once, and one exp
        covers the exponent rows.  The keys are then added by halving, the
        upper half onto the lower, elementwise: numpy's sum over the key axis
        adds in another order at a single point, and root finding needs each
        point's bits not to depend on what it is evaluated with.
        """
        if self._dterms is None:
            self._dterms = self._compile()
        nexp, nkeys, columns = self._dterms
        z = np.asarray(z, dtype=np.complex128)
        flat = z.reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):
            acc = _horner(columns, flat)
            terms = acc[nexp:].reshape(2, nkeys, flat.size)
            terms[:, :nexp] *= np.exp(acc[:nexp])
            while nkeys > 1:
                half = (nkeys + 1) // 2
                terms[:, :nkeys - half] += terms[:, half:nkeys]
                nkeys = half
        return terms[0, 0].reshape(z.shape), terms[1, 0].reshape(z.shape)

    def _compile(self) -> tuple[int, int, list[np.ndarray]]:
        """(exponential key count, key count, Horner columns) of the stacked rows.

        Keys are ordered exponential first (the polynomial key, which needs
        no exp, last; the zero coordinate gets the zero key).  The rows are
        each exponential key's exponent, then every key's coefficient, then
        every key's derivative coefficient (zero where the derivative drops
        the key); the columns are those of `_columns`.
        """
        keys = sorted(self.terms, key=lambda p: not p.re) or [_ZERO]
        dterms = self.derivative().terms
        rows = [p for p in keys if p.re]
        nexp = len(rows)
        rows += [self.terms.get(p, _ZERO) for p in keys] + [dterms.get(p, _ZERO) for p in keys]
        return nexp, len(keys), _columns(rows)

    def to_text(self) -> str:
        if self.poly is not None:
            return self.poly.to_text()
        parts = []
        for p, c in self.terms.items():
            parts += _signed_monomials(c, f"*exp({p.to_text()})" if p.re else "")
        return _join_signed(parts)

    def __repr__(self) -> str:
        return f"CurveCoordinate({self.to_text()})"


def _columns(polys: Sequence[UnivariatePoly]) -> list[np.ndarray]:
    """The Horner columns of the polynomials as rows: their coefficients of
    z^j as (rows, 1) complex arrays, highest j first."""
    coeffs = np.zeros((len(polys), max(len(p.re) for p in polys) or 1), dtype=np.complex128)
    for row, p in zip(coeffs, polys):
        row[:len(p.re)] = p.complex_coeffs
    return [coeffs[:, j:j + 1] for j in reversed(range(coeffs.shape[1]))]


def _horner(columns: list[np.ndarray], z: np.ndarray) -> np.ndarray:
    """Every row of the columns at the points z (1-D), one row of values each,
    in one Horner pass that starts from the leading column: the bits of a
    pass that starts from zero."""
    acc = np.empty((columns[0].shape[0], z.size), dtype=np.complex128)
    acc[...] = columns[0]
    for column in columns[1:]:
        acc *= z
        acc += column
    return acc


def _compile_log_rows(coordinates: Sequence[CurveCoordinate]):
    """(Horner columns, key, log|a|, powered, power, spans) of the coordinates' log rows.

    A coordinate with an exponential key gets one log row per nonzero
    monomial a z^k of each coefficient c_p, keys in dict order and k
    ascending: log|a| + k log z + p(z), the log of |a z^k exp(p)| when a is
    positive real (log|a| drops the phase of a; open defect, see
    ROADMAP.md).  One Horner row of p per key serves its log rows, which
    hold its index in `key`; a polynomial coordinate is a Horner row of
    itself.  `powered` lists the log rows with k > 0 and `power` their k.
    `spans` gives, per coordinate, ("poly", Horner row) or ("exp", first
    log row, end).  The Horner columns are those of `_columns`; `log_abs`
    and `power` are float columns.
    """
    polys: list[UnivariatePoly] = []
    key: list[int] = []
    power: list[int] = []
    log_abs: list[float] = []
    spans = []
    for coordinate in coordinates:
        if coordinate.poly is not None:
            spans.append(("poly", len(polys)))
            polys.append(coordinate.poly)
            continue
        start = len(key)
        for p, c in coordinate.terms.items():
            for k, (x, y, a) in enumerate(zip(c.re, c.im, c.complex_coeffs)):
                if x or y:
                    key.append(len(polys))
                    power.append(k)
                    log_abs.append(np.log(np.abs(a)))
            polys.append(p)
        spans.append(("exp", start, len(key)))
    powered = np.flatnonzero(power)
    return (_columns(polys), np.array(key, dtype=np.intp),
            np.array(log_abs, dtype=float).reshape(-1, 1), powered,
            np.array(power, dtype=float)[powered].reshape(-1, 1), spans)


def _log_values(rows, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, w), one row per coordinate, of the compiled log rows at the points z (1-D).

    One `_horner` pass covers every row.  A log row with k = 0 is
    log|a| + p(z): at z != 0 its k log z term is a zero that leaves every
    bit of the sum, so log z is taken only for the rows with k > 0, once
    for all of them.  An exponential coordinate's L is the max of its
    log rows' real parts and w the sum of their exp after subtracting L,
    in row order; a polynomial coordinate has L = 0 and w its value.
    """
    columns, key, log_abs, powered, power, spans = rows
    acc = _horner(columns, z)
    if key.size:
        logs = acc[key]
        logs += log_abs
    if powered.size:
        with np.errstate(divide="ignore"):
            terms = power * np.log(z)
        terms += log_abs[powered]
        terms += acc[key[powered]]
        logs[powered] = terms
    L = np.zeros((len(spans), z.size))
    w = np.empty((len(spans), z.size), dtype=np.complex128)
    for i, span in enumerate(spans):
        if span[0] == "poly":
            w[i] = acc[span[1]]
            continue
        part = logs[span[1]:span[2]]
        np.max(part.real, axis=0, out=L[i])
        part -= L[i]
        np.exp(part, out=part)
        np.sum(part, axis=0, out=w[i])
    return L, w


class ProjectiveCurve:
    """Reduced representation of a holomorphic curve by M+1 coordinates."""

    __slots__ = ("coordinates", "_log_rows")

    def __init__(self, coordinates: Sequence[CurveCoordinate]):
        coords = tuple(coordinates)
        if len(coords) < 2:
            raise ValueError("need at least two coordinates")
        if all(c.is_zero for c in coords):
            raise ValueError("all coordinates vanish")
        self.coordinates = coords
        self._log_rows = None
        if self.all_polynomial and poly_gcd_many(
                [c.poly for c in coords if not c.is_zero]).degree > 0:
            raise ValueError("coordinates share a common factor; representation is not reduced")

    @property
    def all_polynomial(self) -> bool:
        return all(c.is_polynomial for c in self.coordinates)

    @property
    def ambient_dim(self) -> int:
        return len(self.coordinates) - 1

    def circle_values(self, r: float, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (L, W): L = log max_i |f_i| on |z| = r, W the coordinates scaled by exp(-L).

        Every coordinate's log rows are compiled together once per curve
        (`_compile_log_rows`), so a call evaluates all of them in one pass.
        """
        if self._log_rows is None:
            self._log_rows = _compile_log_rows(self.coordinates)
        Lc, w = _log_values(self._log_rows, r * np.exp(1j * thetas))
        logs = np.abs(w)
        with np.errstate(divide="ignore"):
            np.log(logs, out=logs)
        logs += Lc
        L = np.max(logs, axis=0)
        del logs
        Lc -= L
        np.exp(Lc, out=Lc)
        w *= Lc
        return L, w

    def to_text(self) -> str:
        lines = [f"[curve] M={self.ambient_dim}"]
        lines.extend(c.to_text() for c in self.coordinates)
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"ProjectiveCurve({', '.join(c.to_text() for c in self.coordinates)})"


def _parse_complex_atom(sc: _Scanner, sign: int) -> QQi:
    """rational ['i'] or bare 'i'."""
    if sc.match_word("i"):
        return QQi(0, sign)
    value = sc.rational() * sign
    if sc.peek() == "i":
        sc.take()
        return QQi(0, value)
    return QQi(value)


def _parse_term(sc: _Scanner, sign: int) -> tuple[UnivariatePoly, UnivariatePoly]:
    """One product of factors as (exponent, coefficient): c * z^k * exp(p) is (p, c*z^k)."""
    coef = QQi(sign)
    power = 0
    exponent = UnivariatePoly()
    for ch in sc.factors():
        if sc.match_word("exp"):
            if sc.peek() != "(":
                raise sc.error("expected '(' after exp")
            sc.take()
            start = sc.pos
            arg = _parse_sum(sc, "exponent", ")")
            if not arg.is_polynomial:
                raise sc.error("exp argument must be a polynomial in z", start)
            exponent = exponent + arg.poly
        elif ch == "z":
            sc.take()
            k = 1
            if sc.peek() == "^":
                sc.take()
                k = sc.integer()
            power += k
        elif ch == "(":
            sc.take()
            total = QQi(0)
            for s in sc.terms("complex constant", ")"):
                total = total + _parse_complex_atom(sc, s)
            coef = coef * total
        elif ch.isdigit() or ch == "i":
            coef = coef * _parse_complex_atom(sc, 1)
        else:
            raise sc.error(f"expected a factor, found {ch!r}" if ch else "expected a factor")
    return exponent, UnivariatePoly([QQI_ZERO] * power + [coef])


def _parse_sum(sc: _Scanner, what: str, end: str = "") -> CurveCoordinate:
    """Terms joined by +/-, collected as they are read: coefficients that share
    an exponent add up under the key of its first term, and a key whose sum is
    zero drops out in CurveCoordinate."""
    out: dict[UnivariatePoly, UnivariatePoly] = {}
    for sign in sc.terms(what, end):
        p, c = _parse_term(sc, sign)
        out[p] = out[p] + c if p in out else c
    return CurveCoordinate(out)


def parse_coordinate(text: str, *, line: int | None = None) -> CurveCoordinate:
    """Parse one coordinate: terms in z and exp(poly) joined by +/-.

    Complex literals use rational parts with an `i` suffix; signed
    complex constants must be parenthesized, e.g. `(1-1/2i)*z^2`.
    Errors carry the column within `text` and `line`, when given.
    """
    return _parse_sum(_Scanner(text, line), "coordinate")


def parse_curve(text: str) -> ProjectiveCurve:
    """Parse the curve file format: a `[curve] M=<int>` header, then one coordinate per line."""
    lines = text.splitlines()
    header_idx = None
    for i, raw in enumerate(lines):
        if raw.strip():
            header_idx = i
            break
    if header_idx is None:
        raise ParseError("empty curve file")
    header = lines[header_idx].strip()
    if not header.startswith("[curve]"):
        raise ParseError("curve file must start with `[curve] M=<int>`", line=header_idx + 1)
    rest = header[len("[curve]"):].strip()
    if not rest.startswith("M="):
        raise ParseError("curve header must carry M=<int>", line=header_idx + 1)
    try:
        M = int(rest[2:])
    except ValueError:
        raise ParseError(f"bad ambient dimension {rest[2:]!r}", line=header_idx + 1) from None
    coords = []
    for offset, raw in enumerate(lines[header_idx + 1:], header_idx + 2):
        if raw.strip():
            coords.append(parse_coordinate(raw, line=offset))
    if len(coords) != M + 1:
        raise ParseError(f"expected {M + 1} coordinates, got {len(coords)}")
    return ProjectiveCurve(coords)


def compose(target: Polynomial, curve: ProjectiveCurve) -> CurveCoordinate:
    """Exact composition Q(f_0, ..., f_M), collected; zero exactly when Q vanishes on f."""
    if target.nvars != curve.ambient_dim + 1:
        raise ValueError(f"target has {target.nvars} variables, curve has {curve.ambient_dim + 1}")
    if curve.all_polynomial:
        # the same canonical polynomial, without the exponent-keyed terms
        return CurveCoordinate.from_poly(target.evaluate_exact(
            [c.poly for c in curve.coordinates], _ONE))
    return target.evaluate_exact(curve.coordinates,
                                 CurveCoordinate.from_poly(_ONE))
