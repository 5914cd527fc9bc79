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

Circle evaluation returns log-magnitudes and max-rescaled values so that
downstream quadrature never overflows on homogeneous targets: for a
homogeneous Q of degree d, log|Q(f)| = d*log||f|| + log|Q(w)| with
w = f * exp(-log||f||).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ParseError
from .poly import Polynomial, _Scanner
from .univar import (QQi, UnivariatePoly, _join_signed, _signed_monomials,
                     poly_gcd_many)

_ZERO = UnivariatePoly()


@dataclass(frozen=True)
class ExpTerm:
    """One exponential term c * z^power * exp(exponent(z))."""

    coef: QQi
    power: int
    exponent: UnivariatePoly


class CurveCoordinate:
    """Exponential polynomial in collected normal form (see the module docstring).

    `terms` maps exponent polynomials to nonzero coefficient polynomials;
    `poly` is the coordinate as a UnivariatePoly when its only key is 0
    (the zero polynomial when it has none), else None.  `_dterms` holds the
    derivative's terms once `value_and_derivative` has needed them.
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

    @classmethod
    def from_terms(cls, terms: Sequence[ExpTerm]) -> "CurveCoordinate":
        """Collect terms by exponent, summing their coefficients."""
        pairs: dict[UnivariatePoly, list] = {}
        for t in terms:
            pairs.setdefault(t.exponent, []).append((t.coef, t.power))
        return cls({p: UnivariatePoly.from_pairs(cp) for p, cp in pairs.items()})

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
            out[p] = dc + c * p.derivative() if p.coeffs else dc
        return CurveCoordinate(out)

    def value_and_derivative(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f(z), f'(z)), computing exp(p(z)) once per exponent key.

        (c exp(p))' = (c' + c p') exp(p) keeps the key p, so f and f' share
        each exponential.
        """
        if self._dterms is None:
            self._dterms = self.derivative().terms
        z = np.asarray(z, dtype=np.complex128)
        total = np.zeros_like(z)
        dtotal = np.zeros_like(z)
        with np.errstate(over="ignore", invalid="ignore"):
            for p, c in self.terms.items():
                e = np.exp(p.eval_array(z)) if p.coeffs else 1.0
                total = total + c.eval_array(z) * e
                d = self._dterms.get(p)
                if d is not None:
                    dtotal = dtotal + d.eval_array(z) * e
        return total, dtotal

    def log_values(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (L, w) with the coordinate value equal to w * exp(L), |w| <= #terms.

        For polynomial coordinates L = 0; for exponential sums L is the
        largest term log-magnitude, keeping w in floating range.
        """
        z = np.asarray(z, dtype=np.complex128)
        if self.poly is not None:
            return np.zeros(z.shape), self.poly.eval_array(z)
        logs = []
        with np.errstate(divide="ignore"):
            log_z = np.log(z)
            for p, c in self.terms.items():
                pz = p.eval_array(z)
                # log|a| drops the phase of a: w * exp(L) is the value only when
                # every coefficient is positive real (open defect, see ROADMAP.md)
                logs.extend(np.log(np.abs(ca)) + k * log_z + pz
                            for k, (a, ca) in enumerate(zip(c.coeffs, c.complex_coeffs))
                            if not a.is_zero)
        stacked = np.stack(logs)
        L = np.max(stacked.real, axis=0)
        w = np.sum(np.exp(stacked - L), axis=0)
        return L, w

    def log_abs_array(self, z: np.ndarray) -> np.ndarray:
        L, w = self.log_values(z)
        with np.errstate(divide="ignore"):
            return L + np.log(np.abs(w))

    def to_text(self) -> str:
        if self.poly is not None:
            return self.poly.to_text()
        parts = []
        for p, c in self.terms.items():
            parts += _signed_monomials(c, f"*exp({p.to_text()})" if p.coeffs else "")
        return _join_signed(parts)

    def __repr__(self) -> str:
        return f"CurveCoordinate({self.to_text()})"


class ProjectiveCurve:
    """Reduced representation of a holomorphic curve by M+1 coordinates."""

    __slots__ = ("coordinates",)

    def __init__(self, coordinates: Sequence[CurveCoordinate]):
        coords = tuple(coordinates)
        if len(coords) < 2:
            raise ValueError("need at least two coordinates")
        if all(c.is_zero for c in coords):
            raise ValueError("all coordinates vanish")
        self.coordinates = coords
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
        """Return (L, W): L = log max_i |f_i| on |z| = r, W the coordinates scaled by exp(-L)."""
        z = r * np.exp(1j * thetas)
        logs = []
        scaled = []
        for c in self.coordinates:
            Lc, w = c.log_values(z)
            with np.errstate(divide="ignore"):
                logs.append(Lc + np.log(np.abs(w)))
            scaled.append((Lc, w))
        L = np.max(np.stack(logs), axis=0)
        W = np.stack([w * np.exp(Lc - L) for Lc, w in scaled])
        return L, W

    def to_text(self) -> str:
        lines = [f"[curve] M={self.ambient_dim}"]
        lines.extend(c.to_text() for c in self.coordinates)
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"ProjectiveCurve({', '.join(c.to_text() for c in self.coordinates)})"


def _parse_complex_atom(sc: _Scanner, sign: int) -> QQi:
    """rational ['i'] or bare 'i'."""
    if sc.peek() == "i" and not sc.text.startswith("i", sc.pos + 1):
        nxt = sc.text[sc.pos + 1] if sc.pos + 1 < len(sc.text) else ""
        if not (nxt.isalnum() or nxt == "_"):
            sc.take()
            return QQi(0, sign)
    value = sc.rational() * sign
    if sc.peek() == "i":
        sc.take()
        return QQi(0, value)
    return QQi(value)


def _parse_paren_complex(sc: _Scanner) -> QQi:
    sc.take()  # (
    total = QQi(0)
    sign = 1
    if sc.peek() in "+-":
        sign = -1 if sc.take() == "-" else 1
    total = total + _parse_complex_atom(sc, sign)
    while sc.peek() in "+-":
        sign = -1 if sc.take() == "-" else 1
        total = total + _parse_complex_atom(sc, sign)
    if sc.peek() != ")":
        raise sc.error("expected ')'")
    sc.take()
    return total


def _parse_term(sc: _Scanner, sign: int) -> tuple[QQi, int, UnivariatePoly]:
    coef = QQi(sign)
    power = 0
    exponent = UnivariatePoly()
    saw_factor = False
    while True:
        ch = sc.peek()
        if sc.match_word("exp"):
            if sc.peek() != "(":
                raise sc.error("expected '(' after exp")
            sc.take()
            depth = 1
            start = sc.pos
            while sc.pos < len(sc.text) and depth:
                c = sc.text[sc.pos]
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                sc.pos += 1
            if depth:
                raise sc.error("unbalanced parentheses in exp(...)")
            inner = sc.text[start:sc.pos - 1]
            arg = parse_coordinate(inner, line=sc.line)
            if not arg.is_polynomial:
                raise sc.error("exp argument must be a polynomial in z")
            exponent = exponent + arg.poly
        elif ch == "z":
            sc.take()
            k = 1
            if sc.peek() == "^":
                sc.take()
                k = sc.integer()
                if k < 0:
                    raise sc.error("exponent must be nonnegative")
            power += k
        elif ch == "(":
            coef = coef * _parse_paren_complex(sc)
        elif ch.isdigit() or ch == "i":
            coef = coef * _parse_complex_atom(sc, 1)
        else:
            raise sc.error(f"expected a factor, found {ch!r}" if ch else "expected a factor")
        saw_factor = True
        if sc.peek() == "*":
            sc.take()
            continue
        break
    if not saw_factor:
        raise sc.error("empty term")
    return coef, power, exponent


def parse_coordinate(text: str, *, line: int | None = None) -> CurveCoordinate:
    """Parse one coordinate: terms in z and exp(poly) joined by +/-.

    Complex literals use rational parts with an `i` suffix; signed
    complex constants must be parenthesized, e.g. `(1-1/2i)*z^2`.
    """
    sc = _Scanner(text, line)
    terms: list[ExpTerm] = []
    first = True
    while True:
        ch = sc.peek()
        if not ch:
            if first:
                raise sc.error("empty coordinate")
            break
        sign = 1
        if ch in "+-":
            sc.take()
            sign = -1 if ch == "-" else 1
        elif not first:
            raise sc.error(f"expected '+' or '-', found {ch!r}")
        coef, power, exponent = _parse_term(sc, sign)
        terms.append(ExpTerm(coef, power, exponent))
        first = False
    return CurveCoordinate.from_terms(terms)


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
            coords.append(parse_coordinate(raw.strip(), line=offset))
    if len(coords) != M + 1:
        raise ParseError(f"expected {M + 1} coordinates, got {len(coords)}")
    return ProjectiveCurve(coords)


def compose(target: Polynomial, curve: ProjectiveCurve) -> CurveCoordinate:
    """Exact composition Q(f_0, ..., f_M), collected; zero exactly when Q vanishes on f."""
    if target.nvars != curve.ambient_dim + 1:
        raise ValueError(f"target has {target.nvars} variables, curve has {curve.ambient_dim + 1}")
    return target.evaluate_exact(curve.coordinates,
                                 CurveCoordinate.from_poly(UnivariatePoly.constant(1)))
