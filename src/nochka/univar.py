"""Exact Gaussian-rational scalars and univariate polynomials.

The coefficient-exact substrate for curve coordinates, Wronskians,
square-free multiplicity extraction, and the lifted-curve rank
computations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np


class QQi:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def of(cls, value) -> "QQi":
        if isinstance(value, QQi):
            return value
        return cls(value)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, QQi):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __add__(self, other):
        other = QQi.of(other)
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = QQi.of(other)
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return QQi.of(other) - self

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QQi(self.re * other, self.im * other)
        other = QQi.of(other)
        return QQi(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QQi(self.re / other, self.im / other)
        other = QQi.of(other)
        d = other.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero")
        return QQi((self.re * other.re + self.im * other.im) / d,
                   (self.im * other.re - self.re * other.im) / d)

    def __rtruediv__(self, other):
        return QQi.of(other) / self

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        im = "i" if abs(self.im) == 1 else f"{abs(self.im)}i"
        sign = "-" if self.im < 0 else "+"
        if self.re == 0:
            return im if sign == "+" else f"-{im}"
        return f"{self.re}{sign}{im}"

    def __repr__(self) -> str:
        return f"QQi({self.re!r}, {self.im!r})"


QQI_ZERO = QQi(0)
QQI_ONE = QQi(1)


class UnivariatePoly:
    """Dense univariate polynomial over QQi, coefficients low to high.

    `_complex` caches the coefficients as Python complexes once a numeric
    evaluation needs them; it takes no part in equality or hashing.
    """

    __slots__ = ("coeffs", "_complex")

    def __init__(self, coeffs: Iterable = ()):
        cs = [QQi.of(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)
        self._complex: tuple[complex, ...] | None = None

    @classmethod
    def constant(cls, value) -> "UnivariatePoly":
        return cls([value])

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple]) -> "UnivariatePoly":
        """Build from (coefficient, power) pairs, accumulating repeats."""
        acc: dict[int, QQi] = {}
        top = -1
        for coeff, power in pairs:
            power = int(power)
            if power < 0:
                raise ValueError("negative power")
            acc[power] = acc.get(power, QQI_ZERO) + QQi.of(coeff)
            top = max(top, power)
        return cls([acc.get(k, QQI_ZERO) for k in range(top + 1)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> QQi:
        if self.is_zero:
            raise ValueError("zero polynomial")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, UnivariatePoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UnivariatePoly(out)

    def __sub__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        return self + (-other)

    def __neg__(self) -> "UnivariatePoly":
        return UnivariatePoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            return self.scale(other)
        if self.is_zero or other.is_zero:
            return UnivariatePoly()
        out = [QQI_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UnivariatePoly(out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor) -> "UnivariatePoly":
        factor = QQi.of(factor)
        return UnivariatePoly([c * factor for c in self.coeffs])

    def __pow__(self, exponent: int) -> "UnivariatePoly":
        if exponent < 0:
            raise ValueError("negative power")
        result = UnivariatePoly([1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def derivative(self) -> "UnivariatePoly":
        return UnivariatePoly([c * k for k, c in enumerate(self.coeffs)][1:])

    def divmod_exact(self, divisor: "UnivariatePoly") -> tuple["UnivariatePoly", "UnivariatePoly"]:
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dd = divisor.degree
        lead = divisor.leading
        quot = [QQI_ZERO] * max(0, len(rem) - dd)
        for k in range(len(rem) - dd - 1, -1, -1):
            c = rem[k + dd]
            if c.is_zero:
                continue
            f = c / lead
            quot[k] = f
            for i, dc in enumerate(divisor.coeffs):
                rem[k + i] = rem[k + i] - f * dc
        return UnivariatePoly(quot), UnivariatePoly(rem[:dd])

    def monic(self) -> "UnivariatePoly":
        if self.is_zero:
            return self
        return self.scale(QQI_ONE / self.leading)

    @property
    def complex_coeffs(self) -> tuple[complex, ...]:
        """complex(c) for each coefficient, low to high, converted once per polynomial."""
        if self._complex is None:
            self._complex = tuple(complex(c) for c in self.coeffs)
        return self._complex

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        acc = np.zeros_like(z)
        for c in reversed(self.complex_coeffs):
            acc = acc * z + c
        return acc

    def numpy_coeffs(self) -> np.ndarray:
        return np.array(self.complex_coeffs, dtype=np.complex128)

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        return _join_signed(_signed_monomials(self, ""))

    def __repr__(self) -> str:
        return f"UnivariatePoly({self.to_text()})"


def _signed_monomials(p: UnivariatePoly, suffix: str) -> list[tuple[str, str]]:
    """(sign, body) per nonzero monomial of p in z, highest power first; `suffix` ends each body."""
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c.is_zero:
            continue
        sign = "+"
        if c.im == 0 and c.re < 0:
            sign, c = "-", -c
        if k == 0:
            body = _coeff_text(c)
        else:
            zp = "z" if k == 1 else f"z^{k}"
            body = zp if c == QQI_ONE else f"{_coeff_text(c)}*{zp}"
        parts.append((sign, body + suffix))
    return parts


def _join_signed(parts: list[tuple[str, str]]) -> str:
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _coeff_text(c: QQi) -> str:
    text = str(c)
    if ("+" in text[1:]) or ("-" in text[1:]) or text.endswith("i"):
        return f"({text})"
    return text


def poly_gcd(a: UnivariatePoly, b: UnivariatePoly) -> UnivariatePoly:
    """Monic greatest common divisor via the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a.divmod_exact(b)[1]
    return a.monic() if not a.is_zero else a


def poly_gcd_many(polys: Sequence[UnivariatePoly]) -> UnivariatePoly:
    acc = UnivariatePoly()
    for p in polys:
        acc = poly_gcd(acc, p)
        if acc.degree == 0:
            break
    return acc


def squarefree_decomposition(p: UnivariatePoly) -> list[tuple[UnivariatePoly, int]]:
    """Yun decomposition: p = lead * prod g_k^k with g_k squarefree, pairwise coprime.

    Returns [(g_k, k)] for the factors of positive degree.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree < 1:
        return []
    p = p.monic()
    dp = p.derivative()
    a = poly_gcd(p, dp)
    if a.degree == 0:
        return [(p, 1)]
    b = p.divmod_exact(a)[0]
    c = dp.divmod_exact(a)[0]
    d = c - b.derivative()
    out: list[tuple[UnivariatePoly, int]] = []
    k = 1
    while b.degree > 0:
        g = poly_gcd(b, d)  # monic; constant 1 when no factor has multiplicity k
        if g.degree > 0:
            out.append((g, k))
        b = b.divmod_exact(g)[0]
        c = d.divmod_exact(g)[0]
        d = c - b.derivative()
        k += 1
    return out
