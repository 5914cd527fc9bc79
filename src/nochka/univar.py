"""Exact Gaussian-rational scalars and univariate polynomials.

The one Q(i)[z] arithmetic behind curve coordinates, Wronskians,
square-free multiplicity extraction, and the lifted-curve rank
computations.  A polynomial is a pair of integer coefficient tuples over
one positive denominator, (re + i*im) / den, in a canonical form:
products are integer convolutions, sums align denominators by their lcm,
and division is pseudo-division by the monic divisor, whose numerator has
an integer leading coefficient.  `QQi` scalars appear only at the
boundary: the parser's literals, and the coefficient view that text, the
exact test of phi(0) = 0 and tests read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


def float_or_zero(num: int, den: int = 1) -> float:
    """num / den rounded to the nearest float, as float(Fraction) rounds, so
    0.0 below the float range; a value past it raises ValueError naming it."""
    try:
        return num / den
    except OverflowError:
        raise ValueError(f"coefficient {Fraction(num, den)} is past the float range") from None


def float_of(num: int, den: int = 1) -> float:
    """`float_or_zero`, except that a nonzero value that rounds to 0.0 raises
    ValueError naming it."""
    value = float_or_zero(num, den)
    if num and not value:
        raise ValueError(f"coefficient {Fraction(num, den)} is below the float range")
    return value


class QQi:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

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
        if not (self.im or other.im):
            return QQi(self.re * other.re, self.im)
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

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        return complex(float_of(self.re.numerator, self.re.denominator),
                       float_of(self.im.numerator, self.im.denominator))

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


class UnivariatePoly:
    """Polynomial (re + i*im) / den over Q(i), coefficients low to high.

    `re` and `im` are integer tuples of one length and `den` is a positive
    integer.  The form is canonical: no trailing coefficient is zero, and
    den is coprime to the entries taken together, so equality and hashing
    compare the three fields.  Arithmetic stays on these integers; the
    QQi view (`coeffs`, `leading`) serves text and tests.  `_complex`
    caches the coefficients as Python complexes once a numeric evaluation
    needs them; it takes no part in equality or hashing.
    """

    __slots__ = ("re", "im", "den", "_complex")

    def __init__(self, coeffs: Iterable = ()):
        cs = [QQi.of(c) for c in coeffs]
        den = math.lcm(*(x.denominator for c in cs for x in (c.re, c.im)))
        self._reduce([c.re.numerator * (den // c.re.denominator) for c in cs],
                     [c.im.numerator * (den // c.im.denominator) for c in cs], den)

    @classmethod
    def _of(cls, re: Sequence[int], im: Sequence[int], den: int) -> "UnivariatePoly":
        """(re + i*im) / den in canonical form; den > 0."""
        p = cls.__new__(cls)
        p._reduce(re, im, den)
        return p

    def _reduce(self, re: Sequence[int], im: Sequence[int], den: int) -> None:
        n = len(re)
        while n and not (re[n - 1] or im[n - 1]):
            n -= 1
        re, im = re[:n], im[:n]
        g = math.gcd(den, *re, *im)
        if g > 1:
            re, im, den = [x // g for x in re], [y // g for y in im], den // g
        self.re, self.im, self.den = tuple(re), tuple(im), den
        self._complex: tuple[complex, ...] | None = None

    @classmethod
    def constant(cls, value) -> "UnivariatePoly":
        return cls([value])

    @property
    def coeffs(self) -> tuple[QQi, ...]:
        return tuple(QQi(Fraction(x, self.den), Fraction(y, self.den))
                     for x, y in zip(self.re, self.im))

    @property
    def degree(self) -> int:
        return len(self.re) - 1

    @property
    def is_zero(self) -> bool:
        return not self.re

    @property
    def leading(self) -> QQi:
        if self.is_zero:
            raise ValueError("zero polynomial")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return (isinstance(other, UnivariatePoly) and self.re == other.re
                and self.im == other.im and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.re, self.im, self.den))

    def __add__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        a, b = (self, other) if len(self.re) >= len(other.re) else (other, self)
        den = math.lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        re, im = [x * sa for x in a.re], [y * sa for y in a.im]
        for k, (x, y) in enumerate(zip(b.re, b.im)):
            re[k] += x * sb
            im[k] += y * sb
        return UnivariatePoly._of(re, im, den)

    def __sub__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        return self + (-other)

    def __neg__(self) -> "UnivariatePoly":
        return UnivariatePoly._of([-x for x in self.re], [-y for y in self.im], self.den)

    def __mul__(self, other) -> "UnivariatePoly":
        """Convolution of the integer numerators; a rational factor scales
        them, any other scalar is a constant polynomial."""
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            n = other.numerator
            return UnivariatePoly._of([x * n for x in self.re], [y * n for y in self.im],
                                      self.den * other.denominator)
        if not isinstance(other, UnivariatePoly):
            other = UnivariatePoly.constant(other)
        re = [0] * (len(self.re) + len(other.re) - 1)
        im = re.copy()
        if any(self.im) or any(other.im):
            right = list(zip(other.re, other.im))
            for i, (x, y) in enumerate(zip(self.re, self.im)):
                if x or y:
                    for k, (u, v) in enumerate(right, i):
                        re[k] += x * u - y * v
                        im[k] += x * v + y * u
        else:  # real numerators: the imaginary parts stay zero
            for i, x in enumerate(self.re):
                if x:
                    for k, u in enumerate(other.re, i):
                        re[k] += x * u
        return UnivariatePoly._of(re, im, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "UnivariatePoly":
        if exponent < 0:
            raise ValueError("negative power")
        result, base = UnivariatePoly([1]), self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def derivative(self) -> "UnivariatePoly":
        return UnivariatePoly._of([k * x for k, x in enumerate(self.re)][1:],
                                  [k * y for k, y in enumerate(self.im)][1:], self.den)

    def _inverse_leading(self) -> "UnivariatePoly":
        """The constant 1 / leading coefficient: den * conj(a + bi) / (a^2 + b^2)."""
        a, b = self.re[-1], self.im[-1]
        return UnivariatePoly._of((a * self.den,), (-b * self.den,), a * a + b * b)

    def divmod_exact(self, divisor: "UnivariatePoly") -> tuple["UnivariatePoly", "UnivariatePoly"]:
        """(q, r) with self = q * divisor + r and deg r < deg divisor.

        Pseudo-division by the monic divisor m = M / lead, whose numerator M
        has the integer leading coefficient lead: lead^s * N = Q * M + R over
        the Gaussian integers, for the numerator N of self and s quotient
        terms, and each step divides its top coefficient by lead exactly.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        inverse = divisor._inverse_leading()
        monic = divisor * inverse
        mr, mi, lead = monic.re, monic.im, monic.den
        dm = len(mr) - 1
        steps = max(0, len(self.re) - dm)
        scale = lead ** steps
        re, im = [x * scale for x in self.re], [y * scale for y in self.im]
        qr, qi = [0] * steps, [0] * steps
        for k in range(steps - 1, -1, -1):
            c, d = re[k + dm], im[k + dm]
            if c or d:
                qr[k], qi[k] = c, d  # lead times the quotient term
                x, y = c // lead, d // lead
                for j, (u, v) in enumerate(zip(mr, mi), k):
                    re[j] -= x * u - y * v
                    im[j] -= x * v + y * u
        den = self.den * scale
        return (UnivariatePoly._of(qr, qi, den) * inverse,
                UnivariatePoly._of(re[:dm], im[:dm], den))

    def monic(self) -> "UnivariatePoly":
        return self * self._inverse_leading() if self.re else self

    @property
    def complex_coeffs(self) -> tuple[complex, ...]:
        """complex(c) for each coefficient, low to high, converted once per polynomial."""
        if self._complex is None:
            den = self.den
            self._complex = tuple(complex(float_of(x, den), float_of(y, den))
                                  for x, y in zip(self.re, self.im))
        return self._complex

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
        x, y = p.re[k], p.im[k]
        if not (x or y):
            continue
        sign = "+"
        if y == 0 and x < 0:
            sign, x = "-", -x
        c = QQi(Fraction(x, p.den), Fraction(y, p.den))
        if k == 0:
            body = _coeff_text(c)
        else:
            zp = "z" if k == 1 else f"z^{k}"
            body = zp if c == 1 else f"{_coeff_text(c)}*{zp}"
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
