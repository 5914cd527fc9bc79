"""Exact multivariate polynomials over the rationals with Groebner machinery.

Monomials are exponent tuples; a polynomial maps monomials to nonzero
`Fraction`s.  Everything here stays exact: the dimension and rank queries
feeding position checks must never see floating point.  The term order is
degree-reverse-lexicographic throughout: leading terms, division, Groebner
bases and printed term order all use `key_degrevlex`.

`next_level` steps the products of a family of factors from one degree to
the next in `monomials_of_degree` order; the Hilbert rows and the curve
lifts are built with it, one level at a time.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from operator import add, le, sub
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError, ResourceBudgetError, VerificationError
from .univar import _join_signed, float_of

Monomial = tuple[int, ...]

DEFAULT_GB_STEPS = 20_000
SLICE_BUDGET = 2_000_000


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def mono_quotient(a: Monomial, b: Monomial) -> Monomial:
    """a / b componentwise; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def key_degrevlex(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Monomial]:
    """All exponent tuples of the given total degree, lexicographically descending.

    Each is counted from a non-decreasing sequence of `degree` variable
    indices; those come in increasing lexicographic order, which is the
    descending order of their exponent tuples and the order in which
    `next_level` lays out each level of products."""
    for indices in combinations_with_replacement(range(nvars), degree):
        exponents = [0] * nvars
        for i in indices:
            exponents[i] += 1
        yield tuple(exponents)


def next_level(last: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """One level step of the products of q factors: given the last factor
    index of each product of degree k, in `monomials_of_degree(q, k)` order,
    the parent row and the last factor index of each product of degree
    k + 1, in `monomials_of_degree(q, k + 1)` order.  The children of row i
    are (i, j) for j >= last[i]; level 1 is `last = arange(q)`."""
    counts = q - last
    parent = np.repeat(np.arange(len(last)), counts)
    # the children of a row run from its last index to q - 1
    last = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - q, counts)
    return parent, last


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    The public constructor validates and normalizes outside input.  Results
    of arithmetic on polynomials are built by `_clean`, which trusts its
    terms to be canonical already.
    """

    __slots__ = ("nvars", "terms", "_lead")

    def __init__(self, nvars: int, terms: dict | None = None):
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            mono = tuple(int(e) for e in mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad monomial {mono} for {nvars} variables")
            clean[mono] = coeff
        self.nvars = nvars
        self.terms = clean
        self._lead: Monomial | None = None

    @classmethod
    def _clean(cls, nvars: int, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Wrap terms that are already canonical: nonzero `Fraction`
        coefficients on exponent tuples of length `nvars`."""
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        p._lead = None
        return p

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def monomial(cls, nvars: int, mono: Monomial, coeff=1) -> "Polynomial":
        return cls(nvars, {tuple(mono): Fraction(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=-1)

    @property
    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m)
            v = c if v is None else v + c
            if v:
                out[m] = v
            else:
                del out[m]
        return Polynomial._clean(self.nvars, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m)
            v = -c if v is None else v - c
            if v:
                out[m] = v
            else:
                del out[m]
        return Polynomial._clean(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._clean(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out: dict[Monomial, Fraction] = {}
            get = out.get
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = tuple(map(add, m1, m2))
                    v = get(m)
                    out[m] = c1 * c2 if v is None else v + c1 * c2
            return Polynomial._clean(self.nvars, {m: c for m, c in out.items() if c})
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor) -> "Polynomial":
        factor = Fraction(factor)
        if not factor:
            return Polynomial.zero(self.nvars)
        return Polynomial._clean(self.nvars, {m: c * factor for m, c in self.terms.items()})

    def mono_scale(self, mono: Monomial, coeff) -> "Polynomial":
        coeff = Fraction(coeff)
        if not coeff:
            return Polynomial.zero(self.nvars)
        if coeff == 1:  # the S-polynomials of a monic basis
            return Polynomial._clean(self.nvars, {mono_mul(m, mono): c
                                                  for m, c in self.terms.items()})
        return Polynomial._clean(self.nvars, {mono_mul(m, mono): c * coeff
                                              for m, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.nvars, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def leading_term(self) -> tuple[Monomial, Fraction]:
        lead = self._lead
        if lead is None:
            if self.is_zero:
                raise ValueError("zero polynomial has no leading term")
            lead = self._lead = max(self.terms, key=key_degrevlex)
        return lead, self.terms[lead]

    def monic(self) -> "Polynomial":
        _, lc = self.leading_term()
        return self if lc == 1 else self.scale(1 / lc)

    def derivative(self, index: int) -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m[index]
            if e:
                lowered = list(m)
                lowered[index] = e - 1
                out[tuple(lowered)] = c * e
        return Polynomial._clean(self.nvars, out)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: key_degrevlex(t[0]), reverse=True)

    def evaluate_exact(self, values: Sequence, one):
        """Evaluate at field elements; `one` is the value of the empty product."""
        total = None
        for mono, coeff in self.terms.items():
            term = None
            for i, e in enumerate(mono):
                for _ in range(e):
                    term = values[i] if term is None else term * values[i]
            term = (one if term is None else term) * coeff
            total = term if total is None else total + term
        return total if total is not None else one * 0

    def array_evaluator(self):
        """Numeric evaluation with complex128 arithmetic, vectorized over arrays,
        with the coefficients converted to complex once, here.

        Each variable's powers are formed once per call, by repeated
        multiplication and only as high as some term needs; a term is its
        coefficient as a Python complex times entries of that table, one per
        variable it contains, in variable order.
        """
        terms = [(complex(float_of(c.numerator, c.denominator)),
                  [(i, e) for i, e in enumerate(mono) if e])
                 for mono, c in self.terms.items()]

        def evaluate(values: Sequence[np.ndarray]) -> np.ndarray:
            values = [np.asarray(v, dtype=np.complex128) for v in values]
            total = np.zeros(np.broadcast_shapes(*(v.shape for v in values)),
                             dtype=np.complex128)
            powers = [[None, v] for v in values]
            for term, factors in terms:
                for i, e in factors:
                    table = powers[i]
                    while len(table) <= e:
                        table.append(table[-1] * values[i])
                    term = term * table[e]
                total += term
            return total

        return evaluate

    def linear_coefficients(self) -> list[Fraction]:
        """Coefficient vector of a linear form, one entry per variable."""
        vec = [Fraction(0)] * self.nvars
        for mono, c in self.terms.items():
            vec[mono.index(1)] = c
        return vec

    def max_abs_coeff(self) -> Fraction:
        return max((abs(c) for c in self.terms.values()), default=Fraction(0))

    def to_text(self, varnames: Sequence[str]) -> str:
        if self.is_zero:
            return "0"
        parts: list[tuple[str, str]] = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(varnames, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            body = "*".join(factors)
            if not factors:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            parts.append(("-" if coeff < 0 else "+", body))
        return _join_signed(parts)

    def __repr__(self) -> str:
        names = [f"x{i}" for i in range(self.nvars)]
        return f"Polynomial({self.to_text(names)})"


def normal_form(p: Polynomial, divisors: Sequence[Polynomial]) -> Polynomial:
    """Remainder of p under multivariate division by the divisor list.

    The next term to divide is popped from a heap keyed by (-degree,
    reversed exponents), the negated degrevlex key.  A monomial cancelled
    after it was pushed leaves a stale entry, which is skipped; every term a
    division step adds is smaller than the term it divides, so a popped
    monomial never comes back.
    """
    prepared = []
    for g in divisors:
        if g.is_zero:
            continue
        lm, lc = g.leading_term()
        tail = [(gm, gc) for gm, gc in g.terms.items() if gm != lm]
        prepared.append((lm, None if lc == 1 else lc, tail))
    work = dict(p.terms)
    heap = [(-sum(m), m[::-1], m) for m in work]
    heapq.heapify(heap)
    remainder: dict[Monomial, Fraction] = {}
    while heap:
        m = heapq.heappop(heap)[2]
        c = work.pop(m, None)
        if c is None:
            continue
        for lm, lc, tail in prepared:
            if all(map(le, lm, m)):
                quot = mono_quotient(m, lm)
                factor = c if lc is None else c / lc
                for gm, gc in tail:
                    target = tuple(map(add, gm, quot))
                    value = work.get(target)
                    if value is None:
                        work[target] = -factor * gc
                        heapq.heappush(heap, (-sum(target), target[::-1], target))
                    else:
                        value -= factor * gc
                        if value:
                            work[target] = value
                        else:
                            del work[target]
                break
        else:
            remainder[m] = c
    return Polynomial._clean(p.nvars, remainder)


def _s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lmf, lcf = f.leading_term()
    lmg, lcg = g.leading_term()
    l = mono_lcm(lmf, lmg)
    return (f.mono_scale(mono_quotient(l, lmf), 1 / lcf)
            - g.mono_scale(mono_quotient(l, lmg), 1 / lcg))


def groebner_basis(generators: Iterable[Polynomial],
                   max_steps: int = DEFAULT_GB_STEPS) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis via Buchberger.

    Pair selection is by minimal (degree, degrevlex key) of the pair lcm --
    the sugar strategy for homogeneous input.  Coprime leading terms and
    the chain criterion prune pairs.  Exceeding `max_steps` pair
    reductions raises ResourceBudgetError.
    """
    basis: list[Polynomial] = []
    for g in generators:
        if not g.is_zero and g not in basis:
            basis.append(g)
    if not basis:
        return ()
    nvars = basis[0].nvars
    if any(g.nvars != nvars for g in basis):
        raise ValueError("generators live in different rings")
    basis = [g.monic() for g in basis]

    lead = [g.leading_term()[0] for g in basis]
    heap: list[tuple] = []

    def push_pair(i: int, j: int):
        l = mono_lcm(lead[i], lead[j])
        heapq.heappush(heap, (sum(l), key_degrevlex(l), i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push_pair(i, j)

    done_pairs: set[tuple[int, int]] = set()
    steps = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        done_pairs.add((i, j))
        l = mono_lcm(lead[i], lead[j])
        if l == mono_mul(lead[i], lead[j]):
            continue  # coprime leading terms
        chain = False
        for k in range(len(basis)):
            if k in (i, j) or not mono_divides(lead[k], l):
                continue
            p1 = (min(i, k), max(i, k))
            p2 = (min(j, k), max(j, k))
            if p1 in done_pairs and p2 in done_pairs:
                chain = True
                break
        if chain:
            continue
        steps += 1
        if steps > max_steps:
            raise ResourceBudgetError(f"Groebner step budget {max_steps} exceeded")
        r = normal_form(_s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero:
            continue
        r = r.monic()
        basis.append(r)
        lead.append(r.leading_term()[0])
        new = len(basis) - 1
        for t in range(new):
            push_pair(t, new)

    # minimalize: drop elements whose leading term another leading term divides
    minimal: list[Polynomial] = []
    for g in sorted(basis, key=lambda h: key_degrevlex(h.leading_term()[0])):
        lm = g.leading_term()[0]
        if not any(mono_divides(h.leading_term()[0], lm) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(g, others)
        if not r.is_zero:
            reduced.append(r.monic())
    reduced.sort(key=lambda h: key_degrevlex(h.leading_term()[0]))
    return tuple(reduced)


class Ideal:
    """Homogeneous ideal with a lazily cached reduced Groebner basis.

    `max_steps` bounds the one Buchberger run that fills the cache; every
    query on the ideal (basis, normal form, dimension) goes through it.
    """

    __slots__ = ("generators", "nvars", "max_steps", "_gb")

    def __init__(self, generators: Iterable[Polynomial], nvars: int | None = None,
                 max_steps: int = DEFAULT_GB_STEPS):
        gens = tuple(g for g in generators if not g.is_zero)
        if nvars is None:
            if not gens:
                raise ValueError("nvars required for the zero ideal")
            nvars = gens[0].nvars
        for g in gens:
            if g.nvars != nvars:
                raise ValueError("generators live in different rings")
            if not g.is_homogeneous:
                raise ValueError("generators must be homogeneous")
        self.generators = gens
        self.nvars = nvars
        self.max_steps = max_steps
        self._gb: tuple[Polynomial, ...] | None = None

    def groebner(self) -> tuple[Polynomial, ...]:
        if self._gb is None:
            gb = groebner_basis(self.generators, self.max_steps)
            for g in self.generators:
                if not normal_form(g, gb).is_zero:
                    raise VerificationError("generator does not reduce to zero against its basis")
            self._gb = gb
        return self._gb

    def normal_form(self, p: Polynomial) -> Polynomial:
        return normal_form(p, self.groebner())

    def __repr__(self) -> str:
        return f"Ideal({len(self.generators)} generators in {self.nvars} variables)"


def ideal_dimension(ideal: Ideal) -> int:
    """Projective dimension of the vanishing set; -1 for the empty projective set.

    Computed combinatorially on the leading-term ideal: the affine
    dimension of the quotient is the largest variable subset containing no
    generator support.  When that count is zero the emptiness is
    cross-checked by reducing variable powers to zero.
    """
    gb = ideal.groebner()
    if any(g.degree == 0 for g in gb):
        return -1
    supports = [frozenset(i for i, e in enumerate(g.leading_term()[0]) if e)
                for g in gb]
    nvars = ideal.nvars
    best = 0
    for mask in range(1 << nvars):
        members = frozenset(i for i in range(nvars) if mask >> i & 1)
        if len(members) <= best:
            continue
        if all(not s <= members for s in supports):
            best = len(members)
    if best == 0 and gb:
        _check_irrelevant(ideal)
    return best - 1


def _check_irrelevant(ideal: Ideal) -> None:
    """Cross-check emptiness: every variable power must reduce to zero."""
    gb = ideal.groebner()
    k = max(g.degree for g in gb) + 1
    for _ in range(2):
        if all(ideal.normal_form(
                Polynomial.monomial(ideal.nvars, tuple(k if i == v else 0
                                                       for i in range(ideal.nvars)))).is_zero
               for v in range(ideal.nvars)):
            return
        k *= 2
    raise VerificationError("leading-term dimension says empty but variable powers do not vanish")


def degree_m_slice_rank(ideal: Ideal, m: int) -> int:
    """Dimension of the degree-m slice of the ideal as a rational vector space.

    Equals the count of degree-m monomials divisible by some leading term
    of the reduced basis (the quotient keeps the same Hilbert function as
    its leading-term degeneration).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    total = comb(ideal.nvars - 1 + m, m)
    if total > SLICE_BUDGET:
        raise ResourceBudgetError(f"degree-{m} slice has {total} monomials > budget {SLICE_BUDGET}")
    gb = ideal.groebner()
    if not gb:
        return 0
    leads = [g.leading_term()[0] for g in gb]
    return sum(1 for mono in monomials_of_degree(ideal.nvars, m)
               if any(mono_divides(lt, mono) for lt in leads))


class _Scanner:
    """Character scanner shared by the polynomial and curve parsers.

    Both grammars are sums of products, read through `terms` and `factors`.
    `line`, when given, goes into every ParseError; errors without it
    report the character position only.
    """

    def __init__(self, text: str, line: int | None = None):
        self.text = text
        self.pos = 0
        self.line = line
        self.start = 0  # where the last integer or name began

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def error(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at character index `at`, by default the current one."""
        return ParseError(message, line=self.line,
                          column=(self.pos if at is None else at) + 1)

    def terms(self, what: str, end: str = "") -> Iterator[int]:
        """Yield the sign of each term of `[+|-] term ((+|-) term)*`, then
        consume `end` (the end of the text when empty).

        The caller reads each term before asking for the next sign.
        """
        first = True
        while True:
            ch = self.peek()
            if ch == end:
                if first:
                    raise self.error(f"empty {what}")
                self.pos += len(end)
                return
            if not ch:
                raise self.error(f"expected {end!r}")
            if ch == "+" or ch == "-":
                sign_at = self.pos
                self.pos += 1
                if self.peek() in (end, ""):
                    raise self.error("dangling sign", sign_at)
                yield -1 if ch == "-" else 1
            elif first:
                yield 1
            else:
                raise self.error(f"expected '+' or '-', found {ch!r}")
            first = False

    def factors(self) -> Iterator[str]:
        """Yield the next character once before each factor of
        `factor ('*' factor)*`; the caller reads the factor."""
        yield self.peek()
        while self.peek() == "*":
            self.pos += 1
            yield self.peek()

    def match_word(self, word: str) -> bool:
        """Consume `word` if it comes next and is not the prefix of a longer name."""
        self.skip_ws()
        if self.text.startswith(word, self.pos):
            after = self.pos + len(word)
            nxt = self.text[after] if after < len(self.text) else ""
            if not (nxt.isalnum() or nxt == "_"):
                self.pos = after
                return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        self.start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.start == self.pos:
            raise self.error("expected an integer")
        return int(self.text[self.start:self.pos])

    def rational(self) -> Fraction:
        """`a` or `a/b` with nonnegative integers."""
        num = self.integer()
        if self.peek() == "/":
            self.take()
            den = self.integer()
            if den == 0:
                raise self.error("zero denominator", self.start)
            return Fraction(num, den)
        return Fraction(num)

    def name(self) -> str:
        self.skip_ws()
        self.start = self.pos
        while (self.pos < len(self.text)
               and (self.text[self.pos].isalnum() or self.text[self.pos] == "_")):
            self.pos += 1
        if self.start == self.pos:
            raise self.error("expected a name")
        return self.text[self.start:self.pos]


def parse_polynomial(text: str, varnames: Sequence[str], *,
                     line: int | None = None) -> Polynomial:
    """Parse `terms` separated by +/-; term = [rational] factors joined by `*`.

    A factor is a variable with optional `^power` or a rational `a` / `a/b`.
    Whitespace is insignificant.  Errors carry the column of the offending
    token and `line`, when given.
    """
    index = {name: i for i, name in enumerate(varnames)}
    nvars = len(varnames)
    sc = _Scanner(text, line)
    result = Polynomial.zero(nvars)
    for sign in sc.terms("polynomial"):
        coeff = Fraction(sign)
        mono = [0] * nvars
        for ch in sc.factors():
            if ch.isdigit():
                coeff *= sc.rational()
            elif ch.isalpha() or ch == "_":
                name = sc.name()
                if name not in index:
                    raise sc.error(f"unknown variable {name!r}", sc.start)
                power = 1
                if sc.peek() == "^":
                    sc.take()
                    power = sc.integer()
                    if power < 1:
                        raise sc.error("exponent must be a positive integer", sc.start)
                mono[index[name]] += power
            else:
                raise sc.error(f"expected a factor, found {ch!r}" if ch else "expected a factor")
        result = result + Polynomial.monomial(nvars, tuple(mono), coeff)
    return result
