"""Hypersurface arrangements on a projective variety.

Turns explicit arrangements into rank oracles via Groebner dimension
computations (exact vector ranks for hyperplanes of the whole space),
checks subgeneral position, and computes Hilbert functions
and Hilbert weights of the image variety of the arrangement's normalized
forms.  All linear algebra is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from typing import Sequence

from .errors import ParseError, ResourceBudgetError, VerificationError
from .linalg import Echelon, primitive
from .poly import (DEFAULT_GB_STEPS, Ideal, Polynomial, ideal_dimension,
                   monomials_of_degree, parse_polynomial, products_of_degree)
from .rank_core import (MAX_GROUND_SET, AxiomCheck, RankOracle, ValidationReport,
                        _set_str, check_costs, linear_matroid_oracle, validate_rank_oracle)

QM_BUDGET = 5000


@dataclass
class Arrangement:
    """Named hypersurfaces Q_1..Q_q on a declared variety V in projective M-space.

    An empty generator list means V is the whole space (then n = M and
    degV = 1).  Construction validates homogeneity, that no hypersurface
    contains V, and that the declared dimension matches the generators.
    Instances are treated as immutable.  `gb_steps` bounds every Groebner
    computation made on the arrangement, construction's checks included.
    """

    M: int
    n: int
    deg_v: int
    N: int
    variety_generators: tuple[Polynomial, ...]
    hypersurfaces: tuple[tuple[str, Polynomial], ...]
    var_names: tuple[str, ...] = ()
    gb_steps: int = DEFAULT_GB_STEPS
    _ideal: Ideal | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if not 1 <= self.n <= self.M:
            raise ValueError("need 1 <= n <= M")
        if self.deg_v < 1:
            raise ValueError("degV must be >= 1")
        if self.N < self.n:
            raise ValueError("N must be >= n")
        self.variety_generators = tuple(self.variety_generators)
        self.hypersurfaces = tuple((str(name), p) for name, p in self.hypersurfaces)
        if not self.var_names:
            self.var_names = tuple(f"x{i}" for i in range(self.M + 1))
        if len(self.var_names) != self.M + 1:
            raise ValueError("need M+1 variable names")
        if not 1 <= self.q <= MAX_GROUND_SET:
            raise ValueError(f"need 1..{MAX_GROUND_SET} hypersurfaces, got {self.q}")
        names = [name for name, _ in self.hypersurfaces]
        if len(set(names)) != len(names):
            raise ValueError("hypersurface names must be unique")
        for g in self.variety_generators:
            if g.nvars != self.M + 1:
                raise ValueError("variety generator has wrong variable count")
            if g.is_zero or not g.is_homogeneous:
                raise ValueError("variety generators must be nonzero homogeneous")
        for name, p in self.hypersurfaces:
            if p.nvars != self.M + 1:
                raise ValueError(f"hypersurface {name} has wrong variable count")
            if p.is_zero or not p.is_homogeneous or p.degree < 1:
                raise ValueError(f"hypersurface {name} must be homogeneous of degree >= 1")
        if not self.variety_generators:
            if self.n != self.M or self.deg_v != 1:
                raise ValueError("with no variety generators, V is the whole space: n = M, degV = 1")
        else:
            dim = ideal_dimension(self.variety_ideal())
            if dim != self.n:
                raise ValueError(f"declared n = {self.n} but the variety ideal has dimension {dim}")
        for name, p in self.hypersurfaces:
            if self.variety_ideal().normal_form(p).is_zero:
                raise ValueError(f"hypersurface {name} contains the variety")

    @property
    def q(self) -> int:
        return len(self.hypersurfaces)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(p.degree for _, p in self.hypersurfaces)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.hypersurfaces)

    @property
    def forms(self) -> tuple[Polynomial, ...]:
        return tuple(p for _, p in self.hypersurfaces)

    @property
    def is_linear(self) -> bool:
        """Hyperplanes of the whole space: no variety generators, every form linear."""
        return not self.variety_generators and all(d == 1 for d in self.degrees)

    @property
    def lcm_degree(self) -> int:
        return lcm(*self.degrees)

    @property
    def delta_bound(self) -> int:
        """Degree bound d^n * degV for the image variety of the normalized forms."""
        return self.lcm_degree ** self.n * self.deg_v

    def variety_ideal(self) -> Ideal:
        if self._ideal is None:
            self._ideal = Ideal(self.variety_generators, nvars=self.M + 1,
                                max_steps=self.gb_steps)
        return self._ideal

    def normalized_forms(self) -> tuple[Polynomial, ...]:
        """The hypersurface forms raised to d/d_j, all of common degree d."""
        d = self.lcm_degree
        return tuple(p ** (d // p.degree) for p in self.forms)


def codim_oracle(arr: Arrangement) -> RankOracle:
    """Rank oracle with c(R) = n - dim(V cut by the R-indexed hypersurfaces).

    Empty intersections give dimension -1, hence c = n+1.  Hyperplanes of
    the whole space (no variety generators, every form of degree 1) get
    exact ranks with no Groebner work: there c(R) = M - dim is the rank of
    the coefficient vectors of R, read by `linear_matroid_oracle`.
    Otherwise the table is filled by Groebner dimension computations in
    order of subset size with monotone pruning: supersets of a spanning
    subset are spanning.
    """
    q, n = arr.q, arr.n
    forms = arr.forms
    if arr.is_linear:
        return linear_matroid_oracle([p.linear_coefficients() for p in forms], arr.N)
    base = list(arr.variety_generators)
    table = [0] * (1 << q)
    by_size: list[list[int]] = [[] for _ in range(q + 1)]
    for mask in range(1, 1 << q):
        by_size[mask.bit_count()].append(mask)
    for size in range(1, q + 1):
        for mask in by_size[size]:
            pruned = False
            m = mask
            while m:
                low = m & -m
                if table[mask ^ low] == n + 1:
                    pruned = True
                    break
                m ^= low
            if pruned:
                table[mask] = n + 1
                continue
            gens = base + [forms[j] for j in range(q) if mask >> j & 1]
            dim = ideal_dimension(Ideal(gens, nvars=arr.M + 1, max_steps=arr.gb_steps))
            c = n - dim
            if not 0 <= c <= n + 1:
                raise VerificationError(
                    f"subset {_set_str(mask)} yields dimension {dim}, outside the declared range")
            table[mask] = c
    return RankOracle(q, n, arr.N, tuple(table))


@dataclass(frozen=True)
class PositionReport:
    """Subgeneral-position verdict: exact condition (i), proxy-checked condition (ii)."""

    N: int
    condition_i: AxiomCheck
    condition_ii: ValidationReport
    oracle: RankOracle

    condition_ii_mode = "proxy"

    @property
    def ok(self) -> bool:
        return self.condition_i.ok and self.condition_ii.ok

    def as_dict(self) -> dict:
        return {
            "N": self.N,
            "ok": self.ok,
            "condition_i": {"ok": self.condition_i.ok, "witness": self.condition_i.witness},
            "condition_ii": {"mode": self.condition_ii_mode,
                             **self.condition_ii.as_dict()},
        }


def check_subgeneral_position(arr: Arrangement, *,
                              oracle: RankOracle | None = None) -> PositionReport:
    """Check N-subgeneral position.

    Condition (i) -- every (N+1)-subset meets V in the empty set -- is
    exact.  The component-containment condition (ii) is checked through
    its oracle-level consequence only: the induced rank oracle must pass
    every validation axiom including exchange.  The report labels that
    check "proxy"; it is not an exact verification of (ii).
    """
    if oracle is None:
        oracle = codim_oracle(arr)
    witness = None
    for mask in range(1 << arr.q):
        if mask.bit_count() == arr.N + 1 and oracle.table[mask] != arr.n + 1:
            witness = f"{_set_str(mask)} meets V (c = {oracle.table[mask]})"
            break
    cond_i = AxiomCheck("empty-(N+1)-intersections", witness is None, witness)
    cond_ii = validate_rank_oracle(oracle)
    return PositionReport(arr.N, cond_i, cond_ii, oracle)


@dataclass(frozen=True)
class HilbertData:
    """Dimension of the degree-m slice of the image coordinate ring, with a monomial basis."""

    m: int
    H: int
    q_m: int
    basis: tuple[tuple[int, ...], ...]
    matrix_provenance: str

    def as_dict(self) -> dict:
        return {"m": self.m, "H": self.H, "q_m": self.q_m,
                "basis": [list(b) for b in self.basis],
                "matrix_provenance": self.matrix_provenance}


def _degree_m_vectors(arr: Arrangement,
                      m: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Exponent vectors of degree m and, for each, the content-free integer
    coefficient vector of the product of normalized forms, reduced modulo the
    variety ideal."""
    total = comb(arr.q + m - 1, m)
    if total > QM_BUDGET:
        raise ResourceBudgetError(f"q_m = {total} exceeds budget {QM_BUDGET}")
    exponents = list(monomials_of_degree(arr.q, m))
    reduce = arr.variety_ideal().normal_form if arr.variety_generators else None
    reduced = list(products_of_degree(arr.normalized_forms(), m, reduce))
    support = sorted({mono for p in reduced for mono in p.terms}, reverse=True)
    index = {mono: i for i, mono in enumerate(support)}
    vectors = []
    for p in reduced:
        row = [0] * len(support)
        for mono, coeff in p.terms.items():
            row[index[mono]] = coeff
        vectors.append(primitive(row))
    return exponents, vectors


def hilbert_function(arr: Arrangement, m: int) -> HilbertData:
    """H(m) = rank of the degree-m products of normalized forms modulo the variety.

    The basis is chosen greedily in exponent order (lexicographically
    descending over the exponent vectors).  For a positive-dimensional
    variety H(m) >= m+1 is enforced.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    exponents, vectors = _degree_m_vectors(arr, m)
    ech = Echelon()
    basis = [exponents[i] for i, v in enumerate(vectors) if ech.insert(v)]
    H = ech.rank
    q_m = len(exponents)
    if H > q_m:
        raise VerificationError("rank exceeded the family size")
    if arr.n >= 1 and H < m + 1:
        raise VerificationError(f"H({m}) = {H} < m+1 = {m + 1}: the image cannot be positive-dimensional")
    provenance = (f"rank over Q of the {q_m} degree-{m} monomials in the {arr.q} "
                  f"normalized forms (common degree {arr.lcm_degree}), reduced modulo "
                  f"the variety ideal")
    return HilbertData(m, H, q_m, tuple(basis), provenance)


@dataclass(frozen=True)
class HilbertWeightResult:
    m: int
    H: int
    S: Fraction
    basis: tuple[tuple[int, ...], ...]

    def as_dict(self) -> dict:
        return {"m": self.m, "H": self.H, "S": str(self.S),
                "basis": [list(b) for b in self.basis]}


def hilbert_weight(arr: Arrangement, m: int, costs: Sequence) -> HilbertWeightResult:
    """Maximal total cost of a monomial basis of the degree-m slice.

    Greedy over indices sorted by descending exponent-cost (ties by
    ascending index); greedy maximality over the basis matroid makes the
    result the true maximum over all monomial bases.
    """
    costs = check_costs(costs, arr.q)
    exponents, vectors = _degree_m_vectors(arr, m)
    weights = [sum((Fraction(e) * c for e, c in zip(exp, costs)), Fraction(0))
               for exp in exponents]
    order = sorted(range(len(exponents)), key=lambda i: (-weights[i], i))
    ech = Echelon()
    chosen: list[int] = []
    for i in order:
        if ech.insert(vectors[i]):
            chosen.append(i)
    S = sum((weights[i] for i in chosen), Fraction(0))
    return HilbertWeightResult(m, len(chosen), S,
                               tuple(exponents[i] for i in sorted(chosen)))


@dataclass(frozen=True)
class HilbertSlackReport:
    """Both sides of the normalized Hilbert-weight lower bound, exactly."""

    m: int
    H: int
    S: Fraction
    delta: int
    subset: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction

    @property
    def slack(self) -> Fraction:
        return self.lhs - self.rhs

    @property
    def ok(self) -> bool:
        return self.slack >= 0

    def as_dict(self) -> dict:
        return {"m": self.m, "H": self.H, "S": str(self.S), "delta": self.delta,
                "subset": list(self.subset), "lhs": str(self.lhs),
                "rhs": str(self.rhs), "slack": str(self.slack), "ok": self.ok}


def verify_hilbert_lower_bound(arr: Arrangement, m: int, costs: Sequence,
                               coordinate_subset: Sequence[int]) -> HilbertSlackReport:
    """Exact slack of S/(mH) >= (sum of the subset costs)/(n+1) - (2n+1) Delta max(c) / m.

    Requires m to exceed the image-degree bound and the n+1 chosen
    hypersurfaces to cut V down to the empty set (both hypotheses are
    checked, never silently assumed).
    """
    delta = arr.delta_bound
    if m <= delta:
        raise ValueError(f"need m > degree bound {delta}, got m = {m}")
    subset = tuple(sorted(set(int(i) for i in coordinate_subset)))
    if len(subset) != arr.n + 1:
        raise ValueError(f"coordinate subset must have n+1 = {arr.n + 1} distinct indices")
    if not all(1 <= i <= arr.q for i in subset):
        raise ValueError("coordinate subset indices must lie in 1..q")
    gens = list(arr.variety_generators) + [arr.forms[i - 1] for i in subset]
    if ideal_dimension(Ideal(gens, nvars=arr.M + 1, max_steps=arr.gb_steps)) != -1:
        raise ValueError("the chosen coordinate hypersurfaces do not cut V to the empty set")
    hw = hilbert_weight(arr, m, costs)
    costs = [Fraction(c) for c in costs]
    lhs = hw.S / (m * hw.H)
    cmax = max(costs)
    rhs = (sum((costs[i - 1] for i in subset), Fraction(0)) / (arr.n + 1)
           - Fraction((2 * arr.n + 1) * delta, m) * cmax)
    return HilbertSlackReport(m, hw.H, hw.S, delta, subset, lhs, rhs)


def format_arrangement(arr: Arrangement) -> str:
    lines = [f"[space] M={arr.M} n={arr.n} degV={arr.deg_v} N={arr.N}",
             "[vars] " + " ".join(arr.var_names),
             "[variety]"]
    lines.extend(g.to_text(arr.var_names) for g in arr.variety_generators)
    lines.append("[hypersurfaces]")
    lines.extend(f"{name} : {p.to_text(arr.var_names)}" for name, p in arr.hypersurfaces)
    return "\n".join(lines) + "\n"


def parse_arrangement(text: str, *, gb_steps: int = DEFAULT_GB_STEPS) -> Arrangement:
    """Parse the arrangement file format (see `format_arrangement`).

    `gb_steps` is the arrangement's Groebner budget; it already bounds the
    dimension and containment checks made while constructing it.
    """
    header = None
    var_names: tuple[str, ...] = ()
    variety: list[Polynomial] = []
    hypersurfaces: list[tuple[str, Polynomial]] = []
    section = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[space]"):
            fields = {}
            for token in line[len("[space]"):].split():
                if "=" not in token:
                    raise ParseError(f"bad header token {token!r}", line=ln)
                key, _, value = token.partition("=")
                try:
                    fields[key] = int(value)
                except ValueError:
                    raise ParseError(f"bad integer in {token!r}", line=ln) from None
            missing = {"M", "n", "degV", "N"} - set(fields)
            if missing:
                raise ParseError(f"header missing {sorted(missing)}", line=ln)
            header = fields
            section = "space"
        elif line.startswith("[vars]"):
            var_names = tuple(line[len("[vars]"):].split())
            section = "vars"
        elif line.startswith("[variety]"):
            section = "variety"
        elif line.startswith("[hypersurfaces]"):
            section = "hypersurfaces"
        elif section == "variety":
            if not var_names:
                raise ParseError("[vars] must precede polynomials", line=ln)
            try:
                variety.append(parse_polynomial(line, var_names,
                                                require_homogeneous=True,
                                                require_nonzero=True))
            except ParseError as exc:
                raise ParseError(str(exc), line=ln) from None
        elif section == "hypersurfaces":
            if not var_names:
                raise ParseError("[vars] must precede polynomials", line=ln)
            if ":" not in line:
                raise ParseError("expected `name : polynomial`", line=ln)
            name, _, body = line.partition(":")
            try:
                p = parse_polynomial(body.strip(), var_names,
                                     require_homogeneous=True, require_nonzero=True)
            except ParseError as exc:
                raise ParseError(str(exc), line=ln) from None
            hypersurfaces.append((name.strip(), p))
        else:
            raise ParseError(f"unexpected content {line!r}", line=ln)
    if header is None:
        raise ParseError("missing [space] header")
    if not var_names:
        raise ParseError("missing [vars] section")
    if len(var_names) != header["M"] + 1:
        raise ParseError(f"expected {header['M'] + 1} variables, got {len(var_names)}")
    try:
        return Arrangement(header["M"], header["n"], header["degV"], header["N"],
                           tuple(variety), tuple(hypersurfaces), var_names, gb_steps)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
