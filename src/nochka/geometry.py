"""Hypersurface arrangements on a projective variety.

Turns explicit arrangements into rank oracles, checks subgeneral position,
and computes Hilbert functions and Hilbert weights of the image variety of
the arrangement's normalized forms.  All linear algebra is exact.

A rank oracle needs the dimension of V cut by each subset R of the
hypersurfaces.  The hyperplanes of R never go to Groebner: if their
coefficient vectors have rank k and an integer basis B of their common
kernel, then t -> B t is a linear isomorphism from projective (M - k)-space
onto the linear space L they cut out.  It maps the zero set of the other
polynomials restricted to p(B t) onto V cut by R, so both have the same
projective dimension, and only the restricted ideal, in M + 1 - k
variables, can need a Groebner basis.  None is needed when L is empty or
inside every other zero set, or when L is a point (the variety generators
and the forms that are not hyperplanes are evaluated there in integers).
Otherwise exact ranks certify the dimension of the restricted zero set
where they can: the projective dimension theorem bounds it from below, and
a linear section of the right dimension that misses it bounds it from
above, where Macaulay's theorem decides by one rank whether forms in at
most 3 variables have a common zero.  That settles one restricted
polynomial, any forms on a line or in a plane, and up to three forms in
any space, unless the probe section meets the zero set.  The polynomials
stay content-free integer terms throughout; only a Groebner run sees them
as `Polynomial`s.  The subsets are decided level by level, and only those
whose immediate subsets were all decided and are not spanning: the rest
span, by monotone pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, compress, repeat
from math import comb, gcd, lcm, prod
from operator import itemgetter, mul
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ParseError, ResourceBudgetError, VerificationError
from .linalg import Echelon, _units, primitive
from .poly import (DEFAULT_GB_STEPS, Ideal, Monomial, Polynomial, ideal_dimension,
                   monomials_of_degree, mono_mul, next_level, parse_polynomial)
from .rank_core import (MAX_GROUND_SET, AxiomCheck, RankOracle,
                        ValidationReport, _exact, _popcounts, _set_str, check_costs,
                        linear_matroid_oracle, validate_rank_oracle)

QM_BUDGET = 5000
_ROW_CHUNK = 256  # top-level Hilbert rows built and converted to tuples at a time


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
            # V is the whole space, which no nonzero form contains
            if self.n != self.M or self.deg_v != 1:
                raise ValueError("with no variety generators, V is the whole space: n = M, degV = 1")
            return
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
        return tuple(p if p.degree == d else p ** (d // p.degree) for p in self.forms)


def _integer_terms(p: Polynomial) -> dict[Monomial, int]:
    """The terms of the content-free integer multiple of p."""
    return dict(zip(p.terms, primitive(list(p.terms.values()))))


def _linear_space(parent: tuple[Echelon, list[tuple[int, ...]]], line: Sequence,
                  lines: Iterable[Sequence], width: int) -> tuple[Echelon, list[tuple[int, ...]]]:
    """The Echelon and the integer basis B of the common kernel of a linear
    space's hyperplanes, given those of the space `parent` and the one
    hyperplane `line` more; `lines` yields the coefficient vectors of every
    hyperplane the new space holds, `line` included.

    A line that `Echelon.extended` rejects has line . x = 0 for every x in
    the parent's checked basis, so the parent's (Echelon, B) is returned.
    A line that raises the rank to `width` cuts out the empty space, whose
    basis is empty.  Otherwise both defining properties of B are checked
    exactly: each row of `lines` times B is 0, and B has full column rank
    width - rank."""
    ech = parent[0].extended(line)
    if ech is None:
        return parent
    if ech.rank == width:
        return ech, []
    basis = ech.kernel(width)
    columns = Echelon()
    for b in basis:
        columns.insert(b)
    if (columns.rank != len(basis) or len(basis) != width - ech.rank
            or any(sum(map(mul, row, b)) for row in lines for b in basis)):
        raise VerificationError("the hyperplanes' kernel basis failed its exact check")
    return ech, basis


def _restrict(terms: dict[Monomial, int], basis: Sequence[tuple[int, ...]],
              powers: dict[int, tuple]) -> dict[Monomial, int]:
    """The content-free integer terms of p(B t) in the variables
    t = (t_0, ..., t_{len(B)-1}), where p is the nonzero form with the
    integer terms `terms` and column c of B is basis[c]; empty when p
    vanishes on the span of B.

    p(B t) is linear in p: it is the coefficients of p times the rows of
    the degree-deg(p) products of the coordinate forms
    x_i = sum_c basis[c][i] t_c (`_level_products`), summed in int64 only
    when the triangle inequality bounds every sum below 2^63.  `powers`
    keeps by degree those products, the row of each monomial and their
    largest absolute entry, for the next form restricted to the span of B."""
    d = sum(next(iter(terms)))
    if d not in powers:
        nvars = len(basis[0])
        coords = [[b[i] for b in basis] for i in range(nvars)]
        cols, blocks = _level_products(coords, _units(len(basis)), d)
        rows = np.concatenate(list(blocks))
        powers[d] = ({u: i for i, u in enumerate(monomials_of_degree(nvars, d))}, cols,
                     rows, int(np.abs(rows).max(initial=0)))
    at, cols, rows, top = powers[d]
    coeffs = list(terms.values())
    bound = sum(map(abs, coeffs)) * top
    total = (_exact(np.array(coeffs, dtype=object), bound)
             @ _exact(rows[[at[u] for u in terms]], bound)).tolist()
    g = gcd(*total)
    return {u: c // g for u, c in zip(cols, total) if c}


def _value_at(terms: dict[Monomial, int | Fraction], point: Sequence[int]) -> int | Fraction:
    """The form with these integer or rational terms at an integer point."""
    return sum(c * prod(map(pow, point, mono)) for mono, c in terms.items())


def _no_common_zero(gens: Sequence[dict[Monomial, int]], nvars: int,
                    layouts: dict[tuple[int, int, int], dict]) -> bool:
    """Whether nonzero integer forms (their terms) of positive degree at
    most d in nvars variables have no common zero in projective
    (nvars - 1)-space.

    Macaulay's theorem decides it by one rank: they have none exactly when
    their monomial multiples of degree D = nvars (d - 1) + 1 span every form
    of degree D.  If they have none, neither have their multiples of degree
    d, so nvars general combinations of those multiples are a regular
    sequence of forms of degree d, whose ideal holds every form of degree
    past nvars (d - 1).  A common zero p is a zero of every multiple, but
    not of the power x_i^D of a coordinate with p_i != 0.  Binary forms
    (nvars = 2) take degree 2d - 1.  `layouts` keeps by (nvars, D, degree)
    the column of each multiple a u of a monomial u of the degree: for each
    u, one column per multiplier a, in `monomials_of_degree` order."""
    degrees = [sum(next(iter(g))) for g in gens]
    D = nvars * (max(degrees) - 1) + 1
    width = comb(D + nvars - 1, nvars - 1)
    if sum(comb(D - d + nvars - 1, nvars - 1) for d in degrees) < width:
        return False  # too few multiples to span
    # the multiples by their first column, the multiplier times the form's
    # largest monomial, so the rows come in echelon-like order, in which the
    # elimination keeps its integers small
    multiples = []
    for g, d in zip(gens, degrees):
        layout = layouts.get((nvars, D, d))
        if layout is None:
            at = {u: i for i, u in enumerate(monomials_of_degree(nvars, D))}
            multipliers = list(monomials_of_degree(nvars, D - d))
            layout = layouts[nvars, D, d] = {
                u: [at[mono_mul(a, u)] for a in multipliers]
                for u in monomials_of_degree(nvars, d)}
        # per multiplier a, the column of a u for each monomial u of g
        columns = zip(*(layout[u] for u in g))
        multiples.extend(zip(layout[max(g)], columns, repeat(list(g.values()))))
    multiples.sort(key=itemgetter(0))
    ech = Echelon()
    for _, columns, coeffs in multiples:
        row = [0] * width
        for i, c in zip(columns, coeffs):
            row[i] = c
        if ech.insert(row) and ech.rank == width:
            return True
    return False


def _probe(nvars: int, c: int) -> list[tuple[int, ...]]:
    """c + 1 points (1, t, t^2, ..., t^(nvars - 1)) of the moment curve, for
    t = 3, 5, ..., 2c + 3: independent (their Vandermonde minor is nonzero),
    so they span a linear space of projective dimension c.  Small t would
    put the probe on the small integer points that hand-made forms favour."""
    return [tuple(t ** i for i in range(nvars)) for t in range(3, 2 * c + 4, 2)]


def _forms_dimension(gens: Sequence[dict[Monomial, int]], nvars: int, gb_steps: int,
                     probes: dict[tuple[int, int], dict], layouts: dict) -> int:
    """Projective dimension of the common zero set Z of s nonzero integer
    forms (their terms) of positive degree in nvars >= 2 variables, in P^k
    with k = nvars - 1.

    Z is a proper subset of P^k, so dim Z <= k - 1.  By the projective
    dimension theorem each form cuts a dimension by at most 1, so
    dim Z >= k - s when s <= k; when s > k and nvars <= 3, one Macaulay rank
    (`_no_common_zero`, with its layouts kept in `layouts`) says whether Z
    is empty (-1) or not (>= 0).  Where this lower bound differs from
    k - 1, a linear space of dimension c = k - 1 - lower <= 2, spanned by
    the points `_probe(nvars, c)`, that misses Z forces
    dim Z <= k - 1 - c, since it would meet any subset of P^k of dimension
    k - c or more; the forms restricted to it (`_restrict`, with the
    products kept in `probes` by (nvars, c)) missing each other is one more
    Macaulay rank in c + 1 variables.  That proves dim Z = lower.  A probe
    space that meets Z, and an emptiness question in more than 3 variables,
    take a Groebner basis under `gb_steps`, the one place the forms become
    `Polynomial`s."""
    k, s = nvars - 1, len(gens)
    if s <= k:
        lower = k - s
    elif nvars > 3:
        lower = None
    elif _no_common_zero(gens, nvars, layouts):
        return -1
    else:
        lower = 0
    if lower is not None:
        c = k - 1 - lower
        if c == 0:
            return lower
        if c <= 2:
            basis = _probe(nvars, c)
            powers = probes.setdefault((nvars, c), {})
            section = [r for r in (_restrict(g, basis, powers) for g in gens) if r]
            if section and _no_common_zero(section, c + 1, layouts):
                return lower
    return ideal_dimension(Ideal([Polynomial(nvars, g) for g in gens], nvars=nvars,
                                 max_steps=gb_steps))


def codim_oracle(arr: Arrangement) -> RankOracle:
    """Rank oracle with c(R) = n - dim(V cut by the R-indexed hypersurfaces).

    Empty intersections give dimension -1, hence c = n+1.  All-hyperplane
    arrangements of the whole space are read by `linear_matroid_oracle`.
    Otherwise each subset R is split into its hyperplanes (its degree-1
    forms) and the rest.  The k independent hyperplanes cut out a linear
    space L of projective dimension M - k, and an integer kernel basis B of
    their coefficient vectors (`Echelon.kernel`, one per hyperplane subset)
    makes t -> B t an isomorphism from projective (M - k)-space onto L.  So
    V cut by R has the projective dimension of the zero set of the variety
    generators and the other members of R, each restricted to p(B t) as its
    coefficients times the degree-d products of B's coordinate forms, built
    once per hyperplane subset and degree d by the Hilbert level step.
    Every polynomial is taken as its content-free integer terms, and so is
    every restriction:

    - k = M + 1: L is empty;
    - L is a point b: the point when every generator and every other member
      of R vanishes at b, decided by evaluating each there in integers with
      no restriction, and empty otherwise;
    - no restricted generator is left nonzero: V contains L, dim = M - k;
    - otherwise the restricted forms go to `_forms_dimension`, which
      certifies their dimension by exact ranks: one form cuts a hypersurface
      of L, dim = M - k - 1; on a line, or for three or more forms on a
      plane, one Macaulay rank decides whether they meet; a lower bound
      below M - k - 1 is proved by a probe section of L of dimension at most
      2 that misses their zero set, by one more Macaulay rank;
    - only a probe section that meets the zero set, or an emptiness
      question in more than 3 variables, takes the Groebner dimension of
      the restricted ideal under the arrangement's step budget.

    No Groebner run sees a hyperplane, and none sees a plane unless a probe
    line meets the zero set.  The products of the probe spaces' coordinate
    forms and the Macaulay layouts are kept for the call, like the products
    of the hyperplane subsets.  Subsets are decided level by level, by size
    and then in mask order (`_level_walk`), with monotone pruning: a
    superset of a spanning subset spans, so a mask is decided only when
    every immediate subset of it was decided and is not spanning, and every
    other entry is n + 1.  A hyperplane subset's space is built from that of
    the subset less its lowest hyperplane, decided a level before; a
    hyperplane that adds nothing to it keeps its space.  A
    `VerificationError` names the first subset out of range in that order.
    """
    q, n, M = arr.q, arr.n, arr.M
    forms = arr.forms
    if arr.is_linear:
        return linear_matroid_oracle([p.linear_coefficients() for p in forms], arr.N)
    lines = {j: primitive(p.linear_coefficients()) for j, p in enumerate(forms)
             if p.degree == 1}
    line_mask = sum(1 << j for j in lines)
    # the polynomials to restrict, by index: the variety generators, then the forms
    polys = [_integer_terms(p) for p in arr.variety_generators + forms]
    g = len(arr.variety_generators)
    # the polynomials evaluated at a point: all but the lines
    curved = [i for i in range(len(polys)) if i - g not in lines]
    spaces = {0: (Echelon(), Echelon().kernel(M + 1))}
    # by hyperplane subset, then by degree, the products of its coordinate forms
    products: dict[int, dict[int, tuple]] = {}
    restricted: dict[tuple[int, int], dict[Monomial, int]] = {}
    # by (variables, dimension), the products of a probe space's coordinate forms
    probes: dict[tuple[int, int], dict[int, tuple]] = {}
    layouts: dict[tuple[int, int, int], dict] = {}
    # by hyperplane subset that cuts out a point, the bitmask of the
    # polynomials vanishing there
    point_zeros: dict[int, int] = {}

    def decide(mask: int) -> int:
        hmask = mask & line_mask
        space = spaces.get(hmask)
        if space is None:
            # mask less its lowest hyperplane was decided a level before
            low = hmask & -hmask
            space = spaces[hmask] = _linear_space(
                spaces[hmask ^ low], lines[low.bit_length() - 1],
                (lines[j] for j in lines if hmask >> j & 1), M + 1)
        ech, basis = space
        if ech.rank == M + 1:
            dim = -1
        elif len(basis) == 1:
            # L is the point basis[0]: V cut by R is that point when
            # every generator left vanishes there, and empty otherwise
            zeros = point_zeros.get(hmask)
            if zeros is None:
                zeros = point_zeros[hmask] = sum(
                    1 << i for i in curved if not _value_at(polys[i], basis[0]))
            needed = ((1 << g) - 1) | ((mask ^ hmask) << g)
            dim = 0 if needed & ~zeros == 0 else -1
        else:
            rest = mask ^ hmask
            gens = []
            for i in [*range(g), *(g + j for j in range(q) if rest >> j & 1)]:
                r = restricted.get((hmask, i))
                if r is None:
                    r = restricted[hmask, i] = _restrict(polys[i], basis,
                                                         products.setdefault(hmask, {}))
                if r:
                    gens.append(r)
            if not gens:
                dim = M - ech.rank
            else:
                dim = _forms_dimension(gens, len(basis), arr.gb_steps, probes, layouts)
        c = n - dim
        if not 0 <= c <= n + 1:
            raise VerificationError(
                f"subset {_set_str(mask)} yields dimension {dim}, outside the declared range")
        return c

    return RankOracle(q, n, arr.N, _level_walk(q, n, decide))


def _level_walk(q: int, n: int, decide: Callable[[int], int]) -> np.ndarray:
    """The int64 table of c by mask over q elements, under monotone pruning:
    c(R) = decide(mask of R) for each R whose immediate subsets were all
    decided and are not spanning (c <= n), 0 for the empty set, and n + 1
    for every other R, which holds a spanning subset and so spans.  Masks
    are decided level by level, by size and then in mask order, so each
    after every subset of it that is decided."""
    table = np.full(1 << q, n + 1, dtype=np.int64)
    table[0] = 0
    bits = 1 << np.arange(q, dtype=np.int64)
    level = np.zeros(1, dtype=np.int64)  # the open masks of the last level: decided, not spanning
    while level.size:
        # each mask of the next level once, as an open mask plus a bit
        # above its highest, kept when every immediate subset is open (a
        # mask xor a bit it lacks is larger, and not a subset)
        masks = np.sort((level[:, None] | bits)[level[:, None] < bits])
        subsets = masks[:, None] ^ bits
        masks = masks[((subsets > masks[:, None]) | (table[subsets] <= n)).all(axis=1)]
        table[masks] = [decide(mask) for mask in masks.tolist()]
        level = masks[table[masks] <= n]
    return table


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
    bad = np.flatnonzero((_popcounts(arr.q) == arr.N + 1) & (oracle.table != arr.n + 1))
    witness = None
    if bad.size:
        mask = int(bad[0])
        witness = f"{_set_str(mask)} meets V (c = {oracle.c_mask(mask)})"
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
    variety ideal.

    The forms are scaled to content-free integer polynomials, so each
    product is a positive multiple of the rational one, which leaves every
    rank and every greedy choice made on the rows unchanged, and is
    content-free itself (Gauss's lemma).  The products are built level by
    level (`_level_products`), in `monomials_of_degree(q, m)` order, over
    the monomials they reach, lexicographically descending.  Modulo a
    variety, the forms and each level's rows are reduced, and the rows made
    content-free again, as in a walk that reduces every partial product.
    The top level's all-zero columns are dropped.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    q = arr.q
    total = comb(q + m - 1, m)
    if total > QM_BUDGET:
        raise ResourceBudgetError(f"q_m = {total} exceeds budget {QM_BUDGET}")
    exponents = list(monomials_of_degree(q, m))
    forms = arr.normalized_forms()
    ideal = arr.variety_ideal() if arr.variety_generators else None
    if ideal is not None:
        forms = [ideal.normal_form(f) for f in forms]
    # one content-free integer row per form over the monomials of the forms
    terms = [_integer_terms(f) for f in forms]
    monos = sorted({u for t in terms for u in t}, reverse=True)
    rows = [[t.get(u, 0) for u in monos] for t in terms]
    cols, blocks = _level_products(rows, monos, m, ideal)
    vectors = []
    nonzero = np.zeros(len(cols), dtype=bool)
    for block in blocks:
        nonzero |= block.any(axis=0)
        vectors.extend(map(tuple, block.tolist()))
    if not nonzero.all():
        keep = nonzero.tolist()
        vectors = [tuple(compress(v, keep)) for v in vectors]
    return exponents, vectors


def _level_products(rows: list[list[int]], monos: list[Monomial], m: int,
                    ideal: Ideal | None = None) -> tuple[list[Monomial], Iterable[np.ndarray]]:
    """The degree-m products of the integer forms whose coefficients over
    the monomials `monos` (descending) are `rows`: the monomials labelling
    their columns, descending, and their rows, a block of `_ROW_CHUNK` at a
    time, built as integer matrices level by level.

    Level k has one row per non-decreasing index sequence of length k, in
    `monomials_of_degree(len(rows), k)` order, and one column per monomial
    its rows can reach.  The children of a row are (parent, j) for j >= its
    last index (`next_level`), built by `_level_rows`.  Given an ideal, each
    level's rows are reduced through `_normal_form_matrix` and made
    content-free.  A level is computed in int64 only when the triangle
    inequality bounds every partial sum on it below 2^63, and in Python
    ints otherwise."""
    q = len(rows)
    norm = max(sum(map(abs, row)) for row in rows)
    C = _exact(np.array(rows, dtype=object).reshape(q, len(monos)), norm)
    P, cols, last = C, monos, np.arange(q)
    for k in range(2, m + 1):
        parent, last = next_level(last, q)
        sums = [mono_mul(c, u) for c in cols for u in monos]
        shape = (len(cols), len(monos))
        cols = sorted(set(sums), reverse=True)
        at = {c: i for i, c in enumerate(cols)}
        shift = np.array([at[s] for s in sums], dtype=np.intp).reshape(shape)
        width, N, scale = len(cols), None, 1
        if ideal is not None:
            N, cols, scale = _normal_form_matrix(cols, ideal)
        P = _exact(P, max(int(np.abs(P).max(initial=0)), 1) * norm * scale)
        if k < m:
            P = _level_rows(P, parent, last, C, shift, width, N)
    if m == 1:
        return cols, [C]
    return cols, (
        _level_rows(P, parent[i:i + _ROW_CHUNK], last[i:i + _ROW_CHUNK], C, shift, width, N)
        for i in range(0, len(parent), _ROW_CHUNK))


def _level_rows(P: np.ndarray, parent: np.ndarray, last: np.ndarray, C: np.ndarray,
                shift: np.ndarray, width: int, N: np.ndarray | None) -> np.ndarray:
    """The next level's rows (parent, j) for j in `last`: row P[parent] times
    form j, summed as C[j, u] times the row shifted into the `width` columns
    of the next level by form monomial u (`shift[:, u]`), one numpy pass per
    u; then, given a normal-form matrix N, reduced by N and made
    content-free.  The dtype of P must hold every value reached."""
    rows = P[parent]
    coeffs = C[last]
    out = np.zeros((len(parent), width), dtype=P.dtype)
    for u in range(shift.shape[1]):
        out[:, shift[:, u]] += coeffs[:, u, None] * rows
    if N is None:
        return out
    out = out @ N
    g = np.gcd.reduce(out, axis=1)
    g[g == 0] = 1
    out //= g[:, None]
    return out


def _normal_form_matrix(cols: list[Monomial],
                        ideal: Ideal) -> tuple[np.ndarray, list[Monomial], int]:
    """The integer matrix whose row i is the normal form modulo the ideal of
    the monomial cols[i], all rows scaled by the lcm of their denominators;
    the standard monomials labelling its columns, descending; and the
    largest l1 norm of a column.  The normal form is linear, so a row vector
    over `cols` times the matrix is a positive multiple of the vector's
    normal form.  A standard monomial, one that no leading monomial of the
    basis divides, is its own normal form."""
    digits = np.array(cols, dtype=np.int64).reshape(len(cols), ideal.nvars)
    leading = np.array([g.leading_term()[0] for g in ideal.groebner()])
    reducible = (digits[:, None, :] >= leading).all(axis=2).any(axis=1).tolist()
    forms = [ideal.normal_form(Polynomial.monomial(ideal.nvars, b)).terms if r else {b: 1}
             for b, r in zip(cols, reducible)]
    std = sorted({s for f in forms for s in f}, reverse=True)
    at = {s: i for i, s in enumerate(std)}
    den = lcm(*(c.denominator for f in forms for c in f.values()))
    rows = [[0] * len(std) for _ in forms]
    norms = [0] * len(std)
    for row, f in zip(rows, forms):
        for s, c in f.items():
            i = at[s]
            row[i] = c.numerator * (den // c.denominator)
            norms[i] += abs(row[i])
    scale = max(norms, default=0)
    N = _exact(np.array(rows, dtype=object).reshape(len(forms), len(std)), scale)
    return N, std, scale


def hilbert_function(arr: Arrangement, m: int) -> HilbertData:
    """H(m) = rank of the degree-m products of normalized forms modulo the variety.

    The basis is `hilbert_weight`'s with equal costs, whose stable sort
    leaves the greedy in exponent order (lexicographically descending over
    the exponent vectors).  For a positive-dimensional variety H(m) >= m+1
    is enforced.
    """
    greedy = hilbert_weight(arr, m, [0] * arr.q)
    H = greedy.H
    q_m = comb(arr.q + m - 1, m)
    if H > q_m:
        raise VerificationError("rank exceeded the family size")
    if arr.n >= 1 and H < m + 1:
        raise VerificationError(f"H({m}) = {H} < m+1 = {m + 1}: the image cannot be positive-dimensional")
    provenance = (f"rank over Q of the {q_m} degree-{m} monomials in the {arr.q} "
                  f"normalized forms (common degree {arr.lcm_degree}), reduced modulo "
                  f"the variety ideal")
    return HilbertData(m, H, q_m, greedy.basis, provenance)


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
    # integer weights: the costs times the lcm of their denominators
    den = lcm(*(c.denominator for c in costs))
    scaled = [c.numerator * (den // c.denominator) for c in costs]
    # an exponent vector's weight is the sum of the scaled costs over its
    # index sequence, and `exponents` lists those sequences in this order
    weights = list(map(sum, combinations_with_replacement(scaled, m)))
    # a stable descending sort keeps ties in ascending index order
    order = sorted(range(len(exponents)), key=weights.__getitem__, reverse=True)
    ech = Echelon()
    chosen: list[int] = []
    width = len(vectors[0]) if vectors else 0
    for i in order:
        if ech.insert(vectors[i]):
            chosen.append(i)
            if ech.rank == width:
                break  # no later row can raise the rank
    S = Fraction(sum(weights[i] for i in chosen), den)
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
        elif section in ("variety", "hypersurfaces"):
            if not var_names:
                raise ParseError("[vars] must precede polynomials", line=ln)
            body = line
            if section == "hypersurfaces":
                if ":" not in line:
                    raise ParseError("expected `name : polynomial`", line=ln)
                name, _, body = line.partition(":")
            poly = parse_polynomial(body.strip(), var_names, line=ln)
            if poly.is_zero:
                raise ParseError("polynomial must be nonzero", line=ln)
            if not poly.is_homogeneous:
                raise ParseError("polynomial must be homogeneous", line=ln)
            if section == "variety":
                variety.append(poly)
            else:
                hypersurfaces.append((name.strip(), poly))
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
