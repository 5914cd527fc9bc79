"""Abstract rank oracles and exact Nochka weights.

A rank oracle materializes a codimension function c on all subsets of
{1..q} as a table indexed by bitmask.  This module validates the
combinatorial axioms such a function satisfies for an arrangement in
N-subgeneral position, builds the minimal-ratio filtration, derives exact
rational weights from it, and performs the greedy selection of a
general-position subfamily dominating a weighted cost sum.

Subsets are bitmasks internally (bit j-1 <-> index j); the public API
accepts 1-based index iterables.  All ratios and weights are
`fractions.Fraction`; no comparison in this module involves a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .errors import ParseError, VerificationError
from .linalg import Echelon, primitive

MAX_GROUND_SET = 20
_INT64_BOUND = 1 << 63  # an int64 array holds every integer of absolute value below this


def _exact(a: np.ndarray, bound: int) -> np.ndarray:
    """The integer array `a` as int64 when `bound`, a bound on every
    absolute value the next computation on it reaches, is below 2^63, and
    as Python ints in an object array otherwise."""
    return a.astype(np.int64 if bound < _INT64_BOUND else object, copy=False)


AXIOM_NAMES = (
    "empty-set",
    "nonzero-singletons",
    "monotone",
    "unit-increment",
    "capped",
    "spanning",
    "submodular",
    "exchange",
)


def mask_of(indices: Iterable[int], q: int) -> int:
    mask = 0
    for j in indices:
        if not 1 <= int(j) <= q:
            raise ValueError(f"index {j} outside 1..{q}")
        mask |= 1 << (int(j) - 1)
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def _set_str(mask: int) -> str:
    return "{" + ",".join(map(str, indices_of(mask))) + "}"


def _popcounts(q: int) -> np.ndarray:
    """The size of every subset of {1..q}, by mask, built by doubling: a
    mask with highest bit b holds one element more than the mask less b."""
    pc = np.zeros(1 << q, dtype=np.int64)
    for b in range(q):
        pc[1 << b:2 << b] = pc[:1 << b] + 1
    return pc


@dataclass(frozen=True, eq=False)
class RankOracle:
    """Codimension function c: 2^{1..q} -> {0..n+1}, materialized as a table.

    `table[mask]` holds c of the subset encoded by `mask`.  The constructor
    takes any integer sequence and keeps it as one read-only int64 array
    (an int64 array it is handed becomes that array).  Constructing an
    oracle only checks shape and value range; `validate_rank_oracle` checks
    the combinatorial axioms.
    """

    q: int
    n: int
    N: int
    table: np.ndarray

    def __post_init__(self):
        if not 1 <= self.q <= MAX_GROUND_SET:
            raise ValueError(f"q must be in 1..{MAX_GROUND_SET}, got {self.q}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.N < self.n:
            raise ValueError(f"N must be >= n, got N={self.N} < n={self.n}")
        table = np.asarray(self.table)
        if table.shape != (1 << self.q,):
            raise ValueError(f"table must have 2^{self.q} entries, got {len(table)}")
        if np.can_cast(table.dtype, np.int64) and 0 <= table.min() and table.max() <= self.n + 1:
            table = table.astype(np.int64, copy=False)
        else:
            # the loop names the first bad value, one past int64 included
            top = min(self.n + 1, int(np.iinfo(np.int64).max))
            values = table.tolist() if isinstance(self.table, np.ndarray) else self.table
            for mask, value in enumerate(values):
                if not isinstance(value, int) or not 0 <= value <= top:
                    raise ValueError(f"c{_set_str(mask)} = {value!r} outside 0..{top}")
            table = np.array(values, dtype=np.int64)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def __eq__(self, other):
        if not isinstance(other, RankOracle):
            return NotImplemented
        return ((self.q, self.n, self.N) == (other.q, other.n, other.N)
                and np.array_equal(self.table, other.table))

    def c_mask(self, mask: int) -> int:
        return int(self.table[mask])

    def c(self, subset: Iterable[int]) -> int:
        return self.c_mask(mask_of(subset, self.q))


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    ok: bool
    witness: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    checks: tuple[AxiomCheck, ...]

    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def summary(self) -> str:
        if self.ok:
            return "all axioms hold"
        return "; ".join(f"{c.axiom} fails at {c.witness}" for c in self.failures())

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"axiom": c.axiom, "ok": c.ok, "witness": c.witness}
                for c in self.checks
            ],
        }


def validate_rank_oracle(oracle: RankOracle) -> ValidationReport:
    """Exhaustively check the oracle axioms; each failure carries a witness.

    Monotonicity and unit increments are checked over all single-element
    extensions (equivalent to the subset-pair statements by chaining).
    Submodularity is checked in the equivalent local form
    c(K+i+j) + c(K) <= c(K+i) + c(K+j).  The exchange property is checked
    directly: for every independent K, the set of elements that do not
    raise c(K) must itself not raise c(K); a failing pair (K, R) admits no
    intermediate independent set of rank c(R).
    """
    q, n, N = oracle.q, oracle.n, oracle.N
    t = oracle.table
    pc = _popcounts(q)
    masks = np.arange(1 << q, dtype=np.int64)
    checks: list[AxiomCheck] = []

    def add(axiom: str, witness: str | None):
        checks.append(AxiomCheck(axiom, witness is None, witness))

    add("empty-set", None if t[0] == 0 else f"c({{}}) = {int(t[0])}")

    singleton_w = None
    for b in range(q):
        if t[1 << b] != 1:
            singleton_w = f"c{_set_str(1 << b)} = {int(t[1 << b])} != 1"
            break
    add("nonzero-singletons", singleton_w)

    # inc[b, m] = c(m + b) - c(m) for m without bit b, and 0 for m with it;
    # c lies in 0..n+1 and inc in -(n+1)..n+1, both within int8 for n < 127
    small = t.astype(np.int8 if n < 127 else np.int64)
    inc = np.zeros((q, 1 << q), dtype=small.dtype)
    for b in range(q):
        bit = 1 << b
        pairs = small.reshape(-1, 2, bit)
        inc[b].reshape(-1, 2, bit)[:, 0, :] = pairs[:, 1, :] - pairs[:, 0, :]

    def first(bad: np.ndarray) -> tuple[int, int] | None:
        """(row, column) of the first True of the first row holding one."""
        rows = bad.any(axis=1)
        if not rows.any():
            return None
        r = int(np.argmax(rows))
        return r, int(np.argmax(bad[r]))

    hit = first(inc < 0)
    add("monotone", None if hit is None else
        f"c{_set_str(hit[1] | 1 << hit[0])} < c{_set_str(hit[1])}")
    hit = first(inc > 1)
    add("unit-increment", None if hit is None else
        f"c{_set_str(hit[1] | 1 << hit[0])} - c{_set_str(hit[1])} = {int(inc[hit])}")

    bad = np.nonzero(t > np.minimum(pc, min(n + 1, q)))[0]  # pc <= q: n + 1 may pass int64
    capped_w = None
    if bad.size:
        m = int(bad[0])
        capped_w = f"c{_set_str(m)} = {int(t[m])} > min({int(pc[m])},{n + 1})"
    add("capped", capped_w)

    big = np.nonzero((pc >= N + 1) & (t != n + 1))[0]
    span_w = None
    if big.size:
        m = int(big[0])
        span_w = f"c{_set_str(m)} = {int(t[m])} != {n + 1} with #S = {int(pc[m])} >= N+1"
    add("spanning", span_w)

    # c(K+i+j) + c(K) > c(K+i) + c(K+j) iff inc[j, K+i] > inc[j, K]; pass i
    # compares, for every j > i, the masks with bit i against those without
    # (inc is 0 on masks holding bit j, so they never fail)
    sub_w = None
    for b1 in range(q - 1):
        bit = 1 << b1
        quads = inc[b1 + 1:].reshape(q - b1 - 1, -1, 2, bit)
        hit = first((quads[:, :, 1, :] > quads[:, :, 0, :]).reshape(q - b1 - 1, -1))
        if hit is not None:
            high, low = divmod(hit[1], bit)
            m = high * 2 * bit + low
            sub_w = f"R1={_set_str(m | bit)}, R2={_set_str(m | 1 << (b1 + 1 + hit[0]))}"
            break
    add("submodular", sub_w)

    # closure of K: K plus every element that does not raise c(K)
    closure = masks.copy()
    for b in range(q):
        closure[inc[b] == 0] |= 1 << b
    bad = np.nonzero((t == pc) & (t[closure] != t))[0]
    exch_w = None
    if bad.size:
        m = int(bad[0])
        exch_w = f"K={_set_str(m)}, R={_set_str(int(closure[m]))}"
    add("exchange", exch_w)

    return ValidationReport(all(c.ok for c in checks), tuple(checks))


def rho(oracle: RankOracle, r1: Iterable[int], r2: Iterable[int]) -> Fraction:
    """Increment ratio (c(R2) - c(R1)) / (#R2 - #R1), for R1 a proper subset of R2."""
    m1 = mask_of(r1, oracle.q)
    m2 = mask_of(r2, oracle.q)
    if m1 == m2 or m1 & ~m2:
        raise ValueError("R1 must be a proper subset of R2")
    return Fraction(oracle.c_mask(m2) - oracle.c_mask(m1),
                    m2.bit_count() - m1.bit_count())


@dataclass(frozen=True)
class Filtration:
    """Strictly increasing chain R_1 c ... c R_s with increasing ratios.

    The empty set R_0 is implicit.  `theta` is the terminal threshold ratio
    (n+1-c(R_s)) / (2N-n+1-#R_s).
    """

    subsets: tuple[tuple[int, ...], ...]
    ratios: tuple[Fraction, ...]
    theta: Fraction

    @property
    def s(self) -> int:
        return len(self.subsets)

    def as_dict(self) -> dict:
        return {
            "subsets": [list(r) for r in self.subsets],
            "ratios": [str(r) for r in self.ratios],
            "theta": str(self.theta),
        }


def build_filtration(oracle: RankOracle) -> Filtration:
    """Run the minimal-ratio chain construction.

    At each step the candidate pool consists of proper supersets R of the
    current end R_s with c(R_s) < c(R) < n+1 whose ratio to R_s stays below
    the terminal threshold; the next link minimizes the ratio, ties broken
    by maximal cardinality and then by lexicographically smallest sorted
    index tuple.  The oracle must pass `validate_rank_oracle`, and the
    returned chain is re-checked exhaustively against the four chain
    conditions before being returned.
    """
    q, n, N = oracle.q, oracle.n, oracle.N
    report = validate_rank_oracle(oracle)
    if not report.ok:
        raise VerificationError(f"oracle fails validation: {report.summary()}")
    if q < 2 * N - n + 1:
        raise ValueError(f"need q >= 2N-n+1 = {2 * N - n + 1}, got q = {q}")

    t = oracle.table
    pc = _popcounts(q)
    masks = np.arange(1 << q, dtype=np.int64)

    chain = [0]
    ratios: list[Fraction] = []
    while True:
        rs = chain[-1]
        cs = int(t[rs])
        ps = int(pc[rs])
        tnum = n + 1 - cs
        tden = 2 * N - n + 1 - ps
        sup = (masks & rs) == rs
        cand = sup & (t > cs) & (t < n + 1)
        cand &= (t - cs) * tden < tnum * (pc - ps)
        pool = np.nonzero(cand)[0]
        if pool.size == 0:
            break
        # least ratio, then the larger subset, then the smaller index tuple
        ratio, _, _, best = min((Fraction(int(t[m]) - cs, int(pc[m]) - ps), -int(pc[m]),
                                 indices_of(m), m) for m in map(int, pool))
        chain.append(best)
        ratios.append(ratio)

    last = chain[-1]
    theta = Fraction(n + 1 - int(t[last]), 2 * N - n + 1 - int(pc[last]))
    filtration = Filtration(tuple(indices_of(m) for m in chain[1:]), tuple(ratios), theta)
    _verify_filtration(oracle, chain, ratios, theta)
    return filtration


def _verify_filtration(oracle: RankOracle, chain: list[int],
                       ratios: list[Fraction], theta: Fraction) -> None:
    """Exhaustive post-check of the four chain conditions."""
    q, n, N = oracle.q, oracle.n, oracle.N
    t = oracle.table
    pc = _popcounts(q)
    masks = np.arange(1 << q, dtype=np.int64)
    s = len(chain) - 1

    if int(t[chain[-1]]) >= n + 1:
        raise VerificationError("chain ends at a spanning subset")
    seq = [Fraction(0)] + list(ratios)
    for a, b in zip(seq, seq[1:]):
        if not a < b:
            raise VerificationError("chain ratios not strictly increasing")
    if s and not ratios[-1] < theta:
        raise VerificationError("last ratio not below theta")

    for i in range(1, s + 1):
        prev, cur = chain[i - 1], chain[i]
        cp, pp = int(t[prev]), int(pc[prev])
        num_i = int(t[cur]) - cp
        den_i = int(pc[cur]) - pp
        scope = ((masks & prev) == prev) & (masks != prev) & (t > cp) & (t < n + 1)
        num = t - cp
        den = pc - pp
        if np.any(scope & (num_i * den > num * den_i)):
            raise VerificationError(f"chain link {i} is not ratio-minimal")
        if np.any(scope & (num_i * den == num * den_i) & (pc > int(pc[cur]))):
            raise VerificationError(f"chain link {i} is not cardinality-maximal among ties")

    rs = chain[-1]
    cs, ps = int(t[rs]), int(pc[rs])
    scope = ((masks & rs) == rs) & (masks != rs) & (t > cs) & (t < n + 1)
    num = t - cs
    den = pc - ps
    if np.any(scope & (num * theta.denominator < theta.numerator * den)):
        raise VerificationError("a candidate below theta survives past the chain end")


@dataclass(frozen=True)
class WeightAssignment:
    """Exact rational weights omega(1..q) with constant theta and their chain."""

    omega: tuple[Fraction, ...]
    theta: Fraction
    filtration: Filtration

    def as_dict(self) -> dict:
        return {
            "omega": [str(w) for w in self.omega],
            "theta": str(self.theta),
            "filtration": self.filtration.as_dict(),
        }


def nochka_weights(oracle: RankOracle) -> WeightAssignment:
    """Derive weights from the filtration: the i-th ratio on R_i \\ R_{i-1}, theta elsewhere.

    The result is verified against all four weight conditions before being
    returned; the completion step of the existence proof is never
    materialized, so the weights depend on the chain and theta alone.
    """
    filtration = build_filtration(oracle)
    omega = [filtration.theta] * oracle.q
    prev: set[int] = set()
    for subset, ratio in zip(filtration.subsets, filtration.ratios):
        for j in subset:
            if j not in prev:
                omega[j - 1] = ratio
        prev = set(subset)
    weights = WeightAssignment(tuple(omega), filtration.theta, filtration)
    report = verify_weight_conditions(oracle, weights)
    if not report.ok:
        raise VerificationError(f"constructed weights fail verification: {report.summary()}")
    return weights


def verify_weight_conditions(oracle: RankOracle, weights: WeightAssignment) -> ValidationReport:
    """Check the four weight conditions, (iv) exhaustively over all R with #R <= N+1."""
    q, n, N = oracle.q, oracle.n, oracle.N
    omega, theta = weights.omega, weights.theta
    if len(omega) != q:
        raise ValueError(f"expected {q} weights, got {len(omega)}")
    checks: list[AxiomCheck] = []

    w = None
    if not theta <= 1:
        w = f"theta = {theta} > 1"
    else:
        for j, wj in enumerate(omega, 1):
            if not 0 < wj <= theta:
                w = f"omega({j}) = {wj} outside (0, {theta}]"
                break
    checks.append(AxiomCheck("bounds", w is None, w))

    total = sum(omega, Fraction(0))
    expected = theta * (q - 2 * N + n - 1) + n + 1
    w = None if total == expected else f"sum = {total} != {expected}"
    checks.append(AxiomCheck("sum-identity", w is None, w))

    low = Fraction(n + 1, 2 * N - n + 1)
    high = Fraction(n + 1, N + 1)
    w = None if low <= theta <= high else f"theta = {theta} outside [{low}, {high}]"
    checks.append(AxiomCheck("theta-range", w is None, w))

    denom = lcm(*(x.denominator for x in omega)) if omega else 1
    scaled = [int(wb * denom) for wb in omega]
    # subset sums of the integer weights omega * denom, built by doubling,
    # and the caps c(R) * denom, each bounded by the triangle inequality
    bound = max(sum(map(abs, scaled)), (n + 1) * denom)
    sums = _exact(np.zeros(1 << q, dtype=np.int64), bound)
    for b, wb in enumerate(scaled):
        sums[1 << b:2 << b] = sums[:1 << b] + wb
    caps = _exact(oracle.table, bound) * denom
    over = np.nonzero((_popcounts(q) <= N + 1) & (sums > caps))[0]
    w = None
    if over.size:
        mask = int(over[0])
        w = (f"R={_set_str(mask)}: sum = {Fraction(int(sums[mask]), denom)}"
             f" > c(R) = {oracle.c_mask(mask)}")
    checks.append(AxiomCheck("subset-cap", w is None, w))

    return ValidationReport(all(c.ok for c in checks), tuple(checks))


def check_costs(costs: Sequence, q: int) -> list[Fraction]:
    """The cost vector as Fractions, checked to hold q nonnegative entries."""
    costs = [Fraction(c) for c in costs]
    if len(costs) != q:
        raise ValueError(f"cost vector must have length q = {q}")
    if any(c < 0 for c in costs):
        raise ValueError("costs must be nonnegative")
    return costs


def greedy_bases(table: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The matroid greedy, run once per column of `order`: the mask of the
    elements it takes.

    `order` is a (k, S) array of 0-based elements, each column listing its
    elements best first; an element is taken when it raises the rank,
    `table[chosen | bit] > table[chosen]`.  On a rank table that passes
    `validate_rank_oracle` this is a basis of the listed elements, and one
    whose weights, when the order is by descending weight, sum to the
    largest total of any basis (Oxley, *Matroid Theory*, 1.8).
    """
    chosen = np.zeros(order.shape[1], dtype=np.int64)
    rank = table[chosen]
    for row in order:
        grown = chosen | np.left_shift(1, row, dtype=np.int64)
        up = table[grown]
        np.copyto(chosen, grown, where=up > rank)
        np.maximum(rank, up, out=rank)
    return chosen


def greedy_select(oracle: RankOracle, weights: WeightAssignment,
                  subset: Iterable[int], costs: Sequence) -> tuple[int, ...]:
    """Pick an ordered general-position subfamily of R dominating the weighted cost sum.

    Runs `greedy_bases` on R by descending cost (ties by ascending index):
    the picks, in that order, are the elements of R that raise the rank of
    the picks before them.  Returns (j_1, ..., j_{c(R)}); both
    postconditions -- full rank of the selection and
    sum_{j in R} omega(j) E_j <= sum_i E_{j_i} -- are verified exactly.
    """
    q = oracle.q
    members = tuple(sorted(set(int(j) for j in subset)))
    if not members:
        raise ValueError("R must be nonempty")
    if len(members) > oracle.N + 1:
        raise ValueError(f"#R = {len(members)} exceeds N+1 = {oracle.N + 1}")
    rmask = mask_of(members, q)
    costs = check_costs(costs, q)

    order = sorted(members, key=lambda j: (-costs[j - 1], j))
    [chosen_mask] = greedy_bases(oracle.table, np.array(order).reshape(-1, 1) - 1).tolist()
    chosen = [j for j in order if chosen_mask >> (j - 1) & 1]

    if oracle.c_mask(chosen_mask) != oracle.c_mask(rmask):
        raise VerificationError("selected family does not reach the rank of R")
    lhs = sum((weights.omega[j - 1] * costs[j - 1] for j in members), Fraction(0))
    rhs = sum((costs[j - 1] for j in chosen), Fraction(0))
    if lhs > rhs:
        raise VerificationError(f"greedy inequality fails: {lhs} > {rhs}")
    return tuple(chosen)


def linear_matroid_oracle(vectors: Sequence[Sequence], N: int) -> RankOracle:
    """Rank oracle of a list of q nonzero rational vectors: c(R) = rank{v_j : j in R}.

    The rank of R is the size of its largest independent subset (Oxley,
    *Matroid Theory*, 1.3), so the table is independent sets plus a
    superset maximum: the independent sets, of at most n+1 vectors, are
    found exactly by `Echelon` and their sizes written at their masks; q
    numpy passes then carry the maximum up to every superset.  The result
    may fail validation (spanning in particular); callers must validate.
    """
    q = len(vectors)
    if not 1 <= q <= MAX_GROUND_SET:
        raise ValueError(f"need 1..{MAX_GROUND_SET} vectors, got {q}")
    dim = len(vectors[0])
    n = dim - 1
    if n < 1:
        raise ValueError("vectors must have length n+1 >= 2")
    if N < n:
        raise ValueError(f"N must be >= n = {n}")

    ints: list[tuple[int, ...]] = []
    for j, vec in enumerate(vectors, 1):
        if len(vec) != dim:
            raise ValueError(f"vector {j} has length {len(vec)} != {dim}")
        ints.append(primitive([Fraction(x) for x in vec]))
        if not any(ints[-1]):
            raise ValueError(f"vector {j} is zero")

    # c <= q <= MAX_GROUND_SET fits in int8
    table = np.zeros(1 << q, dtype=np.int8)
    # depth first over (Echelon of an independent mask, mask, next index to
    # add), on an explicit stack: a nested function calling itself would be
    # a reference cycle; a vector that does not raise the rank copies nothing
    stack = [(Echelon(), 0, 0)]
    while stack:
        ech, mask, start = stack.pop()
        table[mask] = ech.rank
        if ech.rank < dim:
            for j in range(start, q):
                child = ech.extended(ints[j])
                if child is not None:
                    stack.append((child, mask | 1 << j, j + 1))
    # pass b sets c(m + bit b) = max(c(m + bit b), c(m)) for m without bit b
    for b in range(q):
        pairs = table.reshape(-1, 2, 1 << b)
        np.maximum(pairs[:, 0, :], pairs[:, 1, :], out=pairs[:, 1, :])
    return RankOracle(q, n, N, table)


def subset_labels(q: int) -> list[str]:
    """The subset column of the oracle text, by mask: `-`, `1`, `2`, `1,2`, `3`, ...

    Built incrementally, label(m + bit b) = label(m) + "," + str(b + 1) for
    m below that bit, and never cached: at q = 20 there are a million."""
    labels = ["-"]
    for j in range(1, q + 1):
        labels.append(str(j))
        tag = f",{j}"
        labels += [label + tag for label in labels[1:-1]]
    return labels


def format_oracle(oracle: RankOracle) -> str:
    """Interchange text: header `q n N`, then one `subset : c` line per subset,
    in bitmask order."""
    body = map(" : ".join, zip(subset_labels(oracle.q), map(str, oracle.table.tolist())))
    return f"{oracle.q} {oracle.n} {oracle.N}\n" + "\n".join(body) + "\n"


def parse_oracle(text: str) -> RankOracle:
    """Read the interchange text.  Text laid out exactly as `format_oracle`
    writes it, with every value one digit, is read as one byte array; any
    other layout, and every error, goes to the per-line reader.  Both read
    the one list of labels."""
    labels = None
    header = _exact_header(text)
    if header is not None:
        labels = subset_labels(header[0])
        oracle = _read_canonical(text, header, labels)
        if oracle is not None:
            return oracle
    return _read_lines(text, labels)


def _exact_header(text: str) -> tuple[int, int, int] | None:
    """(q, n, N) when the first line of text is the header `format_oracle`
    writes, with q in 1..MAX_GROUND_SET, and a newline ends it; else None.
    Only the first line is copied out of text."""
    end = text.find("\n")
    if end < 0:
        return None
    head = text[:end]
    try:
        q, n, N = map(int, head.split(" "))
    except ValueError:
        return None
    if head != f"{q} {n} {N}" or not 1 <= q <= MAX_GROUND_SET:
        return None
    return q, n, N


def _read_canonical(text: str, header: tuple[int, int, int],
                    labels: list[str]) -> RankOracle | None:
    """The oracle of text written byte for byte as `format_oracle` writes it,
    with every value one digit, read as one array; None for any other text.

    `header` is `_exact_header(text)`, not None, and `labels` is
    `subset_labels(q)` for its q.  After the header the text must be the
    canonical body, the lines `label : 0` in mask order, but for a digit in
    place of each `0`.  The only error raised is the constructor's, as the
    per-line reader raises it.
    """
    if not text.isascii():
        return None
    q, n, N = header
    canon = bytearray("".join([f"{q} {n} {N}\n", " : 0\n".join(labels), " : 0\n"]), "ascii")
    if len(text) != len(canon):
        return None
    raw = text.encode("ascii")
    skeleton = np.frombuffer(canon, dtype=np.uint8)
    # line m is `labels[m] : 0\n`, so its value is the byte before its newline;
    # the first newline ends the header
    at = np.flatnonzero(skeleton == ord("\n"))[1:] - 1
    values = np.frombuffer(raw, dtype=np.uint8)[at]
    digits = values - ord("0")  # uint8: a byte below `0` wraps past 9
    if not (digits <= 9).all():
        return None
    skeleton[at] = values  # the text's digits in place of the zeros
    if canon != raw:
        return None
    try:
        return RankOracle(q, n, N, digits.astype(np.int64))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _read_lines(text: str, labels: list[str] | None) -> RankOracle:
    """Read the interchange text one line at a time; subset lines may come in
    any order and spacing.  A label equal to the next one `format_oracle`
    writes gets that mask directly; any other is looked up among all the
    labels, and one not found there is parsed as indices.  `labels` is
    `subset_labels(q)` when the caller built it already."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty oracle file")
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError("header must be `q n N`", line=1)
    try:
        q, n, N = (int(x) for x in header)
    except ValueError:
        raise ParseError("header must hold three integers", line=1) from None
    if not 1 <= q <= MAX_GROUND_SET:
        raise ParseError(f"q out of range 1..{MAX_GROUND_SET}", line=1)
    size = 1 << q
    if labels is None:
        labels = subset_labels(q)
    masks: dict[str, int] | None = None  # built at the first label out of order
    table: list[int | None] = [None] * size
    count = 0
    for ln, raw in enumerate(lines[1:], 2):
        left, colon, right = raw.partition(":")
        if not colon:
            if raw.strip():
                raise ParseError("expected `subset : c-value`", line=ln)
            continue
        left = left.strip()
        if count < size and left == labels[count]:
            mask = count
        else:
            if masks is None:
                masks = dict(zip(labels, range(size)))
            mask = masks.get(left)
            if mask is None:
                try:
                    indices = [int(p) for p in left.split(",")]
                    mask = mask_of(indices, q)
                except ValueError as exc:
                    raise ParseError(str(exc), line=ln) from None
                if any(a >= b for a, b in zip(indices, indices[1:])):
                    raise ParseError(f"subset {left} must list distinct indices "
                                     "in increasing order", line=ln)
        try:
            value = int(right)
        except ValueError:
            raise ParseError(f"bad c-value {right.strip()!r}", line=ln) from None
        if table[mask] is not None:
            raise ParseError(f"duplicate subset {left}", line=ln)
        table[mask] = value
        count += 1
    if count != size:
        raise ParseError(f"expected {size} subset lines, got {count}")
    try:
        return RankOracle(q, n, N, table)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
