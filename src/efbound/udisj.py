"""Unique-disjointness shift matrices and the corruption-lemma machinery.

Ground sets have size n = 4*l - 1 (n congruent to 3 mod 4).  Subsets of [n]
are bitmasks with the least significant bit standing for element 1.  Two
families of ordered pairs of l-subsets drive everything:

    A : disjoint pairs,
    B : pairs sharing exactly one element.

The distribution mu on A union B is generated by drawing a partition
T = (T1, T2, {i}) of [n] with |T1| = |T2| = 2l-1 uniformly, then a uniform
l-subset a of T1 + {i} and b of T2 + {i}.  The pair lands in B exactly when
i sits in both, which happens with probability (1/2)^2, so the class masses
are 3/4 and 1/4 and within each class all pairs are equally likely; this is
re-derived here by exhausting the construction, never assumed.

Conditioned on T the draw is a product distribution, which is what makes
the two expectation identities checkable by two independent computation
paths (direct conditioning on A/B versus averaging Row/Col statistics over
partitions).  All of that is exact rational arithmetic.  The only floating
point lives in the entropy gap and the two closed-form bound formulas,
whose values are transcendental.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import BudgetError, InputError, check_deadline, decoding, require
from .ratlin import ONE, ZERO, RationalMatrix, _vec_json, rat, rat_str


@dataclass(frozen=True)
class UdisjParams:
    """Ground-set size n with n = 4l - 1; l = (n+1)/4."""

    n: int

    def __post_init__(self):
        if self.n < 3 or self.n % 4 != 3:
            raise InputError(f"n must be congruent to 3 mod 4 and >= 3, got {self.n}")

    @property
    def ell(self):
        return (self.n + 1) // 4

    @property
    def full_mask(self):
        return (1 << self.n) - 1


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def ksubsets(universe_mask, k):
    """All k-element submasks of universe_mask."""
    return map(sum, combinations([1 << c for c in _bits(universe_mask)], k))


class FunctionTable:
    """Dense rational function on 2^[n], indexed by subset bitmask."""

    def __init__(self, n, values):
        self.n = int(n)
        self.values = [rat(v) for v in values]
        if len(self.values) != 1 << self.n:
            raise InputError(
                f"table needs {1 << self.n} values for n={self.n}, got {len(self.values)}")

    def __call__(self, mask):
        return self.values[mask]

    def is_nonneg(self):
        return all(v >= 0 for v in self.values)

    @classmethod
    def ones(cls, n):
        return cls(n, [ONE] * (1 << n))

    @classmethod
    def indicator_set(cls, n, mask):
        """1 on the single subset given by mask, 0 elsewhere."""
        return cls(n, [ONE if m == mask else ZERO for m in range(1 << n)])

    @classmethod
    def indicator_contains(cls, n, element):
        """1 on subsets containing the (1-based) element."""
        bit = 1 << (element - 1)
        return cls(n, [ONE if m & bit else ZERO for m in range(1 << n)])

    @classmethod
    def indicator_avoids(cls, n, element):
        bit = 1 << (element - 1)
        return cls(n, [ZERO if m & bit else ONE for m in range(1 << n)])

    def to_json(self):
        return {"n": self.n, "values": _vec_json(self.values)}

    @classmethod
    def from_json(cls, d):
        with decoding("function table JSON needs keys n, values"):
            return cls(d["n"], d["values"])


def parse_function(spec, n) -> FunctionTable:
    """Named built-ins for the CLI: "ones", "set:MASK", "contains:K", "avoids:K"."""
    if spec == "ones":
        return FunctionTable.ones(n)
    kind, _, arg = spec.partition(":")
    try:
        val = int(arg)
    except ValueError:
        raise InputError(f"unknown function spec {spec!r}") from None
    if kind == "set":
        if not 0 <= val < (1 << n):
            raise InputError(f"subset mask {val} out of range for n={n}")
        return FunctionTable.indicator_set(n, val)
    if kind in ("contains", "avoids"):
        if not 1 <= val <= n:
            raise InputError(f"element {val} out of range for n={n}")
        make = FunctionTable.indicator_contains if kind == "contains" \
            else FunctionTable.indicator_avoids
        return make(n, val)
    raise InputError(f"unknown function spec {spec!r}")


@dataclass(frozen=True)
class PartitionT:
    """T1, T2 (bitmasks, both of size 2l-1) and the singleton element i (1-based)."""

    t1: int
    t2: int
    i: int


@dataclass
class RowColStats:
    row0: Fraction
    row1: Fraction
    col0: Fraction
    col1: Fraction


@dataclass
class ShiftSpec:
    """What to build: M_ab = rho on disjoint pairs, rho-1 on unique
    intersection; larger intersections follow the fill rule."""

    n: int
    rho: Fraction
    fill: str = "hardpair"
    fill_value: Fraction = ZERO

    def __post_init__(self):
        self.rho = rat(self.rho)
        self.fill_value = rat(self.fill_value)
        if self.rho < 1:
            raise InputError(f"rho must be >= 1, got {self.rho}")
        if self.fill not in ("hardpair", "constant"):
            raise InputError(f"fill must be 'hardpair' or 'constant', got {self.fill!r}")


@dataclass
class CorruptionParams:
    """epsilon and the exposed absolute constant C >= 0 standing in for the
    O(log l) term.  No claim is made about which C makes the lemma tight;
    C = 0 reads off the bare exponential.

    The probabilistic statement needs epsilon strictly inside (0,1), but the
    closed forms evaluate fine at the epsilon = 1 endpoint, so that is
    allowed here; shift_rank_lb separately rejects epsilon >= 1/rho where
    the rank bound turns vacuous."""

    epsilon: Fraction
    C: Fraction = ZERO

    def __post_init__(self):
        self.epsilon = rat(self.epsilon)
        self.C = rat(self.C)
        if not 0 < self.epsilon <= 1:
            raise InputError(f"epsilon must lie in (0,1], got {self.epsilon}")
        if self.C < 0:
            raise InputError(f"C must be >= 0, got {self.C}")


def build_shift(spec: ShiftSpec, max_n=14) -> RationalMatrix:
    """The 2^n x 2^n rho-shift matrix over all subset pairs.

    Entries on A (disjoint) and B (share one) are forced to rho and rho-1;
    the default fill (1-|a&b|)^2 + rho - 1 extends both consistently and
    makes the matrix coincide with the shifted hard-pair slack matrix.
    """
    if spec.n > max_n:
        raise BudgetError(f"n={spec.n} exceeds the enumeration limit {max_n}")
    rho = spec.rho
    # one entry value per intersection size |a & b| = 0..n
    by_size = [rho, rho - 1] + [
        Fraction((1 - k) ** 2) + rho - 1 if spec.fill == "hardpair" else spec.fill_value
        for k in range(2, spec.n + 1)]
    size = 1 << spec.n
    entries = []
    for a in range(size):
        if a % 64 == 0:
            check_deadline()
        entries.extend([by_size[(a & b).bit_count()] for b in range(size)])
    return RationalMatrix(size, size, entries)


def enum_classes(params: UdisjParams):
    """Ordered pairs of l-subsets: A disjoint, B sharing exactly one element."""
    ell = params.ell
    subs = list(ksubsets(params.full_mask, ell))
    A, B = [], []
    for a in subs:
        for b in subs:
            inter = (a & b).bit_count()
            if inter == 0:
                A.append((a, b))
            elif inter == 1:
                B.append((a, b))
    return A, B


def partitions(params: UdisjParams):
    """All (T1, T2, i) with |T1| = |T2| = 2l-1 partitioning [n]."""
    tsize = 2 * params.ell - 1
    for i in range(1, params.n + 1):
        rest = params.full_mask & ~(1 << (i - 1))
        for t1 in ksubsets(rest, tsize):
            yield PartitionT(t1, rest & ~t1, i)


def mu_class_probabilities(params: UdisjParams):
    """(P(A), P(B)) under mu, by exhausting the (T, a, b) construction.

    Also checks what the construction promises: the support is exactly
    A union B and pairs within one class are equiprobable.  A failed check
    raises VerificationError.
    """
    ell = params.ell
    counts = {}
    total = 0
    for T in partitions(params):
        check_deadline()
        ibit = 1 << (T.i - 1)
        a_choices = list(ksubsets(T.t1 | ibit, ell))
        b_choices = list(ksubsets(T.t2 | ibit, ell))
        for a in a_choices:
            for b in b_choices:
                counts[(a, b)] = counts.get((a, b), 0) + 1
                total += 1
    A, B = enum_classes(params)
    aset, bset = set(A), set(B)
    require(set(counts) == aset | bset, "mu support is exactly A union B")
    acounts = {counts[p] for p in aset}
    bcounts = {counts[p] for p in bset}
    require(len(acounts) == 1 and len(bcounts) == 1,
            "mu pairs within a class are equiprobable")
    pa = Fraction(sum(counts[p] for p in aset), total)
    return pa, 1 - pa


def _scaled(fn: FunctionTable):
    """(integer numerators, common denominator) of the values of fn."""
    den = math.lcm(*(v.denominator for v in fn.values))
    return [v.numerator * (den // v.denominator) for v in fn.values], den


def _class_sum(F, G, pairs):
    """Sum of F(a) G(b) over pairs, grouped as sum_a F(a) sum_b G(b)."""
    inner = {}
    for a, b in pairs:
        inner[a] = inner.get(a, 0) + G[b]
    return sum(F[a] * s for a, s in inner.items())


def cond_expect(f: FunctionTable, g: FunctionTable, params: UdisjParams):
    """(E[X | A], E[X | B]) for X = f(a) g(b), uniform within each class."""
    for name, fn in (("f", f), ("g", g)):
        if fn.n != params.n:
            raise InputError(f"{name} is a table over n={fn.n}, expected {params.n}")
        if not fn.is_nonneg():
            raise InputError(f"{name} must be nonnegative")
    (F, df), (G, dg) = _scaled(f), _scaled(g)
    A, B = enum_classes(params)
    return (Fraction(_class_sum(F, G, A), len(A) * df * dg),
            Fraction(_class_sum(F, G, B), len(B) * df * dg))


def _row_col_sums(fv, gv, T: PartitionT, ell):
    """Sums of fv over the l-subsets of T1 and over {i} plus the
    (l-1)-subsets of T1, then the same for gv over T2: the numerators of
    Row0, Row1, Col0 and Col1 over C(2l-1, l) and C(2l-1, l-1)."""
    ibit = 1 << (T.i - 1)
    return (sum(fv[m] for m in ksubsets(T.t1, ell)),
            sum(fv[m | ibit] for m in ksubsets(T.t1, ell - 1)),
            sum(gv[m] for m in ksubsets(T.t2, ell)),
            sum(gv[m | ibit] for m in ksubsets(T.t2, ell - 1)))


def row_col_stats(f: FunctionTable, g: FunctionTable, T: PartitionT,
                  params: UdisjParams) -> RowColStats:
    """The four conditional expectations for a fixed partition T:

    Row0 = E[f(a) | T, i not in a]   (a ranges over l-subsets of T1)
    Row1 = E[f(a) | T, i in a]       (a = {i} plus an (l-1)-subset of T1)
    and the same for g over T2 columns.
    """
    ell = params.ell
    tsize = 2 * ell - 1
    ibit = 1 << (T.i - 1)
    if not 1 <= T.i <= params.n:
        raise InputError(f"singleton element {T.i} out of range")
    if (T.t1 | T.t2 | ibit) != params.full_mask or \
            T.t1 & T.t2 or T.t1 & ibit or T.t2 & ibit:
        raise InputError("T1, T2, {i} must partition the ground set")
    if T.t1.bit_count() != tsize or T.t2.bit_count() != tsize:
        raise InputError(f"T1 and T2 must each have {tsize} elements")
    k0, k1 = math.comb(tsize, ell), math.comb(tsize, ell - 1)
    r0, r1, c0, c1 = _row_col_sums(f.values, g.values, T, ell)
    return RowColStats(row0=r0 / k0, row1=r1 / k1, col0=c0 / k0, col1=c1 / k1)


@dataclass
class RazborovReport:
    """Both sides of the two expectation identities and the per-T2 marginal
    identity; ok means every exact equality holds."""

    expectation_a: tuple  # (E[X|A], E_T[Row0 Col0])
    expectation_b: tuple  # (E[X|B], E_T[Row1 Col1])
    marginals: list       # (t2 mask, E[Row0 | T2], E[Row1 | T2])

    @property
    def ok(self):
        return (self.expectation_a[0] == self.expectation_a[1]
                and self.expectation_b[0] == self.expectation_b[1]
                and all(l == r for _, l, r in self.marginals))

    def to_json(self):
        return {"op": "razborov_identities", "ok": self.ok,
                "expectation_a": _vec_json(self.expectation_a),
                "expectation_b": _vec_json(self.expectation_b),
                "marginals": [{"t2": t2, "row0": rat_str(l), "row1": rat_str(r)}
                              for t2, l, r in self.marginals]}


def razborov_identities(f: FunctionTable, g: FunctionTable, params: UdisjParams,
                        max_n=11) -> RazborovReport:
    """Check, by full enumeration over partitions, that

        E[X | A] = E_T[Row0(T) Col0(T)],
        E[X | B] = E_T[Row1(T) Col1(T)],

    and that E[Row0 | T2] = E[Row1 | T2] for every T2 (the two marginal
    distributions of a agree).  Exact on both sides.
    """
    if params.n > max_n:
        raise BudgetError(f"n={params.n} exceeds the enumeration limit {max_n}")
    lhs_a, lhs_b = cond_expect(f, g, params)
    # integer numerators throughout; Row0, Col0 sit over k0 = C(2l-1, l)
    # times the table denominators, Row1, Col1 over k1 = C(2l-1, l-1)
    (F, df), (G, dg) = _scaled(f), _scaled(g)
    ell = params.ell
    k0, k1 = math.comb(2 * ell - 1, ell), math.comb(2 * ell - 1, ell - 1)
    sum_a = sum_b = count = 0
    per_t2 = {}
    for T in partitions(params):
        check_deadline()
        r0, r1, c0, c1 = _row_col_sums(F, G, T, ell)
        sum_a += r0 * c0
        sum_b += r1 * c1
        count += 1
        acc = per_t2.setdefault(T.t2, [0, 0, 0])
        acc[0] += r0
        acc[1] += r1
        acc[2] += 1
    marginals = [(t2, Fraction(s0, k * k0 * df), Fraction(s1, k * k1 * df))
                 for t2, (s0, s1, k) in sorted(per_t2.items())]
    return RazborovReport(
        expectation_a=(lhs_a, Fraction(sum_a, count * k0 * k0 * df * dg)),
        expectation_b=(lhs_b, Fraction(sum_b, count * k1 * k1 * df * dg)),
        marginals=marginals)


def entropy_gap(x) -> float:
    """(1 - H(x)) minus its Taylor minorant (1-2x)^2 / (2 ln 2).

    H is the binary entropy.  Nonnegative on (0,1), zero exactly at 1/2;
    evaluated in double precision since H is transcendental.
    """
    x = float(x)
    if not 0.0 < x < 1.0:
        raise InputError(f"entropy gap needs x in (0,1), got {x}")
    h = -(x * math.log2(x) + (1 - x) * math.log2(1 - x))
    return (1.0 - h) - (1 - 2 * x) ** 2 / (2 * math.log(2))


def corruption_rhs(p: CorruptionParams, ell) -> float:
    """The corruption bound 2^(-eps^2 l / (16 ln 2) + C log2 l)."""
    if ell < 1:
        raise InputError(f"l must be >= 1, got {ell}")
    eps = float(p.epsilon)
    exponent = -eps * eps * ell / (16 * math.log(2)) + float(p.C) * math.log2(ell)
    return 2.0 ** exponent


def shift_rank_lb(n, rho, p: CorruptionParams | None = None) -> float:
    """Rank lower bound for rho-extensions of unique disjointness:

        r >= (1/rho - eps) * 2^(eps^2 l / (16 ln 2) - C log2 l),  l = (n+1)/4,

    clamped below at 1 (a rank is at least 1).  With p = None, eps is set to
    1/(2 rho) and C to 0.  An n whose bound exceeds the float range is an
    input error."""
    params = UdisjParams(n)
    rho = rat(rho)
    if rho < 1:
        raise InputError(f"rho must be >= 1, got {rho}")
    if p is None:
        p = CorruptionParams(epsilon=Fraction(1, 2) / rho)
    if p.epsilon >= 1 / rho:
        raise InputError(
            f"epsilon {p.epsilon} must be below 1/rho = {1 / rho}; the bound is vacuous")
    ell = params.ell
    eps = float(p.epsilon)
    exponent = eps * eps * ell / (16 * math.log(2)) - float(p.C) * math.log2(ell)
    try:
        value = float(Fraction(1) / rho - p.epsilon) * 2.0 ** exponent
    except OverflowError as exc:
        raise InputError(
            f"n={n}: the bound 2^{exponent:.6g} exceeds the floating-point range") from exc
    return max(1.0, value)


@dataclass
class ScanReport:
    """Best corrupted rectangle found by a scan.

    Rectangles are pairs (row set, column set) of subsets of the full subset
    lattice, encoded as bitmasks over the 2^n subset indices.  When requested,
    counts holds one (rows, cols, ca, cb) of ints per scanned rectangle, in
    scan order, with ca = |R & A| and cb = |R & B| out of sizes = (|A|, |B|).
    `records` and `csv_lines` render them: P(R|A) = ca/|A|, P(R|B) = cb/|B|
    and the value (1-eps) P(R|A) - P(R|B) take a Fraction, or a string, once
    per distinct (ca, cb).
    """

    mode: str
    epsilon: Fraction
    scanned: int
    best_value: Fraction
    best_rect: tuple
    sizes: tuple
    zero_b_max: Fraction | None = None
    zero_b_rect: tuple | None = None
    counts: list = field(default_factory=list)

    def to_json(self):
        out = {"op": "rectangle_corruption_scan", "mode": self.mode,
               "epsilon": rat_str(self.epsilon), "scanned": self.scanned,
               "best_value": rat_str(self.best_value),
               "best_rect": {"rows": f"{self.best_rect[0]:x}",
                             "cols": f"{self.best_rect[1]:x}"}}
        if self.zero_b_max is not None:
            out["zero_b_max"] = rat_str(self.zero_b_max)
            out["zero_b_rect"] = {"rows": f"{self.zero_b_rect[0]:x}",
                                  "cols": f"{self.zero_b_rect[1]:x}"}
        return out

    def _fractions(self, ca, cb):
        na, nb = self.sizes
        pa, pb = Fraction(ca, na), Fraction(cb, nb)
        return pa, pb, (1 - self.epsilon) * pa - pb

    @property
    def records(self):
        """(rectangle id "r<rows hex>.c<cols hex>", P(R|A), P(R|B), value)
        per counted rectangle; equal counts share one Fraction triple."""
        shared = {}
        out = []
        for rs, cs, ca, cb in self.counts:
            triple = shared.get((ca, cb))
            if triple is None:
                triple = shared[ca, cb] = self._fractions(ca, cb)
            out.append((f"r{rs:x}.c{cs:x}",) + triple)
        return out

    def csv_lines(self):
        """The CSV header, then one "id,p_a,p_b,value" line per record."""
        yield "rectangle-id,p_a,p_b,value"
        tails = {}
        prev = None
        for rs, cs, ca, cb in self.counts:
            if rs != prev:
                prev, head = rs, f"r{rs:x}.c"
            tail = tails.get((ca, cb))
            if tail is None:
                tail = tails[ca, cb] = "".join(
                    "," + rat_str(x) for x in self._fractions(ca, cb))
            yield f"{head}{cs:x}{tail}"

    def csv_rows(self):
        """csv_lines split into (id, p_a, p_b, value) string tuples."""
        return (tuple(line.split(",")) for line in self.csv_lines())


def _exhaustive_counts(A, B, size):
    """(rows, cols, |R & A|, |R & B|) for every rectangle R of the lattice
    over `size` subset indices, rows-major."""
    lattice = range(1 << size)
    # incidence masks: which pairs survive a given row / column set
    arow = [sum(1 << k for k, (a, _) in enumerate(A) if (rs >> a) & 1) for rs in lattice]
    acol = [sum(1 << k for k, (_, b) in enumerate(A) if (cs >> b) & 1) for cs in lattice]
    brow = [sum(1 << k for k, (a, _) in enumerate(B) if (rs >> a) & 1) for rs in lattice]
    bcol = [sum(1 << k for k, (_, b) in enumerate(B) if (cs >> b) & 1) for cs in lattice]
    cols = list(enumerate(zip(acol, bcol)))
    for rs in lattice:
        if rs % 64 == 0:
            check_deadline()
        ar, br = arow[rs], brow[rs]
        for cs, (ac, bc) in cols:
            yield rs, cs, (ar & ac).bit_count(), (br & bc).bit_count()


def _sampled_counts(A, B, size, seed, count):
    """(rows, cols, |R & A|, |R & B|) for `count` uniform rectangles."""
    # per row index a: masks of the column indices b with (a, b) in A, in B
    nbrs = {}
    for k, pairs in enumerate((A, B)):
        for a, b in pairs:
            nbrs.setdefault(a, [0, 0])[k] |= 1 << b
    rows = list(nbrs.items())
    rng = random.Random(seed)
    for _ in range(count):
        check_deadline()
        rs = rng.getrandbits(size)
        cs = rng.getrandbits(size)
        ca = cb = 0
        for a, (amask, bmask) in rows:
            if (rs >> a) & 1:
                ca += (cs & amask).bit_count()
                cb += (cs & bmask).bit_count()
        yield rs, cs, ca, cb


def rectangle_corruption_scan(params: UdisjParams, eps, mode="exhaustive",
                              seed=0, count=1000, keep_records=False) -> ScanReport:
    """Maximize (1-eps) P(R|A) - P(R|B) over combinatorial rectangles.

    Exhaustive mode walks the full lattice of 2^(2^n) x 2^(2^n) rectangles
    and is therefore only allowed at n = 3 (65536 rectangles); it also
    reports max{P(R|A) : P(R|B) = 0}.  Sample mode draws `count` uniform
    rectangles from the same lattice with the given seed.

    A rectangle enters only through its integer counts ca = |R & A| and
    cb = |R & B|.  With eps = p/q its value is N / D with the integer
    N = (q-p) |B| ca - q |A| cb over the fixed D = q |A| |B|, so rectangles
    are compared by N, and Fractions are built only for reported values;
    keep_records keeps every rectangle's counts as ints (see ScanReport).
    Ties go to the first rectangle in (rows, cols) order, for the best value
    and for the zero-B witness (the largest ca with cb = 0) alike.
    """
    eps = rat(eps)
    if not 0 <= eps < 1:
        raise InputError(f"epsilon must lie in [0,1), got {eps}")
    if mode not in ("exhaustive", "sample"):
        raise InputError(f"mode must be 'exhaustive' or 'sample', got {mode!r}")
    if mode == "exhaustive" and params.n != 3:
        raise BudgetError(
            f"exhaustive scan over 2^(2^{params.n}) rectangles exceeds the "
            "budget; only n=3 is enumerable")
    if mode == "sample" and count < 1:
        raise InputError(f"sample count must be positive, got {count}")
    A, B = enum_classes(params)
    na, nb = len(A), len(B)
    size = 1 << params.n
    q = eps.denominator
    wa, wb, den = (q - eps.numerator) * nb, q * na, q * na * nb
    if mode == "exhaustive":
        rects = _exhaustive_counts(A, B, size)
    else:
        rects = _sampled_counts(A, B, size, seed, count)

    best_num, best_rect = -den - 1, None  # below every N, so R_0 wins
    zero_ca, zero_rect = -1, None
    counts = []
    scanned = 0
    for rect in rects:
        rs, cs, ca, cb = rect
        scanned += 1
        num = wa * ca - wb * cb
        if num > best_num:
            best_num, best_rect = num, (rs, cs)
        if cb == 0 and ca > zero_ca:
            zero_ca, zero_rect = ca, (rs, cs)
        if keep_records:
            counts.append(rect)
    rep = ScanReport(mode, eps, scanned, Fraction(best_num, den), best_rect, (na, nb),
                     counts=counts)
    if mode == "exhaustive":
        rep.zero_b_max, rep.zero_b_rect = Fraction(zero_ca, na), zero_rect
    return rep
