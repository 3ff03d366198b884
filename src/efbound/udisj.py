"""Unique-disjointness shift matrices and the corruption-lemma machinery.

Ground sets have size n = 4*l - 1 (n congruent to 3 mod 4), given as an int,
or read off the tables f, g, which must share it.  Subsets of [n] are
bitmasks with the least significant bit standing for element 1.  Two
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
partitions).  The class side sums g over each a's partners in A and in B,
read off bit masks over the l-subsets; the partition side reads Row/Col
numerators from tables of subset sums.  All of that is exact rational arithmetic.  The only floating
point lives in the entropy gap and the two closed-form bound formulas,
whose values are transcendental.

The rectangle scans count a rectangle's pairs of A and of B in integers,
through one kernel that reads only the bits of its row and column sets at
the l-subsets.  So the exhaustive n = 3 scan sorts each side's sets into
l-subset classes by those bits, counts once per pair of classes and
compares only the first rectangle of each, rows-major; a later one can
only tie, and ties go to the first.  Its kept records share one block of
column counts per row class.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, compress, product, repeat
from operator import add, itemgetter, mul

from .errors import BudgetError, InputError, check_deadline, decoding, ground_size, require
from .ratlin import ONE, ZERO, RationalMatrix, _over, _rho, _vec_json, rat, rat_str, rats


def _ell(n):
    """l = (n+1)/4, once n is an integer >= 3 congruent to 3 mod 4 (else InputError)."""
    if ground_size(n, least=3) % 4 != 3:
        raise InputError(f"n must be congruent to 3 mod 4 and >= 3, got {n}")
    return (n + 1) // 4


def _identities_ell(n):
    """_ell(n), once n is also at most 11, the limit of razborov_identities (else BudgetError)."""
    ell = _ell(n)
    ground_size(n, limit=11)
    return ell


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
    """Dense rational function on 2^[n], indexed by subset bitmask; n is an
    integer >= 0."""

    def __init__(self, n, values):
        self.n = ground_size(n, least=0)
        self.values = rats(values)
        if len(self.values) != 1 << self.n:
            raise InputError(
                f"table needs {1 << self.n} values for n={self.n}, got {len(self.values)}")

    def __call__(self, mask):
        return self.values[mask]

    @classmethod
    def ones(cls, n):
        return cls(n, [ONE] * (1 << n))

    def to_json(self):
        return {"n": self.n, "values": _vec_json(self.values)}

    @classmethod
    def from_json(cls, d):
        with decoding("function table JSON needs keys n, values"):
            return cls(d["n"], d["values"])


def parse_function(spec, n) -> FunctionTable:
    """Named built-ins for the CLI: "ones"; "set:MASK", 1 on that one subset;
    "contains:K" and "avoids:K", 1 on the subsets that hold or miss the
    (1-based) element K; 0 elsewhere."""
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
        return FunctionTable(n, [ONE if m == val else ZERO for m in range(1 << n)])
    if kind in ("contains", "avoids"):
        if not 1 <= val <= n:
            raise InputError(f"element {val} out of range for n={n}")
        bit = 1 << (val - 1)
        hit, miss = (ONE, ZERO) if kind == "contains" else (ZERO, ONE)
        return FunctionTable(n, [hit if m & bit else miss for m in range(1 << n)])
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


def build_shift(n, rho, fill=None) -> RationalMatrix:
    """The 2^n x 2^n rho-shift matrix over all subset pairs, for an integer
    1 <= n <= 14 and rho >= 1.

    Entries on A (disjoint) and B (share one) are forced to rho and rho-1;
    larger intersections take the value fill.  The default fill = None
    stands for (1-|a&b|)^2 + rho - 1, which extends both consistently and
    makes the matrix coincide with the shifted hard-pair slack matrix.
    """
    rho = _rho(rho)
    fill = None if fill is None else rat(fill)
    ground_size(n, limit=14)
    # one entry value per intersection size |a & b| = 0..n
    by_size = [rho, rho - 1] + [
        Fraction((1 - k) ** 2) + rho - 1 if fill is None else fill for k in range(2, n + 1)]
    size = 1 << n
    entries = []
    for a in range(size):
        if a % 64 == 0:
            check_deadline()
        entries.extend([by_size[(a & b).bit_count()] for b in range(size)])
    return RationalMatrix._of(size, size, entries)


def _neighbour_masks(n):
    """(a, A mask, B mask) per l-subset a of [n], in ksubsets order, over
    compressed positions: position k stands for the k-th l-subset b.  The A
    mask holds the b inside the complement of a, the B mask the b that meet
    a in exactly one element."""
    ell = _ell(n)
    subs = list(ksubsets((1 << n) - 1, ell))
    # per element x, the positions of the l-subsets that hold it
    holding = [sum(1 << k for k, b in enumerate(subs) if b >> x & 1) for x in range(n)]
    every = (1 << len(subs)) - 1
    out = []
    for a in subs:
        check_deadline()
        once = twice = 0  # the b meeting a in at least one, at least two elements
        for x in _bits(a):
            twice |= once & holding[x]
            once |= holding[x]
        out.append((a, every ^ once, once ^ twice))
    return out


_BIT = bytes.maketrans(b"01", b"\0\1")


def _members(items, mask):
    """The items at the set bits of mask, in order."""
    return compress(items, format(mask, f"0{len(items)}b")[::-1].encode().translate(_BIT))


def enum_classes(n):
    """Ordered pairs of l-subsets of [n]: A disjoint, B sharing exactly one element.

    Both lists run over a in ksubsets order and, for one a, over b in
    ksubsets order, as a filter of all pairs would."""
    rows = _neighbour_masks(n)
    subs = [a for a, _, _ in rows]
    A, B = [], []
    for a, amask, bmask in rows:
        A.extend(zip(repeat(a), _members(subs, amask)))
        B.extend(zip(repeat(a), _members(subs, bmask)))
    return A, B


def partitions(n):
    """All (T1, T2, i) with |T1| = |T2| = 2l-1 partitioning [n]."""
    tsize = 2 * _ell(n) - 1
    for i in range(1, n + 1):
        rest = ((1 << n) - 1) & ~(1 << (i - 1))
        for t1 in ksubsets(rest, tsize):
            yield PartitionT(t1, rest & ~t1, i)


def mu_class_probabilities(n):
    """(P(A), P(B)) under mu, by exhausting the (T, a, b) construction.

    Also checks what the construction promises: the support is exactly
    A union B and pairs within one class are equiprobable.  A failed check
    raises VerificationError.
    """
    ell = _ell(n)
    counts = {}
    total = 0
    for T in partitions(n):
        check_deadline()
        ibit = 1 << (T.i - 1)
        a_choices = list(ksubsets(T.t1 | ibit, ell))
        b_choices = list(ksubsets(T.t2 | ibit, ell))
        for a in a_choices:
            for b in b_choices:
                counts[(a, b)] = counts.get((a, b), 0) + 1
                total += 1
    A, B = enum_classes(n)
    aset, bset = set(A), set(B)
    require(set(counts) == aset | bset, "mu support is exactly A union B")
    acounts = {counts[p] for p in aset}
    bcounts = {counts[p] for p in bset}
    require(len(acounts) == 1 and len(bcounts) == 1,
            "mu pairs within a class are equiprobable")
    pa = Fraction(sum(counts[p] for p in aset), total)
    return pa, 1 - pa


def _checked_scaled(f: FunctionTable, g: FunctionTable):
    """(n, _over(f.values), _over(g.values)), once f and g are checked to be
    nonnegative tables over the same n."""
    if f.n != g.n:
        raise InputError(f"f and g must be tables over one n, got n={f.n} and n={g.n}")
    out = [f.n, _over(f.values), _over(g.values)]
    for name, (vals, _) in zip("fg", out[1:]):
        if min(vals) < 0:
            raise InputError(f"{name} must be nonnegative")
    return out


def _cond_expect(n, scaled_f, scaled_g):
    """cond_expect over the scaled tables: sum_a F(a) sum_b G(b) over each
    a's partners in A and in B."""
    (F, df), (G, dg) = scaled_f, scaled_g
    rows = _neighbour_masks(n)
    gs = [G[b] for b, _, _ in rows]
    sum_a = sum_b = na = nb = 0
    for a, amask, bmask in rows:
        sum_a += F[a] * sum(_members(gs, amask))
        sum_b += F[a] * sum(_members(gs, bmask))
        na += amask.bit_count()
        nb += bmask.bit_count()
    return Fraction(sum_a, na * df * dg), Fraction(sum_b, nb * df * dg)


def cond_expect(f: FunctionTable, g: FunctionTable):
    """(E[X | A], E[X | B]) for X = f(a) g(b), uniform within each class."""
    return _cond_expect(*_checked_scaled(f, g))


def _subset_sums(values, n, k):
    """z[M] = the sum of values[S] over the k-subsets S of M, for every mask
    M < 2^n: the subset-sum (zeta) transform of values kept on the
    k-subsets, one bit at a time over list slices.

    Over integer tables F, G these give a partition T's Row0 = z_F[T1],
    Row1 = z_F[T1 + {i}] - z_F[T1], and Col0, Col1 likewise from z_G and T2,
    as numerators over C(2l-1, l) and C(2l-1, l-1)."""
    size = 1 << n
    z = [v if m.bit_count() == k else 0 for m, v in enumerate(values)]
    for j in range(n):
        half = 1 << j
        step = 2 * half
        if half <= size // step:  # few offsets: one strided slice each
            for r in range(half):
                z[half + r::step] = map(add, z[half + r::step], z[r::step])
        else:  # few blocks: one contiguous slice each
            for lo in range(0, size, step):
                z[lo + half:lo + step] = map(add, z[lo + half:lo + step], z[lo:lo + half])
    return z


def row_col_stats(f: FunctionTable, g: FunctionTable, T: PartitionT) -> RowColStats:
    """The four conditional expectations for a fixed partition T of [n], n = f.n:

    Row0 = E[f(a) | T, i not in a]   (a ranges over l-subsets of T1)
    Row1 = E[f(a) | T, i in a]       (a = {i} plus an (l-1)-subset of T1)
    and the same for g over T2 columns.
    """
    n, (F, df), (G, dg) = _checked_scaled(f, g)
    ell = _ell(n)
    tsize = 2 * ell - 1
    ibit = 1 << (T.i - 1)
    if not 1 <= T.i <= n:
        raise InputError(f"singleton element {T.i} out of range")
    if (T.t1 | T.t2 | ibit) != (1 << n) - 1 or \
            T.t1 & T.t2 or T.t1 & ibit or T.t2 & ibit:
        raise InputError("T1, T2, {i} must partition the ground set")
    if T.t1.bit_count() != tsize or T.t2.bit_count() != tsize:
        raise InputError(f"T1 and T2 must each have {tsize} elements")
    k0, k1 = math.comb(tsize, ell), math.comb(tsize, ell - 1)
    zf, zg = _subset_sums(F, n, ell), _subset_sums(G, n, ell)
    return RowColStats(row0=Fraction(zf[T.t1], k0 * df),
                       row1=Fraction(zf[T.t1 | ibit] - zf[T.t1], k1 * df),
                       col0=Fraction(zg[T.t2], k0 * dg),
                       col1=Fraction(zg[T.t2 | ibit] - zg[T.t2], k1 * dg))


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


def razborov_identities(f: FunctionTable, g: FunctionTable) -> RazborovReport:
    """Check, by full enumeration over partitions at n = f.n <= 11, that

        E[X | A] = E_T[Row0(T) Col0(T)],
        E[X | B] = E_T[Row1(T) Col1(T)],

    and that E[Row0 | T2] = E[Row1 | T2] for every T2 (the two marginal
    distributions of a agree).  Exact on both sides.
    """
    ell = _identities_ell(f.n)
    n, scaled_f, scaled_g = _checked_scaled(f, g)
    lhs_a, lhs_b = _cond_expect(n, scaled_f, scaled_g)
    # integer numerators throughout; Row0, Col0 sit over k0 = C(2l-1, l)
    # times the table denominators, Row1, Col1 over k1 = C(2l-1, l-1)
    (F, df), (G, dg) = scaled_f, scaled_g
    full = (1 << n) - 1
    k0, k1 = math.comb(2 * ell - 1, ell), math.comb(2 * ell - 1, ell - 1)
    zf, zg = _subset_sums(F, n, ell), _subset_sums(G, n, ell)
    sum_a = sum_b = count = 0
    marginals = []
    # the partitions grouped by T2: T1 + {i} is the complement u of T2 for
    # each of them, one per element i of u
    for t2 in sorted(ksubsets(full, 2 * ell - 1)):
        check_deadline()
        u = full ^ t2
        ibits = list(ksubsets(u, 1))
        row0 = list(map(zf.__getitem__, map(u.__xor__, ibits)))
        row1 = list(map(zf[u].__sub__, row0))
        col0 = zg[t2]
        col1 = map(col0.__rsub__, map(zg.__getitem__, map(t2.__or__, ibits)))
        sum0, k = sum(row0), len(ibits)
        sum_a += sum0 * col0
        sum_b += sum(map(mul, row1, col1))
        count += k
        marginals.append((t2, Fraction(sum0, k * k0 * df), Fraction(sum(row1), k * k1 * df)))
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


def _exponent(eps, C):
    """The map l -> eps^2 l / (16 ln 2) - C log2 l, the exponent of both
    closed forms, once eps lies in (0,1] and C >= 0 (else InputError,
    checked in that order).

    C is the exposed absolute constant standing in for the O(log l) term.
    No claim is made about which C makes the lemma tight; C = 0 reads off
    the bare exponential.  The probabilistic statement needs eps strictly
    inside (0,1), but the closed forms evaluate fine at the eps = 1
    endpoint, so that is allowed here; shift_rank_lb separately rejects
    eps >= 1/rho, where the rank bound turns vacuous."""
    eps, C = rat(eps), rat(C)
    if not 0 < eps <= 1:
        raise InputError(f"epsilon must lie in (0,1], got {eps}")
    if C < 0:
        raise InputError(f"C must be >= 0, got {C}")
    e, c = float(eps), float(C)
    return lambda ell: e * e * ell / (16 * math.log(2)) - c * math.log2(ell)


def corruption_rhs(eps, ell, C=0) -> float:
    """The corruption bound 2^(-eps^2 l / (16 ln 2) + C log2 l), l >= 1."""
    exponent = _exponent(eps, C)
    if ell < 1:
        raise InputError(f"l must be >= 1, got {ell}")
    return 2.0 ** -exponent(ell)


def shift_rank_lb(n, rho, eps=None, C=0) -> float:
    """Rank lower bound for rho-extensions of unique disjointness:

        r >= (1/rho - eps) * 2^(eps^2 l / (16 ln 2) - C log2 l),  l = (n+1)/4,

    clamped below at 1 (a rank is at least 1).  With eps = None, eps is set
    to 1/(2 rho).  A given eps and C are checked before n and rho.  An n
    whose bound exceeds the float range is an input error."""
    if eps is not None:
        _exponent(eps, C)
    ell = _ell(n)
    rho = _rho(rho)
    eps = Fraction(1, 2) / rho if eps is None else rat(eps)
    exponent = _exponent(eps, C)(ell)
    if eps >= 1 / rho:
        raise InputError(
            f"epsilon {eps} must be below 1/rho = {1 / rho}; the bound is vacuous")
    try:
        value = float(1 / rho - eps) * 2.0 ** exponent
    except OverflowError as exc:
        raise InputError(
            f"n={n}: the bound 2^{exponent:.6g} exceeds the floating-point range") from exc
    return max(1.0, value)


@dataclass
class ScanReport:
    """Best corrupted rectangle found by a scan.

    Rectangles are pairs (row set, column set) of subsets of the full subset
    lattice, encoded as bitmasks over the 2^n subset indices.  When requested,
    row_blocks holds one (rows, block) per scanned row set, in scan order,
    where block is a tuple of (cols, ca, cb) ints with ca = |R & A| and
    cb = |R & B| out of sizes = (|A|, |B|).  An exhaustive scan keeps one
    block per row l-subset class (see rectangle_corruption_scan), shared by
    every row set of that class; a sampled rectangle is a one-entry block.
    `records` and `csv_text` render them: P(R|A) = ca/|A|, P(R|B) = cb/|B|
    and the value (1-eps) P(R|A) - P(R|B) take a Fraction, or a string, once
    per distinct (ca, cb), and the CSV lines of a block once per block.
    """

    mode: str
    epsilon: Fraction
    scanned: int
    best_value: Fraction
    best_rect: tuple
    sizes: tuple
    zero_b_max: Fraction | None = None
    zero_b_rect: tuple | None = None
    row_blocks: list = field(default_factory=list)

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
        per kept rectangle; equal counts share one Fraction triple."""
        shared = {}
        out = []
        for rs, block in self.row_blocks:
            for cs, ca, cb in block:
                triple = shared.get((ca, cb))
                if triple is None:
                    triple = shared[ca, cb] = self._fractions(ca, cb)
                out.append((f"r{rs:x}.c{cs:x}",) + triple)
        return out

    def csv_text(self):
        """The CSV: the header, then one "id,p_a,p_b,value" line per record.

        A block's "<cols hex>,p_a,p_b,value" strings are rendered once per
        distinct block (keyed by id(): row_blocks keeps every block alive),
        and a row set's lines are one join of them with the separator
        "\\nr<rows hex>.c".  The deadline is polled every 64 row sets."""
        tails, rendered = {}, {}

        def tail(ca, cb):
            text = tails.get((ca, cb))
            if text is None:
                text = tails[ca, cb] = "".join(
                    "," + rat_str(x) for x in self._fractions(ca, cb))
            return text

        parts = ["rectangle-id,p_a,p_b,value\n"]
        for i, (rs, block) in enumerate(self.row_blocks):
            if i % 64 == 0:
                check_deadline()
            cells = rendered.get(id(block))
            if cells is None:
                cells = rendered[id(block)] = [f"{cs:x}{tail(ca, cb)}" for cs, ca, cb in block]
            head = f"r{rs:x}.c"
            parts.append(head + ("\n" + head).join(cells) + "\n")
        return "".join(parts)


def _counts(rows, size, rects):
    """(rows, cols, |R & A|, |R & B|) for each (rows, cols) of the stream rects.

    Only the bits of rs and cs at the l-subsets count; `rows` is
    _neighbour_masks.  With m l-subsets, the k-th row's A and B masks sit
    in slot k, of width 8w >= m bits, of the ints ma and mb.  A rectangle
    reads cs's bits at the l-subsets as one m-bit int c, and rs's as an int
    R with one 0/1 byte per slot; in R * c the slot of each held row holds c
    and every other slot 0, so |R & A| is the bit count of ma & R * c, and
    likewise for B.  The deadline is polled once per rectangle."""
    subs = [a for a, _, _ in rows]
    m = len(subs)
    w = (m + 7) // 8
    fmt = f"0{size}b"  # bit b of x is character size-1-b of format(x, fmt)
    held_at = itemgetter(*[size - 1 - a for a in subs])
    packed_at = itemgetter(*[size - 1 - a for a in reversed(subs)])
    ma, mb = (int.from_bytes(b"".join(r[k].to_bytes(w, "little") for r in rows), "little")
              for k in (1, 2))
    # the held rows land as the characters '0' and '1' (bytes 48 and 49):
    # less the all-'0' value, one 0/1 byte per slot is left
    slots = bytearray(w * m)
    slots[::w] = b"0" * m
    zeros = int.from_bytes(slots, "little")
    for rs, cs in rects:
        check_deadline()
        slots[::w] = held_at(format(rs, fmt).encode())
        outer = (int.from_bytes(slots, "little") - zeros) * \
            int("".join(packed_at(format(cs, fmt))), 2)
        yield rs, cs, (ma & outer).bit_count(), (mb & outer).bit_count()


def rectangle_corruption_scan(n, eps, mode="exhaustive",
                              seed=0, count=1000, keep_records=False) -> ScanReport:
    """Maximize (1-eps) P(R|A) - P(R|B) over combinatorial rectangles on [n].

    Exhaustive mode covers the full lattice of 2^(2^n) x 2^(2^n) rectangles
    and is therefore only allowed at n = 3 (65536 rectangles); it also
    reports max{P(R|A) : P(R|B) = 0}.  Sample mode draws `count` uniform
    rectangles from the same lattice with the given seed, at n <= 19.

    A rectangle enters only through its integer counts ca = |R & A| and
    cb = |R & B|.  With eps = p/q its value is N / D with the integer
    N = (q-p) |B| ca - q |A| cb over the fixed D = q |A| |B|, so rectangles
    are compared by N, and Fractions are built only for reported values;
    keep_records keeps the counts as ints (see ScanReport).  Ties go to the
    first rectangle in (rows, cols) order, for the best value and for the
    zero-B witness (the largest ca with cb = 0) alike.  A sampled scan
    keeps only the running best, and the records if asked for, so without
    them its memory does not grow with count.

    Both modes count through _counts, which reads only the bits of the row
    set and of the column set at the l-subsets.  So the exhaustive scan
    sorts each side's sets into l-subset classes, by s & used where used
    holds the bits of the l-subsets (8 classes per side at n = 3), and
    counts once per pair of classes.  The key s & used is also the first
    member of its class, so the pairs of keys, in ascending order, are the
    first rectangles of the class pairs, rows-major.  Only these are
    compared, by strict >; every later rectangle of a pair can only tie
    with its first, so the result is that of the full scan, and `scanned`
    still counts every rectangle.
    """
    _ell(n)
    eps = rat(eps)
    if not 0 <= eps < 1:
        raise InputError(f"epsilon must lie in [0,1), got {eps}")
    if mode not in ("exhaustive", "sample"):
        raise InputError(f"mode must be 'exhaustive' or 'sample', got {mode!r}")
    if mode == "exhaustive" and n != 3:
        raise BudgetError(
            f"exhaustive scan over 2^(2^{n}) rectangles exceeds the "
            "budget; only n=3 is enumerable")
    if mode == "sample" and count < 1:
        raise InputError(f"sample count must be positive, got {count}")
    if mode == "sample":  # _counts packs ints of C(n, l)^2 / 8 bytes
        ground_size(n, limit=19)
    rows = _neighbour_masks(n)
    na, nb = (sum(r[k].bit_count() for r in rows) for k in (1, 2))
    size = 1 << n
    row_blocks = []
    keep_sampled = mode == "sample" and keep_records
    if mode == "exhaustive":
        used = sum(1 << a for a, _, _ in rows)
        sets = range(1 << size)
        keys = [s for s in sets if s & used == s]
        rects = list(_counts(rows, size, product(keys, repeat=2)))
        if keep_records:  # one block of column counts per row class
            counts = {(rs, cs): (ca, cb) for rs, cs, ca, cb in rects}
            blocks = {rk: tuple((cs,) + counts[rk, cs & used] for cs in sets) for rk in keys}
            row_blocks = [(rs, blocks[rs & used]) for rs in sets]
        scanned = 1 << (2 * size)
    else:
        draws = map(random.Random(seed).getrandbits, repeat(size, 2 * count))
        rects = _counts(rows, size, zip(draws, draws))  # rows, then cols
        scanned = count
    q = eps.denominator
    wa, wb, den = (q - eps.numerator) * nb, q * na, q * na * nb

    best_num, best_rect = -den - 1, None  # below every N, so R_0 wins
    zero_ca, zero_rect = -1, None
    for rs, cs, ca, cb in rects:
        if keep_sampled:
            row_blocks.append((rs, ((cs, ca, cb),)))
        num = wa * ca - wb * cb
        if num > best_num:
            best_num, best_rect = num, (rs, cs)
        if cb == 0 and ca > zero_ca:
            zero_ca, zero_rect = ca, (rs, cs)
    rep = ScanReport(mode, eps, scanned, Fraction(best_num, den), best_rect, (na, nb),
                     row_blocks=row_blocks)
    if mode == "exhaustive":
        rep.zero_b_max, rep.zero_b_rect = Fraction(zero_ca, na), zero_rect
    return rep
