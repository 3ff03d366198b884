"""Nonnegative factorizations of slack matrices, both directions, with bounds.

A rank-r nonnegative factorization S = TU of a pair's slack matrix and a
size-r extended formulation of the pair are two views of the same object.
This module makes both directions executable:

* factorization_to_ef writes down the system  A x + T y = b, y >= 0;
* ef_to_factorization finds the containment witnesses of P's generators
  and a tight derivation (c = 0) of each row of Q, which together prove
  P inside K inside Q, and multiplies them into  T F [W, Z]  of rank r.
  Only when some row has no tight derivation does it run ef_inside_hrep,
  whose general derivations fill the missing rows of
  [TF | c] [[W, Z], [1, 0]], of rank at most r+1.  A half that fails is
  the report it raises.

Because deciding the nonnegative rank exactly is out of reach, the bounds
reported here are sound by construction: lower bounds come from the linear
rank and from an exact minimum rectangle cover of the support, upper bounds
only ever drop below min(m, n) when a candidate factorization verifies as an
exact rational identity.  Floating-point appears solely inside the NMF
heuristic, and anything it produces is either made exact or thrown away.

The NMF heuristic runs the multiplicative updates of a chunk of restarts
at once on stacked arrays, bit for bit as each restart alone would.  Each
restart's T is rounded to nearby rationals by integer continued fractions;
one exact elimination refutes a T whose span misses a column of S before
any LP, and only a T that survives has U solved exactly in its cone.  numpy
is imported only when the float stage runs, so a call that tries no rank
below min(m, n) never loads it, and numpy.random is never loaded: the
starts come from _uniform_floats, numpy's PCG64 stream redone in Python.

The rectangle cover is a branch and bound over the maximal rectangles of
the support, whose column sets are found as the intersection closure of the
row supports.  It prunes a node by bounds valid for a minimum cover
(rectangles left, a greedy fooling set and, with few rectangles left, an
exact fooling set) and skips each branch whose newly covered cells another
branch also covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, InputError, check_deadline, decoding, require
from .polyhedra import (
    ExtendedFormulation,
    HRep,
    VRep,
    build_slack,
    ef_contains_points,
    ef_inside_hrep,
    nonneg_solutions,
    tight_derivations,
)
from .ratlin import ONE, ZERO, RationalMatrix, _eliminate_cols, _over, dot, mat_rank, rat


class PreconditionError(Exception):
    """A construction's precondition failed; carries the failed check's report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass
class NonnegFactorization:
    """S = T U with T (m x r), U (r x n); rank = r.

    Entrywise nonnegativity is part of the meaning but is checked by
    verify_factorization, not assumed at construction (failure reporting
    needs to be able to hold a bad candidate).
    """

    T: RationalMatrix
    U: RationalMatrix

    def __post_init__(self):
        if self.T.cols != self.U.rows:
            raise InputError(
                f"inner dimensions differ: T is {self.T.rows}x{self.T.cols}, "
                f"U is {self.U.rows}x{self.U.cols}")

    @property
    def rank(self):
        return self.T.cols

    def to_json(self):
        return {"T": self.T.to_json(), "U": self.U.to_json()}

    @classmethod
    def from_json(cls, d):
        with decoding("factorization JSON needs keys T, U"):
            return cls(RationalMatrix.from_json(d["T"]), RationalMatrix.from_json(d["U"]))


@dataclass
class FactorizationCheck:
    """Truthy verdict of verify_factorization; falsy verdicts carry the first
    offending location as (part, i, j) with part in {"T", "U", "product"}."""

    ok: bool
    reason: str = ""
    where: tuple | None = None

    def __bool__(self):
        return self.ok


def verify_factorization(S, fac: NonnegFactorization) -> FactorizationCheck:
    """Exact check that fac is a nonnegative factorization of S.

    Product entries are formed row by row and the check stops at the first
    mismatch, so a failing candidate costs no full product.
    """
    if not isinstance(S, RationalMatrix):
        S = RationalMatrix.from_rows([[rat(x) for x in row] for row in S])
    if fac.T.rows != S.rows or fac.U.cols != S.cols:
        raise InputError(
            f"factorization shape {fac.T.rows}x{fac.U.cols} does not match "
            f"matrix {S.rows}x{S.cols}")
    for name, M in (("T", fac.T), ("U", fac.U)):
        for i in range(M.rows):
            for j in range(M.cols):
                if M[i, j] < 0:
                    return FactorizationCheck(
                        False, f"negative entry {M[i, j]} in {name}", (name, i, j))
    ucols = [fac.U.col(j) for j in range(S.cols)]
    for i in range(S.rows):
        ti = fac.T.row(i)
        for j, uj in enumerate(ucols):
            p = dot(ti, uj)
            if p != S[i, j]:
                return FactorizationCheck(
                    False, f"product entry ({i},{j}) is {p}, expected {S[i, j]}",
                    ("product", i, j))
    return FactorizationCheck(True)


def factorization_to_ef(Q: HRep, fac: NonnegFactorization) -> ExtendedFormulation:
    """EF of the pair from a slack factorization S = TU:  A x + T y = b.

    The size is fac.rank; the y witness for a vertex v_j is the j-th column
    of U, which is what makes the sandwich verify.
    """
    if fac.T.rows != Q.nrows:
        raise InputError(
            f"T has {fac.T.rows} rows but Q has {Q.nrows} inequalities")
    return ExtendedFormulation(Q.A.copy(), fac.T.copy(), list(Q.b))


def ef_to_factorization(K: ExtendedFormulation, P: VRep, Q: HRep) -> NonnegFactorization:
    """Turn a size-r EF of the pair (P, Q) into a nonnegative factorization
    of the slack matrix, of rank at most r+1.

    Point witnesses w_j and ray witnesses z_j come from ef_contains_points,
    row multipliers (t_i, c_i) from a derivation of each row of Q.  Then

        S = [T F | c] [[W, Z], [1^t, 0^t]].

    Every row is first derived tightly (c_i = 0, tight_derivations); those
    derivations alone prove K inside Q, and the offset column is dropped, so
    the rank is r.  Only when some row has no tight derivation does
    ef_inside_hrep run: its general derivations fill those rows.  A failed
    containment or inside check raises PreconditionError with its report.
    The result is verified against build_slack(P, Q) before being returned.
    """
    if P.is_empty:
        raise InputError("P must contain at least one point")
    contains = ef_contains_points(P, K)
    if not contains.ok:
        raise PreconditionError("P is not inside the EF", contains)
    tight = tight_derivations(K, Q)
    general = {}
    if None in tight:
        inside = ef_inside_hrep(K, Q)
        if not inside.ok:
            raise PreconditionError("the EF is not inside Q", inside)
        general = {i: (t, c) for i, t, c in inside.derivations}
    npts, nrays = len(P.points), len(P.rays)
    # the witnesses come in generator order, points then rays: one column each
    WZ = RationalMatrix(npts + nrays, K.size, [
        x for _, _, w in contains.witnesses for x in w]).transpose()

    m = Q.nrows
    Tm = RationalMatrix(m, K.nrows)
    cvec = []
    for i, t in enumerate(tight):
        t, ci = (t, ZERO) if t is not None else general[i]
        for k, x in enumerate(t):
            Tm[i, k] = x
        cvec.append(ci)

    TF = Tm @ K.F
    if all(c == 0 for c in cvec):
        left = TF
        right = WZ
    else:
        ccol = RationalMatrix(m, 1, cvec)
        left = RationalMatrix.hstack([TF, ccol])
        bottom = RationalMatrix(1, npts + nrays, [ONE] * npts + [ZERO] * nrays)
        right = RationalMatrix.vstack([WZ, bottom])
    fac = NonnegFactorization(left, right)
    check = verify_factorization(build_slack(P, Q).full(), fac)
    require(check, f"factorization from the EF verifies ({check.reason})")
    return fac


def _support_masks(S: RationalMatrix):
    return [sum(1 << j for j in range(S.cols) if S[i, j] != 0) for i in range(S.rows)]


def _compatible(rowmasks, a, b):
    """Support cells a and b fit in one all-support rectangle iff both
    opposite corners are support cells."""
    (i, j), (k, l) = a, b
    return bool((rowmasks[i] >> l) & 1 and (rowmasks[k] >> j) & 1)


def _greedy_fooling(avail, compat, limit):
    """Size of a greedy fooling set (pairwise incompatible cells) in avail.

    Cells are bits; the lowest one left is taken and every cell compatible
    with it, itself included, is dropped (compat(k) is that mask).  No
    rectangle holds two fooling cells, so the size lower-bounds the cover.
    Counting stops once the size exceeds limit.
    """
    size = 0
    while avail and size <= limit:
        avail &= ~compat((avail & -avail).bit_length() - 1)
        size += 1
    return size


def _fooling_at_least(avail, apart, size):
    """Whether avail holds size >= 1 pairwise incompatible cells.

    Cells are bits and apart[q] is the mask of cells incompatible with q.
    The lowest cell left is either in such a set, and the others are sought
    among the later cells apart from it, or it is dropped.
    """
    if size == 1:
        return avail != 0
    while avail.bit_count() >= size:
        low = avail & -avail
        avail ^= low
        if _fooling_at_least(avail & apart[low.bit_length() - 1], apart, size - 1):
            return True
    return False


# the largest k for which a node with k rectangles left is tested for an
# exact fooling set of k + 1 cells; a larger k costs more than it prunes
_EXACT_FOOLING_K = 3


def rect_cover_lb(S, max_side=16) -> int:
    """Exact minimum number of all-support combinatorial rectangles covering
    the support of S.

    Each rank-1 nonnegative term of a factorization has rectangular support,
    so this is a sound lower bound on the nonnegative rank.  Some minimum
    cover uses maximal rectangles only.  Their column sets are the
    nonempty intersections of row supports; they are closed under
    intersection, so they are built by adding each row support r and every
    c & r to the family found so far.

    The minimum cover over them is found by branch and bound, started from
    a greedy cover.  With k rectangles left for a strictly better cover, a
    node is pruned when k <= 0, when a greedy fooling set of uncovered
    cells exceeds k, or, for k <= _EXACT_FOOLING_K, when an exact search
    finds k + 1 pairwise incompatible uncovered cells; at k = 1 one
    rectangle must hold every uncovered cell.  The search branches on the
    uncovered cell with the fewest candidate rectangles and skips each
    candidate whose residual lies inside another candidate's residual.

    A support side exceeding max_side raises a budget error carrying the
    best cheap bound found (a greedy fooling set, row-major).
    """
    if not isinstance(S, RationalMatrix):
        S = RationalMatrix.from_rows([[rat(x) for x in row] for row in S])
    rowmasks = _support_masks(S)
    cells = [(i, j) for i in range(S.rows) for j in range(S.cols) if S[i, j] != 0]
    if not cells:
        return 0
    if len({mask for mask in rowmasks if mask}) == 1:
        return 1  # every nonzero row has the same support: one rectangle
    # work along the smaller side; a cover is transpose-invariant
    if S.cols < S.rows:
        return rect_cover_lb(S.transpose(), max_side=max_side)
    m = S.rows
    if m > max_side:
        def compat_row_major(k):
            return sum(1 << l for l, b in enumerate(cells)
                       if _compatible(rowmasks, cells[k], b))
        raise BudgetError(
            f"support side {m} exceeds enumeration budget {max_side}",
            partial=_greedy_fooling((1 << len(cells)) - 1, compat_row_major, len(cells)))

    # number the cells by fewest compatible cells, the greedy fooling order
    compatible = {a: [b for b in cells if _compatible(rowmasks, a, b)] for a in cells}
    cells.sort(key=lambda a: len(compatible[a]))
    bit = {c: 1 << k for k, c in enumerate(cells)}
    compat = [sum(bit[b] for b in compatible[a]) for a in cells]

    colsets = set()
    for r in set(rowmasks) - {0}:
        check_deadline()
        colsets |= {c & r for c in colsets}
        colsets.add(r)
    colsets.discard(0)
    rects = set()
    for colmask in colsets:
        rows = [i for i in range(m) if rowmasks[i] & colmask == colmask]
        rects.add(sum(bit[(i, j)] for i in rows for j in range(S.cols)
                      if (colmask >> j) & 1))
    rects = sorted(rects, key=lambda x: -x.bit_count())
    covers_cell = [[r for r in rects if r & bit[c]] for c in cells]
    branch_order = sorted(range(len(cells)), key=lambda k: len(covers_cell[k]))

    # greedy start for the upper bound
    full = (1 << len(cells)) - 1
    covered, best = 0, 0
    while covered != full:
        covered |= max(rects, key=lambda r: (r & ~covered).bit_count())
        best += 1
    apart = [full & ~c for c in compat]

    def pruned(unc, k):
        """No cover of the uncovered cells unc with at most k rectangles."""
        if k <= 0:
            return True
        if k == 1:
            return not any(r & unc == unc
                           for r in covers_cell[(unc & -unc).bit_length() - 1])
        if _greedy_fooling(unc, compat.__getitem__, k) > k:
            return True
        return k <= _EXACT_FOOLING_K and _fooling_at_least(unc, apart, k + 1)

    def search(unc, depth):
        nonlocal best
        check_deadline()
        cell = next(q for q in branch_order if (unc >> q) & 1)
        kept = []
        for res in sorted({r & unc for r in covers_cell[cell]},
                          key=lambda x: -x.bit_count()):
            if all(res & ~other for other in kept):
                kept.append(res)
        for res in kept:
            k = best - depth - 2  # rectangles left after res for a better cover
            if k < 0:
                return
            rest = unc & ~res
            if not rest:
                best = depth + 1
                return
            if not pruned(rest, k):
                search(rest, depth + 1)

    if not pruned(full, best - 1):
        search(full, 0)
    return best


@dataclass
class NmfConfig:
    """Knobs for the floating NMF heuristic inside nnegrk_bounds.

    Each rank tried gets `restarts` shots; a shot runs `iterations`
    multiplicative updates from its own seeded start, and its float T is
    rounded to the nearest rationals with denominators at most
    `max_denominator`.  `seed` must be >= 0 (InputError otherwise), so
    that every start's seed + 1009 a + 9176 r is a valid generator seed.
    """

    seed: int = 0
    iterations: int = 400
    restarts: int = 3
    max_denominator: int = 64

    def __post_init__(self):
        if self.seed < 0:
            raise InputError(f"--seed must be >= 0 for the NMF heuristic, got {self.seed}")


@dataclass
class NnegrkBounds:
    lower: int
    upper: int
    lower_witness: str
    upper_witness: object  # NonnegFactorization or the string "trivial"

    def provenance(self):
        upper_via = "trivial" if self.upper_witness == "trivial" else "verified-factorization"
        return [f"lower={self.lower} via {self.lower_witness}",
                f"upper={self.upper} via {upper_via}"]


# restarts whose float stage runs as one stacked array; it bounds the memory
# of a run with many restarts and the time between two deadline polls
_NMF_CHUNK = 16


def _nearest(x, qmax):
    """max(0, Fraction(x).limit_denominator(qmax)) for a finite float x.

    The same continued-fraction steps on x.as_integer_ratio(), with the
    same tie rule: of the two best one-sided approximations with
    denominator at most qmax, the convergent p1/q1 wins unless the
    semiconvergent is strictly closer.
    """
    if not x > 0:
        return ZERO
    n, d = x.as_integer_ratio()
    if d <= qmax:
        return Fraction(n, d)
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > qmax:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (qmax - q0) // q1
    # |p1/q1 - x| = d / (q1 den) against half the gap 1 / (q1 (q0 + k q1))
    if 2 * d * (q0 + k * q1) <= den:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# PCG's default 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uniform_floats(seed, count):
    """np.random.default_rng(seed).uniform(0.1, 1.0, count), bit for bit, as
    a list of Python floats, for an int seed >= 0.

    numpy's SeedSequence hash-mixes the seed's 32-bit words, least
    significant first, into a pool of four; generate_state(4, uint64) draws
    (initstate, initseq) from the pool, and PCG64 (O'Neill 2014) steps its
    128-bit LCG before each XSL-RR output x, whose double is
    0.1 + 0.9 (x >> 11) 2^-53.  numpy.random itself is never imported.
    """
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    hconst = 0x43B0D7E5

    def hashmix(v):
        nonlocal hconst
        v ^= hconst
        hconst = hconst * 0x931E8875 & _MASK32
        v = v * hconst & _MASK32
        return v ^ v >> 16

    def mix(x, y):
        v = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return v ^ v >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))

    hconst = 0x8B51F9DD
    state = 0
    for i in range(8):  # eight 32-bit words, little-endian into one integer
        v = pool[i % 4] ^ hconst
        hconst = hconst * 0x58F38DED & _MASK32
        v = v * hconst & _MASK32
        state |= (v ^ v >> 16) << 32 * i
    # its 64-bit words u0..u3 give initstate = u0 u1 and initseq = u2 u3,
    # high word first; seeding steps from 0 (to inc), adds initstate, steps
    u = [state >> 64 * k & _MASK64 for k in range(4)]
    initstate, initseq = u[0] << 64 | u[1], u[2] << 64 | u[3]
    inc = (initseq << 1 | 1) & _MASK128
    s = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
    out = []
    for _ in range(count):
        s = (s * _PCG_MULT + inc) & _MASK128
        x = (s >> 64 ^ s) & _MASK64
        rot = s >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        out.append(0.1 + 0.9 * ((x >> 11) * 2.0 ** -53))
    return out


def _nmf_floats(V, r, cfg: NmfConfig, attempts):
    """Float W factors of the restarts in `attempts`, as one (k, m, r) stack.

    Restart a draws W (m x r), then H (r x n), in one stream: the values of
    np.random.default_rng(seed + 1009 a + 9176 r).uniform(0.1, 1.0, m r + r n),
    from _uniform_floats.  The stacks run the multiplicative updates with the
    same products, left to right, as one restart alone, into buffers made
    once, so each restart's W is bit for bit the one its own loop would give.
    """
    import numpy as np

    m, n = V.shape
    k = len(attempts)
    W = np.empty((k, m, r))
    H = np.empty((k, r, n))
    Wflat, Hflat = W.reshape(k, m * r), H.reshape(k, r * n)  # views
    for i, attempt in enumerate(attempts):
        draws = _uniform_floats(cfg.seed + 1009 * attempt + 9176 * r, m * r + r * n)
        Wflat[i], Hflat[i] = draws[:m * r], draws[m * r:]
    Wt, Ht = W.transpose(0, 2, 1), H.transpose(0, 2, 1)  # views: they follow W, H
    WtV, WtW, WtWH = np.empty((k, r, n)), np.empty((k, r, r)), np.empty((k, r, n))
    VHt, WH, WHHt = np.empty((k, m, r)), np.empty((k, m, n)), np.empty((k, m, r))
    for _ in range(cfg.iterations):
        np.matmul(Wt, V, out=WtV)
        np.matmul(np.matmul(Wt, W, out=WtW), H, out=WtWH)
        WtWH += 1e-12
        WtV /= WtWH
        H *= WtV
        np.matmul(V, Ht, out=VHt)
        np.matmul(np.matmul(W, H, out=WH), Ht, out=WHHt)
        WHHt += 1e-12
        VHt /= WHHt
        W *= VHt
    return np.nan_to_num(W, nan=0.0, posinf=0.0, neginf=0.0)


def _int_columns(M: RationalMatrix):
    """The rows of M with each column scaled to ints by the lcm of its
    denominators.  Scaling a column by a nonzero number keeps its span."""
    cols = [_over(M.col(j))[0] for j in range(M.cols)]
    return [[c[i] for c in cols] for i in range(M.rows)]


def _outside_span(T: RationalMatrix, s_rows):
    """Whether some column of S, given as _int_columns(S), lies outside the
    column span of T.  Then T U = S has no solution at all, let alone one
    with U >= 0.  One Bareiss pass over [T | S] pivots in T's columns only;
    a nonzero left in S's columns below rank(T) is the refutation."""
    rows = [t + s for t, s in zip(_int_columns(T), s_rows)]
    rank = _eliminate_cols(rows, T.cols)
    return any(any(row[T.cols:]) for row in rows[rank:])


def _nmf_attempt(S: RationalMatrix, V, s_rows, r, cfg: NmfConfig):
    """One heuristic shot at a verified rank-r factorization of S, whose
    float copy is V and whose columns, scaled to ints, are s_rows.

    The float stage runs a chunk of restarts at a time.  Then each restart,
    in order, gets the exact completion: T is rounded by continued
    fractions; a T whose span misses a column of S is refuted by one exact
    elimination, with no LP; otherwise U is solved exactly column by column
    in cone(T).  The first restart whose U exists wins, and only exactly
    verified results escape this function.
    """
    m, n = S.rows, S.cols
    for start in range(0, cfg.restarts, _NMF_CHUNK):
        check_deadline()
        stack = _nmf_floats(V, r, cfg, range(start, min(start + _NMF_CHUNK, cfg.restarts)))
        for Wf in stack.tolist():
            check_deadline()
            T = RationalMatrix(m, r, [_nearest(x, cfg.max_denominator) for row in Wf for x in row])
            if _outside_span(T, s_rows):
                continue
            cols = []
            for status, u in nonneg_solutions(T, (S.col(j) for j in range(n))):
                if status != "ok":
                    break
                cols.append(u)
            if len(cols) == n:
                U = RationalMatrix(r, n, [cols[j][k] for k in range(r) for j in range(n)])
                fac = NonnegFactorization(T, U)
                if verify_factorization(S, fac):
                    return fac
    return None


def nnegrk_bounds(S, config: NmfConfig | None = None) -> NnegrkBounds:
    """Sound lower and upper bounds on the nonnegative rank of S.

    lower = max(linear rank, exact rectangle cover of the support); upper is
    min(rows, cols) unless the NMF heuristic finds a factorization that
    verifies exactly, in which case that rank (witnessed) is reported.  A
    support too large for the exact cover degrades to its partial fooling
    bound rather than failing the whole call; the deadline still raises.
    """
    if not isinstance(S, RationalMatrix):
        S = RationalMatrix.from_rows([[rat(x) for x in row] for row in S])
    if not S.is_nonneg():
        raise InputError("nonnegative rank is defined for nonnegative matrices only")
    if S.rows == 0 or S.cols == 0 or all(x == 0 for row in S.tolist() for x in row):
        return NnegrkBounds(0, 0, "rank", "trivial")
    cfg = config or NmfConfig()
    rank = mat_rank(S)
    try:
        cover = rect_cover_lb(S)
    except BudgetError as exc:
        if exc.partial is None:
            raise  # the deadline, not a support too large to enumerate
        cover = exc.partial
    lower = max(rank, cover)
    lower_witness = "rectangle-cover" if cover > rank else "rank"
    upper = min(S.rows, S.cols)
    upper_witness = "trivial"
    ranks = range(max(lower, 1), upper)
    if ranks:
        import numpy as np

        V = np.array([[float(x) for x in row] for row in S.tolist()])
        s_rows = _int_columns(S)
        for r in ranks:
            fac = _nmf_attempt(S, V, s_rows, r, cfg)
            if fac is not None:
                upper = r
                upper_witness = fac
                break
    require(lower <= upper, "lower bound <= upper bound")
    return NnegrkBounds(lower, upper, lower_witness, upper_witness)
