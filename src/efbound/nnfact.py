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
only ever drop below min(m, n) through a factorization that verifies as an
exact rational identity.  That witness is built from the extreme columns of
S: they form the left factor, and the right one is solved exactly in their
cone.  When they outnumber the lower bound, the extreme rows are counted the
same way and the smaller side is kept.  The cone tests that find the
extreme columns read only a row basis of S (rank S rows), which decides
membership for all rows; the factorization itself, over all rows, is built
and verified only for the side that is reported.  No floating point is
involved.  Where rank <= 2 the extreme columns number the rank, which is
then the nonnegative rank (Cohen and Rothblum 1993).

The rectangle cover is a branch and bound over the maximal rectangles of
the support, whose column sets are found as the intersection closure of the
row supports.  It prunes a node by bounds valid for a minimum cover
(rectangles left, a greedy fooling set and, with few rectangles left, an
exact fooling set) and skips each branch whose newly covered cells another
branch also covers.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .ratlin import ONE, ZERO, RationalMatrix, dot, row_basis


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
        S = RationalMatrix.from_rows(S)
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
    return ExtendedFormulation(Q.A, fac.T, Q.b)


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
    derived = [(t, ZERO) if t is not None else general[i] for i, t in enumerate(tight)]
    Tm = RationalMatrix(m, K.nrows, [x for t, _ in derived for x in t])
    cvec = [c for _, c in derived]

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
        S = RationalMatrix.from_rows(S)
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
class NnegrkBounds:
    lower: int
    upper: int
    lower_witness: str
    upper_witness: object  # NonnegFactorization or the string "trivial"

    def provenance(self):
        upper_via = "trivial" if self.upper_witness == "trivial" else "verified-factorization"
        return [f"lower={self.lower} via {self.lower_witness}",
                f"upper={self.upper} via {upper_via}"]


def _by_columns(vecs, rows):
    """The rows x len(vecs) matrix whose columns are vecs."""
    return RationalMatrix(rows, len(vecs), [v[i] for i in range(rows) for v in vecs])


def _extreme_columns(S: RationalMatrix, basis=None) -> list:
    """Indices of the extreme columns of S, in order; basis is row_basis(S),
    computed here when not given.

    The cone of the columns of a nonnegative S is pointed, so its extreme
    rays are unique.  Walking the columns in order, column j is dropped when
    it lies in the cone of the columns kept before it and all after it; that
    cone is the cone of S, so what is left holds each extreme ray once.
    Each test reads only the rows of a row basis of S: every other row is a
    combination of them, so a combination of columns equals S_j on all rows
    exactly when it does on those, and a Farkas vector over those rows,
    padded with zeros, refutes the system over all of them.
    """
    if basis is None:
        basis = row_basis(S)
    cols = [[S[i, j] for i in basis] for j in range(S.cols)]
    kept = []
    for j, col in enumerate(cols):
        check_deadline()
        others = [cols[k] for k in kept] + cols[j + 1:]
        status, _ = next(nonneg_solutions(_by_columns(others, len(basis)), [col]))
        if status != "ok":
            kept.append(j)
    return kept


def _cone_factorization(S: RationalMatrix, kept) -> NonnegFactorization:
    """S = T U with T the columns `kept` of S, in order, and U >= 0: each
    column of S solved exactly in their cone, over all rows of S."""
    cols = [S.col(j) for j in range(S.cols)]
    T = _by_columns([cols[k] for k in kept], S.rows)
    us = []
    for status, u in nonneg_solutions(T, cols):
        require(status == "ok", "every column lies in the cone of the extreme columns")
        us.append(u)
    return NonnegFactorization(T, _by_columns(us, len(kept)))


def nnegrk_bounds(S) -> NnegrkBounds:
    """Sound lower and upper bounds on the nonnegative rank of S.

    lower = max(linear rank, exact rectangle cover of the support).  Unless
    lower already is min(rows, cols), the extreme columns of S are counted
    by cone tests on a row basis of S, and when they number more than lower
    so are the extreme rows; ties go to the columns.  Only when the smaller
    count is below min(rows, cols) is that side's factorization built, with
    U solved over all rows, and verified exactly: it is the upper bound's
    witness, and no factorization is built that is not reported.  For
    rank <= 2 the extreme columns number the rank, so there upper = rank.
    A support too large for the exact cover degrades to its partial fooling
    bound rather than failing the whole call; the deadline still raises.
    """
    if not isinstance(S, RationalMatrix):
        S = RationalMatrix.from_rows(S)
    if not S.is_nonneg():
        raise InputError("nonnegative rank is defined for nonnegative matrices only")
    if S.rows == 0 or S.cols == 0 or all(x == 0 for row in S.tolist() for x in row):
        return NnegrkBounds(0, 0, "rank", "trivial")
    basis = row_basis(S)
    rank = len(basis)
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
    if lower < upper:
        kept, side = _extreme_columns(S, basis), S
        if len(kept) > lower:
            rows = _extreme_columns(S.transpose())
            if len(rows) < len(kept):  # ties go to the columns
                kept, side = rows, S.transpose()
        if len(kept) < upper:
            fac = _cone_factorization(side, kept)
            if side is not S:
                fac = NonnegFactorization(fac.U.transpose(), fac.T.transpose())
            check = verify_factorization(S, fac)
            require(check, f"the extreme-column factorization verifies ({check.reason})")
            upper, upper_witness = fac.rank, fac
    require(lower <= upper, "lower bound <= upper bound")
    return NnegrkBounds(lower, upper, lower_witness, upper_witness)
