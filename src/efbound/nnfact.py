"""Nonnegative factorizations of slack matrices, both directions, with bounds.

A rank-r nonnegative factorization S = TU of a pair's slack matrix and a
size-r extended formulation of the pair are two views of the same object.
This module makes both directions executable:

* factorization_to_ef writes down the system  A x + T y = b, y >= 0;
* ef_to_factorization runs the two certificate searches (point witnesses
  and row derivations) and multiplies them into  [TF | c] [[W, Z], [1, 0]],
  which has rank at most r+1, or exactly r when every derivation can be
  made tight (c = 0).

Because deciding the nonnegative rank exactly is out of reach, the bounds
reported here are sound by construction: lower bounds come from the linear
rank and from an exact minimum rectangle cover of the support, upper bounds
only ever drop below min(m, n) when a candidate factorization verifies as an
exact rational identity.  Floating-point appears solely inside the NMF
heuristic, and anything it produces is either made exact or thrown away.

The rectangle cover is a branch and bound over the maximal rectangles of
the support, whose column sets are found as the intersection closure of the
row supports.  It prunes a node by three bounds valid for a minimum cover
(rectangles left, the largest residual gains, a greedy fooling set) and
skips each branch whose newly covered cells another branch also covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetError, InputError, check_deadline, decoding, require
from .polyhedra import (
    ExtendedFormulation,
    HRep,
    VRep,
    build_slack,
    nonneg_solution,
    verify_sandwich,
)
from .ratlin import ONE, ZERO, RationalMatrix, dot, lp_solve, mat_rank, rat


class PreconditionError(Exception):
    """A construction's precondition failed; carries the certificate report."""

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


def _tight_derivation(K: ExtendedFormulation, ai, bi):
    """Look for multipliers t with t E = a_i, t F >= 0 and t g = b_i exactly
    (a zero-offset derivation).  Returns t or None."""
    p, r = K.nrows, K.size
    if p == 0:
        return None
    eq_rows = [[K.E[k, j] for k in range(p)] for j in range(K.dim)]
    eq_rows.append([K.g[k] for k in range(p)])
    beq = list(ai) + [bi]
    ineq = [[-K.F[k, j] for k in range(p)] for j in range(r)]
    res = lp_solve(ineq or None, [ZERO] * r if ineq else None,
                   eq_rows, beq, [ZERO] * p)
    if res.status != "optimal":
        return None
    t = res.point
    require([dot(K.E.col(j), t) for j in range(K.dim)] == list(ai),
            "tight derivation: t E = a_i")
    require(all(dot(K.F.col(j), t) >= 0 for j in range(r)),
            "tight derivation: t F >= 0")
    require(dot(t, K.g) == bi, "tight derivation: t g = b_i")
    return t


def ef_to_factorization(K: ExtendedFormulation, P: VRep, Q: HRep) -> NonnegFactorization:
    """Turn a size-r EF of the pair (P, Q) into a nonnegative factorization
    of the slack matrix, of rank at most r+1.

    Point witnesses w_j and ray witnesses z_j come from ef_contains_points;
    row multipliers (t_i, c_i) from the derivation direction.  Then

        S = [T F | c] [[W, Z], [1^t, 0^t]].

    Every row is first tried with a tight derivation (c_i = 0); if all rows
    succeed the offset column is dropped and the rank is r.  The result is
    verified against build_slack(P, Q) before being returned.
    """
    if P.is_empty:
        raise InputError("P must contain at least one point")
    report = verify_sandwich(P, Q, 1, K)
    if not report.ok:
        raise PreconditionError("EF does not sandwich the pair at rho = 1", report)
    r = K.size
    npts, nrays = len(P.points), len(P.rays)

    wit = {("point", j): w for kind, j, w in report.contains.witnesses if kind == "point"}
    zit = {("ray", j): w for kind, j, w in report.contains.witnesses if kind == "ray"}
    W = RationalMatrix(r, npts)
    for j in range(npts):
        for k, x in enumerate(wit[("point", j)]):
            W[k, j] = x
    Z = RationalMatrix(r, nrays)
    for j in range(nrays):
        for k, x in enumerate(zit[("ray", j)]):
            Z[k, j] = x

    general = {i: (t, c) for i, t, c in report.inside.derivations}
    m = Q.nrows
    Tm = RationalMatrix(m, K.nrows)
    cvec = []
    for i in range(m):
        t = _tight_derivation(K, Q.A.row(i), Q.b[i])
        if t is not None:
            ci = ZERO
        else:
            t, ci = general[i]
        for k, x in enumerate(t):
            Tm[i, k] = x
        cvec.append(ci)

    TF = Tm @ K.F
    if all(c == 0 for c in cvec):
        left = TF
        right = RationalMatrix.hstack([W, Z])
    else:
        ccol = RationalMatrix(m, 1, cvec)
        left = RationalMatrix.hstack([TF, ccol])
        bottom = RationalMatrix(1, npts + nrays, [ONE] * npts + [ZERO] * nrays)
        right = RationalMatrix.vstack([RationalMatrix.hstack([W, Z]), bottom])
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
    node is pruned when k <= 0, when the k largest residual gains (cells of
    a rectangle still uncovered) sum to less than the uncovered cells, or
    when a greedy fooling set of uncovered cells exceeds k; at k = 1 one
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

    def pruned(unc, k):
        """No cover of the uncovered cells unc with at most k rectangles."""
        if k <= 0:
            return True
        if k == 1:
            return not any(r & unc == unc
                           for r in covers_cell[(unc & -unc).bit_length() - 1])
        if _greedy_fooling(unc, compat.__getitem__, k) > k:
            return True
        gains = sorted(map(int.bit_count, map(unc.__and__, rects)), reverse=True)
        return sum(gains[:k]) < unc.bit_count()

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
    """Knobs for the floating NMF heuristic inside nnegrk_bounds."""

    seed: int = 0
    iterations: int = 400
    restarts: int = 3
    max_denominator: int = 64


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


def _nmf_attempt(S: RationalMatrix, r, cfg: NmfConfig):
    """One heuristic shot at a verified rank-r factorization of S.

    Multiplicative updates in floats, then the exact completion: T is
    rounded by continued fractions, U is re-solved exactly column by column
    (rounding U too is kept as a fallback).  Only exactly verified results
    escape this function.
    """
    m, n = S.rows, S.cols
    V = np.array([[float(S[i, j]) for j in range(n)] for i in range(m)])
    for attempt in range(cfg.restarts):
        check_deadline()
        rng = np.random.default_rng(cfg.seed + 1009 * attempt + 9176 * r)
        Wf = rng.uniform(0.1, 1.0, (m, r))
        Hf = rng.uniform(0.1, 1.0, (r, n))
        for _ in range(cfg.iterations):
            Hf *= (Wf.T @ V) / (Wf.T @ Wf @ Hf + 1e-12)
            Wf *= (V @ Hf.T) / (Wf @ Hf @ Hf.T + 1e-12)
        Wf = np.nan_to_num(Wf, nan=0.0, posinf=0.0, neginf=0.0)
        Hf = np.nan_to_num(Hf, nan=0.0, posinf=0.0, neginf=0.0)
        T = RationalMatrix(m, r, [
            max(ZERO, Fraction(float(x)).limit_denominator(cfg.max_denominator))
            for x in Wf.flatten()])
        cols = []
        for j in range(n):
            status, u = nonneg_solution(T, S.col(j))
            if status != "ok":
                cols = None
                break
            cols.append(u)
        if cols is not None:
            U = RationalMatrix(r, n, [cols[j][k] for k in range(r) for j in range(n)])
            fac = NonnegFactorization(T, U)
            if verify_factorization(S, fac):
                return fac
        U = RationalMatrix(r, n, [
            max(ZERO, Fraction(float(x)).limit_denominator(cfg.max_denominator))
            for x in Hf.flatten()])
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
    for r in range(max(lower, 1), upper):
        fac = _nmf_attempt(S, r, cfg)
        if fac is not None:
            upper = r
            upper_witness = fac
            break
    require(lower <= upper, "lower bound <= upper bound")
    return NnegrkBounds(lower, upper, lower_witness, upper_witness)
