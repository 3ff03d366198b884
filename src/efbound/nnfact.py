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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetError, InputError, check_deadline
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
        try:
            return cls(RationalMatrix.from_json(d["T"]), RationalMatrix.from_json(d["U"]))
        except (KeyError, TypeError) as exc:
            raise InputError("factorization JSON needs keys T, U") from exc


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
    """Exact check that fac is a nonnegative factorization of S."""
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
    P = fac.T @ fac.U
    for i in range(S.rows):
        for j in range(S.cols):
            if P[i, j] != S[i, j]:
                return FactorizationCheck(
                    False, f"product entry ({i},{j}) is {P[i, j]}, expected {S[i, j]}",
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
    assert [dot(K.E.col(j), t) for j in range(K.dim)] == list(ai)
    assert all(dot(K.F.col(j), t) >= 0 for j in range(r))
    assert dot(t, K.g) == bi
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
    S = build_slack(P, Q).full()
    assert verify_factorization(S, fac)
    return fac


def _support_masks(S: RationalMatrix):
    return [sum(1 << j for j in range(S.cols) if S[i, j] != 0) for i in range(S.rows)]


def _fooling_lb(rowmasks, cells):
    """Greedy set of pairwise rectangle-incompatible support cells.

    Two cells fit in a common all-support rectangle iff both opposite
    corners are support cells; any such antichain lower-bounds the cover.
    """
    kept = []
    for (i, j) in cells:
        if all(not ((rowmasks[i] >> l) & 1 and (rowmasks[k] >> j) & 1)
               for (k, l) in kept):
            kept.append((i, j))
    return max(1, len(kept))


def rect_cover_lb(S, max_side=16) -> int:
    """Exact minimum number of all-support combinatorial rectangles covering
    the support of S.

    Each rank-1 nonnegative term of a factorization has rectangular support,
    so this is a sound lower bound on the nonnegative rank.  Candidate
    rectangles are the maximal ones (closures of column sets of row
    subsets); the minimum cover over them is found by branch and bound.

    A support side exceeding max_side raises a budget error carrying the
    best cheap bound found (a greedy fooling set).
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
    m, n = S.rows, S.cols
    if m > max_side:
        raise BudgetError(
            f"support side {m} exceeds enumeration budget {max_side}",
            partial=_fooling_lb(rowmasks, cells))

    maximal = set()
    nonzero_rows = [i for i in range(m) if rowmasks[i]]
    for sub in range(1, 1 << len(nonzero_rows)):
        if sub % 1024 == 0:
            check_deadline()
        colmask = -1
        for idx, i in enumerate(nonzero_rows):
            if (sub >> idx) & 1:
                colmask &= rowmasks[i]
        if colmask == 0:
            continue
        rowmask = sum(1 << i for i in range(m) if rowmasks[i] & colmask == colmask)
        maximal.add((rowmask, colmask))

    cell_index = {c: k for k, c in enumerate(cells)}
    rects = []
    for rowmask, colmask in maximal:
        mask = 0
        for i in range(m):
            if (rowmask >> i) & 1:
                for j in range(n):
                    if (colmask >> j) & 1 and S[i, j] != 0:
                        mask |= 1 << cell_index[(i, j)]
        rects.append(mask)
    rects = sorted(set(rects), key=lambda x: -x.bit_count())

    full = (1 << len(cells)) - 1
    covers_cell = [[] for _ in cells]
    for ri, rmask in enumerate(rects):
        for k in range(len(cells)):
            if (rmask >> k) & 1:
                covers_cell[k].append(ri)

    # greedy start for the upper bound
    covered, greedy = 0, 0
    while covered != full:
        bestr = max(rects, key=lambda rm: (rm & ~covered).bit_count())
        covered |= bestr
        greedy += 1
    best = [greedy]
    maxsize = max(r.bit_count() for r in rects)

    def bnb(covered, depth):
        if covered == full:
            best[0] = min(best[0], depth)
            return
        remaining = (full & ~covered).bit_count()
        if depth + (remaining + maxsize - 1) // maxsize >= best[0]:
            return
        check_deadline()
        # branch on the uncovered cell with fewest candidate rectangles
        cell = min((k for k in range(len(cells)) if not (covered >> k) & 1),
                   key=lambda k: len(covers_cell[k]))
        for ri in sorted(covers_cell[cell],
                         key=lambda ri: -(rects[ri] & ~covered).bit_count()):
            bnb(covered | rects[ri], depth + 1)

    bnb(0, 0)
    return best[0]


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
    assert lower <= upper
    return NnegrkBounds(lower, upper, lower_witness, upper_witness)
