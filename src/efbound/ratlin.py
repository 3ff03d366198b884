"""Exact rational linear algebra and a certificate-producing LP solver.

Everything here computes over arbitrary-precision rationals: values come in
and go out as `fractions.Fraction`, and the inner loops run on Python ints.
There is deliberately no floating point: downstream verification (slack
matrices, factorization identities, containment proofs) composes long chains
of these operations, and a single rounded entry would make every
certificate worthless.

The LP solver is a dense two-phase simplex with Bland's rule, so it
terminates without tolerances or perturbation.  Each tableau row is a list
of int numerators over one positive row denominator, reduced by one gcd per
update; Bland's entering test reads an integer's sign and the ratio test
cross-multiplies, so the pivots are those of a Fraction tableau, and
Fractions are built only for the values returned.  A `nonneg` set of column
indices marks the variables constrained to be >= 0: each gets one tableau
column and no bound row, while a free variable is the difference of two
columns.  `lp_solve_each` optimizes a list of objectives over one region,
running phase 1 once and starting each phase 2 from the previous optimal
basis; `lp_solve` is its one-objective case.  The deadline of `errors` is
polled once per pivot.  Every answer is re-checked as an exact identity,
on the rows cleared to ints once per call and each certificate vector put
over one denominator, before it is returned; a failed check raises
VerificationError in every run mode:

* optimal   -- primal feasibility, dual feasibility (reduced costs zero on
               free columns, of the right sign on masked ones), matching
               objective values, and complementary slackness on rows and
               masked columns;
* infeasible -- a Farkas vector: y_in >= 0 with A^T y_in + Aeq^T y_eq zero
               on free columns and >= 0 on masked ones, and
               b.y_in + beq.y_eq < 0;
* unbounded -- a feasible point plus a recession direction, nonnegative on
               masked columns, that strictly improves the objective.

Ranks come from fraction-free Bareiss elimination on the integer matrix
obtained by clearing denominators row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import InputError, check_deadline, decoding, require

Rational = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce x to an exact Fraction.

    Accepts Fraction, int, and strings like "3", "-7/2".  Floats are
    rejected: a float argument almost always means the caller already lost
    exactness upstream.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise InputError(f"refusing float {x!r}; pass an int, Fraction, or 'p/q' string")
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational from {x!r}") from exc
    raise InputError(f"cannot coerce {type(x).__name__} to a rational")


def rat_str(q) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise (q > 0)."""
    q = rat(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _vec_json(v) -> list:
    """[rat_str(x) for x in v], rendering each distinct entry object once.

    Large matrices share a few Fraction objects among many entries (the
    n=8 UDISJ shift has 65536 entries and 9 objects).  The memo is keyed by
    id(): v is a list or tuple, so every entry stays alive during the call
    and no id can be reused.
    """
    text = {}
    out = []
    for x in v:
        s = text.get(id(x))
        if s is None:
            s = text[id(x)] = rat_str(x)
        out.append(s)
    return out


def dot(u, v) -> Fraction:
    """Exact u . v of rationals (Fractions or ints).

    The numerator and the least common denominator accumulate as ints, and
    one Fraction is built at the end instead of one per term.
    """
    if len(u) != len(v):
        raise InputError(f"dot: length mismatch {len(u)} vs {len(v)}")
    num, den = 0, 1
    for a, b in zip(u, v):
        if a and b:
            d = a.denominator * b.denominator
            if d == den:
                num += a.numerator * b.numerator
            else:
                g = math.gcd(den, d)
                num = num * (d // g) + a.numerator * b.numerator * (den // g)
                den = den // g * d
    return Fraction(num, den)


def _over(v):
    """(numerators, d): the rationals v as ints over one positive d."""
    d = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


class RationalMatrix:
    """Dense matrix of Fractions, row-major.

    Serialized form (used across the CLI): a dict
    ``{"rows": m, "cols": n, "entries": ["p/q", ...]}`` with entries in
    row-major order and every entry in the canonical form of rat_str.
    """

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        if entries is None:
            self._e = [ZERO] * (rows * cols)
        else:
            self._e = [rat(x) for x in entries]
            if len(self._e) != rows * cols:
                raise InputError(
                    f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(self._e)}")

    @classmethod
    def from_rows(cls, rows_of_entries) -> "RationalMatrix":
        rows_of_entries = [list(r) for r in rows_of_entries]
        m = len(rows_of_entries)
        n = len(rows_of_entries[0]) if m else 0
        flat = []
        for r in rows_of_entries:
            if len(r) != n:
                raise InputError("ragged rows")
            flat.extend(r)
        return cls(m, n, flat)

    @classmethod
    def zeros(cls, m, n):
        return cls(m, n)

    @classmethod
    def identity(cls, n):
        out = cls(n, n)
        for i in range(n):
            out._e[i * n + i] = ONE
        return out

    def __getitem__(self, key):
        i, j = key
        return self._e[i * self.cols + j]

    def __setitem__(self, key, value):
        i, j = key
        self._e[i * self.cols + j] = rat(value)

    def row(self, i):
        return self._e[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return self._e[j::self.cols] if self.cols else []

    def tolist(self):
        return [self.row(i) for i in range(self.rows)]

    def copy(self):
        out = RationalMatrix(self.rows, self.cols)
        out._e = self._e[:]
        return out

    def transpose(self) -> "RationalMatrix":
        out = RationalMatrix(self.cols, self.rows)
        for i in range(self.rows):
            base = i * self.cols
            for j in range(self.cols):
                out._e[j * self.rows + i] = self._e[base + j]
        return out

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._e == other._e

    def __add__(self, other):
        self._check_same_shape(other)
        out = RationalMatrix(self.rows, self.cols)
        out._e = [a + b for a, b in zip(self._e, other._e)]
        return out

    def __sub__(self, other):
        self._check_same_shape(other)
        out = RationalMatrix(self.rows, self.cols)
        out._e = [a - b for a, b in zip(self._e, other._e)]
        return out

    def __mul__(self, scalar):
        s = rat(scalar)
        out = RationalMatrix(self.rows, self.cols)
        out._e = [s * a for a in self._e]
        return out

    __rmul__ = __mul__

    def __matmul__(self, other) -> "RationalMatrix":
        if self.cols != other.rows:
            raise InputError(
                f"matmul shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = RationalMatrix(self.rows, other.cols)
        bt = other.transpose()
        for i in range(self.rows):
            ri = self.row(i)
            base = i * other.cols
            for j in range(other.cols):
                out._e[base + j] = dot(ri, bt.row(j))
        return out

    def is_nonneg(self) -> bool:
        return all(a >= 0 for a in self._e)

    def min_entry(self):
        if not self._e:
            raise InputError("empty matrix has no minimum entry")
        return min(self._e)

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise InputError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    @classmethod
    def hstack(cls, mats):
        mats = list(mats)
        if not mats:
            raise InputError("hstack of nothing")
        m = mats[0].rows
        if any(a.rows != m for a in mats):
            raise InputError("hstack: row counts differ")
        rows = [sum((a.row(i) for a in mats), []) for i in range(m)]
        return cls.from_rows(rows) if m else cls(0, sum(a.cols for a in mats))

    @classmethod
    def vstack(cls, mats):
        mats = list(mats)
        if not mats:
            raise InputError("vstack of nothing")
        n = mats[0].cols
        if any(a.cols != n for a in mats):
            raise InputError("vstack: column counts differ")
        out = cls(sum(a.rows for a in mats), n)
        out._e = [x for a in mats for x in a._e]
        return out

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "entries": _vec_json(self._e)}

    @classmethod
    def from_json(cls, d) -> "RationalMatrix":
        with decoding("matrix JSON needs keys rows, cols, entries"):
            return cls(int(d["rows"]), int(d["cols"]), d["entries"])

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"

    def __str__(self):
        return "\n".join(" ".join(rat_str(x) for x in self.row(i)) for i in range(self.rows))


def _as_row_lists(M):
    """Accept RationalMatrix or nested iterables; return (rows, m, n)."""
    if isinstance(M, RationalMatrix):
        return M.tolist(), M.rows, M.cols
    rows = [[rat(x) for x in r] for r in M]
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise InputError("ragged rows")
    return rows, m, n


def mat_rank(M) -> int:
    """Rank over the rationals, by fraction-free Bareiss elimination.

    Denominators are cleared per row first (row scaling preserves rank), so
    the elimination runs on integers and the exact divisions stay exact.
    """
    rows, m, n = _as_row_lists(M)
    irows = [_over(r)[0] for r in rows]
    prev = 1
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if irows[i][col]), None)
        if piv is None:
            continue
        irows[rank], irows[piv] = irows[piv], irows[rank]
        p = irows[rank][col]
        for i in range(rank + 1, m):
            ric = irows[i][col]
            ri, rr = irows[i], irows[rank]
            for j in range(col + 1, n):
                # one-step Bareiss update; the division by the previous
                # pivot is exact
                ri[j] = (ri[j] * p - ric * rr[j]) // prev
            ri[col] = 0
        prev = p
        rank += 1
        if rank == m:
            break
    return rank


@dataclass
class LpResult:
    """Outcome of lp_solve, with exact certificates.

    status is "optimal", "infeasible" or "unbounded".

    optimal:    point, value, dual_ineq, dual_eq.  With s = 1 for "max"
                and -1 for "min", d = s (A^T dual_ineq + Aeq^T dual_eq - c)
                is zero on free columns and >= 0 on nonneg ones,
                b.dual_ineq + beq.dual_eq = value, and s dual_ineq >= 0.
    infeasible: farkas_ineq >= 0 and farkas_eq with
                A^T farkas_ineq + Aeq^T farkas_eq zero on free columns and
                >= 0 on nonneg ones, and b.farkas_ineq + beq.farkas_eq < 0.
    unbounded:  point is feasible and ray satisfies A ray <= 0,
                Aeq ray = 0, ray >= 0 on nonneg columns, with c.ray > 0
                ("max") or < 0 ("min").
    """

    status: str
    value: Fraction | None = None
    point: list | None = None
    dual_ineq: list | None = None
    dual_eq: list | None = None
    farkas_ineq: list | None = None
    farkas_eq: list | None = None
    ray: list | None = None


def _norm_system(M, rhs, n, label):
    if M is None and rhs is None:
        return [], []
    if M is None or rhs is None:
        raise InputError(f"{label} and its right-hand side must be given together")
    rows, m, ncols = _as_row_lists(M)
    rhs = [rat(x) for x in rhs]
    if m and ncols != n:
        raise InputError(f"{label} has {ncols} columns, expected {n}")
    if len(rhs) != m:
        raise InputError(f"{label} has {m} rows but its rhs has {len(rhs)} entries")
    return rows, rhs


def _norm_mask(nonneg, n):
    mask = [False] * n
    for j in nonneg:
        if not isinstance(j, int) or not 0 <= j < n:
            raise InputError(f"nonneg index {j!r} is not a column index below {n}")
        mask[j] = True
    return mask


def lp_solve(A, b, Aeq, beq, c, sense="max", nonneg=()) -> LpResult:
    """Solve max (or min) c.x subject to A x <= b, Aeq x = beq and
    x_j >= 0 for every column index j in nonneg.

    Columns outside nonneg are free.  Pass sign constraints through nonneg,
    not as rows: a masked column is one tableau column with no bound row.
    A/b or Aeq/beq may be None.  This is lp_solve_each with one objective;
    several objectives over the same region should go there, so that they
    share one phase 1.  Bland's rule makes the run deterministic, and the
    returned result has already been verified exactly (see LpResult).
    """
    return next(lp_solve_each(A, b, Aeq, beq, [c], sense, nonneg))


def lp_solve_each(A, b, Aeq, beq, objectives, sense="max", nonneg=()):
    """Yield one lp_solve result per objective, all over the same region.

    Phase 1 runs once; each objective's phase 2 starts from the basis where
    the previous one stopped, which is feasible whatever its outcome.  An
    empty region yields its Farkas certificate once per objective.  Every
    result is verified exactly before it is yielded, so a caller may stop
    at any one of them.
    """
    if sense not in ("max", "min"):
        raise InputError(f"sense must be 'max' or 'min', got {sense!r}")
    objs = []
    for c in objectives:
        if c is None:
            raise InputError("objective c is required (use zeros for feasibility checks)")
        objs.append([rat(x) for x in c])
    if not objs:
        return
    n = len(objs[0])
    if n == 0:
        raise InputError("lp_solve needs at least one variable")
    if any(len(c) != n for c in objs):
        raise InputError("objectives differ in length")
    Ar, br = _norm_system(A, b, n, "A")
    Er, er = _norm_system(Aeq, beq, n, "Aeq")
    mask = _norm_mask(nonneg, n)

    ineq, eq = _cleared(Ar, br), _cleared(Er, er)
    tab = _Tableau(ineq + eq, len(ineq), mask)
    farkas = tab.phase1()
    sign = 1 if sense == "max" else -1
    for c in objs:
        if farkas is None:
            res = tab.phase2(c, sign)
        else:
            res = LpResult("infeasible", farkas_ineq=farkas[0][:], farkas_eq=farkas[1][:])
        _check_lp(ineq, eq, c, sense, mask, res)
        yield res


def _cleared(rows, rhs):
    """Each row with its rhs appended, as ints over the row's own positive
    denominator: (ints, d) with ints / d = row + [rhs]."""
    return [_over(row + [r]) for row, r in zip(rows, rhs)]


def _reduced(line):
    """line divided by the gcd of its entries (its denominator included)."""
    g = math.gcd(*line)
    return [x // g for x in line] if g > 1 else line


class _Tableau:
    """Dense simplex tableau for A x <= b, E x = e, x_j >= 0 on the mask.

    Columns: +x_j for every variable, then -x_j for every free one (a free
    variable is the difference of its two columns), one slack per
    inequality row, one artificial per row, and the rhs.  Rows are
    sign-normalized to a nonnegative rhs.  The artificial block is the
    running basis inverse, so the objective row's entries there are the
    simplex multipliers: duals and Farkas vectors are read off it directly.

    Every row, the objective row included, is a list of ints: the
    numerators of its entries, then one positive denominator, with no
    common factor left.  Fractions are built only for the values returned.
    """

    def __init__(self, rows, mi, mask):
        self.n, self.mi = len(mask), mi
        self.var = [(j, 1) for j in range(self.n)] + \
                   [(j, -1) for j in range(self.n) if not mask[j]]
        nx = len(self.var)
        m = len(rows)
        self.art0 = nx + mi
        self.width = self.art0 + m + 1
        self.sigma = [-1 if ints[-1] < 0 else 1 for ints, _ in rows]
        self.T = []
        for i, ((ints, d), sg) in enumerate(zip(rows, self.sigma)):
            line = [sg * s * ints[j] for j, s in self.var] + [0] * (self.width - nx) + [d]
            if i < mi:
                line[nx + i] = sg * d
            line[self.art0 + i] = d
            line[-2] = sg * ints[-1]
            self.T.append(line)
        self.basis = list(range(self.art0, self.art0 + m))

    def phase1(self):
        """Minimize the sum of the artificials.  Returns None when the region
        is nonempty (leaving a feasible basis), else the Farkas pair (y, w)."""
        T, art0 = self.T, self.art0
        obj = _priced([0] * art0 + [1] * len(T) + [0], 1, T, self.basis)
        require(_iterate(T, self.basis, obj, art0) is None, "phase 1 is bounded below")
        if obj[-2] < 0:
            # the multipliers pi_i = 1 - obj[art0+i] price the artificials out
            d = obj[-1]
            y = [Fraction(sg * (obj[art0 + i] - d), d) for i, sg in enumerate(self.sigma)]
            return y[:self.mi], y[self.mi:]
        # drive artificials out of the basis; rows where that is impossible
        # are identically zero and stay inert
        for i in range(len(T)):
            if self.basis[i] >= art0:
                enter = next((j for j in range(art0) if T[i][j] != 0), None)
                if enter is not None:
                    _pivot(T, self.basis, obj, i, enter)
        return None

    def phase2(self, c, sign):
        """Maximize sign * c.x from the current basis, which is left where
        the objective stopped."""
        T, basis, art0, nx = self.T, self.basis, self.art0, len(self.var)
        num, dc = _over(c)
        cost = [-sign * s * num[j] for j, s in self.var] + [0] * (self.width - nx)
        obj = _priced(cost, dc, T, basis)
        grew = _iterate(T, basis, obj, art0)
        point = [ZERO] * self.n
        for line, bv in zip(T, basis):
            if bv < nx:
                j, s = self.var[bv]
                point[j] += Fraction(s * line[-2], line[-1])
        if grew is not None:
            ray = [ZERO] * self.n
            if grew < nx:
                j, s = self.var[grew]
                ray[j] += s
            for line, bv in zip(T, basis):
                if bv < nx and line[grew]:
                    j, s = self.var[bv]
                    ray[j] -= Fraction(s * line[grew], line[-1])
            return LpResult("unbounded", point=point, ray=ray)
        # obj[art0+i] = -pi_i, the multiplier of row i in the normalized system
        y = [Fraction(sign * sg * obj[art0 + i], obj[-1]) for i, sg in enumerate(self.sigma)]
        return LpResult("optimal", value=dot(c, point), point=point,
                        dual_ineq=y[:self.mi], dual_eq=y[self.mi:])


def _priced(cost, dc, T, basis):
    """The objective row of the costs cost / dc: cost / dc minus
    cost[basis_i] / dc times row i, as ints over one positive denominator."""
    d = math.lcm(*(line[-1] for line, bv in zip(T, basis) if cost[bv]))
    obj = [d * v for v in cost]
    for line, bv in zip(T, basis):
        if cost[bv]:
            f = cost[bv] * (d // line[-1])
            obj = [a - f * v for a, v in zip(obj, line)]
    return _reduced(obj + [dc * d])


def _iterate(T, basis, obj, art0):
    """Run Bland pivots to optimality; return None, or the entering column
    index if the objective is unbounded (no admissible leaving row).  The
    ratio test compares rhs_a / a_aj with rhs_b / a_bj by cross-multiplying,
    since the row denominators cancel.  The global deadline is polled once
    per pivot."""
    while True:
        enter = -1
        for j in range(art0):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return None
        leave = -1
        for i, line in enumerate(T):
            a = line[enter]
            if a > 0:
                rhs = line[-2]
                if leave < 0 or rhs * best_a < best_rhs * a or (
                        rhs * best_a == best_rhs * a and basis[i] < basis[leave]):
                    leave, best_rhs, best_a = i, rhs, a
        if leave < 0:
            return enter
        check_deadline()
        _pivot(T, basis, obj, leave, enter)


def _pivot(T, basis, obj, r, j):
    # dividing the pivot row by its entry j cancels the row's denominator
    p = T[r][j]
    prow = T[r][:-1] + [p]
    if p < 0:
        prow = [-x for x in prow]
    T[r] = prow = _reduced(prow)
    for i, line in enumerate(T):
        if line[j] and i != r:
            T[i] = _eliminate(line, prow, j)
    if obj[j]:
        obj[:] = _eliminate(obj, prow, j)
    basis[r] = j


def _eliminate(line, prow, j):
    """line - line[j] * prow, both as numerators over their denominators."""
    f, p, d = line[j], prow[-1], line[-1]
    new = [a * p - f * b for a, b in zip(line, prow)]
    new[-1] = d * p
    return _reduced(new)


def _verify_lp(A, b, E, e, c, sense, mask, res):
    """Exact post-check of every lp_solve outcome; a failure here is a bug.

    With s = +1 for "max" and -1 for "min", the reduced cost of column j is
    s ((A^T y + E^T w)_j - c_j): zero on free columns, nonnegative on masked
    ones and complementary to x_j there.
    """
    _check_lp(_cleared(A, b), _cleared(E, e), c, sense, mask, res)


def _check_lp(ineq, eq, c, sense, mask, res):
    """_verify_lp on rows cleared to ints (see _cleared).  A row scaled by
    its positive denominator d_i holds the same inequality, and its
    multiplier becomes y_i / d_i; each vector is put over one denominator,
    so every identity is tested on ints."""
    n = len(c)
    s = 1 if sense == "max" else -1
    free = [j for j in range(n) if not mask[j]]
    masked = [j for j in range(n) if mask[j]]
    cnum, dc = _over(c)

    def combo(y, w):
        """A^T y + E^T w and, at index n, b.y + e.w: numerators over one
        denominator, which is returned with them."""
        require(len(y) == len(ineq) and len(w) == len(eq), "multiplier lengths")
        z = [(t.numerator, t.denominator * d) for t, (_, d) in zip(y + w, ineq + eq)]
        dz = math.lcm(*(q for _, q in z))
        acc = [0] * (n + 1)
        for (p, q), (ints, _) in zip(z, ineq + eq):
            if p:
                f = p * (dz // q)
                acc = [a + f * v for a, v in zip(acc, ints)]
        return acc, dz

    def feasible(x):
        """x as (numerators, denominator) after checking it; also the
        inequality rows' slacks, scaled by positive factors."""
        require(len(x) == n, "point length")
        num, dx = _over(x)
        slack = [ints[-1] * dx - sum(map(mul, ints, num)) for ints, _ in ineq]
        require(all(v >= 0 for v in slack), "inequality rows hold")
        require(all(ints[-1] * dx == sum(map(mul, ints, num)) for ints, _ in eq),
                "equality rows hold")
        require(all(num[j] >= 0 for j in masked), "sign constraints hold")
        return num, dx, slack

    if res.status == "optimal":
        x, y, w = res.point, res.dual_ineq, res.dual_eq
        num, dx, slack = feasible(x)
        require(Fraction(sum(map(mul, cnum, num)), dc * dx) == res.value, "objective value")
        require(all(s * v >= 0 for v in y), "dual signs")
        acc, dz = combo(y, w)
        red = [s * (a * dc - cj * dz) for a, cj in zip(acc, cnum)]
        require(all(red[j] == 0 for j in free), "dual equalities on free columns")
        require(all(red[j] >= 0 for j in masked), "dual inequalities on masked columns")
        require(Fraction(acc[n], dz) == res.value, "strong duality")
        require(all(v == 0 or sl == 0 for v, sl in zip(y, slack)),
                "complementary slackness on rows")
        require(all(red[j] == 0 or num[j] == 0 for j in masked),
                "complementary slackness on columns")
    elif res.status == "infeasible":
        y, w = res.farkas_ineq, res.farkas_eq
        require(all(v >= 0 for v in y), "Farkas signs")
        acc, _ = combo(y, w)
        require(all(acc[j] == 0 for j in free), "Farkas equalities on free columns")
        require(all(acc[j] >= 0 for j in masked), "Farkas inequalities on masked columns")
        require(acc[n] < 0, "Farkas right-hand side")
    elif res.status == "unbounded":
        x, r = res.point, res.ray
        feasible(x)
        require(len(r) == n, "ray length")
        rnum, _ = _over(r)
        require(all(sum(map(mul, ints, rnum)) <= 0 for ints, _ in ineq),
                "ray keeps the inequality rows")
        require(all(sum(map(mul, ints, rnum)) == 0 for ints, _ in eq),
                "ray keeps the equality rows")
        require(all(rnum[j] >= 0 for j in masked), "ray keeps the sign constraints")
        require(s * sum(map(mul, cnum, rnum)) > 0, "ray improves the objective")
    else:
        require(False, f"unknown status {res.status!r}")
