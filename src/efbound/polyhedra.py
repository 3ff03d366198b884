"""Polyhedron pairs, slack matrices, and LP-certified sandwich checks.

A pair is an inner description P = conv(points) + cone(rays) sitting inside
an outer description Q = {x : Ax <= b}.  The slack matrix of the pair keeps
the vertex part b_i - A_i v_j and the ray part -A_i r_j separate, because
dilating Q by rho shifts only the vertex part (by (rho-1) b_i).

An extended formulation is a system  E x + F y = g, y >= 0  whose projection
to x is some set K; its size is the number of y variables.  Containment is
never eyeballed here: P inside K is proved by one witness vector per
generator, K inside Q by one multiplier vector t_i per inequality, and both
kinds of certificate are re-checked as exact rational identities.  A row
A_i x <= b_i is derived with t_i E = A_i, t_i F >= 0 and t_i g + c_i = b_i
for an offset c_i >= 0: ef_inside_hrep finds the general derivation by LP
duality, tight_derivations one with c_i = 0 where it exists, and one check
serves both kinds.  A row that fails is shown by a point x of K above it
together with its lifting w >= 0, F w = g - E x, so every certificate here,
failures included, is re-checked by arithmetic alone (lifts, refutes).

Only polyhedral outer sets are representable.  Pathological nonpolyhedral
objective sets have no finite H-description, so nothing in this module
attempts to detect them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .errors import InputError, decoding, json_int, require
from .ratlin import (ONE, ZERO, RationalMatrix, _cleared, _combo, _over, _rho, _vec_json,
                     dot, lp_feasible_each, lp_solve, lp_solve_each, rat, rat_str, rats)


def _vec(xs, d=None, label="vector"):
    v = rats(xs)
    if d is not None and len(v) != d:
        raise InputError(f"{label} has length {len(v)}, expected {d}")
    return v


def _dim(dim):
    if type(dim) is not int or dim < 1:
        raise InputError(f"dimension must be an integer >= 1, got {dim!r}")
    return dim


class VRep:
    """Inner description: conv(points) + cone(rays) in R^d.

    An empty points list declares the empty polyhedron (rays must then be
    empty too).
    """

    def __init__(self, dim, points, rays=()):
        self.dim = _dim(dim)
        self.points = [_vec(p, self.dim, "point") for p in points]
        self.rays = [_vec(r, self.dim, "ray") for r in rays]
        if not self.points and self.rays:
            raise InputError("rays without any point do not describe a polyhedron here")

    @property
    def is_empty(self):
        return not self.points

    def to_json(self):
        return {"dim": self.dim,
                "points": [_vec_json(p) for p in self.points],
                "rays": [_vec_json(r) for r in self.rays]}

    @classmethod
    def from_json(cls, d):
        with decoding("V-rep JSON needs keys dim, points (and optional rays)"):
            return cls(json_int(d, "dim"), d["points"], d.get("rays", []))

    def __repr__(self):
        return f"VRep(dim={self.dim}, points={len(self.points)}, rays={len(self.rays)})"


class HRep:
    """Outer description {x : Ax <= b}."""

    def __init__(self, dim, A, b):
        self.dim = _dim(dim)
        self.A = A if isinstance(A, RationalMatrix) else RationalMatrix.from_rows(A)
        self.b = _vec(b, self.A.rows, "b")
        if self.A.rows and self.A.cols != self.dim:
            raise InputError(f"A has {self.A.cols} columns, expected {self.dim}")

    @property
    def nrows(self):
        return self.A.rows

    def to_json(self):
        return {"dim": self.dim, "A": self.A.to_json(), "b": _vec_json(self.b)}

    @classmethod
    def from_json(cls, d):
        with decoding("H-rep JSON needs keys dim, A, b"):
            return cls(json_int(d, "dim"), RationalMatrix.from_json(d["A"]), d["b"])

    def __repr__(self):
        return f"HRep(dim={self.dim}, rows={self.nrows})"


class SlackMatrix:
    """Vertex and ray slack blocks of a pair, plus the b that generated them.

    Nonnegativity of all entries is equivalent to P being inside Q; it is a
    property to query (is_nonneg), never an assumption.
    """

    def __init__(self, vertex_block, ray_block, source_b):
        self.vertex_block = vertex_block
        self.ray_block = ray_block
        self.source_b = rats(source_b)
        m = len(self.source_b)
        if vertex_block.rows != m or ray_block.rows != m:
            raise InputError("slack blocks and source_b disagree on the row count")

    @property
    def nrows(self):
        return len(self.source_b)

    def full(self) -> RationalMatrix:
        """vertex block and ray block side by side."""
        return RationalMatrix.hstack([self.vertex_block, self.ray_block])

    def is_nonneg(self):
        return self.vertex_block.is_nonneg() and self.ray_block.is_nonneg()

    def to_json(self):
        return {"vertex_block": self.vertex_block.to_json(),
                "ray_block": self.ray_block.to_json(),
                "source_b": _vec_json(self.source_b)}

    @classmethod
    def from_json(cls, d):
        with decoding("slack JSON needs keys vertex_block, ray_block, source_b"):
            return cls(RationalMatrix.from_json(d["vertex_block"]),
                       RationalMatrix.from_json(d["ray_block"]),
                       d["source_b"])

    def __eq__(self, other):
        if not isinstance(other, SlackMatrix):
            return NotImplemented
        return (self.vertex_block == other.vertex_block
                and self.ray_block == other.ray_block
                and self.source_b == other.source_b)


class ExtendedFormulation:
    """K = {x : exists y >= 0 with E x + F y = g}; size = number of y vars."""

    def __init__(self, E, F, g):
        self.E = E
        self.F = F
        self.g = rats(g)
        if E.rows != F.rows or E.rows != len(self.g):
            raise InputError("E, F, g row counts differ")

    @property
    def dim(self):
        return self.E.cols

    @property
    def size(self):
        return self.F.cols

    @property
    def nrows(self):
        return self.E.rows

    def to_json(self):
        return {"E": self.E.to_json(), "F": self.F.to_json(), "g": _vec_json(self.g)}

    @classmethod
    def from_json(cls, d):
        with decoding("EF JSON needs keys E, F, g"):
            return cls(RationalMatrix.from_json(d["E"]),
                       RationalMatrix.from_json(d["F"]), d["g"])

    def __repr__(self):
        return f"ExtendedFormulation(dim={self.dim}, size={self.size}, rows={self.nrows})"


def build_slack(P: VRep, Q: HRep) -> SlackMatrix:
    """Slack matrix of the pair: vertex entries b_i - A_i v_j, ray entries -A_i r_j."""
    if P.dim != Q.dim:
        raise InputError(f"dimension mismatch: P is {P.dim}-dimensional, Q is {Q.dim}")
    rows = Q.A.tolist()
    vb = [bi - dot(ai, v) for ai, bi in zip(rows, Q.b) for v in P.points]
    rb = [-dot(ai, r) for ai in rows for r in P.rays]
    return SlackMatrix(RationalMatrix(Q.nrows, len(P.points), vb),
                       RationalMatrix(Q.nrows, len(P.rays), rb), Q.b)


def dilate(Q: HRep, rho) -> HRep:
    """rho Q = {x : Ax <= rho b}, for rho >= 1.

    For minimization pairs the equivalent of shrinking is dilating by the
    reciprocal, which is the caller's job; rho < 1 is rejected here.
    """
    rho = _rho(rho)
    return HRep(Q.dim, Q.A, [rho * bi for bi in Q.b])


def shift_slack(S: SlackMatrix, rho) -> SlackMatrix:
    """Slack of (P, rho Q), rho >= 1: vertex entries gain (rho-1) b_i, rays are unchanged."""
    rho = _rho(rho)
    vb = S.vertex_block
    shifts = [(rho - 1) * bi for bi in S.source_b]
    shifted = [x + d for d, row in zip(shifts, vb.tolist()) for x in row]
    return SlackMatrix(RationalMatrix(vb.rows, vb.cols, shifted), S.ray_block,
                       [rho * bi for bi in S.source_b])


def trivial_ef(Q: HRep) -> ExtendedFormulation:
    """Slack-variable form of an H-rep: Ax + Iy = b, y >= 0; size = row count."""
    return ExtendedFormulation(Q.A, RationalMatrix.identity(Q.nrows), Q.b)


def homogenize(K: ExtendedFormulation) -> ExtendedFormulation:
    """EF of the homogenization cone: E x + F y - lambda g = 0, y, lambda >= 0.

    One extra nonnegative variable, so the size grows from r to r+1.  Points
    of K reappear at lambda = 1 and the recession directions at lambda = 0.
    """
    gcol = RationalMatrix(K.nrows, 1, [-x for x in K.g])
    return ExtendedFormulation(K.E, RationalMatrix.hstack([K.F, gcol]),
                               [ZERO] * K.nrows)


@dataclass
class ContainsReport:
    """Outcome of ef_contains_points.

    When ok, ``witnesses`` holds one entry per generator of P, in order:
    ("point", j, w_j) with F w_j = g - E v_j, or ("ray", j, z_j) with
    F z_j = -E r_j, each w, z >= 0.  When not ok, ``failing`` identifies the
    first generator with no witness together with a vector u such that
    F^T u >= 0 but u . rhs < 0, which refutes any nonnegative solution.
    """

    ok: bool
    witnesses: list = field(default_factory=list)
    failing: dict | None = None

    def to_json(self):
        out = {"op": "ef_contains_points", "ok": self.ok}
        if self.ok:
            out["witnesses"] = [{"kind": k, "index": j, "w": _vec_json(w)}
                                for k, j, w in self.witnesses]
        else:
            f = dict(self.failing)
            f["generator"] = _vec_json(f["generator"])
            f["certificate"] = _vec_json(f["certificate"])
            out["failing"] = f
        return out


@dataclass
class InsideReport:
    """Outcome of ef_inside_hrep.

    When ok and the EF is nonempty, ``derivations`` has one (t_i, c_i) per
    row of Q with  t_i E = A_i,  t_i F >= 0,  t_i g + c_i = b_i,  c_i >= 0.
    An empty EF makes every row hold vacuously; then ``empty_certificate``
    is a u with E^T u = 0, F^T u >= 0, u . g < 0 proving emptiness.
    When not ok, ``failing`` carries a point x of K violating one row and
    its lifting w: w >= 0 and F w = g - E x, so lifts(K, "point", x, w).
    """

    ok: bool
    derivations: list = field(default_factory=list)
    empty: bool = False
    empty_certificate: list | None = None
    failing: dict | None = None

    def to_json(self):
        out = {"op": "ef_inside_hrep", "ok": self.ok, "empty": self.empty}
        if self.empty:
            out["empty_certificate"] = _vec_json(self.empty_certificate)
        elif self.ok:
            out["derivations"] = [{"row": i, "t": _vec_json(t), "c": rat_str(c)}
                                  for i, t, c in self.derivations]
        else:
            f = dict(self.failing)
            f["point"] = _vec_json(f["point"])
            f["lifting"] = _vec_json(f["lifting"])
            f["value"] = rat_str(f["value"])
            f["bound"] = rat_str(f["bound"])
            out["failing"] = f
        return out


@dataclass
class SandwichReport:
    ok: bool
    rho: Fraction
    contains: ContainsReport
    inside: InsideReport
    affine: bool
    rec_cone_fulldim: bool

    def to_json(self):
        return {"op": "verify_sandwich", "ok": self.ok, "rho": rat_str(self.rho),
                "affine": self.affine, "rec_cone_fulldim": self.rec_cone_fulldim,
                "contains": self.contains.to_json(), "inside": self.inside.to_json()}


def nonneg_solutions(F: RationalMatrix, rhss):
    """For each rhs of rhss, in order, find y >= 0 with F y = rhs or an
    exact refutation vector u.

    Yields ("ok", y) or ("no", u) with F^T u >= 0 and u . rhs < 0.  The LPs
    share F, so they are solved from one basis (ratlin.lp_feasible_each);
    rhss may be lazy, and a caller that stops early solves no more of them.
    """
    r = F.cols
    for res in lp_feasible_each(None, None, F.tolist(), rhss, r, nonneg=range(r)):
        if res.status == "optimal":
            yield "ok", res.point
        else:
            require(res.status == "infeasible", "a feasibility LP is optimal or infeasible")
            yield "no", res.farkas_eq


class _Cleared:
    """The rows of [E | F | g] of an EF, each as ints over its own positive
    denominator (ratlin._cleared), made once per call.  The identities of
    containment and derivation certificates are tested on these ints, with
    each vector put over one denominator."""

    def __init__(self, K: ExtendedFormulation):
        self.d, self.r = K.dim, K.size
        self.rows = _cleared([K.E.row(k) + K.F.row(k) for k in range(K.nrows)], K.g)

    def lift(self, kind, vec):
        """g - E vec for a "point", -E vec for a "ray"."""
        num, dv = _over(_vec(vec, self.d, "generator"))
        g = dv if kind == "point" else 0
        return [Fraction(g * ints[-1] - sum(map(mul, ints, num)), d * dv)
                for ints, d in self.rows]

    def lifts(self, kind, vec, w):
        """Whether w lifts vec: F w = lift(kind, vec)."""
        num, dv = _over(vec)
        wn, dw = _over(w)
        x = [a * dw for a in num] + [a * dv for a in wn] + [-dv * dw if kind == "point" else 0]
        return len(w) == self.r and all(sum(map(mul, ints, x)) == 0 for ints, _ in self.rows)

    def combo(self, u):
        """(E^T u, F^T u, u . g, dz): the first three as ints over the one
        positive denominator dz."""
        acc, dz = _combo(self.rows, _vec(u, len(self.rows), "multiplier vector"),
                         self.d + self.r + 1)
        return acc[:self.d], acc[self.d:-1], acc[-1], dz

    def refutes(self, kind, vec, u):
        """Whether u proves that F w = lift(kind, vec) has no w >= 0:
        F^T u >= 0 and u . lift(kind, vec) < 0."""
        uE, uF, ug, _ = self.combo(u)
        num, dv = _over(_vec(vec, self.d, "generator"))
        urhs = (ug * dv if kind == "point" else 0) - sum(map(mul, uE, num))
        return all(x >= 0 for x in uF) and urhs < 0

    def check_derivation(self, t, a, b, c=ZERO):
        """Require that t derives a x <= b with offset c: t E = a, t F >= 0
        and t g + c = b with c >= 0.  A tight derivation has c = 0."""
        tE, tF, tg, dz = self.combo(t)
        require(len(tE) == len(a) and all(
            x * v.denominator == v.numerator * dz for x, v in zip(tE, a)),
            "derivation t E = A_i")
        require(all(x >= 0 for x in tF), "derivation t F >= 0")
        require(Fraction(tg, dz) + c == b and c >= 0, "derivation t g + c_i = b_i, c_i >= 0")


def lifts(K: ExtendedFormulation, kind, vec, w):
    """Whether w lifts vec into K: w >= 0 and F w = rhs, with rhs = g - E vec
    for a "point" and -E vec for a "ray" (a recession direction)."""
    rows = _Cleared(K)
    vec, w = _vec(vec, rows.d, "generator"), _vec(w, rows.r, "lifting")
    return all(x >= 0 for x in w) and rows.lifts(kind, vec, w)


def refutes(K: ExtendedFormulation, kind, vec, u):
    """Whether u proves that vec has no lifting w >= 0 with F w = rhs (rhs
    as in lifts): F^T u >= 0 and u . rhs < 0."""
    return _Cleared(K).refutes(kind, vec, u)


def ef_contains_points(P: VRep, K: ExtendedFormulation) -> ContainsReport:
    """Prove every generator of P lies in K, or report the first that does not.

    A point v needs w >= 0 with F w = g - E v; a ray r needs z >= 0 with
    F z = -E r (membership in the recession cone of the system).  The LPs
    share F and are solved from one basis.  Witness and refutation vectors
    are verified exactly before being reported.
    """
    if P.dim != K.dim:
        raise InputError(f"dimension mismatch: P is {P.dim}-dimensional, K expects {K.dim}")
    rows = _Cleared(K)
    witnesses = []
    gens = [("point", j, v) for j, v in enumerate(P.points)] + \
           [("ray", j, r) for j, r in enumerate(P.rays)]
    solutions = nonneg_solutions(K.F, (rows.lift(kind, vec) for kind, _, vec in gens))
    for (kind, j, vec), (status, w) in zip(gens, solutions):
        if status == "ok":
            require(all(x >= 0 for x in w), "containment witness w >= 0")
            require(rows.lifts(kind, vec, w), "containment witness F w = rhs")
            witnesses.append((kind, j, w))
        else:
            require(rows.refutes(kind, vec, w),
                    "containment refutation F^T u >= 0, u . rhs < 0")
            return ContainsReport(ok=False, failing={
                "kind": kind, "index": j, "generator": vec, "certificate": w})
    return ContainsReport(ok=True, witnesses=witnesses)


def ef_inside_hrep(K: ExtendedFormulation, Q: HRep) -> InsideReport:
    """Derive every inequality of Q from the EF system, or exhibit a violator.

    Row i is certified by multipliers t_i on the equality rows:
    t_i E = A_i, t_i F >= 0, and t_i g + c_i = b_i with c_i >= 0.  The t_i
    come from LP duality (maximize A_i x over the system); a maximum above
    b_i, or an unbounded direction, yields an LP point (x, y) with x in K
    violating the row and y >= 0 its lifting.  An empty system satisfies
    everything vacuously and is reported with an emptiness certificate.
    """
    if K.dim != Q.dim:
        raise InputError(f"dimension mismatch: K is {K.dim}-dimensional, Q is {Q.dim}")
    d, r, p = K.dim, K.size, K.nrows
    rows = _Cleared(K)
    eq_rows = [K.E.row(i) + K.F.row(i) for i in range(p)]
    objectives = [Q.A.row(i) + [ZERO] * r for i in range(Q.nrows)]
    derivations = []
    results = lp_solve_each(None, None, eq_rows, K.g, objectives, nonneg=range(d, d + r))
    for i, res in enumerate(results):
        ai = Q.A.row(i)
        if res.status == "infeasible":
            u = res.farkas_eq
            uE, uF, ug, _ = rows.combo(u)
            require(not any(uE) and all(x >= 0 for x in uF),
                    "emptiness certificate E^T u = 0, F^T u >= 0")
            require(ug < 0, "emptiness certificate u . g < 0")
            return InsideReport(ok=True, empty=True, empty_certificate=u)
        if res.status == "unbounded" or res.value > Q.b[i]:
            z = res.point
            if res.status == "unbounded":
                gain = dot(ai, res.ray[:d])
                require(gain > 0, "unbounded direction raises A_i x")
                t = max(ONE, (Q.b[i] - dot(ai, z[:d]) + 1) / gain)
                z = [zk + t * rk for zk, rk in zip(z, res.ray)]
            x, w = z[:d], z[d:]
            val = dot(ai, x)
            require(val > Q.b[i], "violating point exceeds b_i")
            require(all(v >= 0 for v in w) and rows.lifts("point", x, w),
                    "violating point lifts: w >= 0, F w = g - E x")
            return InsideReport(ok=False, failing={
                "row": i, "point": x, "lifting": w, "value": val, "bound": Q.b[i]})
        t, ci = res.dual_eq, Q.b[i] - res.value
        rows.check_derivation(t, ai, Q.b[i], ci)
        derivations.append((i, t, ci))
    return InsideReport(ok=True, derivations=derivations)


def tight_derivations(K: ExtendedFormulation, Q: HRep):
    """For each row i of Q, multipliers t with t E = A_i, t F >= 0 and
    t g = b_i exactly (a derivation with offset c_i = 0), or None.

    The LPs over t differ only in their right-hand sides (A_i, b_i), so they
    are solved from one basis.  When every row has one, they alone prove K
    inside Q.
    """
    if K.dim != Q.dim:
        raise InputError(f"dimension mismatch: K is {K.dim}-dimensional, Q is {Q.dim}")
    rows = _Cleared(K)
    r = K.size
    eq_rows = [K.E.col(j) for j in range(K.dim)] + [K.g]
    ineq = [[-x for x in K.F.col(j)] for j in range(r)]
    beqs = [Q.A.row(i) + [Q.b[i]] for i in range(Q.nrows)]
    out = []
    for beq, res in zip(beqs, lp_feasible_each(ineq, [ZERO] * r, eq_rows, beqs, K.nrows)):
        t = res.point if res.status == "optimal" else None
        if t is not None:
            rows.check_derivation(t, beq[:-1], beq[-1])
        out.append(t)
    return out


def _affine_hull_inside(P: VRep, Q: HRep) -> bool:
    """True iff the affine hull of P lies inside Q.

    Happens iff every A_i is constant along all displacement directions of
    P and that constant value clears b_i.
    """
    if P.is_empty:
        return True
    v0 = P.points[0]
    dirs = [[v[k] - v0[k] for k in range(P.dim)] for v in P.points[1:]] + P.rays
    for i in range(Q.nrows):
        ai = Q.A.row(i)
        if any(dot(ai, dv) != 0 for dv in dirs):
            return False
        if dot(ai, v0) > Q.b[i]:
            return False
    return True


def recession_fulldim(Q: HRep) -> bool:
    """True iff {x : Ax <= 0} is full-dimensional (some x has A_i x < 0 on
    every nonzero row; zero rows do not constrain the cone)."""
    nz = [Q.A.row(i) for i in range(Q.nrows) if any(x != 0 for x in Q.A.row(i))]
    if not nz:
        return True
    res = lp_solve(nz, [-ONE] * len(nz), None, None, [ZERO] * Q.dim)
    return res.status == "optimal"


def verify_sandwich(P: VRep, Q: HRep, rho, K: ExtendedFormulation) -> SandwichReport:
    """Certify P inside K inside rho Q, with both certificate tables.

    The report also notes two degeneracies: ``affine`` when already the
    whole affine hull of P sits inside rho Q (the pair needs no auxiliary
    variables at all), and ``rec_cone_fulldim`` when Q's recession cone is
    full-dimensional (the regime where the additive constant in the
    factorization correspondence can vanish).
    """
    rho = rat(rho)
    Qd = dilate(Q, rho)
    contains = ef_contains_points(P, K)
    inside = ef_inside_hrep(K, Qd)
    return SandwichReport(ok=contains.ok and inside.ok, rho=rho,
                          contains=contains, inside=inside,
                          affine=_affine_hull_inside(P, Qd),
                          rec_cone_fulldim=recession_fulldim(Q))
