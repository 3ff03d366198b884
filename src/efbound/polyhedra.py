"""Polyhedron pairs, slack matrices, and LP-certified sandwich checks.

A pair is an inner description P = conv(points) + cone(rays) sitting inside
an outer description Q = {x : Ax <= b}.  The slack matrix of the pair keeps
the vertex part b_i - A_i v_j and the ray part -A_i r_j separate, because
dilating Q by rho shifts only the vertex part (by (rho-1) b_i).

An extended formulation is a system  E x + F y = g, y >= 0  whose projection
to x is some set K; its size is the number of y variables.  Containment is
never eyeballed here: P inside K is proved by one witness vector per
generator, K inside Q by one multiplier vector per inequality, and both
kinds of certificate are re-checked as exact rational identities.

Only polyhedral outer sets are representable.  Pathological nonpolyhedral
objective sets have no finite H-description, so nothing in this module
attempts to detect them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, decoding, require
from .ratlin import (ONE, ZERO, RationalMatrix, _vec_json, dot, lp_solve, lp_solve_each, rat,
                     rat_str)


def _vec(xs, d=None, label="vector"):
    v = [rat(x) for x in xs]
    if d is not None and len(v) != d:
        raise InputError(f"{label} has length {len(v)}, expected {d}")
    return v


class VRep:
    """Inner description: conv(points) + cone(rays) in R^d.

    An empty points list declares the empty polyhedron (rays must then be
    empty too).
    """

    def __init__(self, dim, points, rays=()):
        self.dim = int(dim)
        if self.dim < 1:
            raise InputError("dimension must be at least 1")
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
            return cls(d["dim"], d["points"], d.get("rays", []))

    def __repr__(self):
        return f"VRep(dim={self.dim}, points={len(self.points)}, rays={len(self.rays)})"


class HRep:
    """Outer description {x : Ax <= b}."""

    def __init__(self, dim, A, b):
        self.dim = int(dim)
        if self.dim < 1:
            raise InputError("dimension must be at least 1")
        self.A = A if isinstance(A, RationalMatrix) else RationalMatrix.from_rows(
            [[rat(x) for x in row] for row in A])
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
            return cls(d["dim"], RationalMatrix.from_json(d["A"]), d["b"])

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
        self.source_b = [rat(x) for x in source_b]
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
        self.g = [rat(x) for x in g]
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
    m = Q.nrows
    vb = RationalMatrix(m, len(P.points))
    rb = RationalMatrix(m, len(P.rays))
    for i in range(m):
        ai = Q.A.row(i)
        for j, v in enumerate(P.points):
            vb[i, j] = Q.b[i] - dot(ai, v)
        for j, r in enumerate(P.rays):
            rb[i, j] = -dot(ai, r)
    return SlackMatrix(vb, rb, Q.b)


def dilate(Q: HRep, rho) -> HRep:
    """rho Q = {x : Ax <= rho b}, for rho >= 1.

    For minimization pairs the equivalent of shrinking is dilating by the
    reciprocal, which is the caller's job; rho < 1 is rejected here.
    """
    rho = rat(rho)
    if rho < 1:
        raise InputError(f"dilation factor must be >= 1, got {rho}")
    return HRep(Q.dim, Q.A.copy(), [rho * bi for bi in Q.b])


def shift_slack(S: SlackMatrix, rho) -> SlackMatrix:
    """Slack of the dilated pair: vertex entries gain (rho-1) b_i, rays are unchanged."""
    rho = rat(rho)
    vb = S.vertex_block.copy()
    for i in range(vb.rows):
        d = (rho - 1) * S.source_b[i]
        if d != 0:
            for j in range(vb.cols):
                vb[i, j] += d
    return SlackMatrix(vb, S.ray_block.copy(), [rho * bi for bi in S.source_b])


def trivial_ef(Q: HRep) -> ExtendedFormulation:
    """Slack-variable form of an H-rep: Ax + Iy = b, y >= 0; size = row count."""
    return ExtendedFormulation(Q.A.copy(), RationalMatrix.identity(Q.nrows), list(Q.b))


def homogenize(K: ExtendedFormulation) -> ExtendedFormulation:
    """EF of the homogenization cone: E x + F y - lambda g = 0, y, lambda >= 0.

    One extra nonnegative variable, so the size grows from r to r+1.  Points
    of K reappear at lambda = 1 and the recession directions at lambda = 0.
    """
    gcol = RationalMatrix(K.nrows, 1, [-x for x in K.g])
    return ExtendedFormulation(K.E.copy(), RationalMatrix.hstack([K.F, gcol]),
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
    When not ok, ``failing`` carries a point of K violating one row.
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


def nonneg_solution(F: RationalMatrix, rhs):
    """Find y >= 0 with F y = rhs, or an exact refutation vector u.

    Returns ("ok", y) or ("no", u) with F^T u >= 0 and u . rhs < 0.
    """
    r = F.cols
    if r == 0:
        if all(x == 0 for x in rhs):
            return "ok", []
        # u = -e_i on the first nonzero coordinate, sign-adjusted
        i = next(i for i, x in enumerate(rhs) if x != 0)
        u = [ZERO] * F.rows
        u[i] = -ONE if rhs[i] > 0 else ONE
        return "no", u
    res = lp_solve(None, None, F.tolist(), rhs, [ZERO] * r, nonneg=range(r))
    if res.status == "optimal":
        return "ok", res.point
    require(res.status == "infeasible", "a feasibility LP is optimal or infeasible")
    return "no", res.farkas_eq


def ef_contains_points(P: VRep, K: ExtendedFormulation) -> ContainsReport:
    """Prove every generator of P lies in K, or report the first that does not.

    A point v needs w >= 0 with F w = g - E v; a ray r needs z >= 0 with
    F z = -E r (membership in the recession cone of the system).  Witness
    and refutation vectors are verified exactly before being reported.
    """
    if P.dim != K.dim:
        raise InputError(f"dimension mismatch: P is {P.dim}-dimensional, K expects {K.dim}")
    witnesses = []
    gens = [("point", j, v) for j, v in enumerate(P.points)] + \
           [("ray", j, r) for j, r in enumerate(P.rays)]
    for kind, j, vec in gens:
        ev = [dot(K.E.row(i), vec) for i in range(K.nrows)]
        rhs = [K.g[i] - ev[i] for i in range(K.nrows)] if kind == "point" \
            else [-x for x in ev]
        status, w = nonneg_solution(K.F, rhs)
        if status == "ok":
            require(all(x >= 0 for x in w), "containment witness w >= 0")
            require([dot(K.F.row(i), w) for i in range(K.nrows)] == rhs,
                    "containment witness F w = rhs")
            witnesses.append((kind, j, w))
        else:
            u = w
            ftu = [dot(K.F.col(jj), u) for jj in range(K.size)]
            require(all(x >= 0 for x in ftu) and dot(u, rhs) < 0,
                    "containment refutation F^T u >= 0, u . rhs < 0")
            return ContainsReport(ok=False, failing={
                "kind": kind, "index": j, "generator": vec, "certificate": u})
    return ContainsReport(ok=True, witnesses=witnesses)


def ef_inside_hrep(K: ExtendedFormulation, Q: HRep) -> InsideReport:
    """Derive every inequality of Q from the EF system, or exhibit a violator.

    Row i is certified by multipliers t_i on the equality rows:
    t_i E = A_i, t_i F >= 0, and t_i g + c_i = b_i with c_i >= 0.  The t_i
    come from LP duality (maximize A_i x over the system); a maximum above
    b_i, or an unbounded direction, yields an explicit point of K violating
    the row.  An empty system satisfies everything vacuously and is reported
    as such with an emptiness certificate.
    """
    if K.dim != Q.dim:
        raise InputError(f"dimension mismatch: K is {K.dim}-dimensional, Q is {Q.dim}")
    d, r, p = K.dim, K.size, K.nrows
    eq_rows = [K.E.row(i) + K.F.row(i) for i in range(p)]
    objectives = [Q.A.row(i) + [ZERO] * r for i in range(Q.nrows)]
    derivations = []
    results = lp_solve_each(None, None, eq_rows, K.g, objectives, nonneg=range(d, d + r))
    for i, res in enumerate(results):
        ai = Q.A.row(i)
        if res.status == "infeasible":
            u = res.farkas_eq
            et_u = [dot(K.E.col(j), u) for j in range(d)]
            ft_u = [dot(K.F.col(j), u) for j in range(r)]
            require(all(x == 0 for x in et_u) and all(x >= 0 for x in ft_u),
                    "emptiness certificate E^T u = 0, F^T u >= 0")
            require(dot(u, K.g) < 0, "emptiness certificate u . g < 0")
            return InsideReport(ok=True, empty=True, empty_certificate=u)
        if res.status == "unbounded":
            x0 = res.point[:d]
            rx = res.ray[:d]
            gain = dot(ai, rx)
            require(gain > 0, "unbounded direction raises A_i x")
            t = max(ONE, (Q.b[i] - dot(ai, x0) + 1) / gain)
            x_bad = [x0[k] + t * rx[k] for k in range(d)]
            val = dot(ai, x_bad)
            require(val > Q.b[i], "violating point exceeds b_i")
            return InsideReport(ok=False, failing={
                "row": i, "point": x_bad, "value": val, "bound": Q.b[i]})
        val = res.value
        if val > Q.b[i]:
            return InsideReport(ok=False, failing={
                "row": i, "point": res.point[:d], "value": val, "bound": Q.b[i]})
        t = res.dual_eq
        ci = Q.b[i] - val
        require([dot(K.E.col(j), t) for j in range(d)] == ai, "derivation t E = A_i")
        require(all(dot(K.F.col(j), t) >= 0 for j in range(r)), "derivation t F >= 0")
        require(dot(t, K.g) + ci == Q.b[i] and ci >= 0, "derivation t g + c_i = b_i, c_i >= 0")
        derivations.append((i, t, ci))
    return InsideReport(ok=True, derivations=derivations)


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
