"""Concrete instances: the correlation/clique hard pair, cut and correlation
cones, and the rank-one PSD factor families.

Vectors a, b range over {0,1}^n and are handled as bitmasks (LSB = index 1)
or 0/1 sequences interchangeably.  Matrix variables are vectorized row-major
into R^(n^2) and every matrix inner product is Frobenius.  All constructions
are exact; the one numpy kernel, in psd_factors, works on small integers
where int64 arithmetic is exact, and a sampled rational cross-check ties it
back to the Fraction world.  numpy is imported there, not at module level,
so no other construction loads it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import InputError, check_deadline, decoding, ground_size, require
from .polyhedra import ExtendedFormulation, HRep, SlackMatrix, VRep
from .ratlin import ONE, ZERO, RationalMatrix, rat, rat_str


def _as_mask(b, n):
    """Accept a bitmask or a 0/1 sequence of length n."""
    if isinstance(b, int):
        if not 0 <= b < (1 << n):
            raise InputError(f"mask {b} out of range for n={n}")
        return b
    bits = list(b)
    if len(bits) != n or any(x not in (0, 1) for x in bits):
        raise InputError(f"expected a 0/1 vector of length {n}")
    return sum(1 << i for i, x in enumerate(bits) if x)


def _bits(mask, n):
    return [(mask >> i) & 1 for i in range(n)]


def objective_matrix(a, n) -> RationalMatrix:
    """2 diag(a) - a a^T for binary a: a_i on the diagonal, -a_i a_j off it."""
    amask = _as_mask(a, n)
    av = _bits(amask, n)
    M = RationalMatrix(n, n)
    for i in range(n):
        for j in range(n):
            M[i, j] = Fraction(av[i]) if i == j else Fraction(-av[i] * av[j])
    return M


def _vec(M):
    return [M[i, j] for i in range(M.rows) for j in range(M.cols)]


@dataclass
class Graph:
    """Vertex set inside the fixed ground set [n], n an integer >= 0;
    undirected, loopless."""

    n: int
    vertices: frozenset
    edges: frozenset  # of frozenset pairs

    def __init__(self, n, vertices, edges):
        self.n = ground_size(n, least=0)
        self.vertices = frozenset(vertices)
        self.edges = frozenset(frozenset(e) for e in edges)
        if not all(isinstance(v, int) and 1 <= v <= self.n for v in self.vertices):
            raise InputError(f"vertices must lie in [1, {self.n}]")
        for e in self.edges:
            if len(e) != 2:
                raise InputError(f"edge {sorted(e)} is not a pair of two vertices")
            if not e <= self.vertices:
                raise InputError(f"edge {sorted(e)} leaves the vertex set")

    def to_json(self):
        return {"n": self.n, "vertices": sorted(self.vertices),
                "edges": sorted(sorted(e) for e in self.edges)}

    @classmethod
    def from_json(cls, d):
        with decoding("graph JSON needs keys n, vertices, edges"):
            return cls(d["n"], d["vertices"], d["edges"])

    @classmethod
    def edgeless(cls, n, vertices):
        return cls(n, vertices, [])

    @classmethod
    def complete(cls, n, vertices=None):
        verts = frozenset(range(1, n + 1)) if vertices is None else frozenset(vertices)
        return cls(n, verts, combinations(sorted(verts), 2))


@dataclass
class HardPair:
    """COR(n) as a V-rep inside R^(n^2) together with the 2^n-row outer
    description whose slack entries are (1 - a.b)^2."""

    n: int
    P: VRep
    Q: HRep


def build_hard_pair(n) -> HardPair:
    """P = conv{vec(b b^T)}, Q = {x : <2diag(a) - a a^T, x> <= 1 for all a},
    for an integer 1 <= n <= 10.

    Rows and points are both in bitmask order, so slack indices line up with
    the subset lattice.
    """
    ground_size(n, limit=10)
    points = []
    rows = []
    for mask in range(1 << n):
        check_deadline()
        bv = _bits(mask, n)
        points.append([Fraction(bv[i] * bv[j]) for i in range(n) for j in range(n)])
        rows.append(_vec(objective_matrix(mask, n)))
    A = RationalMatrix.from_rows(rows)
    return HardPair(n, VRep(n * n, points, []), HRep(n * n, A, [ONE] * (1 << n)))


def hardpair_slack(n, rho=1) -> SlackMatrix:
    """The shifted slack matrix (1 - a.b)^2 + rho - 1 in bitmask order, for
    an integer 1 <= n <= 10: the rho-shift matrix of unique disjointness
    with its default fill.

    Built from the closed form; agreement with the build_slack/shift_slack
    pipeline on the actual polyhedra is a checked property, not an input.
    """
    from .udisj import ShiftSpec, build_shift  # only this function needs udisj

    spec = ShiftSpec(ground_size(n, limit=10), rho)
    S = build_shift(spec)
    return SlackMatrix(S, RationalMatrix(S.rows, 0), [spec.rho] * S.rows)


def clique_weight(G: Graph) -> RationalMatrix:
    """The linear clique encoding: w_ii = 1 on V(G), w_ij = -1 on non-edges
    inside V(G), zero elsewhere.  For V(G) = [n] this is I - A(complement)."""
    n = G.n
    w = RationalMatrix(n, n)
    for i in range(1, n + 1):
        if i in G.vertices:
            w[i - 1, i - 1] = ONE
    for i, j in combinations(sorted(G.vertices), 2):
        if frozenset((i, j)) not in G.edges:
            w[i - 1, j - 1] = -ONE
            w[j - 1, i - 1] = -ONE
    return w


def clique_number(G: Graph):
    """Exact omega(G) by branch and bound over candidate extensions, for a
    graph of at most 20 vertices."""
    verts = sorted(G.vertices)
    ground_size(len(verts), least=0, limit=20)
    adj = {v: set() for v in verts}
    for e in G.edges:
        i, j = sorted(e)
        adj[i].add(j)
        adj[j].add(i)
    best = 0

    def extend(size, candidates):
        nonlocal best
        if size > best:
            best = size
        while candidates:
            if size + len(candidates) <= best:
                return
            v = candidates.pop()
            check_deadline()
            extend(size + 1, candidates & adj[v])

    extend(0, set(verts))
    return best


def max_over_cor(w: RationalMatrix):
    """max over b in {0,1}^n of <w, b b^T>, with the first maximizing b, for
    an n x n objective w with n <= 12.

    Exhaustive over the 2^n correlation vertices; ties break toward the
    smaller bitmask, so w = 0 reports b = 0.
    """
    if w.rows != w.cols:
        raise InputError(f"objective must be square, got {w.rows}x{w.cols}")
    n = ground_size(w.rows, least=0, limit=12)
    best = None
    arg = 0
    for mask in range(1 << n):
        check_deadline()
        idx = [i for i in range(n) if (mask >> i) & 1]
        val = sum((w[i, j] for i in idx for j in idx), ZERO)
        if best is None or val > best:
            best, arg = val, mask
    return best, tuple(_bits(arg, n))


@dataclass
class SeparationReport:
    """Outcome of separating x from the all-graphs relaxation: either inside,
    or the first violated constraint with both sides."""

    status: str                  # "inside" | "violated"
    kind: str | None = None      # "sign" | "graph"
    entry: tuple | None = None   # (i, j) for sign rows
    graph: Graph | None = None
    lhs: Fraction | None = None
    rhs: Fraction | None = None

    def __bool__(self):
        return self.status == "inside"

    def to_json(self):
        out = {"op": "qall_separate", "status": self.status}
        if self.status == "violated":
            out["kind"] = self.kind
            out["lhs"] = rat_str(self.lhs)
            out["rhs"] = rat_str(self.rhs)
            if self.kind == "sign":
                out["entry"] = list(self.entry)
            else:
                out["graph"] = self.graph.to_json()
        return out


def _graphs_on(n):
    """Every graph with V(G) inside [n]: all vertex subsets, all edge sets."""
    for vmask in range(1 << n):
        verts = [i + 1 for i in range(n) if (vmask >> i) & 1]
        pairs = list(combinations(verts, 2))
        for emask in range(1 << len(pairs)):
            yield Graph(n, verts, [pairs[k] for k in range(len(pairs))
                                   if (emask >> k) & 1])


def _sampled_graphs(n, seed, count):
    """`count` random graphs on [n]: each vertex kept with probability 0.6,
    then each edge among the kept vertices with probability 1/2."""
    rng = random.Random(seed)
    for _ in range(count):
        verts = [v for v in range(1, n + 1) if rng.random() < 0.6]
        pairs = list(combinations(verts, 2))
        yield Graph(n, verts, [p for p in pairs if rng.random() < 0.5])


def graph_row(G: Graph, x: RationalMatrix):
    """Both sides (<w^G, x>, omega(G)) of the all-graphs row of G at x."""
    w = clique_weight(G)
    lhs = sum((w[i, j] * x[i, j] for i in range(x.rows) for j in range(x.cols)), ZERO)
    return lhs, Fraction(clique_number(G))


def qall_separate(x: RationalMatrix, mode="exhaustive", seed=0,
                  count=200) -> SeparationReport:
    """Find a violated row of the all-graphs system

        x_ij >= 0 (i < j),   <w^G, x> <= omega(G) for every G on [n],

    or report "inside".  Exhaustive graph enumeration is 2^C(n,2) per vertex
    set and is fenced at n <= 4; sample mode draws graphs at random and is a
    heuristic (it can miss violations, never fabricate them).
    """
    if x.rows != x.cols:
        raise InputError(f"point must be a square matrix, got {x.rows}x{x.cols}")
    if mode not in ("exhaustive", "sample"):
        raise InputError(f"mode must be 'exhaustive' or 'sample', got {mode!r}")
    n = x.rows
    for i in range(n):
        for j in range(n):
            if i != j and x[i, j] < 0:
                return SeparationReport("violated", kind="sign",
                                        entry=(i + 1, j + 1), lhs=x[i, j], rhs=ZERO)
    if mode == "exhaustive":
        ground_size(n, least=0, limit=4)
    graphs = _graphs_on(n) if mode == "exhaustive" else _sampled_graphs(n, seed, count)
    for G in graphs:
        check_deadline()
        lhs, rhs = graph_row(G, x)
        if lhs > rhs:
            return SeparationReport("violated", kind="graph", graph=G, lhs=lhs, rhs=rhs)
    return SeparationReport("inside")


def box_ef(n) -> ExtendedFormulation:
    """Slack-form extension of the box [0,1]^(n x n) in R^(n^2):

        x - y = 0,  x + z = 1,  y, z >= 0

    which has size 2 n^2 regardless of the objective it will carry.  Any
    integer n >= 1, up to the limit 16: its matrices are dense 2n^2 x 2n^2."""
    d = ground_size(n, limit=16) ** 2
    I = RationalMatrix.identity(d)
    E = RationalMatrix.vstack([I, I])
    F = RationalMatrix.vstack([
        RationalMatrix.hstack([I * Fraction(-1), RationalMatrix.zeros(d, d)]),
        RationalMatrix.hstack([RationalMatrix.zeros(d, d), I])])
    g = [ZERO] * d + [ONE] * d
    return ExtendedFormulation(E, F, g)


@dataclass
class BoxReport:
    """Approximation quality of the box relaxation for one clique objective:
    box_max = sum of positive entries of w, cor_max = exact clique maximum."""

    n: int
    box_max: Fraction
    cor_max: Fraction
    cor_arg: tuple
    ok: bool

    def to_json(self):
        return {"op": "box_approx_report", "n": self.n,
                "box_max": rat_str(self.box_max), "cor_max": rat_str(self.cor_max),
                "cor_arg": list(self.cor_arg), "ok": self.ok}


def box_approx_report(w: RationalMatrix) -> BoxReport:
    """Check the n-approximation guarantee of the box for an admissible
    objective: box max <= n * correlation max when the diagonal is nonzero,
    and both maxima vanish otherwise."""
    n = w.rows
    box_max = sum((w[i, j] for i in range(n) for j in range(n) if w[i, j] > 0), ZERO)
    cor_max, arg = max_over_cor(w)
    if any(w[i, i] != 0 for i in range(n)):
        ok = box_max <= n * cor_max
    else:
        ok = box_max == cor_max == 0
    return BoxReport(n, box_max, cor_max, arg, ok)


def _edge_pairs(n):
    return list(combinations(range(1, n + 1), 2))


def cut_vector(X, n):
    """The characteristic vector of the cut delta(X) in edge order
    (1,2),(1,3),...,(n-1,n)."""
    xs = set(X)
    return [ONE if (i in xs) != (j in xs) else ZERO for i, j in _edge_pairs(n)]


def build_cut_family(kind, n) -> VRep:
    """cut_polytope: the 2^(n-1) cut vectors as points.
    cut_cone: the same vectors as rays (zero dropped) from apex 0.
    correlation_cone: rays vec(b b^T) over b in {0,1}^(n-1), zero dropped.
    n is an integer with 2 <= n <= 8.
    """
    ground_size(n, least=2, limit=8)
    if kind in ("cut_polytope", "cut_cone"):
        dim = n * (n - 1) // 2
        # X ranges over subsets avoiding node n: each cut counted once
        vecs = []
        for mask in range(1 << (n - 1)):
            check_deadline()
            vecs.append(cut_vector([i + 1 for i in range(n - 1)
                                    if (mask >> i) & 1], n))
        if kind == "cut_polytope":
            return VRep(dim, vecs, [])
        rays = [v for v in vecs if any(x != 0 for x in v)]
        return VRep(dim, [[ZERO] * dim], rays)
    if kind == "correlation_cone":
        m = n - 1
        dim = m * m
        rays = []
        for mask in range(1, 1 << m):
            check_deadline()
            bv = _bits(mask, m)
            rays.append([Fraction(bv[i] * bv[j]) for i in range(m)
                         for j in range(m)])
        return VRep(dim, [[ZERO] * dim], rays)
    raise InputError(f"kind must be cut_polytope, cut_cone or correlation_cone, "
                     f"got {kind!r}")


def covariance_map(x, n) -> RationalMatrix:
    """Map an edge vector of K_n (distinguished node n) to the (n-1)x(n-1)
    covariance matrix: y_ii = x_in, y_ij = (x_in + x_jn - x_ij)/2.

    Sends the cut vector of delta(X) with n not in X to b b^T, b = chi^X.
    A 0/1 input that yields a non-integral matrix is not a cut vector and is
    rejected.  Any integer n >= 2; nothing is enumerated.
    """
    pairs = _edge_pairs(ground_size(n, least=2))
    if len(x) != len(pairs):
        raise InputError(f"edge vector needs {len(pairs)} entries, got {len(x)}")
    xv = [rat(v) for v in x]
    idx = {p: k for k, p in enumerate(pairs)}
    y = RationalMatrix(n - 1, n - 1)
    for i in range(1, n):
        y[i - 1, i - 1] = xv[idx[(i, n)]]
        for j in range(i + 1, n):
            val = (xv[idx[(i, n)]] + xv[idx[(j, n)]] - xv[idx[(i, j)]]) / 2
            y[i - 1, j - 1] = val
            y[j - 1, i - 1] = val
    if all(v in (0, 1) for v in xv):
        if any(y[i, j].denominator != 1 for i in range(n - 1) for j in range(n - 1)):
            raise InputError("0/1 input is not a cut vector: covariance image "
                             "is non-integral")
    return y


@dataclass
class PsdFactorPair:
    """Rank-one PSD factor families T_a = (-1;a)(-1;a)^T and
    U^b = (1;b)(1;b)^T, indexed by bitmask, with <T_a, U^b> = (1 - a.b)^2."""

    n: int
    T: list
    U: list


def _outer(vec):
    m = len(vec)
    M = RationalMatrix(m, m)
    for i in range(m):
        for j in range(m):
            M[i, j] = Fraction(vec[i] * vec[j])
    return M


def psd_factors(n) -> PsdFactorPair:
    """Construct both families and verify the slack identity

        <T_a, U^b> = (1 - a.b)^2   for all 4^n pairs, 1 <= n <= 10,

    with an exact int64 kernel (entries are tiny integers), plus a sampled
    rational cross-check against the stored matrices.
    """
    ground_size(n, limit=10)
    import numpy as np

    size = 1 << n
    bits = np.array([[(m >> i) & 1 for i in range(n)] for m in range(size)],
                    dtype=np.int64)
    V = np.hstack([np.full((size, 1), -1, dtype=np.int64), bits])  # rows (-1; a)
    W = np.hstack([np.ones((size, 1), dtype=np.int64), bits])      # rows (1; b)
    # <v v^T, w w^T> = (v.w)^2; all magnitudes <= (n+1)^2, exact in int64
    inner = V @ W.T
    dots = bits @ bits.T
    require(np.array_equal(inner ** 2, (1 - dots) ** 2), "rank-one factor identity")
    T = [_outer([-1] + list(map(int, bits[m]))) for m in range(size)]
    U = [_outer([1] + list(map(int, bits[m]))) for m in range(size)]
    rng = np.random.default_rng(0)
    for _ in range(min(64, size * size)):
        a = int(rng.integers(size))
        b = int(rng.integers(size))
        frob = sum((T[a][i, j] * U[b][i, j]
                    for i in range(n + 1) for j in range(n + 1)), ZERO)
        require(frob == (1 - (a & b).bit_count()) ** 2, "sampled <T_a, U^b> = (1 - a.b)^2")
    return PsdFactorPair(n, T, U)


def spectra_vertex_witness(b, n, Y=None) -> bool:
    """True iff (x, Y) = (b b^T, U^b) satisfies, for every a in {0,1}^n,

        <2 diag(a) - a a^T, x> + <T_a, Y> = 1

    exactly, for an integer 1 <= n <= 10.  Any Y may be substituted to probe
    the equation."""
    ground_size(n, limit=10)
    bmask = _as_mask(b, n)
    if Y is None:
        Y = _outer([1] + _bits(bmask, n))
    if Y.rows != n + 1 or Y.cols != n + 1:
        raise InputError(f"Y must be {n + 1}x{n + 1}")
    for amask in range(1 << n):
        check_deadline()
        k = (amask & bmask).bit_count()
        # <2diag(a) - aa^T, bb^T> = 2k - k^2 for binary vectors
        obj = Fraction(2 * k - k * k)
        t = [-1] + _bits(amask, n)
        psd = sum((Fraction(t[i]) * sum((Y[i, j] * t[j] for j in range(n + 1)), ZERO)
                   for i in range(n + 1)), ZERO)
        if obj + psd != 1:
            return False
    return True


def objmat_infnorm_check(a) -> Fraction:
    """Max absolute entry of 2 diag(a) - a a^T for binary a; never above 1."""
    av = list(a)
    if any(x not in (0, 1) for x in av):
        raise InputError("a must be a 0/1 vector")
    n = len(av)
    M = objective_matrix(av, n)
    return max((abs(M[i, j]) for i in range(n) for j in range(n)), default=ZERO)
