"""The three workloads: their input files and the operations of one round.

A round is one pass over a workload's operations.  `build_round` writes the
files round r reads into <base>/r<r> and a manifest, round.json, listing each
operation as the argv a shell user would type, the exit code it should give
and the check its output must pass (a kind in checks.CHECKS plus what that
check needs to know).  Everything is drawn from random.Random seeded with
the workload, the benchmark seed and the round, so a seed fixes the inputs.

No operation repeats its inputs within a run, and no LP that the program
solves repeats either, so a result cache cannot pass for a speed-up.  Each
sandwich instance gets its own pair of scalings from per-run permutations:
the coordinates x become x/mu and the EF's equations are multiplied by lam
(E and g only; the extension variables absorb the factor).  The sets,
verdicts and slack matrices stay the same, and every LP changes, but only by
a positive scaling of its columns, objective or right-hand side, which
leaves Bland's pivot sequence and so the work as it was.  A polygon in
rank-bounds has its facets rotated against its vertices by an offset
distinct in each of the first k rounds: that changes the slack support, and
the rectangle-cover search over these circulant supports visits the same
number of nodes within 0.3% on the 9-gon, which takes most of the time
(within 4% on the 8-gon; the 6- and 7-gon searches take under 0.1 s).  The
hard-pair slacks at rho > 1 are positive, so their support is full whatever
the order of rows and columns, and the rectangle cover sees the same
all-nonzero pattern every time (0.4 s of the n=4 operation); only their
entries differ between rounds.  NMF and sampling seeds, epsilon, rho and
function pairs are drawn afresh.

`prepare` is the set-up: the canonical files (`hardpair`, `hardpair-slack`,
`box-ef` through the CLI, trivial EFs written here) and round 0.  It runs in
a fresh interpreter for the setup_s samples; later rounds are built by the
measuring process between timed rounds.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

WORKLOADS = ("sandwich", "rank-bounds", "udisj")


def _rng(*parts):
    return random.Random("/".join(str(p) for p in parts))


def _distinct(stream, seed, i, size):
    """The i-th value of a per-run permutation of range(size): distinct for
    the first `size` values of i (rounds, or instances of a run)."""
    perm = list(range(size))
    _rng(stream, seed, "perm", size).shuffle(perm)
    return perm[i % size]


def _write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _matrix(rows):
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0,
            "entries": [str(x) for row in rows for x in row]}


def slack_name(n, rho):
    return f"hs{n}_{rho.replace('/', '_')}.json"


def _rows(d):
    c = d["cols"]
    e = d["entries"]
    return [e[i * c:(i + 1) * c] for i in range(d["rows"])]


def _trivial_ef(q):
    """A x + I y = b, y >= 0: one slack variable per inequality."""
    m = len(q["b"])
    eye = [["1" if i == j else "0" for j in range(m)] for i in range(m)]
    return {"E": q["A"], "F": _matrix(eye), "g": q["b"]}


def _scaled(p, q, k, lam, mu):
    """The same sandwich in coordinates x/mu, with the EF's equations times
    lam: P/mu, mu A x <= b and lam mu E x + F w = lam g (w absorbs lam)."""
    def times(xs, c):
        return [str(Fraction(x) * c) for x in xs]

    p = {"dim": p["dim"], "points": [times(v, Fraction(1, mu)) for v in p["points"]],
         "rays": [times(v, Fraction(1, mu)) for v in p.get("rays", [])]}
    q = {"dim": q["dim"], "A": dict(q["A"], entries=times(q["A"]["entries"], mu)), "b": q["b"]}
    k = {"E": dict(k["E"], entries=times(k["E"]["entries"], lam * mu)), "F": k["F"],
         "g": times(k["g"], lam)}
    return p, q, k


def polygon_hrep(pts):
    """Facet i runs from vertex i to vertex i+1: outward normal, reduced."""
    A, b = [], []
    for i, (x1, y1) in enumerate(pts):
        x2, y2 = pts[(i + 1) % len(pts)]
        nx, ny = y2 - y1, x1 - x2
        g = math.gcd(nx, ny)
        A.append((nx // g, ny // g))
        b.append((nx * x1 + ny * y1) // g)
    return A, b


def _vrep(pts):
    return {"dim": 2, "points": [[str(x), str(y)] for x, y in pts], "rays": []}


def _hrep(A, b):
    return {"dim": 2, "A": _matrix(A), "b": [str(x) for x in b]}


# (n, rho) of the rank-bounds hard-pair slacks; the n=3 ones cost alike, and
# the median operation of a round falls among them
HARDPAIR_SLACKS = ((3, "1"), (3, "3/2"), (3, "2"), (3, "3"), (3, "4"), (4, "2"))
# rank-bounds polygons, vertices counterclockwise
RANK_POLYGONS = (
    ((32, 17), (4, 36), (-24, 27), (-35, -8), (-17, -32), (23, -28)),
    ((38, 18), (14, 40), (-26, 33), (-40, 12), (-19, -38), (20, -37), (33, -26)),
    ((44, 19), (25, 41), (-7, 47), (-42, 23), (-48, -7), (-21, -43), (17, -45), (42, -24)),
    ((49, 22), (39, 37), (-9, 53), (-30, 45), (-53, 8), (-51, -19), (-24, -49), (28, -46),
     (45, -29)),
)
# the same pivots at every rho, so these operations cost the same and the
# median operation of a round falls among them
SANDWICH_RHOS = ("1", "9/8", "5/4", "3/2", "2", "3", "4")
# sandwich scalings lam and mu are drawn from SCALE_LOW + range(SCALE_SPAN)
# (all of one bit length, so of one cost); a round uses at most SLOTS pairs,
# which keeps them distinct for SCALE_SPAN // SLOTS rounds
SCALE_LOW, SCALE_SPAN, SLOTS = 512, 512, 16
# (n, count) of the sampled corruption scans
SAMPLED_SCANS = ((7, 1000), (11, 150))

# sandwich polygons: a hexagon with its own facets, and a quadrilateral
# strictly inside another hexagon
OWN_POLYGON = ((5, 1), (-1, 5), (-5, 2), (-5, -1), (-1, -5), (4, -3))
NESTED_INNER = ((1, 2), (-1, 2), (-2, -1), (1, -1))
NESTED_OUTER = ((5, 5), (1, 7), (-5, 5), (-6, -4), (0, -7), (5, -5))


# ---------------------------------------------------------------------------

def prepare(main, workload, base, seed):
    """Set-up: canonical inputs plus round 0."""
    canon = os.path.join(base, "canon")
    os.makedirs(canon, exist_ok=True)

    def c(name):
        return os.path.join(canon, name)

    def run(*argv):
        rc = main(list(argv))
        if rc != 0:
            raise RuntimeError(f"set-up step {' '.join(argv)} exited {rc}")

    if workload == "sandwich":
        for n in (3, 4):
            run("hardpair", "--n", str(n), "--out-p", c(f"p{n}.json"), "--out-q", c(f"q{n}.json"))
            _write(c(f"k{n}.json"), _trivial_ef(_read(c(f"q{n}.json"))))
        run("box-ef", "--n", "3", "--out", c("box3.json"))
    elif workload == "rank-bounds":
        for n, rho in HARDPAIR_SLACKS:
            run("hardpair-slack", "--n", str(n), "--rho", rho, "--out", c(slack_name(n, rho)))
    return build_round(main, workload, base, seed, 0)




def build_round(main, workload, base, seed, r):
    """Write round r's inputs and return its manifest (also saved as
    round.json)."""
    rd = os.path.join(base, f"r{r}")
    os.makedirs(rd, exist_ok=True)
    canon = os.path.join(base, "canon")
    rng = _rng(workload, seed, r)
    ops = {"sandwich": _sandwich, "rank-bounds": _rank_bounds,
           "udisj": _udisj}[workload](main, rng, canon, rd, workload, seed, r)
    manifest = {"workload": workload, "seed": seed, "round": r, "ops": ops}
    _write(os.path.join(rd, "round.json"), manifest)
    return manifest


def _interleave(same, blocks):
    """same[0], blocks[0], same[1], blocks[1], ...: the operations of equal
    cost, among which the median operation falls, spread over the round, so
    that op_p50_s samples the whole round rather than one stretch of it.
    A block keeps operations that read each other's outputs together."""
    ops = []
    for i, op in enumerate(same):
        ops.append(op)
        if i < len(blocks):
            ops.extend(blocks[i])
    for block in blocks[len(same):]:
        ops.extend(block)
    return ops


def _op(name, argv, check, ctx, rc=0, outputs=()):
    return {"name": name, "argv": argv, "rc": rc, "check": check, "ctx": ctx,
            "outputs": list(outputs)}


def _sandwich(main, rng, canon, rd, workload, seed, r):
    def f(name):
        return os.path.join(rd, name)

    slots = iter(range(r * SLOTS, (r + 1) * SLOTS))

    def instance(tag, p, q, k):
        """Write a copy of (P, Q, K) under the round's next scaling pair;
        returns its paths and mu, the context of its checks."""
        idx = next(slots)
        lam = SCALE_LOW + _distinct(f"{workload}-lam", seed, idx, SCALE_SPAN)
        mu = SCALE_LOW + _distinct(f"{workload}-mu", seed, idx, SCALE_SPAN)
        ctx = {x: f(f"{tag}_{x}.json") for x in ("p", "q", "ef")}
        for x, data in zip(("p", "q", "ef"), _scaled(p, q, k, lam, mu)):
            _write(ctx[x], data)
        return dict(ctx, scale=mu)

    def verify(name, ctx, rho, check="sandwich-ok", rc=0, cert=None):
        out = ctx["ef"][:-len(".json")] + "_vs.json"
        argv = ["verify-sandwich", "--p", ctx["p"], "--q", ctx["q"], "--rho", rho,
                "--ef", ctx["ef"], "--out", out]
        ctx = dict(ctx, rho=rho)
        if cert:
            argv += ["--cert", cert]
            ctx["cert"] = cert
        return _op(name, argv, check, ctx, rc=rc, outputs=[out] + ([cert] if cert else []))

    def round_trip(tag, p, q, k, n=None):
        c = instance(tag, p, q, k)
        fac, ef = f(f"{tag}_fac.json"), f(f"{tag}_rt.json")
        ops = [_op(f"ef2fac {tag}", ["ef2fac", "--ef", c["ef"], "--p", c["p"], "--q", c["q"],
                                     "--out", fac], "ef2fac", dict(c, n=n), outputs=[fac]),
               _op(f"fac2ef {tag}", ["fac2ef", "--q", c["q"], "--fac", fac, "--out", ef],
                   "fac2ef", dict(c, fac=fac), outputs=[ef])]
        # Q with its rows doubled, the same set: the LP over Q's rows alone
        # then differs from the one ef2fac solved
        q2 = _read(c["q"])
        q2 = dict(q2, A=dict(q2["A"], entries=[str(2 * Fraction(x)) for x in q2["A"]["entries"]]),
                  b=[str(2 * Fraction(x)) for x in q2["b"]])
        _write(f(f"{tag}_q2.json"), q2)
        return ops + [verify(f"verify-sandwich {tag} round-trip EF",
                             {"p": c["p"], "q": f(f"{tag}_q2.json"), "ef": ef}, "1")]

    p3, q3, k3 = (_read(os.path.join(canon, f"{x}3.json")) for x in "pqk")
    same = [verify(f"verify-sandwich hardpair n=3 trivial rho={rho}",
                   instance(f"hp3_{i}", p3, q3, k3), rho) for i, rho in enumerate(SANDWICH_RHOS)]
    blocks = []
    polygons = {"own": (OWN_POLYGON, OWN_POLYGON), "nested": (NESTED_INNER, NESTED_OUTER)}
    for tag, (inner, outer) in polygons.items():
        q = _hrep(*polygon_hrep(outer))
        blocks.append([verify(f"verify-sandwich {tag} polygon trivial",
                              instance(f"{tag}_triv", _vrep(inner), q, _trivial_ef(q)), "1")]
                      + round_trip(tag, _vrep(inner), q, _trivial_ef(q)))
    blocks.append(round_trip("hp3", p3, q3, k3, n=3))

    p4, q4, k4 = (_read(os.path.join(canon, f"{x}4.json")) for x in "pqk")
    blocks.append([verify("verify-sandwich hardpair n=4 trivial rho=1",
                          instance("hp4", p4, q4, k4), "1")])

    # box EF: rows stay in canonical order, so the refutation stops at the
    # same row every time (a = 111, the only one with |a| > 2)
    box = _read(os.path.join(canon, "box3.json"))
    blocks.append([verify("verify-sandwich box n=3 rho=3",
                          dict(instance("box_hold", p3, q3, box), n=3), "3")])
    cert, out = f("box_fail.cert.json"), f("check_cert.json")
    blocks.append([verify("verify-sandwich box n=3 rho=2 (refuted)",
                          dict(instance("box_fail", p3, q3, box), n=3), "2",
                          check="box-refuted", rc=1, cert=cert),
                   _op("check-cert row-violation", ["check-cert", "--cert", cert, "--out", out],
                       "cert-accepted", {"kind": "row-violation"}, outputs=[out])])
    return _interleave(same, blocks)


def _rank_bounds(main, rng, canon, rd, workload, seed, r):
    def f(name):
        return os.path.join(rd, name)

    blocks = []
    for poly in RANK_POLYGONS:
        # facets rotated by o against the vertices: the support is the
        # circulant with zeros at j - i = -o, 1 - o (mod k), one per o, so
        # the first k rounds of a run each see another one
        k = len(poly)
        o = _distinct(f"{workload}-g{k}", seed, r, k)
        A, b = polygon_hrep(poly)
        _write(f(f"g{k}_p.json"), _vrep(poly))
        _write(f(f"g{k}_q.json"), _hrep(A[o:] + A[:o], b[o:] + b[:o]))
        rc = main(["slack", "--p", f(f"g{k}_p.json"), "--q", f(f"g{k}_q.json"),
                   "--out", f(f"g{k}.json")])
        if rc != 0:
            raise RuntimeError(f"slack of the {k}-gon exited {rc}")
        ctx = {"matrix": f(f"g{k}.json"), "rank": 3}
        if k == 6:
            ctx["max_lower"] = 5
        blocks.append([_nnegrk(f"nnegrk-bounds {k}-gon", f(f"g{k}.json"), ctx, rng,
                               f(f"nb_g{k}.json"))])
    same = []
    for n, rho in HARDPAIR_SLACKS:
        s = _read(os.path.join(canon, slack_name(n, rho)))
        rows = _rows(s["vertex_block"])
        ro, co = list(range(len(rows))), list(range(len(rows[0])))
        rng.shuffle(ro)
        rng.shuffle(co)
        s = {"vertex_block": _matrix([[rows[i][j] for j in co] for i in ro]),
             "ray_block": s["ray_block"], "source_b": [s["source_b"][i] for i in ro]}
        path = f(slack_name(n, rho))
        _write(path, s)
        op = _nnegrk(f"nnegrk-bounds hardpair-slack n={n} rho={rho}", path,
                     {"matrix": path, "rank": 1 + n + n * (n - 1) // 2}, rng,
                     f("nb_" + slack_name(n, rho)))
        if n == 3:
            same.append(op)
        else:
            blocks.append([op])
    return _interleave(same, blocks)


def _nnegrk(name, matrix, ctx, rng, out):
    return _op(name, ["nnegrk-bounds", "--matrix", matrix, "--seed", str(rng.randrange(10 ** 6)),
                      "--out", out], "nnegrk", ctx, outputs=[out])


def _udisj(main, rng, canon, rd, workload, seed, r):
    def f(name):
        return os.path.join(rd, name)

    same, ops = [], []
    shift = Fraction(_distinct(workload, seed, r, 64), 1024)
    for k in range(4):
        eps = str(Fraction(k, 4) + shift)
        if k == 2:
            out = f("scan3_csv.csv")
            argv = ["corruption-scan", "--n", "3", "--eps", eps, "--format", "csv", "--out", out]
            same.append(_op(f"corruption-scan n=3 eps={eps} csv", argv, "scan-csv",
                            {"eps": eps}, outputs=[out]))
        else:
            out = f(f"scan3_{k}.json")
            argv = ["corruption-scan", "--n", "3", "--eps", eps, "--out", out]
            same.append(_op(f"corruption-scan n=3 eps={eps}", argv, "scan-exhaustive",
                            {"eps": eps}, outputs=[out]))
    for n, count in SAMPLED_SCANS:
        eps = str(Fraction(rng.randrange(1, 64), 64))
        out = f(f"sample{n}.json")
        ops.append(_op(f"corruption-scan n={n} sampled",
                       ["corruption-scan", "--n", str(n), "--eps", eps, "--mode", "sample",
                        "--count", str(count), "--seed", str(rng.randrange(10 ** 6)),
                        "--out", out],
                       "scan-sample", {"n": n, "eps": eps, "count": count}, outputs=[out]))
    for n in (7, 11):
        # one (f, g) pair of named functions per round, distinct across rounds
        pairs = [(fk, fi, gk, gi) for fk in ("contains", "avoids") for fi in range(1, n + 1)
                 for gk in ("contains", "avoids") for gi in range(1, n + 1)]
        fk, fi, gk, gi = pairs[_distinct(f"{workload}-razborov{n}", seed, r, len(pairs))]
        fs, gs = f"{fk}:{fi}", f"{gk}:{gi}"
        out = f(f"razborov{n}.json")
        ops.append(_op(f"razborov-check n={n}",
                       ["razborov-check", "--n", str(n), "--f", fs, "--g", gs, "--out", out],
                       "razborov", {"n": n, "f": fs, "g": gs}, outputs=[out]))
    rho = str(2 + Fraction(1 + _distinct(workload, seed, r, 96), 97))
    out = f("shift8.json")
    ops.append(_op("udisj-shift n=8", ["udisj-shift", "--n", "8", "--rho", rho, "--out", out],
                   "shift", {"n": 8, "rho": rho}, outputs=[out]))
    return _interleave(same, [[op] for op in ops])


