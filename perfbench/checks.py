"""Output checks that do not trust the program.

Everything here is plain `fractions.Fraction` arithmetic on the JSON and CSV
files the CLI wrote; nothing imports efbound.  Each check takes the parsed
output plus the facts the benchmark knows about the input (its files, the
rho it asked for, closed forms from the paper) and raises CheckError on the
first disagreement.  `run.py` dispatches on the check kind named in a round's
manifest; `selftest.py` feeds the same functions tampered outputs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product


class CheckError(Exception):
    """An output disagrees with the independent computation."""


def need(cond, msg):
    if not cond:
        raise CheckError(msg)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# plain rational linear algebra

def vec(xs):
    return [Fraction(x) for x in xs]


def mat(d):
    """{"rows", "cols", "entries"} -> list of rows of Fractions."""
    r, c = d["rows"], d["cols"]
    e = vec(d["entries"])
    need(len(e) == r * c, f"matrix claims {r}x{c} but has {len(e)} entries")
    return [e[i * c:(i + 1) * c] for i in range(r)]


def slack_matrix(d):
    """A plain matrix, or a slack artifact (vertex block beside ray block)."""
    if "vertex_block" in d:
        vb, rb = mat(d["vertex_block"]), mat(d["ray_block"])
        return [v + r for v, r in zip(vb, rb)]
    return mat(d)


def dot(u, v):
    need(len(u) == len(v), f"length mismatch {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def col(M, j):
    return [row[j] for row in M]


def matmul(A, B):
    cols = [col(B, j) for j in range(len(B[0]))] if B else []
    return [[dot(row, c) for c in cols] for row in A]


def rank(M):
    """Rank by Gauss-Jordan elimination over Fractions."""
    rows = [row[:] for row in M]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for j in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][j] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][j]
        for i in range(len(rows)):
            if i != r and rows[i][j] != 0:
                f = rows[i][j] / p
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def nonneg(M):
    return all(x >= 0 for row in M for x in row)


# ---------------------------------------------------------------------------
# input files the checks read

def load_pair(p_path, q_path):
    """(points, A, b) of a V-rep file and an H-rep file."""
    P = load_json(p_path)
    Q = load_json(q_path)
    return [vec(p) for p in P["points"]], mat(Q["A"]), vec(Q["b"])


def load_ef(path):
    K = load_json(path)
    return mat(K["E"]), mat(K["F"]), vec(K["g"])


def pair_slack(points, A, b):
    """b_i - A_i v_j, straight from the definition."""
    return [[bi - dot(ai, v) for v in points] for ai, bi in zip(A, b)]


def hardpair_slack(points, A, n, mu):
    """(1 - a.b)^2 with a read off the diagonal of row 2diag(a) - a a^T and
    b off the diagonal of the point vec(b b^T), in coordinates scaled by
    1/mu (rows times mu, points divided by mu)."""
    avecs = [[row[i * n + i] / mu for i in range(n)] for row in A]
    bvecs = [[p[i * n + i] * mu for i in range(n)] for p in points]
    return [[(1 - dot(a, bb)) ** 2 for bb in bvecs] for a in avecs]


def check_hardpair_files(points, A, b, n):
    """The `hardpair` output is COR(n) and its quadratic outer description."""
    need(len(points) == len(A) == 1 << n, "hard pair needs 2^n points and rows")
    want_pts, want_rows = set(), set()
    for m in range(1 << n):
        bits = [(m >> i) & 1 for i in range(n)]
        want_pts.add(tuple(Fraction(bits[i] * bits[j])
                           for i in range(n) for j in range(n)))
        want_rows.add(tuple(Fraction(bits[i]) if i == j else Fraction(-bits[i] * bits[j])
                            for i in range(n) for j in range(n)))
    need({tuple(p) for p in points} == want_pts, "hard-pair points are not vec(b b^T)")
    need({tuple(a) for a in A} == want_rows, "hard-pair rows are not 2diag(a) - a a^T")
    need(all(x == 1 for x in b), "hard-pair right-hand sides are not 1")


def check_hardpair_slack_file(S, n, rho):
    size = 1 << n
    need(len(S) == size and all(len(r) == size for r in S), "slack shape")
    for a in range(size):
        for bb in range(size):
            k = (a & bb).bit_count()
            need(S[a][bb] == (1 - k) ** 2 + rho - 1, f"slack entry ({a},{bb})")


# ---------------------------------------------------------------------------
# sandwich workload

def check_witnesses(contains, points, E, F, g):
    """F w = g - E v with w >= 0, one witness per point, in order."""
    need(contains["ok"] is True, "containment not proved")
    wit = contains["witnesses"]
    need(len(wit) == len(points), f"{len(wit)} witnesses for {len(points)} points")
    for j, (entry, v) in enumerate(zip(wit, points)):
        need(entry["kind"] == "point" and entry["index"] == j, f"witness {j} mislabelled")
        w = vec(entry["w"])
        need(len(w) == len(F[0]) and all(x >= 0 for x in w), f"witness {j} not >= 0")
        for Fi, Ei, gi in zip(F, E, g):
            need(dot(Fi, w) == gi - dot(Ei, v), f"witness {j} fails F w = g - E v")


def check_derivations(inside, A, b, E, F, g, rho):
    """t E = A_i, t F >= 0, t.g <= rho b_i and c_i = rho b_i - t.g."""
    need(inside["ok"] is True and inside["empty"] is False, "inclusion not derived")
    ders = inside["derivations"]
    need(len(ders) == len(A), f"{len(ders)} derivations for {len(A)} rows")
    for i, (d, ai, bi) in enumerate(zip(ders, A, b)):
        need(d["row"] == i, f"derivation {i} mislabelled")
        t = vec(d["t"])
        need(len(t) == len(E), f"derivation {i} has the wrong length")
        need([dot(t, col(E, k)) for k in range(len(ai))] == ai, f"row {i}: t E != A_i")
        need(all(dot(t, col(F, k)) >= 0 for k in range(len(F[0]))), f"row {i}: t F < 0")
        tg = dot(t, g)
        need(tg <= rho * bi, f"row {i}: t.g > rho b_i")
        need(Fraction(d["c"]) == rho * bi - tg, f"row {i}: wrong offset c")


def check_sandwich(out, ctx, expect_ok):
    """A verify-sandwich report whose verdict the benchmark knows in advance."""
    points, A, b = load_pair(ctx["p"], ctx["q"])
    E, F, g = load_ef(ctx["ef"])
    rho = Fraction(ctx["rho"])
    need(out["op"] == "verify_sandwich", "not a sandwich report")
    need(Fraction(out["rho"]) == rho, "report is for another rho")
    need(out["ok"] is expect_ok, f"verdict {out['ok']}, expected {expect_ok}")
    check_witnesses(out["contains"], points, E, F, g)
    if expect_ok:
        check_derivations(out["inside"], A, b, E, F, g, rho)


def check_box_refuted(out, ctx):
    """Box EF at rho < n: the maximum of <2diag(a) - a a^T, x> over the box is
    |a|, so exactly the rows with |a| > rho fail; the reported point must be
    in the box, break its row, and match the certificate file.  Coordinates
    are scaled by 1/mu: rows are mu (2diag(a) - a a^T), the box is [0, 1/mu]."""
    check_sandwich(out, ctx, expect_ok=False)
    points, A, b = load_pair(ctx["p"], ctx["q"])
    rho, n, mu = Fraction(ctx["rho"]), ctx["n"], ctx["scale"]
    f = out["inside"]["failing"]
    i, x = f["row"], vec(f["point"])
    ai = A[i]
    weight = sum(ai[k * n + k] for k in range(n)) / mu
    need(weight > rho * b[i], f"row {i} has |a| = {weight}, which the box meets")
    need(all(0 <= xk <= Fraction(1, mu) for xk in x), "failing point is outside the box")
    need(dot(ai, x) > rho * b[i], "failing point does not break its row")
    need(Fraction(f["value"]) == dot(ai, x) and Fraction(f["bound"]) == rho * b[i],
         "failing value or bound misreported")
    cert = load_json(ctx["cert"])
    need(cert["kind"] == "row-violation", "certificate of the wrong kind")
    need(vec(cert["row"]) == ai and Fraction(cert["bound"]) == rho * b[i]
         and vec(cert["point"]) == x, "certificate disagrees with the report")
    need(cert["ef"] == load_json(ctx["ef"]), "certificate carries another EF")


def check_cert_accepted(out, ctx):
    need(out == {"op": "check_cert", "kind": ctx["kind"], "valid": True},
         "check-cert did not accept the certificate")


def check_ef2fac(out, ctx):
    """T, U >= 0, T U equal to the slack from the definition (closed form
    (1 - a.b)^2 on the hard pair) and rank at most size + 1."""
    points, A, b = load_pair(ctx["p"], ctx["q"])
    E, F, g = load_ef(ctx["ef"])
    T, U = mat(out["T"]), mat(out["U"])
    need(nonneg(T) and nonneg(U), "factor with a negative entry")
    need(len(T[0]) == len(U) <= len(F[0]) + 1, "rank exceeds size + 1")
    S = hardpair_slack(points, A, ctx["n"], ctx["scale"]) if ctx.get("n") \
        else pair_slack(points, A, b)
    need(matmul(T, U) == S, "T U differs from the slack matrix")


def check_fac2ef(out, ctx):
    """fac2ef writes A x + T y = b."""
    _, A, b = load_pair(ctx["p"], ctx["q"])
    T = mat(load_json(ctx["fac"])["T"])
    need(mat(out["E"]) == A and mat(out["F"]) == T and vec(out["g"]) == b,
         "EF is not A x + T y = b")


# ---------------------------------------------------------------------------
# rank-bounds workload

def check_nnegrk(out, ctx):
    """lower <= upper <= min(rows, cols); lower >= the linear rank, which must
    equal the closed form; witnesses multiply back exactly."""
    S = slack_matrix(load_json(ctx["matrix"]))
    m, n = len(S), len(S[0])
    lo, up = out["lower"], out["upper"]
    need(out["op"] == "nnegrk_bounds", "not a rank-bounds report")
    need(isinstance(lo, int) and isinstance(up, int), "bounds are not integers")
    need(lo <= up <= min(m, n), f"bounds {lo} <= {up} <= {min(m, n)} fail")
    r = rank(S)
    need(r == ctx["rank"], f"matrix has rank {r}, expected {ctx['rank']}")
    need(lo >= r, f"lower bound {lo} below the rank {r}")
    if "max_lower" in ctx:
        need(lo <= ctx["max_lower"], f"lower bound {lo} above the known {ctx['max_lower']}")
    wit = out.get("upper_witness")
    if wit is None:
        need(up == min(m, n), "an upper bound below min(rows, cols) needs a witness")
    else:
        T, U = mat(wit["T"]), mat(wit["U"])
        need(len(T[0]) == up, "witness rank differs from the upper bound")
        need(nonneg(T) and nonneg(U) and matmul(T, U) == S, "witness does not factor S")


# ---------------------------------------------------------------------------
# udisj workload

def classes(n):
    """(A, B): ordered pairs of l-subsets, disjoint / sharing one element."""
    ell = (n + 1) // 4
    subs = [m for m in range(1 << n) if m.bit_count() == ell]
    A = [(a, b) for a in subs for b in subs if a & b == 0]
    B = [(a, b) for a in subs for b in subs if (a & b).bit_count() == 1]
    return A, B


def rect_probs(rows, cols, A, B):
    ca = sum(1 for a, b in A if (rows >> a) & 1 and (cols >> b) & 1)
    cb = sum(1 for a, b in B if (rows >> a) & 1 and (cols >> b) & 1)
    return Fraction(ca, len(A)), Fraction(cb, len(B))


def singleton_scan(eps):
    """Best value and best P(R|A) with P(R|B) = 0 at n = 3.  With l = 1 only
    the three singletons enter A and B, so the 2^3 x 2^3 choices of which
    singletons a rectangle keeps cover every value of the 65 536."""
    A, B = classes(3)
    best = zero = None
    for rbits, cbits in product(range(8), repeat=2):
        rows = sum(1 << (1 << k) for k in range(3) if (rbits >> k) & 1)
        cols = sum(1 << (1 << k) for k in range(3) if (cbits >> k) & 1)
        pa, pb = rect_probs(rows, cols, A, B)
        val = (1 - eps) * pa - pb
        best = val if best is None else max(best, val)
        if pb == 0:
            zero = pa if zero is None else max(zero, pa)
    return best, zero


def _rect(d):
    return int(d["rows"], 16), int(d["cols"], 16)


def check_exhaustive_scan(out, ctx):
    eps = Fraction(ctx["eps"])
    A, B = classes(3)
    best, zero = singleton_scan(eps)
    need(out["mode"] == "exhaustive" and Fraction(out["epsilon"]) == eps, "scan header")
    need(out["scanned"] == 65536, f"scanned {out['scanned']} rectangles, not 65536")
    need(Fraction(out["best_value"]) == best, f"best_value {out['best_value']} != {best}")
    need(Fraction(out["zero_b_max"]) == zero, f"zero_b_max {out['zero_b_max']} != {zero}")
    pa, pb = rect_probs(*_rect(out["best_rect"]), A, B)
    need((1 - eps) * pa - pb == best, "best_rect does not reach best_value")
    pa, pb = rect_probs(*_rect(out["zero_b_rect"]), A, B)
    need(pb == 0 and pa == zero, "zero_b_rect does not reach zero_b_max")


def check_scan_csv(lines, ctx):
    """All 65 536 records: value = (1 - eps) p_a - p_b on every line, the
    maxima equal the singleton recomputation, and every 256th record's
    probabilities equal a direct count."""
    eps = Fraction(ctx["eps"])
    A, B = classes(3)
    best, zero = singleton_scan(eps)
    it = iter(lines)
    need(next(it, None) == "rectangle-id,p_a,p_b,value", "CSV header")
    seen, top, top_zero = 0, None, None
    for k, line in enumerate(it):
        rid, pa_s, pb_s, val_s = line.split(",")
        pa, pb, val = Fraction(pa_s), Fraction(pb_s), Fraction(val_s)
        need(val == (1 - eps) * pa - pb, f"record {k}: value is not (1-eps) p_a - p_b")
        if k % 256 == 0:
            r, c = rid.split(".")
            need((pa, pb) == rect_probs(int(r[1:], 16), int(c[1:], 16), A, B),
                 f"record {k}: probabilities differ from a direct count")
        top = val if top is None else max(top, val)
        if pb == 0:
            top_zero = pa if top_zero is None else max(top_zero, pa)
        seen += 1
    need(seen == 65536, f"{seen} records, not 65536")
    need(top == best and top_zero == zero, "CSV maxima differ from the recomputation")


def check_sample_scan(out, ctx):
    eps, n = Fraction(ctx["eps"]), ctx["n"]
    A, B = classes(n)
    need(out["mode"] == "sample" and Fraction(out["epsilon"]) == eps, "scan header")
    need(out["scanned"] == ctx["count"], "wrong number of sampled rectangles")
    pa, pb = rect_probs(*_rect(out["best_rect"]), A, B)
    need(Fraction(out["best_value"]) == (1 - eps) * pa - pb,
         "best_value differs from a direct count on best_rect")


def spec_function(spec, n):
    """The CLI's named functions: contains:K, avoids:K (K is 1-based)."""
    kind, k = spec.split(":")
    bit = 1 << (int(k) - 1)
    if kind == "contains":
        return lambda m: 1 if m & bit else 0
    return lambda m: 0 if m & bit else 1


def check_razborov(out, ctx):
    """ok, and both sides of each identity equal E[X|A], E[X|B] from a direct
    enumeration of the pairs."""
    n = ctx["n"]
    f, g = spec_function(ctx["f"], n), spec_function(ctx["g"], n)
    A, B = classes(n)
    ea = Fraction(sum(f(a) * g(b) for a, b in A), len(A))
    eb = Fraction(sum(f(a) * g(b) for a, b in B), len(B))
    need(out["ok"] is True and out["n"] == n and out["trials"] == 1, "razborov header")
    (chk,) = out["checks"]
    need(chk["ok"] is True, "identity reported broken")
    need(vec(chk["expectation_a"]) == [ea, ea], f"E[X|A] sides differ from {ea}")
    need(vec(chk["expectation_b"]) == [eb, eb], f"E[X|B] sides differ from {eb}")


def check_shift(out, ctx):
    """rho on disjoint pairs, rho - 1 on one shared element, (1-k)^2 + rho - 1
    otherwise."""
    n, rho = ctx["n"], Fraction(ctx["rho"])
    size = 1 << n
    need(out["rows"] == out["cols"] == size, "shift matrix shape")
    want = {k: str(Fraction((1 - k) ** 2) + rho - 1) for k in range(2, n + 1)}
    want[0], want[1] = str(rho), str(rho - 1)
    e = out["entries"]
    need(len(e) == size * size, "shift matrix entry count")
    for a in range(size):
        base = a * size
        for b in range(size):
            need(e[base + b] == want[(a & b).bit_count()], f"shift entry ({a},{b})")


CHECKS = {
    "sandwich-ok": lambda out, ctx: check_sandwich(out, ctx, expect_ok=True),
    "box-refuted": check_box_refuted,
    "cert-accepted": check_cert_accepted,
    "ef2fac": check_ef2fac,
    "fac2ef": check_fac2ef,
    "nnegrk": check_nnegrk,
    "scan-exhaustive": check_exhaustive_scan,
    "scan-csv": check_scan_csv,
    "scan-sample": check_sample_scan,
    "razborov": check_razborov,
    "shift": check_shift,
}


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield line.rstrip("\n")


def load_output(kind, path):
    """Parsed output for a check kind; the CSV as an iterator over its lines,
    so that a check holds one record at a time."""
    if kind == "scan-csv":
        return _lines(path)
    return load_json(path)
