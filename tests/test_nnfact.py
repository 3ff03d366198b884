import argparse
import functools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations, product
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from efbound import (
    BudgetError,
    ExtendedFormulation,
    HRep,
    InputError,
    RationalMatrix,
    VerificationError,
    VRep,
    box_ef,
    build_slack,
    dilate,
    ef_inside_hrep,
    hardpair_slack,
    shift_slack,
    trivial_ef,
    verify_sandwich,
)
from efbound import cli, nnfact, polyhedra
from efbound.errors import set_budget_ms
from efbound.nnfact import (
    FactorizationCheck,
    NonnegFactorization,
    PreconditionError,
    _fooling_at_least,
    ef_to_factorization,
    factorization_to_ef,
    nnegrk_bounds,
    rect_cover_lb,
    verify_factorization,
)
from efbound.ratlin import ZERO, mat_rank


def segment():
    P = VRep(1, [[0], [1]])
    Q = HRep(1, [[-1], [1]], [0, 1])
    return P, Q


def hard_pair(n):
    """Correlation polytope of {0,1}^n against the rows <2 diag(a) - a a^t, x> <= 1.

    Kept deliberately independent of the encodings module: this is the
    definition written out directly.
    """
    subs = list(product((0, 1), repeat=n))
    pts = [[F(b[i] * b[j]) for i in range(n) for j in range(n)] for b in subs]
    rows = [[F((2 * a[i] if i == j else 0) - a[i] * a[j])
             for i in range(n) for j in range(n)] for a in subs]
    return VRep(n * n, pts), HRep(n * n, rows, [F(1)] * len(subs))


def exhaustive_cover(rows):
    """Fewest all-support rectangles covering the support.

    Every row-set x column-set rectangle inside the support that no further
    row or column extends is a candidate: any cover can be widened to such
    rectangles.  Some member of any cover holds the first cell still
    uncovered, so trying each candidate holding it in turn misses no cover.
    """
    m, n = len(rows), len(rows[0])
    rowsupp = [sum(1 << j for j in range(n) if rows[i][j] != 0) for i in range(m)]

    def inside(rs, cs):
        return all(rowsupp[i] & cs == cs for i in range(m) if rs >> i & 1)

    rects = set()
    for rs in range(1, 1 << m):
        for cs in range(1, 1 << n):
            if (inside(rs, cs)
                    and not any(inside(rs | 1 << i, cs) for i in range(m) if not rs >> i & 1)
                    and not any(inside(rs, cs | 1 << j) for j in range(n) if not cs >> j & 1)):
                rects.add(sum(1 << (i * n + j) for i in range(m) if rs >> i & 1
                              for j in range(n) if cs >> j & 1))

    @functools.cache
    def fewest(left):
        if not left:
            return 0
        first = left & -left
        return 1 + min(fewest(left & ~rect) for rect in rects if rect & first)
    return fewest(sum(1 << (i * n + j) for i in range(m) for j in range(n) if rows[i][j] != 0))


# vertices (counterclockwise) of the polygons of the rank-bounds benchmark
POLYGONS = (
    ((32, 17), (4, 36), (-24, 27), (-35, -8), (-17, -32), (23, -28)),
    ((38, 18), (14, 40), (-26, 33), (-40, 12), (-19, -38), (20, -37), (33, -26)),
    ((44, 19), (25, 41), (-7, 47), (-42, 23), (-48, -7), (-21, -43), (17, -45), (42, -24)),
    ((49, 22), (39, 37), (-9, 53), (-30, 45), (-53, 8), (-51, -19), (-24, -49), (28, -46),
     (45, -29)),
)


def polygon_slack(vertices, offset):
    """Slack of a polygon against its own facets, listed from facet offset on;
    facet i runs from vertex i to vertex i+1."""
    facets = []
    for i, (x1, y1) in enumerate(vertices):
        x2, y2 = vertices[(i + 1) % len(vertices)]
        facets.append(([y2 - y1, x1 - x2], (y2 - y1) * x1 + (x1 - x2) * y1))
    facets = facets[offset:] + facets[:offset]
    return build_slack(VRep(2, [list(v) for v in vertices]),
                       HRep(2, [a for a, _ in facets], [b for _, b in facets])).full()


supports = st.integers(1, 5).flatmap(lambda m: st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                       min_size=m, max_size=m)))


@st.composite
def planted_factorizations(draw):
    """(S, T, U) with S = T U, then up to four entries of S, T or U moved."""
    m, r, n = (draw(st.integers(1, 4)) for _ in range(3))
    entry = st.builds(F, st.integers(0, 4), st.integers(1, 3))
    T = [[draw(entry) for _ in range(r)] for _ in range(m)]
    U = [[draw(entry) for _ in range(n)] for _ in range(r)]
    S = [[sum((T[i][k] * U[k][j] for k in range(r)), F(0)) for j in range(n)]
         for i in range(m)]
    for _ in range(draw(st.integers(0, 4))):
        M = draw(st.sampled_from([S, S, S, T, U]))
        i, j = draw(st.integers(0, len(M) - 1)), draw(st.integers(0, len(M[0]) - 1))
        M[i][j] += draw(st.sampled_from([F(-5), F(-1, 2), F(1, 3), F(1)]))
    return S, T, U


def full_product_check(S, T, U):
    """(ok, reason, where) of a check that forms the whole product T @ U first."""
    for name, M in (("T", T), ("U", U)):
        for i, row in enumerate(M):
            for j, x in enumerate(row):
                if x < 0:
                    return False, f"negative entry {x} in {name}", (name, i, j)
    P = (RationalMatrix.from_rows(T) @ RationalMatrix.from_rows(U)).tolist()
    for i, row in enumerate(P):
        for j, x in enumerate(row):
            if x != S[i][j]:
                return (False, f"product entry ({i},{j}) is {x}, expected {S[i][j]}",
                        ("product", i, j))
    return True, "", None


def reference_extreme_columns(S):
    """The extreme-column rule with every cone test over all rows of S:
    column j is dropped when it lies in the cone of the columns kept before
    it and all after it."""
    cols = [S.col(j) for j in range(S.cols)]
    kept = []
    for j, col in enumerate(cols):
        others = [cols[k] for k in kept] + cols[j + 1:]
        F = RationalMatrix(S.rows, len(others), [v[i] for i in range(S.rows) for v in others])
        status, _ = next(polyhedra.nonneg_solutions(F, [col]))
        if status != "ok":
            kept.append(j)
    return kept


def identity_fac(S):
    return NonnegFactorization(RationalMatrix.identity(S.rows), S)


class TestVerifyFactorization:
    def test_identity(self):
        I2 = RationalMatrix.identity(2)
        assert verify_factorization(I2, NonnegFactorization(I2, I2))

    def test_all_ones_rank_one(self):
        S = RationalMatrix.from_rows([[1, 1], [1, 1]])
        fac = NonnegFactorization(RationalMatrix.from_rows([[1], [1]]),
                                  RationalMatrix.from_rows([[1, 1]]))
        chk = verify_factorization(S, fac)
        assert chk
        assert fac.rank == 1

    def test_negative_entry_located(self):
        S = RationalMatrix.identity(2)
        T = RationalMatrix.from_rows([[1, 0], [-1, 1]])
        chk = verify_factorization(S, NonnegFactorization(T, RationalMatrix.identity(2)))
        assert not chk
        assert chk.where == ("T", 1, 0)

    def test_product_mismatch_located(self):
        S = RationalMatrix.identity(2)
        ones = RationalMatrix.from_rows([[1, 1], [1, 1]])
        chk = verify_factorization(S, NonnegFactorization(ones, RationalMatrix.identity(2)))
        assert not chk and chk.where[0] == "product"

    def test_first_mismatch_in_row_major_order(self):
        S = RationalMatrix.from_rows([[1, 5], [7, 1]])
        chk = verify_factorization(S, identity_fac(RationalMatrix.identity(2)))
        assert (chk.reason, chk.where) == ("product entry (0,1) is 0, expected 5",
                                           ("product", 0, 1))

    def test_dim_mismatch(self):
        with pytest.raises(InputError):
            verify_factorization(RationalMatrix.identity(3),
                                 identity_fac(RationalMatrix.identity(2)))
        with pytest.raises(InputError):
            NonnegFactorization(RationalMatrix.identity(2),
                                RationalMatrix.from_rows([[1], [1], [1]]))

    def test_json_round_trip(self):
        fac = identity_fac(RationalMatrix.from_rows([[0, 1], [1, 0]]))
        fac2 = NonnegFactorization.from_json(fac.to_json())
        assert fac2.T == fac.T and fac2.U == fac.U

    @settings(max_examples=150, deadline=None)
    @given(planted_factorizations())
    def test_matches_full_product(self, planted):
        S, T, U = planted
        chk = verify_factorization(
            S, NonnegFactorization(RationalMatrix.from_rows(T), RationalMatrix.from_rows(U)))
        assert (chk.ok, chk.reason, chk.where) == full_product_check(S, T, U)


@pytest.mark.parametrize("entry", [F(1, 2), "1/2", 0.5, True])
@pytest.mark.parametrize("call", [
    nnegrk_bounds, rect_cover_lb,
    lambda rows: verify_factorization(rows, identity_fac(RationalMatrix.identity(2))),
    lambda rows: HRep(2, rows, [1, 1])])
def test_nested_rows_coerced_once(call, entry):
    # the rows go straight to RationalMatrix.from_rows, whose coercion
    # refuses a float or a bool
    rows = [[1, entry], [0, 1]]
    if isinstance(entry, (float, bool)):
        with pytest.raises(InputError):
            call(rows)
    else:
        call(rows)


class TestFactorizationToEf:
    def test_segment_identity_fac_is_trivial_ef(self):
        P, Q = segment()
        S = build_slack(P, Q).full()
        K = factorization_to_ef(Q, identity_fac(S))
        Kt = trivial_ef(Q)
        assert K.E == Kt.E and K.F == Kt.F and K.g == Kt.g
        assert verify_sandwich(P, Q, 1, K).ok

    def test_rank_one_gives_size_one(self):
        # a pair whose slack is all-ones: point 0 in {x <= 1, -x <= 1}
        P = VRep(1, [[0]])
        Q = HRep(1, [[1], [-1]], [1, 1])
        fac = NonnegFactorization(RationalMatrix.from_rows([[1], [1]]),
                                  RationalMatrix.from_rows([[1]]))
        assert verify_factorization(build_slack(P, Q).full(), fac)
        K = factorization_to_ef(Q, fac)
        assert K.size == 1
        assert verify_sandwich(P, Q, 1, K).ok

    def test_hard_pair_n2_trivial(self):
        P, Q = hard_pair(2)
        S = build_slack(P, Q).full()
        K = factorization_to_ef(Q, identity_fac(S))
        assert K.size == 4
        assert verify_sandwich(P, Q, 1, K).ok

    def test_row_mismatch(self):
        _, Q = segment()
        with pytest.raises(InputError):
            factorization_to_ef(Q, identity_fac(RationalMatrix.identity(3)))


class TestEfToFactorization:
    def test_segment_roundtrip(self):
        P, Q = segment()
        fac = ef_to_factorization(trivial_ef(Q), P, Q)
        assert fac.rank <= 3
        assert verify_factorization(build_slack(P, Q).full(), fac)

    def test_pure_offset_case(self):
        # K is the single point 0; both inequalities need offset c = 1, and
        # the factorization degenerates to the rank-1 column c
        P = VRep(1, [[0]])
        Q = HRep(1, [[1], [-1]], [1, 1])
        K = trivial_ef(HRep(1, [[1], [-1]], [0, 0]))  # {x <= 0, -x <= 0} = {0}
        fac = ef_to_factorization(K, P, Q)
        assert verify_factorization(build_slack(P, Q).full(), fac)
        assert fac.rank <= K.size + 1

    def test_precondition_failure_carries_report(self):
        P, Q = segment()
        big = VRep(1, [[0], [5]])
        with pytest.raises(PreconditionError) as ei:
            ef_to_factorization(trivial_ef(Q), big, Q)
        assert ei.value.report.failing["index"] == 1

    def test_ef_without_equations(self):
        # K = R^1 has no rows: 0 x <= 1 needs the offset 1, and 0 x <= 0
        # derives tightly from t = []
        K = ExtendedFormulation(RationalMatrix(0, 1), RationalMatrix(0, 0), [])
        P = VRep(1, [[0]])
        fac = ef_to_factorization(K, P, HRep(1, [[0]], [1]))
        assert (fac.T.tolist(), fac.U.tolist()) == ([[1]], [[1]])
        fac = ef_to_factorization(K, P, HRep(1, [[0]], [0]))
        assert (fac.T.rows, fac.T.cols, fac.U.rows, fac.U.cols) == (1, 0, 0, 1)

    @pytest.mark.parametrize("pair", ["segment", "hard1", "hard2", "cone"])
    def test_roundtrip_rank_bound(self, pair):
        if pair == "segment":
            P, Q = segment()
        elif pair == "hard1":
            P, Q = hard_pair(1)
        elif pair == "hard2":
            P, Q = hard_pair(2)
        else:
            P = VRep(3, [[0, 0, 0]], rays=[[1, 1, 0], [1, 0, 1], [0, 1, 1]])
            Q = HRep(3, [[1, -1, -1], [-1, 1, -1], [-1, -1, 1]], [0, 0, 0])
        S = build_slack(P, Q).full()
        fac0 = identity_fac(S)
        K = factorization_to_ef(Q, fac0)
        fac1 = ef_to_factorization(K, P, Q)
        assert fac1.rank <= fac0.rank + 1
        assert verify_factorization(S, fac0)
        assert verify_factorization(S, fac1)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_roundtrip_with_rays(self, data):
        """Factorization -> EF -> factorization in dimension 2 or 3 with
        rays: points drawn from a box, rays from the nonnegative orthant and
        rows a_i <= 0, each b_i at or above max_v a_i . v, so P lies in Q.
        The EF of a factorization of S(P, Q) goes back to Q with every b_i
        raised by s_i >= 0 (s = 0 half the time)."""
        d = data.draw(st.integers(2, 3))

        def vec(lo, hi):
            return st.lists(st.integers(lo, hi), min_size=d, max_size=d)

        pts = data.draw(st.lists(vec(-2, 2), min_size=1, max_size=3))
        rays = data.draw(st.lists(vec(0, 2).filter(any), min_size=1, max_size=2))
        rows = data.draw(st.lists(vec(-2, 0).filter(any), min_size=1, max_size=4))
        b = [max(sum(map(mul, a, v)) for v in pts) + data.draw(st.integers(0, 2)) for a in rows]
        P, Q = VRep(d, pts, rays), HRep(d, rows, b)
        S = build_slack(P, Q).full()
        fac0 = data.draw(st.sampled_from(
            [identity_fac(S), NonnegFactorization(S, RationalMatrix.identity(S.cols))]))
        assert verify_factorization(S, fac0)
        K = factorization_to_ef(Q, fac0)
        raise_b = data.draw(st.one_of(st.just([0] * len(rows)), st.lists(
            st.integers(0, 2), min_size=len(rows), max_size=len(rows))))
        Q2 = HRep(d, rows, [bi + si for bi, si in zip(b, raise_b)])
        fac1 = ef_to_factorization(K, P, Q2)
        assert verify_factorization(build_slack(P, Q2).full(), fac1)
        if None in polyhedra.tight_derivations(K, Q2):
            assert fac1.rank <= K.size + 1
        else:
            assert fac1.rank == K.size

    @pytest.mark.parametrize("kind, path", [
        ("own", "tight"), ("fac", "tight"), ("point", "fallback"),
        ("half", "contains-failure"), ("double", "row-violation")])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_sandwich_first_flow(self, kind, path, data):
        K, P, Q = data.draw(ef_cases(kind))
        with mock.patch.object(nnfact, "ef_inside_hrep", wraps=ef_inside_hrep) as spy:
            got = _factorization_or_cert(ef_to_factorization, K, P, Q)
        assert got == _factorization_or_cert(sandwich_first, K, P, Q)
        assert got.get("kind", "fallback" if spy.called else "tight") == path

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_each_half_proved_once(self, data):
        """A fallback solves the containment family once and runs neither
        verify_sandwich's recession-cone LP nor its affine-hull check."""
        K, P, Q = data.draw(ef_cases("point"))
        with mock.patch.object(polyhedra, "recession_fulldim", side_effect=AssertionError), \
                mock.patch.object(polyhedra, "_affine_hull_inside", side_effect=AssertionError), \
                mock.patch.object(nnfact, "ef_contains_points",
                                  wraps=polyhedra.ef_contains_points) as contains:
            fac = ef_to_factorization(K, P, Q)
        assert contains.call_count == 1
        assert verify_factorization(build_slack(P, Q).full(), fac)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_failed_containment_is_the_report(self, data):
        K, P, Q = data.draw(ef_cases("half"))
        with mock.patch.object(nnfact, "tight_derivations") as tight, \
                mock.patch.object(nnfact, "ef_inside_hrep") as inside, \
                pytest.raises(PreconditionError) as ei:
            ef_to_factorization(K, P, Q)
        assert isinstance(ei.value.report, polyhedra.ContainsReport)
        assert not (tight.called or inside.called)


def lattice_polygon(pts):
    """(P, Q) of the convex hull of the lattice points pts, which must span
    the plane: its vertices counterclockwise, facet i from vertex i to i+1."""
    pts = sorted(set(pts))

    def chain(seq):
        out = []
        for x, y in seq:
            while len(out) > 1 and ((out[-1][0] - out[-2][0]) * (y - out[-2][1])
                                    - (out[-1][1] - out[-2][1]) * (x - out[-2][0])) <= 0:
                out.pop()
            out.append((x, y))
        return out[:-1]
    vs = chain(pts) + chain(reversed(pts))
    rows = [((y2 - y1, x1 - x2), (y2 - y1) * x1 + (x1 - x2) * y1)
            for (x1, y1), (x2, y2) in zip(vs, vs[1:] + vs[:1])]
    return VRep(2, [list(v) for v in vs]), HRep(2, [a for a, _ in rows], [b for _, b in rows])


@st.composite
def ef_cases(draw, kind):
    """(K, P, Q) of one kind: a lattice polygon around the origin with its
    trivial EF ("own"), with factorization_to_ef of S = S I ("fac"), or with
    the trivial EF of Q halved ("half": P leaves K) or of 2Q ("double": K
    leaves Q); or ("point") K = {p}, written as +-x_k <= +-p_k, inside the
    box Q of the rows +-x_k <= +-p_k + s_i.  A row with s_i > 0 derives
    only with an offset, and s_0 > 0; the other rows may derive tightly."""
    if kind == "point":
        d = draw(st.integers(1, 3))
        p = [draw(st.integers(-3, 3)) for _ in range(d)]
        s = [draw(st.integers(1, 3))] + [draw(st.integers(0, 3)) for _ in range(2 * d - 1)]
        signs = [[sg * (j == k) for j in range(d)] for sg in (1, -1) for k in range(d)]
        b = [sg * x for sg in (1, -1) for x in p]
        K = trivial_ef(HRep(d, signs, b))
        return K, VRep(d, [p]), HRep(d, signs, [bi + si for bi, si in zip(b, s)])
    extra = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=5))
    P, Q = lattice_polygon([(1, 0), (0, 1), (-1, 0), (0, -1)] + extra)
    if kind == "fac":
        S = build_slack(P, Q).full()
        K = factorization_to_ef(Q, NonnegFactorization(S, RationalMatrix.identity(S.cols)))
    else:
        K = trivial_ef({"own": Q, "half": HRep(2, Q.A, [b / 2 for b in Q.b]),
                        "double": dilate(Q, 2)}[kind])
    return K, P, Q


def sandwich_first(K, P, Q):
    """ef_to_factorization as it was before it skipped the sandwich check:
    verify_sandwich at rho = 1 first, then each row's tight derivation, else
    its general one.  A failed check raises with the half that failed."""
    report = verify_sandwich(P, Q, 1, K)
    if not report.ok:
        raise PreconditionError("EF does not sandwich the pair at rho = 1",
                                report.inside if report.contains.ok else report.contains)
    WZ = RationalMatrix(len(P.points) + len(P.rays), K.size, [
        x for _, _, w in report.contains.witnesses for x in w]).transpose()
    general = {i: (t, c) for i, t, c in report.inside.derivations}
    rows, cvec = [], []
    for i, t in enumerate(polyhedra.tight_derivations(K, Q)):
        t, c = (t, F(0)) if t is not None else general[i]
        rows.append(t)
        cvec.append(c)
    Tm = RationalMatrix(Q.nrows, K.nrows, [x for t in rows for x in t])
    if not any(cvec):
        return NonnegFactorization(Tm @ K.F, WZ)
    bottom = [F(1)] * len(P.points) + [F(0)] * len(P.rays)
    return NonnegFactorization(
        RationalMatrix.hstack([Tm @ K.F, RationalMatrix(Q.nrows, 1, cvec)]),
        RationalMatrix.vstack([WZ, RationalMatrix(1, len(bottom), bottom)]))


def _factorization_or_cert(flow, K, P, Q):
    """The factorization's JSON, or the CLI certificate of a failed sandwich."""
    try:
        return flow(K, P, Q).to_json()
    except PreconditionError as exc:
        return cli._sandwich_cert(exc.report, K, Q)


@functools.cache
def _box_certificate(n, rho):
    """The row-violation certificate of the box EF n against the hard pair
    at rho < n, as JSON text."""
    P, Q = hard_pair(n)
    K = box_ef(n)
    report = verify_sandwich(P, Q, rho, K)
    assert not report.ok
    return json.dumps(cli._sandwich_cert(report.inside, K, Q))


@st.composite
def refuted_sandwiches(draw):
    """A row-violation certificate: the box EF n at rho < n, or the trivial
    EF of 2Q for a lattice polygon Q (ef_cases "double") at rho = 1."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 3))
        rho = draw(st.fractions(1, n, max_denominator=4).filter(lambda r: r < n))
        return json.loads(_box_certificate(n, rho))
    K, P, Q = draw(ef_cases("double"))
    report = verify_sandwich(P, Q, 1, K)
    assert not report.ok
    return cli._sandwich_cert(report.inside, K, Q)


def fraction_rows(m):
    """The rows of matrix JSON m, in plain Fractions."""
    e = [F(v) for v in m["entries"]]
    return [e[i * m["cols"]:(i + 1) * m["cols"]] for i in range(m["rows"])]


def reference_row_violation(cert):
    """The row-violation check in plain Fractions: row . x > bound, w >= 0
    and F w = g - E x."""
    ef = cert["ef"]
    row, x, w = ([F(v) for v in cert[k]] for k in ("row", "point", "lifting"))
    return (sum(a * b for a, b in zip(row, x)) > F(cert["bound"])
            and all(v >= 0 for v in w)
            and all(sum(f * v for f, v in zip(fr, w)) == F(g) - sum(e * v for e, v in zip(er, x))
                    for er, fr, g in zip(fraction_rows(ef["E"]), fraction_rows(ef["F"]), ef["g"])))


def _cert_checker(d):
    """check-cert run on a certificate in the directory d: True when the
    certificate verifies (exit 0), False when it does not (exit 1)."""
    def check_cert(cert):
        (d / "c.json").write_text(json.dumps(cert))
        rc = cli.main(["check-cert", "--cert", str(d / "c.json"), "--out", str(d / "o.json")])
        assert rc in (0, 1)
        return rc == 0
    return check_cert


def test_mutated_row_violation_matches_reference(tmp_path_factory):
    """check-cert accepts each drawn certificate, and with one entry of the
    point or the lifting changed by a nonzero rational its verdict is the
    plain Fraction check's."""
    check_cert = _cert_checker(tmp_path_factory.mktemp("rowviol"))
    verdicts = []

    @settings(max_examples=40, deadline=None)
    @given(cert=refuted_sandwiches(), data=st.data())
    def prop(cert, data):
        assert check_cert(cert) and reference_row_violation(cert)
        field = data.draw(st.sampled_from(["point", "lifting"]))
        k = data.draw(st.integers(0, len(cert[field]) - 1))
        delta = data.draw(st.fractions(-3, 3, max_denominator=5).filter(bool))
        cert[field][k] = str(F(cert[field][k]) + delta)
        verdict = check_cert(cert)
        assert verdict == reference_row_violation(cert)
        verdicts.append(verdict)
    prop()
    assert False in verdicts


@st.composite
def refuted_containments(draw):
    """A contains-failure certificate: the trivial EF of Q halved against a
    lattice polygon (ef_cases "half"; a vertex leaves K), or the trivial EF
    of the polygon against the origin plus a ray (the ray leaves K's
    recession cone, which is {0})."""
    if draw(st.booleans()):
        K, P, Q = draw(ef_cases("half"))
    else:
        _, _, Q = draw(ef_cases("own"))
        ray = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
        K, P = trivial_ef(Q), VRep(2, [[0, 0]], [list(ray)])
    report = polyhedra.ef_contains_points(P, K)
    assert not report.ok
    return cli._sandwich_cert(report, K, Q)


def reference_contains_failure(cert):
    """The contains-failure check in plain Fractions: F^T u >= 0 and
    u . rhs < 0, with rhs = g - E x for a point x and -E r for a ray r."""
    ef = cert["ef"]
    x, u = [F(v) for v in cert["target"]], [F(v) for v in cert["u"]]
    g = [F(v) if cert["target_kind"] == "point" else F(0) for v in ef["g"]]
    rhs = [gi - sum(e * v for e, v in zip(er, x)) for er, gi in zip(fraction_rows(ef["E"]), g)]
    Fm = fraction_rows(ef["F"])
    return (all(sum(ui * fr[k] for ui, fr in zip(u, Fm)) >= 0 for k in range(ef["F"]["cols"]))
            and sum(ui * r for ui, r in zip(u, rhs)) < 0)


def spelled(q, style):
    """q as a string that Fraction reads but rat_str does not write: with a
    "+" sign, unreduced and padded with spaces, or as a decimal where q has
    one; the canonical form otherwise."""
    if style == "plus" and q >= 0:
        return f"+{q}"
    if style == "unreduced":
        return f" {2 * q.numerator}/{2 * q.denominator} "
    if style == "decimal" and 10 ** 6 % q.denominator == 0:
        n = abs(q.numerator) * (10 ** 6 // q.denominator)
        return f"{'-' if q < 0 else ''}{n // 10 ** 6}.{n % 10 ** 6:06d}"
    return str(q)


def test_mutated_contains_failure_matches_reference(tmp_path_factory):
    """check-cert accepts each drawn contains-failure certificate, and with
    one entry of u or of the target changed by a nonzero rational, spelled
    canonically or not, its verdict is the plain Fraction check's."""
    check_cert = _cert_checker(tmp_path_factory.mktemp("contains"))
    verdicts = []

    @settings(max_examples=40, deadline=None)
    @given(cert=refuted_containments(), data=st.data())
    def prop(cert, data):
        assert check_cert(cert) and reference_contains_failure(cert)
        field = data.draw(st.sampled_from(["u", "target"]))
        k = data.draw(st.integers(0, len(cert[field]) - 1))
        delta = data.draw(st.fractions(-3, 3, max_denominator=5).filter(bool))
        style = data.draw(st.sampled_from(["canonical", "plus", "unreduced", "decimal"]))
        cert[field][k] = spelled(F(cert[field][k]) + delta, style)
        verdict = check_cert(cert)
        assert verdict == reference_contains_failure(cert)
        verdicts.append(verdict)
    prop()
    assert False in verdicts


def _matrix_json(rows, cols, grid):
    return {"rows": rows, "cols": cols, "entries": [str(x) for r in grid for x in r]}


def reference_factorization_invalid(cert):
    """The factorization-invalid check in plain Fractions, for shapes that
    agree: T or U has a negative entry, or T U is not the matrix."""
    S, T, U = (fraction_rows(m) for m in (cert["matrix"], cert["fac"]["T"], cert["fac"]["U"]))
    return (any(x < 0 for row in T + U for x in row)
            or any(sum((t * u for t, u in zip(T[i], col)), F(0)) != S[i][j]
                   for i in range(len(S)) for j, col in enumerate(zip(*U))))


def test_mutated_factorization_invalid_matches_reference(tmp_path_factory):
    """check-cert rejects the factorization-invalid certificate of each
    drawn factorization S = T U, and with one entry of S, T or U changed by
    a nonzero rational its verdict is the plain Fraction check's."""
    check_cert = _cert_checker(tmp_path_factory.mktemp("facinvalid"))
    verdicts = []

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def prop(data):
        m, r, n = (data.draw(st.integers(1, 3)) for _ in range(3))
        entry = st.fractions(0, 3, max_denominator=2)
        T = [[data.draw(entry) for _ in range(r)] for _ in range(m)]
        U = [[data.draw(entry) for _ in range(n)] for _ in range(r)]
        S = [[sum((T[i][k] * U[k][j] for k in range(r)), F(0)) for j in range(n)]
             for i in range(m)]
        cert = {"kind": "factorization-invalid", "matrix": _matrix_json(m, n, S),
                "fac": {"T": _matrix_json(m, r, T), "U": _matrix_json(r, n, U)}}
        assert not check_cert(cert) and not reference_factorization_invalid(cert)
        field = data.draw(st.sampled_from(["matrix", "T", "U"]))
        entries = (cert if field == "matrix" else cert["fac"])[field]["entries"]
        k = data.draw(st.integers(0, len(entries) - 1))
        entries[k] = str(F(entries[k]) + data.draw(st.fractions(-3, 3, max_denominator=5)
                                                   .filter(bool)))
        verdict = check_cert(cert)
        assert verdict == reference_factorization_invalid(cert)
        verdicts.append(verdict)
    prop()
    assert True in verdicts


def reference_qall_violation(cert):
    """The qall-violation check in plain Fractions: a negative entry x_ij
    off the diagonal, or <w^G, x> above the clique number of G, found by
    trying every vertex subset."""
    x, c = fraction_rows(cert["x"]), cert["constraint"]
    if c["kind"] == "sign":
        i, j = c["entry"]
        return i != j and x[i - 1][j - 1] < 0
    V = c["graph"]["vertices"]
    E = {frozenset(e) for e in c["graph"]["edges"]}
    lhs = (sum(x[i - 1][i - 1] for i in V)
           - sum(x[i - 1][j - 1] for i in V for j in V if i != j and frozenset((i, j)) not in E))
    omega = max(k for k in range(len(V) + 1) for clique in combinations(V, k)
                if all(frozenset(e) in E for e in combinations(clique, 2)))
    return lhs > omega


def _qall_cert(check_cert, x):
    """The qall-violation certificate that qall-separate writes for the
    point x, or None; check-cert and the Fraction check both accept it."""
    X = RationalMatrix.from_rows(x)
    _, cert = cli._qall_separate(argparse.Namespace(x=X, mode="exhaustive", seed=0, count=200))
    assert cert is None or (check_cert(cert) and reference_qall_violation(cert))
    return cert


def _changed_qall_verdict(check_cert, cert, k, delta):
    """check-cert's verdict on cert with entry k of x changed by delta,
    once it is found equal to the plain Fraction check's."""
    entries = cert["x"]["entries"]
    entries[k] = str(F(entries[k]) + delta)
    verdict = check_cert(cert)
    assert verdict == reference_qall_violation(cert)
    return verdict


def test_mutated_qall_violation_matches_reference(tmp_path_factory):
    """check-cert accepts the qall-violation certificate of each drawn point
    that qall-separate refutes, and with one entry of x changed by a
    nonzero rational its verdict is the plain Fraction check's."""
    check_cert = _cert_checker(tmp_path_factory.mktemp("qall"))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def prop(data):
        n = data.draw(st.integers(2, 3))
        low = data.draw(st.sampled_from([-1, 0]))  # 0: only graph rows can be violated
        x = [[data.draw(st.fractions(0 if i == j else low, 2, max_denominator=3))
              for j in range(n)] for i in range(n)]
        cert = _qall_cert(check_cert, x)
        assume(cert is not None)
        c = cert["constraint"]
        # half the draws change an entry the constraint reads: x_ij of a
        # sign row, a diagonal entry of the graph's vertices otherwise
        read = ([(c["entry"][0] - 1) * n + c["entry"][1] - 1] if c["kind"] == "sign"
                else [(v - 1) * (n + 1) for v in c["graph"]["vertices"]])
        k = data.draw(st.one_of(st.sampled_from(read), st.integers(0, n * n - 1)))
        _changed_qall_verdict(check_cert, cert, k, data.draw(
            st.fractions(-3, 3, max_denominator=5).filter(bool)))
    prop()


@pytest.mark.parametrize("x,k,delta,kind,verdict", [
    ([[1, -1], [-1, 1]], 0, 1, "sign", True),  # x_12 = -1 is still negative
    ([[1, -1], [-1, 1]], 1, 2, "sign", False),  # x_12 = 1
    ([[2, 0], [0, 2]], 0, 1, "graph", True),  # vertices {1}: x_11 = 3 > omega = 1
    ([[2, 0], [0, 2]], 0, -1, "graph", False),  # x_11 = 1
])
def test_changed_qall_violation_each_kind_and_verdict(tmp_path, x, k, delta, kind, verdict):
    """The draws above need not reach both constraint kinds and both
    verdicts; these four changes of one entry do."""
    check_cert = _cert_checker(tmp_path)
    cert = _qall_cert(check_cert, x)
    assert cert["constraint"]["kind"] == kind
    assert _changed_qall_verdict(check_cert, cert, k, F(delta)) is verdict


class TestRectCover:
    def test_small_cases(self):
        assert rect_cover_lb(RationalMatrix.identity(3)) == 3
        assert rect_cover_lb(RationalMatrix.from_rows([[1, 1], [1, 1]])) == 1
        assert rect_cover_lb(RationalMatrix.from_rows([[0, 1], [1, 0]])) == 2
        assert rect_cover_lb(RationalMatrix(3, 4)) == 0

    def test_positive_matrix_is_one(self):
        P, Q = hard_pair(2)
        S2 = shift_slack(build_slack(P, Q), 2)
        assert all(x > 0 for row in S2.full().tolist() for x in row)
        assert rect_cover_lb(S2.full()) == 1

    def test_hard_pair_n3(self):
        # frozen oracle values: exhaustive cover over all rectangles gives 7
        P, Q = hard_pair(3)
        S = build_slack(P, Q).full()
        assert rect_cover_lb(S) == 7

    def test_invariances(self):
        rng = random.Random(404)
        for _ in range(12):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[F(rng.randint(0, 1)) for _ in range(n)] for _ in range(m)]
            base = rect_cover_lb(rows)
            perm = rows[:]
            rng.shuffle(perm)
            assert rect_cover_lb(perm) == base
            assert rect_cover_lb(RationalMatrix.from_rows(rows).transpose()) == base
            dup = rows + [rows[0]]
            assert rect_cover_lb(dup) == base

    def test_budget(self):
        rng = random.Random(1)
        rows = [[F(rng.randint(0, 1)) for _ in range(18)] for _ in range(18)]
        with pytest.raises(BudgetError) as ei:
            rect_cover_lb(rows, max_side=8)
        assert ei.value.partial >= 1

    def test_one_rectangle_support(self):
        # support R x C, padded with zero rows and columns: one rectangle
        rng = random.Random(17)
        for _ in range(20):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            R = {i for i in range(m) if rng.random() < 0.7} or {0}
            C = {j for j in range(n) if rng.random() < 0.7} or {0}
            rows = [[F(rng.randint(1, 5)) if i in R and j in C else F(0)
                     for j in range(n)] for i in range(m)]
            assert rect_cover_lb(rows) == exhaustive_cover(rows) == 1

    def test_matches_exhaustive_cover(self):
        rng = random.Random(18)
        for _ in range(20):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[F(rng.randint(0, 1)) for _ in range(n)] for _ in range(m)]
            assert rect_cover_lb(rows) == exhaustive_cover(rows)

    @settings(max_examples=60, deadline=None)
    @given(supports, st.data())
    def test_matches_exhaustive_cover_property(self, rows, data):
        cover = exhaustive_cover(rows)
        assert rect_cover_lb(rows) == cover
        assert rect_cover_lb(RationalMatrix.from_rows(rows).transpose()) == cover
        dup = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3))
        assert rect_cover_lb(rows + [rows[i] for i in dup]) == cover

    @pytest.mark.parametrize("vertices, cover", zip(POLYGONS, (5, 6, 6, 6)))
    def test_polygon_slacks_every_offset(self, vertices, cover):
        for offset in range(len(vertices)):
            assert rect_cover_lb(polygon_slack(vertices, offset)) == cover

    def test_hard_pair_n4_rho1_within_deadline(self):
        set_budget_ms(20000)
        try:
            assert rect_cover_lb(hardpair_slack(4, 1).full()) == 13
        finally:
            set_budget_ms(None)

    def test_ten_gon_within_deadline(self):
        # the search has to show that no 6 rectangles cover this support,
        # which takes minutes without the exact fooling sets
        ten = tuple((round(40 * math.cos(2 * math.pi * k / 10 + 0.3)),
                     round(40 * math.sin(2 * math.pi * k / 10 + 0.3))) for k in range(10))
        set_budget_ms(60000)
        try:
            assert rect_cover_lb(polygon_slack(ten, 0)) == 7
        finally:
            set_budget_ms(None)

    def test_exact_fooling_matches_brute_force(self):
        rng = random.Random(20)
        for _ in range(300):
            c = rng.randint(1, 9)
            p = rng.random()
            apart = [0] * c
            for a in range(c):
                for b in range(a):
                    if rng.random() < p:
                        apart[a] |= 1 << b
                        apart[b] |= 1 << a
            avail = rng.getrandbits(c)
            cells = [q for q in range(c) if (avail >> q) & 1]
            for size in range(1, 6):
                brute = any(all((apart[a] >> b) & 1 for a, b in combinations(subset, 2))
                            for subset in combinations(cells, size))
                assert _fooling_at_least(avail, apart, size) == brute

    @pytest.mark.parametrize("seed, m, n, density, max_side, partial", [
        (1, 18, 18, 0.5, 8, 10), (2, 20, 17, 0.7, 16, 6),
        (3, 17, 19, 0.85, 16, 4), (4, 17, 17, 0.9, 16, 3)])
    def test_budget_partial_pinned(self, seed, m, n, density, max_side, partial):
        # values of the row-major greedy fooling set, recorded before the
        # search was rewritten; another cell order gives other values here
        rng = random.Random(seed)
        rows = [[F(int(rng.random() < density)) for _ in range(n)] for _ in range(m)]
        with pytest.raises(BudgetError) as ei:
            rect_cover_lb(rows, max_side=max_side)
        assert ei.value.partial == partial

    def test_cover_below_verified_rank(self):
        # any verified factorization upper-bounds the cover number
        S = RationalMatrix.from_rows([[2, 1], [1, 2]])
        fac = NonnegFactorization(
            RationalMatrix.from_rows([[2, 1], [1, 2]]), RationalMatrix.identity(2))
        assert verify_factorization(S, fac)
        assert rect_cover_lb(S) <= fac.rank


class TestInternalChecks:
    """Exact post-checks raise VerificationError (exit 4), also under -O."""

    def test_tight_derivation_point_is_checked(self, monkeypatch):
        _, Q = segment()
        K = trivial_ef(Q)

        class Planted:
            status = "optimal"
            point = [F(7)] * K.nrows
        monkeypatch.setattr(polyhedra, "lp_feasible_each", lambda *args: iter([Planted]))
        with pytest.raises(VerificationError, match="t E = A_i"):
            polyhedra.tight_derivations(K, Q)

    def test_ef_to_factorization_result_is_checked(self, monkeypatch):
        P, Q = segment()
        monkeypatch.setattr(nnfact, "verify_factorization",
                            lambda S, fac: FactorizationCheck(False, "planted"))
        with pytest.raises(VerificationError, match="planted"):
            ef_to_factorization(trivial_ef(Q), P, Q)

    def test_bounds_order_is_checked(self, monkeypatch):
        monkeypatch.setattr(nnfact, "row_basis", lambda S: list(range(10)))
        with pytest.raises(VerificationError):
            nnegrk_bounds(RationalMatrix.identity(3))

    def test_extreme_column_factorization_is_checked(self, monkeypatch):
        monkeypatch.setattr(nnfact, "verify_factorization",
                            lambda S, fac: FactorizationCheck(False, "planted"))
        with pytest.raises(VerificationError, match="planted"):
            nnegrk_bounds(RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]]))

    def test_bounds_order_checked_under_python_O(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(nnfact.__file__)))
        code = (
            "import sys\n"
            "from efbound import RationalMatrix, VerificationError, nnfact\n"
            "assert False, 'asserts are live'\n"
            "nnfact.row_basis = lambda S: list(range(10))\n"
            "try:\n"
            "    nnfact.nnegrk_bounds(RationalMatrix.identity(3))\n"
            "except VerificationError:\n"
            "    print('rejected', sys.flags.optimize)\n")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["rejected", "1"]


class TestNnegrkBounds:
    def test_all_ones(self):
        S = RationalMatrix.from_rows([[1] * 4] * 4)
        nb = nnegrk_bounds(S)
        assert (nb.lower, nb.upper) == (1, 1)
        assert isinstance(nb.upper_witness, NonnegFactorization)
        assert verify_factorization(S, nb.upper_witness)

    def test_segment_slack(self):
        P, Q = segment()
        nb = nnegrk_bounds(build_slack(P, Q).full())
        assert (nb.lower, nb.upper) == (2, 2)

    def test_hard_pair_n3(self):
        P, Q = hard_pair(3)
        S = build_slack(P, Q).full()
        nb = nnegrk_bounds(S)
        assert nb.lower == 7  # max of rank 7 and cover 7, both frozen by oracle
        assert 7 <= nb.upper <= 8
        assert nb.lower >= 7

    def test_deadline_in_cover_is_not_swallowed(self, monkeypatch):
        def out_of_time(S):
            raise BudgetError("computation budget exhausted")
        monkeypatch.setattr("efbound.nnfact.rect_cover_lb", out_of_time)
        with pytest.raises(BudgetError):
            nnegrk_bounds(RationalMatrix.identity(3))

    def test_oversized_cover_keeps_partial_bound(self, monkeypatch):
        def too_large(S):
            raise BudgetError("support side exceeds enumeration budget", partial=3)
        monkeypatch.setattr("efbound.nnfact.rect_cover_lb", too_large)
        nb = nnegrk_bounds(RationalMatrix.from_rows([[1, 1, 1], [1, 2, 3], [1, 3, 6]]))
        assert nb.lower == 3 and nb.lower_witness == "rank"

    def test_zero_matrix(self):
        nb = nnegrk_bounds(RationalMatrix(2, 3))
        assert (nb.lower, nb.upper) == (0, 0)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            nnegrk_bounds(RationalMatrix.from_rows([[1, -1]]))

    def test_provenance_lines(self):
        nb = nnegrk_bounds(RationalMatrix.identity(2))
        lines = nb.provenance()
        assert lines[0].startswith("lower=2 via ")
        assert lines[1].startswith("upper=2 via ")

    def test_upper_witness_verifies_when_nontrivial(self):
        rng = random.Random(8)
        for _ in range(5):
            T = RationalMatrix.from_rows(
                [[F(rng.randint(0, 3)) for _ in range(2)] for _ in range(4)])
            U = RationalMatrix.from_rows(
                [[F(rng.randint(0, 3)) for _ in range(4)] for _ in range(2)])
            S = T @ U
            nb = nnegrk_bounds(S)
            assert nb.lower <= nb.upper
            if isinstance(nb.upper_witness, NonnegFactorization):
                assert verify_factorization(S, nb.upper_witness)
                assert nb.upper == nb.upper_witness.rank

    @pytest.mark.parametrize("transpose", [False, True])
    def test_repeated_row_is_not_extreme(self, transpose):
        # row 3 repeats row 0 and all four columns are extreme, so the
        # witness comes from the three extreme rows; transposed, from the
        # three extreme columns
        S = RationalMatrix.from_rows([[3, 1, 3, 0], [1, 3, 3, 1], [2, 1, 1, 3], [3, 1, 3, 0]])
        assert nnfact._extreme_columns(S) == [0, 1, 2, 3]
        S = S.transpose() if transpose else S
        nb = nnegrk_bounds(S)
        assert (nb.lower, nb.upper) == (3, 3)
        assert verify_factorization(S, nb.upper_witness)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_row_basis_keeps_the_extreme_columns(self, data):
        # S = T U of small nonnegative ints, with repeated and zero rows
        # (which make a row basis smaller than m) and zero, duplicate and
        # positively scaled columns inserted: the cone tests on a row basis
        # keep the columns that the tests over all rows keep, on S and on S^T
        m, r, n = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 5), (1, 3), (1, 5)))

        def ints(rows, cols):
            return RationalMatrix.from_rows(data.draw(st.lists(
                st.lists(st.integers(0, 3), min_size=cols, max_size=cols),
                min_size=rows, max_size=rows)))
        rows = (ints(m, r) @ ints(r, n)).tolist()
        for _ in range(data.draw(st.integers(0, 3))):
            extra = data.draw(st.sampled_from([[ZERO] * n] + rows))
            rows.insert(data.draw(st.integers(0, len(rows))), list(extra))
        cols = [list(c) for c in zip(*rows)]
        for _ in range(data.draw(st.integers(0, 3))):
            scale = data.draw(st.sampled_from([ZERO, F(1), F(1, 2), F(3)]))
            extra = [scale * x for x in data.draw(st.sampled_from(cols))]
            cols.insert(data.draw(st.integers(0, len(cols))), extra)
        S = RationalMatrix.from_rows([list(row) for row in zip(*cols)])
        for M in (S, S.transpose()):
            assert nnfact._extreme_columns(M) == reference_extreme_columns(M)

    def test_no_discarded_witness(self, monkeypatch):
        # where the upper bound stays trivial, every LP is a single cone test
        # and no factorization is built or verified; a reported witness is
        # verified exactly once
        verified, rhs_counts = [], []
        genuine_verify, genuine_solve = nnfact.verify_factorization, nnfact.nonneg_solutions

        def verify(S, fac):
            verified.append(fac)
            return genuine_verify(S, fac)

        def solve(F, rhss):
            rhss = list(rhss)
            rhs_counts.append(len(rhss))
            return genuine_solve(F, rhss)
        monkeypatch.setattr(nnfact, "verify_factorization", verify)
        monkeypatch.setattr(nnfact, "nonneg_solutions", solve)
        nb = nnegrk_bounds(hardpair_slack(3, 2).full())
        assert nb.upper_witness == "trivial"
        assert verified == []
        assert rhs_counts and set(rhs_counts) == {1}
        nb = nnegrk_bounds(RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]]))
        assert nb.upper == 2
        assert verified == [nb.upper_witness]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_extreme_columns_of_products(self, data):
        # S = T U of small nonnegative ints: the witness verifies, rank <= 2
        # is met exactly, and a zero column or a positive multiple of a
        # column, inserted anywhere, leaves the upper bound as it is
        m, r, n = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 6), (1, 4), (1, 6)))

        def ints(rows, cols):
            return RationalMatrix.from_rows(data.draw(st.lists(
                st.lists(st.integers(0, 3), min_size=cols, max_size=cols),
                min_size=rows, max_size=rows)))
        S = ints(m, r) @ ints(r, n)
        nb = nnegrk_bounds(S)
        assert nb.lower <= nb.upper
        if isinstance(nb.upper_witness, NonnegFactorization):
            assert nb.upper == nb.upper_witness.rank
            assert verify_factorization(S, nb.upper_witness)
        rank = mat_rank(S)
        if rank <= 2:
            assert nb.upper == rank
        scale = data.draw(st.fractions(min_value=F(1, 4), max_value=4).filter(bool))
        for extra in ([ZERO] * m, [scale * x for x in S.col(data.draw(st.integers(0, n - 1)))]):
            cols = [S.col(j) for j in range(n)]
            cols.insert(data.draw(st.integers(0, n)), extra)
            wider = RationalMatrix(m, n + 1, [c[i] for i in range(m) for c in cols])
            assert nnegrk_bounds(wider).upper == nb.upper
