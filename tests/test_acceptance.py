"""End-to-end acceptance checks.

Each test is one item of the release checklist, marked with
``criterion(num, label)`` so the terminal shows a PASS/FAIL line per item
(see conftest).  Every check carries its own wall-clock budget; exactness
means Fraction equality, never a float tolerance, except where a quantity
is transcendental by nature.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from efbound import (
    ExtendedFormulation,
    HRep,
    NonnegFactorization,
    RationalMatrix,
    VRep,
    build_cut_family,
    build_hard_pair,
    clique_number,
    clique_weight,
    corruption_rhs,
    covariance_map,
    cut_vector,
    entropy_gap,
    hardpair_slack,
    mat_rank,
    max_over_cor,
    mu_class_probabilities,
    psd_factors,
    razborov_identities,
    rect_cover_lb,
    rectangle_corruption_scan,
    shift_rank_lb,
    verify_factorization,
    verify_sandwich,
    box_approx_report,
    FunctionTable,
    UdisjParams,
)
from efbound.encodings import _graphs_on
from efbound.nnfact import ef_to_factorization, factorization_to_ef
from efbound.polyhedra import (
    build_slack,
    ef_contains_points,
    ef_inside_hrep,
    homogenize,
    shift_slack,
    trivial_ef,
)

F = Fraction


def frob(M, N):
    return sum((M[i, j] * N[i, j] for i in range(M.rows) for j in range(M.cols)),
               F(0))


def random_table(n, rng):
    return FunctionTable(n, [F(rng.randrange(0, 5), rng.randrange(1, 4))
                             for _ in range(1 << n)])


def segment_pair():
    P = VRep(1, [[F(0)], [F(1)]], [])
    Q = HRep(1, RationalMatrix.from_rows([[F(1)], [F(-1)]]), [F(1), F(0)])
    return P, Q


def square_pair():
    pts = [[F(0), F(0)], [F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    rows = RationalMatrix.from_rows(
        [[F(1), F(0)], [F(0), F(1)], [F(-1), F(0)], [F(0), F(-1)]])
    return VRep(2, pts, []), HRep(2, rows, [F(1), F(1), F(0), F(0)])


@pytest.mark.criterion(1, "psd factor inner products, all pairs up to n=8")
def test_psd_inner_products_all_pairs():
    t0 = time.perf_counter()
    for n in range(1, 9):
        psd_factors(n)  # raises if any of the 4^n inner products is off
    # independent all-Fraction recheck at small n
    for n in (1, 2, 3):
        pair = psd_factors(n)
        for a in range(1 << n):
            for b in range(1 << n):
                k = F((a & b).bit_count())
                assert frob(pair.T[a], pair.U[b]) == (1 - k) ** 2
    assert time.perf_counter() - t0 < 10


@pytest.mark.criterion(2, "closed-form shifted slack equals the build pipeline")
def test_shifted_slack_matches_pipeline():
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        hp = build_hard_pair(n)
        for rho in (F(1), F(3, 2), F(2)):
            direct = hardpair_slack(n, rho)
            pipeline = shift_slack(build_slack(hp.P, hp.Q), rho)
            assert direct.vertex_block == pipeline.vertex_block
            assert direct.source_b == pipeline.source_b
            assert direct.full() == pipeline.full()
    assert time.perf_counter() - t0 < 10


@pytest.mark.criterion(3, "factorization -> EF -> factorization round trip")
def test_factorization_ef_round_trip():
    t0 = time.perf_counter()
    fixtures = [segment_pair(), square_pair()]
    fixtures += [(hp.P, hp.Q) for hp in (build_hard_pair(n) for n in (1, 2, 3))]
    for P, Q in fixtures:
        S = build_slack(P, Q).full()
        fac = NonnegFactorization(S, RationalMatrix.identity(S.cols))
        assert verify_factorization(S, fac)
        K = factorization_to_ef(Q, fac)
        assert verify_sandwich(P, Q, F(1), K).ok
        back = ef_to_factorization(K, P, Q)
        assert verify_factorization(S, back)
        assert back.T @ back.U == S
        assert back.rank <= K.size + 1
    assert time.perf_counter() - t0 < 60


@pytest.mark.criterion(4, "partition identities and class probabilities")
def test_partition_identities_random_functions():
    t0 = time.perf_counter()
    for n in (3, 7):
        params = UdisjParams(n)
        assert mu_class_probabilities(params) == (F(3, 4), F(1, 4))
        rng = random.Random(n)
        for _ in range(20):
            rep = razborov_identities(random_table(n, rng),
                                      random_table(n, rng), params)
            assert rep.expectation_a[0] == rep.expectation_a[1]
            assert rep.expectation_b[0] == rep.expectation_b[1]
            assert all(left == right for _, left, right in rep.marginals)
    assert time.perf_counter() - t0 < 60


@pytest.mark.criterion(5, "entropy gap nonnegative on a 10^4 grid")
def test_entropy_gap_grid_nonnegative():
    t0 = time.perf_counter()
    m = 10 ** 4
    for i in range(1, m + 1):
        assert entropy_gap(i / (m + 1)) >= -1e-12
    assert time.perf_counter() - t0 < 1


@pytest.mark.criterion(6, "exhaustive rectangle scan at n=3")
def test_exhaustive_rectangle_scan():
    t0 = time.perf_counter()
    eps = F(1, 2)
    rep = rectangle_corruption_scan(UdisjParams(3), eps, keep_records=True)
    assert rep.zero_b_max == F(1, 3)
    assert rep.best_value == F(1, 6)
    full = {rid: val for rid, _, _, val in rep.records}["rff.cff"]
    assert full == -eps
    assert time.perf_counter() - t0 < 30


@pytest.mark.criterion(7, "clique weights over every graph on <= 4 vertices")
def test_clique_weights_exhaustive_small_graphs():
    t0 = time.perf_counter()
    count = 0
    for G in _graphs_on(4):
        count += 1
        w = clique_weight(G)
        value, _ = max_over_cor(w)
        assert value == clique_number(G)
        assert box_approx_report(w).ok
    assert count == 113
    # the guarantee is tight for the edgeless graph on the full vertex set
    for n in (1, 2, 3, 4):
        from efbound import Graph
        rep = box_approx_report(clique_weight(Graph.edgeless(n, range(1, n + 1))))
        assert rep.box_max == n * rep.cor_max
    assert time.perf_counter() - t0 < 120


@pytest.mark.criterion(8, "cut vectors map bijectively onto correlations")
def test_covariance_bijection():
    t0 = time.perf_counter()
    for n in (2, 3, 4, 5):
        images = []
        for mask in range(1 << (n - 1)):
            X = frozenset(i + 1 for i in range(n - 1) if (mask >> i) & 1)
            Y = covariance_map(cut_vector(X, n), n)
            b = [F((mask >> i) & 1) for i in range(n - 1)]
            expected = RationalMatrix.from_rows(
                [[b[i] * b[j] for j in range(n - 1)] for i in range(n - 1)])
            assert Y == expected
            images.append(tuple(tuple(Y.row(i)) for i in range(Y.rows)))
        assert len(set(images)) == 1 << (n - 1)
        rays = build_cut_family("correlation_cone", n).rays
        generators = {tuple(r) for r in rays} | {tuple([F(0)] * (n - 1) ** 2)}
        flat = {tuple(x for row in img for x in row) for img in images}
        assert flat == generators
    assert time.perf_counter() - t0 < 10


@pytest.mark.criterion(9, "homogenized cut polytope EF sits in the cut cone")
def test_homogenized_cut_polytope_ef():
    t0 = time.perf_counter()
    cut3 = HRep(3, RationalMatrix.from_rows(
        [[F(1), F(1), F(1)], [F(1), F(-1), F(-1)],
         [F(-1), F(1), F(-1)], [F(-1), F(-1), F(1)]]),
        [F(2), F(0), F(0), F(0)])
    K = homogenize(trivial_ef(cut3))
    cuts = build_cut_family("cut_polytope", 3)
    contains = ef_contains_points(VRep(3, cuts.points, []), K)
    assert contains.ok
    cone_rows = RationalMatrix.from_rows(
        [[F(1), F(-1), F(-1)], [F(-1), F(1), F(-1)], [F(-1), F(-1), F(1)]])
    cone = HRep(3, cone_rows, [F(0)] * 3)
    inside = ef_inside_hrep(K, cone)
    assert inside.ok and not inside.empty
    assert len(inside.derivations) == 3
    for i, t, c in inside.derivations:
        assert [sum(t[k] * K.E[k, j] for k in range(K.nrows)) for j in range(3)] \
            == list(cone.A.row(i))
        assert all(sum(t[k] * K.F[k, j] for k in range(K.nrows)) >= 0
                   for j in range(K.size))
        assert c >= 0
        assert sum(t[k] * K.g[k] for k in range(K.nrows)) + c == cone.b[i]
    assert time.perf_counter() - t0 < 10


@pytest.mark.criterion(10, "corruption constants and rank bound monotonicity")
def test_corruption_constants_and_monotonicity():
    t0 = time.perf_counter()
    assert abs(corruption_rhs(F(1), 16) - math.exp(-1)) < 1e-12
    eps = F(1, 8)
    by_rho = [shift_rank_lb(4443, 1 + F(k, 3), eps) for k in range(20)]
    assert all(a >= b for a, b in zip(by_rho, by_rho[1:]))
    eps = F(1, 4)
    by_n = [shift_rank_lb(3 + 4 * k, F(2), eps) for k in range(20)]
    assert all(a <= b for a, b in zip(by_n, by_n[1:]))
    assert time.perf_counter() - t0 < 1


@pytest.mark.criterion(11, "rank lower bounds never exceed a verified rank")
def test_rank_lower_bounds_vs_verified_rank():
    t0 = time.perf_counter()
    fixtures = []
    for n in (1, 2, 3):
        hp = build_hard_pair(n)
        fixtures.append(build_slack(hp.P, hp.Q).full())
    fixtures.append(RationalMatrix.identity(4))
    fixtures.append(hardpair_slack(3, 2).full())
    fixtures.append(RationalMatrix.from_rows([[F(1)] * 5] * 4))
    for S in fixtures:
        fac = NonnegFactorization(S, RationalMatrix.identity(S.cols))
        assert verify_factorization(S, fac)
        assert max(mat_rank(S), rect_cover_lb(S)) <= fac.rank
    for S in (hardpair_slack(3, 2).full(),
              RationalMatrix.from_rows([[F(1)] * 5] * 4)):
        assert all(S[i, j] > 0 for i in range(S.rows) for j in range(S.cols))
        assert rect_cover_lb(S) == 1
    assert time.perf_counter() - t0 < 30
