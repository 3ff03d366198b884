import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest

from efbound.encodings import (
    BoxReport,
    Graph,
    HardPair,
    PsdFactorPair,
    SeparationReport,
    box_approx_report,
    box_ef,
    build_cut_family,
    build_hard_pair,
    clique_number,
    clique_weight,
    covariance_map,
    cut_vector,
    graph_row,
    hardpair_slack,
    max_over_cor,
    objective_matrix,
    psd_factors,
    qall_separate,
    spectra_vertex_witness,
)
from efbound.encodings import _graphs_on, _outer, _bits
from efbound.errors import BudgetError, InputError
from efbound.polyhedra import HRep, VRep, build_slack, shift_slack, verify_sandwich
from efbound.ratlin import RationalMatrix, lp_solve
from efbound.udisj import build_shift


def frob(M, N):
    return sum((M[i, j] * N[i, j] for i in range(M.rows) for j in range(M.cols)),
               Fraction(0))


class TestGraph:
    def test_json_round_trip(self):
        G = Graph(4, [1, 2, 4], [(1, 2), (2, 4)])
        again = Graph.from_json(G.to_json())
        assert again.vertices == G.vertices and again.edges == G.edges

    def test_validation(self):
        with pytest.raises(InputError):
            Graph(3, [1, 2, 5], [])          # vertex out of range
        with pytest.raises(InputError):
            Graph(3, [1, 2], [(1, 3)])       # edge leaves vertex set
        with pytest.raises(InputError):
            Graph(3, [1, 2], [(1, 1)])       # loop
        with pytest.raises(InputError):
            Graph.from_json({"n": 3})

    def test_builders(self):
        assert len(Graph.complete(4).edges) == 6
        assert Graph.edgeless(4, [2, 3]).edges == frozenset()


class TestBuildHardPair:
    def test_n1(self):
        hp = build_hard_pair(1)
        assert hp.P.points == [[Fraction(0)], [Fraction(1)]]
        assert hp.Q.A.tolist() == [[0], [1]]
        assert hp.Q.b == [1, 1]

    def test_n2_objective_row(self):
        # a = (1,1) is bitmask 3; 2diag(a) - aa^T = [[1,-1],[-1,1]] row-major
        hp = build_hard_pair(2)
        assert hp.Q.A.row(3) == [1, -1, -1, 1]

    def test_zero_vertex(self):
        hp = build_hard_pair(3)
        assert all(v == 0 for v in hp.P.points[0])

    def test_vertices_inside(self):
        # P inside Q: every row value at every vertex is at most 1
        hp = build_hard_pair(3)
        for p in hp.P.points:
            for i in range(hp.Q.nrows):
                val = sum((hp.Q.A[i, j] * p[j] for j in range(9)), Fraction(0))
                assert val <= hp.Q.b[i]

    def test_budget(self):
        with pytest.raises(BudgetError):
            build_hard_pair(11)
        with pytest.raises(InputError):
            build_hard_pair(0)


class TestHardpairSlack:
    def test_udisj_zero_pattern_at_rho_one(self):
        S = hardpair_slack(2, 1).vertex_block
        for a in range(4):
            for b in range(4):
                if (a & b).bit_count() == 1:
                    assert S[a, b] == 0

    def test_disjoint_entries_at_rho_two(self):
        S = hardpair_slack(3, 2).vertex_block
        for a in range(8):
            for b in range(8):
                if a & b == 0:
                    assert S[a, b] == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("rho", [Fraction(1), Fraction(3, 2), Fraction(2)])
    def test_matches_slack_pipeline(self, n, rho):
        hp = build_hard_pair(n)
        direct = hardpair_slack(n, rho)
        pipeline = shift_slack(build_slack(hp.P, hp.Q), rho)
        assert direct.vertex_block == pipeline.vertex_block

    @pytest.mark.parametrize("rho", [Fraction(1), Fraction(3, 2), Fraction(2)])
    def test_agrees_with_udisj_shift_on_classes(self, rho):
        S = hardpair_slack(3, rho).vertex_block
        M = build_shift(3, rho)
        for a in range(8):
            for b in range(8):
                if (a & b).bit_count() in (0, 1):
                    assert S[a, b] == M[a, b]

    def test_validation(self):
        with pytest.raises(InputError):
            hardpair_slack(2, Fraction(1, 2))
        with pytest.raises(BudgetError):
            hardpair_slack(12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("rho", [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(4)])
    def test_rank_formula(self, n, rho):
        # (1 - a.b)^2 + rho - 1 expands into monomials of degree <= 2 in the
        # bits of a (and of b), so the rank is 1 + n + C(n, 2) for every rho
        from efbound.ratlin import mat_rank
        assert mat_rank(hardpair_slack(n, rho).full()) == 1 + n + n * (n - 1) // 2

    def test_is_the_shift_matrix(self):
        S = hardpair_slack(3, Fraction(3, 2))
        assert S.vertex_block == build_shift(3, Fraction(3, 2))
        assert (S.ray_block.rows, S.ray_block.cols) == (8, 0)
        assert S.source_b == [Fraction(3, 2)] * 8


class TestCliqueWeight:
    def test_complete_graph_is_identity(self):
        assert clique_weight(Graph.complete(3)) == RationalMatrix.identity(3)

    def test_edgeless_support_gives_objective_matrix(self):
        for n, verts in ((3, [1, 3]), (4, [2, 3, 4]), (4, [1])):
            a = [1 if i + 1 in verts else 0 for i in range(n)]
            assert clique_weight(Graph.edgeless(n, verts)) == objective_matrix(a, n)

    def test_path_has_single_non_edge(self):
        w = clique_weight(Graph(3, [1, 2, 3], [(1, 2), (2, 3)]))
        assert w[0, 2] == w[2, 0] == -1
        assert w[0, 1] == w[1, 0] == 0
        assert all(w[i, i] == 1 for i in range(3))

    def test_off_vertex_rows_are_zero(self):
        w = clique_weight(Graph(4, [1, 2], []))
        assert all(w[2, j] == 0 and w[3, j] == 0 for j in range(4))


class TestCliqueNumber:
    def test_small_graphs(self):
        assert clique_number(Graph.complete(4)) == 4
        c5 = Graph(5, range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        assert clique_number(c5) == 2
        assert clique_number(Graph.edgeless(4, [2, 3])) == 1
        assert clique_number(Graph(3, [], [])) == 0

    def test_paw_and_diamond(self):
        paw = Graph(4, range(1, 5), [(1, 2), (1, 3), (2, 3), (3, 4)])
        assert clique_number(paw) == 3
        diamond = Graph(4, range(1, 5), [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
        assert clique_number(diamond) == 3

    def test_budget(self):
        with pytest.raises(BudgetError):
            clique_number(Graph.complete(21))


class TestMaxOverCor:
    def test_identity(self):
        val, arg = max_over_cor(RationalMatrix.identity(3))
        assert val == 3 and arg == (1, 1, 1)

    def test_zero(self):
        val, arg = max_over_cor(RationalMatrix(2, 2))
        assert val == 0 and arg == (0, 0)

    def test_five_cycle(self):
        c5 = Graph(5, range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        val, arg = max_over_cor(clique_weight(c5))
        assert val == 2
        # argmax is a clique: restricted w has no -1 entries
        idx = [i for i, x in enumerate(arg) if x]
        w = clique_weight(c5)
        assert all(w[i, j] >= 0 for i in idx for j in idx)

    def test_equals_clique_number_on_all_small_graphs(self):
        # every graph with labels inside [4]: 113 of them
        graphs = list(_graphs_on(4))
        assert len(graphs) == 113
        for G in graphs:
            val, _ = max_over_cor(clique_weight(G))
            assert val == clique_number(G)

    def test_validation(self):
        with pytest.raises(InputError):
            max_over_cor(RationalMatrix(2, 3))
        with pytest.raises(BudgetError):
            max_over_cor(RationalMatrix.identity(13))


class TestQallSeparate:
    def test_correlation_vertices_inside(self):
        for mask in range(8):
            bv = _bits(mask, 3)
            x = RationalMatrix.from_rows(
                [[Fraction(bv[i] * bv[j]) for j in range(3)] for i in range(3)])
            assert qall_separate(x).status == "inside"

    def test_scaled_identity_cut_by_single_vertex(self):
        r = qall_separate(RationalMatrix.identity(2) * Fraction(2))
        assert r.status == "violated" and r.kind == "graph"
        assert r.lhs == 2 and r.rhs == 1
        assert len(r.graph.vertices) == 1 and not r.graph.edges

    def test_negative_entry_hits_sign_row(self):
        x = RationalMatrix.from_rows([[Fraction(0), Fraction(-1)],
                                      [Fraction(0), Fraction(0)]])
        r = qall_separate(x)
        assert r.status == "violated" and r.kind == "sign"
        assert r.entry == (1, 2) and r.lhs == -1 and r.rhs == 0

    def test_sign_rows_are_off_diagonal_only(self):
        # negative diagonal is not a sign violation; the empty-graph rows
        # do not see it either, so a diagonal-only dip stays inside
        x = RationalMatrix.from_rows([[Fraction(-1), Fraction(0)],
                                      [Fraction(0), Fraction(0)]])
        r = qall_separate(x)
        assert r.status == "inside"

    def test_fractional_point_inside(self):
        # midpoint of two vertices of COR(2)
        x = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 2)],
                                      [Fraction(1, 2), Fraction(1, 2)]])
        assert qall_separate(x).status == "inside"

    def test_sampled_mode_never_fabricates(self):
        x = RationalMatrix.from_rows([[Fraction(1), Fraction(1)],
                                      [Fraction(1), Fraction(1)]])
        r = qall_separate(x, mode="sample", seed=3, count=50)
        assert r.status == "inside"
        # and it can find a real violation
        r = qall_separate(RationalMatrix.identity(2) * Fraction(3),
                          mode="sample", seed=0, count=200)
        assert r.status in ("violated", "inside")
        if r.status == "violated":
            assert r.lhs > r.rhs

    def test_budget_and_validation(self):
        with pytest.raises(BudgetError):
            qall_separate(RationalMatrix.identity(5))
        with pytest.raises(InputError):
            qall_separate(RationalMatrix(2, 3))
        with pytest.raises(InputError):
            qall_separate(RationalMatrix.identity(2), mode="guess")

    def test_bad_mode_rejected_before_sign_scan(self):
        x = RationalMatrix.from_rows([[Fraction(0), Fraction(-1)],
                                      [Fraction(0), Fraction(0)]])
        with pytest.raises(InputError):
            qall_separate(x, mode="guess")

    def test_sign_row_found_before_enumeration_budget(self):
        x = RationalMatrix.identity(5) - RationalMatrix(5, 5, [0, 1] + [0] * 23)
        r = qall_separate(x)
        assert r.kind == "sign" and r.entry == (1, 2)

    @pytest.mark.parametrize("mode", ["exhaustive", "sample"])
    def test_graph_row_is_the_reported_row(self, mode):
        x = RationalMatrix.identity(3) * Fraction(3, 2)
        r = qall_separate(x, mode=mode, seed=0, count=50)
        assert r.kind == "graph"
        assert graph_row(r.graph, x) == (r.lhs, r.rhs)
        assert r.rhs == clique_number(r.graph)
        assert r.lhs == frob(clique_weight(r.graph), x) > r.rhs


class TestBoxEf:
    def test_shape(self):
        ef = box_ef(2)
        assert ef.dim == 4 and ef.size == 8 and ef.nrows == 8

    def test_is_exact_ef_of_the_unit_box(self):
        # vertices of [0,1]^(2x2) against the box H-description
        ef = box_ef(2)
        pts = [list(map(Fraction, bits)) for bits in product((0, 1), repeat=4)]
        P = VRep(4, pts, [])
        rows = []
        b = []
        for k in range(4):
            e = [Fraction(0)] * 4
            e[k] = Fraction(1)
            rows.append(e)
            b.append(Fraction(1))
            rows.append([-v for v in e])
            b.append(Fraction(0))
        Q = HRep(4, RationalMatrix.from_rows(rows), b)
        rep = verify_sandwich(P, Q, 1, ef)
        assert rep.ok

    def test_box_max_matches_lp(self):
        # the positive-entry formula against an actual LP over the EF
        G = Graph(2, [1, 2], [])
        w = clique_weight(G)
        rep = box_approx_report(w)
        ef = box_ef(2)
        d, s = ef.dim, ef.size
        Aeq = RationalMatrix.hstack([ef.E, ef.F])
        ineq = RationalMatrix.hstack(
            [RationalMatrix(s, d), RationalMatrix.identity(s) * Fraction(-1)])
        c = [w[i, j] for i in range(2) for j in range(2)] + [Fraction(0)] * s
        res = lp_solve(ineq, [Fraction(0)] * s, Aeq, ef.g, c)
        assert res.status == "optimal" and res.value == rep.box_max

    def test_edgeless_ratio_is_n(self):
        for n in (2, 3):
            rep = box_approx_report(clique_weight(Graph.edgeless(n, range(1, n + 1))))
            assert rep.box_max == n and rep.cor_max == 1 and rep.ok

    def test_complete_graph_tight(self):
        rep = box_approx_report(clique_weight(Graph.complete(3)))
        assert rep.box_max == rep.cor_max == 3 and rep.ok

    def test_empty_graph_both_zero(self):
        rep = box_approx_report(clique_weight(Graph(3, [], [])))
        assert rep.box_max == rep.cor_max == 0 and rep.ok

    def test_all_small_graphs_within_factor_n(self):
        for G in _graphs_on(3):
            assert box_approx_report(clique_weight(G)).ok


class TestCutFamilies:
    def test_cut_polytope_3(self):
        cp = build_cut_family("cut_polytope", 3)
        assert cp.points == [[0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]]
        assert not cp.rays

    def test_cut_cone_3(self):
        cc = build_cut_family("cut_cone", 3)
        assert cc.points == [[0, 0, 0]]
        assert cc.rays == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]

    def test_correlation_cone_3(self):
        cone = build_cut_family("correlation_cone", 3)
        assert [1, 1, 1, 1] in cone.rays        # b = (1,1)
        assert [1, 0, 0, 0] in cone.rays        # b = (1,0)
        assert len(cone.rays) == 3              # zero generator dropped

    def test_counts(self):
        for n in (2, 3, 4, 5):
            cp = build_cut_family("cut_polytope", n)
            assert len(cp.points) == 1 << (n - 1)
            assert len(set(map(tuple, cp.points))) == 1 << (n - 1)

    def test_cut_vectors_are_cuts(self):
        # entry (i,j) of delta(X) is 1 exactly when the edge crosses
        for n in (3, 4):
            pairs = list(combinations(range(1, n + 1), 2))
            for X in ([1], [2, 3], [1, 3]):
                v = cut_vector(X, n)
                for (i, j), val in zip(pairs, v):
                    assert val == ((i in X) != (j in X))

    def test_validation(self):
        with pytest.raises(InputError):
            build_cut_family("simplex", 3)
        with pytest.raises(BudgetError):
            build_cut_family("cut_polytope", 9)
        with pytest.raises(InputError):
            build_cut_family("cut_cone", 1)


class TestCovarianceMap:
    def test_empty_cut(self):
        y = covariance_map([0, 0, 0], 3)
        assert y == RationalMatrix(2, 2)

    def test_singleton_cut(self):
        y = covariance_map([1, 1, 0], 3)   # delta({1})
        assert y.tolist() == [[1, 0], [0, 0]]

    def test_pair_cut(self):
        y = covariance_map([0, 1, 1], 3)   # delta({1,2})
        assert y.tolist() == [[1, 1], [1, 1]]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bijection_onto_correlation_vertices(self, n):
        images = set()
        for mask in range(1 << (n - 1)):
            X = [i + 1 for i in range(n - 1) if (mask >> i) & 1]
            y = covariance_map(cut_vector(X, n), n)
            b = [1 if i + 1 in X else 0 for i in range(n - 1)]
            bb = RationalMatrix.from_rows(
                [[Fraction(b[i] * b[j]) for j in range(n - 1)]
                 for i in range(n - 1)])
            assert y == bb
            images.add(tuple(map(tuple, y.tolist())))
        assert len(images) == 1 << (n - 1)

    def test_non_cut_binary_vector_rejected(self):
        # a triangle with exactly one crossing edge cannot be a cut
        with pytest.raises(InputError):
            covariance_map([1, 0, 0], 3)

    def test_fractional_input_allowed(self):
        y = covariance_map([Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)], 3)
        assert y[0, 1] == Fraction(1, 4)

    def test_length_check(self):
        with pytest.raises(InputError):
            covariance_map([1, 1], 3)

    def test_length_checked_before_the_pairs_are_listed(self):
        # the n(n-1)/2 = 5e9 edge pairs at n = 100000 are never built
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="needs 4999950000 entries, got 1"):
                covariance_map([1], 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPsdFactors:
    def test_identity_all_pairs_small(self):
        pf = psd_factors(3)
        for a in range(8):
            for b in range(8):
                k = (a & b).bit_count()
                assert frob(pf.T[a], pf.U[b]) == (1 - k) ** 2

    def test_zero_pair(self):
        pf = psd_factors(1)
        assert frob(pf.T[0], pf.U[0]) == 1

    def test_unique_intersection_vanishes(self):
        pf = psd_factors(2)
        assert frob(pf.T[1], pf.U[1]) == 0      # a = b = {1}
        assert frob(pf.T[3], pf.U[3]) == 1      # a = b = (1,1): (1-2)^2

    def test_factors_are_rank_one(self):
        from efbound.ratlin import mat_rank
        pf = psd_factors(2)
        for M in pf.T + pf.U:
            assert mat_rank(M) == 1

    def test_matches_hardpair_slack(self):
        pf = psd_factors(2)
        S = hardpair_slack(2, 1).vertex_block
        for a in range(4):
            for b in range(4):
                assert frob(pf.T[a], pf.U[b]) == S[a, b]

    def test_nonneg_against_correlation_generators(self):
        # both sides are rank-one PSD, so every pairing is a square
        pf = psd_factors(4)
        cone = build_cut_family("correlation_cone", 6)
        for amask in range(0, 16, 3):
            T = pf.T[amask]
            for z in cone.rays:
                val = sum((T[i, j] * z[i * 5 + j]
                           for i in range(5) for j in range(5)), Fraction(0))
                assert val >= 0

    def test_budget(self):
        with pytest.raises(BudgetError):
            psd_factors(11)


class TestSpectraWitness:
    def test_n1_zero(self):
        assert spectra_vertex_witness(0, 1)

    def test_all_vertices_n3(self):
        assert all(spectra_vertex_witness(b, 3) for b in range(8))

    def test_vector_input(self):
        assert spectra_vertex_witness([1, 0, 1], 3)

    def test_perturbed_matrix_fails(self):
        Y = _outer([1] + _bits(5, 3)) + RationalMatrix.identity(4)
        assert not spectra_vertex_witness(5, 3, Y=Y)

    def test_shape_check(self):
        with pytest.raises(InputError):
            spectra_vertex_witness(0, 3, Y=RationalMatrix.identity(3))


class TestObjmatInfnorm:
    """The max absolute entry of 2 diag(a) - a a^T is 1 for a != 0, and 0
    for a = 0."""

    @staticmethod
    def infnorm(a):
        return max(abs(x) for row in objective_matrix(a, len(a)).tolist() for x in row)

    def test_zero(self):
        assert self.infnorm([0, 0]) == 0

    def test_all_ones(self):
        assert self.infnorm([1, 1, 1]) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_random_binary_bounded(self, seed):
        rng = random.Random(seed)
        a = [rng.randint(0, 1) for _ in range(rng.randint(1, 8))]
        v = self.infnorm(a)
        assert v in (0, 1)
        assert v == (1 if any(a) else 0)

    def test_non_binary_rejected(self):
        with pytest.raises(InputError):
            objective_matrix([2, 0], 2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_entry_in_minus_one_zero_one(self, n):
        for a in range(1 << n):
            M = objective_matrix(a, n)
            assert all(x in (-1, 0, 1) for row in M.tolist() for x in row), (n, a)


class TestNeighborhoodBound:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("rho", [Fraction(3, 2), Fraction(2)])
    def test_l1_ball_around_vertices_stays_under_rho(self, seed, rho):
        # row values move by at most |w|_max * |dx|_1 <= rho - 1
        rng = random.Random(seed)
        n = 3
        hp = build_hard_pair(n)
        x0 = list(rng.choice(hp.P.points))
        # random rational direction with l1 norm exactly rho - 1
        raw = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
               for _ in range(n * n)]
        norm = sum(abs(v) for v in raw)
        if norm == 0:
            raw[0] = Fraction(1)
            norm = Fraction(1)
        dx = [v * (rho - 1) / norm for v in raw]
        x = [a + d for a, d in zip(x0, dx)]
        for i in range(hp.Q.nrows):
            val = sum((hp.Q.A[i, j] * x[j] for j in range(n * n)), Fraction(0))
            assert val <= rho
