import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from efbound import (
    BudgetError,
    HRep,
    InputError,
    RationalMatrix,
    VRep,
    build_slack,
    dilate,
    shift_slack,
    trivial_ef,
    verify_sandwich,
)
from efbound.nnfact import (
    NmfConfig,
    NonnegFactorization,
    PreconditionError,
    ef_to_factorization,
    factorization_to_ef,
    nnegrk_bounds,
    rect_cover_lb,
    verify_factorization,
)


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
    """Fewest all-support rectangles covering the support, by trying every
    family of row-set x column-set rectangles in increasing size."""
    m, n = len(rows), len(rows[0])
    cells = {(i, j) for i in range(m) for j in range(n) if rows[i][j] != 0}
    rects = []
    for rs in range(1, 1 << m):
        for cs in range(1, 1 << n):
            rect = {(i, j) for i in range(m) if rs >> i & 1
                    for j in range(n) if cs >> j & 1}
            if rect <= cells:
                rects.append(rect)
    for k in range(len(cells) + 1):
        for family in combinations(rects, k):
            if set().union(*family) == cells:
                return k


def identity_fac(S):
    return NonnegFactorization(RationalMatrix.identity(S.rows), S.copy())


class TestVerifyFactorization:
    def test_identity(self):
        I2 = RationalMatrix.identity(2)
        assert verify_factorization(I2, NonnegFactorization(I2.copy(), I2.copy()))

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
        assert ei.value.report.contains.failing["index"] == 1

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


class TestRectCover:
    def test_small_cases(self):
        assert rect_cover_lb(RationalMatrix.identity(3)) == 3
        assert rect_cover_lb(RationalMatrix.from_rows([[1, 1], [1, 1]])) == 1
        assert rect_cover_lb(RationalMatrix.from_rows([[0, 1], [1, 0]])) == 2
        assert rect_cover_lb(RationalMatrix.zeros(3, 4)) == 0

    def test_positive_matrix_is_one(self):
        P, Q = hard_pair(2)
        S2 = shift_slack(build_slack(P, Q), 2)
        assert S2.full().min_entry() > 0
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

    def test_cover_below_verified_rank(self):
        # any verified factorization upper-bounds the cover number
        S = RationalMatrix.from_rows([[2, 1], [1, 2]])
        fac = NonnegFactorization(
            RationalMatrix.from_rows([[2, 1], [1, 2]]), RationalMatrix.identity(2))
        assert verify_factorization(S, fac)
        assert rect_cover_lb(S) <= fac.rank


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
        nb = nnegrk_bounds(S, NmfConfig(iterations=60, restarts=1))
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
        nb = nnegrk_bounds(RationalMatrix.zeros(2, 3))
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
