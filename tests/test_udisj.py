import functools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efbound import cli, udisj
from efbound.errors import BudgetError, InputError, VerificationError
from efbound.errors import set_budget_ms
from efbound.ratlin import _over, rat_str
from efbound.udisj import (
    FunctionTable,
    PartitionT,
    build_shift,
    cond_expect,
    corruption_rhs,
    entropy_gap,
    enum_classes,
    ksubsets,
    mu_class_probabilities,
    parse_function,
    partitions,
    razborov_identities,
    rectangle_corruption_scan,
    row_col_stats,
    shift_rank_lb,
)


def random_table(n, rng, allow_zero=True):
    lo = 0 if allow_zero else 1
    return FunctionTable(
        n, [Fraction(rng.randrange(lo, 5), rng.randrange(1, 4)) for _ in range(1 << n)])


class TestParams:
    @pytest.mark.parametrize("n", [2, 4, 5, 6, 8, 0, -1])
    def test_bad_n_rejected(self, n):
        with pytest.raises(InputError):
            udisj._ell(n)

    @pytest.mark.parametrize("n,ell", [(3, 1), (7, 2), (11, 3), (15, 4)])
    def test_ell(self, n, ell):
        assert udisj._ell(n) == ell


class TestFunctionTables:
    def test_json_round_trip(self):
        t = FunctionTable(2, ["1/2", 0, 3, "7/5"])
        again = FunctionTable.from_json(t.to_json())
        assert again.values == t.values and again.n == 2

    def test_wrong_length(self):
        with pytest.raises(InputError):
            FunctionTable(2, [1, 2, 3])

    def test_builtins(self):
        ones = FunctionTable.ones(2)
        assert all(v == 1 for v in ones.values)
        ind = parse_function("set:5", 3)
        assert ind(0b101) == 1 and sum(ind.values) == 1
        has2 = parse_function("contains:2", 3)
        assert has2(0b010) == 1 and has2(0b110) == 1 and has2(0b101) == 0
        no2 = parse_function("avoids:2", 3)
        assert all(has2(m) + no2(m) == 1 for m in range(8))

    def test_parse(self):
        assert parse_function("ones", 3).values == FunctionTable.ones(3).values
        assert parse_function("set:5", 3)(5) == 1
        assert parse_function("contains:1", 3)(0b001) == 1
        assert parse_function("avoids:3", 3)(0b100) == 0
        for bad in ("mystery", "set:99", "contains:0", "set:x"):
            with pytest.raises(InputError):
                parse_function(bad, 3)


class TestBuildShift:
    def test_n1_rho1(self):
        M = build_shift(1, 1)
        assert M.tolist() == [[1, 1], [1, 0]]

    def test_n1_rho2(self):
        M = build_shift(1, 2)
        assert M.tolist() == [[2, 2], [2, 1]]

    def test_n2_full_intersection_entry(self):
        # a = b = {1,2}: |a&b| = 2, default fill gives (1-2)^2 + 0 = 1
        M = build_shift(2, 1)
        assert M[3, 3] == 1

    @pytest.mark.parametrize("rho", [Fraction(1), Fraction(3, 2), Fraction(2)])
    def test_fill_rule_never_touches_the_classes(self, rho):
        hard = build_shift(3, rho)
        const = build_shift(3, rho, Fraction(9))
        for a in range(8):
            for b in range(8):
                inter = (a & b).bit_count()
                if inter == 0:
                    assert hard[a, b] == const[a, b] == rho
                elif inter == 1:
                    assert hard[a, b] == const[a, b] == rho - 1
                else:
                    assert const[a, b] == 9
                    assert hard[a, b] == (1 - inter) ** 2 + rho - 1

    def test_nonneg_for_rho_at_least_one(self):
        assert build_shift(3, 1).is_nonneg()
        assert build_shift(3, Fraction(5, 4)).is_nonneg()

    def test_rho_below_one_rejected(self):
        with pytest.raises(InputError):
            build_shift(2, Fraction(1, 2))

    def test_budget(self):
        with pytest.raises(BudgetError):
            build_shift(15, 1)


class TestEnumClasses:
    def test_n3_sizes(self):
        A, B = enum_classes(3)
        assert len(A) == 6 and len(B) == 3

    def test_n7_sizes(self):
        A, B = enum_classes(7)
        assert len(A) == 210 and len(B) == 210

    @pytest.mark.parametrize("n", [3, 7, 11])
    def test_equals_all_pairs_filter(self, n):
        # the lists read off the partner masks are the filter of all pairs
        # of l-subsets, in the same order
        subs = list(ksubsets((1 << n) - 1, udisj._ell(n)))
        A = [(a, b) for a in subs for b in subs if (a & b).bit_count() == 0]
        B = [(a, b) for a in subs for b in subs if (a & b).bit_count() == 1]
        assert enum_classes(n) == (A, B)

    def test_classes_disjoint_and_well_formed(self):
        A, B = enum_classes(7)
        assert not set(A) & set(B)
        for a, b in A:
            assert a.bit_count() == 2 and b.bit_count() == 2
            assert (a & b).bit_count() == 0
        for a, b in B:
            assert (a & b).bit_count() == 1


class TestMu:
    @pytest.mark.parametrize("n", [3, 7])
    def test_class_masses(self, n):
        # internal checks also cover support = A u B and equiprobability
        assert mu_class_probabilities(n) == (Fraction(3, 4), Fraction(1, 4))


class TestCondExpect:
    def test_constant_one(self):
        ones = FunctionTable.ones(3)
        assert cond_expect(ones, ones) == (Fraction(1), Fraction(1))

    def test_point_indicator(self):
        # f = g = indicator of the single set {1}: disjoint pairs never hit
        # it twice, the B pair ({1},{1}) is one of three
        ind = parse_function("set:1", 3)
        assert cond_expect(ind, ind) == (Fraction(0), Fraction(1, 3))

    def test_negative_rejected(self):
        bad = FunctionTable(3, [1] * 7 + [-1])
        with pytest.raises(InputError):
            cond_expect(bad, FunctionTable.ones(3))

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            cond_expect(FunctionTable.ones(7), FunctionTable.ones(3))


class TestRowColStats:
    def test_point_indicator_partition(self):
        # T1 = {2}, T2 = {3}, i = 1, f = g = indicator of {1}:
        # the only a containing i is {1} itself
        ind = parse_function("set:1", 3)
        st = row_col_stats(ind, ind, PartitionT(t1=0b010, t2=0b100, i=1))
        assert st.row1 == 1 and st.row0 == 0
        assert st.col1 == 1 and st.col0 == 0

    @pytest.mark.parametrize("n,seed", [(3, 0), (3, 1), (7, 2)])
    def test_row_average_is_unconditional_expectation(self, n, seed):
        # (row0 + row1)/2 = E[f(a) | T] since i lands in a with chance 1/2
        rng = random.Random(seed)
        f = random_table(n, rng)
        g = FunctionTable.ones(n)
        for T in partitions(n):
            st = row_col_stats(f, g, T)
            pool = list(ksubsets(T.t1 | (1 << (T.i - 1)), udisj._ell(n)))
            expect = sum((f(m) for m in pool), Fraction(0)) / len(pool)
            assert (st.row0 + st.row1) / 2 == expect

    @pytest.mark.parametrize("n,seed", [(3, 4), (7, 5)])
    def test_cached_sums_match_row_col_stats(self, n, seed):
        # the subset-sum tables that razborov_identities reads hold, at every
        # partition, the sums over T1's l-subsets and over {i} plus T1's
        # (l-1)-subsets (the same for T2), and row_col_stats reads them too
        ell = udisj._ell(n)
        rng = random.Random(seed)
        f, g = _fraction_table(n, rng), _fraction_table(n, rng)
        k0 = math.comb(2 * ell - 1, ell)
        k1 = math.comb(2 * ell - 1, ell - 1)
        (F, df), (G, dg) = _over(f.values), _over(g.values)
        zf, zg = udisj._subset_sums(F, n, ell), udisj._subset_sums(G, n, ell)
        for T in partitions(n):
            ibit = 1 << (T.i - 1)
            sums = [sum(V[m] for m in ksubsets(t, ell)) for V, t in ((F, T.t1), (G, T.t2))]
            sums_i = [sum(V[m | ibit] for m in ksubsets(t, ell - 1))
                      for V, t in ((F, T.t1), (G, T.t2))]
            assert [zf[T.t1], zg[T.t2]] == sums
            assert [zf[T.t1 | ibit] - zf[T.t1], zg[T.t2 | ibit] - zg[T.t2]] == sums_i
            st = row_col_stats(f, g, T)
            assert (st.row0, st.row1, st.col0, st.col1) == (
                Fraction(sums[0], k0 * df), Fraction(sums_i[0], k1 * df),
                Fraction(sums[1], k0 * dg), Fraction(sums_i[1], k1 * dg))

    def test_partition_validation(self):
        ones = FunctionTable.ones(3)
        with pytest.raises(InputError):  # overlap
            row_col_stats(ones, ones, PartitionT(t1=0b011, t2=0b100, i=1))
        with pytest.raises(InputError):  # i inside T1
            row_col_stats(ones, ones, PartitionT(t1=0b001, t2=0b100, i=1))
        with pytest.raises(InputError):  # wrong sizes
            row_col_stats(ones, ones, PartitionT(t1=0b110, t2=0b000, i=1))
        with pytest.raises(InputError):  # i out of range
            row_col_stats(ones, ones, PartitionT(t1=0b010, t2=0b100, i=5))

    def test_size_mismatch(self):
        # T partitions [3]; tables over 7 and 3 have no common ground set
        T = PartitionT(t1=0b010, t2=0b100, i=1)
        for f, g in ((7, 3), (3, 7)):
            with pytest.raises(InputError):
                row_col_stats(FunctionTable.ones(f), FunctionTable.ones(g), T)


class TestRazborovIdentities:
    def test_point_indicator_exact_sides(self):
        ind = parse_function("set:1", 3)
        rep = razborov_identities(ind, ind)
        assert rep.ok
        assert rep.expectation_a == (Fraction(0), Fraction(0))
        assert rep.expectation_b == (Fraction(1, 3), Fraction(1, 3))

    @pytest.mark.parametrize("n,seed", [(3, 0), (3, 1), (3, 2), (3, 3), (7, 0), (7, 1)])
    def test_random_functions(self, n, seed):
        # the two computation paths (conditioning on the class versus
        # averaging row/col statistics over partitions) must agree exactly
        rng = random.Random(seed)
        rep = razborov_identities(random_table(n, rng), random_table(n, rng))
        assert rep.ok
        assert rep.expectation_a[0] == rep.expectation_a[1]
        assert rep.expectation_b[0] == rep.expectation_b[1]
        assert len(rep.marginals) == math.comb(n, 2 * udisj._ell(n) - 1)
        for _, left, right in rep.marginals:
            assert left == right

    def test_budget(self):
        ones = FunctionTable.ones(15)
        with pytest.raises(BudgetError):
            razborov_identities(ones, ones)

    def test_size_mismatch(self):
        for f, g in ((7, 3), (3, 7)):
            with pytest.raises(InputError):
                razborov_identities(FunctionTable.ones(f), FunctionTable.ones(g))


class TestEntropyGap:
    def test_quarter_point(self):
        # 1 - H(1/4) = 0.18872..., Taylor term (1/2)^2/(2 ln 2) = 0.18033...
        gap = entropy_gap(0.25)
        direct = (1 - (-(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75)))) \
            - 0.25 / (2 * math.log(2))
        assert gap == pytest.approx(direct, abs=1e-15)
        assert gap > 0.008

    def test_zero_at_half(self):
        assert abs(entropy_gap(0.5)) < 1e-15

    def test_symmetry(self):
        for x in (0.1, 0.23, 0.42, 0.31):
            assert entropy_gap(x) == pytest.approx(entropy_gap(1 - x), abs=1e-12)

    def test_grid_nonnegative(self):
        for k in range(1, 1000):
            x = k / 1000
            assert entropy_gap(x) >= -1e-12

    @pytest.mark.parametrize("x", [0, 1, -0.5, 2, 1.0000001])
    def test_domain(self, x):
        with pytest.raises(InputError):
            entropy_gap(x)

    def test_fraction_accepted(self):
        assert entropy_gap(Fraction(1, 4)) == entropy_gap(0.25)


class TestCorruptionRhs:
    def test_unit_epsilon_sixteen(self):
        # exponent -16/(16 ln 2) = -1/ln 2, and 2^(1/ln 2) = e
        v = corruption_rhs(1, 16)
        assert v == pytest.approx(math.exp(-1), abs=1e-12)

    def test_small_epsilon_near_one(self):
        assert corruption_rhs(Fraction(1, 10 ** 6), 4) == \
            pytest.approx(1.0, abs=1e-9)

    def test_doubling_ell_squares(self):
        for ell in (4, 16, 64):
            assert corruption_rhs(Fraction(1, 2), 2 * ell) == \
                pytest.approx(corruption_rhs(Fraction(1, 2), ell) ** 2, rel=1e-12)

    def test_strictly_decreasing_in_ell(self):
        vals = [corruption_rhs(Fraction(1, 3), ell) for ell in range(1, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_log_term(self):
        base = corruption_rhs(Fraction(1, 2), 8)
        with_c = corruption_rhs(Fraction(1, 2), 8, C=2)
        assert with_c == pytest.approx(base * 64, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InputError):
            corruption_rhs(1, 0)
        with pytest.raises(InputError):
            corruption_rhs(0, 16)
        with pytest.raises(InputError):
            corruption_rhs(Fraction(3, 2), 16)
        with pytest.raises(InputError):
            corruption_rhs(Fraction(1, 2), 16, C=-1)


class TestShiftRankLb:
    def test_small_n_clamps_to_one(self):
        # raw value (1/2) * 2^(4/(64 ln 2)) ~ 0.532, below the clamp
        assert shift_rank_lb(15, 1, Fraction(1, 2)) == 1.0

    def test_large_n_exponential(self):
        v = shift_rank_lb(4443, 1, Fraction(1, 2))
        assert math.log2(v) == pytest.approx(1111 / (64 * math.log(2)) - 1, abs=1e-9)
        assert math.log2(v) == pytest.approx(24.044, abs=1e-2)

    def test_auto_epsilon(self):
        assert shift_rank_lb(4443, 1) == \
            shift_rank_lb(4443, 1, Fraction(1, 2))

    def test_vacuous_epsilon_rejected(self):
        with pytest.raises(InputError):
            shift_rank_lb(15, 2, Fraction(1, 2))
        with pytest.raises(InputError):
            shift_rank_lb(15, 1, 1)

    def test_nonincreasing_in_rho(self):
        eps = Fraction(1, 8)
        vals = [shift_rank_lb(4443, rho, eps)
                for rho in (1, Fraction(3, 2), 2, 3, 4, 6)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_bound_beyond_float_range(self):
        with pytest.raises(InputError):
            shift_rank_lb(200003, 1)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            shift_rank_lb(14, 1)
        with pytest.raises(InputError):
            shift_rank_lb(15, Fraction(1, 2))


class TestRectangleScan:
    def test_exhaustive_n3(self):
        rep = rectangle_corruption_scan(3, Fraction(1, 2), mode="exhaustive")
        assert rep.scanned == 65536
        assert rep.best_value == Fraction(1, 6)
        assert rep.zero_b_max == Fraction(1, 3)

    def test_named_rectangle_and_full_rectangle(self):
        eps = Fraction(1, 3)
        rep = rectangle_corruption_scan(3, eps, mode="exhaustive", keep_records=True)
        by_id = {rid: (pa, pb, val) for rid, pa, pb, val in rep.records}
        # rows {{1}}: subset mask 1; cols {{2},{3}}: subset masks 2 and 4
        rid = f"r{1 << 1:x}.c{(1 << 2) | (1 << 4):x}"
        pa, pb, val = by_id[rid]
        assert (pa, pb) == (Fraction(1, 3), Fraction(0))
        assert val == (1 - eps) / 3
        # full rectangle has both probabilities 1, value -eps
        full = f"r{255:x}.c{255:x}"
        assert by_id[full] == (Fraction(1), Fraction(1), -eps)

    def test_best_rect_achieves_reported_value(self):
        eps = Fraction(1, 4)
        rep = rectangle_corruption_scan(3, eps, mode="exhaustive")
        A, B = enum_classes(3)
        rs, cs = rep.best_rect
        pa = Fraction(sum(1 for a, b in A if (rs >> a) & 1 and (cs >> b) & 1), len(A))
        pb = Fraction(sum(1 for a, b in B if (rs >> a) & 1 and (cs >> b) & 1), len(B))
        assert (1 - eps) * pa - pb == rep.best_value
        # and the zero-B witness really has P(R|B) = 0
        zs, zc = rep.zero_b_rect
        assert sum(1 for a, b in B if (zs >> a) & 1 and (zc >> b) & 1) == 0

    def test_sampled_mode_deterministic(self):
        r1 = rectangle_corruption_scan(7, Fraction(1, 2), mode="sample", seed=11, count=40)
        r2 = rectangle_corruption_scan(7, Fraction(1, 2), mode="sample", seed=11, count=40)
        assert r1.scanned == r2.scanned == 40
        assert r1.best_value == r2.best_value and r1.best_rect == r2.best_rect
        assert r1.zero_b_max is None

    def test_sampled_scan_memory_stays_flat(self):
        # without keep_records a sampled scan keeps only the running best:
        # 10 000 rectangles held as records would take about 800 kB
        tracemalloc.start()
        try:
            rep = rectangle_corruption_scan(3, Fraction(1, 2), mode="sample",
                                            seed=1, count=10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.scanned == 10_000 and rep.row_blocks == []
        assert peak < 100_000

    @pytest.mark.parametrize("mode, keep", [("exhaustive", False), ("exhaustive", True),
                                            ("sample", False), ("sample", True)])
    def test_expired_deadline_raises(self, mode, keep):
        set_budget_ms(0)
        try:
            with pytest.raises(BudgetError):
                rectangle_corruption_scan(3, Fraction(1, 2), mode=mode,
                                          count=5, keep_records=keep)
        finally:
            set_budget_ms(None)

    def test_counting_kernel_polls_the_deadline(self):
        # the l-subset masks are built before the deadline expires, so only
        # the kernel's own poll can stop it; 0b10110 holds the three
        # l-subsets {1}, {2}, {3} (masks 1, 2, 4), so its square meets all
        # 6 pairs of A and 3 of B
        rows = udisj._neighbour_masks(3)
        rects = udisj._counts(rows, 8, [(0b10110, 0b10110)])
        set_budget_ms(0)
        try:
            with pytest.raises(BudgetError):
                next(rects)
        finally:
            set_budget_ms(None)
        assert list(udisj._counts(rows, 8, [(0b10110, 0b10110)])) == [(22, 22, 6, 3)]

    def test_exhaustive_budget(self):
        with pytest.raises(BudgetError):
            rectangle_corruption_scan(7, Fraction(1, 2), mode="exhaustive")

    def test_bad_mode_and_eps(self):
        with pytest.raises(InputError):
            rectangle_corruption_scan(3, Fraction(1, 2), mode="walk")
        with pytest.raises(InputError):
            rectangle_corruption_scan(3, Fraction(3, 2))
        with pytest.raises(InputError):
            rectangle_corruption_scan(3, Fraction(1, 2), mode="sample", count=0)

    def test_csv_rows(self):
        rep = rectangle_corruption_scan(3, Fraction(1, 2), mode="sample",
                                        seed=0, count=5, keep_records=True)
        rows = [tuple(line.split(",")) for line in rep.csv_text().splitlines()]
        assert rows[0] == ("rectangle-id", "p_a", "p_b", "value")
        assert len(rows) == 6


class TestMuChecks:
    def _corrupt_classes(self, monkeypatch):
        # drop one disjoint pair: mu's support is then no longer A union B
        genuine = udisj.enum_classes

        def short_a(n):
            A, B = genuine(n)
            return A[1:], B
        monkeypatch.setattr(udisj, "enum_classes", short_a)

    def test_support_mismatch_raises(self, monkeypatch):
        self._corrupt_classes(monkeypatch)
        with pytest.raises(VerificationError):
            mu_class_probabilities(3)

    def test_raises_under_python_O(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(udisj.__file__)))
        code = (
            "import sys\n"
            "from efbound import VerificationError, udisj\n"
            "assert False, 'asserts are live'\n"
            "genuine = udisj.enum_classes\n"
            "udisj.enum_classes = lambda n: (genuine(n)[0][1:], genuine(n)[1])\n"
            "try:\n"
            "    udisj.mu_class_probabilities(3)\n"
            "except VerificationError:\n"
            "    print('rejected', sys.flags.optimize)\n")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["rejected", "1"]


# --- direct Fraction definitions for the property tests ---

def _mask(elements):
    return sum(1 << e for e in elements)


def _direct_probs(A, B, rs, cs):
    """(P(R|A), P(R|B)) by counting the pairs of each class inside R."""
    return tuple(Fraction(sum(1 for a, b in pairs if (rs >> a) & 1 and (cs >> b) & 1),
                          len(pairs)) for pairs in (A, B))


@functools.cache
def _n3_rectangles():
    """(rows, cols, |R & A|, |R & B|) of all n=3 rectangles, rows-major."""
    A, B = enum_classes(3)
    return [(rs, cs) + tuple(sum(1 for a, b in pairs if (rs >> a) & 1 and (cs >> b) & 1)
                             for pairs in (A, B))
            for rs in range(256) for cs in range(256)]


def _best(rects, eps):
    """First maximizer in scan order, by Fraction comparison."""
    best = None
    for rs, cs, pa, pb in rects:
        val = (1 - eps) * pa - pb
        if best is None or val > best[0]:
            best = (val, (rs, cs))
    return best


epsilons = st.one_of(
    st.just(Fraction(0)),
    st.integers(1, 1 << 20).flatmap(
        lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q))))


def _fraction_table(n, rng):
    # mixed denominators, zeros included, as the CLI's --trials tables
    return FunctionTable(
        n, [Fraction(rng.randrange(0, 30), rng.randrange(1, 40)) for _ in range(1 << n)])


def _direct_razborov(f, g, n):
    """Both right-hand sides and the per-T2 marginals by plain Fraction
    averages over an independent enumeration of the partitions."""
    ell = (n + 1) // 4

    def mean(vals):
        vals = list(vals)
        return sum(vals, Fraction(0)) / len(vals)

    sum_a, sum_b, per_t2 = [], [], {}
    for i in range(n):
        rest = [e for e in range(n) if e != i]
        for t1 in combinations(rest, 2 * ell - 1):
            t2 = [e for e in rest if e not in t1]
            row0 = mean(f(_mask(a)) for a in combinations(t1, ell))
            row1 = mean(f(_mask(a) | 1 << i) for a in combinations(t1, ell - 1))
            col0 = mean(g(_mask(b)) for b in combinations(t2, ell))
            col1 = mean(g(_mask(b) | 1 << i) for b in combinations(t2, ell - 1))
            sum_a.append(row0 * col0)
            sum_b.append(row1 * col1)
            per_t2.setdefault(_mask(t2), []).append((row0, row1))
    marginals = [(t2, mean(r0 for r0, _ in rows), mean(r1 for _, r1 in rows))
                 for t2, rows in sorted(per_t2.items())]
    return mean(sum_a), mean(sum_b), marginals


def _reference_razborov_failure(cert):
    """The razborov-failure check in plain Fractions: some identity fails,
    with E[X | A] and E[X | B] averaged over the pairs of l-subsets that
    meet in no and in one element, found by intersecting every two, and the
    right-hand sides and marginals by _direct_razborov."""
    n = cert["n"]
    f, g = ([Fraction(v) for v in cert[name]["values"]] for name in "fg")
    ell = (n + 1) // 4
    subs = [m for m in range(1 << n) if m.bit_count() == ell]

    def lhs(meet):
        vals = [f[a] * g[b] for a in subs for b in subs if (a & b).bit_count() == meet]
        return sum(vals, Fraction(0)) / len(vals)
    rhs_a, rhs_b, marginals = _direct_razborov(f.__getitem__, g.__getitem__, n)
    return not (lhs(0) == rhs_a and lhs(1) == rhs_b
                and all(left == right for _, left, right in marginals))


class TestProperties:
    @settings(max_examples=10, deadline=None)
    @given(epsilons, st.booleans())
    def test_exhaustive_scan_against_direct_count(self, eps, keep):
        # the 65536 rectangles take 6 x 3 count pairs; each pair's Fractions
        # come from the definition, the maximizers from a plain scan
        rects = _n3_rectangles()
        defined = {(ca, cb): (Fraction(ca, 6), Fraction(cb, 3),
                              (1 - eps) * Fraction(ca, 6) - Fraction(cb, 3))
                   for ca in range(7) for cb in range(4)}
        rep = rectangle_corruption_scan(3, eps, keep_records=keep)
        best = max(defined[ca, cb][2] for _, _, ca, cb in rects)
        first = next((rs, cs) for rs, cs, ca, cb in rects if defined[ca, cb][2] == best)
        assert (rep.best_value, rep.best_rect) == (best, first)
        zero = max(ca for _, _, ca, cb in rects if cb == 0)
        first = next((rs, cs) for rs, cs, ca, cb in rects if (ca, cb) == (zero, 0))
        assert (rep.zero_b_max, rep.zero_b_rect) == (Fraction(zero, 6), first)
        if keep:
            assert rep.records == [(f"r{rs:x}.c{cs:x}",) + defined[ca, cb]
                                   for rs, cs, ca, cb in rects]

    @settings(max_examples=10, deadline=None)
    @given(epsilons)
    def test_exhaustive_csv_against_direct_text(self, eps):
        # one line per rectangle of the lattice, rows-major, each rendered
        # from the definition's Fractions
        lines = ["rectangle-id,p_a,p_b,value"]
        tails = {}
        for rs, cs, ca, cb in _n3_rectangles():
            if (ca, cb) not in tails:
                pa, pb = Fraction(ca, 6), Fraction(cb, 3)
                tails[ca, cb] = ",".join(rat_str(x) for x in (pa, pb, (1 - eps) * pa - pb))
            lines.append(f"r{rs:x}.c{cs:x},{tails[ca, cb]}")
        rep = rectangle_corruption_scan(3, eps, keep_records=True)
        # compared line by line: a failing comparison of the whole 1.4 MB
        # strings would have pytest diff them
        assert rep.csv_text().split("\n") == lines + [""]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([3, 7, 11]), epsilons, st.integers(0, 10 ** 6),
           st.integers(1, 12), st.booleans())
    def test_sampled_scan_against_direct_count(self, n, eps, seed, count, keep):
        A, B = enum_classes(n)
        rng = random.Random(seed)
        rects = []
        for _ in range(count):
            rs = rng.getrandbits(1 << n)
            cs = rng.getrandbits(1 << n)
            rects.append((rs, cs) + _direct_probs(A, B, rs, cs))
        rep = rectangle_corruption_scan(n, eps, mode="sample", seed=seed, count=count,
                                        keep_records=keep)
        assert rep.scanned == count
        assert (rep.best_value, rep.best_rect) == _best(rects, eps)
        assert rep.zero_b_max is None and rep.zero_b_rect is None
        assert rep.records == ([(f"r{rs:x}.c{cs:x}", pa, pb, (1 - eps) * pa - pb)
                                for rs, cs, pa, pb in rects] if keep else [])

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([3, 7, 11]), epsilons, st.integers(0, 10 ** 6), st.integers(1, 60))
    def test_csv_rows_match_records(self, n, eps, seed, count):
        # the CSV renders int counts with one cached tail per (ca, cb); the
        # records are the Fractions those counts define
        rep = rectangle_corruption_scan(n, eps, mode="sample", seed=seed,
                                        count=count, keep_records=True)
        rows = [tuple(line.split(",")) for line in rep.csv_text().splitlines()]
        assert rows == [("rectangle-id", "p_a", "p_b", "value")] + [
            (rid, rat_str(pa), rat_str(pb), rat_str(val)) for rid, pa, pb, val in rep.records]
        assert len(rep.records) == count

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([3, 7]), st.integers(0, 10 ** 6))
    def test_razborov_against_fraction_definition(self, n, seed):
        rng = random.Random(seed)
        f, g = _fraction_table(n, rng), _fraction_table(n, rng)
        A, B = enum_classes(n)
        direct_a = sum((f(a) * g(b) for a, b in A), Fraction(0)) / len(A)
        direct_b = sum((f(a) * g(b) for a, b in B), Fraction(0)) / len(B)
        assert cond_expect(f, g) == (direct_a, direct_b)
        rhs_a, rhs_b, marginals = _direct_razborov(f, g, n)
        rep = razborov_identities(f, g)
        assert rep.expectation_a == (direct_a, rhs_a)
        assert rep.expectation_b == (direct_b, rhs_b)
        assert rep.marginals == marginals
        assert rep.ok

    def test_mutated_razborov_failure_matches_reference(self, tmp_path_factory):
        """check-cert's verdict on a razborov-failure certificate over two
        n = 3 tables, one entry changed by a nonzero rational, is the plain
        Fraction check's; a negative entry exits 2."""
        d = tmp_path_factory.mktemp("razborov")
        value = st.fractions(0, 4, max_denominator=3)
        table = st.lists(value, min_size=8, max_size=8)

        @settings(max_examples=30, deadline=None)
        @given(table, table, st.sampled_from("fg"), st.integers(0, 7),
               st.fractions(-3, 3, max_denominator=5).filter(bool))
        @example([1] * 8, [1] * 8, "g", 5, Fraction(-1, 2))  # a valid table: exit 1
        @example([1] * 8, [1] * 8, "f", 0, Fraction(-2))  # a negative entry: exit 2
        def prop(f, g, name, k, delta):
            cert = {"kind": "razborov-failure", "n": 3,
                    "f": {"n": 3, "values": [str(v) for v in f]},
                    "g": {"n": 3, "values": [str(v) for v in g]}}
            changed = Fraction(cert[name]["values"][k]) + delta
            cert[name]["values"][k] = str(changed)
            (d / "c.json").write_text(json.dumps(cert))
            rc = cli.main(["check-cert", "--cert", str(d / "c.json"),
                           "--out", str(d / "o.json")])
            if changed < 0:
                assert rc == 2
            else:
                assert rc == (0 if _reference_razborov_failure(cert) else 1)
        prop()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5),
           st.fractions(min_value=1, max_value=50, max_denominator=1000),
           st.fractions(min_value=-50, max_value=50, max_denominator=1000))
    def test_constant_fill_shift_closed_form(self, n, rho, fill):
        M = build_shift(n, rho, fill)
        closed = {0: rho, 1: rho - 1}
        assert M.tolist() == [[closed.get((a & b).bit_count(), fill)
                               for b in range(1 << n)] for a in range(1 << n)]
