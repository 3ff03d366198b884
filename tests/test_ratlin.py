import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efbound
from efbound import (
    BudgetError,
    InputError,
    LpResult,
    RationalMatrix,
    VerificationError,
    lp_feasible_each,
    lp_solve,
    lp_solve_each,
    mat_rank,
    rat,
    rat_str,
    ratlin,
    rats,
)
from efbound.errors import set_budget_ms
from efbound.ratlin import _verify_lp, dot, row_basis


class TestRat:
    @pytest.mark.parametrize("raw,expect", [
        ("3", F(3)), ("-7/2", F(-7, 2)), (" 5/10 ", F(1, 2)), (4, F(4)),
        (F(2, 6), F(1, 3)),
    ])
    def test_parse(self, raw, expect):
        assert rat(raw) == expect

    def test_float_rejected(self):
        with pytest.raises(InputError):
            rat(0.5)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_rejected(self, flag):
        # JSON true/false must not load as 1/0
        with pytest.raises(InputError):
            rat(flag)

    def test_garbage_rejected(self):
        with pytest.raises(InputError):
            rat("1/0")
        with pytest.raises(InputError):
            rat("abc")
        with pytest.raises(InputError):
            rat(None)

    def test_canonical_string(self):
        assert rat_str(F(4, 2)) == "2"
        assert rat_str(F(-1, 3)) == "-1/3"
        assert rat_str(0) == "0"

    @pytest.mark.parametrize("raw,expect", [
        ("+3", F(3)), (" 3 ", F(3)), ("1.5", F(3, 2)), ("1e3", F(1000)), ("3_000", F(3000)),
        ("٣", F(3)), ("-0", F(0)), ("007", F(7)), ("-0/5", F(0)), ("-007/014", F(-1, 2)),
        ("1/0", None), ("3/-4", None), ("3/ 4", None), ("0x10", None), ("", None),
        ("1/2/3", None), ("--3", None), ("1" * 5000, None), ("2/" + "1" * 5000, None),
    ])
    def test_string_syntax(self, raw, expect):
        """Canonical or not, a string reads as Fraction(raw.strip()) does;
        one that Fraction refuses, or that has more digits than int() reads,
        is an InputError naming it, from rat and from rats alike."""
        if expect is None:
            message = f"cannot parse rational from {raw!r}"
            with pytest.raises(InputError) as ei:
                rat(raw)
            assert str(ei.value) == message
            with pytest.raises(InputError) as ei:
                rats(["1", raw, "1/0"])
            assert str(ei.value) == message
        else:
            assert rat(raw) == expect and type(rat(raw)) is F
            assert rats([raw, "2", raw]) == [expect, F(2), expect]

    def test_canonical_strings_round_trip(self):
        rng = random.Random(30)
        for _ in range(300):
            q = F(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 6))
            assert rat(rat_str(q)) == q
            assert rats([rat_str(q)] * 3) == [q] * 3


_ENTRY_TEXT = st.one_of(
    st.sampled_from(["0", "-0", "1", "-7/2", "6/4", "+3", " 3 ", "1.5", "1e3", "3_000",
                     "٣", "007", "1/0", "3/-4", "3/ 4", "0x10", "", "abc",
                     "1" * 5000]),
    st.from_regex(r"\A-?[0-9]{1,4}(/[0-9]{1,3})?\Z"),
    st.text(alphabet="0123456789-+/. _e", max_size=6))
_ENTRY = st.one_of(_ENTRY_TEXT, st.integers(-9, 9), st.booleans(),
                   st.floats(allow_nan=False), st.fractions(max_denominator=9), st.none())


def _outcome(f, xs):
    try:
        return "ok", f(xs)
    except Exception as exc:  # noqa: BLE001 -- the type and message are compared
        return type(exc), str(exc)


class TestRats:
    @settings(max_examples=300, deadline=None)
    @given(xs=st.one_of(st.lists(_ENTRY_TEXT, max_size=8), st.lists(_ENTRY, max_size=8),
                        st.lists(st.fractions(), max_size=8)))
    def test_matches_rat_per_entry(self, xs):
        """rats(xs) is [rat(x) for x in xs], or the same exception type with
        the same message; every entry it returns is a Fraction."""
        got = _outcome(rats, xs)
        assert got == _outcome(lambda v: [rat(x) for x in v], xs)
        if got[0] == "ok":
            assert all(type(q) is F for q in got[1])

    def test_copies_and_iterables(self):
        xs = [F(1, 2), F(3)]
        out = rats(xs)
        assert out == xs and out is not xs
        assert rats(iter(["1", "1/2"])) == [F(1), F(1, 2)]
        assert rats(("1", 2, F(1, 3))) == [F(1), F(2), F(1, 3)]
        assert rats([]) == []

    @pytest.mark.parametrize("xs", ["1234", "", {"1": 0, "2": 0}])
    def test_string_or_dict_refused(self, xs):
        """A string is not read one character at a time, nor a dict as its
        keys: both are malformed where a list of rationals belongs."""
        with pytest.raises(InputError, match="expected a list of rationals"):
            rats(xs)

    def test_same_under_python_O(self):
        """No check in rat or rats rests on assert: the values and the
        refusals under python -O are the ones of this process."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(efbound.__file__)))
        code = (
            "from efbound import InputError, rat, rats\n"
            "assert False, 'asserts are live'\n"
            "for raw in ['-7/2', ' 6/4 ', '1.5', '1/0', '3/-4', '1' * 5000, True, 0.5]:\n"
            "    for f in (rat, lambda x: rats([x, x])):\n"
            "        try:\n"
            "            print(repr(f(raw)))\n"
            "        except InputError as exc:\n"
            "            print('InputError', exc)\n")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        expect = []
        for raw in ["-7/2", " 6/4 ", "1.5", "1/0", "3/-4", "1" * 5000, True, 0.5]:
            for f in (rat, lambda x: rats([x, x])):
                try:
                    expect.append(repr(f(raw)))
                except InputError as exc:
                    expect.append(f"InputError {exc}")
        assert proc.stdout.splitlines() == expect
        assert sum(line.startswith("InputError") for line in expect) == 10


class TestRationalMatrix:
    def test_json_round_trip(self):
        M = RationalMatrix.from_rows([[F(1, 2), 3], [-1, F(7, 5)]])
        d = M.to_json()
        assert d == {"rows": 2, "cols": 2, "entries": ["1/2", "3", "-1", "7/5"]}
        assert RationalMatrix.from_json(d) == M

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 50)), min_size=1, max_size=6),
           st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["shared", "copy", "int"])),
                    min_size=1, max_size=40))
    def test_to_json_renders_each_entry(self, pool, picks):
        # shared Fraction objects beside equal but distinct ones, and ints
        # (each a new Fraction): the id-keyed memo must match rat_str per entry
        pool = [F(p, q) for p, q in pool]
        make = {"shared": lambda x: x,
                "copy": lambda x: F(x.numerator, x.denominator),
                "int": lambda x: x.numerator}
        entries = [make[how](pool[i % len(pool)]) for i, how in picks]
        M = RationalMatrix(1, len(entries), entries)
        assert M.to_json()["entries"] == [rat_str(x) for x in entries]

    def test_json_validation(self):
        with pytest.raises(InputError):
            RationalMatrix.from_json({"rows": 2, "cols": 2, "entries": ["1"]})
        with pytest.raises(InputError):
            RationalMatrix.from_json({"rows": 2})

    def test_matmul_identity(self):
        M = RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert RationalMatrix.identity(2) @ M == M
        assert M @ RationalMatrix.identity(3) == M

    def test_matmul_shapes(self):
        M = RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(InputError):
            M @ M

    def test_transpose_involution(self):
        rng = random.Random(7)
        M = RationalMatrix.from_rows(
            [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)] for _ in range(3)])
        assert M.transpose().transpose() == M
        assert M.transpose()[2, 1] == M[1, 2]

    def test_stack(self):
        A = RationalMatrix.from_rows([[1, 2], [3, 4]])
        B = RationalMatrix.from_rows([[5], [6]])
        H = RationalMatrix.hstack([A, B])
        assert H.tolist() == [[1, 2, 5], [3, 4, 6]]
        V = RationalMatrix.vstack([A, RationalMatrix.from_rows([[7, 8]])])
        assert V.rows == 3 and V.row(2) == [7, 8]

    def test_arithmetic(self):
        A = RationalMatrix.from_rows([[1, 2], [3, 4]])
        assert (A + A) == 2 * A
        assert (A - A) == RationalMatrix(2, 2)
        assert not (A - A * 2).is_nonneg()

    def test_no_entry_can_be_written(self):
        M = RationalMatrix.identity(2)
        with pytest.raises(TypeError):
            M[0, 1] = 1
        assert M == RationalMatrix.identity(2)
        assert not any(hasattr(M, name) for name in ("copy", "zeros", "__setitem__"))

    def test_shape_cannot_be_reassigned(self):
        """rows, cols and the entry list are set once, by the constructor;
        no assignment or deletion gets past it, under python -O too."""
        M = RationalMatrix.identity(2)
        for name, value in (("rows", 3), ("cols", 1), ("_e", [F(0)] * 6)):
            with pytest.raises(AttributeError):
                setattr(M, name, value)
            with pytest.raises(AttributeError):
                delattr(M, name)
        assert M == RationalMatrix.identity(2)
        assert RationalMatrix.from_json(M.to_json()) == M
        src = os.path.dirname(os.path.dirname(os.path.abspath(efbound.__file__)))
        code = ("from efbound import RationalMatrix\n"
                "assert False, 'asserts are live'\n"
                "M = RationalMatrix.identity(2)\n"
                "for name in ('rows', 'cols', '_e'):\n"
                "    try:\n"
                "        setattr(M, name, 3)\n"
                "    except AttributeError:\n"
                "        print('refused')\n"
                "print(M.rows, M.cols, len(M._e))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["refused"] * 3 + ["2", "2", "4"]

    @pytest.mark.parametrize("shape", [(2.5, 2), (2, 2.5), (True, 1, ["1"]), (1, False, []),
                                       ("2", 2), (2, None), (-1, 0)])
    def test_shape_is_checked_not_coerced(self, shape):
        with pytest.raises(InputError, match="matrix dimensions"):
            RationalMatrix(*shape)

    def test_refusals_under_python_O(self):
        """The string-for-list and shape refusals rest on no assert."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(efbound.__file__)))
        calls = ["rats('12')", "rats({'1': 0})", "RationalMatrix(2.5, 2)",
                 "RationalMatrix(True, 1, ['1'])", "VRep(2.5, [[0, 0]])",
                 "HRep(True, [[1]], [1])", "VRep(1, ['0'])", "HRep(1, [[1]], '1')"]
        code = ("from efbound import HRep, InputError, RationalMatrix, VRep, rats\n"
                "assert False, 'asserts are live'\n"
                f"for call in {calls!r}:\n"
                "    try:\n"
                "        eval(call)\n"
                "    except InputError:\n"
                "        print('refused')\n")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["refused"] * len(calls)


def _grids(draw, m, n):
    """An m x n nested list of small Fractions."""
    q = st.fractions(-4, 4, max_denominator=3)
    return [[draw(q) for _ in range(n)] for _ in range(m)]


class TestValueOperations:
    """Every matrix operation against a nested-list Fraction reference.
    Matrices are shared, never copied, so no operation may change the
    entries of an operand."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_match_reference_and_leave_operands(self, data):
        m, k, n, p = (data.draw(st.integers(0, 3)) for _ in range(4))
        a, a2, c = _grids(data.draw, m, k), _grids(data.draw, m, k), _grids(data.draw, m, n)
        b, d = _grids(data.draw, k, n), _grids(data.draw, p, k)
        s = data.draw(st.fractions(-4, 4, max_denominator=3))

        def mat(rows, cols, grid):
            return RationalMatrix(rows, cols, [x for r in grid for x in r])

        A, A2, B, C, D = mat(m, k, a), mat(m, k, a2), mat(k, n, b), mat(m, n, c), mat(p, k, d)
        operands = [(M, M.tolist()) for M in (A, A2, B, C, D)]
        cases = [
            (RationalMatrix.identity(k), k, k,
             [[F(int(i == j)) for j in range(k)] for i in range(k)]),
            (A.transpose(), k, m, [[a[i][j] for i in range(m)] for j in range(k)]),
            (A @ B, m, n, [[sum((a[i][t] * b[t][j] for t in range(k)), F(0)) for j in range(n)]
                           for i in range(m)]),
            (RationalMatrix.hstack([A, C]), m, k + n, [a[i] + c[i] for i in range(m)]),
            (RationalMatrix.vstack([A, D]), m + p, k, a + d),
            (A + A2, m, k, [[x + y for x, y in zip(r, r2)] for r, r2 in zip(a, a2)]),
            (A - A2, m, k, [[x - y for x, y in zip(r, r2)] for r, r2 in zip(a, a2)]),
            (A * s, m, k, [[s * x for x in r] for r in a]),
            (s * A, m, k, [[s * x for x in r] for r in a]),
            (RationalMatrix.from_json(A.to_json()), m, k, a),
        ]
        if m:
            cases.append((RationalMatrix.from_rows(a), m, k, a))
        for M, rows, cols, ref in cases:
            assert (M.rows, M.cols, M.tolist()) == (rows, cols, ref)
            assert all(type(x) is F for r in M.tolist() for x in r)
        assert all(M.tolist() == before for M, before in operands)


class TestRank:
    def test_small_cases(self):
        assert mat_rank(RationalMatrix.identity(4)) == 4
        assert mat_rank(RationalMatrix(3, 5)) == 0
        assert mat_rank([[1, 2], [2, 4]]) == 1
        assert mat_rank([[1, 2], [3, 4]]) == 2

    def test_fractional_entries(self):
        assert mat_rank([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]]) == 1

    def test_invariance(self):
        rng = random.Random(2024)
        for _ in range(25):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(m)]
            r = mat_rank(rows)
            assert r <= min(m, n)
            perm = rows[:]
            rng.shuffle(perm)
            assert mat_rank(perm) == r
            assert mat_rank(RationalMatrix.from_rows(rows).transpose()) == r

    def test_deadline_polled(self, monkeypatch):
        def spent():
            raise BudgetError("computation budget exhausted")
        monkeypatch.setattr(ratlin, "check_deadline", spent)
        with pytest.raises(BudgetError):
            mat_rank([[1, 2], [3, 4]])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_row_basis(self, data):
        # the chosen rows are sorted, distinct and independent, and every
        # other row lies in their span
        m, n = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 6))
        rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                                  min_size=m, max_size=m))
        # multiples of other rows make the basis smaller than m
        for _ in range(data.draw(st.integers(0, 3)) if rows else 0):
            k = data.draw(st.integers(0, len(rows) - 1))
            rows.insert(data.draw(st.integers(0, len(rows))),
                        [data.draw(st.integers(-2, 2)) * x for x in rows[k]])
        basis = row_basis(rows)
        assert basis == sorted(set(basis))
        assert len(basis) == mat_rank(rows)
        chosen = [rows[i] for i in basis]
        assert mat_rank(chosen) == len(basis)
        for i in set(range(len(rows))) - set(basis):
            assert mat_rank(chosen + [rows[i]]) == len(basis)

    def test_outer_product_rank_one(self):
        rng = random.Random(5)
        u = [F(rng.randint(1, 5)) for _ in range(4)]
        v = [F(rng.randint(-5, 5)) for _ in range(6)]
        assert mat_rank([[ui * vj for vj in v] for ui in u]) == 1


class TestLpSolve:
    def test_box_maximum(self):
        r = lp_solve([[-1], [1]], [0, 1], None, None, [1])
        assert r.status == "optimal"
        assert r.value == 1
        assert r.point == [F(1)]

    def test_infeasible_certificate(self):
        r = lp_solve([[1], [-1]], [-1, 0], None, None, [0])
        assert r.status == "infeasible"
        y = r.farkas_ineq
        assert all(v >= 0 for v in y)
        assert y[0] * 1 + y[1] * -1 == 0
        assert y[0] * -1 + y[1] * 0 < 0

    def test_unbounded_ray(self):
        r = lp_solve([[-1]], [0], None, None, [1])
        assert r.status == "unbounded"
        assert r.ray[0] > 0
        assert -r.ray[0] <= 0

    def test_fractional_optimum(self):
        r = lp_solve([[1, 1], [1, -1]], [F(4, 3), 0], None, None, [3, 2])
        assert r.status == "optimal"
        assert r.point == [F(2, 3), F(2, 3)]
        assert r.value == F(10, 3)

    def test_zero_row_constraint(self):
        # 0.x <= 1 is vacuous, 0.x <= -1 is absurd
        r = lp_solve([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]],
                     [1, 1, 0, 1, 0], None, None, [1, 1])
        assert r.status == "optimal" and r.value == 2
        r = lp_solve([[0]], [-1], None, None, [0])
        assert r.status == "infeasible"

    def test_input_validation(self):
        with pytest.raises(InputError):
            lp_solve([[1, 2]], [1], None, None, [1])
        with pytest.raises(InputError):
            lp_solve([[1]], [1, 2], None, None, [1])
        with pytest.raises(InputError):
            lp_solve([[1]], None, None, None, [1])

    def test_random_lps_verify(self):
        # the solver re-verifies internally; here we recheck the public
        # invariants from outside on a seeded batch
        rng = random.Random(99)
        seen = set()
        for _ in range(160):
            n = rng.randint(1, 3)
            mi = rng.randint(1, 4)
            me = rng.randint(0, 1)
            A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(mi)]
            b = [F(rng.randint(-2, 3)) for _ in range(mi)]
            E = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(me)]
            e = [F(rng.randint(-2, 2)) for _ in range(me)]
            c = [F(rng.randint(-3, 3)) for _ in range(n)]
            r = lp_solve(A, b, E or None, e or None, c)
            seen.add(r.status)
            if r.status == "optimal":
                assert all(dot(row, r.point) <= bi for row, bi in zip(A, b))
                assert dot(c, r.point) == r.value
                assert dot(r.dual_ineq, b) + dot(r.dual_eq, e) == r.value
                for i in range(mi):
                    assert r.dual_ineq[i] * (b[i] - dot(A[i], r.point)) == 0
            elif r.status == "infeasible":
                y, w = r.farkas_ineq, r.farkas_eq
                assert all(v >= 0 for v in y)
                assert dot(y, b) + dot(w, e) < 0
            else:
                assert dot(c, r.ray) > 0
                assert all(dot(row, r.ray) <= 0 for row in A)
        assert seen == {"optimal", "infeasible", "unbounded"}

    def test_determinism(self):
        A = [[1, 1], [1, -1], [-1, 0], [0, -1]]
        b = [4, 2, 0, 0]
        runs = [lp_solve(A, b, None, None, [2, 1]) for _ in range(3)]
        assert all(r.point == runs[0].point for r in runs)
        assert all(r.dual_ineq == runs[0].dual_ineq for r in runs)


class TestNonnegMask:
    def test_masked_column_needs_no_bound_row(self):
        # max x0 + x1 with x0 + x1 <= 3, x0 - x1 = 1, both >= 0
        r = lp_solve([[1, 1]], [3], [[1, -1]], [1], [1, 1], nonneg=[0, 1])
        assert r.status == "optimal" and r.value == 3
        assert r.point == [F(2), F(1)]

    def test_mask_decides_boundedness(self):
        assert lp_solve(None, None, None, None, [-1]).status == "unbounded"
        r = lp_solve(None, None, None, None, [-1], nonneg=[0])
        assert r.status == "optimal" and r.value == 0
        r = lp_solve(None, None, None, None, [1], nonneg=[0])
        assert r.status == "unbounded" and r.ray[0] > 0

    def test_farkas_on_masked_columns(self):
        # y0 + y1 = -1 has no nonnegative solution
        r = lp_solve(None, None, [[1, 1]], [-1], [0, 0], nonneg=[0, 1])
        assert r.status == "infeasible"
        w = r.farkas_eq
        assert w[0] >= 0 and w[0] * -1 < 0

    def test_bad_mask(self):
        with pytest.raises(InputError):
            lp_solve([[1]], [1], None, None, [1], nonneg=[1])
        with pytest.raises(InputError):
            lp_solve([[1]], [1], None, None, [1], nonneg=[-1])

    def test_each_matches_cold_solves(self):
        A, b = [[1, 1], [1, -1]], [4, 2]
        objs = [[1, 0], [0, 1], [-1, 0], [1, 1], [0, 0]]
        warm = list(lp_solve_each(A, b, None, None, objs, nonneg=[1]))
        cold = [lp_solve(A, b, None, None, c, nonneg=[1]) for c in objs]
        assert [r.status for r in warm] == [r.status for r in cold]
        assert [r.value for r in warm] == [r.value for r in cold]
        # later objectives start from where an unbounded one stopped
        assert [r.status for r in warm] == ["optimal", "unbounded", "unbounded",
                                            "optimal", "optimal"]

    def test_each_infeasible_region(self):
        out = list(lp_solve_each([[1], [-1]], [-1, 0], None, None, [[1], [0]]))
        assert [r.status for r in out] == ["infeasible", "infeasible"]
        assert out[0].farkas_ineq is not out[1].farkas_ineq
        assert list(lp_solve_each([[1]], [1], None, None, [])) == []
        with pytest.raises(InputError):
            list(lp_solve_each([[1, 0]], [1], None, None, [[1, 0], [1]]))


class TestLpBudget:
    def test_deadline_polled_per_pivot(self):
        set_budget_ms(0)
        try:
            with pytest.raises(BudgetError):
                lp_solve([[1, 1], [1, -1]], [4, 2], None, None, [2, 1], nonneg=[0, 1])
        finally:
            set_budget_ms(None)

    def test_deadline_polled_per_restart_pivot(self, monkeypatch):
        # phase 1 on the first rhs spends the budget; the second rhs makes
        # x0 = -1 and needs a dual pivot, whose poll stops the family
        genuine = ratlin._Tableau.phase1

        def spent(self):
            out = genuine(self)
            set_budget_ms(0)
            return out
        monkeypatch.setattr(ratlin._Tableau, "phase1", spent)
        family = lp_feasible_each(None, None, [[1, -1]], [[1], [-1]], 2, [0, 1])
        try:
            assert next(family).point == [1, 0]
            with pytest.raises(BudgetError):
                next(family)
        finally:
            set_budget_ms(None)


def _checked_lp():
    """A solved LP with every certificate field in use: max x0 + x1,
    x0 + 2 x1 <= 4, x0 - x1 = 1, x1 >= 0."""
    A, b, E, e, c = [[F(1), F(2)]], [F(4)], [[F(1), F(-1)]], [F(1)], [F(1), F(1)]
    mask = [False, True]
    res = lp_solve(A, b, E, e, c, nonneg=[1])
    return (A, b, E, e, c, mask), res


TAMPERS = {
    "value": lambda r: LpResult("optimal", r.value + 1, r.point, r.dual_ineq, r.dual_eq),
    "point": lambda r: LpResult("optimal", r.value, [r.point[0] + 1, r.point[1]],
                                r.dual_ineq, r.dual_eq),
    "dual": lambda r: LpResult("optimal", r.value, r.point,
                               [r.dual_ineq[0] + 1], r.dual_eq),
    "masked-sign": lambda r: LpResult("optimal", F(-1), [F(-2), F(-1)], [F(0)], [F(1)]),
    "farkas": lambda r: LpResult("infeasible", farkas_ineq=[F(1)], farkas_eq=[F(-1)]),
    "ray": lambda r: LpResult("unbounded", point=r.point, ray=[F(-1), F(-1)]),
    "status": lambda r: LpResult("maybe"),
}


class TestVerifyLp:
    def test_genuine_result_passes(self):
        args, res = _checked_lp()
        assert res.status == "optimal"
        _verify_lp(*args, res)

    @pytest.mark.parametrize("kind", sorted(TAMPERS))
    def test_tampered_result_rejected(self, kind):
        args, res = _checked_lp()
        with pytest.raises(VerificationError):
            _verify_lp(*args, TAMPERS[kind](res))

    def test_rejected_under_python_O(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(efbound.__file__)))
        code = (
            "import sys\n"
            "from fractions import Fraction as F\n"
            "from efbound import LpResult, VerificationError, lp_solve\n"
            "from efbound.ratlin import _verify_lp\n"
            "assert False, 'asserts are live'\n"
            "r = lp_solve([[1, 2]], [4], [[1, -1]], [1], [1, 1], nonneg=[1])\n"
            "bad = LpResult('optimal', r.value + 1, r.point, r.dual_ineq, r.dual_eq)\n"
            "try:\n"
            "    _verify_lp([[F(1), F(2)]], [F(4)], [[F(1), F(-1)]], [F(1)],\n"
            "               [F(1), F(1)], [False, True], bad)\n"
            "except VerificationError:\n"
            "    print('rejected', sys.flags.optimize)\n")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["rejected", "1"]


# --- brute force for the property tests: vertices of the LP cut by a box ---

def _unique_solution(rows, rhs, n):
    """The unique solution of rows x = rhs by Fraction Gauss elimination,
    or None when the system is inconsistent or underdetermined."""
    M = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(n):
        p = next((i for i in range(col, len(M)) if M[i][col] != 0), None)
        if p is None:
            return None
        M[col], M[p] = M[p], M[col]
        M[col] = [v / M[col][col] for v in M[col]]
        for i, row in enumerate(M):
            if i != col and row[col] != 0:
                M[i] = [a - row[col] * bb for a, bb in zip(row, M[col])]
    if any(row[n] != 0 for row in M[n:]):
        return None
    return [M[i][n] for i in range(n)]


def _box_max(A, b, E, e, c, mask, box):
    """max c.x over the LP intersected with |x_j| <= box, by enumerating
    vertices; None when that polytope is empty."""
    n = len(c)
    unit = [[F(int(k == j)) for k in range(n)] for j in range(n)]
    ineq = list(zip(A, b)) + [([-v for v in unit[j]], F(0)) for j in mask]
    ineq += [(unit[j], F(box)) for j in range(n)] + [([-v for v in unit[j]], F(box))
                                                      for j in range(n)]
    best = None
    for size in range(n + 1):
        for sub in itertools.combinations(ineq, size):
            x = _unique_solution(E + [r for r, _ in sub], e + [v for _, v in sub], n)
            if x is None or any(dot(r, x) > v for r, v in ineq):
                continue
            val = dot(c, x)
            best = val if best is None else max(best, val)
    return best


def _brute_force(A, b, E, e, c, mask):
    """(status, value) of the LP.  Data of absolute value <= 3 in at most
    three variables put a feasible point, and an optimal one when the LP is
    bounded, inside the box 162 (Cramer's rule), and the boxed optimum is
    concave in the box size: it grows from box 1000 to 2000 iff the LP is
    unbounded."""
    lo = _box_max(A, b, E, e, c, mask, 1000)
    if lo is None:
        return "infeasible", None
    if _box_max(A, b, E, e, c, mask, 2000) > lo:
        return "unbounded", None
    return "optimal", lo


@st.composite
def tiny_lps(draw):
    n = draw(st.integers(1, 3))
    coef = st.integers(-3, 3).map(F)
    rows = lambda m: draw(st.lists(st.lists(coef, min_size=n, max_size=n),
                                   min_size=m, max_size=m))
    mi, me = draw(st.integers(0, 3)), draw(st.integers(0, 1))
    A, E = rows(mi), rows(me)
    b = draw(st.lists(coef, min_size=mi, max_size=mi))
    e = draw(st.lists(coef, min_size=me, max_size=me))
    mask = sorted(draw(st.sets(st.integers(0, n - 1))))
    objs = rows(draw(st.integers(1, 4)))
    return A, b, E, e, mask, objs


class TestLpProperties:
    @settings(max_examples=100, deadline=None)
    @given(tiny_lps())
    def test_matches_vertex_enumeration(self, lp):
        A, b, E, e, mask, objs = lp
        c = objs[0]
        r = lp_solve(A or None, b or None, E or None, e or None, c, mask)
        status, value = _brute_force(A, b, E, e, c, mask)
        assert r.status == status
        assert r.value == value

    @settings(max_examples=100, deadline=None)
    @given(tiny_lps())
    def test_each_matches_cold(self, lp):
        A, b, E, e, mask, objs = lp
        system = (A or None, b or None, E or None, e or None)
        warm = list(lp_solve_each(*system, objs, mask))
        cold = [lp_solve(*system, c, mask) for c in objs]
        assert [(r.status, r.value) for r in warm] == [(r.status, r.value) for r in cold]


# --- reference: the Fraction tableau that the integer one replaced ---

class RefTableau:
    """Dense Fraction simplex tableau, kept as the reference for the integer
    tableau of ratlin: same columns, sign normalization, phases and Bland's
    rule, with every entry a Fraction.  Pivots are logged as (row, column)."""

    def __init__(self, A, b, E, e, mask):
        self.n, self.mi = len(mask), len(A)
        self.var = [(j, F(1)) for j in range(self.n)] + \
                   [(j, F(-1)) for j in range(self.n) if not mask[j]]
        nx = len(self.var)
        m = self.mi + len(E)
        self.art0 = nx + self.mi
        self.width = self.art0 + m + 1
        self.sigma = [F(-1) if r < 0 else F(1) for r in b + e]
        self.T = []
        for i, (row, r, sg) in enumerate(zip(A + E, b + e, self.sigma)):
            line = [sg * s * row[j] for j, s in self.var] + [F(0)] * (self.width - nx)
            if i < self.mi:
                line[nx + i] = sg
            line[self.art0 + i] = F(1)
            line[-1] = sg * r
            self.T.append(line)
        self.basis = list(range(self.art0, self.art0 + m))
        self.pivots = []

    def phase1(self):
        T, art0 = self.T, self.art0
        obj = [F(0)] * art0 + [F(1)] * len(T) + [F(0)]
        for line in T:
            for k, v in enumerate(line):
                obj[k] -= v
        assert self.iterate(obj) is None
        if obj[-1] < 0:
            y = [sg * (obj[art0 + i] - 1) for i, sg in enumerate(self.sigma)]
            return y[:self.mi], y[self.mi:]
        for i in range(len(T)):
            if self.basis[i] >= art0:
                enter = next((j for j in range(art0) if T[i][j] != 0), None)
                if enter is not None:
                    self.pivot(obj, i, enter)
        return None

    def phase2(self, c):
        T, basis, nx = self.T, self.basis, len(self.var)
        cost = [-s * c[j] for j, s in self.var] + [F(0)] * (self.width - nx)
        obj = cost[:]
        for line, bv in zip(T, basis):
            for k, v in enumerate(line):
                obj[k] -= cost[bv] * v
        grew = self.iterate(obj)
        point = [F(0)] * self.n
        for line, bv in zip(T, basis):
            if bv < nx:
                j, s = self.var[bv]
                point[j] += s * line[-1]
        if grew is not None:
            ray = [F(0)] * self.n
            for col, coef in [(grew, F(1))] + [(bv, -line[grew]) for line, bv in zip(T, basis)]:
                if col < nx:
                    j, s = self.var[col]
                    ray[j] += s * coef
            return LpResult("unbounded", point=point, ray=ray)
        y = [sg * obj[self.art0 + i] for i, sg in enumerate(self.sigma)]
        return LpResult("optimal", value=dot(c, point), point=point,
                        dual_ineq=y[:self.mi], dual_eq=y[self.mi:])

    def iterate(self, obj):
        T, basis = self.T, self.basis
        while True:
            enter = next((j for j in range(self.art0) if obj[j] < 0), None)
            if enter is None:
                return None
            leave, best = None, None
            for i, line in enumerate(T):
                if line[enter] > 0:
                    ratio = line[-1] / line[enter]
                    if best is None or ratio < best or (
                            ratio == best and basis[i] < basis[leave]):
                        leave, best = i, ratio
            if leave is None:
                return enter
            self.pivot(obj, leave, enter)

    def pivot(self, obj, r, j):
        self.pivots.append((r, j))
        T = self.T
        T[r] = [x / T[r][j] for x in T[r]]
        for line in T + [obj]:
            f = line[j]
            if f != 0 and line is not T[r]:
                for k, v in enumerate(T[r]):
                    line[k] -= f * v
        self.basis[r] = j


def reference_each(A, b, E, e, objs, nonneg):
    """lp_solve_each on the reference tableau: (results, pivots)."""
    mask = [j in nonneg for j in range(len(objs[0]))]
    tab = RefTableau(A, b, E, e, mask)
    farkas = tab.phase1()
    out = []
    for c in objs:
        if farkas is None:
            out.append(tab.phase2(c))
        else:
            out.append(LpResult("infeasible", farkas_ineq=farkas[0], farkas_eq=farkas[1]))
    return out, tab.pivots


def logged_each(*args):
    """lp_solve_each with its pivots logged: (results, pivots)."""
    pivots = []
    genuine = ratlin._pivot

    def logged(T, basis, obj, r, j):
        pivots.append((r, j))
        genuine(T, basis, obj, r, j)
    ratlin._pivot = logged
    try:
        return list(lp_solve_each(*args)), pivots
    finally:
        ratlin._pivot = genuine


@st.composite
def small_lps(draw):
    """LPs in up to four variables with rational data and several
    objectives.  Equalities with zero right-hand sides and a redundant
    multiple of the first equality make degenerate phase-1 ends, where
    artificials are driven out by pivots of either sign."""
    n = draw(st.integers(1, 4))
    coef = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 5]))
    rows = lambda m: draw(st.lists(st.lists(coef, min_size=n, max_size=n),  # noqa: E731
                                   min_size=m, max_size=m))
    mi, me = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    A, E = rows(mi), rows(me)
    b = draw(st.lists(coef, min_size=mi, max_size=mi))
    e = draw(st.lists(st.just(F(0)) | coef, min_size=me, max_size=me))
    if E and draw(st.booleans()):
        k = draw(st.sampled_from([F(-2), F(1), F(3, 2)]))
        E.append([k * x for x in E[0]])
        e.append(k * e[0])
    mask = sorted(draw(st.sets(st.integers(0, n - 1))))
    objs = rows(draw(st.integers(1, 4)))
    return A, b, E, e, mask, objs


class TestReferenceSimplex:
    @settings(max_examples=300, deadline=None)
    @given(small_lps())
    def test_matches_reference(self, lp):
        A, b, E, e, mask, objs = lp
        ref, ref_pivots = reference_each(A, b, E, e, objs, mask)
        got, pivots = logged_each(A or None, b or None, E or None, e or None, objs, mask)
        assert got == ref
        assert pivots == ref_pivots


# --- families of right-hand sides solved from one basis ---

@st.composite
def rhs_families(draw):
    """Feasibility LPs in up to four variables that share A x <= b and E,
    with several equality right-hand sides.  A redundant multiple of the
    first equality row keeps an artificial basic after phase 1; right-hand
    sides are either E x for a drawn x, which is feasible when x meets the
    inequalities and the signs, or drawn freely, which a redundant row
    mostly makes infeasible, so infeasible ones fall between feasible ones."""
    n = draw(st.integers(1, 4))
    coef = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 5]))
    rows = lambda m: draw(st.lists(st.lists(coef, min_size=n, max_size=n),  # noqa: E731
                                   min_size=m, max_size=m))
    mi, me = draw(st.integers(0, 2)), draw(st.integers(1, 4))
    A, E = rows(mi), rows(me)
    b = draw(st.lists(coef, min_size=mi, max_size=mi))
    if draw(st.booleans()):
        k = draw(st.sampled_from([F(-2), F(1), F(3, 2)]))
        E.append([k * x for x in E[0]])
    mask = sorted(draw(st.sets(st.integers(0, n - 1))))
    beqs = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            x = [abs(v) if j in mask else v for j, v in enumerate(rows(1)[0])]
            beqs.append([dot(row, x) for row in E])
        else:
            beqs.append(draw(st.lists(coef, min_size=len(E), max_size=len(E))))
    return A, b, E, beqs, mask


class TestFeasibleEach:
    @settings(max_examples=300, deadline=None)
    @given(rhs_families())
    def test_matches_cold(self, lp):
        A, b, E, beqs, mask = lp
        n = len(E[0])
        zeros = [F(0)] * n
        square = len(E) == n and mat_rank(E) == n
        warm = list(lp_feasible_each(A or None, b or None, E, beqs, n, mask))
        assert len(warm) == len(beqs)
        for e, res in zip(beqs, warm):
            cold = lp_solve(A or None, b or None, E, e, zeros, nonneg=mask)
            assert res.status == cold.status
            _verify_lp(A, b, E, e, zeros, [j in mask for j in range(n)], res)
            if square and res.status == "optimal":
                assert res.point == cold.point

    def test_restart_from_any_outcome(self):
        # x0 - x1 = e, x0 + x1 = f, x >= 0; an infeasible phase 1 (first
        # rhs) and an infeasible restart (third) each leave the next rhs
        # solvable
        E = [[1, -1], [1, 1]]
        out = list(lp_feasible_each(None, None, E, [[0, -1], [1, 3], [3, 1], [-1, 1]], 2,
                                    [0, 1]))
        assert [r.status for r in out] == ["infeasible", "optimal", "infeasible", "optimal"]
        assert out[1].point == [2, 1] and out[3].point == [0, 1]

    def test_inputs(self):
        with pytest.raises(InputError):
            list(lp_feasible_each(None, None, [[1]], [[1]], 0))
        with pytest.raises(InputError):
            list(lp_feasible_each(None, None, [[]], [[0]], -1))
        with pytest.raises(InputError):
            list(lp_feasible_each(None, None, None, [[1]], 1))
        with pytest.raises(InputError):
            list(lp_feasible_each(None, None, [[1, 0]], [[1]], 1))
        with pytest.raises(InputError):
            list(lp_feasible_each(None, None, [[1]], [[1], [1, 2]], 1))
        assert list(lp_feasible_each(None, None, [[1]], [], 1)) == []
