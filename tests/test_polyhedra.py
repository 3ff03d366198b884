import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import efbound
from efbound import (
    ExtendedFormulation,
    HRep,
    InputError,
    LpResult,
    RationalMatrix,
    VerificationError,
    VRep,
    box_ef,
    build_hard_pair,
    build_slack,
    dilate,
    ef_contains_points,
    ef_inside_hrep,
    ef_to_factorization,
    homogenize,
    shift_slack,
    trivial_ef,
    verify_sandwich,
)
from efbound import encodings, polyhedra, ratlin
from efbound.polyhedra import nonneg_solutions, recession_fulldim


def segment():
    # [0, 1] in 1-D: rows -x <= 0 and x <= 1
    P = VRep(1, [[0], [1]])
    Q = HRep(1, [[-1], [1]], [0, 1])
    return P, Q


def cut3():
    # cut polytope of the triangle, coordinates ordered (x12, x13, x23)
    P = VRep(3, [[0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]])
    Q = HRep(3, [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], [2, 0, 0, 0])
    return P, Q


def cutcone3():
    # cut cone of the triangle: homogeneous triangle inequalities
    P = VRep(3, [[0, 0, 0]], rays=[[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    Q = HRep(3, [[1, -1, -1], [-1, 1, -1], [-1, -1, 1]], [0, 0, 0])
    return P, Q


class TestBuildSlack:
    def test_unit_segment(self):
        P, Q = segment()
        S = build_slack(P, Q)
        assert S.vertex_block.tolist() == [[0, 1], [1, 0]]
        assert S.ray_block.cols == 0
        assert S.is_nonneg()

    def test_hard_pair_n1(self):
        # 1-bit correlation polytope conv{[0],[1]} against rows a=0 and a=1
        P = VRep(1, [[0], [1]])
        Q = HRep(1, [[0], [1]], [1, 1])
        S = build_slack(P, Q)
        assert S.vertex_block.tolist() == [[1, 1], [1, 0]]

    def test_single_ray(self):
        P = VRep(1, [[0]], rays=[[1]])
        Q = HRep(1, [[-1]], [0])
        S = build_slack(P, Q)
        assert S.ray_block.tolist() == [[1]]

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            build_slack(VRep(2, [[0, 0]]), HRep(1, [[1]], [1]))

    def test_nonneg_iff_contained(self):
        P, Q = segment()
        S = build_slack(P, Q)
        assert S.is_nonneg()
        outside = VRep(1, [[0], [2]])
        assert not build_slack(outside, Q).is_nonneg()


class TestDilate:
    def test_identity(self):
        _, Q = cut3()
        Q1 = dilate(Q, 1)
        assert Q1.A == Q.A and Q1.b == Q.b

    def test_cut3_facet(self):
        _, Q = cut3()
        Q2 = dilate(Q, F(3, 2))
        assert Q2.b[0] == 3
        # homogeneous rows stay put
        assert Q2.b[1:] == [0, 0, 0]

    def test_box_zero_rows_fixed(self):
        Q = HRep(2, [[-1, 0], [0, -1], [1, 0], [0, 1]], [0, 0, 1, 1])
        Q2 = dilate(Q, 2)
        assert Q2.b == [0, 0, 2, 2]

    def test_rho_below_one_rejected(self):
        _, Q = segment()
        with pytest.raises(InputError):
            dilate(Q, F(1, 2))


class TestShiftSlack:
    def test_identity_shift(self):
        P, Q = segment()
        S = build_slack(P, Q)
        assert shift_slack(S, 1) == S

    @pytest.mark.parametrize("rho", [F(1, 2), -3])
    def test_rho_below_one_rejected(self, rho):
        P, Q = segment()
        with pytest.raises(InputError, match="rho must be >= 1"):
            shift_slack(build_slack(P, Q), rho)

    def test_segment_shift(self):
        P, Q = segment()
        S2 = shift_slack(build_slack(P, Q), 2)
        assert S2.vertex_block.tolist() == [[0, 1], [2, 1]]

    @pytest.mark.parametrize("rho", [1, F(3, 2), 2])
    def test_shift_equals_rebuild(self, rho):
        for P, Q in (segment(), cut3(), cutcone3()):
            assert shift_slack(build_slack(P, Q), rho) == build_slack(P, dilate(Q, rho))

    def test_shift_equals_rebuild_random(self):
        rng = random.Random(31)
        for _ in range(10):
            d = rng.randint(1, 3)
            P = VRep(d, [[F(rng.randint(-3, 3)) for _ in range(d)] for _ in range(3)],
                     rays=[[F(rng.randint(0, 2)) for _ in range(d)]
                           for _ in range(rng.randint(0, 2)) if True])
            Q = HRep(d, [[F(rng.randint(-2, 2)) for _ in range(d)] for _ in range(4)],
                     [F(rng.randint(0, 4)) for _ in range(4)])
            rho = rng.choice([1, F(3, 2), 2, F(7, 3)])
            assert shift_slack(build_slack(P, Q), rho) == build_slack(P, dilate(Q, rho))


class TestEfContainsPoints:
    def test_box_vertices(self):
        d = 2
        rows = [[-1 if j == i else 0 for j in range(d)] for i in range(d)] + \
               [[1 if j == i else 0 for j in range(d)] for i in range(d)]
        K = trivial_ef(HRep(d, rows, [0] * d + [1] * d))
        P = VRep(d, [[x, y] for x in (0, 1) for y in (0, 1)])
        rep = ef_contains_points(P, K)
        assert rep.ok
        assert len(rep.witnesses) == 4

    def test_exterior_point_fails_with_certificate(self):
        P, Q = segment()
        K = trivial_ef(Q)
        rep = ef_contains_points(VRep(1, [[0], [2]]), K)
        assert not rep.ok
        assert rep.failing["kind"] == "point" and rep.failing["index"] == 1
        u = rep.failing["certificate"]
        # u refutes F w = g - E v, w >= 0
        rhs = [K.g[i] - 2 * K.E[i, 0] for i in range(K.nrows)]
        assert sum(ui * ri for ui, ri in zip(u, rhs)) < 0

    def test_ray_witnesses(self):
        P, Q = cutcone3()
        rep = ef_contains_points(P, trivial_ef(Q))
        assert rep.ok
        kinds = [k for k, _, _ in rep.witnesses]
        assert kinds == ["point", "ray", "ray", "ray"]


class TestZeroColumns:
    """F with no columns: y = [] solves F y = rhs iff rhs = 0, and the LP
    family's phase 1 or restart refutes any other rhs."""

    def test_zero_rhs(self):
        assert next(nonneg_solutions(RationalMatrix(2, 0), [[F(0), F(0)]])) == ("ok", [])

    def test_no_rows(self):
        assert next(nonneg_solutions(RationalMatrix(0, 0), [[]])) == ("ok", [])

    @pytest.mark.parametrize("rhs", [[0, 3], [-2, 3], [2, 0], [-1, -1]])
    def test_refuted_by_phase1_and_restart(self, rhs):
        rhs = [F(x) for x in rhs]
        first = next(nonneg_solutions(RationalMatrix(2, 0), [rhs]))
        _, later = nonneg_solutions(RationalMatrix(2, 0), [[F(0), F(0)], rhs])
        for status, u in (first, later):
            assert status == "no"
            assert sum(ui * ri for ui, ri in zip(u, rhs)) < 0

    def test_refutation_vectors(self):
        # phase 1 signs every row against its rhs; a restart names the
        # first row whose rhs is nonzero
        assert next(nonneg_solutions(RationalMatrix(2, 0), [[F(0), F(3)]])) == ("no", [-1, -1])
        assert list(nonneg_solutions(RationalMatrix(2, 0), [[0, 0], [0, 3]])) == \
            [("ok", []), ("no", [0, -1])]

    def test_size_zero_ef(self):
        # K = {(1, 2)}: E = I, F is 2x0, g = (1, 2)
        K = ExtendedFormulation(RationalMatrix.identity(2), RationalMatrix(2, 0), [1, 2])
        assert ef_contains_points(VRep(2, [[1, 2]]), K).ok
        rep = ef_contains_points(VRep(2, [[0, 0]]), K)
        assert not rep.ok
        assert polyhedra.refutes(K, "point", [F(0), F(0)], rep.failing["certificate"])


class TestEfInsideHrep:
    def test_slack_constant(self):
        _, Q = segment()
        rep = ef_inside_hrep(trivial_ef(Q), HRep(1, [[1]], [2]))
        assert rep.ok and not rep.empty
        (_, t, c), = rep.derivations
        assert c == 1

    def test_violated_row(self):
        d = 2
        rows = [[-1 if j == i else 0 for j in range(d)] for i in range(d)] + \
               [[1 if j == i else 0 for j in range(d)] for i in range(d)]
        K = trivial_ef(HRep(d, rows, [0] * d + [1] * d))
        rep = ef_inside_hrep(K, HRep(d, [[1, 0]], [F(1, 2)]))
        assert not rep.ok
        assert rep.failing["row"] == 0
        assert rep.failing["point"][0] == 1
        assert rep.failing["value"] > rep.failing["bound"]

    def test_unbounded_direction_gives_witness(self):
        # K = [0, inf) as an EF, Q = {x <= 5}
        K = ExtendedFormulation(RationalMatrix.from_rows([[1]]),
                                RationalMatrix.from_rows([[-1]]), [0])
        rep = ef_inside_hrep(K, HRep(1, [[1]], [5]))
        assert not rep.ok
        assert rep.failing["point"][0] > 5

    def test_empty_ef_vacuous(self):
        # x + y = 0 and x + y = 1 cannot both hold
        E = RationalMatrix.from_rows([[1], [1]])
        Fm = RationalMatrix.from_rows([[1], [1]])
        K = ExtendedFormulation(E, Fm, [0, -1])
        rep = ef_inside_hrep(K, HRep(1, [[1]], [-10]))
        assert rep.ok and rep.empty
        u = rep.empty_certificate
        assert sum(ui * gi for ui, gi in zip(u, K.g)) < 0


class TestVerifySandwich:
    def test_segment_exact(self):
        P, Q = segment()
        rep = verify_sandwich(P, Q, 1, trivial_ef(Q))
        assert rep.ok
        assert not rep.affine
        assert not rep.rec_cone_fulldim

    def test_monotone_in_rho(self):
        P, Q = segment()
        K = trivial_ef(Q)
        for rho in (1, F(3, 2), 2, 10):
            assert verify_sandwich(P, Q, rho, K).ok

    def test_failure_direction_reported(self):
        P, Q = segment()
        K = trivial_ef(Q)
        bad_p = VRep(1, [[0], [3]])
        rep = verify_sandwich(bad_p, Q, 2, K)
        assert not rep.ok and not rep.contains.ok and rep.inside.ok

    def test_affine_status(self):
        # P is the single point 1/2 inside the segment: its affine hull is
        # the point itself, already inside Q
        _, Q = segment()
        rep = verify_sandwich(VRep(1, [[F(1, 2)]]), Q, 1, trivial_ef(Q))
        assert rep.ok and rep.affine

    def test_rec_cone_flag(self):
        assert recession_fulldim(HRep(1, [[-1]], [0]))
        assert not recession_fulldim(HRep(1, [[-1], [1]], [0, 1]))
        # zero rows do not constrain the recession cone
        assert recession_fulldim(HRep(2, [[0, 0]], [1]))

    def test_nonneg_slack_iff_sandwich_rho1(self):
        rng = random.Random(77)
        for _ in range(8):
            pts = [[F(rng.randint(0, 2)), F(rng.randint(0, 2))] for _ in range(3)]
            P = VRep(2, pts)
            Q = HRep(2, [[1, 0], [0, 1], [-1, 0], [0, -1]],
                     [F(rng.randint(0, 2)), 2, 0, 0])
            S = build_slack(P, Q)
            rep = verify_sandwich(P, Q, 1, trivial_ef(Q))
            assert S.is_nonneg() == rep.ok


class TestPivotCounts:
    """Bland's rule fixes the pivot sequence, so these counts pin it."""

    @pytest.fixture
    def pivots(self, monkeypatch):
        count = [0]
        genuine = ratlin._pivot

        def counting(*args):
            count[0] += 1
            return genuine(*args)
        monkeypatch.setattr(ratlin, "_pivot", counting)
        return count

    @pytest.mark.parametrize("n,expected", [(3, 38), (4, 105)])
    def test_hard_pair_trivial_ef(self, pivots, n, expected):
        hp = build_hard_pair(n)
        assert verify_sandwich(hp.P, hp.Q, 1, trivial_ef(hp.Q)).ok
        assert pivots[0] == expected

    @pytest.mark.parametrize("rho,ok", [(2, False), (3, True)])
    def test_box_ef(self, pivots, rho, ok):
        hp = build_hard_pair(3)
        assert verify_sandwich(hp.P, hp.Q, rho, box_ef(3)).ok is ok
        assert pivots[0] == 58

    def test_ef_to_factorization(self, pivots):
        # the containment family, then the tight-derivation family; every
        # row derives tightly, so the rest of the sandwich check never runs
        hp = build_hard_pair(3)
        ef_to_factorization(trivial_ef(hp.Q), hp.P, hp.Q)
        assert pivots[0] == 31

    def test_ef_to_factorization_point_in_box(self, pivots):
        # no row of the box derives tightly, so the whole tight-derivation
        # family is infeasible and restarts from phase 1's basis
        ef_to_factorization(*point_in_box())
        assert pivots[0] == 30


def point_in_box():
    """(K, P, Q): K = P = {0} in R^3, K the trivial EF of +-x_k <= 0, inside
    the box Q of the rows +-x_k <= 1."""
    signs = [[sg * (j == k) for j in range(3)] for sg in (1, -1) for k in range(3)]
    return trivial_ef(HRep(3, signs, [0] * 6)), VRep(3, [[0, 0, 0]]), HRep(3, signs, [1] * 6)


class TestOneTableauPerFamily:
    """lp_feasible_each keeps its tableau whatever phase 1 and each restart
    find, so a family costs one tableau however many members are infeasible."""

    @pytest.fixture
    def tableaux(self, monkeypatch):
        count = [0]
        genuine = ratlin._Tableau.__init__

        def counting(self, *args):
            count[0] += 1
            genuine(self, *args)
        monkeypatch.setattr(ratlin._Tableau, "__init__", counting)
        return count

    def test_infeasible_phase1_and_restart(self, tableaux):
        out = list(ratlin.lp_feasible_each(None, None, [[1, -1], [1, 1]],
                                           [[0, -1], [1, 3], [3, 1], [-1, 1]], 2, [0, 1]))
        assert [r.status for r in out] == ["infeasible", "optimal", "infeasible", "optimal"]
        assert tableaux[0] == 1

    def test_tight_derivations_all_infeasible(self, tableaux):
        K, _, Q = point_in_box()
        assert list(polyhedra.tight_derivations(K, Q)) == [None] * 6
        assert tableaux[0] == 1


class TestHomogenize:
    def test_segment_becomes_halfline(self):
        _, Q = segment()
        H = homogenize(trivial_ef(Q))
        assert H.size == trivial_ef(Q).size + 1
        rep = ef_contains_points(VRep(1, [[0], [1], [5]], rays=[[1]]), H)
        assert rep.ok
        assert ef_inside_hrep(H, HRep(1, [[-1]], [0])).ok
        # and the negative half-line is not inside
        assert not ef_contains_points(VRep(1, [[-1]]), H).ok

    def test_cut3_homogenization_is_cutcone3(self):
        Pc, Qc = cut3()
        H = homogenize(trivial_ef(Qc))
        cone_v, cone_h = cutcone3()
        assert ef_contains_points(cone_v, H).ok
        assert ef_inside_hrep(H, cone_h).ok

    def test_double_homogenize(self):
        _, Qc = cut3()
        K = trivial_ef(Qc)
        H2 = homogenize(homogenize(K))
        assert H2.size == K.size + 2
        cone_v, cone_h = cutcone3()
        assert ef_contains_points(cone_v, H2).ok
        assert ef_inside_hrep(H2, cone_h).ok


class TestJsonRoundTrips:
    def test_vrep(self):
        P, _ = cutcone3()
        d = P.to_json()
        P2 = VRep.from_json(d)
        assert P2.points == P.points and P2.rays == P.rays

    def test_hrep(self):
        _, Q = cut3()
        assert HRep.from_json(Q.to_json()).b == Q.b

    def test_ef(self):
        _, Q = segment()
        K = trivial_ef(Q)
        K2 = ExtendedFormulation.from_json(K.to_json())
        assert K2.E == K.E and K2.F == K.F and K2.g == K.g

    def test_slack(self):
        from efbound import SlackMatrix
        P, Q = segment()
        S = build_slack(P, Q)
        assert SlackMatrix.from_json(S.to_json()) == S

    @pytest.mark.parametrize("dim", [2.5, True, "2", None, 0])
    def test_dim_is_checked_not_coerced(self, dim):
        with pytest.raises(InputError, match="dimension must be an integer"):
            VRep(dim, [[0, 0]])
        with pytest.raises(InputError, match="dimension must be an integer"):
            HRep(dim, [[1]], [1])

    def test_bad_json(self):
        with pytest.raises(InputError):
            VRep.from_json({"dim": 1})
        with pytest.raises(InputError):
            HRep.from_json({"dim": 1, "A": {"rows": 1, "cols": 1, "entries": ["1"]}})


# --- certificate checks fed wrong intermediate results ---

def _yield(res):
    return lambda *args, **kwargs: iter([res])


def _dot_failing_third_call():
    """polyhedra.dot, except that its third call returns -100: in the
    unbounded branch of ef_inside_hrep that is the violating point's value."""
    calls = []

    def dot(u, v):
        calls.append(None)
        return F(-100) if len(calls) == 3 else ratlin.dot(u, v)
    return dot


def _tampered_checks():
    """(check, {(module, attribute): replacement}, call): each call reaches
    the certificate check named check after the replacements plant a wrong
    result.  On the segment [0, 1] with its trivial EF, the LP for row 0
    (-x <= 0) has the columns x, y0, y1, and E = (-1; 1), F = I, g = (0, 1);
    the first tight derivation looks for t with t E = -1, t F >= 0, t g = 0.
    The point x = -1 breaks row 0, and its only solution of F w = g - E x,
    w = (-1, 2), is negative."""
    P, Q = segment()
    K = trivial_ef(Q)
    zeros = [F(0)] * 3

    def inside():
        ef_inside_hrep(K, Q)

    def contains():
        ef_contains_points(P, K)

    def tight():
        polyhedra.tight_derivations(K, Q)

    def psd():
        encodings.psd_factors(2)

    def factor_entry(target, i, j, value):
        # psd_factors(2) builds T_a from (-1; a) and U^b from (1; b): set
        # entry (i, j) of the one factor built from target
        genuine = encodings._outer

        def outer(vec):
            M = genuine(vec)
            if vec == target:
                e = [0] * (M.rows * M.cols)
                e[i * M.cols + j] = value - M[i, j]
                M = M + RationalMatrix(M.rows, M.cols, e)
            return M
        return {(encodings, "_outer"): outer}

    def solutions(status, vec):
        return {(polyhedra, "nonneg_solutions"):
                lambda M, rhss: iter([(status, [F(vec)] * M.cols)])}

    def lp(status, **fields):
        return {(polyhedra, "lp_solve_each"): _yield(LpResult(status, **fields))}

    def optimal(value, t):
        return lp("optimal", value=F(value), point=zeros, dual_ineq=[],
                  dual_eq=[F(x) for x in t])

    def violator(w):
        return lp("optimal", value=F(1), point=[F(-1)] + [F(x) for x in w], dual_ineq=[],
                  dual_eq=zeros[:2])

    def tight_point(t):
        return {(polyhedra, "lp_feasible_each"):
                _yield(LpResult("optimal", point=[F(x) for x in t]))}

    return [
        ("a feasibility LP is optimal or infeasible",
         {(polyhedra, "lp_feasible_each"): _yield(LpResult("unbounded"))},
         lambda: next(nonneg_solutions(RationalMatrix.identity(1), [[F(1)]]))),
        ("containment witness w >= 0", solutions("ok", -1), contains),
        ("containment witness F w = rhs", solutions("ok", 0), contains),
        ("containment refutation F^T u >= 0, u . rhs < 0", solutions("no", 0), contains),
        ("emptiness certificate E^T u = 0, F^T u >= 0",
         lp("infeasible", farkas_ineq=[], farkas_eq=[F(1), F(0)]), inside),
        ("emptiness certificate u . g < 0",
         lp("infeasible", farkas_ineq=[], farkas_eq=[F(0), F(0)]), inside),
        ("unbounded direction raises A_i x", lp("unbounded", point=zeros, ray=zeros), inside),
        ("violating point exceeds b_i",
         {**lp("unbounded", point=zeros, ray=[F(-1), F(0), F(0)]),
          (polyhedra, "dot"): _dot_failing_third_call()}, inside),
        ("violating point lifts: w >= 0, F w = g - E x", violator([-1, 2]), inside),
        ("violating point lifts: w >= 0, F w = g - E x", violator([0, 0]), inside),
        ("derivation t E = A_i", optimal(0, [0, 0]), inside),
        ("derivation t F >= 0", optimal(0, [0, -1]), inside),
        ("derivation t g + c_i = b_i, c_i >= 0", optimal(-1, [1, 0]), inside),
        ("derivation t E = A_i", tight_point([7, 7]), tight),
        ("derivation t F >= 0", tight_point([0, -1]), tight),
        ("derivation t g + c_i = b_i, c_i >= 0", tight_point([2, 1]), tight),
        ("<T_a, U^b> = (1 - a.b)^2",
         {(encodings, "_outer"): lambda vec: RationalMatrix(len(vec), len(vec))}, psd),
        ("<T_a, U^b> = (1 - a.b)^2", factor_entry([-1, 1, 1], 0, 1, 1), psd),
        ("U^b >= 0", factor_entry([1, 0, 1], 2, 0, -1), psd),
        ("factor entries lie in {-1, 0, 1}", factor_entry([-1, 0, 0], 0, 0, 2), psd),
    ]


def rejected_tampers():
    """The VerificationError message of each tampered call, or None."""
    out = []
    for _, patches, call in _tampered_checks():
        saved = {key: getattr(*key) for key in patches}
        for (mod, attr), value in patches.items():
            setattr(mod, attr, value)
        try:
            call()
            out.append(None)
        except VerificationError as exc:
            out.append(str(exc))
        finally:
            for (mod, attr), value in saved.items():
                setattr(mod, attr, value)
    return out


class TestCertificateChecks:
    def test_every_check_rejects(self):
        checks = [check for check, _, _ in _tampered_checks()]
        assert rejected_tampers() == checks

    def test_rejected_under_python_O(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(efbound.__file__)))
        here = os.path.dirname(os.path.abspath(__file__))
        code = ("import json, sys\n"
                "assert False, 'asserts are live'\n"
                "from test_polyhedra import rejected_tampers\n"
                "print(json.dumps([sys.flags.optimize, rejected_tampers()]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        checks = [check for check, _, _ in _tampered_checks()]
        assert json.loads(proc.stdout) == [1, checks]
