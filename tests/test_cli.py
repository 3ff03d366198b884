import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efbound
from efbound import (
    ExtendedFormulation,
    HRep,
    InputError,
    NonnegFactorization,
    RationalMatrix,
    SlackMatrix,
    VRep,
    build_hard_pair,
    build_shift,
    build_slack,
    dilate,
    hardpair_slack,
    trivial_ef,
)
from efbound import cli, nnfact, ratlin, udisj
from efbound.cli import main


def write(path, obj):
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")


def child_env():
    """The environment for a child interpreter that imports the efbound
    under test, installed or not."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


@pytest.fixture
def pair_files(tmp_path):
    """Hard pair n=2 on disk plus handy paths."""
    rc = main(["hardpair", "--n", "2",
               "--out-p", str(tmp_path / "p.json"),
               "--out-q", str(tmp_path / "q.json")])
    assert rc == 0
    return tmp_path


@pytest.fixture
def slow_scan(monkeypatch):
    """corruption-scan made slow on purpose: it sleeps 20 ms before the
    scan, so it outlasts a 1 ms budget however fast the scan itself is."""
    genuine = udisj.rectangle_corruption_scan

    def slow(*args, **kwargs):
        time.sleep(0.02)
        return genuine(*args, **kwargs)
    monkeypatch.setattr(udisj, "rectangle_corruption_scan", slow)


class TestBuildCommands:
    def test_hardpair_slack_example(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["hardpair-slack", "--n", "3", "--rho", "2",
                     "--out", str(out)]) == 0
        S = SlackMatrix.from_json(json.loads(out.read_text()))
        assert S.vertex_block == hardpair_slack(3, 2).vertex_block

    def test_slack_pipeline_matches_direct(self, pair_files):
        d = pair_files
        assert main(["slack", "--p", str(d / "p.json"), "--q", str(d / "q.json"),
                     "--out", str(d / "sl.json")]) == 0
        assert main(["shift-slack", "--slack", str(d / "sl.json"), "--rho", "2",
                     "--out", str(d / "sl2.json")]) == 0
        assert main(["hardpair-slack", "--n", "2", "--rho", "2",
                     "--out", str(d / "direct.json")]) == 0
        shifted = SlackMatrix.from_json(json.loads((d / "sl2.json").read_text()))
        direct = SlackMatrix.from_json(json.loads((d / "direct.json").read_text()))
        assert shifted.vertex_block == direct.vertex_block

    def test_dilate(self, pair_files):
        d = pair_files
        assert main(["dilate", "--q", str(d / "q.json"), "--rho", "3/2",
                     "--out", str(d / "qd.json")]) == 0
        from efbound import HRep
        Qd = HRep.from_json(json.loads((d / "qd.json").read_text()))
        assert all(b == Fraction(3, 2) for b in Qd.b)

    def test_udisj_shift_matches_library(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["udisj-shift", "--n", "2", "--rho", "2",
                     "--out", str(out)]) == 0
        M = RationalMatrix.from_json(json.loads(out.read_text()))
        assert M == build_shift(2, 2)
        assert main(["udisj-shift", "--n", "2", "--rho", "1", "--fill", "7",
                     "--out", str(out)]) == 0
        M = RationalMatrix.from_json(json.loads(out.read_text()))
        assert M == build_shift(2, 1, 7) and M.tolist()[-1][-1] == 7

    def test_cut_family_and_covmap(self, tmp_path):
        cf = tmp_path / "cf.json"
        assert main(["cut-family", "--kind", "cut_polytope", "--n", "3",
                     "--out", str(cf)]) == 0
        from efbound import VRep
        v = VRep.from_json(json.loads(cf.read_text()))
        assert len(v.points) == 4
        vec = tmp_path / "v.json"
        write(vec, ["1", "1", "0"])
        y = tmp_path / "y.json"
        assert main(["covmap", "--n", "3", "--vec", str(vec),
                     "--out", str(y)]) == 0
        Y = RationalMatrix.from_json(json.loads(y.read_text()))
        assert Y.tolist() == [[1, 0], [0, 0]]


class TestVerifySandwich:
    def test_pass(self, pair_files):
        d = pair_files
        hp = build_hard_pair(2)
        write(d / "k.json", trivial_ef(hp.Q).to_json())
        rc = main(["verify-sandwich", "--p", str(d / "p.json"),
                   "--q", str(d / "q.json"), "--rho", "1",
                   "--ef", str(d / "k.json"), "--out", str(d / "rep.json")])
        assert rc == 0
        rep = json.loads((d / "rep.json").read_text())
        assert rep["ok"] is True

    def test_failure_emits_checkable_certificate(self, pair_files):
        d = pair_files
        hp = build_hard_pair(2)
        write(d / "kbig.json", trivial_ef(dilate(hp.Q, 2)).to_json())
        rc = main(["verify-sandwich", "--p", str(d / "p.json"),
                   "--q", str(d / "q.json"), "--rho", "1",
                   "--ef", str(d / "kbig.json"), "--out", str(d / "rep.json"),
                   "--cert", str(d / "cert.json")])
        assert rc == 1
        cert = json.loads((d / "cert.json").read_text())
        assert cert["kind"] == "row-violation"
        assert main(["check-cert", "--cert", str(d / "cert.json"),
                     "--out", str(d / "cc.json")]) == 0
        assert json.loads((d / "cc.json").read_text())["valid"] is True

    def test_tampered_certificate_rejected(self, pair_files):
        d = pair_files
        hp = build_hard_pair(2)
        write(d / "kbig.json", trivial_ef(dilate(hp.Q, 2)).to_json())
        main(["verify-sandwich", "--p", str(d / "p.json"), "--q", str(d / "q.json"),
              "--rho", "1", "--ef", str(d / "kbig.json"),
              "--cert", str(d / "cert.json")])
        cert = json.loads((d / "cert.json").read_text())
        cert["bound"] = "1000"
        write(d / "tampered.json", cert)
        assert main(["check-cert", "--cert", str(d / "tampered.json"),
                     "--out", str(d / "cc.json")]) == 1

    def test_negative_lifting_rejected(self, tmp_path):
        # on K = {x : x + w = 0, w >= 0} = (-inf, 0], x = 1 breaks x <= 0,
        # and w = -1 solves F w = g - E x but is negative
        write(tmp_path / "c.json", dict(WELL_FORMED["row-violation"], kind="row-violation",
                                        row=["1"], point=["1"], lifting=["-1"]))
        assert main(["check-cert", "--cert", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "cc.json")]) == 1

    def test_contains_failure_certificate(self, tmp_path):
        # K = {0} cannot contain the segment's far vertex
        from efbound import HRep, VRep
        seg_pts = [[Fraction(0)], [Fraction(1)]]
        write(tmp_path / "p.json", VRep(1, seg_pts, []).to_json())
        rows = RationalMatrix.from_rows([[Fraction(1)], [Fraction(-1)]])
        write(tmp_path / "q.json", HRep(1, rows, [Fraction(1), Fraction(0)]).to_json())
        E = RationalMatrix.from_rows([[Fraction(1)], [Fraction(-1)]])
        F = RationalMatrix(2, 1)
        write(tmp_path / "k.json", ExtendedFormulation(E, F, [Fraction(0)] * 2).to_json())
        rc = main(["verify-sandwich", "--p", str(tmp_path / "p.json"),
                   "--q", str(tmp_path / "q.json"), "--rho", "1",
                   "--ef", str(tmp_path / "k.json"),
                   "--cert", str(tmp_path / "cert.json")])
        assert rc == 1
        cert = json.loads((tmp_path / "cert.json").read_text())
        assert cert["kind"] == "contains-failure"
        assert main(["check-cert", "--cert", str(tmp_path / "cert.json")]) == 0

    def test_size_zero_ef_contains_failure_certificate(self, tmp_path):
        # K = {(1, 2)} has no y variables (F is 2x0), so (0, 0) is refuted
        # by the feasibility LP over no columns
        from efbound import HRep, VRep
        write(tmp_path / "p.json", VRep(2, [[0, 0]]).to_json())
        write(tmp_path / "q.json", HRep(2, [[1, 0], [0, 1]], [1, 2]).to_json())
        K = ExtendedFormulation(RationalMatrix.identity(2), RationalMatrix(2, 0), [1, 2])
        write(tmp_path / "k.json", K.to_json())
        assert main(["verify-sandwich", "--p", str(tmp_path / "p.json"),
                     "--q", str(tmp_path / "q.json"), "--rho", "1",
                     "--ef", str(tmp_path / "k.json"),
                     "--cert", str(tmp_path / "cert.json")]) == 1
        cert = json.loads((tmp_path / "cert.json").read_text())
        assert cert["kind"] == "contains-failure"
        assert main(["check-cert", "--cert", str(tmp_path / "cert.json")]) == 0

    def test_flipped_contains_failure_certificate_rejected(self, tmp_path):
        # the certificate of test_contains_failure_certificate with u -> -u,
        # which no longer refutes the lifting of the far vertex
        self.test_contains_failure_certificate(tmp_path)
        cert = json.loads((tmp_path / "cert.json").read_text())
        cert["u"] = [str(-Fraction(x)) for x in cert["u"]]
        write(tmp_path / "flipped.json", cert)
        assert main(["check-cert", "--cert", str(tmp_path / "flipped.json"),
                     "--out", str(tmp_path / "cc.json")]) == 1
        assert json.loads((tmp_path / "cc.json").read_text())["valid"] is False


class TestFactorizationCommands:
    def test_fac2ef_and_back(self, pair_files):
        d = pair_files
        hp = build_hard_pair(2)
        S = build_slack(hp.P, hp.Q).full()
        fac = NonnegFactorization(S, RationalMatrix.identity(S.cols))
        write(d / "fac.json", fac.to_json())
        write(d / "smat.json", S.to_json())
        assert main(["fac2ef", "--q", str(d / "q.json"), "--fac", str(d / "fac.json"),
                     "--slack", str(d / "smat.json"), "--out", str(d / "ef.json")]) == 0
        assert main(["verify-sandwich", "--p", str(d / "p.json"),
                     "--q", str(d / "q.json"), "--rho", "1",
                     "--ef", str(d / "ef.json"), "--out", str(d / "rep.json")]) == 0
        assert main(["ef2fac", "--ef", str(d / "ef.json"), "--p", str(d / "p.json"),
                     "--q", str(d / "q.json"), "--out", str(d / "fac2.json")]) == 0
        fac2 = NonnegFactorization.from_json(json.loads((d / "fac2.json").read_text()))
        assert fac2.rank <= fac.rank + 1

    def test_invalid_factorization_certificate(self, pair_files):
        d = pair_files
        hp = build_hard_pair(2)
        S = build_slack(hp.P, hp.Q).full()
        bad = NonnegFactorization(RationalMatrix.identity(4) * Fraction(-1),
                                  S * Fraction(-1))
        write(d / "bad.json", bad.to_json())
        write(d / "smat.json", S.to_json())
        rc = main(["fac2ef", "--q", str(d / "q.json"), "--fac", str(d / "bad.json"),
                   "--slack", str(d / "smat.json"), "--out", str(d / "ef.json"),
                   "--cert", str(d / "cert.json")])
        assert rc == 1
        cert = json.loads((d / "cert.json").read_text())
        assert cert["kind"] == "factorization-invalid"
        assert main(["check-cert", "--cert", str(d / "cert.json")]) == 0

    def test_ef2fac_precondition_certificate(self, pair_files):
        d = pair_files
        hp = build_hard_pair(2)
        write(d / "kbig.json", trivial_ef(dilate(hp.Q, 2)).to_json())
        rc = main(["ef2fac", "--ef", str(d / "kbig.json"), "--p", str(d / "p.json"),
                   "--q", str(d / "q.json"), "--out", str(d / "fac.json"),
                   "--cert", str(d / "cert.json")])
        assert rc == 1
        assert main(["check-cert", "--cert", str(d / "cert.json")]) == 0

    def test_nnegrk_accepts_slack_artifact(self, tmp_path):
        # the natural pipeline: hardpair-slack output feeds --matrix directly
        s = tmp_path / "s.json"
        assert main(["hardpair-slack", "--n", "2", "--rho", "2",
                     "--out", str(s)]) == 0
        assert main(["nnegrk-bounds", "--matrix", str(s),
                     "--out", str(tmp_path / "nb.json")]) == 0
        rep = json.loads((tmp_path / "nb.json").read_text())
        assert rep["lower"] >= 1

    def test_nnegrk_hardpair_n4_rho1_cover(self, tmp_path):
        s = tmp_path / "s.json"
        assert main(["hardpair-slack", "--n", "4", "--rho", "1", "--out", str(s)]) == 0
        assert main(["--budget-ms", "20000", "nnegrk-bounds", "--matrix", str(s),
                     "--out", str(tmp_path / "nb.json")]) == 0
        rep = json.loads((tmp_path / "nb.json").read_text())
        assert rep["lower"] == 13
        assert "lower=13 via rectangle-cover" in rep["provenance"]

    def test_nnegrk_bounds_report(self, pair_files):
        d = pair_files
        hp = build_hard_pair(2)
        write(d / "smat.json", build_slack(hp.P, hp.Q).full().to_json())
        assert main(["nnegrk-bounds", "--matrix", str(d / "smat.json"),
                     "--out", str(d / "nb.json")]) == 0
        rep = json.loads((d / "nb.json").read_text())
        assert rep["lower"] <= rep["upper"]
        assert any(line.startswith("lower=") for line in rep["provenance"])


class TestUdisjCommands:
    def test_razborov_example(self, tmp_path):
        out = tmp_path / "rz.json"
        assert main(["razborov-check", "--n", "3", "--trials", "20",
                     "--seed", "7", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["ok"] is True and rep["trials"] == 20

    def test_razborov_named_functions(self, tmp_path):
        out = tmp_path / "rz.json"
        assert main(["razborov-check", "--n", "3", "--f", "set:1",
                     "--g", "set:1", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["checks"][0]["expectation_b"] == ["1/3", "1/3"]

    def test_corruption_scan_json(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(["corruption-scan", "--n", "3", "--eps", "1/2",
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["best_value"] == "1/6"
        assert rep["zero_b_max"] == "1/3"

    def test_corruption_scan_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["corruption-scan", "--n", "7", "--eps", "1/2",
                     "--mode", "sample", "--seed", "4", "--count", "25",
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rectangle-id,p_a,p_b,value"
        assert len(lines) == 26

    def test_corruption_bound_value(self, tmp_path, capsys):
        assert main(["corruption-bound", "--eps", "1", "--ell", "16"]) == 0
        rep = json.loads(capsys.readouterr().out)
        import math
        assert abs(rep["value"] - math.exp(-1)) < 1e-12

    def test_shift_lb_value(self, tmp_path, capsys):
        assert main(["shift-lb", "--n", "15", "--rho", "1", "--eps", "1/2"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["value"] == 1.0
        assert rep["epsilon"] == "1/2"


class TestEncodingCommands:
    def test_clique_weight_and_omega(self, tmp_path, capsys):
        write(tmp_path / "g.json",
              {"n": 3, "vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]})
        w = tmp_path / "w.json"
        assert main(["clique-weight", "--graph", str(tmp_path / "g.json"),
                     "--out", str(w)]) == 0
        W = RationalMatrix.from_json(json.loads(w.read_text()))
        assert W[0, 2] == -1
        assert main(["clique-omega", "--graph", str(tmp_path / "g.json")]) == 0
        assert json.loads(capsys.readouterr().out)["omega"] == 2

    def test_qall_separate_violation_roundtrip(self, tmp_path):
        write(tmp_path / "x.json", (RationalMatrix.identity(2) * Fraction(2)).to_json())
        rc = main(["qall-separate", "--x", str(tmp_path / "x.json"),
                   "--out", str(tmp_path / "rep.json"),
                   "--cert", str(tmp_path / "cert.json")])
        assert rc == 1
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["status"] == "violated" and rep["lhs"] == "2"
        assert main(["check-cert", "--cert", str(tmp_path / "cert.json")]) == 0

    def test_qall_violation_certificate_at_zero_rejected(self, tmp_path):
        # the graph row that 2I violates holds at x = 0
        self.test_qall_separate_violation_roundtrip(tmp_path)
        cert = json.loads((tmp_path / "cert.json").read_text())
        assert cert["constraint"]["kind"] == "graph"
        cert["x"] = RationalMatrix(2, 2).to_json()
        write(tmp_path / "zeroed.json", cert)
        assert main(["check-cert", "--cert", str(tmp_path / "zeroed.json"),
                     "--out", str(tmp_path / "cc.json")]) == 1
        assert json.loads((tmp_path / "cc.json").read_text())["valid"] is False

    def test_qall_separate_inside(self, tmp_path):
        write(tmp_path / "x.json",
              RationalMatrix.from_rows([[Fraction(1), Fraction(1)],
                                        [Fraction(1), Fraction(1)]]).to_json())
        assert main(["qall-separate", "--x", str(tmp_path / "x.json"),
                     "--out", str(tmp_path / "rep.json")]) == 0

    def test_box_ef_with_report(self, tmp_path):
        write(tmp_path / "g.json", {"n": 2, "vertices": [1, 2], "edges": []})
        rc = main(["box-ef", "--n", "2", "--graph", str(tmp_path / "g.json"),
                   "--out", str(tmp_path / "ef.json"),
                   "--report", str(tmp_path / "rep.json")])
        assert rc == 0
        ef = ExtendedFormulation.from_json(json.loads((tmp_path / "ef.json").read_text()))
        assert ef.size == 8
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["box_max"] == "2" and rep["cor_max"] == "1" and rep["ok"]

    def test_psd_check(self, tmp_path, capsys):
        assert main(["psd-check", "--n", "4"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["ok"] is True and rep["pairs"] == 256

    def test_spectra_witness_pass_and_fail(self, tmp_path):
        assert main(["spectra-witness", "--n", "3", "--b", "101",
                     "--out", str(tmp_path / "w.json")]) == 0
        # a wrong Y breaks the equation; the certificate re-verifies
        write(tmp_path / "y.json", RationalMatrix.identity(4).to_json())
        rc = main(["spectra-witness", "--n", "3", "--b", "101",
                   "--y", str(tmp_path / "y.json"),
                   "--out", str(tmp_path / "w.json"),
                   "--cert", str(tmp_path / "cert.json")])
        assert rc == 1
        assert main(["check-cert", "--cert", str(tmp_path / "cert.json")]) == 0


class TestExitDiscipline:
    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["clique-omega", "--graph", str(tmp_path / "nope.json")]) == 2

    def test_path_collision(self, tmp_path):
        write(tmp_path / "g.json", {"n": 1, "vertices": [], "edges": []})
        assert main(["clique-weight", "--graph", str(tmp_path / "g.json"),
                     "--out", str(tmp_path / "g.json")]) == 2

    def test_budget_exhaustion(self, tmp_path, slow_scan):
        rc = main(["--budget-ms", "1", "corruption-scan", "--n", "3",
                   "--eps", "1/2", "--out", str(tmp_path / "never.json")])
        assert rc == 3
        assert not (tmp_path / "never.json").exists()

    def test_budget_reaches_lp_pivots(self, tmp_path):
        hp = build_hard_pair(4)
        write(tmp_path / "p.json", hp.P.to_json())
        write(tmp_path / "q.json", hp.Q.to_json())
        write(tmp_path / "k.json", trivial_ef(hp.Q).to_json())
        rc = main(["--budget-ms", "1", "verify-sandwich", "--p", str(tmp_path / "p.json"),
                   "--q", str(tmp_path / "q.json"), "--rho", "1",
                   "--ef", str(tmp_path / "k.json"), "--out", str(tmp_path / "never.json")])
        assert rc == 3
        assert not (tmp_path / "never.json").exists()

    def test_budget_reaches_restart_pivots(self, tmp_path, monkeypatch):
        # K = {x : x - y0 + y1 = 0, y >= 0}; the containment family's phase 1
        # (at v = 1) spends the budget, and v = -1 needs a dual pivot, whose
        # poll is the first after it
        from efbound import ratlin
        from efbound.errors import BudgetError, set_budget_ms
        phase1, restart = ratlin._Tableau.phase1, ratlin._Tableau.restart
        stopped = []

        def spent(tab):
            out = phase1(tab)
            set_budget_ms(0)
            return out

        def watched(tab, rhs):
            try:
                return restart(tab, rhs)
            except BudgetError:
                stopped.append(rhs)
                raise
        monkeypatch.setattr(ratlin._Tableau, "phase1", spent)
        monkeypatch.setattr(ratlin._Tableau, "restart", watched)
        monkeypatch.delenv("EFBOUND_BUDGET_MS", raising=False)
        K = ExtendedFormulation(RationalMatrix.from_rows([[1]]),
                                RationalMatrix.from_rows([[-1, 1]]), [0])
        write(tmp_path / "p.json", VRep(1, [[1], [-1]]).to_json())
        write(tmp_path / "q.json", HRep(1, [[1], [-1]], [5, 5]).to_json())
        write(tmp_path / "k.json", K.to_json())
        rc = main(["verify-sandwich", "--p", str(tmp_path / "p.json"),
                   "--q", str(tmp_path / "q.json"), "--rho", "1",
                   "--ef", str(tmp_path / "k.json"), "--out", str(tmp_path / "never.json")])
        assert rc == 3
        assert stopped == [[1]]  # the lifting g - E v of v = -1
        assert not (tmp_path / "never.json").exists()

    def test_budget_reaches_sampled_scan(self, tmp_path):
        rc = main(["--budget-ms", "1", "corruption-scan", "--n", "11", "--eps", "1/2",
                   "--mode", "sample", "--count", "150", "--out", str(tmp_path / "never.json")])
        assert rc == 3
        assert not (tmp_path / "never.json").exists()

    def test_budget_reaches_cone_pass(self, tmp_path, monkeypatch):
        # rank 2 < 3 = min(m, n), so the extreme-column pass runs; its first
        # column outlasts the budget after its LP, so only the poll before
        # the next column can stop the pass
        calls = []
        genuine = nnfact.nonneg_solutions

        def slow(F, rhss):
            calls.append(F)
            results = list(genuine(F, rhss))
            time.sleep(0.3)
            return iter(results)
        monkeypatch.setattr(nnfact, "nonneg_solutions", slow)
        write(tmp_path / "m.json", RationalMatrix.from_rows(_RANK2).to_json())
        rc = main(["--budget-ms", "200", "nnegrk-bounds", "--matrix", str(tmp_path / "m.json"),
                   "--out", str(tmp_path / "never.json")])
        assert rc == 3
        assert len(calls) == 1
        assert not (tmp_path / "never.json").exists()

    def test_budget_checked_after_the_command(self, pair_files, monkeypatch):
        # factorization_to_ef never polls the deadline, so only the check
        # after the handler sees the overrun, and nothing is written
        d = pair_files
        hp = build_hard_pair(2)
        S = build_slack(hp.P, hp.Q).full()
        write(d / "fac.json", NonnegFactorization(S, RationalMatrix.identity(S.cols)).to_json())
        genuine = nnfact.factorization_to_ef

        def slow(Q, fac):
            time.sleep(0.02)
            return genuine(Q, fac)
        monkeypatch.setattr(nnfact, "factorization_to_ef", slow)
        argv = ["fac2ef", "--q", str(d / "q.json"), "--fac", str(d / "fac.json"),
                "--out", str(d / "never.json")]
        assert main(["--budget-ms", "5"] + argv) == 3
        assert not (d / "never.json").exists()
        assert not (d / "never.json.cert.json").exists()
        assert main(argv) == 0

    def test_failed_internal_check_exits_four(self, pair_files, monkeypatch, capsys):
        from efbound import ratlin
        genuine = ratlin._Tableau.phase2

        def off_by_one(self, c):
            res = genuine(self, c)
            if res.status == "optimal":
                res.value += 1
            return res
        monkeypatch.setattr(ratlin._Tableau, "phase2", off_by_one)
        d = pair_files
        write(d / "k.json", trivial_ef(build_hard_pair(2).Q).to_json())
        rc = main(["verify-sandwich", "--p", str(d / "p.json"), "--q", str(d / "q.json"),
                   "--rho", "1", "--ef", str(d / "k.json"), "--out", str(d / "never.json")])
        assert rc == 4
        assert "internal check failed" in capsys.readouterr().err
        assert not (d / "never.json").exists()

    def test_sampled_scan_beyond_its_limit_exits_three(self, tmp_path, monkeypatch, capsys):
        # _counts packs ints of C(n, l)^2 / 8 bytes: 16 MB at n = 19, 1.2 GB at n = 23
        def never(params):
            raise AssertionError("the l-subset masks were built")
        monkeypatch.setattr(udisj, "_neighbour_masks", never)
        assert main(["corruption-scan", "--n", "23", "--eps", "1/2", "--mode", "sample",
                     "--count", "2", "--out", str(tmp_path / "never.json")]) == 3
        assert "n=23 exceeds the enumeration limit 19" in capsys.readouterr().err
        assert not (tmp_path / "never.json").exists()

    def test_short_edge_vector_exits_two(self, tmp_path, capsys):
        write(tmp_path / "x.json", ["1"])
        assert main(["covmap", "--n", "100000", "--vec", str(tmp_path / "x.json"),
                     "--out", str(tmp_path / "never.json")]) == 2
        assert "needs 4999950000 entries, got 1" in capsys.readouterr().err

    def test_shift_lb_overflow_is_input_error(self, capsys):
        assert main(["shift-lb", "--n", "200003", "--rho", "1"]) == 2
        assert "floating-point range" in capsys.readouterr().err

    def test_bad_env_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EFBOUND_BUDGET_MS", "soon")
        assert main(["psd-check", "--n", "2"]) == 2

    def test_env_budget_applies(self, tmp_path, monkeypatch, slow_scan):
        monkeypatch.setenv("EFBOUND_BUDGET_MS", "1")
        assert main(["corruption-scan", "--n", "3", "--eps", "1/2",
                     "--out", str(tmp_path / "never.json")]) == 3
        assert not (tmp_path / "never.json").exists()

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_invalid_cert_kind(self, tmp_path):
        write(tmp_path / "c.json", {"kind": "mystery"})
        assert main(["check-cert", "--cert", str(tmp_path / "c.json")]) == 2


def _run_main(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _matches_library(argv, library, given, read_back):
    """The closed-form CLI call argv writes the value library(*read_back(rep))
    at the parameters its artifact rep reports; or it exits 2 and
    library(*given), at the parameters given on the command line, raises
    InputError."""
    rc, out, _ = _run_main(argv)
    if rc == 0:
        rep = json.loads(out)
        assert rep["value"] == library(*read_back(rep))
    else:
        assert rc == 2
        with pytest.raises(InputError):
            library(*given)


class TestClosedFormArtifacts:
    """corruption-bound and shift-lb report the library's value at the
    epsilon and C they write beside it."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([15, 99, 4443]),
           st.fractions(min_value=1, max_value=6, max_denominator=8),
           st.none() | st.fractions(min_value=0, max_value=1, max_denominator=16),
           st.fractions(min_value=0, max_value=3, max_denominator=4))
    def test_shift_lb_value_at_its_parameters(self, n, rho, eps, C):
        argv = ["shift-lb", "--n", str(n), "--rho", str(rho), "--C", str(C)]
        if eps is not None:
            argv += ["--eps", str(eps)]
        _matches_library(argv, lambda e, c: udisj.shift_rank_lb(n, rho, e, c), (eps, C),
                         lambda rep: (Fraction(rep["epsilon"]), Fraction(rep["C"])))

    @settings(max_examples=80, deadline=None)
    @given(st.fractions(min_value=0, max_value=2, max_denominator=16),
           st.integers(1, 5000),
           st.fractions(min_value=0, max_value=3, max_denominator=4))
    def test_corruption_bound_value_at_its_parameters(self, eps, ell, C):
        _matches_library(
            ["corruption-bound", "--eps", str(eps), "--ell", str(ell), "--C", str(C)],
            udisj.corruption_rhs, (eps, ell, C),
            lambda rep: (Fraction(rep["epsilon"]), rep["ell"], Fraction(rep["C"])))

    def test_C_counts_without_eps(self):
        """Without --eps, C enters the value (eps = 1/(2 rho)) and is
        checked like any other input."""
        def value(*extra):
            rc, out, _ = _run_main(["shift-lb", "--n", "4443", *extra])
            assert rc == 0
            return json.loads(out)["value"]
        assert value("--rho", "1", "--C", "1") == 15571.72470613671
        assert value("--rho", "1", "--C", "1") == value("--rho", "1", "--eps", "1/2", "--C", "1")
        assert value("--rho", "1") == 17300186.148517884
        assert value("--rho", "3/2", "--C", "1") == 1.0
        rc, out, err = _run_main(["shift-lb", "--n", "15", "--rho", "1", "--C", "-1"])
        assert (rc, out) == (2, "") and "C must be >= 0, got -1" in err


class TestDeterminism:
    def test_nnegrk_bounds_byte_identical(self, pair_files):
        d = pair_files
        hp = build_hard_pair(2)
        write(d / "smat.json", build_slack(hp.P, hp.Q).full().to_json())
        for name in ("n1.json", "n2.json"):
            assert main(["nnegrk-bounds", "--matrix", str(d / "smat.json"),
                         "--seed", "5", "--out", str(d / name)]) == 0
        assert (d / "n1.json").read_bytes() == (d / "n2.json").read_bytes()

    def test_sampled_scan_byte_identical(self, tmp_path):
        for name in ("s1.json", "s2.json"):
            assert main(["corruption-scan", "--n", "7", "--eps", "1/2",
                         "--mode", "sample", "--seed", "9", "--count", "30",
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()

    def test_build_artifacts_byte_identical(self, tmp_path):
        for name in ("a.json", "b.json"):
            assert main(["hardpair-slack", "--n", "3", "--rho", "3/2",
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


# sha256 of udisj artifacts as written by the Fraction-per-element
# implementation; the integer kernels must reproduce them byte for byte
_SCAN3 = ["corruption-scan", "--n", "3"]
_SAMPLE7 = ["corruption-scan", "--n", "7", "--eps", "5/16", "--mode", "sample",
            "--seed", "4", "--count", "200"]
_SHIFT4 = ["udisj-shift", "--n", "4", "--rho", "217/97"]
PINNED_UDISJ = [
    (_SCAN3 + ["--eps", "0"],
     "71683a8231bf4909adb9aabe13d5ccc9ec2ebe40b97e76a6ee24264c8a28f7ae"),
    (_SCAN3 + ["--eps", "1/2"],
     "1d212e91a5ee3d7e30317ca5e1305b65d037cdec89faf48e35bc199738e31f62"),
    (_SCAN3 + ["--eps", "517/1024"],
     "8f54c13019582011372bf9bc37c2cfd5cc3502311df23652fff6653a0899406d"),
    (_SCAN3 + ["--eps", "3/4"],
     "c0a4f958b020c9cd5ef32c4d5a228158b5139b0615058f293a00686e48fe1ace"),
    (_SCAN3 + ["--eps", "517/1024", "--format", "csv"],
     "ace707f78f9f6f9a1882842937c95610f11bd0cb984d1895cae0599ede1d95c0"),
    (_SAMPLE7,
     "1700eb9a89a8a736e582ceb5ea1745802112ca33e9bc9ead428de9f9aebe9062"),
    (_SAMPLE7 + ["--format", "csv"],
     "a20a832b0fadfb850d02c3d0dcac68192714d03bdb5809d6789999440f0bef0c"),
    (["corruption-scan", "--n", "11", "--eps", "17/64", "--mode", "sample",
      "--seed", "3", "--count", "40"],
     "cec8b3c1d72d2358471c5bbde1b335e5c3cf7130c3527653fc53f86cc0b5b5ed"),
    (["corruption-scan", "--n", "11", "--eps", "23/64", "--mode", "sample", "--count", "150",
      "--seed", "9", "--format", "csv"],
     "3e65196251b807d14ecae357292e707b81e9ec39211ceeb3ab6c14efcf6d6ef6"),
    (["razborov-check", "--n", "7", "--trials", "3", "--seed", "7"],
     "f7f812f0eec62898eecca3fb11032d36514cf32d10a7cb6538d2f2b230b83624"),
    (["razborov-check", "--n", "7", "--trials", "2", "--seed", "5"],
     "241ffb7dee7d3a147f420eb4408fa969e75e36f171060c6da3ab2e2cc4a9bb83"),
    (["razborov-check", "--n", "11", "--f", "contains:3", "--g", "avoids:5"],
     "dd111e06665606046bebddf8dae9561dcf34e6f5a769f6880ba37dce30ae6029"),
    # Fraction tables with mixed denominators
    (["razborov-check", "--n", "11", "--trials", "1", "--seed", "2"],
     "b52e54131abb66238dfbc41614ec2cf706f0ab330b6e8a81474520d590fb5154"),
    (_SHIFT4,
     "225ab136bad89f0ca5eaa390b0430eef830e300a62d5c2a1983a6960b7d16212"),
    (_SHIFT4 + ["--fill", "5/3"],
     "48f21a05a6a8c218a2db8b0ebc2c62aa2bf01d8dfc8b19be308e8f6ab66f858e"),
    # the benchmark's size, as written by one rat_str call per entry
    (["udisj-shift", "--n", "8", "--rho", "211/97"],
     "319f193b57f155ef2157b17d27f12c64abc23c23c9cdd0e74083548252dde150"),
]


@pytest.mark.parametrize("argv,digest", PINNED_UDISJ,
                         ids=[" ".join(argv) for argv, _ in PINNED_UDISJ])
def test_udisj_artifacts_pinned(tmp_path, argv, digest):
    out = tmp_path / "artifact"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_csv_scan_to_stdout_pinned(capsys):
    # as written from a list of (id, Fraction triple) records, without --out
    assert main(_SCAN3 + ["--eps", "523/1024", "--format", "csv"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "f5e5f7df2987042207fdcfe31ca650ab7da34eb374bdb2279c86598a3dc9d487"


json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda kids: st.lists(kids) | st.dictionaries(st.text(), kids)
    | st.lists(st.sampled_from(["0", "1/2", "-7/3", "\u00e9", ""]), min_size=1),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(json_trees)
def test_json_writer_matches_indented_dumps(x):
    # empty containers, non-ASCII text, nesting, ints, floats (NaN and
    # infinities included), bools and None, and flat lists of repeated strings
    assert cli._json_text(x) == json.dumps(x, sort_keys=True, indent=2)


@pytest.fixture(scope="module")
def lp_artifacts(tmp_path_factory):
    """The LP-layer artifacts of the hard pairs n=3, 4 with their trivial
    EFs and of the box EF n=3, written through the CLI into one directory."""
    d = tmp_path_factory.mktemp("lp")

    def f(name):
        return str(d / name)
    for n in (3, 4):
        hp = build_hard_pair(n)
        write(d / f"p{n}.json", hp.P.to_json())
        write(d / f"q{n}.json", hp.Q.to_json())
        write(d / f"k{n}.json", trivial_ef(hp.Q).to_json())
    assert main(["box-ef", "--n", "3", "--out", f("box3.json")]) == 0
    assert main(["hardpair-slack", "--n", "3", "--rho", "3/2", "--out", f("hs3.json")]) == 0
    runs = [
        (0, ["verify-sandwich", "--p", f("p3.json"), "--q", f("q3.json"), "--rho", "1",
             "--ef", f("k3.json"), "--out", f("vs3.json")]),
        (0, ["verify-sandwich", "--p", f("p4.json"), "--q", f("q4.json"), "--rho", "1",
             "--ef", f("k4.json"), "--out", f("vs4.json")]),
        (1, ["verify-sandwich", "--p", f("p3.json"), "--q", f("q3.json"), "--rho", "2",
             "--ef", f("box3.json"), "--out", f("box_vs.json"), "--cert", f("box_cert.json")]),
        (0, ["check-cert", "--cert", f("box_cert.json"), "--out", f("box_cc.json")]),
        (0, ["ef2fac", "--ef", f("k3.json"), "--p", f("p3.json"), "--q", f("q3.json"),
             "--out", f("fac3.json")]),
        (0, ["fac2ef", "--q", f("q3.json"), "--fac", f("fac3.json"), "--out", f("ef3.json")]),
        (0, ["nnegrk-bounds", "--matrix", f("hs3.json"), "--out", f("nb3.json")]),
    ]
    for rc, argv in runs:
        assert main(argv) == rc, argv
    return d


# sha256 of the LP-layer artifacts as written by the Fraction tableau; the
# integer tableau must reproduce them byte for byte
PINNED_LP = {
    "box_cc.json": "603aa9d09c3a26b7b812176ec823485ec7a6fadfd813eb485aa0b8f5f2000b5e",
    "box_cert.json": "ae9020c4e3680d844464be56a5d103c2891ff4e17d116aac7f5e937a06d59fb6",
    "box_vs.json": "4ca33a0dbef5bd549f2c22150665d7c5d510469352cd07c7933a4914542480c2",
    "ef3.json": "45a7e7d32e1081d13990fb4fe7e7b20117f43a9e5d2d95545f6c97cf989a6d5d",
    "fac3.json": "8c8339fa79c7637c1c8cf0831f3e7ebe7baa3cff4268b81e9c25b5172886b5bf",
    "nb3.json": "3aa8c58c76d472eef1d22423ec3c304a99f307eec21c7f110b3dd071e42047bb",
    "vs3.json": "78bb9919ee6d8cd7238c41aaba5f02281d4f9b544f73fcffbffa071cc8358ed9",
    "vs4.json": "ef8646e328b23c510647572d9455e1c69f706f8a436be948fae5c287234d4879",
}


@pytest.mark.parametrize("name", sorted(PINNED_LP))
def test_lp_artifacts_pinned(lp_artifacts, name):
    assert hashlib.sha256((lp_artifacts / name).read_bytes()).hexdigest() == PINNED_LP[name]


# sha256 of nnegrk-bounds reports whose witness is made of the extreme
# columns of S; they fix the order of those columns and the LP solutions
# that make U.  "rank3_dupcol" repeats a column, which is not extreme, so its
# witness has rank 3 < 4.
_RANK2 = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
PINNED_NNEGRK = {
    "rank2": (_RANK2,
              "1ecf14b4d6d2752bd9166a0aca4dac43e84cc3545e42a45433a28546ff8756bd"),
    "ones4": ([[1] * 4] * 4,
              "47931daa51bf2c12e7678bb55f59509a56041762280d8bdb6c01c228bd96d8fe"),
    "rank3_dupcol": ([[1, 4, 1, 4], [2, 4, 2, 5], [2, 0, 2, 6], [0, 4, 0, 1]],
                     "e15704d8547343b2b517610989a3e8d6927f805953967a3e439626831d4b5ab8"),
}


@pytest.mark.parametrize("name", sorted(PINNED_NNEGRK))
def test_nnegrk_witnesses_pinned(tmp_path, name):
    rows, digest = PINNED_NNEGRK[name]
    write(tmp_path / "m.json", RationalMatrix.from_rows(rows).to_json())
    out = tmp_path / "nb.json"
    assert main(["nnegrk-bounds", "--matrix", str(tmp_path / "m.json"),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestParserReuse:
    """main builds its parser once per process; no call may leak into the next."""

    def test_options_do_not_carry_over(self, tmp_path):
        d = tmp_path
        default = ["udisj-shift", "--n", "3", "--rho", "2"]
        cli._build_parser.cache_clear()
        assert main(default + ["--out", str(d / "alone.json")]) == 0
        assert main(default + ["--fill", "3",
                               "--out", str(d / "tuned.json")]) == 0
        assert main(default + ["--out", str(d / "after.json")]) == 0
        assert (d / "tuned.json").read_bytes() != (d / "alone.json").read_bytes()
        assert (d / "after.json").read_bytes() == (d / "alone.json").read_bytes()

    def test_valid_call_after_parse_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
        assert main(["psd-check", "--n", "2"]) == 0
        capsys.readouterr()

    def test_budget_does_not_carry_over(self, tmp_path, slow_scan):
        argv = ["corruption-scan", "--n", "3", "--eps", "1/2", "--out", str(tmp_path / "s.json")]
        assert main(["--budget-ms", "1"] + argv) == 3
        assert not (tmp_path / "s.json").exists()
        assert main(argv) == 0


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        env = child_env()
        out = tmp_path / "s.json"
        proc = subprocess.run(
            [sys.executable, "-m", "efbound.cli", "hardpair-slack",
             "--n", "2", "--rho", "1", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        SlackMatrix.from_json(json.loads(out.read_text()))

    def test_no_command_loads_numpy(self, tmp_path):
        # efbound runs on the standard library alone, so no command loads
        # numpy or numpy.random: each call gives [exit code, loaded]
        d = tmp_path
        env = child_env()
        write(d / "k.json", trivial_ef(build_hard_pair(3).Q).to_json())
        write(d / "rank2.json", RationalMatrix.from_rows(_RANK2).to_json())
        write(d / "id.json", RationalMatrix.identity(3).to_json())
        code = ("import json, sys\n"
                "from efbound.cli import main\n"
                "codes = [[main(argv), 'numpy.random' in sys.modules]\n"
                "         for argv in json.loads(sys.argv[1])]\n"
                "print(json.dumps([codes, 'numpy' in sys.modules]))\n")

        def run(*argvs):
            proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                                  capture_output=True, text=True, env=env, cwd=d,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        assert run(["hardpair", "--n", "3", "--out-p", "p.json", "--out-q", "q.json"],
                   ["verify-sandwich", "--p", "p.json", "--q", "q.json", "--rho", "1",
                    "--ef", "k.json", "--out", "rep.json"],
                   ["corruption-scan", "--n", "3", "--eps", "1/2", "--out", "scan.json"],
                   ["udisj-shift", "--n", "3", "--rho", "2", "--out", "shift.json"],
                   ["nnegrk-bounds", "--matrix", "id.json", "--out", "nb_id.json"],
                   ["nnegrk-bounds", "--matrix", "rank2.json", "--out", "nb.json"],
                   ["psd-check", "--n", "2", "--out", "psd.json"]
                   ) == [[[0, False]] * 7, False]
        assert json.loads((d / "rep.json").read_text())["ok"] is True
        assert "upper_witness" in json.loads((d / "nb.json").read_text())
        assert json.loads((d / "psd.json").read_text())["ok"] is True

    def test_modules_loaded_only_by_their_commands(self, tmp_path):
        # a fresh interpreter compiles every module it imports, so importing
        # the package or the CLI loads no library module, and each command
        # loads only the modules it calls
        d = tmp_path
        env = child_env()
        hp = build_hard_pair(2)
        write(d / "p.json", hp.P.to_json())
        write(d / "q.json", hp.Q.to_json())
        write(d / "k.json", trivial_ef(hp.Q).to_json())
        write(d / "id.json", RationalMatrix.identity(3).to_json())
        write(d / "rv.json", dict(WELL_FORMED["row-violation"], kind="row-violation"))
        # argv None: import efbound only; []: import efbound.cli only
        code = ("import json, sys\n"
                "argv = json.loads(sys.argv[1])\n"
                "import efbound\n"
                "rc = None\n"
                "if argv is not None:\n"
                "    from efbound.cli import main\n"
                "    if argv:\n"
                "        try:\n"
                "            rc = main(argv)\n"
                "        except SystemExit as exc:\n"
                "            rc = exc.code\n"
                "print(json.dumps([rc, sorted(m for m in sys.modules\n"
                "                             if m.partition('.')[0] == 'efbound')]))\n")

        def run(argv):
            proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                                  capture_output=True, text=True, env=env, cwd=d,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        def cli_and(*modules):
            return sorted(["efbound", "efbound.cli", "efbound.errors"]
                          + [f"efbound.{m}" for m in modules])

        assert run(None) == [None, ["efbound"]]
        assert run([]) == [None, cli_and()]
        assert run(["frobnicate"]) == [2, cli_and()]
        for argv, modules in [
                (["corruption-scan", "--n", "3", "--eps", "1/2", "--out", "scan.json"],
                 ["ratlin", "udisj"]),
                (["verify-sandwich", "--p", "p.json", "--q", "q.json", "--rho", "1",
                  "--ef", "k.json", "--out", "rep.json"], ["polyhedra", "ratlin"]),
                (["hardpair", "--n", "2", "--out-p", "p2.json", "--out-q", "q2.json"],
                 ["encodings", "polyhedra", "ratlin"]),
                (["hardpair-slack", "--n", "2", "--out", "s.json"],
                 ["encodings", "polyhedra", "ratlin", "udisj"]),
                (["nnegrk-bounds", "--matrix", "id.json", "--out", "nb.json"],
                 ["nnfact", "polyhedra", "ratlin"]),
                (["check-cert", "--cert", "rv.json", "--out", "cc.json"],
                 ["polyhedra", "ratlin"])]:
            assert run(argv) == [0, cli_and(*modules)], argv
        assert json.loads((d / "rep.json").read_text())["ok"] is True
        assert json.loads((d / "cc.json").read_text())["valid"] is True

        # each name the package exports is the object its defining module holds
        for name in efbound.__all__:
            module = f"efbound.{efbound._MODULE_OF[name]}"
            value = getattr(efbound, name)
            assert value is getattr(sys.modules[module], name), name
            assert getattr(value, "__module__", module) in (module, "fractions"), name
        assert set(efbound.__all__) <= set(dir(efbound))
        with pytest.raises(AttributeError):
            efbound.no_such_name

    def test_console_script(self, tmp_path):
        exe = shutil.which("efbound")
        assert exe, "efbound console script not on PATH"
        proc = subprocess.run([exe, "psd-check", "--n", "2"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"] is True


# ---------------------------------------------------------------------------
# the CLI surface, captured from the hand-built parser that the command table
# replaced: option -> (dest, required, default, choices, type name)

CLI_SURFACE = {
    "": {
        "--budget-ms": ("budget_ms", False, None, None, "_positive_int"),
    },
    "slack": {
        "--p": ("p", True, None, None, None),
        "--q": ("q", True, None, None, None),
        "--out": ("out", False, None, None, None),
    },
    "dilate": {
        "--q": ("q", True, None, None, None),
        "--rho": ("rho", True, None, None, "rat"),
        "--out": ("out", False, None, None, None),
    },
    "shift-slack": {
        "--slack": ("slack", True, None, None, None),
        "--rho": ("rho", True, None, None, "rat"),
        "--out": ("out", False, None, None, None),
    },
    "fac2ef": {
        "--q": ("q", True, None, None, None),
        "--fac": ("fac", True, None, None, None),
        "--slack": ("slack", False, None, None, None),
        "--out": ("out", False, None, None, None),
        "--cert": ("cert", False, None, None, None),
    },
    "ef2fac": {
        "--ef": ("ef", True, None, None, None),
        "--p": ("p", True, None, None, None),
        "--q": ("q", True, None, None, None),
        "--out": ("out", False, None, None, None),
        "--cert": ("cert", False, None, None, None),
    },
    "nnegrk-bounds": {
        "--matrix": ("matrix", True, None, None, None),
        "--seed": ("seed", False, 0, None, "int"),
        "--out": ("out", False, None, None, None),
    },
    "udisj-shift": {
        "--n": ("n", True, None, None, "_positive_int"),
        "--rho": ("rho", True, None, None, "rat"),
        "--fill": ("fill", False, None, None, "rat"),
        "--out": ("out", False, None, None, None),
    },
    "razborov-check": {
        "--n": ("n", True, None, None, "_positive_int"),
        "--trials": ("trials", False, 5, None, "_positive_int"),
        "--seed": ("seed", False, 0, None, "int"),
        "--f": ("f", False, None, None, None),
        "--g": ("g", False, None, None, None),
        "--out": ("out", False, None, None, None),
        "--cert": ("cert", False, None, None, None),
    },
    "corruption-scan": {
        "--n": ("n", True, None, None, "_positive_int"),
        "--eps": ("eps", True, None, None, "rat"),
        "--mode": ("mode", False, "exhaustive", ("exhaustive", "sample"), None),
        "--seed": ("seed", False, 0, None, "int"),
        "--count": ("count", False, 1000, None, "_positive_int"),
        "--format": ("format", False, "json", ("json", "csv"), None),
        "--out": ("out", False, None, None, None),
    },
    "corruption-bound": {
        "--eps": ("eps", True, None, None, "rat"),
        "--ell": ("ell", True, None, None, "_positive_int"),
        "--C": ("C", False, Fraction(0, 1), None, "rat"),
        "--out": ("out", False, None, None, None),
    },
    "shift-lb": {
        "--n": ("n", True, None, None, "_positive_int"),
        "--rho": ("rho", True, None, None, "rat"),
        "--eps": ("eps", False, None, None, "rat"),
        "--C": ("C", False, Fraction(0, 1), None, "rat"),
        "--out": ("out", False, None, None, None),
    },
    "hardpair": {
        "--n": ("n", True, None, None, "_positive_int"),
        "--out-p": ("out_p", True, None, None, None),
        "--out-q": ("out_q", True, None, None, None),
    },
    "hardpair-slack": {
        "--n": ("n", True, None, None, "_positive_int"),
        "--rho": ("rho", False, Fraction(1, 1), None, "rat"),
        "--out": ("out", False, None, None, None),
    },
    "clique-weight": {
        "--graph": ("graph", True, None, None, None),
        "--out": ("out", False, None, None, None),
    },
    "clique-omega": {
        "--graph": ("graph", True, None, None, None),
        "--out": ("out", False, None, None, None),
    },
    "qall-separate": {
        "--x": ("x", True, None, None, None),
        "--mode": ("mode", False, "exhaustive", ("exhaustive", "sample"), None),
        "--seed": ("seed", False, 0, None, "int"),
        "--count": ("count", False, 200, None, "_positive_int"),
        "--out": ("out", False, None, None, None),
        "--cert": ("cert", False, None, None, None),
    },
    "box-ef": {
        "--n": ("n", True, None, None, "_positive_int"),
        "--graph": ("graph", False, None, None, None),
        "--out": ("out", False, None, None, None),
        "--report": ("report", False, None, None, None),
    },
    "cut-family": {
        "--kind": ("kind", True, None, ("cut_polytope", "cut_cone", "correlation_cone"), None),
        "--n": ("n", True, None, None, "_positive_int"),
        "--out": ("out", False, None, None, None),
    },
    "covmap": {
        "--n": ("n", True, None, None, "_positive_int"),
        "--vec": ("vec", True, None, None, None),
        "--out": ("out", False, None, None, None),
    },
    "psd-check": {
        "--n": ("n", True, None, None, "_positive_int"),
        "--out": ("out", False, None, None, None),
    },
    "spectra-witness": {
        "--n": ("n", True, None, None, "_positive_int"),
        "--b": ("b", True, None, None, None),
        "--y": ("y", False, None, None, None),
        "--out": ("out", False, None, None, None),
        "--cert": ("cert", False, None, None, None),
    },
    "verify-sandwich": {
        "--p": ("p", True, None, None, None),
        "--q": ("q", True, None, None, None),
        "--rho": ("rho", True, None, None, "rat"),
        "--ef": ("ef", True, None, None, None),
        "--out": ("out", False, None, None, None),
        "--cert": ("cert", False, None, None, None),
    },
    "check-cert": {
        "--cert": ("cert_file", True, None, None, None),
        "--out": ("out", False, None, None, None),
    },
}


def test_cli_surface_unchanged():
    """No subcommand or option dropped or added, none changed."""
    top = cli._build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: {", ".join(a.option_strings): (a.dest, a.required, a.default,
                                             tuple(a.choices) if a.choices else None,
                                             a.type.__name__ if a.type else None)
               for a in p._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)}
        for name, p in [("", top)] + list(sub.choices.items())}
    assert surface == CLI_SURFACE


def _mat(rows, cols, entries):
    return {"rows": rows, "cols": cols, "entries": entries}


# one well-formed certificate of each kind; the EF is {x : x + w = 0, w >= 0}
_EF = {"E": _mat(1, 1, ["1"]), "F": _mat(1, 1, ["1"]), "g": ["0"]}
WELL_FORMED = {
    "contains-failure": {"ef": _EF, "target_kind": "point", "target": ["1"], "u": ["1"]},
    "row-violation": {"ef": _EF, "row": ["-1"], "bound": "0", "point": ["-1"],
                      "lifting": ["1"]},
    "qall-violation": {"x": _mat(2, 2, ["1", "-1", "-1", "1"]),
                       "constraint": {"kind": "sign", "entry": [1, 2]}},
    "factorization-invalid": {"matrix": _mat(1, 1, ["1"]),
                              "fac": {"T": _mat(1, 1, ["1"]), "U": _mat(1, 1, ["2"])}},
    "spectra-failure": {"n": 1, "b": 1, "y": _mat(2, 2, ["1", "0", "0", "1"])},
    # the identities hold for these tables, so the certificate is well formed
    # but false
    "razborov-failure": {"n": 3, "f": {"n": 3, "values": ["1"] * 8},
                         "g": {"n": 3, "values": ["1"] * 8}},
}


class TestMalformedCertificate:
    """check-cert exits 2 (input error) on a certificate with a field missing
    or of the wrong type, and on a file that holds no JSON object; never 1,
    which means a well-formed certificate that does not verify."""

    @staticmethod
    def check(tmp_path, data):
        write(tmp_path / "c.json", data)
        return main(["check-cert", "--cert", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "o.json")])

    @pytest.mark.parametrize("kind", sorted(WELL_FORMED))
    def test_each_field(self, tmp_path, kind):
        body = WELL_FORMED[kind]
        assert self.check(tmp_path, dict(body, kind=kind)) == (
            1 if kind == "razborov-failure" else 0)
        for field in body:
            if field != "y":  # spectra-failure's y is optional
                missing = {k: v for k, v in body.items() if k != field}
                assert self.check(tmp_path, dict(missing, kind=kind)) == 2, field
            assert self.check(tmp_path, dict(body, kind=kind, **{field: {"x": 1}})) == 2, field

    @pytest.mark.parametrize("kind,patch", [
        ("contains-failure", {"target_kind": "line"}),
        ("contains-failure", {"target": "1"}),
        ("row-violation", {"point": ["-1", "0"]}),
        ("qall-violation", {"constraint": {"kind": "sign", "entry": [1, 3]}}),
        ("qall-violation", {"constraint": {"kind": "sign", "entry": [1, 2, 2]}}),
        ("qall-violation", {"constraint": {"kind": "graph",
                                           "graph": {"n": 3, "vertices": [1], "edges": []}}}),
        ("qall-violation", {"x": _mat(1, 2, ["1", "-1"])}),
        ("spectra-failure", {"n": "1"}),
        ("spectra-failure", {"n": 0}),
        ("spectra-failure", {"b": "1"}),
        ("razborov-failure", {"n": 3.0}),
        ("razborov-failure", {"f": {"n": 3, "values": ["1"] * 7}}),
        ("razborov-failure", {"f": {"n": 3.5, "values": ["1"] * 8}}),
        ("row-violation", {"lifting": ["1", "0"]}),
    ])
    def test_wrong_value(self, tmp_path, kind, patch):
        assert self.check(tmp_path, dict(WELL_FORMED[kind], kind=kind, **patch)) == 2

    @pytest.mark.parametrize("data", [[{"kind": "row-violation"}], "row-violation", None, 7,
                                      {"kind": ["row-violation"]}])
    def test_no_certificate_object(self, tmp_path, data, capsys):
        assert self.check(tmp_path, data) == 2
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()


def test_check_cert_is_solver_free(lp_artifacts, tmp_path, monkeypatch):
    """check-cert re-checks every kind by arithmetic alone: with no LP
    tableau to be had, each well-formed certificate and the refuted box
    n=3 certificate get the verdicts they get with one, and a lifting with
    one entry changed is still rejected."""
    box = json.loads((lp_artifacts / "box_cert.json").read_text())
    bad = dict(box, lifting=["7"] + box["lifting"][1:])

    def no_tableau(*args, **kwargs):
        raise RuntimeError("check-cert built an LP tableau")
    monkeypatch.setattr(ratlin._Tableau, "__init__", no_tableau)
    for kind, body in WELL_FORMED.items():
        assert TestMalformedCertificate.check(tmp_path, dict(body, kind=kind)) == (
            1 if kind == "razborov-failure" else 0), kind
    assert TestMalformedCertificate.check(tmp_path, box) == 0
    assert TestMalformedCertificate.check(tmp_path, bad) == 1


class TestPathRule:
    """Inputs and outputs are distinct paths, the default certificate path
    counts as an output, and no two outputs share a path.  A run that breaks
    the rule exits 2 and writes nothing."""

    @pytest.fixture
    def refuted(self, pair_files):
        """argv of a verify-sandwich run that fails, lacking its --ef."""
        d = pair_files
        write(d / "kbig.json", trivial_ef(dilate(build_hard_pair(2).Q, 2)).to_json())
        return d, ["verify-sandwich", "--p", str(d / "p.json"), "--q", str(d / "q.json"),
                   "--rho", "1"]

    def test_input_at_derived_cert_path(self, refuted):
        d, argv = refuted
        shutil.copy(d / "kbig.json", d / "rep.json.cert.json")
        before = (d / "rep.json.cert.json").read_bytes()
        assert main(argv + ["--ef", str(d / "rep.json.cert.json"),
                            "--out", str(d / "rep.json")]) == 2
        assert (d / "rep.json.cert.json").read_bytes() == before
        assert not (d / "rep.json").exists()

    def test_input_at_default_cert_path(self, refuted, monkeypatch):
        d, argv = refuted
        monkeypatch.chdir(d)
        shutil.copy(d / "kbig.json", d / "certificate.json")
        before = (d / "certificate.json").read_bytes()
        assert main(argv + ["--ef", "certificate.json"]) == 2
        assert (d / "certificate.json").read_bytes() == before

    def test_input_at_cert_path(self, refuted):
        d, argv = refuted
        before = (d / "kbig.json").read_bytes()
        assert main(argv + ["--ef", str(d / "kbig.json"), "--out", str(d / "rep.json"),
                            "--cert", str(d / "kbig.json")]) == 2
        assert (d / "kbig.json").read_bytes() == before
        assert not (d / "rep.json").exists()

    def test_cert_is_a_link_to_an_input(self, refuted):
        d, argv = refuted
        (d / "link.json").symlink_to(d / "kbig.json")
        before = (d / "kbig.json").read_bytes()
        assert main(argv + ["--ef", str(d / "kbig.json"), "--out", str(d / "rep.json"),
                            "--cert", str(d / "link.json")]) == 2
        assert (d / "kbig.json").read_bytes() == before

    def test_out_equals_cert(self, refuted):
        d, argv = refuted
        assert main(argv + ["--ef", str(d / "kbig.json"), "--out", str(d / "x.json"),
                            "--cert", str(d / "x.json")]) == 2
        assert not (d / "x.json").exists()

    def test_hardpair_outputs_collide(self, tmp_path):
        assert main(["hardpair", "--n", "2", "--out-p", str(tmp_path / "x.json"),
                     "--out-q", str(tmp_path / "x.json")]) == 2
        assert not (tmp_path / "x.json").exists()

    def test_missing_output_directory(self, tmp_path, capsys):
        assert main(["hardpair", "--n", "2", "--out-p", str(tmp_path / "hp_p.json"),
                     "--out-q", str(tmp_path / "nodir" / "q.json")]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_cert_directory(self, refuted):
        d, argv = refuted
        assert main(argv + ["--ef", str(d / "kbig.json"), "--out", str(d / "rep.json"),
                            "--cert", str(d / "nodir" / "c.json")]) == 2
        assert not (d / "rep.json").exists()

    def test_box_ef_outputs_collide(self, tmp_path):
        write(tmp_path / "g.json", {"n": 2, "vertices": [1, 2], "edges": []})
        assert main(["box-ef", "--n", "2", "--graph", str(tmp_path / "g.json"),
                     "--out", str(tmp_path / "x.json"),
                     "--report", str(tmp_path / "x.json")]) == 2
        assert not (tmp_path / "x.json").exists()


class TestNothingWrittenOnError:
    def test_box_ef_graph_mismatch(self, tmp_path):
        write(tmp_path / "g3.json", {"n": 3, "vertices": [1, 2, 3], "edges": []})
        assert main(["box-ef", "--n", "2", "--graph", str(tmp_path / "g3.json"),
                     "--out", str(tmp_path / "box.json"),
                     "--report", str(tmp_path / "r.json")]) == 2
        assert not (tmp_path / "box.json").exists()
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("alone", ["--graph", "--report"])
    def test_box_ef_graph_and_report_go_together(self, tmp_path, capsys, alone):
        write(tmp_path / "g.json", {"n": 2, "vertices": [1, 2], "edges": []})
        path = {"--graph": "g.json", "--report": "r.json"}[alone]
        assert main(["box-ef", "--n", "2", alone, str(tmp_path / path),
                     "--out", str(tmp_path / "box.json")]) == 2
        assert "--graph and --report must be given together" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]

    @pytest.mark.parametrize("rho", ["1/2", "-3"])
    def test_shift_slack_rho_below_one(self, pair_files, capsys, rho):
        d = pair_files
        assert main(["slack", "--p", str(d / "p.json"), "--q", str(d / "q.json"),
                     "--out", str(d / "sl.json")]) == 0
        assert main(["shift-slack", "--slack", str(d / "sl.json"), f"--rho={rho}",
                     "--out", str(d / "sl2.json")]) == 2
        assert "rho must be >= 1" in capsys.readouterr().err
        assert not (d / "sl2.json").exists()

    @pytest.mark.parametrize("fill", [["--fill", "hardpair"], ["--fill", "constant"],
                                      ["--fill-value", "7"]])
    def test_udisj_shift_old_fill_options_refused(self, tmp_path, fill):
        with pytest.raises(SystemExit) as err:
            main(["udisj-shift", "--n", "2", "--rho", "1", *fill,
                  "--out", str(tmp_path / "m.json")])
        assert err.value.code == 2
        assert not (tmp_path / "m.json").exists()

    def test_razborov_half_a_pair(self, tmp_path):
        assert main(["razborov-check", "--n", "3", "--f", "ones",
                     "--out", str(tmp_path / "r.json")]) == 2
        assert not (tmp_path / "r.json").exists()

    def test_unwritable_output_is_input_error(self, tmp_path, capsys):
        assert main(["psd-check", "--n", "2",
                     "--out", str(tmp_path / "no" / "such" / "dir.json")]) == 2
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,data", [
        (["nnegrk-bounds", "--matrix"], _mat(2, 2, [True, False, False, True])),
        (["covmap", "--n", "3", "--vec"], [True, 0, 1]),
    ])
    def test_bool_is_not_a_rational(self, tmp_path, capsys, argv, data):
        write(tmp_path / "in.json", data)
        assert main(argv + [str(tmp_path / "in.json"),
                            "--out", str(tmp_path / "out.json")]) == 2
        assert not (tmp_path / "out.json").exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("bad", [2.5, True, "2"])
    @pytest.mark.parametrize("field", ["rows", "cols", "p.dim", "q.dim"])
    def test_shape_must_be_a_json_integer(self, tmp_path, capsys, field, bad):
        """A shape that int() would truncate or convert (2.5, true, "2") is
        an input error, not a matrix or polyhedron of the converted size."""
        if field in ("rows", "cols"):
            m = dict(_mat(2, 2, ["1", "0", "0", "1"]), **{field: bad})
            write(tmp_path / "m.json", m)
            argv = ["nnegrk-bounds", "--matrix", str(tmp_path / "m.json")]
            message = "matrix JSON needs keys rows, cols, entries"
        else:
            P = {"dim": 2, "points": [["0", "0"], ["1", "0"], ["0", "1"]]}
            Q = {"dim": 2, "A": _mat(3, 2, ["-1", "0", "0", "-1", "1", "1"]),
                 "b": ["0", "0", "1"]}
            {"p.dim": P, "q.dim": Q}[field]["dim"] = bad
            write(tmp_path / "p.json", P)
            write(tmp_path / "q.json", Q)
            argv = ["slack", "--p", str(tmp_path / "p.json"), "--q", str(tmp_path / "q.json")]
            message = ("V-rep" if field == "p.dim" else "H-rep") + " JSON needs keys dim"
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
        assert not (tmp_path / "out.json").exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["entries", "points", "rays", "b", "g", "source_b",
                                       "values"])
    def test_string_in_place_of_a_list(self, tmp_path, capsys, field):
        """A JSON string where a list of rationals belongs is an input error,
        not read one character at a time: each input below runs with the
        list, and exits 2 with the list's entries joined into one string."""
        A = _mat(3, 2, ["-1", "0", "0", "-1", "1", "1"])
        P = {"dim": 2, "points": [["0", "0"], ["1", "0"], ["0", "1"]], "rays": [["0", "0"]]}
        Q = {"dim": 2, "A": A, "b": ["0", "0", "1"]}
        write(tmp_path / "p.json", P)
        write(tmp_path / "q.json", Q)
        pq = ["--p", str(tmp_path / "p.json"), "--q", str(tmp_path / "q.json")]
        razborov = dict(WELL_FORMED["razborov-failure"], kind="razborov-failure")
        argv, data, path, rc = {
            "entries": (["nnegrk-bounds", "--matrix"], _mat(2, 2, ["1", "2", "3", "4"]),
                        ["entries"], 0),
            "points": (["slack", "--q", str(tmp_path / "q.json"), "--p"], P, ["points", 1], 0),
            "rays": (["slack", "--q", str(tmp_path / "q.json"), "--p"], P, ["rays", 0], 0),
            "b": (["slack", "--p", str(tmp_path / "p.json"), "--q"], Q, ["b"], 0),
            "g": (["verify-sandwich", *pq, "--rho", "1", "--ef"],
                  {"E": A, "F": _mat(3, 3, ["1", "0", "0", "0", "1", "0", "0", "0", "1"]),
                   "g": ["0", "0", "1"]}, ["g"], 0),
            "source_b": (["shift-slack", "--rho", "2", "--slack"],
                         {"vertex_block": _mat(1, 1, ["1"]), "ray_block": _mat(1, 0, []),
                          "source_b": ["1"]}, ["source_b"], 0),
            "values": (["check-cert", "--cert"], razborov, ["f", "values"], 1),
        }[field]
        write(tmp_path / "in.json", data)
        assert main(argv + [str(tmp_path / "in.json"), "--out", str(tmp_path / "ok.json")]) == rc
        data = json.loads(json.dumps(data))
        *outer, last = path
        holder = functools.reduce(lambda d, key: d[key], outer, data)
        holder[last] = "".join(holder[last])
        write(tmp_path / "in.json", data)
        capsys.readouterr()
        assert main(argv + [str(tmp_path / "in.json"), "--out", str(tmp_path / "out.json")]) == 2
        assert not (tmp_path / "out.json").exists()
        assert "expected a list of rationals, got a str" in capsys.readouterr().err

    def test_entry_over_the_digit_limit(self, tmp_path, capsys):
        """An entry with more digits than int() reads exits 2, naming it,
        and is no traceback."""
        write(tmp_path / "m.json", _mat(1, 2, ["1", "1" * 5000]))
        assert main(["nnegrk-bounds", "--matrix", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "out.json")]) == 2
        assert not (tmp_path / "out.json").exists()
        assert "cannot parse rational from '1111" in capsys.readouterr().err

    def test_null_field_is_input_error(self, tmp_path):
        write(tmp_path / "g.json", {"n": None, "vertices": [], "edges": []})
        assert main(["clique-omega", "--graph", str(tmp_path / "g.json")]) == 2
        write(tmp_path / "m.json", _mat(None, 1, []))
        assert main(["nnegrk-bounds", "--matrix", str(tmp_path / "m.json")]) == 2


@pytest.mark.parametrize("cls,message", [
    ("Graph", "graph JSON needs keys n, vertices, edges"),
    ("NonnegFactorization", "factorization JSON needs keys T, U"),
    ("VRep", "V-rep JSON needs keys dim, points"),
    ("HRep", "H-rep JSON needs keys dim, A, b"),
    ("SlackMatrix", "slack JSON needs keys vertex_block, ray_block, source_b"),
    ("ExtendedFormulation", "EF JSON needs keys E, F, g"),
    ("RationalMatrix", "matrix JSON needs keys rows, cols, entries"),
    ("FunctionTable", "function table JSON needs keys n, values"),
])
def test_from_json_names_its_fields(cls, message):
    import efbound
    from efbound.errors import InputError
    for data in ([], {}, {"n": None, "dim": None, "rows": None}):
        with pytest.raises(InputError, match=message):
            getattr(efbound, cls).from_json(data)
