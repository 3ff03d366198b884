"""Command-line front end: builds instances, runs verifications, and emits
certificates and reports as stable on-disk artifacts.

Exit codes: 0 verified success, 1 verification failure (with a certificate
file), 2 input error, 3 budget exhausted, 4 an internal exact check failed
(a defect in efbound; no result is reported).  Identical arguments and seed
produce byte-identical output files; every JSON artifact is written with
sorted keys and no volatile fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from .encodings import (
    Graph,
    box_approx_report,
    box_ef,
    build_cut_family,
    build_hard_pair,
    clique_number,
    clique_weight,
    covariance_map,
    hardpair_slack,
    psd_factors,
    qall_separate,
    spectra_vertex_witness,
)
from .errors import BudgetError, InputError, VerificationError, set_budget_ms
from .nnfact import (
    NmfConfig,
    NonnegFactorization,
    PreconditionError,
    ef_to_factorization,
    factorization_to_ef,
    nnegrk_bounds,
    verify_factorization,
)
from .polyhedra import (
    ExtendedFormulation,
    HRep,
    SlackMatrix,
    VRep,
    build_slack,
    dilate,
    nonneg_solution,
    shift_slack,
    verify_sandwich,
)
from .ratlin import RationalMatrix, _vec_json, dot, rat, rat_str
from .udisj import (
    CorruptionParams,
    FunctionTable,
    ShiftSpec,
    UdisjParams,
    build_shift,
    corruption_rhs,
    parse_function,
    razborov_identities,
    rectangle_corruption_scan,
    shift_rank_lb,
)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_matrix(path):
    """Plain matrix JSON, or a slack artifact (then the full block matrix)."""
    data = _load_json(path)
    if isinstance(data, dict) and "vertex_block" in data:
        return SlackMatrix.from_json(data).full()
    return RationalMatrix.from_json(data)


def _write(text, path=None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(data, path=None):
    _write(json.dumps(data, sort_keys=True, indent=2) + "\n", path)


def _check_paths(ins, outs):
    ins = {os.path.abspath(p) for p in ins if p}
    outs = {os.path.abspath(p) for p in outs if p}
    clash = ins & outs
    if clash:
        raise InputError(f"input and output paths must differ: {sorted(clash)}")


def _cert_path(args):
    if getattr(args, "cert", None):
        return args.cert
    out = getattr(args, "out", None)
    return (out + ".cert.json") if out else "certificate.json"


def _vec_load(v):
    return [rat(x) for x in v]


# ---------------------------------------------------------------------------
# certificates

def _sandwich_cert(report, K: ExtendedFormulation, Q: HRep):
    """Self-contained certificate for the failing half of a sandwich check."""
    if not report.contains.ok:
        f = report.contains.failing
        return {"kind": "contains-failure", "ef": K.to_json(),
                "target_kind": f["kind"], "target": _vec_json(f["generator"]),
                "u": _vec_json(f["certificate"])}
    f = report.inside.failing
    return {"kind": "row-violation", "ef": K.to_json(),
            "row": _vec_json(Q.A.row(f["row"])), "bound": rat_str(f["bound"]),
            "point": _vec_json(f["point"])}


def _verify_contains_failure(d):
    K = ExtendedFormulation.from_json(d["ef"])
    target = _vec_load(d["target"])
    u = _vec_load(d["u"])
    ev = [dot(K.E.row(i), target) for i in range(K.nrows)]
    if d["target_kind"] == "point":
        rhs = [gi - e for gi, e in zip(K.g, ev)]
    else:
        rhs = [-e for e in ev]
    ftu = [dot(K.F.col(j), u) for j in range(K.size)]
    return all(x >= 0 for x in ftu) and dot(u, rhs) < 0


def _verify_row_violation(d):
    K = ExtendedFormulation.from_json(d["ef"])
    row = _vec_load(d["row"])
    bound = rat(d["bound"])
    point = _vec_load(d["point"])
    if dot(row, point) <= bound:
        return False
    rhs = [gi - dot(K.E.row(i), point) for i, gi in enumerate(K.g)]
    status, _ = nonneg_solution(K.F, rhs)
    return status == "ok"


def _verify_qall_violation(d):
    x = RationalMatrix.from_json(d["x"])
    c = d["constraint"]
    if c["kind"] == "sign":
        i, j = c["entry"]
        return i != j and x[i - 1, j - 1] < 0
    G = Graph.from_json(c["graph"])
    w = clique_weight(G)
    lhs = sum((w[i, j] * x[i, j] for i in range(x.rows) for j in range(x.cols)),
              Fraction(0))
    return lhs > clique_number(G)


def _verify_factorization_invalid(d):
    S = RationalMatrix.from_json(d["matrix"])
    fac = NonnegFactorization.from_json(d["fac"])
    return not verify_factorization(S, fac).ok


def _verify_spectra_failure(d):
    Y = RationalMatrix.from_json(d["y"]) if d.get("y") else None
    return not spectra_vertex_witness(d["b"], d["n"], Y=Y)


def _verify_razborov_failure(d):
    params = UdisjParams(d["n"])
    f = FunctionTable.from_json(d["f"])
    g = FunctionTable.from_json(d["g"])
    return not razborov_identities(f, g, params).ok


_CERT_CHECKERS = {
    "contains-failure": _verify_contains_failure,
    "row-violation": _verify_row_violation,
    "qall-violation": _verify_qall_violation,
    "factorization-invalid": _verify_factorization_invalid,
    "spectra-failure": _verify_spectra_failure,
    "razborov-failure": _verify_razborov_failure,
}


# ---------------------------------------------------------------------------
# sub-commands

def cmd_slack(args):
    _check_paths([args.p, args.q], [args.out])
    P = VRep.from_json(_load_json(args.p))
    Q = HRep.from_json(_load_json(args.q))
    _dump(build_slack(P, Q).to_json(), args.out)
    return 0


def cmd_dilate(args):
    _check_paths([args.q], [args.out])
    Q = HRep.from_json(_load_json(args.q))
    _dump(dilate(Q, args.rho).to_json(), args.out)
    return 0


def cmd_shift_slack(args):
    _check_paths([args.slack], [args.out])
    S = SlackMatrix.from_json(_load_json(args.slack))
    _dump(shift_slack(S, args.rho).to_json(), args.out)
    return 0


def cmd_fac2ef(args):
    _check_paths([args.q, args.fac, args.slack], [args.out, args.cert])
    Q = HRep.from_json(_load_json(args.q))
    fac = NonnegFactorization.from_json(_load_json(args.fac))
    if args.slack:
        S = _load_matrix(args.slack)
        check = verify_factorization(S, fac)
        if not check.ok:
            cert = {"kind": "factorization-invalid", "matrix": S.to_json(),
                    "fac": fac.to_json(), "reason": check.reason,
                    "where": list(check.where) if check.where else None}
            _dump(cert, _cert_path(args))
            return 1
    _dump(factorization_to_ef(Q, fac).to_json(), args.out)
    return 0


def cmd_ef2fac(args):
    _check_paths([args.ef, args.p, args.q], [args.out, args.cert])
    K = ExtendedFormulation.from_json(_load_json(args.ef))
    P = VRep.from_json(_load_json(args.p))
    Q = HRep.from_json(_load_json(args.q))
    try:
        fac = ef_to_factorization(K, P, Q)
    except PreconditionError as exc:
        _dump(_sandwich_cert(exc.report, K, Q), _cert_path(args))
        return 1
    _dump(fac.to_json(), args.out)
    return 0


def cmd_nnegrk_bounds(args):
    _check_paths([args.matrix], [args.out])
    S = _load_matrix(args.matrix)
    cfg = NmfConfig(seed=args.seed, iterations=args.iterations,
                    restarts=args.restarts, max_denominator=args.max_denominator)
    bounds = nnegrk_bounds(S, cfg)
    out = {"op": "nnegrk_bounds", "lower": bounds.lower, "upper": bounds.upper,
           "provenance": bounds.provenance()}
    if isinstance(bounds.upper_witness, NonnegFactorization):
        out["upper_witness"] = bounds.upper_witness.to_json()
    _dump(out, args.out)
    return 0


def cmd_udisj_shift(args):
    _check_paths([], [args.out])
    spec = ShiftSpec(args.n, args.rho, fill=args.fill, fill_value=args.fill_value)
    _dump(build_shift(spec).to_json(), args.out)
    return 0


def cmd_razborov_check(args):
    _check_paths([], [args.out, args.cert])
    params = UdisjParams(args.n)
    pairs = []
    if args.f or args.g:
        if not (args.f and args.g):
            raise InputError("--f and --g must be given together")
        pairs.append((parse_function(args.f, args.n), parse_function(args.g, args.n)))
    else:
        rng = random.Random(args.seed)
        size = 1 << args.n
        for _ in range(args.trials):
            f = FunctionTable(args.n, [Fraction(rng.randrange(0, 5),
                                                rng.randrange(1, 4))
                                       for _ in range(size)])
            g = FunctionTable(args.n, [Fraction(rng.randrange(0, 5),
                                                rng.randrange(1, 4))
                                       for _ in range(size)])
            pairs.append((f, g))
    checks = []
    first_bad = None
    for f, g in pairs:
        rep = razborov_identities(f, g, params)
        checks.append({"ok": rep.ok,
                       "expectation_a": _vec_json(rep.expectation_a),
                       "expectation_b": _vec_json(rep.expectation_b)})
        if not rep.ok and first_bad is None:
            first_bad = (f, g)
    ok = all(c["ok"] for c in checks)
    _dump({"op": "razborov_check", "n": args.n, "trials": len(pairs),
           "ok": ok, "checks": checks}, args.out)
    if not ok:
        _dump({"kind": "razborov-failure", "n": args.n,
               "f": first_bad[0].to_json(), "g": first_bad[1].to_json()},
              _cert_path(args))
        return 1
    return 0


def cmd_corruption_scan(args):
    _check_paths([], [args.out])
    params = UdisjParams(args.n)
    rep = rectangle_corruption_scan(params, args.eps, mode=args.mode,
                                    seed=args.seed, count=args.count,
                                    keep_records=(args.format == "csv"))
    if args.format == "csv":
        _write("\n".join(rep.csv_lines()) + "\n", args.out)
    else:
        _dump(rep.to_json(), args.out)
    return 0


def cmd_corruption_bound(args):
    _check_paths([], [args.out])
    p = CorruptionParams(args.eps, C=args.C)
    _dump({"op": "corruption_rhs", "epsilon": rat_str(p.epsilon),
           "C": rat_str(p.C), "ell": args.ell,
           "value": corruption_rhs(p, args.ell)}, args.out)
    return 0


def cmd_shift_lb(args):
    _check_paths([], [args.out])
    p = CorruptionParams(args.eps, C=args.C) if args.eps is not None else None
    value = shift_rank_lb(args.n, args.rho, p)
    out = {"op": "shift_rank_lb", "n": args.n, "rho": rat_str(args.rho),
           "C": rat_str(args.C), "value": value}
    out["epsilon"] = rat_str(args.eps if args.eps is not None
                             else Fraction(1, 2) / args.rho)
    _dump(out, args.out)
    return 0


def cmd_hardpair(args):
    _check_paths([], [args.out_p, args.out_q])
    hp = build_hard_pair(args.n)
    _dump(hp.P.to_json(), args.out_p)
    _dump(hp.Q.to_json(), args.out_q)
    return 0


def cmd_hardpair_slack(args):
    _check_paths([], [args.out])
    _dump(hardpair_slack(args.n, args.rho).to_json(), args.out)
    return 0


def cmd_clique_weight(args):
    _check_paths([args.graph], [args.out])
    G = Graph.from_json(_load_json(args.graph))
    _dump(clique_weight(G).to_json(), args.out)
    return 0


def cmd_clique_omega(args):
    _check_paths([args.graph], [args.out])
    G = Graph.from_json(_load_json(args.graph))
    _dump({"op": "clique_number", "omega": clique_number(G)}, args.out)
    return 0


def cmd_qall_separate(args):
    _check_paths([args.x], [args.out, args.cert])
    x = RationalMatrix.from_json(_load_json(args.x))
    rep = qall_separate(x, mode=args.mode, seed=args.seed, count=args.count)
    _dump(rep.to_json(), args.out)
    if rep.status == "violated":
        constraint = ({"kind": "sign", "entry": list(rep.entry)}
                      if rep.kind == "sign"
                      else {"kind": "graph", "graph": rep.graph.to_json()})
        _dump({"kind": "qall-violation", "x": x.to_json(),
               "constraint": constraint}, _cert_path(args))
        return 1
    return 0


def cmd_box_ef(args):
    _check_paths([args.graph], [args.out, args.report])
    _dump(box_ef(args.n).to_json(), args.out)
    if args.graph:
        G = Graph.from_json(_load_json(args.graph))
        if G.n != args.n:
            raise InputError(f"graph ambient bound {G.n} differs from --n {args.n}")
        _dump(box_approx_report(clique_weight(G)).to_json(), args.report)
    return 0


def cmd_cut_family(args):
    _check_paths([], [args.out])
    _dump(build_cut_family(args.kind, args.n).to_json(), args.out)
    return 0


def cmd_covmap(args):
    _check_paths([args.vec], [args.out])
    data = _load_json(args.vec)
    if not isinstance(data, list):
        raise InputError("--vec file must hold a JSON list of rationals")
    _dump(covariance_map(_vec_load(data), args.n).to_json(), args.out)
    return 0


def cmd_psd_check(args):
    _check_paths([], [args.out])
    psd_factors(args.n)  # raises if the identity ever failed
    _dump({"op": "psd_factors", "n": args.n, "pairs": 4 ** args.n, "ok": True},
          args.out)
    return 0


def _parse_b(text, n):
    if set(text) <= {"0", "1"} and len(text) == n:
        return [int(c) for c in text]
    try:
        return int(text)
    except ValueError:
        raise InputError(f"--b must be a bitstring of length {n} or an integer "
                         f"mask, got {text!r}") from None


def cmd_spectra_witness(args):
    _check_paths([args.y], [args.out, args.cert])
    Y = RationalMatrix.from_json(_load_json(args.y)) if args.y else None
    b = _parse_b(args.b, args.n)
    ok = spectra_vertex_witness(b, args.n, Y=Y)
    _dump({"op": "spectra_vertex_witness", "n": args.n, "b": args.b, "ok": ok},
          args.out)
    if not ok:
        from .encodings import _as_mask
        _dump({"kind": "spectra-failure", "n": args.n,
               "b": _as_mask(b, args.n), "y": Y.to_json() if Y else None},
              _cert_path(args))
        return 1
    return 0


def cmd_verify_sandwich(args):
    _check_paths([args.p, args.q, args.ef], [args.out, args.cert])
    P = VRep.from_json(_load_json(args.p))
    Q = HRep.from_json(_load_json(args.q))
    K = ExtendedFormulation.from_json(_load_json(args.ef))
    rep = verify_sandwich(P, Q, args.rho, K)
    _dump(rep.to_json(), args.out)
    if not rep.ok:
        _dump(_sandwich_cert(rep, K, Q), _cert_path(args))
        return 1
    return 0


def cmd_check_cert(args):
    _check_paths([args.cert_file], [args.out])
    d = _load_json(args.cert_file)
    kind = d.get("kind")
    checker = _CERT_CHECKERS.get(kind)
    if checker is None:
        raise InputError(f"unknown certificate kind {kind!r}")
    valid = checker(d)
    _dump({"op": "check_cert", "kind": kind, "valid": valid}, args.out)
    return 0 if valid else 1


# ---------------------------------------------------------------------------
# parser

def _positive_int(text):
    v = int(text)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {v}")
    return v


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and reused by every
    later `main` call in the process (parse_args returns a fresh namespace
    each time and leaves the parser unchanged)."""
    top = argparse.ArgumentParser(
        prog="efbound",
        description="Extended-formulation bounds toolkit: exact constructions, "
                    "verifications and certificates.")
    top.add_argument("--budget-ms", type=_positive_int, default=None,
                     help="global time budget in milliseconds "
                          "(overrides EFBOUND_BUDGET_MS)")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=fn)
        return p

    p = add("slack", cmd_slack, help="slack matrix of a polyhedron pair")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--out")

    p = add("dilate", cmd_dilate, help="scale the right-hand sides of an H-rep")
    p.add_argument("--q", required=True)
    p.add_argument("--rho", type=rat, required=True)
    p.add_argument("--out")

    p = add("shift-slack", cmd_shift_slack, help="shift a slack matrix by rho-1")
    p.add_argument("--slack", required=True)
    p.add_argument("--rho", type=rat, required=True)
    p.add_argument("--out")

    p = add("fac2ef", cmd_fac2ef,
            help="extended formulation from a nonnegative factorization")
    p.add_argument("--q", required=True)
    p.add_argument("--fac", required=True)
    p.add_argument("--slack", help="optional slack matrix to verify the "
                                   "factorization against first")
    p.add_argument("--out")
    p.add_argument("--cert")

    p = add("ef2fac", cmd_ef2fac,
            help="nonnegative factorization from a sandwiched EF")
    p.add_argument("--ef", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--out")
    p.add_argument("--cert")

    p = add("nnegrk-bounds", cmd_nnegrk_bounds,
            help="lower and upper bounds on nonnegative rank")
    p.add_argument("--matrix", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=_positive_int, default=400)
    p.add_argument("--restarts", type=_positive_int, default=3)
    p.add_argument("--max-denominator", type=_positive_int, default=64)
    p.add_argument("--out")

    p = add("udisj-shift", cmd_udisj_shift,
            help="rho-shift matrix of unique disjointness")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--rho", type=rat, required=True)
    p.add_argument("--fill", choices=["hardpair", "constant"], default="hardpair")
    p.add_argument("--fill-value", type=rat, default=Fraction(0))
    p.add_argument("--out")

    p = add("razborov-check", cmd_razborov_check,
            help="verify the conditional-expectation identities")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--trials", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--f", help="function spec: ones | set:MASK | contains:K | avoids:K")
    p.add_argument("--g")
    p.add_argument("--out")
    p.add_argument("--cert")

    p = add("corruption-scan", cmd_corruption_scan,
            help="scan rectangles for corruption values")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--eps", type=rat, required=True)
    p.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_positive_int, default=1000)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")

    p = add("corruption-bound", cmd_corruption_bound,
            help="closed-form corruption bound")
    p.add_argument("--eps", type=rat, required=True)
    p.add_argument("--ell", type=_positive_int, required=True)
    p.add_argument("--C", type=rat, default=Fraction(0))
    p.add_argument("--out")

    p = add("shift-lb", cmd_shift_lb,
            help="rank lower bound for rho-extensions")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--rho", type=rat, required=True)
    p.add_argument("--eps", type=rat, default=None)
    p.add_argument("--C", type=rat, default=Fraction(0))
    p.add_argument("--out")

    p = add("hardpair", cmd_hardpair,
            help="correlation polytope and its quadratic outer description")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--out-p", required=True)
    p.add_argument("--out-q", required=True)

    p = add("hardpair-slack", cmd_hardpair_slack,
            help="shifted slack matrix of the hard pair")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--rho", type=rat, default=Fraction(1))
    p.add_argument("--out")

    p = add("clique-weight", cmd_clique_weight, help="clique objective matrix")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")

    p = add("clique-omega", cmd_clique_omega, help="exact clique number")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")

    p = add("qall-separate", cmd_qall_separate,
            help="separate a point from the all-graphs relaxation")
    p.add_argument("--x", required=True)
    p.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_positive_int, default=200)
    p.add_argument("--out")
    p.add_argument("--cert")

    p = add("box-ef", cmd_box_ef, help="box extension and approximation report")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--graph", help="clique objective to report on")
    p.add_argument("--out")
    p.add_argument("--report")

    p = add("cut-family", cmd_cut_family,
            help="cut polytope, cut cone or correlation cone generators")
    p.add_argument("--kind", required=True,
                   choices=["cut_polytope", "cut_cone", "correlation_cone"])
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--out")

    p = add("covmap", cmd_covmap, help="covariance image of an edge vector")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--vec", required=True)
    p.add_argument("--out")

    p = add("psd-check", cmd_psd_check,
            help="verify the rank-one PSD factor identity")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--out")

    p = add("spectra-witness", cmd_spectra_witness,
            help="check the vertex witness equation")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--b", required=True,
                   help="bitstring b_1...b_n or integer mask")
    p.add_argument("--y", help="alternative Y matrix JSON")
    p.add_argument("--out")
    p.add_argument("--cert")

    p = add("verify-sandwich", cmd_verify_sandwich,
            help="verify P inside K inside rho Q")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--rho", type=rat, required=True)
    p.add_argument("--ef", required=True)
    p.add_argument("--out")
    p.add_argument("--cert")

    p = add("check-cert", cmd_check_cert, help="re-verify a certificate file")
    p.add_argument("--cert", dest="cert_file", required=True)
    p.add_argument("--out")

    return top


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    budget = args.budget_ms
    if budget is None:
        env = os.environ.get("EFBOUND_BUDGET_MS")
        if env is not None:
            try:
                budget = int(env)
            except ValueError:
                print(f"efbound: EFBOUND_BUDGET_MS={env!r} is not an integer",
                      file=sys.stderr)
                return 2
            if budget <= 0:
                print("efbound: EFBOUND_BUDGET_MS must be positive",
                      file=sys.stderr)
                return 2
    set_budget_ms(budget)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"efbound: input error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"efbound: budget exhausted: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"efbound: internal check failed: {exc}", file=sys.stderr)
        return 4
    finally:
        set_budget_ms(None)


if __name__ == "__main__":
    sys.exit(main())
