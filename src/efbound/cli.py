"""Command-line front end: builds instances, runs verifications, and emits
certificates and reports as stable on-disk artifacts.

Exit codes: 0 verified success, 1 verification failure (with a certificate
file), 2 input error, 3 budget exhausted, 4 an internal exact check failed
(a defect in efbound; no result is reported).  Identical arguments and seed
produce byte-identical output files; every JSON artifact is written with
sorted keys and no volatile fields.

Every subcommand is one entry of `_COMMANDS`; `_run` checks its paths,
loads its inputs, calls its handler and only then writes, so a run that
fails before the writes leaves no file behind.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .encodings import (Graph, _as_mask, box_approx_report, box_ef, build_cut_family,
                        build_hard_pair, clique_number, clique_weight, covariance_map,
                        hardpair_slack, psd_factors, qall_separate, spectra_vertex_witness)
from .errors import BudgetError, InputError, VerificationError, decoding, set_budget_ms
from .nnfact import (NmfConfig, NonnegFactorization, PreconditionError, ef_to_factorization,
                     factorization_to_ef, nnegrk_bounds, verify_factorization)
from .polyhedra import (ExtendedFormulation, HRep, SlackMatrix, VRep, build_slack, dilate,
                        nonneg_solution, shift_slack, verify_sandwich)
from .ratlin import RationalMatrix, _vec_json, dot, rat, rat_str
from .udisj import (CorruptionParams, FunctionTable, ShiftSpec, UdisjParams, build_shift,
                    corruption_rhs, parse_function, razborov_identities,
                    rectangle_corruption_scan, shift_rank_lb)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_matrix(data):
    """Plain matrix JSON, or a slack artifact (then the full block matrix)."""
    if isinstance(data, dict) and "vertex_block" in data:
        return SlackMatrix.from_json(data).full()
    return RationalMatrix.from_json(data)


def _json_object(data):
    if not isinstance(data, dict):
        raise InputError("a certificate file must hold a JSON object")
    return data


def _vec_load(v):
    if not isinstance(v, list):
        raise TypeError("expected a JSON list of rationals")
    return [rat(x) for x in v]


def _vec_file(data):
    with decoding("--vec file must hold a JSON list of rationals"):
        return _vec_load(data)


def _write(text, path=None):
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _dump(data, path=None):
    _write(json.dumps(data, sort_keys=True, indent=2) + "\n", path)


def _check_paths(ins, outs):
    ins = {os.path.realpath(p) for p in ins if p}
    outs = [os.path.realpath(p) for p in outs if p]
    clash = ins.intersection(outs)
    if clash:
        raise InputError(f"input and output paths must differ: {sorted(clash)}")
    twice = {p for p in outs if outs.count(p) > 1}
    if twice:
        raise InputError(f"output paths must differ: {sorted(twice)}")


def _cert_path(args):
    if args.cert:
        return args.cert
    return (args.out + ".cert.json") if args.out else "certificate.json"


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


# Each checker reads its fields under `decoding`, so a certificate with a
# field missing or of the wrong type exits 2 (input error), not 1.

def _verify_contains_failure(d):
    with decoding("contains-failure certificate needs ef, target_kind "
                  "(point or ray), target, u"):
        K = ExtendedFormulation.from_json(d["ef"])
        target, u = _vec_load(d["target"]), _vec_load(d["u"])
        if d["target_kind"] not in ("point", "ray"):
            raise ValueError("target_kind")
    ev = [dot(K.E.row(i), target) for i in range(K.nrows)]
    if d["target_kind"] == "point":
        rhs = [gi - e for gi, e in zip(K.g, ev)]
    else:
        rhs = [-e for e in ev]
    ftu = [dot(K.F.col(j), u) for j in range(K.size)]
    return all(x >= 0 for x in ftu) and dot(u, rhs) < 0


def _verify_row_violation(d):
    with decoding("row-violation certificate needs ef, row, bound, point"):
        K = ExtendedFormulation.from_json(d["ef"])
        row, bound, point = _vec_load(d["row"]), rat(d["bound"]), _vec_load(d["point"])
    if dot(row, point) <= bound:
        return False
    rhs = [gi - dot(K.E.row(i), point) for i, gi in enumerate(K.g)]
    status, _ = nonneg_solution(K.F, rhs)
    return status == "ok"


def _verify_qall_violation(d):
    with decoding("qall-violation certificate needs a square x and a constraint "
                  "of kind sign (with entry) or graph (with graph on its ground set)"):
        x = RationalMatrix.from_json(d["x"])
        c = d["constraint"]
        if x.rows != x.cols:
            raise ValueError("x is not square")
        if c["kind"] == "sign":
            i, j = c["entry"]
            if not all(type(v) is int and 1 <= v <= x.rows for v in (i, j)):
                raise ValueError("entry outside x")
        else:
            G = Graph.from_json(c["graph"])
            if G.n != x.rows:
                raise ValueError("graph ground set")
    if c["kind"] == "sign":
        return i != j and x[i - 1, j - 1] < 0
    w = clique_weight(G)
    lhs = sum((w[i, j] * x[i, j] for i in range(x.rows) for j in range(x.cols)),
              Fraction(0))
    return lhs > clique_number(G)


def _verify_factorization_invalid(d):
    with decoding("factorization-invalid certificate needs matrix, fac"):
        S = RationalMatrix.from_json(d["matrix"])
        fac = NonnegFactorization.from_json(d["fac"])
    return not verify_factorization(S, fac).ok


def _verify_spectra_failure(d):
    with decoding("spectra-failure certificate needs a positive integer n, b "
                  "(mask or 0/1 list) and an optional y"):
        n, b = d["n"], d["b"]
        if type(n) is not int or n < 1 or not isinstance(b, (int, list)):
            raise TypeError("n or b")
        Y = RationalMatrix.from_json(d["y"]) if d.get("y") else None
    return not spectra_vertex_witness(b, n, Y=Y)


def _verify_razborov_failure(d):
    with decoding("razborov-failure certificate needs an integer n, f, g"):
        if type(d["n"]) is not int:
            raise TypeError("n")
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
# handlers: each takes the parsed arguments, input files already loaded, and
# returns (artifacts by output dest, failure); failure is None on success, a
# certificate to write, or True for a failure without one.  They call library
# functions through this module's globals, so a wrapper installed on those
# names (perfbench/tracing.py) sees every call.

def _fac2ef(a):
    if a.slack is not None:
        check = verify_factorization(a.slack, a.fac)
        if not check.ok:
            return {}, {"kind": "factorization-invalid", "matrix": a.slack.to_json(),
                        "fac": a.fac.to_json(), "reason": check.reason,
                        "where": list(check.where) if check.where else None}
    return {"out": factorization_to_ef(a.q, a.fac).to_json()}, None


def _ef2fac(a):
    try:
        return {"out": ef_to_factorization(a.ef, a.p, a.q).to_json()}, None
    except PreconditionError as exc:
        return {}, _sandwich_cert(exc.report, a.ef, a.q)


def _nnegrk_bounds(a):
    cfg = NmfConfig(seed=a.seed, iterations=a.iterations,
                    restarts=a.restarts, max_denominator=a.max_denominator)
    bounds = nnegrk_bounds(a.matrix, cfg)
    out = {"op": "nnegrk_bounds", "lower": bounds.lower, "upper": bounds.upper,
           "provenance": bounds.provenance()}
    if isinstance(bounds.upper_witness, NonnegFactorization):
        out["upper_witness"] = bounds.upper_witness.to_json()
    return {"out": out}, None


def _razborov_check(a):
    params = UdisjParams(a.n)
    if a.f or a.g:
        if not (a.f and a.g):
            raise InputError("--f and --g must be given together")
        pairs = [(parse_function(a.f, a.n), parse_function(a.g, a.n))]
    else:
        rng = random.Random(a.seed)

        def table():
            return FunctionTable(a.n, [Fraction(rng.randrange(0, 5), rng.randrange(1, 4))
                                       for _ in range(1 << a.n)])
        pairs = [(table(), table()) for _ in range(a.trials)]
    checks = []
    first_bad = None
    for f, g in pairs:
        rep = razborov_identities(f, g, params)
        checks.append({"ok": rep.ok,
                       "expectation_a": _vec_json(rep.expectation_a),
                       "expectation_b": _vec_json(rep.expectation_b)})
        if not rep.ok and first_bad is None:
            first_bad = (f, g)
    ok = first_bad is None
    out = {"out": {"op": "razborov_check", "n": a.n, "trials": len(pairs),
                   "ok": ok, "checks": checks}}
    if ok:
        return out, None
    return out, {"kind": "razborov-failure", "n": a.n,
                 "f": first_bad[0].to_json(), "g": first_bad[1].to_json()}


def _corruption_scan(a):
    csv = a.format == "csv"
    rep = rectangle_corruption_scan(UdisjParams(a.n), a.eps, mode=a.mode, seed=a.seed,
                                    count=a.count, keep_records=csv)
    return {"out": "\n".join(rep.csv_lines()) + "\n" if csv else rep.to_json()}, None


def _corruption_bound(a):
    p = CorruptionParams(a.eps, C=a.C)
    return {"out": {"op": "corruption_rhs", "epsilon": rat_str(p.epsilon),
                    "C": rat_str(p.C), "ell": a.ell,
                    "value": corruption_rhs(p, a.ell)}}, None


def _shift_lb(a):
    p = CorruptionParams(a.eps, C=a.C) if a.eps is not None else None
    value = shift_rank_lb(a.n, a.rho, p)
    eps = a.eps if a.eps is not None else Fraction(1, 2) / a.rho
    return {"out": {"op": "shift_rank_lb", "n": a.n, "rho": rat_str(a.rho),
                    "C": rat_str(a.C), "value": value, "epsilon": rat_str(eps)}}, None


def _hardpair(a):
    hp = build_hard_pair(a.n)
    return {"out_p": hp.P.to_json(), "out_q": hp.Q.to_json()}, None


def _qall_separate(a):
    rep = qall_separate(a.x, mode=a.mode, seed=a.seed, count=a.count)
    out = {"out": rep.to_json()}
    if rep.status != "violated":
        return out, None
    constraint = ({"kind": "sign", "entry": list(rep.entry)} if rep.kind == "sign"
                  else {"kind": "graph", "graph": rep.graph.to_json()})
    return out, {"kind": "qall-violation", "x": a.x.to_json(), "constraint": constraint}


def _box_ef(a):
    if a.graph is not None and a.graph.n != a.n:
        raise InputError(f"graph ambient bound {a.graph.n} differs from --n {a.n}")
    out = {"out": box_ef(a.n).to_json()}
    if a.graph is not None:
        out["report"] = box_approx_report(clique_weight(a.graph)).to_json()
    return out, None


def _psd_check(a):
    psd_factors(a.n)  # raises if the identity ever failed
    return {"out": {"op": "psd_factors", "n": a.n, "pairs": 4 ** a.n, "ok": True}}, None


def _parse_b(text, n):
    if set(text) <= {"0", "1"} and len(text) == n:
        return [int(c) for c in text]
    try:
        return int(text)
    except ValueError:
        raise InputError(f"--b must be a bitstring of length {n} or an integer "
                         f"mask, got {text!r}") from None


def _spectra_witness(a):
    b = _parse_b(a.b, a.n)
    ok = spectra_vertex_witness(b, a.n, Y=a.y)
    out = {"out": {"op": "spectra_vertex_witness", "n": a.n, "b": a.b, "ok": ok}}
    if ok:
        return out, None
    return out, {"kind": "spectra-failure", "n": a.n, "b": _as_mask(b, a.n),
                 "y": a.y.to_json() if a.y is not None else None}


def _verify_sandwich(a):
    rep = verify_sandwich(a.p, a.q, a.rho, a.ef)
    return {"out": rep.to_json()}, (None if rep.ok else _sandwich_cert(rep, a.ef, a.q))


def _check_cert(a):
    kind = a.cert_file.get("kind")
    checker = _CERT_CHECKERS.get(kind) if isinstance(kind, str) else None
    if checker is None:
        raise InputError(f"unknown certificate kind {kind!r}")
    valid = checker(a.cert_file)
    return {"out": {"op": "check_cert", "kind": kind, "valid": valid}}, (None if valid else True)


# ---------------------------------------------------------------------------
# the command table

def _positive_int(text):
    v = int(text)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {v}")
    return v


class _Command(NamedTuple):
    """A subcommand.  ``options`` are (flag, argparse keywords) pairs, where
    the keyword ``load`` marks an input file with the function that turns
    its JSON into an object, and ``output`` marks an output path.  A command
    with ``cert`` writes a certificate on failure and takes ``--cert``."""
    name: str
    help: str
    options: list
    handler: Callable
    cert: bool = False


def _in(flag, load, required=True, **kw):
    return flag, dict(kw, load=load, required=required)


OUT = ("--out", {"output": True})
CERT = ("--cert", {"output": True})
N = ("--n", {"type": _positive_int, "required": True})
RHO = ("--rho", {"type": rat, "required": True})
SEED = ("--seed", {"type": int, "default": 0})
MODE = ("--mode", {"choices": ["exhaustive", "sample"], "default": "exhaustive"})
C = ("--C", {"type": rat, "default": Fraction(0)})

_COMMANDS = {c.name: c for c in [
    _Command("slack", "slack matrix of a polyhedron pair",
             [_in("--p", VRep.from_json), _in("--q", HRep.from_json), OUT],
             lambda a: ({"out": build_slack(a.p, a.q).to_json()}, None)),
    _Command("dilate", "scale the right-hand sides of an H-rep",
             [_in("--q", HRep.from_json), RHO, OUT],
             lambda a: ({"out": dilate(a.q, a.rho).to_json()}, None)),
    _Command("shift-slack", "shift a slack matrix by rho-1",
             [_in("--slack", SlackMatrix.from_json), RHO, OUT],
             lambda a: ({"out": shift_slack(a.slack, a.rho).to_json()}, None)),
    _Command("fac2ef", "extended formulation from a nonnegative factorization",
             [_in("--q", HRep.from_json), _in("--fac", NonnegFactorization.from_json),
              _in("--slack", _load_matrix, required=False,
                  help="optional slack matrix to verify the factorization against first"),
              OUT], _fac2ef, cert=True),
    _Command("ef2fac", "nonnegative factorization from a sandwiched EF",
             [_in("--ef", ExtendedFormulation.from_json), _in("--p", VRep.from_json),
              _in("--q", HRep.from_json), OUT], _ef2fac, cert=True),
    _Command("nnegrk-bounds", "lower and upper bounds on nonnegative rank",
             [_in("--matrix", _load_matrix), SEED,
              ("--iterations", {"type": _positive_int, "default": 400}),
              ("--restarts", {"type": _positive_int, "default": 3}),
              ("--max-denominator", {"type": _positive_int, "default": 64}), OUT],
             _nnegrk_bounds),
    _Command("udisj-shift", "rho-shift matrix of unique disjointness",
             [N, RHO, ("--fill", {"choices": ["hardpair", "constant"], "default": "hardpair"}),
              ("--fill-value", {"type": rat, "default": Fraction(0)}), OUT],
             lambda a: ({"out": build_shift(ShiftSpec(a.n, a.rho, fill=a.fill,
                                                       fill_value=a.fill_value)).to_json()},
                        None)),
    _Command("razborov-check", "verify the conditional-expectation identities",
             [N, ("--trials", {"type": _positive_int, "default": 5}), SEED,
              ("--f", {"help": "function spec: ones | set:MASK | contains:K | avoids:K"}),
              ("--g", {}), OUT], _razborov_check, cert=True),
    _Command("corruption-scan", "scan rectangles for corruption values",
             [N, ("--eps", {"type": rat, "required": True}), MODE, SEED,
              ("--count", {"type": _positive_int, "default": 1000}),
              ("--format", {"choices": ["json", "csv"], "default": "json"}), OUT],
             _corruption_scan),
    _Command("corruption-bound", "closed-form corruption bound",
             [("--eps", {"type": rat, "required": True}),
              ("--ell", {"type": _positive_int, "required": True}), C, OUT],
             _corruption_bound),
    _Command("shift-lb", "rank lower bound for rho-extensions",
             [N, RHO, ("--eps", {"type": rat, "default": None}), C, OUT], _shift_lb),
    _Command("hardpair", "correlation polytope and its quadratic outer description",
             [N, ("--out-p", {"required": True, "output": True}),
              ("--out-q", {"required": True, "output": True})], _hardpair),
    _Command("hardpair-slack", "shifted slack matrix of the hard pair",
             [N, ("--rho", {"type": rat, "default": Fraction(1)}), OUT],
             lambda a: ({"out": hardpair_slack(a.n, a.rho).to_json()}, None)),
    _Command("clique-weight", "clique objective matrix",
             [_in("--graph", Graph.from_json), OUT],
             lambda a: ({"out": clique_weight(a.graph).to_json()}, None)),
    _Command("clique-omega", "exact clique number",
             [_in("--graph", Graph.from_json), OUT],
             lambda a: ({"out": {"op": "clique_number", "omega": clique_number(a.graph)}},
                        None)),
    _Command("qall-separate", "separate a point from the all-graphs relaxation",
             [_in("--x", RationalMatrix.from_json), MODE, SEED,
              ("--count", {"type": _positive_int, "default": 200}), OUT],
             _qall_separate, cert=True),
    _Command("box-ef", "box extension and approximation report",
             [N, _in("--graph", Graph.from_json, required=False,
                     help="clique objective to report on"),
              OUT, ("--report", {"output": True})], _box_ef),
    _Command("cut-family", "cut polytope, cut cone or correlation cone generators",
             [("--kind", {"required": True,
                          "choices": ["cut_polytope", "cut_cone", "correlation_cone"]}),
              N, OUT],
             lambda a: ({"out": build_cut_family(a.kind, a.n).to_json()}, None)),
    _Command("covmap", "covariance image of an edge vector",
             [N, _in("--vec", _vec_file), OUT],
             lambda a: ({"out": covariance_map(a.vec, a.n).to_json()}, None)),
    _Command("psd-check", "verify the rank-one PSD factor identity", [N, OUT], _psd_check),
    _Command("spectra-witness", "check the vertex witness equation",
             [N, ("--b", {"required": True, "help": "bitstring b_1...b_n or integer mask"}),
              _in("--y", RationalMatrix.from_json, required=False,
                  help="alternative Y matrix JSON"), OUT],
             _spectra_witness, cert=True),
    _Command("verify-sandwich", "verify P inside K inside rho Q",
             [_in("--p", VRep.from_json), _in("--q", HRep.from_json), RHO,
              _in("--ef", ExtendedFormulation.from_json), OUT],
             _verify_sandwich, cert=True),
    _Command("check-cert", "re-verify a certificate file",
             [_in("--cert", _json_object, dest="cert_file"), OUT], _check_cert),
]}


def _options(cmd):
    return cmd.options + [CERT] if cmd.cert else cmd.options


def _dest(flag, kw):
    return kw.get("dest") or flag.lstrip("-").replace("-", "_")


def _run(cmd, args):
    """Check that no two paths collide, the default certificate path
    included; load the inputs; run the handler; then write its artifacts
    (a certificate to the certificate path) and return 0, or 1 on failure."""
    if cmd.cert:
        args.cert = _cert_path(args)
    opts = [(_dest(flag, kw), kw) for flag, kw in _options(cmd)]
    _check_paths([getattr(args, d) for d, kw in opts if "load" in kw],
                 [getattr(args, d) for d, kw in opts if kw.get("output")])
    for d, kw in opts:
        if "load" in kw and getattr(args, d) is not None:
            setattr(args, d, kw["load"](_load_json(getattr(args, d))))
    artifacts, failure = cmd.handler(args)
    if isinstance(failure, dict):
        artifacts["cert"] = failure
    for d, data in artifacts.items():
        (_write if isinstance(data, str) else _dump)(data, getattr(args, d))
    return 0 if failure is None else 1


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
    for cmd in _COMMANDS.values():
        p = sub.add_parser(cmd.name, help=cmd.help)
        for flag, kw in _options(cmd):
            p.add_argument(flag, **{k: v for k, v in kw.items() if k not in ("load", "output")})
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
        return _run(_COMMANDS[args.command], args)
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
