"""Command-line front end: builds instances, runs verifications, and emits
certificates and reports as stable on-disk artifacts.

Exit codes: 0 verified success, 1 verification failure (with a certificate
file), 2 input error, 3 budget exhausted, 4 an internal exact check failed
(a defect in efbound; no result is reported).  Identical arguments and seed
produce byte-identical output files; every JSON artifact is written with
sorted keys and no volatile fields.

Every subcommand is one entry of `_COMMANDS`; `_run` checks its paths,
loads its inputs, calls its handler, checks the budget and only then
writes, so a run that fails, or overruns its budget, before the writes
leaves no file behind.

The module imports only the standard library and `errors`; every other
module of the package is imported by the first command that calls it.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Callable, NamedTuple

from .errors import (BudgetError, InputError, VerificationError, check_deadline, decoding,
                     set_budget_ms)


def _lib(name):
    """The library module efbound.<name>, imported on the first call.

    Loaders, checkers and handlers look each library name up on its
    defining module when they run, so a command imports only the modules it
    calls, and a wrapper or patch installed on a module's name
    (perfbench/tracing.py, the tests) sees every call."""
    return importlib.import_module(f"{__package__}.{name}")


def rat(text):
    """argparse type for a rational option: ratlin.rat."""
    return _lib("ratlin").rat(text)


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
        return _lib("polyhedra").SlackMatrix.from_json(data).full()
    return _lib("ratlin").RationalMatrix.from_json(data)


def _json_object(data):
    if not isinstance(data, dict):
        raise InputError("a certificate file must hold a JSON object")
    return data


def _vec_load(v):
    if not isinstance(v, list):
        raise TypeError("expected a JSON list of rationals")
    return _lib("ratlin").rats(v)


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


_SCALARS = {str, int, float, bool, type(None)}


@functools.cache
def _flat_encoder(inner):
    return json.JSONEncoder(sort_keys=True, separators=(f",\n{inner}", ": ")).encode


def _json_text(x, pad=""):
    """json.dumps(x, sort_keys=True, indent=2), for x written at indent pad.

    CPython's indented encoder runs in Python; its C encoder runs only
    without indent.  So a container of scalars is encoded in C with the item
    separator ",\n" plus the indent, which lays its items out as the
    indented encoder does (JSON text has no raw newline inside a string),
    and a list of strings puts each distinct string through the C string
    encoder once.  Nested containers recurse, with sorted keys, which must
    be strings where the dict holds a container (as in every artifact)."""
    if type(x) is str:
        return _encode_str(x)
    if isinstance(x, dict):
        kinds, brackets = set(map(type, x.values())), "{}"
    elif isinstance(x, (list, tuple)):
        kinds, brackets = set(map(type, x)), "[]"
    else:
        return json.dumps(x)
    if not x:
        return brackets
    inner = pad + "  "
    if kinds == {str} and brackets == "[]":
        text = {s: _encode_str(s) for s in set(x)}
        body = f",\n{inner}".join(map(text.__getitem__, x))
    elif kinds <= _SCALARS:
        body = _flat_encoder(inner)(x)[1:-1]
    elif brackets == "{}":
        body = f",\n{inner}".join(f"{_encode_str(k)}: {_json_text(v, inner)}"
                                  for k, v in sorted(x.items()))
    else:
        body = f",\n{inner}".join([_json_text(v, inner) for v in x])
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}"


def _dump(data, path=None):
    _write(_json_text(data) + "\n", path)


def _check_paths(ins, outs):
    for p in filter(None, outs):
        folder = os.path.dirname(p)
        if folder and not os.path.isdir(folder):
            raise InputError(f"cannot write {p}: no directory {folder}")
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

def _sandwich_cert(failed, K, Q):
    """Self-contained certificate for the failing half of a sandwich check
    of the EF K against the H-rep Q: its ContainsReport or InsideReport."""
    _vec_json = _lib("ratlin")._vec_json
    f = failed.failing
    if isinstance(failed, _lib("polyhedra").ContainsReport):
        return {"kind": "contains-failure", "ef": K.to_json(),
                "target_kind": f["kind"], "target": _vec_json(f["generator"]),
                "u": _vec_json(f["certificate"])}
    return {"kind": "row-violation", "ef": K.to_json(),
            "row": _vec_json(Q.A.row(f["row"])),
            "bound": _lib("ratlin").rat_str(f["bound"]),
            "point": _vec_json(f["point"]), "lifting": _vec_json(f["lifting"])}


# Each checker reads its fields under `decoding`, so a certificate with a
# field missing or of the wrong type exits 2 (input error), not 1.

def _verify_contains_failure(d):
    with decoding("contains-failure certificate needs ef, target_kind "
                  "(point or ray), target, u"):
        K = _lib("polyhedra").ExtendedFormulation.from_json(d["ef"])
        target, u = _vec_load(d["target"]), _vec_load(d["u"])
        if d["target_kind"] not in ("point", "ray"):
            raise ValueError("target_kind")
    return _lib("polyhedra").refutes(K, d["target_kind"], target, u)


def _verify_row_violation(d):
    with decoding("row-violation certificate needs ef, row, bound, point, lifting"):
        K = _lib("polyhedra").ExtendedFormulation.from_json(d["ef"])
        row, bound, point = _vec_load(d["row"]), rat(d["bound"]), _vec_load(d["point"])
        w = _vec_load(d["lifting"])
    # a wrong length exits 2 even below the bound
    lifted = _lib("polyhedra").lifts(K, "point", point, w)
    return _lib("ratlin").dot(row, point) > bound and lifted


def _verify_qall_violation(d):
    with decoding("qall-violation certificate needs a square x and a constraint "
                  "of kind sign (with entry) or graph (with graph on its ground set)"):
        x = _lib("ratlin").RationalMatrix.from_json(d["x"])
        c = d["constraint"]
        if x.rows != x.cols:
            raise ValueError("x is not square")
        if c["kind"] == "sign":
            i, j = c["entry"]
            if not all(type(v) is int and 1 <= v <= x.rows for v in (i, j)):
                raise ValueError("entry outside x")
        else:
            G = _lib("encodings").Graph.from_json(c["graph"])
            if G.n != x.rows:
                raise ValueError("graph ground set")
    if c["kind"] == "sign":
        return i != j and x[i - 1, j - 1] < 0
    lhs, rhs = _lib("encodings").graph_row(G, x)
    return lhs > rhs


def _verify_factorization_invalid(d):
    with decoding("factorization-invalid certificate needs matrix, fac"):
        S = _lib("ratlin").RationalMatrix.from_json(d["matrix"])
        fac = _lib("nnfact").NonnegFactorization.from_json(d["fac"])
    return not _lib("nnfact").verify_factorization(S, fac).ok


def _verify_spectra_failure(d):
    with decoding("spectra-failure certificate needs a positive integer n, b "
                  "(mask or 0/1 list) and an optional y"):
        n, b = d["n"], d["b"]
        if not isinstance(b, (int, list)):
            raise TypeError("b")
        Y = _lib("ratlin").RationalMatrix.from_json(d["y"]) if d.get("y") else None
    return not _lib("encodings").spectra_vertex_witness(b, n, Y=Y)


def _verify_razborov_failure(d):
    with decoding("razborov-failure certificate needs an integer n, f, g"):
        udisj = _lib("udisj")
        params = udisj.UdisjParams(d["n"])
        f = udisj.FunctionTable.from_json(d["f"])
        g = udisj.FunctionTable.from_json(d["g"])
    return not udisj.razborov_identities(f, g, params).ok


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
# certificate to write, or True for a failure without one.  They reach every
# library name through `_lib`, on its defining module at call time.

def _fac2ef(a):
    nnfact = _lib("nnfact")
    if a.slack is not None:
        check = nnfact.verify_factorization(a.slack, a.fac)
        if not check.ok:
            return {}, {"kind": "factorization-invalid", "matrix": a.slack.to_json(),
                        "fac": a.fac.to_json(), "reason": check.reason,
                        "where": list(check.where) if check.where else None}
    return {"out": nnfact.factorization_to_ef(a.q, a.fac).to_json()}, None


def _ef2fac(a):
    nnfact = _lib("nnfact")
    try:
        return {"out": nnfact.ef_to_factorization(a.ef, a.p, a.q).to_json()}, None
    except nnfact.PreconditionError as exc:
        return {}, _sandwich_cert(exc.report, a.ef, a.q)


def _nnegrk_bounds(a):
    nnfact = _lib("nnfact")
    bounds = nnfact.nnegrk_bounds(a.matrix)
    out = {"op": "nnegrk_bounds", "lower": bounds.lower, "upper": bounds.upper,
           "provenance": bounds.provenance()}
    if isinstance(bounds.upper_witness, nnfact.NonnegFactorization):
        out["upper_witness"] = bounds.upper_witness.to_json()
    return {"out": out}, None


def _razborov_check(a):
    import random

    udisj, _vec_json = _lib("udisj"), _lib("ratlin")._vec_json
    params = udisj.UdisjParams(a.n)
    if a.f or a.g:
        if not (a.f and a.g):
            raise InputError("--f and --g must be given together")
        pairs = [(udisj.parse_function(a.f, a.n), udisj.parse_function(a.g, a.n))]
    else:
        rng = random.Random(a.seed)
        # values p/q with p in 0..4 and q in 1..3, drawn p first; each pair
        # maps to one shared Fraction
        shared = {(p, q): Fraction(p, q) for p in range(5) for q in range(1, 4)}

        def table():
            return udisj.FunctionTable(a.n, [shared[rng.randrange(0, 5), rng.randrange(1, 4)]
                                             for _ in range(1 << a.n)])
        pairs = [(table(), table()) for _ in range(a.trials)]
    checks = []
    first_bad = None
    for f, g in pairs:
        rep = udisj.razborov_identities(f, g, params)
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
    udisj = _lib("udisj")
    rep = udisj.rectangle_corruption_scan(udisj.UdisjParams(a.n), a.eps, mode=a.mode,
                                          seed=a.seed, count=a.count, keep_records=csv)
    return {"out": rep.csv_text() if csv else rep.to_json()}, None


def _corruption_bound(a):
    udisj, rat_str = _lib("udisj"), _lib("ratlin").rat_str
    value = udisj.corruption_rhs(a.eps, a.ell, a.C)
    return {"out": {"op": "corruption_rhs", "epsilon": rat_str(a.eps),
                    "C": rat_str(a.C), "ell": a.ell, "value": value}}, None


def _shift_lb(a):
    udisj, rat_str = _lib("udisj"), _lib("ratlin").rat_str
    value = udisj.shift_rank_lb(a.n, a.rho, a.eps, a.C)
    eps = a.eps if a.eps is not None else Fraction(1, 2) / a.rho
    return {"out": {"op": "shift_rank_lb", "n": a.n, "rho": rat_str(a.rho),
                    "C": rat_str(a.C), "value": value, "epsilon": rat_str(eps)}}, None


def _hardpair(a):
    hp = _lib("encodings").build_hard_pair(a.n)
    return {"out_p": hp.P.to_json(), "out_q": hp.Q.to_json()}, None


def _qall_separate(a):
    rep = _lib("encodings").qall_separate(a.x, mode=a.mode, seed=a.seed, count=a.count)
    out = {"out": rep.to_json()}
    if rep.status != "violated":
        return out, None
    constraint = ({"kind": "sign", "entry": list(rep.entry)} if rep.kind == "sign"
                  else {"kind": "graph", "graph": rep.graph.to_json()})
    return out, {"kind": "qall-violation", "x": a.x.to_json(), "constraint": constraint}


def _box_ef(a):
    encodings = _lib("encodings")
    if (a.graph is None) != (a.report is None):
        raise InputError("--graph and --report must be given together")
    if a.graph is not None and a.graph.n != a.n:
        raise InputError(f"graph ambient bound {a.graph.n} differs from --n {a.n}")
    out = {"out": encodings.box_ef(a.n).to_json()}
    if a.graph is not None:
        out["report"] = encodings.box_approx_report(encodings.clique_weight(a.graph)).to_json()
    return out, None


def _psd_check(a):
    _lib("encodings").psd_factors(a.n)  # raises if the identity ever failed
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
    encodings = _lib("encodings")
    b = _parse_b(a.b, a.n)
    ok = encodings.spectra_vertex_witness(b, a.n, Y=a.y)
    out = {"out": {"op": "spectra_vertex_witness", "n": a.n, "b": a.b, "ok": ok}}
    if ok:
        return out, None
    return out, {"kind": "spectra-failure", "n": a.n, "b": encodings._as_mask(b, a.n),
                 "y": a.y.to_json() if a.y is not None else None}


def _verify_sandwich(a):
    rep = _lib("polyhedra").verify_sandwich(a.p, a.q, a.rho, a.ef)
    failed = rep.inside if rep.contains.ok else rep.contains
    return {"out": rep.to_json()}, (None if rep.ok else _sandwich_cert(failed, a.ef, a.q))


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


def _from_json(module, cls):
    """Loader for an input file that holds a `cls` of library `module`."""
    return lambda data: getattr(_lib(module), cls).from_json(data)


OUT = ("--out", {"output": True})
CERT = ("--cert", {"output": True})
N = ("--n", {"type": _positive_int, "required": True})
RHO = ("--rho", {"type": rat, "required": True})
SEED = ("--seed", {"type": int, "default": 0})
MODE = ("--mode", {"choices": ["exhaustive", "sample"], "default": "exhaustive"})
C = ("--C", {"type": rat, "default": Fraction(0)})
P = _in("--p", _from_json("polyhedra", "VRep"))
Q = _in("--q", _from_json("polyhedra", "HRep"))
EF = _in("--ef", _from_json("polyhedra", "ExtendedFormulation"))

_COMMANDS = {c.name: c for c in [
    _Command("slack", "slack matrix of a polyhedron pair",
             [P, Q, OUT],
             lambda a: ({"out": _lib("polyhedra").build_slack(a.p, a.q).to_json()}, None)),
    _Command("dilate", "scale the right-hand sides of an H-rep",
             [Q, RHO, OUT],
             lambda a: ({"out": _lib("polyhedra").dilate(a.q, a.rho).to_json()}, None)),
    _Command("shift-slack", "shift a slack matrix by rho-1",
             [_in("--slack", _from_json("polyhedra", "SlackMatrix")), RHO, OUT],
             lambda a: ({"out": _lib("polyhedra").shift_slack(a.slack, a.rho).to_json()}, None)),
    _Command("fac2ef", "extended formulation from a nonnegative factorization",
             [Q, _in("--fac", _from_json("nnfact", "NonnegFactorization")),
              _in("--slack", _load_matrix, required=False,
                  help="optional slack matrix to verify the factorization against first"),
              OUT], _fac2ef, cert=True),
    _Command("ef2fac", "nonnegative factorization from a sandwiched EF",
             [EF, P, Q, OUT], _ef2fac, cert=True),
    _Command("nnegrk-bounds", "lower and upper bounds on nonnegative rank",
             [_in("--matrix", _load_matrix),
              ("--seed", dict(SEED[1], help="has no effect: the bounds are deterministic")),
              OUT],
             _nnegrk_bounds),
    _Command("udisj-shift", "rho-shift matrix of unique disjointness",
             [N, RHO, ("--fill", {"type": rat, "default": None,
                                  "help": "entry for |a & b| >= 2 (default: the hard-pair fill)"}),
              OUT],
             lambda a: ({"out": _lib("udisj").build_shift(a.n, a.rho, a.fill).to_json()}, None)),
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
             lambda a: ({"out": _lib("encodings").hardpair_slack(a.n, a.rho).to_json()}, None)),
    _Command("clique-weight", "clique objective matrix",
             [_in("--graph", _from_json("encodings", "Graph")), OUT],
             lambda a: ({"out": _lib("encodings").clique_weight(a.graph).to_json()}, None)),
    _Command("clique-omega", "exact clique number",
             [_in("--graph", _from_json("encodings", "Graph")), OUT],
             lambda a: ({"out": {"op": "clique_number",
                                 "omega": _lib("encodings").clique_number(a.graph)}}, None)),
    _Command("qall-separate", "separate a point from the all-graphs relaxation",
             [_in("--x", _from_json("ratlin", "RationalMatrix")), MODE, SEED,
              ("--count", {"type": _positive_int, "default": 200}), OUT],
             _qall_separate, cert=True),
    _Command("box-ef", "box extension and approximation report",
             [N, _in("--graph", _from_json("encodings", "Graph"), required=False,
                     help="clique objective to report on"),
              OUT, ("--report", {"output": True})], _box_ef),
    _Command("cut-family", "cut polytope, cut cone or correlation cone generators",
             [("--kind", {"required": True,
                          "choices": ["cut_polytope", "cut_cone", "correlation_cone"]}),
              N, OUT],
             lambda a: ({"out": _lib("encodings").build_cut_family(a.kind, a.n).to_json()}, None)),
    _Command("covmap", "covariance image of an edge vector",
             [N, _in("--vec", _vec_file), OUT],
             lambda a: ({"out": _lib("encodings").covariance_map(a.vec, a.n).to_json()}, None)),
    _Command("psd-check", "verify the rank-one PSD factor identity", [N, OUT], _psd_check),
    _Command("spectra-witness", "check the vertex witness equation",
             [N, ("--b", {"required": True, "help": "bitstring b_1...b_n or integer mask"}),
              _in("--y", _from_json("ratlin", "RationalMatrix"), required=False,
                  help="alternative Y matrix JSON"), OUT],
             _spectra_witness, cert=True),
    _Command("verify-sandwich", "verify P inside K inside rho Q",
             [P, Q, RHO, EF, OUT],
             _verify_sandwich, cert=True),
    _Command("check-cert", "re-verify a certificate file",
             [_in("--cert", _json_object, dest="cert_file"), OUT], _check_cert),
]}


def _options(cmd):
    return cmd.options + [CERT] if cmd.cert else cmd.options


def _dest(flag, kw):
    return kw.get("dest") or flag.lstrip("-").replace("-", "_")


def _run(cmd, args):
    """Check that every output directory exists and that no two paths
    collide, the default certificate path included; load the inputs; run
    the handler; check the budget once more, so a run that overran it exits
    3 even where its own loops last polled in time; then write its
    artifacts (a certificate to the certificate path) and return 0, or 1 on
    failure."""
    if cmd.cert:
        args.cert = _cert_path(args)
    opts = [(_dest(flag, kw), kw) for flag, kw in _options(cmd)]
    _check_paths([getattr(args, d) for d, kw in opts if "load" in kw],
                 [getattr(args, d) for d, kw in opts if kw.get("output")])
    for d, kw in opts:
        if "load" in kw and getattr(args, d) is not None:
            setattr(args, d, kw["load"](_load_json(getattr(args, d))))
    artifacts, failure = cmd.handler(args)
    check_deadline()  # a run that overran its budget writes nothing
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
