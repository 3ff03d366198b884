"""Self-test of the output checks: each must reject a tampered output.

`run.py` calls `tampered_accepted` after its timed rounds, on the real
outputs of the run's first round that passed their checks.  For every check kind in the round,
each tamper below changes one value of a copy of the output; a check that
still accepts the copy is reported, and the run is then not `correct`.
"""

from __future__ import annotations

import copy
from fractions import Fraction

from checks import CHECKS, CheckError, load_output


def _bump(s, by=1):
    return str(Fraction(s) + by)


def _witness(out):
    out["contains"]["witnesses"][-1]["w"][0] = _bump(out["contains"]["witnesses"][-1]["w"][0])


def _derivation(out):
    out["inside"]["derivations"][0]["t"][0] = _bump(out["inside"]["derivations"][0]["t"][0])


def _offset(out):
    out["inside"]["derivations"][-1]["c"] = _bump(out["inside"]["derivations"][-1]["c"], -1)


def _box_point(out):
    out["inside"]["failing"]["point"][0] = "2"


def _factor(out):
    out["T"]["entries"][0] = _bump(out["T"]["entries"][0])


def _ef_rhs(out):
    out["g"][0] = _bump(out["g"][0])


def _cert_invalid(out):
    out["valid"] = False


def _lower_below_rank(out):
    out["lower"] = 2


def _upper_too_low(out):
    out["upper"] = out["lower"]


def _upper_too_high(out):
    out["upper"] += 1


def _bad_witness(out):
    """A witness of rank lower whose product is zero.  The rank-bounds
    matrices are square, so an unwitnessed upper bound is their size."""
    size, r = out["upper"], out["lower"]
    out["upper"] = r
    out["upper_witness"] = {"T": {"rows": size, "cols": r, "entries": ["0"] * (size * r)},
                            "U": {"rows": r, "cols": size, "entries": ["0"] * (size * r)}}


def _scan_best(out):
    out["best_value"] = _bump(out["best_value"], Fraction(1, 96))


def _scan_zero(out):
    out["zero_b_max"] = _bump(out["zero_b_max"], Fraction(-1, 6))


def _scan_count(out):
    out["scanned"] -= 1


def _csv_value(lines):
    rid, pa, pb, val = lines[4097].split(",")
    lines[4097] = ",".join((rid, pa, pb, _bump(val, Fraction(1, 96))))


def _csv_short(lines):
    del lines[-1]


def _expectation(out):
    side = out["checks"][0]["expectation_b"]
    side[0] = side[1] = _bump(side[0], Fraction(1, 7))


def _shift_entry(out):
    out["entries"][3 * 257] = _bump(out["entries"][3 * 257])


TAMPERS = {
    "sandwich-ok": (_witness, _derivation, _offset),
    "box-refuted": (_witness, _box_point),
    "cert-accepted": (_cert_invalid,),
    "ef2fac": (_factor,),
    "fac2ef": (_ef_rhs,),
    "nnegrk": (_lower_below_rank, _upper_too_low, _upper_too_high, _bad_witness),
    "scan-exhaustive": (_scan_best, _scan_zero, _scan_count),
    "scan-csv": (_csv_value, _csv_short),
    "scan-sample": (_scan_best, _scan_count),
    "razborov": (_expectation,),
    "shift": (_shift_entry,),
}


def tampered_accepted(checked):
    """checked: (kind, output path, ctx) of outputs that passed.  Returns the
    tampers some check accepted, as 'kind/tamper' strings."""
    bad, seen = [], set()
    for kind, path, ctx in checked:
        if kind in seen:
            continue
        seen.add(kind)
        out = load_output(kind, path)
        if kind == "scan-csv":
            out = list(out)
        for tamper in TAMPERS[kind]:
            forged = copy.deepcopy(out)
            tamper(forged)
            try:
                CHECKS[kind](forged, ctx)
            except CheckError:
                continue
            bad.append(f"{kind}/{tamper.__name__.lstrip('_')}")
    return bad
