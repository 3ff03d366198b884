"""Every entry point indexed by a ground-set size n checks it through
errors.ground_size: a non-integer or too small n is an InputError (exit 2),
an n above the entry point's enumeration limit a BudgetError (exit 3),
raised before anything is enumerated."""

import pytest

from efbound.encodings import (
    Graph,
    box_ef,
    build_cut_family,
    build_hard_pair,
    clique_number,
    covariance_map,
    hardpair_slack,
    max_over_cor,
    psd_factors,
    qall_separate,
    spectra_vertex_witness,
)
from efbound.errors import BudgetError, InputError, ground_size
from efbound.ratlin import RationalMatrix
from efbound.udisj import (
    FunctionTable,
    UdisjParams,
    build_shift,
    razborov_identities,
    rectangle_corruption_scan,
)

# (entry point called on n, least n, an n above the limit or None); a least
# of None marks an n read off a matrix, graph or spec, which is an int >= 0
# by construction, so only its limit is tested
ENTRY_POINTS = {
    "build_hard_pair": (build_hard_pair, 1, 11),
    "hardpair_slack": (hardpair_slack, 1, 11),
    "box_ef": (box_ef, 1, 17),
    "build_cut_family": (lambda n: build_cut_family("cut_polytope", n), 2, 9),
    "covariance_map": (lambda n: covariance_map([0, 0, 0], n), 2, None),
    "psd_factors": (psd_factors, 1, 11),
    "spectra_vertex_witness": (lambda n: spectra_vertex_witness(0, n), 1, 11),
    "max_over_cor": (lambda n: max_over_cor(RationalMatrix(n, n)), None, 13),
    "qall_separate": (lambda n: qall_separate(RationalMatrix(n, n)), None, 5),
    "clique_number": (lambda n: clique_number(Graph.complete(n)), None, 21),
    "Graph": (lambda n: Graph(n, [], []), 0, None),
    "UdisjParams": (UdisjParams, 3, None),
    # four values fit n = 2, the integer part of 2.5: so 2.5 is refused for its type
    "FunctionTable": (lambda n: FunctionTable(n, [0] * 4), 0, None),
    "build_shift": (lambda n: build_shift(n, 1), 1, 15),
    # the first n = 3 mod 4 above the limit 11
    "razborov_identities": (lambda n: razborov_identities(
        FunctionTable.ones(3), FunctionTable.ones(3), UdisjParams(n)), None, 15),
    # the first n = 3 mod 4 above the sampled scan's limit 19
    "rectangle_corruption_scan": (lambda n: rectangle_corruption_scan(
        UdisjParams(n), 0, mode="sample", count=1), None, 23),
}

CASES = [(name, n, InputError) for name, (_, least, _) in ENTRY_POINTS.items()
         if least is not None for n in (2.5, 3.0, 7.0, "3", least - 1, least - 2)] + \
        [(name, big, BudgetError) for name, (_, _, big) in ENTRY_POINTS.items()
         if big is not None]


@pytest.mark.parametrize("name,n,error", CASES)
def test_entry_point_checks_n(name, n, error):
    with pytest.raises(error):
        ENTRY_POINTS[name][0](n)


def test_ground_size():
    assert ground_size(3) == 3
    assert ground_size(0, least=0, limit=0) == 0
    for n in (True, 2.5, "3", 0):
        with pytest.raises(InputError):
            ground_size(n)
    with pytest.raises(BudgetError, match="n=5 exceeds the enumeration limit 4"):
        ground_size(5, limit=4)
