"""Exact tools for approximate extended formulations.

The package turns the pencil-and-paper objects of extension complexity into
executable, exactly verified ones: rational polyhedra and their slack
matrices, nonnegative factorizations and the linear systems they induce,
shifted disjointness matrices with their corruption bounds, and the concrete
hard instances (correlation polytopes, clique encodings, cut cones).

Importing the package loads none of its modules.  Each name below loads its
defining module on first access, and is looked up there on every access, so
`efbound.X` is always `efbound.<module>.X`.
"""

import importlib

_EXPORTS = {
    "encodings": ["Graph", "HardPair", "PsdFactorPair", "box_approx_report", "box_ef",
                  "build_cut_family", "build_hard_pair", "clique_number", "clique_weight",
                  "covariance_map", "cut_vector", "hardpair_slack", "max_over_cor",
                  "objective_matrix", "psd_factors", "qall_separate", "spectra_vertex_witness"],
    "errors": ["BudgetError", "InputError", "VerificationError", "check_deadline",
               "set_budget_ms"],
    "nnfact": ["FactorizationCheck", "NnegrkBounds", "NonnegFactorization",
               "PreconditionError", "ef_to_factorization", "factorization_to_ef",
               "nnegrk_bounds", "rect_cover_lb", "verify_factorization"],
    "polyhedra": ["ExtendedFormulation", "HRep", "SlackMatrix", "VRep", "build_slack",
                  "dilate", "ef_contains_points", "ef_inside_hrep", "homogenize",
                  "shift_slack", "trivial_ef", "verify_sandwich"],
    "ratlin": ["LpResult", "RationalMatrix", "dot", "lp_feasible_each", "lp_solve",
               "lp_solve_each", "mat_rank", "rat", "rat_str", "rats"],
    "udisj": ["FunctionTable", "PartitionT", "UdisjParams", "build_shift", "cond_expect",
              "corruption_rhs", "entropy_gap", "enum_classes", "mu_class_probabilities",
              "razborov_identities", "rectangle_corruption_scan", "row_col_stats",
              "shift_rank_lb"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:  # a submodule not yet imported is found by the import system
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
