"""Exact tools for approximate extended formulations.

The package turns the pencil-and-paper objects of extension complexity into
executable, exactly verified ones: rational polyhedra and their slack
matrices, nonnegative factorizations and the linear systems they induce,
shifted disjointness matrices with their corruption bounds, and the concrete
hard instances (correlation polytopes, clique encodings, cut cones).
"""

from .encodings import (
    Graph,
    HardPair,
    PsdFactorPair,
    box_approx_report,
    box_ef,
    build_cut_family,
    build_hard_pair,
    clique_number,
    clique_weight,
    covariance_map,
    cut_vector,
    hardpair_slack,
    max_over_cor,
    objective_matrix,
    objmat_infnorm_check,
    psd_factors,
    qall_separate,
    spectra_vertex_witness,
)
from .errors import BudgetError, InputError, VerificationError, check_deadline, set_budget_ms
from .nnfact import (
    FactorizationCheck,
    NmfConfig,
    NnegrkBounds,
    NonnegFactorization,
    PreconditionError,
    ef_to_factorization,
    factorization_to_ef,
    nnegrk_bounds,
    rect_cover_lb,
    verify_factorization,
)
from .polyhedra import (
    ExtendedFormulation,
    HRep,
    SlackMatrix,
    VRep,
    build_slack,
    dilate,
    ef_contains_points,
    ef_inside_hrep,
    homogenize,
    shift_slack,
    trivial_ef,
    verify_sandwich,
)
from .ratlin import (
    LpResult,
    Rational,
    RationalMatrix,
    dot,
    lp_feasible_each,
    lp_solve,
    lp_solve_each,
    mat_rank,
    rat,
    rat_str,
)
from .udisj import (
    CorruptionParams,
    FunctionTable,
    PartitionT,
    ShiftSpec,
    UdisjParams,
    build_shift,
    cond_expect,
    corruption_rhs,
    entropy_gap,
    enum_classes,
    mu_class_probabilities,
    razborov_identities,
    rectangle_corruption_scan,
    row_col_stats,
    shift_rank_lb,
)

__version__ = "0.1.0"
