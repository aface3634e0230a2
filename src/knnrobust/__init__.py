"""Exact robustness computation for nearest-neighbor classifiers.

Minimum adversarial perturbations of 1-NN models are computed exactly by
solving one small convex QP per candidate target; the duals of the same QPs
yield certified lower bounds (verification), and for K > 1 the framework
gives both a greedy attack and an order-statistic verifier.
"""

from .attack import (
    AttackStats,
    CertificateKind,
    PerturbationCertificate,
    exact_1nn,
    is_adversarial,
    mean_attack,
    naive_attack,
    qp_greedy_knn,
    qp_top_m,
    screen_subproblem,
)
from .data import (
    Dataset,
    Query,
    class_means,
    generate_synthetic,
    k_nearest,
    knn_predict,
    load_csv,
    load_queries,
)
from .errors import (
    CertificationError,
    DataFormatError,
    DegeneratePairError,
    InfeasibleSubproblemError,
    InsufficientPointsError,
    KnnRobustError,
    SolverError,
)
from .lp import build_l1_lp, build_linf_lp, exact_1nn_lp, solve_lp
from .qp_solver import (
    DualSolution,
    KktReport,
    SolveStatus,
    SolverConfig,
    kkt_check,
    recover_primal,
    solve_dual_gca,
)
from .subproblem import Subproblem, build_1nn_subproblem, build_knn_subproblem, pair_bound
from .verify import VerificationResult, verify_1nn, verify_knn

__version__ = "0.1.0"

__all__ = [
    "AttackStats",
    "CertificateKind",
    "CertificationError",
    "DataFormatError",
    "Dataset",
    "DegeneratePairError",
    "DualSolution",
    "InfeasibleSubproblemError",
    "InsufficientPointsError",
    "KktReport",
    "KnnRobustError",
    "PerturbationCertificate",
    "Query",
    "SolveStatus",
    "SolverConfig",
    "SolverError",
    "Subproblem",
    "VerificationResult",
    "build_1nn_subproblem",
    "build_knn_subproblem",
    "build_l1_lp",
    "build_linf_lp",
    "class_means",
    "exact_1nn",
    "exact_1nn_lp",
    "generate_synthetic",
    "is_adversarial",
    "k_nearest",
    "kkt_check",
    "knn_predict",
    "load_csv",
    "load_queries",
    "mean_attack",
    "naive_attack",
    "pair_bound",
    "qp_greedy_knn",
    "qp_top_m",
    "recover_primal",
    "screen_subproblem",
    "solve_dual_gca",
    "solve_lp",
    "verify_1nn",
    "verify_knn",
]
