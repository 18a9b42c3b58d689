"""Estimation of tensor factor models.

Least-squares and Huber-weighted alternating projection estimators, penalized
eigenvalue-ratio rank selection, a seeded Monte-Carlo harness, evaluation
metrics, and file formats / CLI glue.
"""

from .eig import EigPair, sym_eig, varimax, varimax_criterion
from .estimation import (
    EstimationConfig,
    EstimationResult,
    LoadingSet,
    NumericalError,
    common_components,
    default_tau,
    extract_factors,
    fit,
    initial_estimator,
    residual_scales,
)
from .io import FileFormatError, read_matrix, read_series, write_matrix, write_series
from .metrics import (
    ClusterTree,
    complete_linkage,
    loading_distance_matrix,
    mse_common,
    orthonormal_basis,
    relative_mse,
    rolling_validation,
    subspace_distance,
)
from .ranks import (
    RankConfig,
    RankResult,
    RateConstants,
    eigenvalue_ratio_pick,
    estimate_ranks,
    rate_constants,
)
from .simulate import (
    DgpConfig,
    MonteCarloResult,
    SimulatedDataset,
    gen_dataset,
    gen_factors,
    gen_loadings,
    gen_noise,
    replication_rng,
    run_monte_carlo,
    write_aggregate_csv,
    write_replication_csv,
)
from .tensor import (
    fold,
    mode_product,
    multi_mode_product,
    series_mode_product,
    series_multi_mode_product,
    series_unfold,
    unfold,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterTree",
    "DgpConfig",
    "EigPair",
    "EstimationConfig",
    "EstimationResult",
    "FileFormatError",
    "LoadingSet",
    "MonteCarloResult",
    "NumericalError",
    "RankConfig",
    "RankResult",
    "RateConstants",
    "SimulatedDataset",
    "common_components",
    "complete_linkage",
    "default_tau",
    "eigenvalue_ratio_pick",
    "estimate_ranks",
    "extract_factors",
    "fit",
    "fold",
    "gen_dataset",
    "gen_factors",
    "gen_loadings",
    "gen_noise",
    "initial_estimator",
    "loading_distance_matrix",
    "mode_product",
    "mse_common",
    "multi_mode_product",
    "orthonormal_basis",
    "rate_constants",
    "read_matrix",
    "read_series",
    "relative_mse",
    "replication_rng",
    "residual_scales",
    "rolling_validation",
    "run_monte_carlo",
    "series_mode_product",
    "series_multi_mode_product",
    "series_unfold",
    "subspace_distance",
    "sym_eig",
    "unfold",
    "varimax",
    "varimax_criterion",
    "write_aggregate_csv",
    "write_matrix",
    "write_replication_csv",
    "write_series",
]
