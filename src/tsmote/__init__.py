"""Time-sliced SMOTE imputation for irregular multivariate time series.

Workflow: slice the pooled observation times into equal-count bins, generate
per-class synthetic feature vectors inside each slice by nearest-neighbor
interpolation, then reshape every sample onto the slice grid and fill its
gaps from the synthetic pool. See the README for the CLI and the moment-law
verification suite.
"""

__version__ = "0.1.0"

from .data import (
    DatasetStats,
    ImputedTensor,
    TimeSeriesDataset,
    ValidationReport,
    dataset_stats,
    read_long_csv,
    validate_dataset,
    write_long_csv,
    write_tensor_csv,
)
from .slicing import (
    SliceGrid,
    SliceGridError,
    assign_slices,
    build_slice_grid,
    compute_time_bounds,
)
from .synthesis import (
    LambdaSpec,
    PoolUnderflowError,
    SynthesisConfig,
    SynthesisError,
    SyntheticPool,
    generate_pool,
    knn_1d,
    synthesize_slice,
)
from .imputation import (
    ImputationConfig,
    impute_dataset,
)
from .smoothing import SmoothingConfig, savgol_nonuniform, smooth_tensor
from .moments import (
    MomentReport,
    empirical_moments,
    mean_imputation_variance_check,
    neighbor_degree_check,
    run_moment_verification,
    theoretical_cov_factor,
)
from .oscillator import (
    ExperimentConfig,
    OscillatorConfig,
    TwoClassExperiment,
    generate_oscillator_dataset,
    generate_two_class_experiment,
)
from .classify import (
    ComparisonConfig,
    LogisticModel,
    Normalizer,
    auc_score,
    evaluate,
    fit_logistic,
    run_imputer_comparison,
)

__all__ = [
    "__version__",
    # data
    "TimeSeriesDataset", "ImputedTensor",
    "ValidationReport", "DatasetStats", "validate_dataset", "dataset_stats",
    "read_long_csv", "write_long_csv", "write_tensor_csv",
    # slicing
    "SliceGrid", "SliceGridError",
    "compute_time_bounds", "build_slice_grid", "assign_slices",
    # synthesis
    "LambdaSpec", "SynthesisConfig", "SyntheticPool",
    "SynthesisError", "PoolUnderflowError",
    "knn_1d", "synthesize_slice", "generate_pool",
    # imputation
    "ImputationConfig", "impute_dataset",
    # smoothing
    "SmoothingConfig", "savgol_nonuniform", "smooth_tensor",
    # moments
    "MomentReport", "theoretical_cov_factor", "empirical_moments",
    "neighbor_degree_check", "mean_imputation_variance_check",
    "run_moment_verification",
    # oscillator
    "OscillatorConfig", "ExperimentConfig", "TwoClassExperiment",
    "generate_oscillator_dataset", "generate_two_class_experiment",
    # classify
    "Normalizer", "LogisticModel", "fit_logistic", "evaluate", "auc_score",
    "ComparisonConfig", "run_imputer_comparison",
]
