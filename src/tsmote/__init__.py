"""Time-sliced SMOTE imputation for irregular multivariate time series.

Workflow: slice the pooled observation times into equal-count bins, generate
per-class synthetic feature vectors inside each slice by nearest-neighbor
interpolation, then reshape every sample onto the slice grid and fill its
gaps from the synthetic pool. See the README for the CLI and the moment-law
verification suite.
"""

__version__ = "0.1.0"

from .data import (
    ImputedTensor,
    TimeSeriesDataset,
    ValidationReport,
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
)
from .synthesis import (
    LambdaSpec,
    SynthesisConfig,
    SynthesisError,
    generate_pool,
    synthesize_slice,
)
from .imputation import (
    ImputationConfig,
    impute_dataset,
)
from .smoothing import SmoothingConfig, smooth_tensor
from .moments import (
    predicted_variance_ratio,
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
    "ValidationReport", "validate_dataset",
    "read_long_csv", "write_long_csv", "write_tensor_csv",
    # slicing
    "SliceGrid", "SliceGridError",
    "build_slice_grid", "assign_slices",
    # synthesis
    "LambdaSpec", "SynthesisConfig",
    "SynthesisError",
    "synthesize_slice", "generate_pool",
    # imputation
    "ImputationConfig", "impute_dataset",
    # smoothing
    "SmoothingConfig", "smooth_tensor",
    # moments
    "theoretical_cov_factor", "predicted_variance_ratio", "run_moment_verification",
    # oscillator
    "OscillatorConfig", "ExperimentConfig", "TwoClassExperiment",
    "generate_oscillator_dataset", "generate_two_class_experiment",
    # classify
    "Normalizer", "LogisticModel", "fit_logistic", "evaluate", "auc_score",
    "ComparisonConfig", "run_imputer_comparison",
]
