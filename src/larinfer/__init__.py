"""Least-angle regression paths, termination estimation, and bootstrap
confidence intervals for step correlations and step coefficients."""

from .bootstrap import (
    BootstrapConfig,
    IntervalSet,
    TerminalCoefficients,
    bootstrap_intervals,
    membership_curves,
)
from .exceptions import (
    CsvParseError,
    DegenerateResponse,
    DimensionMismatch,
    InvalidTail,
    LarInferError,
    NoPositiveCandidate,
    NonFiniteValue,
    NonPositiveScale,
    NotPositiveDefinite,
    NotPrototypical,
    RankDeficient,
    RejectionBudgetExceeded,
    ZeroColumn,
)
from .inference import (
    InferenceReport,
    build_inference_report,
    chi2_thresholds,
    chi2_upper_quantile,
    estimate_m,
    sigma_hat,
    studentized_T,
    tail_sums,
)
from .linalg import solve_spd
from .path import (
    LarBatch,
    LarPath,
    MarginReport,
    StandardizedData,
    lar_batch,
    lar_path,
    margins,
    standardize,
)
from .simulate import (
    CoverageResult,
    ScenarioSpec,
    generate_scenario,
    run_coverage,
    tie_demo,
)

__version__ = "0.1.0"
