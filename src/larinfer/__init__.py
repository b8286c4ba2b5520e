"""Least-angle regression paths, termination estimation, and bootstrap
confidence intervals for step correlations and step coefficients."""

from .bootstrap import (
    BootstrapConfig,
    IntervalSet,
    TerminalCoefficients,
    bootstrap_intervals,
    membership_curves,
    terminal_coefficients,
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
from .identities import (
    AsymptoticCoefCov,
    ProjectionBasis,
    StepState,
    append_innovation,
    asymptotic_coef_cov,
    bootstrap_errors,
    bootstrap_path_draw,
    entrance_criteria,
    equiangular,
    equiangular_recursive,
    full_column_basis,
    gamma_crossings,
    gamma_min_plus,
    nearest_rank_quantile,
    population_correlation_closed_form,
    project,
    replay_states,
)
from .linalg import solve_spd
from .path import (
    LarBatch,
    LarPath,
    LarStep,
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
