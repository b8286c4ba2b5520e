"""Least-angle regression paths, termination estimation, and bootstrap
confidence intervals for step correlations and step coefficients."""

from .bootstrap import (
    BootstrapConfig,
    IntervalSet,
    TerminalCoefficients,
    bootstrap_errors,
    bootstrap_intervals,
    bootstrap_path_draw,
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
    full_column_basis,
    sigma_hat,
    studentized_T,
    tail_sums,
)
from .linalg import ProjectionBasis, append_innovation, project, solve_spd
from .path import (
    LarBatch,
    LarPath,
    LarStep,
    MarginReport,
    StandardizedData,
    StepState,
    entrance_criteria,
    equiangular,
    equiangular_recursive,
    gamma_min_plus,
    gamma_crossings,
    lar_batch,
    lar_path,
    margins,
    population_correlation_closed_form,
    population_path,
    replay_states,
    standardize,
)
from .simulate import (
    AsymptoticCoefCov,
    CoverageResult,
    ScenarioSpec,
    asymptotic_coef_cov,
    generate_scenario,
    run_coverage,
    tie_demo,
)

__version__ = "0.1.0"
