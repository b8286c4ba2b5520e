"""Least-angle regression paths, termination estimation, and bootstrap
confidence intervals for step correlations and step coefficients."""

import os
import sys

# One OpenBLAS thread unless the caller set a thread count: every BLAS call
# here is a small product, where a second thread only spins.  OpenBLAS reads
# the variable once, as numpy loads it, so it is set for that import alone.
if "numpy" not in sys.modules and not any(
    name in os.environ
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
