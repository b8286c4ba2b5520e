"""Least-angle regression paths, termination estimation, and bootstrap
confidence intervals for step correlations and step coefficients.

Importing the package loads numpy and none of its modules: each name below
is imported from its module on first use.
"""

import importlib
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
# numpy loads here when the caller chose the thread count
import numpy  # noqa: E402,F401

__version__ = "0.1.0"

_EXPORTS = {
    "bootstrap": (
        "BootstrapConfig",
        "IntervalSet",
        "bootstrap_intervals",
        "membership_curves",
    ),
    "exceptions": (
        "CsvParseError",
        "DegenerateResponse",
        "DimensionMismatch",
        "InvalidTail",
        "LarInferError",
        "NoPositiveCandidate",
        "NonFiniteValue",
        "NonPositiveScale",
        "NotPositiveDefinite",
        "NotPrototypical",
        "RankDeficient",
        "RejectionBudgetExceeded",
        "ZeroColumn",
    ),
    "inference": (
        "InferenceReport",
        "build_inference_report",
        "chi2_thresholds",
        "chi2_upper_quantile",
        "estimate_m",
        "sigma_hat",
        "tail_sums",
    ),
    "linalg": (),  # the rank rule, no public name; resolves on first use
    "path": (
        "LarBatch",
        "LarPath",
        "StandardizedData",
        "lar_batch",
        "lar_path",
        "margins",
        "standardize",
    ),
    "simulate": (
        "CoverageResult",
        "ScenarioSpec",
        "generate_scenario",
        "run_coverage",
        "tie_demo",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import a public name, or one of the modules that define them, on its
    first use and keep it in the package namespace."""
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
