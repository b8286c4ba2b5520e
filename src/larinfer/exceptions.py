"""Error types shared across the library.

All numeric/shape failures derive from :class:`LarInferError` so callers (and
the CLI) can map them to a single exit path.
"""

from __future__ import annotations


class LarInferError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(LarInferError):
    """Operand shapes are incompatible."""


class NotPositiveDefinite(LarInferError):
    """A Cholesky-style pivot fell at or below the rank tolerance.

    Raised by the reference solver ``larinfer.identities.solve_spd``; no
    production path raises it."""


class RankDeficient(LarInferError):
    """A new column is numerically in the span of the current basis."""


class ZeroColumn(LarInferError):
    """A design column has (near-)zero norm after optional centering."""


class NonFiniteValue(LarInferError):
    """The design or response holds a NaN or infinite entry."""


class DegenerateResponse(LarInferError):
    """The response is constant after centering; or its sample path stops
    before step p (in a scenario replication, when the noise is lost to the
    rounding of the mean); or its sigma-hat is 0, a design that fits it
    exactly.  The last two stop ``build_inference_report``."""


class NoPositiveCandidate(LarInferError):
    """No positive step-length candidate exists (numerical inconsistency)."""


class NonPositiveScale(LarInferError):
    """The equiangular recursion produced a non-positive scale factor."""


class NotPrototypical(LarInferError):
    """A population path carries a tie flag where a prototypical path is required."""


class RejectionBudgetExceeded(LarInferError):
    """The scenario rejection sampler exhausted its attempt budget."""


class InvalidTail(LarInferError):
    """Tail probability outside the open interval (0, 1)."""


class CsvParseError(LarInferError):
    """A CSV cell failed to parse; carries its 1-based location.

    ``col`` is None when the fault lies in no one column of the row.
    """

    def __init__(self, message: str, row: int, col: int | None):
        where = f"row {row}" if col is None else f"row {row}, column {col}"
        super().__init__(f"{message} ({where})")
        self.row = row
        self.col = col
