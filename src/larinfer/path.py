"""Least-angle regression path engine.

One implementation of the path algorithm, ``lar_batch``, advances a batch of
responses on one design in lockstep: every step adds one variable to every
row, so all live rows sit at the same step, and a row leaves the batch when
its own stopping rule fires.  The path depends on the data only through X'X
and X'response, so the engine runs in p-space on the Gram matrix X'X and
takes the starting correlations X'response as input.  ``lar_path`` is
the one-response wrapper: the observed response gives the sample path, a
noiseless mean vector the population path.  The bootstrap and the tie
demonstration run all their responses through the batch engine, and a
coverage study runs the sample paths of its replications in a few batches.
The alternative formulas that the tests check the engine against live in
``larinfer.identities``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .exceptions import (
    DegenerateResponse,
    DimensionMismatch,
    NoPositiveCandidate,
    NonFiniteValue,
    NonPositiveScale,
    NotPrototypical,
    RankDeficient,
    ZeroColumn,
)
from .linalg import RANK_TOL, gram_factor

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]

# Two step-length candidates closer than TIE_TOL * (1 + gamma) are a tie.
TIE_TOL = 1e-9
# Below this the crossing-sign resolution is treated as exactly zero.
ZERO_SIGN_TOL = 1e-12


@dataclass(frozen=True)
class StandardizedData:
    """Unit-norm design and scaled response, with factors to map back.

    ``X`` has unit-norm columns, ``y`` is the (optionally centered) raw
    response divided by sqrt(n).  ``column_scales`` holds the original column
    norms and ``response_scale`` equals sqrt(n), so raw-unit coefficients are
    ``b * response_scale / column_scales``.  The Gram matrix X'X and its
    triangular factor are built on first use and shared by every
    ``with_response`` copy.
    """

    X: Matrix
    y: Vector
    column_scales: Vector
    response_scale: float
    centered: bool
    _design_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def gram(self) -> Matrix:
        """X'X; raises RankDeficient for a rank-deficient design."""
        return self._gram_and_factor()[0]

    @property
    def gram_factor(self) -> Matrix:
        """Upper-triangular R with R'R = X'X; raises RankDeficient likewise."""
        return self._gram_and_factor()[1]

    def _gram_and_factor(self) -> tuple[Matrix, Matrix]:
        cached = self._design_cache.get("gram")
        if cached is None:
            cached = self._design_cache["gram"] = gram_factor(self.X)
        return cached

    def with_response(self, y_raw: Vector) -> "StandardizedData":
        """Same design, new raw-scale response (centered if the data was)."""
        y = np.asarray(y_raw, dtype=np.float64)
        if y.shape[0] != self.n:
            raise DimensionMismatch(f"response length {y.shape[0]} != n = {self.n}")
        if self.centered:
            y = y - y.mean()
        return StandardizedData(
            self.X, y / self.response_scale, self.column_scales,
            self.response_scale, self.centered, self._design_cache,
        )


def standardize(X_raw: Matrix, y_raw: Vector, center: bool = True) -> StandardizedData:
    """Center (optionally), normalize columns to unit norm, scale y by n^-1/2."""
    X = np.asarray(X_raw, dtype=np.float64)
    y = np.asarray(y_raw, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"design must be 2-d, got ndim={X.ndim}")
    n, p = X.shape
    if p < 1 or n <= p:
        raise DimensionMismatch(f"need n > p >= 1, got n={n}, p={p}")
    if y.shape != (n,):
        raise DimensionMismatch(f"response shape {y.shape} != ({n},)")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise NonFiniteValue("design or response holds a NaN or infinite entry")
    if center:
        X = X - X.mean(axis=0)
        y = y - y.mean()
        if np.linalg.norm(y) <= 1e-12:
            raise DegenerateResponse("response is constant after centering")
    else:
        X = X.copy()
        y = y.copy()
    norms = np.linalg.norm(X, axis=0)
    if np.any(norms <= 1e-12):
        bad = int(np.argmin(norms))
        raise ZeroColumn(f"column {bad} has near-zero norm after centering")
    return StandardizedData(X / norms, y / math.sqrt(n), norms, math.sqrt(n), center)


@dataclass(frozen=True)
class LarStep:
    entrant: int
    sign: float
    correlation: float
    angle: float
    weight: float
    correlations_all: Vector
    equiangular_dots: Vector
    inv_angle_sq: float
    tie: bool


@dataclass(frozen=True)
class LarPath:
    steps: tuple[LarStep, ...]
    coefficients: Matrix  # one row per step, p entries each
    kind: str  # "sample" | "population"
    terminated_at: int

    @property
    def entrants(self) -> list[int]:
        return [s.entrant for s in self.steps]

    @property
    def start_correlations(self) -> Vector:
        """X'response, the correlations before the first step."""
        return self.steps[0].correlations_all

    @property
    def signs(self) -> Vector:
        return np.array([s.sign for s in self.steps])

    @property
    def correlations(self) -> Vector:
        return np.array([s.correlation for s in self.steps])

    @property
    def angles(self) -> Vector:
        return np.array([s.angle for s in self.steps])

    @property
    def weights(self) -> Vector:
        return np.array([s.weight for s in self.steps])

    @property
    def inv_angle_sq(self) -> Vector:
        return np.array([s.inv_angle_sq for s in self.steps])

    @property
    def inv_angle_sq_increments(self) -> Vector:
        """1/A_k^2 - 1/A_{k-1}^2 with the 1/A_0 = 0 convention."""
        inv = self.inv_angle_sq
        return np.diff(inv, prepend=0.0)

    @property
    def tie_steps(self) -> list[int]:
        return [k + 1 for k, s in enumerate(self.steps) if s.tie]


def _crossings(
    c: Matrix, C: Vector, A: Vector, w: Matrix, active: NDArray[np.bool_]
) -> tuple[Vector, Matrix, Matrix]:
    """Step length by the sign-resolved single-fraction formula, per row.

    One row of c, w and active per path.  Returns (gamma, per-index values,
    per-index signs r_{k,j}); active entries of the per-index values are
    +inf, and an exactly zero sign gives the value C_k/A_k.
    """
    ratio = (C / A)[:, None]
    d = c - ratio * w
    r = np.where(np.abs(d) <= ZERO_SIGN_TOL, 0.0, np.sign(d))
    with np.errstate(divide="ignore", invalid="ignore"):
        per = np.where(r == 0.0, ratio, (C[:, None] - c * r) / (A[:, None] - w * r))
    per = np.where(active, np.inf, per)
    return per.min(axis=1), per, r


@dataclass(frozen=True)
class LarBatch:
    """Paths of a batch of responses on one design, one row per response.

    Step arrays are B x p; entries past a row's ``terminated_at`` are 0, and
    -1 in ``entrants``.  ``coefficients`` holds the first ``coef_steps``
    coefficient rows of each path (B x coef_steps x p).  ``correlations_all``
    and ``equiangular_dots`` hold c_k and w_k (B x p x p) when traces were
    asked for, else None.
    """

    entrants: NDArray[np.int64]
    signs: Matrix
    correlations: Matrix
    angles: Matrix
    weights: Matrix
    inv_angle_sq: Matrix
    ties: NDArray[np.bool_]
    terminated_at: NDArray[np.int64]
    coefficients: NDArray[np.float64]
    correlations_all: NDArray[np.float64] | None
    equiangular_dots: NDArray[np.float64] | None

    @property
    def inv_angle_sq_increments(self) -> Matrix:
        """1/A_k^2 - 1/A_{k-1}^2 per row (1/A_0 = 0), and 0 past the row's last step."""
        done = np.arange(self.signs.shape[1]) < self.terminated_at[:, None]
        return np.where(done, np.diff(self.inv_angle_sq, axis=1, prepend=0.0), 0.0)

    def path(self, row: int, kind: str = "sample") -> LarPath:
        """Batch row ``row`` as a LarPath; the batch must hold the traces."""
        m = int(self.terminated_at[row])
        fields = (self.entrants, self.signs, self.correlations, self.angles,
                  self.weights, self.inv_angle_sq, self.ties)
        entrant, sign, corr, angle, weight, inv_a2, tie = (a[row, :m].tolist() for a in fields)
        steps = tuple(
            LarStep(entrant[k], sign[k], corr[k], angle[k], weight[k],
                    self.correlations_all[row, k], self.equiangular_dots[row, k],
                    inv_a2[k], tie[k])
            for k in range(m)
        )
        return LarPath(steps, self.coefficients[row, :m], kind, m)


def lar_batch(
    start: Matrix,
    G: Matrix,
    zero_tol: float = 0.0,
    coef_steps: int | None = None,
    traces: bool = False,
    row_name: Callable[[int], str] | None = None,
) -> LarBatch:
    """Run the path algorithm on a batch of responses in lockstep.

    ``start`` is B x p, the starting correlations X'response of each row, and
    ``G`` the Gram matrix X'X.  Each row carries the inverse T^-1 of the
    triangular factor of its active Gram block, G_AA = T'T in entry order,
    grown by one column per step; z = T^-T s_A for the signs s_A; and the
    equiangular weights G_AA^-1 s_A = T^-1 z scattered to columns.  So
    1/A_k^2 = |z|^2, w_k = X'a_k = A_k G G_AA^-1 s_A, the correlations are
    updated as c <- c - gamma * w and the coefficients as
    b <- b + gamma * A_k * G_AA^-1 s_A, all in p-space.

    Each row follows the rules of a single path: ``zero_tol`` is relative to
    the row's first step correlation (the row stops when C_k <= zero_tol * C_1,
    and at C_1 <= zero_tol for the first step); entrant candidates within
    TIE_TOL are flagged as a tie and the lowest index wins.  Only the first
    ``coef_steps`` coefficient rows are kept (default p).  ``traces`` keeps c_k
    and w_k, which take B * p * p floats each.  A failing row raises
    RankDeficient (the new column's norm orthogonal to the active columns is
    at or below RANK_TOL * max(1, |x_j|)), NonPositiveScale or
    NoPositiveCandidate; ``row_name`` maps its batch row to the phrase the
    message names it by (none by default).
    """
    if zero_tol < 0.0:
        raise ValueError("zero_tol must be nonnegative")
    c = np.array(start, dtype=np.float64, ndmin=2)
    B, p = c.shape
    if G.shape != (p, p):
        raise DimensionMismatch(f"Gram matrix shape {G.shape} != ({p}, {p})")
    m = p if coef_steps is None else min(int(coef_steps), p)
    G_diag = np.diag(G)

    # per-step records: (B, p) arrays, then (B, p, p) traces when kept
    out = [
        np.full((B, p), -1, dtype=np.int64),  # entrants
        np.zeros((B, p)),  # signs
        np.zeros((B, p)),  # correlations
        np.zeros((B, p)),  # angles
        np.zeros((B, p)),  # weights
        np.zeros((B, p)),  # inv_angle_sq
        np.zeros((B, p), dtype=bool),  # ties
    ] + ([np.zeros((B, p, p)), np.zeros((B, p, p))] if traces else [])
    terminated_at = np.full(B, p, dtype=np.int64)
    coefficients = np.zeros((B, m, p))

    # State of the live rows; rows[i] is the batch row of live row i.
    rows = np.arange(B)
    live = rows
    t_inv = np.zeros((B, p, p))  # inverse of T, where G_AA = T'T in entry order
    z = np.zeros((B, p))  # T^-T s_A, in entry order
    direction = np.zeros((B, p))  # G_AA^-1 s_A = a_k / A_k, by column
    coef = np.zeros((B, p))  # the last coefficient row
    inv_a2 = np.zeros(B)
    active = np.zeros((B, p), dtype=bool)
    order = np.zeros((B, p), dtype=np.int64)
    entrant = np.zeros(B, dtype=np.int64)
    tie = np.zeros(B, dtype=bool)
    c_first = np.zeros(B)

    def failure(cls, message: str, bad: NDArray[np.bool_], values: Vector):
        i = int(bad.argmax())
        where = "" if row_name is None else f" ({row_name(int(rows[i]))})"
        return cls(message.format(values[i]) + where)

    for k in range(p):
        C = np.abs(c).max(axis=1)
        stop = C <= (zero_tol if k == 0 else zero_tol * c_first)
        if stop.any():
            terminated_at[rows[stop]] = k
            keep = ~stop
            (rows, c, C, t_inv, z, direction, coef, inv_a2, active, order, entrant,
             tie, c_first) = (
                a[keep] for a in (rows, c, C, t_inv, z, direction, coef, inv_a2,
                                  active, order, entrant, tie, c_first)
            )
            live = np.arange(rows.size)
            if rows.size == 0:
                break
        if k == 0:
            near = C[:, None] - np.abs(c) <= TIE_TOL * (1.0 + C[:, None])
            entrant = near.argmax(axis=1)
            tie = near.sum(axis=1) > 1
            c_first = C
        j = entrant
        s = np.where(c[live, j] >= 0.0, 1.0, -1.0)
        # new column of T: head = T^-T G[order, j] above norm on the diagonal
        head = (G[order[:, :k], j[:, None]][:, None, :] @ t_inv[:, :k, :k])[:, 0]
        norm2 = G_diag[j] - (head * head).sum(axis=1)
        bad = norm2 <= RANK_TOL**2 * np.maximum(1.0, G_diag[j])
        if bad.any():
            raise failure(RankDeficient, "innovation norm {:.3e} below rank tolerance",
                          bad, np.sqrt(np.maximum(norm2, 0.0)))
        norm = np.sqrt(norm2)
        z_k = (s - (head * z[:, :k]).sum(axis=1)) / norm
        z[:, k] = z_k
        if (s * z_k <= 0.0).any():
            u = s * z_k / norm
            raise failure(NonPositiveScale, "recursion scale u = {:.3e} is not positive",
                          u <= 0.0, u)
        t_inv[:, :k, k] = -(t_inv[:, :k, :k] @ head[:, :, None])[:, :, 0] / norm[:, None]
        t_inv[:, k, k] = 1.0 / norm
        order[:, k] = j
        direction[live[:, None], order[:, : k + 1]] += z_k[:, None] * t_inv[:, : k + 1, k]
        inv_a2 = inv_a2 + z_k * z_k
        A = 1.0 / np.sqrt(inv_a2)
        active[live, j] = True

        w = A[:, None] * (direction @ G)
        if k + 1 == p:
            gamma = C / A
            entrant_next = entrant
            tie_next = tie
        else:
            gamma, per, _ = _crossings(c, C, A, w, active)
            # an exact tie with a non-active column gives a zero step length;
            # that is the tie pathology, surfaced via the tie flag, not fatal
            if (gamma < 0.0).any():
                raise failure(NoPositiveCandidate, "step length {:.3e} is negative",
                              gamma < 0.0, gamma)
            near = per - gamma[:, None] <= TIE_TOL * (1.0 + gamma[:, None])
            entrant_next = near.argmax(axis=1)
            tie_next = near.sum(axis=1) > 1

        if k < m:
            coef = coef + (gamma * A)[:, None] * direction
            coefficients[rows, k] = coef
        for record, value in zip(out, (j, s, C, A, gamma, inv_a2, tie, c, w)):
            record[rows, k] = value
        c = c - gamma[:, None] * w
        entrant, tie = entrant_next, tie_next

    entrants, signs, correlations, angles, weights, inv_angle_sq, ties = out[:7]
    c_trace, w_trace = out[7:] if traces else (None, None)
    return LarBatch(
        entrants, signs, correlations, angles, weights, inv_angle_sq, ties,
        terminated_at, coefficients, c_trace, w_trace,
    )


def lar_path(
    data: StandardizedData,
    response: Vector,
    zero_tol: float = 0.0,
    kind: str = "sample",
) -> LarPath:
    """Run the path algorithm on the given response.

    ``zero_tol`` is relative to the first step correlation: the path stops
    when C_k <= zero_tol * C_1 (and at C_1 <= zero_tol for the first step).
    Sample responses should use 0, population responses about 1e-10.  Ties
    among entrant candidates are recorded on the step and broken by lowest
    column index.

    Only the starting correlations X'response are computed in n-space; the
    path itself is ``lar_batch`` on one row, with the per-step c_k and w_k
    kept.  A rank-deficient design raises RankDeficient when the factor of
    X'X is built.
    """
    X = data.X
    n = X.shape[0]
    resp = np.asarray(response, dtype=np.float64)
    if resp.shape != (n,):
        raise DimensionMismatch(f"response shape {resp.shape} != ({n},)")
    batch = lar_batch((X.T @ resp)[None], data.gram, zero_tol, traces=True)
    return batch.path(0, kind)


@dataclass(frozen=True)
class MarginReport:
    delta_m1: float
    delta_m2: float
    delta: float
    vacuous: bool


def margins(population_path: LarPath) -> MarginReport:
    """Largest separation constants satisfied by a prototypical path.

    delta_m1 is the smallest gap between the step correlation and any
    non-active competitor; delta_m2 the smallest angle-scaled gap between
    competing step lengths and the winning one.  Vacuous when no competitor
    exists at any step (then both margins are +inf).
    """
    if population_path.tie_steps:
        raise NotPrototypical(
            f"path has ties at steps {population_path.tie_steps}"
        )
    steps = population_path.steps
    m, p = population_path.coefficients.shape
    C, A = population_path.correlations, population_path.angles
    c = np.reshape([s.correlations_all for s in steps], (m, p))
    w = np.reshape([s.equiangular_dots for s in steps], (m, p))
    # entry[j] is the 0-based step at which column j enters (m if never), so
    # row k-1 of ``active`` is the active set after step k
    entry = np.full(p, m)
    entry[population_path.entrants] = np.arange(m)
    active = entry[None, :] < np.arange(1, m + 1)[:, None]
    gaps = (C[:, None] - np.abs(c))[~active]
    # competitors at step k exclude the step-(k+1) entrant
    _, per, _ = _crossings(c[:-1], C[:-1], A[:-1], w[:-1], active[:-1])
    rest = entry[None, :] > np.arange(1, m)[:, None]
    step_gaps = (A[:-1, None] * (per - population_path.weights[:-1, None]))[rest]
    vacuous = not gaps.size and not step_gaps.size
    delta_m1 = float(gaps.min()) if gaps.size else math.inf
    delta_m2 = float(step_gaps.min()) if step_gaps.size else math.inf
    delta = min(delta_m1, delta_m2)
    return MarginReport(delta_m1, delta_m2, delta, vacuous)
