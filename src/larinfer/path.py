"""Least-angle regression path engine.

One implementation of the path algorithm parameterized by the response
vector: feeding the observed response gives the sample path, feeding a
noiseless mean vector gives the population path.  The path depends on the
data only through X'X and X'response, so the engine runs in p-space on the
triangular factor of X'X.  Alternative formulas for the step length, the
equiangular quantities, the step correlations, and the entrance criteria are
kept as separate routines so they can be checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .exceptions import (
    DegenerateResponse,
    DimensionMismatch,
    NoPositiveCandidate,
    NonFiniteValue,
    NonPositiveScale,
    NotPrototypical,
    ZeroColumn,
)
from .linalg import (
    ProjectionBasis,
    append_innovation,
    gram_factor,
    innovation,
    project,
    solve_spd,
)

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
class StepState:
    """Quantities in hand when the step length is chosen at one step.

    ``correlations_all`` is c_k = X'(response - fit), ``correlation`` its
    maximum absolute entry C_k, ``angle`` the common cosine A_k,
    ``equiangular_dots`` is w_k = X'a_k, and ``active_mask`` marks the active
    set including the step-k entrant.
    """

    correlations_all: Vector
    correlation: float
    angle: float
    equiangular_dots: Vector
    active_mask: NDArray[np.bool_]


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

    def active_mask(self, k: int) -> NDArray[np.bool_]:
        """Boolean mask of the active set after step k (1-based)."""
        p = self.coefficients.shape[1]
        mask = np.zeros(p, dtype=bool)
        mask[self.entrants[:k]] = True
        return mask

    def step_state(self, k: int) -> StepState:
        """Reconstruct the StepState of step k (1-based) from stored fields."""
        s = self.steps[k - 1]
        return StepState(
            s.correlations_all, s.correlation, s.angle,
            s.equiangular_dots, self.active_mask(k),
        )


def gamma_crossings(state: StepState) -> tuple[float, Vector, Vector]:
    """Step length via the sign-resolved single-fraction formula.

    Returns (gamma, per-index values over all p entries, per-index signs
    r_{k,j}).  Active entries of the per-index vector are +inf.  When the
    sign is exactly zero the value C_k/A_k is used.
    """
    c = state.correlations_all
    C, A = state.correlation, state.angle
    w = state.equiangular_dots
    ratio = C / A
    d = c - ratio * w
    r = np.where(np.abs(d) <= ZERO_SIGN_TOL, 0.0, np.sign(d))
    with np.errstate(divide="ignore", invalid="ignore"):
        per = np.where(r == 0.0, ratio, (C - c * r) / (A - w * r))
    per = np.where(state.active_mask, np.inf, per)
    if not np.any(~state.active_mask):
        raise NoPositiveCandidate("no non-active index remains")
    gamma = float(np.min(per))
    return gamma, per, r


def gamma_min_plus(state: StepState) -> float:
    """Step length via the min over positive two-candidate fractions.

    Retained solely for differential testing against gamma_crossings.  Falls
    back to C_k/A_k when every variable is active.
    """
    c = state.correlations_all
    C, A = state.correlation, state.angle
    w = state.equiangular_dots
    mask = ~state.active_mask
    if not np.any(mask):
        return C / A
    with np.errstate(divide="ignore", invalid="ignore"):
        plus = (C - c[mask]) / (A - w[mask])
        minus = (C + c[mask]) / (A + w[mask])
    cand = np.concatenate([plus, minus])
    # Exact zeros arise only from the degenerate r = 0 geometry; treat the
    # corresponding index as contributing C/A, mirroring gamma_crossings.
    degenerate = np.abs(c[mask] - (C / A) * w[mask]) <= ZERO_SIGN_TOL
    cand = np.concatenate([cand, np.full(int(degenerate.sum()), C / A)])
    positive = cand[cand > 0.0]
    if positive.size == 0:
        raise NoPositiveCandidate("all step-length fractions are non-positive")
    return float(np.min(positive))


def equiangular(active_signed_columns: Matrix) -> tuple[Vector, float]:
    """Direct equiangular vector and angle from the signed active columns."""
    S = np.asarray(active_signed_columns, dtype=np.float64)
    gram = S.T @ S
    u = solve_spd(gram, np.ones(S.shape[1]))
    A = 1.0 / math.sqrt(float(np.sum(u)))
    a = A * (S @ u)
    return a, A


def equiangular_recursive(
    prev_a: Vector,
    prev_A: float,
    x_new: Vector,
    innovation: Vector,
    sign: float,
) -> tuple[Vector, float]:
    """Equiangular update from the previous step and the new innovation.

    The first step is encoded by the sentinel prev_A = +inf with prev_a = 0;
    all 1/A_0 terms then contribute literal zeros.
    """
    direction_prev, inv_a2_prev = _sentinel_direction(prev_a, prev_A)
    direction, inv_a2 = _advance_direction(
        direction_prev, inv_a2_prev, x_new, innovation, sign
    )
    A = 1.0 / math.sqrt(inv_a2)
    return direction * A, A


def _sentinel_direction(prev_a: Vector, prev_A: float) -> tuple[Vector, float]:
    if math.isinf(prev_A):
        return np.zeros_like(np.asarray(prev_a, dtype=np.float64)), 0.0
    return np.asarray(prev_a, dtype=np.float64) / prev_A, 1.0 / prev_A**2


def _advance_direction(
    direction_prev: Vector,
    inv_a2_prev: float,
    x_new: Vector,
    innovation: Vector,
    sign: float,
) -> tuple[Vector, float]:
    """One step of the a_k/A_k and 1/A_k^2 recursions."""
    ee = float(innovation @ innovation)
    u = (1.0 - sign * float(x_new @ direction_prev)) / ee
    if u <= 0.0:
        raise NonPositiveScale(f"recursion scale u = {u:.3e} is not positive")
    direction = direction_prev + u * sign * innovation
    inv_a2 = inv_a2_prev + u * u * ee
    return direction, inv_a2


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

    Only the starting correlations X'response are computed in n-space.  The
    loop is fed the columns of the factor R of X'X (``data.gram_factor``),
    which have the inner products of the columns of X, so the orthonormal
    basis, the equiangular direction and w_k = X'a_k are all p-space
    quantities, and the correlations are updated as c <- c - gamma * w.  A
    rank-deficient design raises RankDeficient when the factor is built.
    """
    X = data.X
    n, p = X.shape
    resp = np.asarray(response, dtype=np.float64)
    if resp.shape != (n,):
        raise DimensionMismatch(f"response shape {resp.shape} != ({n},)")
    if zero_tol < 0.0:
        raise ValueError("zero_tol must be nonnegative")

    R = data.gram_factor
    c = X.T @ resp
    basis = np.zeros((p, p))  # orthonormal columns in entry order
    chol_r = np.zeros((p, p))  # R[:, order] = basis[:, :k] @ chol_r[:k, :k]
    direction = np.zeros(p)  # a_{k-1} / A_{k-1}, in the coordinates of R
    inv_a2 = 0.0
    active_mask = np.zeros(p, dtype=bool)
    order: list[int] = []
    b = np.zeros(p)
    steps: list[LarStep] = []
    coefficients = np.zeros((p, p))
    entrant: int | None = None
    tie = False
    c_first: float | None = None

    while not active_mask.all():
        C = float(np.max(np.abs(c)))
        threshold = zero_tol if c_first is None else zero_tol * c_first
        if C <= threshold:
            break
        if entrant is None:
            gap = C - np.abs(c)
            candidates = np.flatnonzero(gap <= TIE_TOL * (1.0 + C))
            entrant = int(candidates[0])
            tie = candidates.size > 1
        if c_first is None:
            c_first = C
        j = entrant
        s = 1.0 if c[j] >= 0.0 else -1.0
        k = len(order)
        xj = R[:, j]
        head, e, norm = innovation(basis[:, :k], xj)
        basis[:, k] = e / norm
        chol_r[:k, k] = head
        chol_r[k, k] = norm
        direction, inv_a2 = _advance_direction(direction, inv_a2, xj, e, s)
        A = 1.0 / math.sqrt(inv_a2)
        a = direction * A
        active_mask[j] = True
        order.append(j)
        k += 1

        w = R.T @ a
        state = StepState(c, C, A, w, active_mask.copy())
        if active_mask.all():
            gamma = C / A
            entrant = None
            tie_next = False
        else:
            gamma, per, _ = gamma_crossings(state)
            # an exact tie with a non-active column gives a zero step length;
            # that is the tie pathology, surfaced via the tie flag, not fatal
            if gamma < 0.0:
                raise NoPositiveCandidate(f"step length {gamma:.3e} is negative")
            near = np.flatnonzero(per - gamma <= TIE_TOL * (1.0 + gamma))
            entrant = int(near[0])
            tie_next = near.size > 1

        # coefficient update on the active set via the triangular factor
        head_a = basis[:, :k].T @ a
        delta = np.linalg.solve(chol_r[:k, :k], head_a) if k > 1 else (
            head_a / chol_r[0, 0]
        )
        b[order] += gamma * delta
        coefficients[k - 1] = b

        steps.append(
            LarStep(j, s, C, A, gamma, c, w, inv_a2, tie)
        )
        c = c - gamma * w
        tie = tie_next

    return LarPath(tuple(steps), coefficients[: len(steps)], kind, len(steps))


def sample_path(data: StandardizedData) -> LarPath:
    """Path on the observed response; runs all p steps almost surely."""
    return lar_path(data, data.y, zero_tol=0.0, kind="sample")


def population_path(
    data: StandardizedData, mu: Vector, zero_tol: float = 1e-10
) -> LarPath:
    """Path on a noiseless mean vector; stops once correlations vanish."""
    return lar_path(data, mu, zero_tol=zero_tol, kind="population")


@dataclass(frozen=True)
class ReplayState:
    """Internal quantities of one recorded step, recomputed by replay."""

    k: int  # 1-based step number
    entrant: int
    sign: float
    basis_prev: ProjectionBasis
    direction_prev: Vector  # a_{k-1} / A_{k-1}
    inv_a2_prev: float
    innovation: Vector
    direction: Vector  # a_k / A_k
    inv_a2: float
    active_mask_prev: NDArray[np.bool_]


def replay_states(data: StandardizedData, path: LarPath):
    """Yield ReplayState for each recorded step, rebuilt deterministically."""
    X = data.X
    basis = ProjectionBasis.empty(data.n)
    direction = np.zeros(data.n)
    inv_a2 = 0.0
    active_mask = np.zeros(data.p, dtype=bool)
    for k, step in enumerate(path.steps, start=1):
        j, s = step.entrant, step.sign
        xj = X[:, j]
        basis_prev, direction_prev, inv_a2_prev = basis, direction, inv_a2
        mask_prev = active_mask.copy()
        basis, innovation = append_innovation(basis, xj, j)
        direction, inv_a2 = _advance_direction(direction, inv_a2, xj, innovation, s)
        active_mask[j] = True
        yield ReplayState(
            k, j, s, basis_prev, direction_prev, inv_a2_prev,
            innovation, direction, inv_a2, mask_prev,
        )


@dataclass(frozen=True)
class EntranceCriteria:
    values: Vector  # C_{k,j} over non-active j, nan at active entries
    penalized_ss: Vector  # SS-form of C_{k,j}^2, nan at active entries
    argmax: int


def entrance_criteria(
    data: StandardizedData, response: Vector, state: ReplayState
) -> EntranceCriteria:
    """Entrance criterion values for every non-active column at one step.

    ``values[j]`` is the would-be step correlation if column j entered at
    this step; the argmax over non-active j must be the actual entrant.
    ``penalized_ss`` is the sequential-sum-of-squares form of values**2,
    computed through the candidate angle recursion as an independent route.
    """
    X = data.X
    mu = np.asarray(response, dtype=np.float64)
    resid_mu = mu - project(state.basis_prev, mu)
    resid_X = X - state.basis_prev.vectors @ (state.basis_prev.vectors.T @ X)
    num = X.T @ resid_mu
    r = np.sign(num)
    denom = 1.0 - r * (X.T @ state.direction_prev)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.abs(num) / denom
    # independent route: per-column SS penalized by the candidate angle drop
    d = np.einsum("ij,ij->j", X, resid_X)  # x_j' (I - P_{k-1}) x_j
    with np.errstate(divide="ignore", invalid="ignore"):
        ss = num**2 / d
        u = denom / d  # candidate recursion scale for column j with sign r
        inv_a2_drop = u**2 * d  # 1/A_{j,k}^2 - 1/A_{k-1}^2
        penalized = ss / inv_a2_drop
    values = np.where(state.active_mask_prev, np.nan, values)
    penalized = np.where(state.active_mask_prev, np.nan, penalized)
    masked = np.where(state.active_mask_prev, -np.inf, values)
    return EntranceCriteria(values, penalized, int(np.argmax(masked)))


def population_correlation_closed_form(
    data: StandardizedData, mu: Vector, state: ReplayState
) -> float:
    """Step correlation from the innovation closed form."""
    mu = np.asarray(mu, dtype=np.float64)
    num = state.sign * float(state.innovation @ mu)
    xj = data.X[:, state.entrant]
    denom = 1.0 - state.sign * float(xj @ state.direction_prev)
    return num / denom


@dataclass(frozen=True)
class MarginReport:
    delta_m1: float
    delta_m2: float
    delta: float
    vacuous: bool


def margins(
    population_path: LarPath, data: StandardizedData, mu: Vector
) -> MarginReport:
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
    m = len(population_path.steps)
    entrants = population_path.entrants
    m1_candidates: list[float] = []
    m2_candidates: list[float] = []
    for k in range(1, m + 1):
        step = population_path.steps[k - 1]
        mask = population_path.active_mask(k)
        competitors = ~mask
        if np.any(competitors):
            gaps = step.correlation - np.abs(step.correlations_all[competitors])
            m1_candidates.extend(gaps.tolist())
        if k <= m - 1:
            state = population_path.step_state(k)
            _, per, _ = gamma_crossings(state)
            excluded = mask.copy()
            excluded[entrants[k]] = True
            rest = ~excluded
            if np.any(rest):
                vals = step.angle * (per[rest] - step.weight)
                m2_candidates.extend(vals.tolist())
    vacuous = not m1_candidates and not m2_candidates
    delta_m1 = min(m1_candidates) if m1_candidates else math.inf
    delta_m2 = min(m2_candidates) if m2_candidates else math.inf
    delta = min(delta_m1, delta_m2)
    return MarginReport(delta_m1, delta_m2, delta, vacuous)
