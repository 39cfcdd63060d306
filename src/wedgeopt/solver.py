"""Optimal unit directions for a linear objective on a constraint null space.

The solve pipeline wedges the constraint rows into one m-form A, wedges it
with the objective 1-form b, and contracts A back out of A ^ b.  The map
x -> A ^ x is ||A|| times an isometry on the null space of the rows and
zero on their span, so this interior product, its adjoint applied to
A ^ b, is the Gram determinant of the rows times the component of b
orthogonal to the row span.  It is the paper's double dual
*(A ^ *(b ^ A)) times (-1)^(n+1), but needs only the grade-1 table for
(m, 1) from `forms` and no complement-grade one, and b dotted with it is
||A ^ b||^2, never negative.  `constraint_form` folds the rows through the
same grade-1 kernel when 2m <= n and takes the minors as a batch of
determinants otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DomainError, RankDeficientError
from .forms import KForm, _check_dimension, _combos, _wedge_vector, contract, from_vector, wedge

__all__ = [
    "DEGENERACY_TOLERANCE",
    "RANK_TOLERANCE",
    "ConstraintSystem",
    "Objective",
    "Solution",
    "SolveStatus",
    "constraint_form",
    "degenerate_direction",
    "independent_rows",
    "objective_value",
    "optimal_direction",
    "triple_product_direction",
]

# Coefficient c in the classification rule ||raw|| <= c * ||A_form||^2 * ||b||,
# equivalent to ||b_perp|| <= c * ||b|| and therefore invariant under row and
# objective rescaling.
DEGENERACY_TOLERANCE = 1e-12
# The rows count as dependent when the smallest singular value of the
# row-normalized matrix is at most this, so the rule is invariant under
# independent per-row rescaling.
RANK_TOLERANCE = 1e-10


class SolveStatus(str, Enum):
    """Outcome classification of a solve."""

    OPTIMAL = "optimal"
    DEGENERATE = "degenerate"
    UNCONSTRAINED = "unconstrained"


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """An m x n matrix of constraint rows, with 0 <= m < n."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=float)
        if rows.ndim != 2:
            raise DomainError("constraint rows must form a 2-d matrix")
        m, n = rows.shape
        _check_dimension(n)
        if m >= n:
            raise DomainError(f"the row count must satisfy m < n, got m={m}, n={n}")
        if not np.all(np.isfinite(rows)):
            raise DomainError("constraint rows must have finite entries")
        if m and np.any(np.linalg.norm(rows, axis=1) == 0.0):
            raise DomainError("constraint rows must be nonzero")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @classmethod
    def unconstrained(cls, n: int) -> "ConstraintSystem":
        """A system with no rows over R^n."""
        return cls(np.zeros((0, int(n))))

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True, eq=False)
class Objective:
    """Objective vector plus the sense of optimization along it."""

    b: np.ndarray
    mode: str = "max"

    def __post_init__(self) -> None:
        b = np.array(self.b, dtype=float)
        if b.ndim != 1 or b.shape[0] < 1:
            raise DomainError("objective must be a non-empty 1-d real vector")
        if not np.all(np.isfinite(b)):
            raise DomainError("objective entries must be finite")
        if np.linalg.norm(b) == 0.0:
            raise DomainError("objective vector must have positive norm")
        if self.mode not in ("max", "min"):
            raise DomainError(f"mode must be 'max' or 'min', got {self.mode!r}")
        b.flags.writeable = False
        object.__setattr__(self, "b", b)


@dataclass(frozen=True, eq=False)
class Solution:
    """Unit direction, unnormalized ray at unit scale, objective value, status."""

    direction: np.ndarray
    raw: np.ndarray
    objective: float
    status: SolveStatus

    def __post_init__(self) -> None:
        direction = np.array(self.direction, dtype=float)
        raw = np.array(self.raw, dtype=float)
        direction.flags.writeable = False
        raw.flags.writeable = False
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "objective", float(self.objective))
        object.__setattr__(self, "status", SolveStatus(self.status))


def _check_pair(system: ConstraintSystem, objective: Objective) -> None:
    if objective.b.shape[0] != system.n:
        raise DomainError(
            f"objective has {objective.b.shape[0]} components "
            f"but the system is {system.n}-dimensional"
        )


def constraint_form(system: ConstraintSystem) -> KForm:
    """Wedge of all constraint rows, a_1 ^ ... ^ a_m.

    The coefficient on a sorted multi-index I equals the m x m minor of the
    row matrix on columns I.  When 2m <= n the rows are folded, one wedge
    with a vector per row, on bare coefficient arrays through the grade-1
    kernel that `wedge` uses: no intermediate form is larger than the
    result, with C(n, m) coefficients, and the tables hold about
    2 sum_{k<=m} C(n, k) k entries, fewer than the C(n, m) m^2 of a gather
    of every minor.  When 2m > n the
    fold would pass through grade n/2, with C(n, n/2) coefficients against
    C(n, m) minors, so the minors are evaluated directly as a batch of
    determinants.  The choice depends only on the shape.
    """
    m, n = system.m, system.n
    if m == 0:
        raise DomainError("an unconstrained system has no constraint form")
    if 2 * m <= n:
        coeffs = system.rows[0]
        for k, row in enumerate(system.rows[1:], 1):
            coeffs = _wedge_vector(coeffs, row, n, k)
        return KForm(n, m, coeffs)
    submatrices = np.transpose(system.rows[:, _combos(n, m)], (1, 0, 2))
    return KForm(n, m, np.linalg.det(submatrices))


def independent_rows(rows: Sequence[Sequence[complex]] | np.ndarray) -> list[int]:
    """The solver's rank rule, applied greedily: indices of the rows kept, in order.

    A row is kept when the smallest singular value of the kept rows plus
    this one, each scaled to unit norm, is above RANK_TOLERANCE; zero rows
    are never kept.  Real or complex rows, so the CLI prunes both kinds of
    problem by the rule the solve applies.  When all rows pass together,
    every subset passes too (Cauchy interlacing), so one SVD settles it.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise DomainError("expected a 2-d row matrix")
    norms = np.linalg.norm(rows, axis=1)

    def passes(indices: list[int]) -> bool:
        # svd returns min(rows, columns) values, so a wide stack needs this test
        if len(indices) > rows.shape[1]:
            return False
        unit_rows = rows[indices] / norms[indices, None]
        return bool(np.linalg.svd(unit_rows, compute_uv=False)[-1] > RANK_TOLERANCE)

    everything = list(range(rows.shape[0]))
    if not everything or (np.all(norms > 0.0) and passes(everything)):
        return everything
    kept: list[int] = []
    for i in everything:
        if norms[i] > 0.0 and passes(kept + [i]):
            kept.append(i)
    return kept


def _full_rank_form(system: ConstraintSystem) -> KForm:
    """Constraint form of a system with m >= 1, after the rank test."""
    if len(independent_rows(system.rows)) < system.m:
        raise RankDeficientError(
            "constraint rows are linearly dependent; drop dependent rows "
            "(for the CLI: --reduce-rows) and retry"
        )
    return constraint_form(system)


def _ray(constraint: KForm, objective: Objective) -> np.ndarray:
    """Unnormalized optimal ray: ||A_form||^2 times the null-space part of b."""
    return contract(constraint, wedge(constraint, from_vector(objective.b))).coeffs


def optimal_direction(
    system: ConstraintSystem,
    objective: Objective,
    tolerance: float | None = None,
) -> Solution:
    """Best feasible unit direction for the objective.

    With no constraint rows the normalized objective itself is returned.
    Otherwise the wedge/contraction ray is normalized; its sign is chosen so
    the objective is non-negative for mode "max" and non-positive for "min".
    When the ray vanishes (objective inside the row span) the returned
    direction is an arbitrary but deterministic feasible unit vector and
    the objective value is zero.

    `tolerance` overrides the relative degeneracy coefficient
    (default DEGENERACY_TOLERANCE).
    """
    _check_pair(system, objective)
    b = objective.b
    sigma = 1.0 if objective.mode == "max" else -1.0
    if system.m == 0:
        direction = sigma * b / np.linalg.norm(b)
        return Solution(direction, b, float(b @ direction), SolveStatus.UNCONSTRAINED)
    constraint = _full_rank_form(system)
    raw = _ray(constraint, objective)
    coeff = DEGENERACY_TOLERANCE if tolerance is None else float(tolerance)
    raw_norm = float(np.linalg.norm(raw))
    if raw_norm <= coeff * constraint.norm() ** 2 * float(np.linalg.norm(b)):
        return Solution(_first_free_ray(constraint), raw, 0.0, SolveStatus.DEGENERATE)
    if float(b @ raw) < 0.0:
        sigma = -sigma
    direction = sigma * raw / raw_norm
    return Solution(direction, raw, float(b @ direction), SolveStatus.OPTIMAL)


def objective_value(system: ConstraintSystem, objective: Objective, t_star: float) -> float:
    """Objective contracted with the unnormalized ray scaled by t_star.

    Non-negative for mode "max"; the matching minimum is the negative.
    For a single 3-d constraint row this equals
    t_star * (||a||^2 ||b||^2 - (a . b)^2).
    """
    if not t_star > 0:
        raise DomainError(f"t_star must be positive, got {t_star}")
    if system.m == 0:
        raise DomainError("objective_value needs at least one constraint row")
    _check_pair(system, objective)
    raw = _ray(_full_rank_form(system), objective)
    value = float(t_star) * float(objective.b @ raw)
    return value if objective.mode == "max" else -value


def triple_product_direction(a: Sequence[float], b: Sequence[float]) -> np.ndarray:
    """Classical 3-d route a x (b x a); the zero vector iff a and b are parallel."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (3,) or b.shape != (3,):
        raise DomainError("both vectors must be 3-dimensional")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("inputs must have finite entries")
    if np.linalg.norm(a) == 0.0 or np.linalg.norm(b) == 0.0:
        raise DomainError("inputs must be nonzero vectors")
    return np.cross(a, np.cross(b, a))


def _first_free_ray(constraint: KForm) -> np.ndarray:
    """Normalized ray for b = e_j at the first axis j with a usable null-space part.

    The ray for e_j is ||A_form||^2 times the null-space projection of e_j,
    so the threshold below is ||P e_j|| > 1e-4.
    """
    floor = 1e-4 * constraint.norm() ** 2
    for axis in np.eye(constraint.n):
        ray = _ray(constraint, Objective(axis))
        length = float(np.linalg.norm(ray))
        if length > floor:
            return ray / length
    raise AssertionError("unreachable: a full-rank system with m < n leaves a free axis")


def degenerate_direction(system: ConstraintSystem) -> np.ndarray:
    """Deterministic unit vector in the null space of the constraint rows.

    The normalized ray of the first coordinate axis with a non-negligible
    null-space component, which is that axis projected onto the null space
    and normalized.
    """
    if system.m == 0:
        axis = np.zeros(system.n)
        axis[0] = 1.0
        return axis
    return _first_free_ray(_full_rank_form(system))
