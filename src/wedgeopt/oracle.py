"""Independent Gram-Schmidt projection path used to cross-check the solver.

Orthonormalizes the constraint rows, removes their span from the objective
vector and normalizes what is left.  On every nondegenerate instance the
result must be parallel to the wedge/contraction direction; the test suite
and the CLI --check flag enforce that agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, RankDeficientError
from .solver import (
    RANK_TOLERANCE,
    ConstraintSystem,
    Objective,
    Solution,
    SolveStatus,
    _check_pair,
    _degeneracy_coefficient,
)

__all__ = [
    "RANK_TOLERANCE",
    "OrthoBasis",
    "oracle_direction",
    "oracle_value",
    "orthonormalize",
    "perpendicular_component",
    "sample_feasible",
]


@dataclass(frozen=True, eq=False)
class OrthoBasis:
    """Orthonormal images of the accepted rows plus the norms removed from each."""

    vectors: np.ndarray
    scales: np.ndarray
    rank: int

    def __post_init__(self) -> None:
        vectors = np.array(self.vectors, dtype=float)
        scales = np.array(self.scales, dtype=float)
        rank = int(self.rank)
        if vectors.ndim != 2:
            raise DomainError("basis vectors must form a 2-d matrix")
        if scales.ndim != 1:
            raise DomainError("scales must be a 1-d vector")
        if rank != vectors.shape[0] or rank != scales.shape[0]:
            raise DomainError("rank must equal the number of stored vectors and scales")
        if rank:
            if np.any(scales <= 0.0):
                raise DomainError("scales must be positive")
            norms = np.linalg.norm(vectors, axis=1)
            if np.max(np.abs(norms - 1.0)) > 1e-12:
                raise DomainError("basis vectors must be unit-norm within 1e-12")
            gram = vectors @ vectors.T
            off = gram - np.diag(np.diag(gram))
            if np.max(np.abs(off)) > 1e-10:
                raise DomainError("basis vectors must be orthogonal within 1e-10")
        vectors.flags.writeable = False
        scales.flags.writeable = False
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "rank", rank)

    @classmethod
    def empty(cls, n: int) -> "OrthoBasis":
        """Rank-zero basis over R^n (the m = 0 case)."""
        return cls(np.zeros((0, int(n))), np.zeros(0), 0)

    @property
    def n(self) -> int:
        return self.vectors.shape[1]


def _gram_schmidt(matrix: np.ndarray) -> tuple[list[int], list[np.ndarray], list[float]]:
    """Modified Gram-Schmidt with one re-orthogonalization pass per row.

    Returns the indices of the kept rows, their orthonormal images and the
    residual norms removed from each.  A row is skipped when its residual
    falls below RANK_TOLERANCE times the running row scale.
    """
    kept: list[int] = []
    vectors: list[np.ndarray] = []
    scales: list[float] = []
    running_scale = 0.0
    for i, row in enumerate(matrix):
        running_scale = max(running_scale, float(np.linalg.norm(row)))
        v = row.copy()
        for _ in range(2):
            for u in vectors:
                v -= np.vdot(u, v) * u
        residual = float(np.linalg.norm(v))
        if residual > RANK_TOLERANCE * running_scale:
            kept.append(i)
            vectors.append(v / residual)
            scales.append(residual)
    return kept, vectors, scales


def orthonormalize(rows: Sequence[Sequence[float]] | np.ndarray) -> OrthoBasis:
    """Orthonormal basis of the rows' span, from _gram_schmidt.

    A dependent input shows up as rank < m rather than as an error.
    """
    matrix = np.array(rows, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise DomainError("orthonormalize expects at least one row vector")
    if not np.all(np.isfinite(matrix)):
        raise DomainError("rows must have finite entries")
    kept, vectors, scales = _gram_schmidt(matrix)
    vectors = np.array(vectors) if kept else np.zeros((0, matrix.shape[1]))
    return OrthoBasis(vectors, np.array(scales), len(kept))


def _full_basis(system: ConstraintSystem) -> OrthoBasis:
    """Gram-Schmidt basis of a system with m >= 1, after the oracle's rank test."""
    basis = orthonormalize(system.rows)
    if basis.rank < system.m:
        raise RankDeficientError(
            "constraint rows are linearly dependent; drop dependent rows "
            "(for the CLI: --reduce-rows) and retry"
        )
    return basis


def perpendicular_component(b: Sequence[float], basis: OrthoBasis) -> np.ndarray:
    """Component of b orthogonal to the span of the basis vectors."""
    vec = np.array(b, dtype=float)
    if vec.ndim != 1 or vec.shape[0] != basis.n:
        raise DomainError(f"expected a vector of length {basis.n}")
    if not np.all(np.isfinite(vec)):
        raise DomainError("vector entries must be finite")
    if basis.rank == 0:
        return vec
    # Two projection passes keep the residual alignment down at rounding level.
    vec -= basis.vectors.T @ (basis.vectors @ vec)
    vec -= basis.vectors.T @ (basis.vectors @ vec)
    return vec


def oracle_direction(
    system: ConstraintSystem,
    objective: Objective,
    tolerance: float | None = None,
) -> Solution:
    """Projection-based solve, independent of the wedge/contraction pipeline.

    The raw field carries the product of squared Gram-Schmidt scales times
    the projected objective, which reproduces the solver's unnormalized ray.
    """
    coeff = _degeneracy_coefficient(tolerance)
    _check_pair(system, objective)
    b = objective.b
    sigma = 1.0 if objective.mode == "max" else -1.0
    if system.m == 0:
        direction = sigma * b / np.linalg.norm(b)
        return Solution(direction, b, float(b @ direction), SolveStatus.UNCONSTRAINED)
    basis = _full_basis(system)
    perp = perpendicular_component(b, basis)
    raw = float(np.prod(np.square(basis.scales))) * perp
    perp_norm = float(np.linalg.norm(perp))
    if perp_norm <= coeff * float(np.linalg.norm(b)):
        return Solution(_first_free_axis(basis), raw, 0.0, SolveStatus.DEGENERATE)
    direction = sigma * perp / perp_norm
    return Solution(direction, raw, float(b @ direction), SolveStatus.OPTIMAL)


def _first_free_axis(basis: OrthoBasis) -> np.ndarray:
    """First coordinate axis with a non-negligible null-space part, projected and normalized."""
    for axis in np.eye(basis.n):
        v = perpendicular_component(axis, basis)
        length = float(np.linalg.norm(v))
        if length > 1e-4:
            return v / length
    raise AssertionError("unreachable: a full-rank system with m < n leaves a free axis")


def oracle_value(system: ConstraintSystem, objective: Objective, t_star: float) -> float:
    """t_star times the squared Gram-Schmidt scales times ||b_perp||^2.

    Must match objective_value from the solver module up to the shared sign
    convention; negative of the maximum for mode "min".
    """
    if not t_star > 0:
        raise DomainError(f"t_star must be positive, got {t_star}")
    if system.m == 0:
        raise DomainError("oracle_value needs at least one constraint row")
    _check_pair(system, objective)
    basis = _full_basis(system)
    perp = perpendicular_component(objective.b, basis)
    value = float(t_star) * float(np.prod(np.square(basis.scales))) * float(perp @ perp)
    return value if objective.mode == "max" else -value


def sample_feasible(system: ConstraintSystem, seed: int) -> np.ndarray:
    """Deterministic unit null-space sample: seeded Gaussian draw, projected.

    Two calls with equal seeds return identical vectors; across seeds the
    samples cover the whole feasible unit sphere.
    """
    basis = _full_basis(system) if system.m else OrthoBasis.empty(system.n)
    rng = np.random.default_rng(seed)
    while True:
        vec = perpendicular_component(rng.standard_normal(system.n), basis)
        length = float(np.linalg.norm(vec))
        if length > 1e-8:
            return vec / length

