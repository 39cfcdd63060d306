"""Independent Gram-Schmidt projection path used to cross-check the solver.

Orthonormalizes the constraint rows by classical Gram-Schmidt, removes
their span from the objective vector and normalizes what is left; one span
routine, `_remove_span`, serves every step.  The oracle supplies its own
rank test, projection map and ray scale (`_project`); the solver's `_solve`
does the rest for both paths alike: the unconstrained case, the degenerate
direction, classification, sign and value.  On every nondegenerate instance
the result must be parallel to the solver's null-space direction; the test
suite and the CLI --check flag enforce that agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, RankDeficientError
from .forms import _freeze, _integer
from .solver import (
    RANK_TOLERANCE,
    ConstraintSystem,
    Objective,
    Solution,
    _power_of_two_scaled,
    _projection,
    _ray_value,
    _solve,
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
        rank = _integer(self.rank, "rank")
        if vectors.ndim != 2:
            raise DomainError("basis vectors must form a 2-d matrix")
        if scales.ndim != 1:
            raise DomainError("scales must be a 1-d vector")
        if rank != vectors.shape[0] or rank != scales.shape[0]:
            raise DomainError("rank must equal the number of stored vectors and scales")
        if rank:
            if not all(0.0 < scale < math.inf for scale in scales.tolist()):
                raise DomainError("scales must be positive and finite")
            norms = np.linalg.norm(vectors, axis=1)
            if np.max(np.abs(norms - 1.0)) > 1e-12:
                raise DomainError("basis vectors must be unit-norm within 1e-12")
            gram = vectors @ vectors.T
            off = gram - np.diag(np.diag(gram))
            if np.max(np.abs(off)) > 1e-10:
                raise DomainError("basis vectors must be orthogonal within 1e-10")
        _freeze(self, vectors=vectors, scales=scales, rank=rank)

    @classmethod
    def empty(cls, n: int) -> "OrthoBasis":
        """Rank-zero basis over R^n (the m = 0 case)."""
        return cls(np.zeros((0, _integer(n, "n"))), np.zeros(0), 0)

    @property
    def n(self) -> int:
        return self.vectors.shape[1]


def _gram_schmidt(scaled: np.ndarray) -> tuple[np.ndarray, list, list, list]:
    """Classical Gram-Schmidt, two passes per row through `_remove_span`.

    Takes the rows as `_power_of_two_scaled` gives them, each row divided by
    2^e, and returns plain arrays: the unit vectors of the kept rows, as the
    rows of a matrix, their residual norms at that scale, the kept indices
    and, for each row dropped, its index and its residual over its norm.
    A row is dropped when its residual is at most RANK_TOLERANCE times its
    own norm, a rule that no per-row rescaling changes.  No scale 2^e times
    a residual is formed, so none has to be a double.
    """
    basis = np.empty_like(scaled)
    kept, residuals, dropped = [], [], []
    for i, row in enumerate(scaled):
        norm = math.sqrt(row @ row)  # the rows are scaled: no square over- or underflows
        v = _remove_span(basis[: len(kept)], row)
        residual = math.sqrt(v @ v)
        if residual > RANK_TOLERANCE * norm:
            basis[len(kept)] = v / residual
            kept.append(i)
            residuals.append(residual)
        else:
            dropped.append((i, residual / norm if norm else 0.0))
    return basis[: len(kept)], residuals, kept, dropped


def orthonormalize(rows: Sequence[Sequence[float]] | np.ndarray) -> OrthoBasis:
    """Orthonormal basis of the rows' span, from _gram_schmidt.

    A dependent input shows up as rank < m rather than as an error; a scale
    that is not a positive double is refused by OrthoBasis.
    """
    matrix = np.array(rows, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise DomainError("orthonormalize expects at least one row vector")
    if not np.all(np.isfinite(matrix)):
        raise DomainError("rows must have finite entries")
    scaled, exponents = _power_of_two_scaled(matrix)
    vectors, residuals, kept, _ = _gram_schmidt(scaled)
    with np.errstate(over="ignore"):
        scales = np.ldexp(residuals, exponents[kept])
    return OrthoBasis(vectors, scales, len(kept))


def _remove_span(vectors: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x, or each column of x, minus its part in the span of the orthonormal
    rows of `vectors`.  Two passes keep what is left in the span at rounding level."""
    for _ in range(2):
        x = x - vectors.T @ (vectors @ x)
    return x


def perpendicular_component(b: Sequence[float], basis: OrthoBasis) -> np.ndarray:
    """Component of b orthogonal to the span of the basis vectors."""
    vec = np.array(b, dtype=float)
    if vec.ndim != 1 or vec.shape[0] != basis.n:
        raise DomainError(f"expected a vector of length {basis.n}")
    if not np.all(np.isfinite(vec)):
        raise DomainError("vector entries must be finite")
    return _remove_span(basis.vectors, vec)


def oracle_direction(
    system: ConstraintSystem,
    objective: Objective,
    tolerance: float | None = None,
) -> Solution:
    """Projection-based solve, independent of the wedge/contraction pipeline.

    Its own rank test, Gram-Schmidt projection map and ray scale
    (`_project`) feed the solver's `_solve`, which handles m = 0, picks the
    degenerate direction by the shared rule, and classifies, signs and
    values the answer as for `optimal_direction`.  The raw field, the
    product of squared Gram-Schmidt scales times the projected objective,
    reproduces the solver's unnormalized ray.
    """
    return _solve(system, objective, tolerance, _project)


# The oracle's ray, the solver's ||A_form||^2 * b_perp computed another way.
_RAY = "(product of squared Gram-Schmidt scales) * b_perp"


def _project(system: ConstraintSystem) -> tuple:
    """The oracle's part of `_solve`: its rank test, the map x -> x minus its
    Gram-Schmidt span part, and the ray scale prod(residual^2) * 2^(2 sum e),
    which need not be a double, as a mantissa and an exponent."""
    vectors, residuals, _, dropped = _gram_schmidt(system.scaled)
    if dropped:
        i, ratio = dropped[0]
        raise RankDeficientError(
            "constraint rows are linearly dependent; drop dependent rows "
            "(for the CLI: --reduce-rows) and retry; the oracle's Gram-Schmidt residual "
            f"of row {i} over its norm is {ratio!r}, at most RANK_TOLERANCE = {RANK_TOLERANCE!r}"
        )
    parts = [math.frexp(residual) for residual in residuals]
    scale = math.prod(mantissa * mantissa for mantissa, _ in parts)
    exponent = 2 * (sum(e for _, e in parts) + sum(system.exponents.tolist()))
    return lambda x: _remove_span(vectors, x), scale, exponent, _RAY


def oracle_value(system: ConstraintSystem, objective: Objective, t_star: float) -> float:
    """t_star times the squared Gram-Schmidt scales times ||b_perp||^2.

    Computed as t_star * (b . raw) from oracle_direction, so, as objective_value,
    it is refused when raw or the value is not representable, and is zero for a
    degenerate instance, whose ray is zero.  Matches objective_value up to the
    shared sign convention; negative of the maximum for mode "min".
    """
    return _ray_value(oracle_direction, "oracle_value", system, objective, t_star)


def sample_feasible(system: ConstraintSystem, seed: int) -> np.ndarray:
    """Deterministic unit null-space sample: a seeded Gaussian draw through
    the oracle's projection map (the identity when m = 0), normalized.

    Two calls with equal seeds return identical vectors; across seeds the
    samples cover the whole feasible unit sphere.
    """
    if _integer(seed, "seed") < 0:
        raise DomainError(f"seed: expected a non-negative integer, got {seed!r}")
    apply = _projection(system, _project)[0]
    rng = np.random.default_rng(seed)
    while True:
        vec = apply(rng.standard_normal(system.n))
        length = float(np.linalg.norm(vec))
        if length > 1e-8:
            return vec / length
