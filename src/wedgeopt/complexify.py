"""Complex constraint systems reduced to real problems of doubled size.

A complex m x n system with a real objective (Re or Im of b . x, with the
unconjugated bilinear product) becomes a real 2m x 2n system in the
coordinates (Re x_1 .. Re x_n, Im x_1 .. Im x_n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .solver import ConstraintSystem, Objective, SolveStatus, optimal_direction

__all__ = ["ComplexProblem", "ComplexSolution", "realify", "solve_complex"]


@dataclass(frozen=True, eq=False)
class ComplexProblem:
    """Complex constraints plus the choice of Re or Im of b . x to optimize.

    `system` and `objective`, built once, here, and returned by `realify`,
    are the real 2m x 2n problem in (Re x, Im x) coordinates.  Each complex
    row a contributes the pair (Re a, -Im a) for the real part of the
    constraint and (Im a, Re a) for the imaginary part, interleaved in that
    order.  The objective vector is (Re b, -Im b) for part "re" and
    (Im b, Re b) for part "im", matching the bilinear product b . x.
    """

    rows: np.ndarray
    b: np.ndarray
    part: str = "re"
    mode: str = "max"
    system: ConstraintSystem = field(init=False, repr=False)
    objective: Objective = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=complex)
        b = np.array(self.b, dtype=complex)
        if rows.ndim != 2:
            raise DomainError("constraint rows must form a 2-d matrix")
        if b.ndim != 1 or b.shape[0] != rows.shape[1]:
            raise DomainError(f"objective must be a complex vector of length {rows.shape[1]}")
        if self.part not in ("re", "im"):
            raise DomainError(f"part must be 're' or 'im', got {self.part!r}")
        rows.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "b", b)
        m, n = rows.shape
        real = np.zeros((2 * m, 2 * n))
        real[0::2, :n] = rows.real
        real[0::2, n:] = -rows.imag
        real[1::2, :n] = rows.imag
        real[1::2, n:] = rows.real
        if self.part == "re":
            vec = np.concatenate([b.real, -b.imag])
        else:
            vec = np.concatenate([b.imag, b.real])
        # The real system and objective carry every other rule: the dimension
        # limit, applied to 2n, m < n, finite nonzero rows, a finite nonzero
        # objective and the mode.  The work budget is checked by the solve, on
        # the real 2m x 2n shape.
        object.__setattr__(self, "system", ConstraintSystem(real))
        object.__setattr__(self, "objective", Objective(vec, self.mode))

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True, eq=False)
class ComplexSolution:
    """Complex unit direction, unnormalized complex ray, objective, status."""

    direction: np.ndarray
    raw: np.ndarray
    objective: float
    status: SolveStatus

    def __post_init__(self) -> None:
        direction = np.array(self.direction, dtype=complex)
        raw = np.array(self.raw, dtype=complex)
        direction.flags.writeable = False
        raw.flags.writeable = False
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "objective", float(self.objective))
        object.__setattr__(self, "status", SolveStatus(self.status))


def realify(problem: ComplexProblem) -> tuple[ConstraintSystem, Objective]:
    """Real 2m x 2n system and matching objective in (Re x, Im x) coordinates:
    `problem.system` and `problem.objective`, built with the problem."""
    return problem.system, problem.objective


def solve_complex(problem: ComplexProblem, tolerance: float | None = None) -> ComplexSolution:
    """Solve the realified problem and fold the answer back to complex form.

    The folded direction has unit complex norm exactly when the real
    direction has unit norm, and it satisfies every complex constraint in
    both real and imaginary parts.
    """
    solution = optimal_direction(*realify(problem), tolerance)
    direction, raw = _fold(solution.direction), _fold(solution.raw)
    return ComplexSolution(direction, raw, solution.objective, solution.status)


def _fold(vec: np.ndarray) -> np.ndarray:
    """Complex n-vector from its (Re x, Im x) coordinates."""
    n = vec.shape[0] // 2
    return vec[:n] + 1j * vec[n:]
