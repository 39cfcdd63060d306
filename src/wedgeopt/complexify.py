"""Complex constraint systems reduced to real problems of doubled size.

A complex m x n system with a real objective (Re or Im of b . x, with the
unconjugated bilinear product) becomes a real 2m x 2n system in the
coordinates (Re x_1 .. Re x_n, Im x_1 .. Im x_n).  The real solve's answer
is folded back into a `Solution` with complex arrays; `ComplexSolution` is
another name for that type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .forms import _freeze
from .solver import ConstraintSystem, Objective, Solution, optimal_direction

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
        system, objective = ConstraintSystem(real), Objective(vec, self.mode)
        _freeze(self, rows=rows, b=b, system=system, objective=objective)

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]


# The complex answer is a `Solution` with complex arrays.
ComplexSolution = Solution


def realify(problem: ComplexProblem) -> tuple[ConstraintSystem, Objective]:
    """Real 2m x 2n system and matching objective in (Re x, Im x) coordinates:
    `problem.system` and `problem.objective`, built with the problem."""
    return problem.system, problem.objective


def solve_complex(problem: ComplexProblem, tolerance: float | None = None) -> Solution:
    """Solve the realified problem and fold the answer back to complex form.

    The result is a `Solution` with complex `direction` and `raw`.  The
    folded direction has unit complex norm exactly when the real direction
    has unit norm, and it satisfies every complex constraint in both real
    and imaginary parts.
    """
    solution = optimal_direction(*realify(problem), tolerance)
    direction, raw = _fold(solution.direction), _fold(solution.raw)
    return Solution(direction, raw, solution.objective, solution.status)


def _fold(vec: np.ndarray) -> np.ndarray:
    """Complex n-vector from its (Re x, Im x) coordinates."""
    n = vec.shape[0] // 2
    return vec[:n] + 1j * vec[n:]
