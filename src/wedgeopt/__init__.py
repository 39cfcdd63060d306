"""Optimal unit directions under homogeneous linear constraints.

Computes the unit vector that maximizes (or minimizes) a linear objective
on the null space of a constraint matrix, through wedge and interior
products of forms over Euclidean R^n, with an independent Gram-Schmidt projection
oracle for cross-validation and a complex-problem reduction layer.
"""

from .complexify import ComplexProblem, ComplexSolution, realify, solve_complex
from .errors import DomainError, ParseError, RankDeficientError, ValidationError, WedgeoptError
from .forms import (
    KForm,
    MultiIndex,
    basis_form,
    contract,
    from_vector,
    hodge,
    inner,
    rank_multi_index,
    unrank_multi_index,
    wedge,
    zero_form,
)
from .oracle import (
    OrthoBasis,
    oracle_direction,
    oracle_value,
    orthonormalize,
    perpendicular_component,
    sample_feasible,
)
from .solver import (
    ConstraintSystem,
    Objective,
    Solution,
    SolveStatus,
    constraint_form,
    degenerate_direction,
    independent_rows,
    objective_value,
    optimal_direction,
    triple_product_direction,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexProblem",
    "ComplexSolution",
    "ConstraintSystem",
    "DomainError",
    "KForm",
    "MultiIndex",
    "Objective",
    "OrthoBasis",
    "ParseError",
    "RankDeficientError",
    "Solution",
    "SolveStatus",
    "ValidationError",
    "WedgeoptError",
    "basis_form",
    "constraint_form",
    "contract",
    "degenerate_direction",
    "from_vector",
    "hodge",
    "independent_rows",
    "inner",
    "objective_value",
    "optimal_direction",
    "oracle_direction",
    "oracle_value",
    "orthonormalize",
    "perpendicular_component",
    "rank_multi_index",
    "realify",
    "sample_feasible",
    "solve_complex",
    "triple_product_direction",
    "unrank_multi_index",
    "wedge",
    "zero_form",
]
