"""Optimal unit directions for a linear objective on a constraint null space.

The solve pipeline wedges the constraint rows into one m-form A and reads
the answer off the map b -> contract(A, A ^ b), which is ||A||^2 times the
projection P of b onto the null space of the rows.  That map is a small
n x n matrix fixed by the rows alone, so no solve forms A ^ b or any other
form above grade m.  It is read by one of two rules, chosen by the shape,
with low = min(m, n - m):

- up to `forms._WHOLE_TABLE_MAX` targets C(n, low), where the (low-1, 1)
  product gathers its whole table, the layout: contract(A, A ^ b) =
  ||A||^2 b - C C^T b, where row i of the n x C(n, m-1) array C is
  contract(e_i, A), so P = I - C C^T / ||A||^2.  When 2m > n,
  P = C' C'^T / ||A||^2 is read off the Hodge dual *A of grade n - m
  instead, row i of C' being contract(e_i, *A), so it reads only the table
  of the (low-1, 1) product, as `forms._product` picks it;
- above that, one elimination of the scaled rows with complete pivoting
  (`_pivoted_projector`): its pivot columns I index a nonzero coefficient
  A_I, and X = A_I^-1 A_out holds, by Cramer's rule, the m(n - m)
  coefficients one index away from I divided by A_I (Plucker coordinates),
  which fix the rows' span; P follows from an m x m or (n-m) x (n-m)
  solve, and ||A||^2 from the pivots, with no form, minor or table.  Below
  the rule the elimination alone costs about as much as the whole layout.

For one row in R^3 the layout is the paper's triple product
a x (b x a) = |a|^2 b - (a . b) a.  The ray applies P twice, which
removes the rounding the first pass leaves in the row span; ||A||^2 times
it is the paper's double dual *(A ^ *(b ^ A)) times (-1)^(n+1).
`constraint_form` folds the rows through the product kernel of `forms`
when 2m <= n and takes the minors as a batch of determinants otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, RankDeficientError
from .forms import KForm, _chain_bytes, _check_dimension, _check_work, _combos, _dual, _freeze
from .forms import _integer, _interior_rows, _ldexp_checked, _per_split, _positive
from .forms import _product, _read_grade, _real_array

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

# Coefficient c in the classification rule ||b_perp|| <= c * ||b||, which is
# ||raw|| <= c * ||A_form||^2 * ||b|| and therefore invariant under row and
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
    """An m x n matrix of constraint rows, with 0 <= m < n.

    `scaled` holds each row divided by the exact power of two 2^e that brings
    its largest entry into [1/2, 1), and `exponents` holds e: they are
    computed once, here, and every rank test reads them.
    """

    rows: np.ndarray
    scaled: np.ndarray = field(init=False, repr=False)
    exponents: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows = _real_array(self.rows, "constraint rows", 2)
        m, n = rows.shape
        _check_dimension(n)
        if m >= n:
            raise DomainError(f"the row count must satisfy m < n, got m={m}, n={n}")
        if not rows.any(axis=1).all():
            raise DomainError("constraint rows must be nonzero")
        scaled, exponents = _power_of_two_scaled(rows)
        _freeze(self, rows=rows, scaled=scaled, exponents=exponents)

    @classmethod
    def unconstrained(cls, n: int) -> "ConstraintSystem":
        """A system with no rows over R^n."""
        return cls(np.zeros((0, _check_dimension(_integer(n, "n")))))

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True, eq=False)
class Objective:
    """Objective vector plus the sense of optimization along it.

    `scaled` is b / 2^shift, with its largest entry in [1/2, 1), so that no
    product with it overflows; both are computed once, here.
    """

    b: np.ndarray
    mode: str = "max"
    scaled: np.ndarray = field(init=False, repr=False)
    shift: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        b = _real_array(self.b, "objective", 1)
        if b.shape[0] < 1:
            raise DomainError("objective must be a non-empty 1-d real vector")
        if not b.any():
            raise DomainError("objective vector must have positive norm")
        if self.mode not in ("max", "min"):
            raise DomainError(f"mode must be 'max' or 'min', got {self.mode!r}")
        shift = math.frexp(max(map(abs, b.tolist())))[1]
        _freeze(self, b=b, scaled=np.ldexp(b, -shift), shift=shift)


@dataclass(frozen=True, eq=False)
class Solution:
    """Unit direction, unnormalized ray at unit scale, objective value, status.

    The arrays are complex when either is given complex, as `solve_complex` returns them."""

    direction: np.ndarray
    raw: np.ndarray
    objective: float
    status: SolveStatus

    def __post_init__(self) -> None:
        # not `forms._real_array`: its finite pass nearly doubles this cost, paid by every solve
        try:
            complex_arrays = np.iscomplexobj(self.direction) or np.iscomplexobj(self.raw)
            dtype = complex if complex_arrays else float
            direction, raw = np.array(self.direction, dtype=dtype), np.array(self.raw, dtype=dtype)
            objective, status = float(self.objective), SolveStatus(self.status)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(
                f"a solution needs numeric arrays, a real objective and a solve status: {exc}"
            ) from None
        # a complex direction is unit-norm over its real and imaginary parts together
        if direction.ndim != 1 or not abs(_norm(direction.view(float)) - 1.0) <= 1e-12:
            raise DomainError("a solution direction must be finite and unit-norm within 1e-12")
        if raw.shape != direction.shape:
            raise DomainError(f"a solution raw must have the direction's shape, got {raw.shape}")
        if not all(map(math.isfinite, raw.view(float).tolist())):
            raise DomainError("a solution raw must have finite entries")
        if not math.isfinite(objective):
            raise DomainError(f"a solution objective must be finite, got {objective!r}")
        _freeze(self, direction=direction, raw=raw, objective=objective, status=status)


def _solve_bytes(n: int, m: int) -> int:
    """Upper estimate of the peak bytes of a cold solve of m >= 1 rows in R^n.

    The tables a solve builds are kept: those the (low - 1, 1) product reads,
    low = min(m, n - m), with their chain (`forms._chain_bytes`), which serve
    the fold and the layout of the contractions; and, for the determinants,
    every m x m minor they gather and the grade-low index list the grade-m
    one is built from, which the chain already holds as the (low - 1, 1)
    table's targets unless that product runs on blocks.  The ray adds the
    n x C(n, low - 1) contractions of A (fold) or of *A (determinants), a
    few C(n, m)- and n x n-sized arrays, and 64 KiB.

    Past `forms._WHOLE_TABLE_MAX` targets C(n, low) a solve builds nothing
    counted here: it eliminates the m x n rows (`_pivoted_projector`), in
    O(n^2) memory.  The estimate still counts what the fold or the
    determinants and the layout would build, so that no refusal moves.
    Without it the work budget would accept shapes refused today, 32x9
    among them.
    """
    top, low = math.comb(n, m), min(m, n - m)
    grade = _read_grade(n, low - 1)
    tables = _chain_bytes(n, grade)
    minors = 0
    if 2 * m > n:
        index_list = 8 * low * math.comb(n, low) if grade < low - 1 else 0
        minors = (8 * m * m + 32 * m + n) * top + index_list
    return tables + minors + 8 * n * math.comb(n, low - 1) + 64 * top + 32 * n * n + 2**16


def _check_shape(n: int, m: int) -> None:
    """Refuse a solve of m rows in R^n past the dimension limit or the work budget."""
    _check_dimension(n)
    if m:
        _check_work(_solve_bytes(n, m), f"a solve with n={n}, m={m}")


def constraint_form(system: ConstraintSystem) -> KForm:
    """Wedge of all constraint rows, a_1 ^ ... ^ a_m.

    The coefficient on a sorted multi-index I equals the m x m minor of the
    row matrix on columns I.  When 2m <= n the rows are folded, one wedge
    with a vector per row, on bare arrays through `_product` as `wedge` is,
    bit for bit: no intermediate form is larger than the result, with
    C(n, m) coefficients, and the tables hold at most 2 sum_{k<=m} C(n, k) k
    entries, fewer than the C(n, m) m^2 of a gather of every minor.  When
    2m > n the fold would pass through grade n/2, with C(n, n/2)
    coefficients against C(n, m) minors, so the minors are evaluated directly
    as a batch of determinants, whose only tables are the index lists up to
    grade m.  The choice depends only on the shape.  A shape over the work
    budget is refused before anything is allocated, and minors that overflow
    are refused as non-finite.
    """
    if system.m == 0:
        raise DomainError("an unconstrained system has no constraint form")
    return KForm(system.n, system.m, _wedge_rows(system.rows))


def _wedge_rows(rows: np.ndarray) -> np.ndarray:
    """`constraint_form`'s coefficients for m >= 1 rows, after the shape check."""
    m, n = rows.shape
    _check_shape(n, m)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if 2 * m <= n:
            coeffs = rows[0]
            for k, row in enumerate(rows[1:], 1):
                coeffs = _product(n, k, 1)(coeffs, row)
            return coeffs
        return np.linalg.det(np.transpose(rows[:, _combos(n, m)], (1, 0, 2)))


def _power_of_two_scaled(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row divided by the exact power of two 2^e that brings its largest
    real or imaginary part into [1/2, 1), and e (0 for a zero row)."""
    # The scaled norms neither over- nor underflow.  |z| can overflow, so it
    # is not the measure: the parts are, as one real array side by side.
    rows = np.ascontiguousarray(rows, dtype=complex if np.iscomplexobj(rows) else float)
    parts = rows.view(float)
    e = np.frexp(np.abs(parts).max(axis=1, initial=0.0))[1]
    return np.ldexp(parts, -e[:, None]).view(rows.dtype), e


def independent_rows(rows: Sequence[Sequence[complex]] | np.ndarray) -> list[int]:
    """The solver's rank rule, applied greedily: indices of the rows kept, in order.

    A row is kept when the smallest singular value of the kept rows plus
    this one, each scaled to unit norm, is above RANK_TOLERANCE; zero rows
    are never kept, and a non-finite entry is refused.  Real or complex
    rows, so the CLI prunes both kinds of problem by the rule the solve
    applies.  Dropping rows never lowers the smallest singular value (Cauchy
    interlacing), so the pass keeps every row exactly when all of them pass
    together.
    """
    rows = _power_of_two_scaled(_real_array(rows, "rows", 2, complex_ok=True))[0]
    kept: list[int] = []
    for i, row in enumerate(rows):
        if len(kept) == rows.shape[1]:
            break  # n rows span R^n, and svd of more returns only n values
        if row.any() and _sigma_min(rows[kept + [i]]) > RANK_TOLERANCE:
            kept.append(i)
    return kept


def _sigma_min(scaled: np.ndarray) -> float:
    """Smallest singular value of nonzero power-of-two-scaled rows, each divided by its norm."""
    unit_rows = scaled / np.linalg.norm(scaled, axis=1)[:, None]
    return float(np.linalg.svd(unit_rows, compute_uv=False)[-1])


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a vector, free of overflow and underflow in the squares."""
    return math.hypot(*x.tolist())


def _null_projector(coeffs: np.ndarray, n: int, m: int) -> tuple[np.ndarray, float, int]:
    """P, the projector onto the null space of the rows whose m-form A over
    R^n has the coefficients `coeffs`, and ||A||^2, by the layout.

    A is first divided by an exact power of two, 2^e, that brings its
    largest coefficient into [1/2, 1), so that nothing below over- or
    underflows; ||A||^2 is returned as s and 2e with ||A||^2 = s * 2^(2e),
    the scale of the wedge path's ray in `_solve`.  A form with a non-finite
    or no nonzero coefficient is refused.

    For a decomposable form F with rows contract(e_i, F) in C, C C^T is
    ||F||^2 times the projector onto the span of F's factors.  F is A, the
    rows' span, when 2m <= n, so P = I - C C^T / ||A||^2; it is *A, the null
    space's, of norm ||A||, when 2m > n, so P = C C^T / ||A||^2.
    """
    peak = float(np.max(np.abs(coeffs)))
    if not peak < np.inf:  # NaN fails the comparison
        raise DomainError("form coefficients must be finite")
    if not peak:
        raise DomainError(
            f"the constraint form must be finite and nonzero; its largest coefficient is {peak!r}"
        )
    exponent = math.frexp(peak)[1]
    coeffs = np.ldexp(coeffs, -exponent)
    norm_sq = float(coeffs @ coeffs)
    if 2 * m > n:
        rows = _interior_rows(_dual(coeffs, n, m), n, n - m)
        return (rows @ rows.T) / norm_sq, norm_sq, 2 * exponent
    rows = _interior_rows(coeffs, n, m)
    return np.eye(n) - (rows @ rows.T) / norm_sq, norm_sq, 2 * exponent


def _pivoted_projector(system: ConstraintSystem) -> tuple[np.ndarray, float, int]:
    """P and ||A||^2, as `_null_projector` returns them, read off one
    elimination of `system.scaled` with complete pivoting, in no table.

    Each step takes the largest entry left as the pivot, stores its row and
    clears its row and column from the rows left, so the stored rows, in
    the pivot columns I and then the rest, are [U | U_out] with U upper
    triangular.  X = U^-1 U_out = A_I^-1 A_out holds, by Cramer's rule,
    X_sj = +-A_(I without I_s, with j) / A_I, so V = [I_m | X] spans the
    rows' space and N = [-X^T | I_(n-m)] the null space: P = I - V^T G^-1 V
    with G = I + X X^T when 2m <= n, and P = N^T G^-1 N with G = I + X^T X
    when 2m > n, G = L L^T by Cholesky.  By Cauchy-Binet
    ||A||^2 = det(A_I)^2 det(G) 2^(2 sum exponents), det(A_I) being the
    pivots' product and det(G) that of L's squared diagonal; the factors'
    mantissas are multiplied and their exponents summed, so nothing over- or
    underflows.  A zero or non-finite pivot is refused.
    """
    m, n = system.m, system.n
    left, upper, pivots = system.scaled.copy(), np.empty((m, n)), []
    for k in range(m):
        row, col = divmod(int(np.argmax(np.abs(left))), n)
        pivot = float(left[row, col])
        if not 0.0 < abs(pivot) < math.inf:  # NaN fails both comparisons
            raise DomainError(f"the elimination of the scaled rows met the pivot {pivot!r}")
        upper[k] = left[row]
        left[row] = 0.0
        left -= np.outer(left[:, col] / pivot, upper[k])
        left[:, col] = 0.0
        pivots.append(col)
    rest = sorted(set(range(n)) - set(pivots))
    triangle = upper[:, pivots]
    x = np.linalg.solve(triangle, upper[:, rest])
    # V or N in the original column order, so P needs no permutation
    if 2 * m <= n:
        basis, gram = np.empty((m, n)), np.eye(m) + x @ x.T
        basis[:, pivots], basis[:, rest] = np.eye(m), x
    else:
        basis, gram = np.empty((n - m, n)), np.eye(n - m) + x.T @ x
        basis[:, pivots], basis[:, rest] = -x.T, np.eye(n - m)
    factor = np.linalg.cholesky(gram)
    half = np.linalg.solve(factor, basis)  # half^T half = basis^T G^-1 basis
    projector = np.eye(n) - half.T @ half if 2 * m <= n else half.T @ half
    mantissas, exponents = np.frexp(np.concatenate([np.diag(triangle), np.diag(factor)]))
    scale, exponent = math.frexp(float(np.prod(mantissas)))
    exponent += int(exponents.sum()) + int(system.exponents.sum())
    return projector, scale * scale, 2 * exponent


def _scaled_ray(scale: float, e: int, perp: np.ndarray, ray: str) -> np.ndarray:
    """The ray scale * 2^e * perp, refused, as `ray`, when it overflows or
    when a nonzero perp underflows to zero."""
    with np.errstate(over="ignore"):  # an overflow is reported below
        raw = np.ldexp(scale * perp, e)
    peak = max(map(abs, raw.tolist()))
    if not peak < math.inf or (not peak and perp.any()):
        raise DomainError(
            f"the unnormalized ray {ray} is not representable: "
            f"its scale is {scale!r} * 2**{e}"
        )
    return raw


def _projection(system: ConstraintSystem, project: Callable) -> tuple:
    """project(system), which runs its path's rank test, or for m = 0 the
    identity map at unit scale."""
    return project(system) if system.m else (lambda x: x, 1.0, 0, None)


def _free_direction(apply: Callable, n: int) -> np.ndarray:
    """The degenerate direction of a projection map: the first column of
    apply(I), the null-space part of an axis, longer than 1e-4, normalized.

    A projector of rank n - m >= 1 has some column at least 1/sqrt(n) long,
    so the error below needs a map that rounding has ruined.
    """
    columns = apply(np.eye(n))
    lengths = np.linalg.norm(columns, axis=0)
    free = np.flatnonzero(lengths > 1e-4)
    if not free.size:
        largest = float(lengths.max())
        raise DomainError(
            f"no coordinate axis has a null-space part above 1e-4; the largest is {largest!r}"
        )
    return columns[:, free[0]] / lengths[free[0]]


def _solve(
    system: ConstraintSystem, objective: Objective, tolerance: float | None, project: Callable
) -> Solution:
    """The solve both paths share, around the projection map each supplies.

    project(system) runs its path's rank test on a system with m >= 1 and
    returns (apply, scale, exponent, ray): the map taking a vector, or each
    column of a matrix, to its null-space part, the ray's scale as
    scale * 2^exponent, and the ray's name for an error.  Everything else is
    decided here, once: m = 0 runs through the identity map with status
    unconstrained, and a degenerate solve takes `_free_direction` of the map
    and, its perp being rounding, the zero ray that matches its objective 0.
    """
    coeff = DEGENERACY_TOLERANCE if tolerance is None else _positive(tolerance, "tolerance")
    if objective.b.shape[0] != system.n:
        raise DomainError(
            f"objective has {objective.b.shape[0]} components "
            f"but the system is {system.n}-dimensional"
        )
    b, shift = objective.scaled, objective.shift
    apply, scale, exponent, ray = _projection(system, project)
    perp = apply(b)
    perp_norm = _norm(perp)
    if system.m and perp_norm <= coeff * _norm(b):
        free = _free_direction(apply, system.n)
        return Solution(free, np.zeros(system.n), 0.0, SolveStatus.DEGENERATE)
    # the unconstrained ray is b itself, kept exact where b / 2^shift is subnormal
    raw = _scaled_ray(scale, exponent + shift, perp, ray) if system.m else objective.b
    direction = perp / perp_norm
    if (float(b @ direction) < 0.0) != (objective.mode == "min"):
        direction = -direction
    status = SolveStatus.OPTIMAL if system.m else SolveStatus.UNCONSTRAINED
    value = _ldexp_checked(b @ direction, shift, "the objective value")
    return Solution(direction, raw, value, status)


# The wedge path's ray; for one row a, A_form is a and this is |a|^2 b_perp.
_RAY = "||A_form||^2 * b_perp"


def _project(system: ConstraintSystem) -> tuple:
    """The wedge path's part of `_solve`: its rank test, the map x -> P(P x),
    ||A_form||^2 as s * 2^(2e) and the ray's name.  P is applied twice: one
    pass leaves rounding of about eps ||x|| in the row span, the second
    removes it."""
    sigma = _sigma_min(system.scaled)
    if not sigma > RANK_TOLERANCE:
        raise RankDeficientError(
            "constraint rows are linearly dependent; drop dependent rows "
            "(for the CLI: --reduce-rows) and retry; the solver's smallest singular value "
            f"of the unit rows is {sigma!r}, at most RANK_TOLERANCE = {RANK_TOLERANCE!r}"
        )
    projector, norm_sq, exponent = _projector(system)
    return lambda x: projector @ (projector @ x), norm_sq, exponent, _RAY


def _projector(system: ConstraintSystem) -> tuple[np.ndarray, float, int]:
    """P and ||A_form||^2 of m >= 1 rows, by the shape's rule: the layout of
    the folded or determinant form up to `forms._WHOLE_TABLE_MAX` targets
    C(n, min(m, n - m)) (`forms._per_split`), the elimination above it.
    Either path refuses a shape over the work budget first."""
    n, m = system.n, system.m
    if _per_split(n, min(m, n - m)):
        _check_shape(n, m)
        return _pivoted_projector(system)
    return _null_projector(_wedge_rows(system.rows), n, m)


def optimal_direction(
    system: ConstraintSystem,
    objective: Objective,
    tolerance: float | None = None,
) -> Solution:
    """Best feasible unit direction for the objective.

    With no constraint rows the normalized objective itself is returned.
    Otherwise the null-space part of b is normalized; its sign is chosen so
    the objective is non-negative for mode "max" and non-positive for "min".
    When the ray vanishes (objective inside the row span) the returned
    direction is an arbitrary but deterministic feasible unit vector, and
    the objective value and the ray `raw` are zero.

    `tolerance` overrides the relative degeneracy coefficient
    (default DEGENERACY_TOLERANCE); it must be finite and positive.  b is
    used divided by a power of two, `objective.scaled`, so nothing overflows.
    Only the rank test, the projection map x -> P(P x) and the ray scale
    ||A_form||^2 are the wedge path's own (`_project`); the degenerate
    direction is the rule `_solve` applies to that map.
    """
    return _solve(system, objective, tolerance, _project)


def _ray_value(
    solve: Callable, name: str, system: ConstraintSystem, objective: Objective, t_star: float
) -> float:
    """t_star * (b . raw) of `solve`'s ray, negated for mode "min"; `name` is the caller's."""
    t_star = _positive(t_star, "t_star")
    if system.m == 0:
        raise DomainError(f"{name} needs at least one constraint row")
    raw = solve(system, objective).raw
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused
        value = _ldexp_checked(t_star * float(objective.b @ raw), 0, "the objective value")
    # 0.0 - value, not -value, so that the zero value of a degenerate instance stays +0.0
    return value if objective.mode == "max" else 0.0 - value


def objective_value(system: ConstraintSystem, objective: Objective, t_star: float) -> float:
    """Objective contracted with the unnormalized ray scaled by t_star.

    Non-negative for mode "max"; the matching minimum is the negative.
    For a single 3-d constraint row this equals
    t_star * (||a||^2 ||b||^2 - (a . b)^2).  A degenerate instance's ray is
    zero, so its value is exactly zero.
    """
    return _ray_value(optimal_direction, "objective_value", system, objective, t_star)


def triple_product_direction(a: Sequence[float], b: Sequence[float]) -> np.ndarray:
    """Classical 3-d route a x (b x a); the zero vector iff a and b are parallel.

    a and b are divided by the exact powers of two 2^ea and 2^eb that bring
    their largest entries into [1/2, 1), so no product over- or underflows,
    and the result is scaled back by 2^(2 ea + eb).  It is the ray |a|^2 b_perp
    of the row a, refused by `_scaled_ray` when it is not representable.
    """
    a, b = _real_array(a, "a", 1), _real_array(b, "b", 1)
    if a.shape != (3,) or b.shape != (3,):
        raise DomainError("both vectors must be 3-dimensional")
    if not (a.any() and b.any()):
        raise DomainError("inputs must be nonzero vectors")
    (a, b), (ea, eb) = _power_of_two_scaled(np.array([a, b]))
    return _scaled_ray(1.0, 2 * ea + eb, np.cross(a, np.cross(b, a)), _RAY)


def degenerate_direction(system: ConstraintSystem) -> np.ndarray:
    """Deterministic unit vector in the null space of the constraint rows.

    The rule a degenerate solve applies, `_free_direction`, on the wedge
    path's map: the first coordinate axis whose null-space part is longer
    than 1e-4, projected and normalized; e_1 when there are no rows.
    """
    return _free_direction(_projection(system, _project)[0], system.n)
