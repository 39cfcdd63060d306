"""Projection oracle unit and cross-validation tests."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from exact import exact_direction, exact_ratio
from helpers import random_instance, relative_residual, span_combination
from reference import null_space_direction
from wedgeopt import cli
from wedgeopt.complexify import ComplexProblem, realify
from wedgeopt.errors import DomainError, RankDeficientError
from wedgeopt.oracle import (
    OrthoBasis,
    _gram_schmidt,
    oracle_direction,
    oracle_value,
    orthonormalize,
    perpendicular_component,
    sample_feasible,
)
from wedgeopt.solver import (
    ConstraintSystem,
    Objective,
    SolveStatus,
    independent_rows,
    objective_value,
    optimal_direction,
)


class TestOrthonormalize:
    def test_identity_rows_unchanged(self):
        basis = orthonormalize(np.eye(3)[:2])
        assert np.allclose(basis.vectors, np.eye(3)[:2])
        assert np.allclose(basis.scales, [1.0, 1.0])
        assert basis.rank == 2

    def test_subtract_and_normalize(self):
        basis = orthonormalize([[2.0, 0, 0], [1.0, 1.0, 0]])
        assert np.allclose(basis.vectors, [[1, 0, 0], [0, 1, 0]])
        assert np.allclose(basis.scales, [2.0, 1.0])

    def test_dependent_rows_reduce_rank(self):
        basis = orthonormalize([[1.0, 0, 0], [2.0, 0, 0]])
        assert basis.rank == 1

    def test_requires_rows(self):
        with pytest.raises(DomainError):
            orthonormalize(np.zeros((0, 3)))

    def test_orthonormality_invariants(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            m = int(rng.integers(1, n))
            rows = rng.standard_normal((m, n))
            basis = orthonormalize(rows)
            assert basis.rank == m
            gram = basis.vectors @ basis.vectors.T
            assert np.max(np.abs(gram - np.eye(m))) <= 1e-10
            # the basis spans the rows: residuals of re-expressing each row vanish
            residual = rows - (rows @ basis.vectors.T) @ basis.vectors
            scale = np.linalg.norm(rows, axis=1)
            assert np.max(np.linalg.norm(residual, axis=1) / scale) <= 1e-9

    def test_scales_multiply_to_gram_determinant(self):
        rng = np.random.default_rng(52)
        rows = rng.standard_normal((4, 7))
        basis = orthonormalize(rows)
        gram_det = np.linalg.det(rows @ rows.T)
        assert float(np.prod(basis.scales**2)) == pytest.approx(gram_det, rel=1e-10)


class TestOrthoBasis:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(DomainError):
            OrthoBasis(np.array([[1.0, 0.0], [0.9, 0.1]]), np.array([1.0, 1.0]), 2)

    def test_empty(self):
        basis = OrthoBasis.empty(5)
        assert basis.rank == 0 and basis.n == 5

    def test_non_integral_rank_refused(self):
        # a cast to int would make it rank 1
        with pytest.raises(DomainError, match=r"rank: expected an integer, got 1\.5"):
            OrthoBasis([[1, 0]], [1], 1.5)

    def test_non_integral_empty_dimension_refused(self):
        with pytest.raises(DomainError, match=r"n: expected an integer, got 2\.5"):
            OrthoBasis.empty(2.5)


class TestGramSchmidtBasis:
    def test_near_dependent_rows_keep_an_orthonormal_basis(self):
        # the last row is a combination of the others plus a part of relative
        # size 10^U(-9.5, -2); each row is then scaled by its own 2^k
        rng = np.random.default_rng(71)
        for _ in range(1000):
            n = int(rng.integers(3, 13))
            m = int(rng.integers(2, n))
            rows = rng.standard_normal((m, n))
            combination = rng.standard_normal(m - 1) @ rows[:-1]
            part = rng.standard_normal(n)
            size = 10 ** rng.uniform(-9.5, -2) * np.linalg.norm(combination) / np.linalg.norm(part)
            rows[-1] = combination + size * part
            system = ConstraintSystem(np.ldexp(rows, rng.integers(-200, 201, size=(m, 1))))
            vectors, residuals, kept, dropped = _gram_schmidt(system.scaled)
            assert sorted(kept + [i for i, _ in dropped]) == list(range(m))
            assert vectors.shape == (len(kept), n) and len(residuals) == len(kept)
            assert np.max(np.abs(vectors @ vectors.T - np.eye(len(kept)))) <= 1e-14

    # integer rows, so the dependent row is an exact combination of earlier ones
    DEPENDENT = [
        ([[1, 2, 0, 1], [2, 4, 0, 2], [0, 1, 3, 1]], 1),
        ([[1, 2, 0, 1], [0, 1, 3, 1], [2, 3, -3, 1]], 2),
        ([[1, 2, 0, 1, 0], [3, -1, 2, 0, 1], [-5, 4, -4, 1, -2], [0, 0, 1, 1, 1]], 2),
        ([[1, 0, 2, 0, 1, 1], [0, 1, 1, 2, 0, 3], [4, -3, 5, -6, 4, -5], [1, 1, 1, 1, 1, 1]], 2),
    ]

    @pytest.mark.parametrize("rows, index", DEPENDENT)
    @pytest.mark.parametrize("k", [0, 300, -300])
    def test_exact_combination_dropped(self, rows, index, k):
        system = ConstraintSystem(np.ldexp(np.array(rows, dtype=float), k))
        _, _, kept, dropped = _gram_schmidt(system.scaled)
        assert [i for i, _ in dropped] == [index]
        assert kept == [i for i in range(len(rows)) if i != index]
        with pytest.raises(RankDeficientError, match=f"residual of row {index} over its norm"):
            oracle_direction(system, Objective(np.ones(system.n)))


class TestPerpendicularComponent:
    def test_subtracts_row_component(self):
        basis = orthonormalize([[1.0, 0, 0]])
        out = perpendicular_component([1.0, 1.0, 0.0], basis)
        assert np.allclose(out, [0.0, 1.0, 0.0])

    def test_spanned_vector_vanishes(self):
        rng = np.random.default_rng(53)
        rows = rng.standard_normal((3, 6))
        basis = orthonormalize(rows)
        spanned = span_combination(rng, rows)
        out = perpendicular_component(spanned, basis)
        assert np.linalg.norm(out) <= 1e-12 * np.linalg.norm(spanned)

    def test_empty_basis_is_identity(self):
        vec = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(perpendicular_component(vec, OrthoBasis.empty(3)), vec)

    def test_idempotent(self):
        rng = np.random.default_rng(54)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            m = int(rng.integers(1, n))
            basis = orthonormalize(rng.standard_normal((m, n)))
            b = rng.standard_normal(n)
            once = perpendicular_component(b, basis)
            twice = perpendicular_component(once, basis)
            assert np.max(np.abs(twice - once)) <= 1e-12 * max(1.0, np.linalg.norm(b))

    def test_pythagoras(self):
        rng = np.random.default_rng(55)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            m = int(rng.integers(1, n))
            basis = orthonormalize(rng.standard_normal((m, n)))
            b = rng.standard_normal(n)
            perp = perpendicular_component(b, basis)
            projections = basis.vectors @ b
            total = float(perp @ perp + projections @ projections)
            assert total == pytest.approx(float(b @ b), rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            perpendicular_component([1.0, 0.0], OrthoBasis.empty(3))


class TestOracleDirection:
    def test_simple_3d(self):
        solution = oracle_direction(ConstraintSystem([[0, 0, 1.0]]), Objective([1.0, 0, 0]))
        assert np.allclose(solution.direction, [1.0, 0, 0])

    def test_projection_example_4d(self):
        solution = oracle_direction(
            ConstraintSystem([[1, 0, 0, 0], [0, 1, 0, 0]]), Objective([1.0, 1, 1, 1])
        )
        assert np.allclose(solution.direction, [0, 0, 1, 1] / np.sqrt(2.0))

    def test_spanned_objective_degenerate(self):
        rng = np.random.default_rng(56)
        system, _ = random_instance(rng, 6, 3)
        spanned = Objective(span_combination(rng, system.rows))
        solution = oracle_direction(system, spanned)
        assert solution.status is SolveStatus.DEGENERATE
        assert solution.objective == 0.0
        assert relative_residual(system.rows, solution.direction) <= 1e-10

    def test_rank_deficient(self):
        system = ConstraintSystem([[1.0, 0, 0], [2.0, 0, 0]])
        with pytest.raises(RankDeficientError):
            oracle_direction(system, Objective([0, 1.0, 0]))

    def test_row_order_invariance(self):
        rng = np.random.default_rng(57)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            m = int(rng.integers(2, n))
            system, objective = random_instance(rng, n, m)
            base = oracle_direction(system, objective)
            permuted = ConstraintSystem(system.rows[rng.permutation(m)])
            shuffled = oracle_direction(permuted, objective)
            assert np.allclose(base.direction, shuffled.direction, atol=1e-9)


class TestOracleValue:
    def test_orthonormal_rows_unit_perp(self):
        system = ConstraintSystem([[1, 0, 0, 0], [0, 1, 0, 0]])
        assert oracle_value(system, Objective([0, 0, 1.0, 0]), 1.0) == pytest.approx(1.0)

    def test_closed_form_example(self):
        value = oracle_value(ConstraintSystem([[1.0, 0, 0]]), Objective([1.0, 1.0, 0]), 1.0)
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_spanned_objective_is_zero(self):
        rng = np.random.default_rng(58)
        system, _ = random_instance(rng, 5, 2)
        spanned = Objective(span_combination(rng, system.rows))
        scale = float(np.prod(orthonormalize(system.rows).scales ** 2))
        assert abs(oracle_value(system, spanned, 1.0)) <= 1e-18 * scale * float(spanned.b @ spanned.b) + 1e-20

    def test_rank_deficient_raises(self):
        system = ConstraintSystem([[1.0, 0, 0], [2.0, 0, 0]])
        with pytest.raises(RankDeficientError):
            oracle_value(system, Objective([0, 1.0, 0]), 1.0)

    def test_matches_objective_value(self):
        rng = np.random.default_rng(59)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            m = int(rng.integers(1, n))
            system, objective = random_instance(rng, n, m)
            t_star = float(rng.uniform(0.5, 3.0))
            fast = objective_value(system, objective, t_star)
            slow = oracle_value(system, objective, t_star)
            assert fast == pytest.approx(slow, rel=1e-9)


class TestOracleScaleRobustness:
    """The random 3x6 system from default_rng(0) with rows scaled by 2^rows_k and
    the objective by 2^b_k: the oracle ends as the solver does, with no
    RuntimeWarning (pytest turns one into an error)."""

    CASES = [(600, 0), (-600, 0), (1000, 0), (-1000, 0), (200, 0), (-300, 0)]
    CASES += [(190, -300), (-190, 300), (0, 600), (0, 0)]

    @staticmethod
    def instance(rows_k, b_k):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((3, 6))
        b = rng.standard_normal(6)
        system = ConstraintSystem(np.ldexp(rows, rows_k))
        return system, Objective(np.ldexp(b, b_k)), null_space_direction(rows, b)

    @staticmethod
    def outcome(solve, *args):
        try:
            return solve(*args)
        except DomainError:
            return None

    @pytest.mark.parametrize("rows_k, b_k", CASES)
    def test_direction_ends_as_the_solver_does(self, rows_k, b_k):
        system, objective, expected = self.instance(rows_k, b_k)
        fast = self.outcome(optimal_direction, system, objective)
        slow = self.outcome(oracle_direction, system, objective)
        assert (fast is None) == (slow is None)
        assert (fast is None) == (rows_k not in (0, 190, -190))
        if fast is not None:
            assert fast.status == slow.status == SolveStatus.OPTIMAL
            assert np.max(np.abs(slow.direction - fast.direction)) <= 1e-12
            assert np.max(np.abs(slow.direction - expected)) <= 1e-12
            assert np.all(np.isfinite(slow.raw)) and np.any(slow.raw)

    @pytest.mark.parametrize("rows_k, b_k", CASES)
    def test_value_ends_as_the_solver_does(self, rows_k, b_k):
        system, objective, _ = self.instance(rows_k, b_k)
        fast = self.outcome(objective_value, system, objective, 1.0)
        slow = self.outcome(oracle_value, system, objective, 1.0)
        assert (fast is None) == (slow is None)
        assert (fast is None) == ((rows_k, b_k) not in ((0, 0), (190, -300), (-190, 300)))
        if fast is not None:
            assert slow == pytest.approx(fast, rel=1e-12)

    def test_objective_at_the_top_of_the_double_range(self):
        # P b, with P a projector, overflows for such b unless b is divided by a
        # power of two first; the last objective's value ||b_perp|| is past the range
        rows = np.array(
            [[0.8184808436607272, 0.6348933568819352, 0.5204867619680973, 0.5082638177642645]]
        )
        b = [1.7e308, 1.7e308, 0.0, 0.0]
        expected = null_space_direction(rows, np.ldexp(b, -1000))
        for solve in (optimal_direction, oracle_direction):
            solution = solve(ConstraintSystem(rows), Objective(b))
            assert solution.status is SolveStatus.OPTIMAL
            assert np.max(np.abs(solution.direction - expected)) <= 1e-12
            objective = np.ldexp(np.ldexp(b, -1000) @ expected, 1000)
            assert solution.objective == pytest.approx(float(objective))
            unconstrained = solve(ConstraintSystem.unconstrained(2), Objective([1e308, 1e308]))
            assert unconstrained.objective == pytest.approx(math.sqrt(2) * 1e308)
            with pytest.raises(DomainError, match="not representable"):
                solve(ConstraintSystem(rows), Objective([-1.63e308, 1.72e308, 1.44e308, -1.55e308]))
            with pytest.raises(DomainError, match="not representable"):
                solve(ConstraintSystem.unconstrained(2), Objective([1.7e308, 1e308]))

    def test_each_path_names_its_own_ray_when_refused(self):
        # both rays are about 2^1125 times b_perp: each path names its own scale
        rng = np.random.default_rng(0)
        system = ConstraintSystem(np.ldexp(rng.standard_normal((3, 6)), 20))
        objective = Objective(np.ldexp(rng.standard_normal(6), 1000))
        with pytest.raises(DomainError) as fast:
            optimal_direction(system, objective)
        with pytest.raises(DomainError) as slow:
            oracle_direction(system, objective)
        assert str(fast.value) == (
            "the unnormalized ray ||A_form||^2 * b_perp is not representable: "
            "its scale is 1.7942005933422212 * 2**1125"
        )
        assert str(slow.value) == (
            "the unnormalized ray (product of squared Gram-Schmidt scales) * b_perp "
            "is not representable: its scale is 0.11213753708388874 * 2**1129"
        )

    def test_gram_schmidt_scale_past_the_double_range_solved(self):
        # the row's Gram-Schmidt scale is about 2.1e308, not a double, but the
        # ray scale is kept as a mantissa and an exponent and the ray is a double
        system = ConstraintSystem([[1.5e308, 1.5e308, 0.0]])
        objective = Objective([1e-310, 0.0, 1e-310])
        fast = optimal_direction(system, objective)
        slow = oracle_direction(system, objective)
        assert slow.status is SolveStatus.OPTIMAL
        assert np.max(np.abs(slow.direction - fast.direction)) <= 1e-15
        assert np.max(np.abs(slow.raw - fast.raw)) <= 1e-12 * np.max(np.abs(fast.raw))
        fast_value = objective_value(system, objective, 1.0)
        assert oracle_value(system, objective, 1.0) == pytest.approx(fast_value, rel=1e-12)
        with pytest.raises(DomainError, match="scales must be positive and finite"):
            orthonormalize(system.rows)

    def test_degenerate_ray_underflowing_to_zero_solved(self):
        # b lies in the row span: the oracle's perp is rounding, and its ray
        # scale, about 2^-2237, takes that perp below the smallest double
        rows = [[-5e-324 + 2.1207804633e-312j, 2.3677772732106275e-88j]]
        system, objective = realify(ComplexProblem(rows, [0, 5e-324j]))
        fast = optimal_direction(system, objective)
        slow = oracle_direction(system, objective)
        for solution in (fast, slow):
            assert solution.status is SolveStatus.DEGENERATE
            assert solution.objective == 0.0
        assert not slow.raw.any()

    def test_scale_past_the_double_range_refused(self):
        # the first row norm is about 2.1 * 2^1023: finite entries, no finite scale
        rows = np.ldexp([[1.5, 1.5, 0.0], [0.0, 1.5, 1.5]], 1023)
        with pytest.raises(DomainError, match="finite"):
            orthonormalize(rows)


class TestSampleFeasible:
    def test_respects_constraints(self):
        system = ConstraintSystem([[0, 0, 1.0]])
        sample = sample_feasible(system, 123)
        assert abs(sample[2]) <= 1e-10
        assert np.linalg.norm(sample) == pytest.approx(1.0, abs=1e-12)

    def test_unconstrained(self):
        sample = sample_feasible(ConstraintSystem.unconstrained(4), 5)
        assert np.linalg.norm(sample) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(60)
        system, _ = random_instance(rng, 7, 3)
        assert np.array_equal(sample_feasible(system, 99), sample_feasible(system, 99))
        assert not np.allclose(sample_feasible(system, 99), sample_feasible(system, 100))

    def test_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            sample_feasible(ConstraintSystem([[1.0, 0, 0], [3.0, 0, 0]]), 1)

    def test_negative_seed_refused(self):
        # numpy's default_rng would raise its own ValueError
        with pytest.raises(DomainError, match="seed: expected a non-negative integer, got -1"):
            sample_feasible(ConstraintSystem([[0, 0, 1.0]]), -1)

    def test_bool_seed_refused(self):
        with pytest.raises(DomainError, match="seed: expected an integer, got True"):
            sample_feasible(ConstraintSystem([[0, 0, 1.0]]), True)

    def test_numpy_integer_seed_accepted(self):
        system = ConstraintSystem([[0, 0, 1.0]])
        assert np.array_equal(sample_feasible(system, np.int64(7)), sample_feasible(system, 7))


class TestIndependentRows:
    def test_keeps_first_of_dependent_pair(self):
        assert independent_rows([[1.0, 0, 0], [2.0, 0, 0], [0, 1.0, 0]]) == [0, 2]

    def test_drops_zero_rows(self):
        assert independent_rows([[0.0, 0.0], [1.0, 0.0]]) == [1]

    def test_complex_rows(self):
        rows = np.array([[1.0, 1j], [1j, -1.0], [1.0, 0.0]])
        # the second row is i times the first
        assert independent_rows(rows) == [0, 2]

    def test_rule_ignores_row_scale(self):
        # a running-norm threshold would drop the tiny second row
        assert independent_rows([[1.0, 0, 0], [1e-12, 1e-12, 0]]) == [0, 1]

    @pytest.mark.parametrize("scale", [2.0**-1070, 2.0**1000, 1.5e308 * (1 + 1j)])
    def test_rows_at_the_ends_of_the_float_range(self, scale):
        # |1.5e308 (1 + i)| overflows, although both of its parts are finite
        rows = np.array([[scale, 1e-300, 0.0], [0.0, 1.0, 1.0]])
        assert independent_rows(rows) == [0, 1]

    def test_rejects_non_matrix(self):
        with pytest.raises(DomainError):
            independent_rows([1.0, 0.0])

    NON_FINITE = [math.inf, -math.inf, math.nan, complex(math.inf, 0), complex(0, math.nan)]

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_rows(self, bad):
        rows = np.array([[1.0, 0.0, 0.0], [bad, 1.0, 0.0]])
        with pytest.raises(DomainError, match="^rows must have finite entries$"):
            independent_rows(rows)


class TestCrossValidation:
    def test_directions_and_raw_agree(self):
        rng = np.random.default_rng(61)
        for _ in range(150):
            n = int(rng.integers(2, 13))
            m = int(rng.integers(0, n))
            system, objective = random_instance(rng, n, m)
            fast = optimal_direction(system, objective)
            slow = oracle_direction(system, objective)
            assert fast.status == slow.status
            if fast.status is SolveStatus.OPTIMAL:
                assert float(fast.direction @ slow.direction) >= 1.0 - 1e-9
                gap = abs(fast.objective - slow.objective)
                assert gap <= 1e-9 * max(abs(fast.objective), abs(slow.objective))
                scale = np.linalg.norm(slow.raw)
                assert np.allclose(fast.raw, slow.raw, rtol=1e-7, atol=1e-9 * scale)
            else:
                assert np.allclose(fast.direction, slow.direction)

    def test_maximality_sampled(self):
        rng = np.random.default_rng(62)
        for _ in range(15):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(0, n))
            system, objective = random_instance(rng, n, m)
            solution = optimal_direction(system, objective)
            for seed in range(40):
                sample = sample_feasible(system, seed)
                assert float(objective.b @ sample) <= solution.objective + 1e-9


# ROADMAP item 1's file: the wedge path returns the exact direction negated
ITEM_ONE = {
    "n": 3,
    "m": 2,
    "A": [
        [0.5631823618346624, -0.8860684456412217, -0.5854427746911693],
        [1.365451207659832, -2.1482974526685368, -1.4194221995373546],
    ],
    "B": [1.563819574958663, -2.460395213742765, -1.6256313026863418],
}


@st.composite
def exact_problems(draw):
    """Rows and an objective in R^n, n <= 8, the last row and b drawn near the
    row span; kept when the unit rows have sigma_min >= 1e-3 and the exact
    ||b_perp|| / ||b|| is at least 1e-3."""
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((m, n))
    if m > 1:
        rows[-1] = rng.standard_normal(m - 1) @ rows[:-1] + 10 ** rng.uniform(-2.5, 0) * rows[-1]
    b = rng.standard_normal(m) @ rows + 10 ** rng.uniform(-2.5, 0) * rng.standard_normal(n)
    units = rows / np.linalg.norm(rows, axis=1)[:, None]
    assume(np.linalg.svd(units, compute_uv=False)[-1] >= 1e-3)
    ratio = exact_ratio(rows, b)
    assume(ratio is not None and ratio >= 1e-3)
    return rows, b, draw(st.sampled_from(["max", "min"]))


class TestExactReference:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(exact_problems())
    def test_both_paths_match_the_exact_direction(self, problem):
        rows, b, mode = problem
        expected = exact_direction(rows, b) * (1.0 if mode == "max" else -1.0)
        for solve in (optimal_direction, oracle_direction):
            solution = solve(ConstraintSystem(rows), Objective(b, mode))
            assert solution.status is SolveStatus.OPTIMAL
            assert float(solution.direction @ expected) >= 1.0 - 1e-12

    def test_oracle_matches_the_exact_direction_where_the_solver_flips(self, tmp_path, capsys):
        expected = exact_direction(ITEM_ONE["A"], ITEM_ONE["B"])
        solution = oracle_direction(ConstraintSystem(ITEM_ONE["A"]), Objective(ITEM_ONE["B"]))
        assert float(solution.direction @ expected) >= 1.0 - 1e-12
        path = tmp_path / "flip.json"
        path.write_text(json.dumps(ITEM_ONE))
        assert cli.main(["--input", str(path), "--check"]) == 2
        assert "direction agreement too low" in capsys.readouterr().err


@st.composite
def near_threshold_problems(draw):
    """Rows and an objective in R^n, n <= 8, near both thresholds: the last
    row within 10^U(-10, -3) of the other rows' span, and b within
    10^U(-12, -3) of the row span."""
    n = draw(st.integers(3, 8))
    m = draw(st.integers(2, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((m, n))
    rows[-1] = rng.standard_normal(m - 1) @ rows[:-1] + 10 ** rng.uniform(-10, -3) * rows[-1]
    b = rng.standard_normal(m) @ rows + 10 ** rng.uniform(-12, -3) * rng.standard_normal(n)
    return rows, b, draw(st.sampled_from(["max", "min"]))


class TestNearThresholds:
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: near both thresholds the wedge path can return an "
        "optimal direction far from the exact one, ITEM_ONE's negated",
    )
    @settings(derandomize=True, max_examples=150, deadline=None)
    @example(problem=(ITEM_ONE["A"], ITEM_ONE["B"], "max"))
    @given(near_threshold_problems())
    def test_every_optimal_solve_is_near_the_exact_direction(self, problem):
        # a refusal, or any status but optimal, passes
        rows, b, mode = problem
        expected = exact_direction(rows, b)
        assume(expected is not None)
        try:
            solution = optimal_direction(ConstraintSystem(rows), Objective(b, mode))
        except (DomainError, RankDeficientError):
            return
        if solution.status is SolveStatus.OPTIMAL:
            sign = 1.0 if mode == "max" else -1.0
            assert sign * float(solution.direction @ expected) >= 1.0 - 1e-6


@st.composite
def row_scaled_problems(draw):
    """A well-conditioned system (condition number below 1e4) in R^n, n <= 8,
    an objective, and one power-of-two exponent in [-60, 60] per row."""
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((m, n))
    assume(np.linalg.cond(rows) < 1e4)
    exponents = draw(st.lists(st.integers(-60, 60), min_size=m, max_size=m))
    return rows, rng.standard_normal(n), np.array(exponents)


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(row_scaled_problems())
def test_per_row_power_of_two_scaling_changes_nothing(tmp_path, problem):
    """Both paths keep their status and direction when each row is scaled by
    its own 2^k, and --check passes on the scaled rows."""
    rows, b, exponents = problem
    scaled = np.ldexp(rows, exponents[:, None])
    objective = Objective(b)
    for solve in (optimal_direction, oracle_direction):
        base = solve(ConstraintSystem(rows), objective)
        moved = solve(ConstraintSystem(scaled), objective)
        assert moved.status is base.status
        assert np.max(np.abs(moved.direction - base.direction)) <= 1e-12
    path = tmp_path / "problem.json"
    doc = {"n": rows.shape[1], "m": rows.shape[0], "A": scaled.tolist(), "B": b.tolist()}
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--input", str(path), "--check"]) == 0
