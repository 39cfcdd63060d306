"""Direction solver unit and property tests."""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import random_instance, relative_residual, span_combination
from reference import brute_optimal_ray, null_space_axis
import wedgeopt.forms
import wedgeopt.solver
from wedgeopt.errors import DomainError, RankDeficientError
from wedgeopt.forms import basis_form, from_vector, hodge, wedge, _combos
from wedgeopt.oracle import oracle_direction, orthonormalize, perpendicular_component
from wedgeopt.solver import (
    ConstraintSystem,
    Objective,
    SolveStatus,
    constraint_form,
    degenerate_direction,
    objective_value,
    optimal_direction,
    triple_product_direction,
)


class TestConstraintSystem:
    def test_requires_m_below_n(self):
        with pytest.raises(DomainError):
            ConstraintSystem(np.eye(3))

    def test_rejects_zero_rows(self):
        with pytest.raises(DomainError):
            ConstraintSystem([[0.0, 0.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            ConstraintSystem([[1.0, np.inf, 0.0]])

    def test_unconstrained_constructor(self):
        system = ConstraintSystem.unconstrained(4)
        assert system.m == 0 and system.n == 4


class TestObjective:
    def test_rejects_zero_vector(self):
        with pytest.raises(DomainError):
            Objective([0.0, 0.0])

    def test_rejects_bad_mode(self):
        with pytest.raises(DomainError):
            Objective([1.0, 0.0], "maximize")


class TestConstraintForm:
    def test_single_row_is_identity(self):
        form = constraint_form(ConstraintSystem([[3.0, -1.0, 2.0, 0.5]]))
        assert np.array_equal(form.coeffs, [3.0, -1.0, 2.0, 0.5])

    def test_basis_rows(self):
        form = constraint_form(ConstraintSystem([[1, 0, 0], [0, 1, 0]]))
        assert np.array_equal(form.coeffs, basis_form(3, [1, 2]).coeffs)

    def test_dependent_rows_annihilate(self):
        form = constraint_form(ConstraintSystem([[1, 0, 0], [2, 0, 0]]))
        assert np.all(form.coeffs == 0.0)

    def test_unconstrained_is_an_error(self):
        with pytest.raises(DomainError):
            constraint_form(ConstraintSystem.unconstrained(3))

    def test_coefficients_are_minors(self):
        rng = np.random.default_rng(21)
        for n, m in [(4, 2), (5, 3), (6, 4), (7, 2)]:
            rows = rng.standard_normal((m, n))
            form = constraint_form(ConstraintSystem(rows))
            for position, combo in enumerate(_combos(n, m)):
                minor = np.linalg.det(rows[:, combo])
                assert form.coeffs[position] == pytest.approx(minor, rel=1e-12, abs=1e-14)

    def test_matches_wedge_fold(self):
        rng = np.random.default_rng(22)
        for n, m in [(3, 2), (5, 3), (6, 5), (8, 4)]:
            rows = rng.standard_normal((m, n))
            form = constraint_form(ConstraintSystem(rows))
            folded = from_vector(rows[0])
            for row in rows[1:]:
                folded = wedge(folded, from_vector(row))
            assert np.allclose(form.coeffs, folded.coeffs, rtol=1e-10, atol=1e-12)

    def test_folds_exactly_when_half_or_fewer_rows(self, monkeypatch):
        def refuse(name):
            def stub(*args):
                raise AssertionError(f"constraint_form called {name}")
            return stub

        rng = np.random.default_rng(24)
        for n, m in [(2, 1), (6, 3), (9, 4), (3, 2), (7, 4), (10, 9)]:
            system = ConstraintSystem(rng.standard_normal((m, n)))
            with monkeypatch.context() as patch:
                if 2 * m <= n:
                    patch.setattr(wedgeopt.solver, "_combos", refuse("the minor gather"))
                else:
                    patch.setattr(wedgeopt.solver, "_product", refuse("the wedge fold"))
                form = constraint_form(system)
            minors = [np.linalg.det(system.rows[:, combo]) for combo in _combos(n, m)]
            assert np.allclose(form.coeffs, minors, rtol=1e-10, atol=1e-12)


def dual_form(objective, system):
    """Hodge dual of b ^ A: zero exactly when b lies in the row span."""
    return hodge(wedge(from_vector(objective.b), constraint_form(system)))


class TestDualForm:
    def test_matches_cross_product(self):
        system = ConstraintSystem([[0.0, 0.0, 1.0]])
        form = dual_form(Objective([1.0, 0.0, 0.0]), system)
        assert np.allclose(form.coeffs, [0.0, -1.0, 0.0])
        assert np.allclose(form.coeffs, np.cross([1.0, 0, 0], [0.0, 0, 1.0]))

    def test_parallel_vectors_vanish(self):
        system = ConstraintSystem([[0.0, 0.0, 1.0]])
        form = dual_form(Objective([0.0, 0.0, 2.0]), system)
        assert np.max(np.abs(form.coeffs)) <= 1e-14

    def test_four_dimensional_example(self):
        # parity of (3, 1, 2, 4) is even
        system = ConstraintSystem([[1, 0, 0, 0], [0, 1, 0, 0]])
        form = dual_form(Objective([0.0, 0.0, 1.0, 0.0]), system)
        assert np.array_equal(form.coeffs, basis_form(4, [4]).coeffs)

    def test_zero_iff_in_row_span(self):
        rng = np.random.default_rng(23)
        for n, m in [(4, 2), (6, 3), (9, 5)]:
            system, objective = random_instance(rng, n, m)
            form = dual_form(objective, system)
            assert form.norm() > 1e-8
            spanned = Objective(span_combination(rng, system.rows))
            spanned_form = dual_form(spanned, system)
            scale = constraint_form(system).norm() * np.linalg.norm(spanned.b)
            assert spanned_form.norm() <= 1e-12 * scale


class TestOptimalDirection:
    def test_simple_3d(self):
        solution = optimal_direction(ConstraintSystem([[0, 0, 1.0]]), Objective([1.0, 0, 0]))
        assert solution.status is SolveStatus.OPTIMAL
        assert np.allclose(solution.direction, [1.0, 0.0, 0.0], atol=1e-14)
        assert solution.objective == pytest.approx(1.0)

    def test_unconstrained(self):
        solution = optimal_direction(ConstraintSystem.unconstrained(2), Objective([3.0, 4.0]))
        assert solution.status is SolveStatus.UNCONSTRAINED
        assert np.allclose(solution.direction, [0.6, 0.8])
        assert solution.objective == pytest.approx(5.0)

    def test_projection_example_4d(self):
        solution = optimal_direction(
            ConstraintSystem([[1, 0, 0, 0], [0, 1, 0, 0]]), Objective([1.0, 1, 1, 1])
        )
        assert np.allclose(solution.direction, [0, 0, 1, 1] / np.sqrt(2.0), atol=1e-14)
        assert solution.objective == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_parallel_case_is_degenerate(self):
        solution = optimal_direction(ConstraintSystem([[0, 0, 1.0]]), Objective([0, 0, 2.0]))
        assert solution.status is SolveStatus.DEGENERATE
        assert solution.objective == 0.0
        assert np.linalg.norm(solution.direction) == pytest.approx(1.0, abs=1e-12)
        assert abs(solution.direction[2]) <= 1e-12

    def test_mismatched_dimensions(self):
        with pytest.raises(DomainError):
            optimal_direction(ConstraintSystem([[0, 0, 1.0]]), Objective([1.0, 0]))

    def test_rank_deficient_raises(self):
        system = ConstraintSystem([[1.0, 0, 0, 0], [2.0, 0, 0, 0]])
        with pytest.raises(RankDeficientError):
            optimal_direction(system, Objective([0, 1.0, 0, 0]))

    def test_feasibility_property(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            m = int(rng.integers(0, n))
            system, objective = random_instance(rng, n, m)
            solution = optimal_direction(system, objective)
            assert relative_residual(system.rows, solution.direction) <= 1e-9
            assert np.linalg.norm(solution.direction) == pytest.approx(1.0, abs=1e-12)

    def test_matches_projected_objective(self):
        rng = np.random.default_rng(32)
        for _ in range(120):
            n = int(rng.integers(2, 13))
            m = int(rng.integers(1, n))
            system, objective = random_instance(rng, n, m)
            solution = optimal_direction(system, objective)
            assert solution.status is SolveStatus.OPTIMAL
            perp = perpendicular_component(objective.b, orthonormalize(system.rows))
            unit = perp / np.linalg.norm(perp)
            assert float(solution.direction @ unit) >= 1.0 - 1e-9
            assert float(solution.direction @ perp) > 0.0

    def test_mode_antisymmetry(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(1, n))
            system, objective = random_instance(rng, n, m)
            low = optimal_direction(system, Objective(objective.b, "min"))
            high = optimal_direction(system, objective)
            assert np.allclose(low.direction, -high.direction, atol=1e-14)
            assert low.objective == pytest.approx(-high.objective, rel=1e-12)

    def test_row_scaling_invariance(self):
        rng = np.random.default_rng(34)
        for scale in (3.0, -2.0, 0.04, -250.0):
            system, objective = random_instance(rng, 6, 3)
            rows = system.rows.copy()
            rows[1] *= scale
            base = optimal_direction(system, objective)
            scaled = optimal_direction(ConstraintSystem(rows), objective)
            assert np.allclose(base.direction, scaled.direction, atol=1e-10)

    def test_nondegeneracy_criterion(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(1, n))
            system, objective = random_instance(rng, n, m)
            assert optimal_direction(system, objective).status is SolveStatus.OPTIMAL
            spanned = Objective(span_combination(rng, system.rows))
            assert optimal_direction(system, spanned).status is SolveStatus.DEGENERATE

    def test_matches_epsilon_contraction(self):
        rng = np.random.default_rng(36)
        for n in range(2, 7):
            for m in range(1, n):
                system, objective = random_instance(rng, n, m)
                solution = optimal_direction(system, objective)
                ray = brute_optimal_ray(system.rows, objective.b)
                cosine = float(solution.direction @ ray) / np.linalg.norm(ray)
                assert cosine >= 1.0 - 1e-10

    def test_raw_is_gram_determinant_times_projection(self):
        # Pins the ray's scale and sign, on both sides of the 2m <= n rule.
        rng = np.random.default_rng(38)
        for n in range(2, 10):
            for m in range(0, n):
                system, objective = random_instance(rng, n, m)
                a, b = system.rows, objective.b
                expected = b
                if m:
                    gram = a @ a.T
                    expected = np.linalg.det(gram) * (b - a.T @ np.linalg.solve(gram, a @ b))
                raw = optimal_direction(system, objective).raw
                assert np.max(np.abs(raw - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_ray_never_takes_a_hodge_dual(self, monkeypatch):
        def refuse(form):
            raise AssertionError("the solve called hodge")

        assert not hasattr(wedgeopt.solver, "hodge")
        monkeypatch.setattr(wedgeopt.forms, "hodge", refuse)
        rng = np.random.default_rng(39)
        for n, m in [(3, 1), (8, 4), (7, 5)]:
            system, objective = random_instance(rng, n, m)
            assert optimal_direction(system, objective).status is SolveStatus.OPTIMAL
            spanned = Objective(span_combination(rng, system.rows))
            assert optimal_direction(system, spanned).status is SolveStatus.DEGENERATE
            assert objective_value(system, objective, 1.0) > 0.0

    def test_solve_uses_only_grade_one_tables(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"the solve built a split table {args}")

        monkeypatch.setattr(wedgeopt.forms, "_split_table", refuse)
        rng = np.random.default_rng(40)
        for n, m in [(3, 1), (8, 4), (7, 5), (12, 3), (10, 9)]:
            system, objective = random_instance(rng, n, m)
            assert optimal_direction(system, objective).status is SolveStatus.OPTIMAL
            spanned = Objective(span_combination(rng, system.rows))
            assert optimal_direction(system, spanned).status is SolveStatus.DEGENERATE
            assert objective_value(system, objective, 1.0) > 0.0
            assert np.linalg.norm(degenerate_direction(system)) == pytest.approx(1.0)

    def test_rank_rule_ignores_per_row_scale(self):
        # Gram-Schmidt against the running row scale calls these rows dependent;
        # scaled to unit norm they are 45 degrees apart.
        system = ConstraintSystem([[1.0, 0, 0], [1e-12, 1e-12, 0]])
        solution = optimal_direction(system, Objective([0, 0, 1.0]))
        assert solution.status is SolveStatus.OPTIMAL
        assert np.allclose(np.abs(solution.direction), [0.0, 0.0, 1.0], atol=1e-12)

    def test_rank_rule_accepts_many_coherent_rows(self):
        # Partial-sum rows: condition number 29, but the product of the rows'
        # relative Gram-Schmidt residuals, ||A_form|| / prod ||a_i||, is 3e-11.
        system = ConstraintSystem(np.tril(np.ones((22, 24))))
        objective = Objective(np.arange(1.0, 25.0))
        solution = optimal_direction(system, objective)
        assert solution.status is SolveStatus.OPTIMAL
        assert float(solution.direction @ oracle_direction(system, objective).direction) >= 1.0 - 1e-9

    def test_tolerance_override(self):
        rng = np.random.default_rng(37)
        system, _ = random_instance(rng, 5, 2)
        near = span_combination(rng, system.rows)
        near = near / np.linalg.norm(near)
        near[0] += 1e-8
        objective = Objective(near)
        assert optimal_direction(system, objective).status is SolveStatus.OPTIMAL
        assert optimal_direction(system, objective, 1e-3).status is SolveStatus.DEGENERATE


class TestSolveMemory:
    """tracemalloc peaks of cold solves: the ray must not build complement-grade
    tables, and the fold must not run where it passes through grade n/2."""

    @staticmethod
    def cold_peak_mb(n, m):
        rng = np.random.default_rng(n * 100 + m)
        system, objective = random_instance(rng, n, m)
        wedgeopt.forms._clear_caches()
        tracemalloc.start()
        try:
            assert optimal_direction(system, objective).status is SolveStatus.OPTIMAL
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
            wedgeopt.forms._clear_caches()

    def test_wide_shape_peak(self):
        assert self.cold_peak_mb(32, 4) < 250.0

    def test_half_shape_peak(self):
        assert self.cold_peak_mb(18, 9) < 70.0

    @pytest.mark.parametrize("n, m", [(24, 22), (32, 31)])
    def test_tall_shape_peak(self, n, m):
        assert self.cold_peak_mb(n, m) < 5.0


class TestObjectiveValue:
    def test_closed_form_example(self):
        value = objective_value(ConstraintSystem([[1.0, 0, 0]]), Objective([1.0, 1.0, 0]), 1.0)
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_orthonormal_rows_unit_perp(self):
        system = ConstraintSystem([[1, 0, 0, 0], [0, 1, 0, 0]])
        value = objective_value(system, Objective([0, 0, 1.0, 0]), 1.0)
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_spanned_objective_is_zero(self):
        system = ConstraintSystem([[1.0, 2.0, 0.5]])
        value = objective_value(system, Objective([2.0, 4.0, 1.0]), 1.0)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_scales_linearly_in_t(self):
        rng = np.random.default_rng(41)
        system, objective = random_instance(rng, 6, 3)
        base = objective_value(system, objective, 1.0)
        assert objective_value(system, objective, 2.5) == pytest.approx(2.5 * base, rel=1e-12)

    def test_3d_closed_form_property(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            value = objective_value(ConstraintSystem([a]), Objective(b), 1.0)
            closed = (a @ a) * (b @ b) - (a @ b) ** 2
            assert value == pytest.approx(closed, rel=1e-10)

    def test_min_mode_is_negative(self):
        system = ConstraintSystem([[1.0, 0, 0]])
        value = objective_value(system, Objective([1.0, 1.0, 0], "min"), 1.0)
        assert value == pytest.approx(-1.0, rel=1e-12)

    def test_requires_positive_t(self):
        with pytest.raises(DomainError):
            objective_value(ConstraintSystem([[1.0, 0, 0]]), Objective([0, 1.0, 0]), 0.0)

    def test_requires_rows(self):
        with pytest.raises(DomainError):
            objective_value(ConstraintSystem.unconstrained(3), Objective([1.0, 0, 0]), 1.0)

    def test_rank_deficient_raises(self):
        system = ConstraintSystem([[1.0, 0, 0], [2.0, 0, 0]])
        with pytest.raises(RankDeficientError):
            objective_value(system, Objective([0, 1.0, 0]), 1.0)


class TestTripleProduct:
    def test_examples(self):
        assert np.allclose(triple_product_direction([0, 0, 1], [1, 0, 0]), [1, 0, 0])
        assert np.allclose(triple_product_direction([1, 0, 0], [1, 1, 0]), [0, 1, 0])
        assert np.allclose(triple_product_direction([0, 0, 1], [0, 0, 5]), [0, 0, 0])

    def test_zero_input(self):
        with pytest.raises(DomainError):
            triple_product_direction([0, 0, 0], [1, 0, 0])

    def test_wrong_dimension(self):
        with pytest.raises(DomainError):
            triple_product_direction([1, 0], [0, 1])

    def test_agrees_with_general_solver(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            solution = optimal_direction(ConstraintSystem([a]), Objective(b))
            triple = triple_product_direction(a, b)
            cosine = float(solution.direction @ triple) / np.linalg.norm(triple)
            assert cosine >= 1.0 - 1e-12


class TestDegenerateDirection:
    def test_planar_null_space(self):
        direction = degenerate_direction(ConstraintSystem([[0, 0, 1.0]]))
        assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-14)
        assert abs(direction[2]) <= 1e-14

    def test_2d(self):
        direction = degenerate_direction(ConstraintSystem([[1.0, 0.0]]))
        assert np.allclose(np.abs(direction), [0.0, 1.0])

    def test_4d_span(self):
        direction = degenerate_direction(ConstraintSystem([[1, 0, 0, 0], [0, 1, 0, 0]]))
        assert np.allclose(direction[:2], 0.0, atol=1e-14)
        assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-14)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            degenerate_direction(ConstraintSystem([[1.0, 0, 0], [1.0, 0, 0]]))

    def test_deterministic_and_feasible(self):
        rng = np.random.default_rng(44)
        systems = [ConstraintSystem([[1.0, 0, 0], [1e-12, 1e-12, 0]])]
        for _ in range(30):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(1, n))
            systems.append(random_instance(rng, n, m)[0])
        for system in systems:
            first = degenerate_direction(system)
            second = degenerate_direction(system)
            assert np.array_equal(first, second)
            assert relative_residual(system.rows, first) <= 1e-10
            assert np.max(np.abs(first - null_space_axis(system.rows))) <= 1e-12


class TestIndependentOfOracle:
    def test_solver_runs_without_the_oracle(self, monkeypatch):
        import wedgeopt.oracle

        def refuse(rows):
            raise AssertionError("the solver called oracle.orthonormalize")

        monkeypatch.setattr(wedgeopt.oracle, "orthonormalize", refuse)
        rng = np.random.default_rng(45)
        system, objective = random_instance(rng, 5, 2)
        assert optimal_direction(system, objective).status is SolveStatus.OPTIMAL
        assert relative_residual(system.rows, degenerate_direction(system)) <= 1e-10
        assert objective_value(system, objective, 1.0) > 0.0
        dependent = ConstraintSystem([[1.0, 0, 0], [2.0, 0, 0]])
        with pytest.raises(RankDeficientError):
            optimal_direction(dependent, Objective([0, 1.0, 0]))
        with pytest.raises(RankDeficientError):
            degenerate_direction(dependent)
        with pytest.raises(RankDeficientError):
            objective_value(dependent, Objective([0, 1.0, 0]), 1.0)

    def test_oracle_runs_without_the_solver_fallback(self, monkeypatch):
        import wedgeopt.oracle
        import wedgeopt.solver

        def refuse(*args):
            raise AssertionError("the oracle called the solver's degenerate fallback")

        monkeypatch.setattr(wedgeopt.solver, "degenerate_direction", refuse)
        monkeypatch.setattr(wedgeopt.solver, "_first_free_ray", refuse)
        monkeypatch.setattr(wedgeopt.oracle, "degenerate_direction", refuse, raising=False)
        rng = np.random.default_rng(46)
        system, _ = random_instance(rng, 5, 2)
        solution = oracle_direction(system, Objective(span_combination(rng, system.rows)))
        assert solution.status is SolveStatus.DEGENERATE
        assert relative_residual(system.rows, solution.direction) <= 1e-10
        assert np.max(np.abs(solution.direction - null_space_axis(system.rows))) <= 1e-12
