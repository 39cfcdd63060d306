"""Complexification unit and property tests."""

import numpy as np
import pytest

import wedgeopt
from wedgeopt.complexify import ComplexProblem, ComplexSolution, realify, solve_complex
from wedgeopt.errors import DomainError
from wedgeopt.solver import ConstraintSystem, Objective, Solution, SolveStatus, optimal_direction


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestComplexProblem:
    def test_requires_m_below_n(self):
        with pytest.raises(DomainError):
            ComplexProblem(np.eye(2, dtype=complex), np.array([1.0 + 0j, 0.0]))

    def test_rejects_zero_rows(self):
        with pytest.raises(DomainError):
            ComplexProblem(np.zeros((1, 3), dtype=complex), np.ones(3, dtype=complex))

    def test_rejects_bad_part(self):
        with pytest.raises(DomainError):
            ComplexProblem(np.ones((0, 2), dtype=complex), np.ones(2, dtype=complex), part="abs")


class TestRealify:
    def test_row_pairs(self):
        problem = ComplexProblem(np.array([[1.0, 1j]]), np.array([1.0 + 0j, 0.0]))
        system, objective = realify(problem)
        assert np.array_equal(system.rows, [[1.0, 0.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0]])
        assert np.array_equal(objective.b, [1.0, 0.0, 0.0, 0.0])

    def test_real_input_decouples(self):
        rows = np.array([[2.0, 1.0, 0.0]], dtype=complex)
        problem = ComplexProblem(rows, np.array([1.0, 0.0, 1.0], dtype=complex))
        system, objective = realify(problem)
        assert np.array_equal(system.rows[0], [2.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(system.rows[1], [0.0, 0.0, 0.0, 2.0, 1.0, 0.0])
        assert np.array_equal(objective.b[:3], [1.0, 0.0, 1.0])

    def test_imaginary_part_objective(self):
        problem = ComplexProblem(
            np.zeros((0, 2), dtype=complex), np.array([1.0 + 2.0j, -1.0j]), part="im"
        )
        _, objective = realify(problem)
        assert np.array_equal(objective.b, [2.0, -1.0, 1.0, 0.0])

    def test_doubled_shape(self):
        rng = np.random.default_rng(70)
        problem = ComplexProblem(random_complex(rng, (3, 5)), random_complex(rng, 5))
        system, _ = realify(problem)
        assert (system.m, system.n) == (6, 10)

    def test_realified_once_when_the_problem_is_built(self, monkeypatch):
        rng = np.random.default_rng(71)
        problem = ComplexProblem(random_complex(rng, (2, 4)), random_complex(rng, 4), mode="min")
        system, objective = realify(problem)
        assert system is problem.system and objective is problem.objective

        def refuse(self):
            raise AssertionError("a new ConstraintSystem was built")

        monkeypatch.setattr(ConstraintSystem, "__post_init__", refuse)
        solution = solve_complex(problem)
        assert solution.status is SolveStatus.OPTIMAL
        assert np.max(np.abs(problem.rows @ solution.direction)) <= 1e-12


class TestSolveComplex:
    def test_worked_example(self):
        problem = ComplexProblem(np.array([[1.0, 1j]]), np.array([1.0 + 0j, 0.0]))
        solution = solve_complex(problem)
        root_half = 1.0 / np.sqrt(2.0)
        assert solution.status is SolveStatus.OPTIMAL
        assert np.allclose(solution.direction, [root_half, root_half * 1j], atol=1e-12)
        assert solution.objective == pytest.approx(root_half, rel=1e-12)

    def test_returns_a_solution_with_complex_arrays(self):
        rng = np.random.default_rng(74)
        problem = ComplexProblem(random_complex(rng, (2, 4)), random_complex(rng, 4))
        solution = solve_complex(problem)
        assert ComplexSolution is Solution and wedgeopt.ComplexSolution is wedgeopt.Solution
        assert type(solution) is Solution
        for array in (solution.direction, solution.raw):
            assert array.dtype == complex and not array.flags.writeable
        assert abs(np.linalg.norm(solution.direction) - 1.0) <= 1e-12
        with pytest.raises(DomainError, match="unit-norm"):
            Solution([1.0, 1.0j], [0.0, 0.0], 0.0, SolveStatus.OPTIMAL)

    def test_real_embedding_matches_real_solver(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(0, n))
            rows = rng.standard_normal((m, n))
            b = rng.standard_normal(n)
            if m and np.any(np.linalg.norm(rows, axis=1) < 1e-3):
                continue
            if np.linalg.norm(b) < 1e-3:
                continue
            embedded = solve_complex(ComplexProblem(rows.astype(complex), b.astype(complex)))
            real = optimal_direction(ConstraintSystem(rows), Objective(b))
            assert embedded.objective == pytest.approx(real.objective, rel=1e-9, abs=1e-12)

    def test_spanned_objective_degenerate(self):
        rng = np.random.default_rng(72)
        rows = random_complex(rng, (2, 4))
        b = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) @ rows
        solution = solve_complex(ComplexProblem(rows, b))
        assert solution.status is SolveStatus.DEGENERATE
        assert solution.objective == 0.0
        assert np.max(np.abs(rows @ solution.direction)) <= 1e-9

    def test_complex_feasibility_and_norm(self):
        rng = np.random.default_rng(73)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(0, n))
            problem = ComplexProblem(random_complex(rng, (m, n)), random_complex(rng, n))
            solution = solve_complex(problem)
            assert float(np.sum(np.abs(solution.direction) ** 2)) == pytest.approx(1.0, abs=1e-12)
            if m:
                scale = np.maximum(1.0, np.linalg.norm(problem.rows, axis=1))
                assert np.max(np.abs(problem.rows @ solution.direction) / scale) <= 1e-9

    def test_phase_covariance(self):
        rng = np.random.default_rng(74)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(0, n))
            rows = random_complex(rng, (m, n))
            b = random_complex(rng, n)
            by_im = solve_complex(ComplexProblem(rows, b, part="im"))
            by_re = solve_complex(ComplexProblem(rows, -1j * b, part="re"))
            assert np.max(np.abs(by_im.direction - by_re.direction)) <= 1e-9
            assert by_im.objective == pytest.approx(by_re.objective, rel=1e-9, abs=1e-12)

    def test_objective_matches_complex_arithmetic(self):
        rng = np.random.default_rng(75)
        for part in ("re", "im"):
            problem = ComplexProblem(random_complex(rng, (2, 5)), random_complex(rng, 5), part)
            solution = solve_complex(problem)
            product = complex(problem.b @ solution.direction)
            expected = product.real if part == "re" else product.imag
            assert solution.objective == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_min_mode(self):
        rng = np.random.default_rng(76)
        rows = random_complex(rng, (1, 3))
        b = random_complex(rng, 3)
        high = solve_complex(ComplexProblem(rows, b, mode="max"))
        low = solve_complex(ComplexProblem(rows, b, mode="min"))
        assert low.objective == pytest.approx(-high.objective, rel=1e-12)
        assert np.allclose(low.direction, -high.direction, atol=1e-14)
