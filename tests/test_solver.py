"""Direction solver unit and property tests."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from helpers import (
    allocates_nothing,
    random_instance,
    random_objective,
    random_system,
    relative_residual,
    span_combination,
)
from reference import brute_optimal_ray, null_space_axis, null_space_direction
import wedgeopt.forms
import wedgeopt.oracle
import wedgeopt.solver
from wedgeopt.complexify import ComplexProblem, solve_complex
from wedgeopt.errors import DomainError, RankDeficientError
from wedgeopt.forms import KForm, MultiIndex, basis_form, from_vector, hodge, wedge, _combos
from wedgeopt.oracle import (
    OrthoBasis,
    oracle_direction,
    oracle_value,
    orthonormalize,
    perpendicular_component,
    sample_feasible,
)
from wedgeopt.solver import (
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
        assert system.scaled.shape == (0, 4) and system.exponents.shape == (0,)

    def test_non_integral_unconstrained_dimension_refused(self):
        # a cast to int would make it n = 3
        with pytest.raises(DomainError, match=r"n: expected an integer, got 3\.9"):
            ConstraintSystem.unconstrained(3.9)
        assert ConstraintSystem.unconstrained(np.int64(3)).n == 3

    @pytest.mark.parametrize("n", [-1, 0, 65])
    def test_unconstrained_dimension_out_of_range_refused(self, n):
        # refused before np.zeros((0, n)), whose ValueError a negative n would raise
        with pytest.raises(DomainError, match=rf"^ambient dimension must lie in \[1, 64\], got {n}$"):
            ConstraintSystem.unconstrained(n)

    def test_rows_are_scaled_once_by_exact_powers_of_two(self):
        rows = [[3.0, -1e200, 0.0], [0.0, 5e-300, 2.5e-300]]
        system = ConstraintSystem(rows)
        assert np.array_equal(np.ldexp(system.scaled, system.exponents[:, None]), rows)
        peaks = np.abs(system.scaled).max(axis=1)
        assert np.all((0.5 <= peaks) & (peaks < 1.0))
        with pytest.raises(ValueError):
            system.scaled[0, 0] = 1.0
        with pytest.raises(TypeError):
            ConstraintSystem(rows, scaled=np.eye(3)[:2])


class TestObjective:
    def test_rejects_zero_vector(self):
        with pytest.raises(DomainError):
            Objective([0.0, 0.0])

    def test_rejects_bad_mode(self):
        with pytest.raises(DomainError):
            Objective([1.0, 0.0], "maximize")

    def test_objective_is_scaled_once_by_a_power_of_two(self):
        objective = Objective([1.7e308, -3.0, 0.0])
        assert objective.shift == 1024
        assert np.array_equal(np.ldexp(objective.scaled, 1000), np.ldexp(objective.b, -24))
        assert 0.5 <= np.max(np.abs(objective.scaled)) < 1.0
        with pytest.raises(ValueError):
            objective.scaled[0] = 1.0


class TestSolution:
    @pytest.mark.parametrize(
        "direction", [[1.0, 1.0], [0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0], [1.0 + 2e-12, 0.0]]
    )
    def test_rejects_non_unit_direction(self, direction):
        with pytest.raises(DomainError):
            Solution(direction, [1.0, 0.0], 1.0, SolveStatus.OPTIMAL)

    def test_accepts_unit_direction(self):
        solution = Solution([0.6, -0.8], [3.0, -4.0], 5.0, SolveStatus.OPTIMAL)
        assert solution.direction.tolist() == [0.6, -0.8]

    def test_rejects_non_numeric_direction(self):
        with pytest.raises(DomainError, match="^a solution needs numeric arrays"):
            Solution(["a"], [0], 0, "optimal")

    def test_rejects_unknown_status(self):
        with pytest.raises(DomainError, match="^a solution needs .* a solve status: 'bogus'"):
            Solution([1.0], [0], 0, "bogus")

    def test_rejects_raw_of_another_shape(self):
        shape = re.escape("a solution raw must have the direction's shape, got (1, 1)")
        with pytest.raises(DomainError, match=f"^{shape}$"):
            Solution([1.0], [[0]], 0, "optimal")

    def test_rejects_non_finite_objective(self):
        with pytest.raises(DomainError, match="^a solution objective must be finite, got nan$"):
            Solution([1.0], [0], float("nan"), "optimal")

    @pytest.mark.parametrize("raw", [[float("nan")], [float("inf")], [complex(0, float("-inf"))]])
    def test_rejects_non_finite_raw(self, raw):
        with pytest.raises(DomainError, match="^a solution raw must have finite entries$"):
            Solution([1.0], raw, 0, "optimal")


_COMPLEX_PROBLEM = ComplexProblem([[1.0 + 2.0j, 0.5, -1.0j]], [1.0, 1.0j, 2.0])
_VALUES = {
    "MultiIndex": lambda: MultiIndex((1, 3), 4),
    "KForm": lambda: from_vector([1.0, 2.0, 3.0]),
    "ConstraintSystem": lambda: ConstraintSystem([[1.0, 2.0, 0.0]]),
    "Objective": lambda: Objective([1.0, -2.0, 3.0]),
    "Solution": lambda: optimal_direction(ConstraintSystem([[1.0, 2.0, 0.0]]), Objective([1, 0, 1])),
    "Solution_complex": lambda: solve_complex(_COMPLEX_PROBLEM),
    "OrthoBasis": lambda: orthonormalize([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]]),
    "ComplexProblem": lambda: _COMPLEX_PROBLEM,
}


class TestValuesAreFrozen:
    @pytest.mark.parametrize("make", _VALUES.values(), ids=_VALUES.keys())
    def test_fields_and_arrays_are_read_only(self, make):
        value = make()
        arrays = 0
        for name in (f.name for f in dataclasses.fields(value)):
            current = getattr(value, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, current)
            if isinstance(current, np.ndarray):
                arrays += 1
                assert current.size
                with pytest.raises(ValueError, match="read-only"):
                    current[...] = current
        assert arrays or isinstance(value, MultiIndex)


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
        for n, m in [(3, 2), (5, 3), (6, 5), (8, 4), (18, 9)]:
            rows = rng.standard_normal((m, n))
            form = constraint_form(ConstraintSystem(rows))
            folded = from_vector(rows[0])
            for row in rows[1:]:
                folded = wedge(folded, from_vector(row))
            if 2 * m <= n:  # the fold is `wedge` row by row, on blocks past _BLOCK_MIN too
                assert np.array_equal(form.coeffs, folded.coeffs)
            else:
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

    def test_objective_accurate_when_b_is_nearly_in_the_row_span(self):
        # A single pass of the projector leaves rounding of about eps ||b|| in the
        # row span, which b then reads at full weight: a relative objective error
        # near 1e-3 here.  The second pass brings it down to about 1e-9.
        rng = np.random.default_rng(49)
        for n in range(2, 11):
            for m in range(1, n):
                q = np.linalg.qr(rng.standard_normal((n, n)))[0]
                rows, null = q[:, :m].T, q[:, m:]
                expected = null @ rng.standard_normal(n - m)
                expected /= np.linalg.norm(expected)
                b = rows.T @ rng.standard_normal(m) + 1e-6 * expected
                solution = optimal_direction(ConstraintSystem(rows), Objective(b))
                assert solution.status is SolveStatus.OPTIMAL
                assert solution.objective == pytest.approx(1e-6, rel=1e-8)

    def test_solve_uses_tables_only_up_to_grade_m(self, monkeypatch):
        # Up to _WHOLE_TABLE_MAX targets C(n, low), low = min(m, n - m), the ray
        # lays out contractions off the (m-1, 1) table that the fold already
        # built, or when 2m > n the (n-m-1, 1) table of the dual, and no solve
        # there builds a grade-1 table at grade low or above, or any index array
        # above grade m; no shape there is on blocks.  Above it the ray
        # eliminates the rows and builds no table and no index list at all.
        # The solver forms no product of A with b.  Each shape's ceiling:
        # (table grades below, index list grades up to), -1 for none.
        grade_one_table, combos = wedgeopt.forms._grade1_table, wedgeopt.forms._combos
        assert not hasattr(wedgeopt.solver, "wedge")
        assert not hasattr(wedgeopt.solver, "contract")
        rng = np.random.default_rng(47)
        shapes = {
            (3, 1): (1, 1),
            (8, 4): (4, 4),
            (12, 3): (3, 3),
            (7, 5): (2, 5),
            (10, 9): (1, 9),
            (9, 6): (3, 6),
            (13, 6): (6, 6),
            (16, 9): (0, -1),
            (20, 14): (0, -1),
            (18, 9): (0, -1),
            (22, 16): (0, -1),
            (32, 4): (0, -1),
        }
        for (n, m), (tables_below, combos_up_to) in shapes.items():
            low = min(m, n - m)
            reader = wedgeopt.forms._per_split(n, low)
            assert reader or wedgeopt.forms._read_grade(n, low - 1) == low - 1
            assert (tables_below, combos_up_to) == ((0, -1) if reader else (low, m))

            def table_below(n_, k):
                if k >= tables_below:
                    raise AssertionError(f"a solve with n={n}, m={m} built the ({k}, 1) table")
                return grade_one_table(n_, k)

            def combos_up_to_ceiling(n_, k):
                if k > combos_up_to:
                    raise AssertionError(f"a solve with n={n}, m={m} enumerated grade {k}")
                return combos(n_, k)

            system, objective = random_instance(rng, n, m)
            spanned = Objective(span_combination(rng, system.rows))
            wedgeopt.forms._clear_caches()
            with monkeypatch.context() as patch:
                patch.setattr(wedgeopt.forms, "_grade1_table", table_below)
                patch.setattr(wedgeopt.forms, "_combos", combos_up_to_ceiling)
                patch.setattr(wedgeopt.solver, "_combos", combos_up_to_ceiling)
                assert optimal_direction(system, objective).status is SolveStatus.OPTIMAL
                assert optimal_direction(system, spanned).status is SolveStatus.DEGENERATE
                assert objective_value(system, objective, 1.0) > 0.0
                assert np.linalg.norm(degenerate_direction(system)) == pytest.approx(1.0)
            signs_built = wedgeopt.forms._hodge_signs.cache_info().currsize > 0
            assert signs_built == (2 * m > n and not reader), (n, m)

    @pytest.mark.parametrize(
        "n, m", [(4, 2), (7, 3), (9, 4), (10, 5), (12, 6), (13, 5), (5, 4), (9, 6), (10, 7), (12, 8)]
    )
    def test_blocks_are_bit_identical_to_the_per_slot_table_loop(self, monkeypatch, n, m):
        # the fold of low = min(m, n - m) rows, whose last wedge is the (low-1, 1)
        # product, on blocks and on the table's per-slot loop (not the 2-d
        # whole-table product, whose BLAS sums in another order)
        rows = np.random.default_rng(n * 100 + m).standard_normal((min(m, n - m), n))
        monkeypatch.setattr(wedgeopt.forms, "_WHOLE_TABLE_MAX", 0)
        results = []
        for block_min in (math.inf, 0):
            monkeypatch.setattr(wedgeopt.forms, "_BLOCK_MIN", block_min)
            results.append(wedgeopt.solver._wedge_rows(rows))
        assert np.array_equal(*results)

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


class TestNullProjector:
    def test_is_the_null_space_projector(self):
        rng = np.random.default_rng(48)
        shapes = [(n, m) for n in range(2, 10) for m in range(1, n)] + [(16, 9), (20, 14)]
        for n, m in shapes:
            system = random_system(rng, n, m)
            form = constraint_form(system)
            projector, norm_sq, exponent = wedgeopt.solver._null_projector(form.coeffs, n, m)
            unit_rows = system.rows / np.linalg.norm(system.rows, axis=1)[:, None]
            assert np.max(np.abs(projector @ unit_rows.T)) <= 1e-12
            assert np.max(np.abs(projector @ projector - projector)) <= 1e-12
            assert np.trace(projector) == pytest.approx(n - m, abs=1e-12)
            assert np.ldexp(norm_sq, exponent) == pytest.approx(form.norm() ** 2, rel=1e-14)

    def test_fallback_without_a_free_axis_is_a_domain_error(self):
        with pytest.raises(DomainError, match="largest is 0.0"):
            wedgeopt.solver._free_direction(lambda x: 0.0 * x, 3)

    def test_overflowing_constraint_form_is_a_domain_error(self):
        # the minors of three rows of size about 2^600 overflow, fold and det alike
        for n in (6, 4):
            system = ConstraintSystem(np.ldexp(np.eye(3, n) + 0.5, 600))
            with pytest.raises(DomainError, match="^form coefficients must be finite$"):
                optimal_direction(system, Objective(np.ones(n)))

    def test_zero_constraint_form_is_a_domain_error(self):
        # Three rows of size 2^-400 pass validation, but their minors underflow.
        system = ConstraintSystem(np.ldexp(np.eye(3, 4), -400))
        with pytest.raises(DomainError, match="nonzero"):
            optimal_direction(system, Objective([1.0, 1.0, 1.0, 1.0]))


class TestNeighbourProjector:
    """Past _WHOLE_TABLE_MAX targets C(n, low) the projector is read off one
    elimination of the scaled rows with complete pivoting, whose X holds the
    neighbours of a coefficient A_I divided by it; patched to 0, every shape
    reads it."""

    def test_matches_the_layout_and_is_the_null_space_projector(self, monkeypatch):
        rng = np.random.default_rng(50)
        for n in range(2, 10):
            for m in range(1, n):
                system = random_system(rng, n, m)
                form = constraint_form(system)
                layout = wedgeopt.solver._projector(system)
                with monkeypatch.context() as patch:
                    patch.setattr(wedgeopt.forms, "_WHOLE_TABLE_MAX", 0)
                    for name in ("_wedge_rows", "_null_projector", "_interior_rows"):
                        patch.setattr(wedgeopt.solver, name, None)  # no fold, minors or layout
                    projector, norm_sq, exponent = wedgeopt.solver._projector(system)
                unit_rows = system.rows / np.linalg.norm(system.rows, axis=1)[:, None]
                assert np.max(np.abs(projector @ unit_rows.T)) <= 1e-12
                assert np.max(np.abs(projector @ projector - projector)) <= 1e-12
                assert np.trace(projector) == pytest.approx(n - m, abs=1e-12)
                # a product of pivots, not a sum of squares: equal to rounding only
                assert np.ldexp(norm_sq, exponent) == pytest.approx(form.norm() ** 2, rel=1e-13)
                assert np.max(np.abs(projector - layout[0])) <= 1e-14, (n, m)

    def test_directions_match_a_qr_projector_on_reader_shapes(self):
        rng = np.random.default_rng(51)
        shapes = [(14, 6), (16, 8), (18, 9), (32, 3), (32, 4), (16, 9), (20, 14), (22, 16)]
        for n, m in shapes:
            assert wedgeopt.forms._per_split(n, min(m, n - m))
            for _ in range(5):
                system, objective = random_instance(rng, n, m)
                basis = np.linalg.qr(system.rows.T)[0]
                perp = objective.b - basis @ (basis.T @ objective.b)
                solution = optimal_direction(system, objective)
                assert np.max(np.abs(solution.direction - perp / np.linalg.norm(perp))) <= 1e-14

    def test_zero_pivot_is_a_domain_error(self):
        # past the rank test only through a direct call: the second row is the first
        system = ConstraintSystem(np.ones((2, 16)))
        with pytest.raises(DomainError, match="met the pivot 0.0"):
            wedgeopt.solver._pivoted_projector(system)


class TestPowerOfTwoScaling:
    """A random 3x6 system from default_rng(0) with its rows or objective
    scaled by 2^k: a solve gives the SVD reference direction or a clean
    DomainError or RankDeficientError, never a non-finite or non-unit one."""

    @staticmethod
    def instance():
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((3, 6))
        b = rng.standard_normal(6)
        return rows, b, null_space_direction(rows, b)

    def test_determinant_path_does_not_warn(self):
        # the batched det of the columns (1, 2) minor divides by zero inside
        # numpy, which the kernel ignores as it does over- and underflow
        rows = [[0.0, 1.8989466156040423e58, 0.0], [7.4e-323, -2.73045615165507e-147, 1e-147]]
        coeffs = constraint_form(ConstraintSystem(rows)).coeffs
        assert coeffs[2] == pytest.approx(1.8989466156040423e-89, rel=1e-15)

    @pytest.mark.parametrize("k", [-100, 100])
    def test_rows_within_range_solve(self, k):
        rows, b, expected = self.instance()
        solution = optimal_direction(ConstraintSystem(np.ldexp(rows, k)), Objective(b))
        assert solution.status is SolveStatus.OPTIMAL
        assert np.max(np.abs(solution.direction - expected)) <= 1e-12
        assert np.all(np.isfinite(solution.raw))
        assert solution.objective == pytest.approx(float(b @ expected), rel=1e-12)

    @pytest.mark.parametrize("n, m", [(18, 9), (20, 14)])
    @pytest.mark.parametrize("k", [-300, -100, -30, 30, 100, 300])
    def test_scaled_reader_rows_solve_or_refuse_the_ray(self, n, m, k):
        # Shapes past the projector rule eliminate the scaled rows, which no
        # row scale changes, so a solve either gives the reference direction
        # or refuses the ray ||A_form||^2 * b_perp, about 2^(2mk) times b_perp;
        # no minor of the rows over- or underflows on the way.
        rng = np.random.default_rng(n * 100 + m)
        rows, b = rng.standard_normal((m, n)), rng.standard_normal(n)
        system = ConstraintSystem(np.ldexp(rows, k))
        try:
            solution = optimal_direction(system, Objective(b))
        except DomainError as exc:
            assert abs(k) >= 100 and "the unnormalized ray ||A_form||^2 * b_perp" in str(exc)
        else:
            assert abs(k) < 100 and solution.status is SolveStatus.OPTIMAL
            assert np.max(np.abs(solution.direction - null_space_direction(rows, b))) <= 1e-12

    @pytest.mark.parametrize("k", [-1000, -600, -300, 200, 300, 600, 1000])
    def test_rows_out_of_range_raise_cleanly(self, k):
        # Out of range once the minors or ||A_form||^2 over- or underflow; the
        # rows themselves are valid and independent at every scale, and no
        # RuntimeWarning escapes (pytest turns one into an error).
        rows, b, _ = self.instance()
        system = ConstraintSystem(np.ldexp(rows, k))
        assert independent_rows(system.rows) == [0, 1, 2]
        with pytest.raises(DomainError):
            optimal_direction(system, Objective(b))

    def test_objective_value_out_of_range_raises(self):
        rows, b, _ = self.instance()
        with pytest.raises(DomainError, match="objective value"):
            objective_value(ConstraintSystem(rows), Objective(np.ldexp(b, 600)), 1.0)

    @pytest.mark.parametrize("rows_k, b_k", [(190, -300), (-190, 300)])
    def test_ray_in_range_while_form_norm_is_not(self, rows_k, b_k):
        # ||A_form||^2 is about 2^(6 rows_k), outside the double range, but the
        # ray ||A_form||^2 * b_perp is not; the projector is built from A_form
        # divided by a power of two, so neither the Gram product nor the norm
        # sees the out-of-range scale.
        rows, b, expected = self.instance()
        system = ConstraintSystem(np.ldexp(rows, rows_k))
        solution = optimal_direction(system, Objective(np.ldexp(b, b_k)))
        assert solution.status is SolveStatus.OPTIMAL
        assert np.max(np.abs(solution.direction - expected)) <= 1e-12
        assert np.all(np.isfinite(solution.raw)) and np.any(solution.raw)

    @pytest.mark.parametrize("k", [-1000, 600, 1000])
    @pytest.mark.parametrize("mode, sign", [("max", 1.0), ("min", -1.0)])
    def test_objective_scales_solve(self, k, mode, sign):
        rows, b, expected = self.instance()
        solution = optimal_direction(ConstraintSystem(rows), Objective(np.ldexp(b, k), mode))
        assert solution.status is SolveStatus.OPTIMAL
        assert np.max(np.abs(solution.direction - sign * expected)) <= 1e-12
        assert np.all(np.isfinite(solution.raw))


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

    @pytest.mark.parametrize("n, m", [(14, 6), (16, 8), (18, 9), (32, 4), (16, 9), (20, 14)])
    def test_reader_shape_builds_no_table(self, monkeypatch, n, m):
        # past the projector rule a cold solve eliminates the rows: it folds
        # nothing, takes no determinant and builds no table or index list
        def refuse(*args):
            raise AssertionError(f"a solve with n={n}, m={m} folded the rows or took a minor")

        monkeypatch.setattr(wedgeopt.solver, "_wedge_rows", refuse)
        monkeypatch.setattr(np.linalg, "det", refuse)
        system, objective = random_instance(np.random.default_rng(n * 100 + m), n, m)
        wedgeopt.forms._clear_caches()
        assert optimal_direction(system, objective).status is SolveStatus.OPTIMAL
        forms = wedgeopt.forms
        tables = (forms._combos, forms._grade1_table, forms._split_table, forms._hodge_signs)
        assert [table.cache_info().currsize for table in tables] == [0, 0, 0, 0]

    def test_wide_shape_peak(self):
        assert self.cold_peak_mb(32, 4) < 250.0

    def test_wide_shape_builds_no_grade_above_m(self):
        # 32x4 eliminates its rows; C(32, 5) = 201,376 targets of the (4, 1)
        # table are never enumerated.
        assert self.cold_peak_mb(32, 4) < 10.0

    def test_half_shape_peak(self):
        assert self.cold_peak_mb(18, 9) < 70.0

    def test_half_shape_builds_no_top_table(self):
        # 18x9 eliminates its rows: neither the (8, 1) table nor _combos(18, 9),
        # 7.0 MB together, nor any smaller table is built (26.4 MB with them)
        assert self.cold_peak_mb(18, 9) < 21.0

    @pytest.mark.parametrize("n, m", [(24, 22), (32, 31)])
    def test_tall_shape_peak(self, n, m):
        assert self.cold_peak_mb(n, m) < 5.0

    @pytest.mark.parametrize(
        "n, m",
        [(16, 8), (18, 9), (20, 10), (32, 4), (32, 5), (10, 9), (24, 22), (20, 14), (22, 16)],
    )
    def test_estimate_covers_cold_peak(self, n, m):
        # fold shapes up to 2m = n, where the estimate is tightest, and det shapes
        assert self.cold_peak_mb(n, m) * 1e6 <= wedgeopt.solver._solve_bytes(n, m)


class TestWorkBudget:
    """Shapes are refused by their estimated work, before anything is allocated."""

    @pytest.mark.parametrize("n, m", [(32, 16), (26, 13), (32, 9)])
    @pytest.mark.parametrize("solve", ["optimal_direction", "constraint_form"])
    def test_over_budget_refused_before_allocating(self, n, m, solve):
        rng = np.random.default_rng(n + m)
        system, objective = random_instance(rng, n, m)
        call = {
            "optimal_direction": lambda: optimal_direction(system, objective),
            "constraint_form": lambda: constraint_form(system),
        }[solve]
        with allocates_nothing(), pytest.raises(DomainError) as info:
            call()
        message = str(info.value)
        assert f"n={n}, m={m}" in message and "GiB" in message and "budget of 4 GiB" in message

    @pytest.mark.parametrize("n, m", [(32, 8), (24, 12), (32, 7)])
    def test_largest_solved_shapes_accepted(self, n, m):
        # Not solved here: they completed on an 8 GB host, at tracemalloc peaks of
        # about 2.8, 2.1 and 0.8 GB, when they still built their (low - 1, 1) tables;
        # on blocks they are estimated at 1.9, 1.6 and 0.5 GiB.
        wedgeopt.solver._check_shape(n, m)

    # Every n with a refused shape, and its first and last refused m: for each
    # n <= 64 and 1 <= m < n, the solves the budget refuses, 1300 of 2016.
    REFUSED = (
        (24, 13, 14), (25, 13, 16), (26, 12, 18), (27, 11, 19), (28, 11, 21), (29, 10, 22),
        (30, 10, 23), (31, 9, 25), (32, 9, 26), (33, 9, 27), (34, 9, 28), (35, 8, 29),
        (36, 8, 30), (37, 8, 31), (38, 8, 33), (39, 8, 34), (40, 8, 35), (41, 8, 36),
        (42, 8, 37), (43, 7, 38), (44, 7, 39), (45, 7, 40), (46, 7, 41), (47, 7, 42),
        (48, 7, 43), (49, 7, 44), (50, 7, 45), (51, 7, 47), (52, 7, 48), (53, 7, 49),
        (54, 7, 50), (55, 7, 51), (56, 7, 52), (57, 6, 53), (58, 6, 54), (59, 6, 55),
        (60, 6, 56), (61, 6, 57), (62, 6, 58), (63, 6, 59), (64, 6, 60),
    )

    def test_refused_shapes_are_pinned(self):
        refused = {n: range(first, last + 1) for n, first, last in self.REFUSED}
        assert sum(map(len, refused.values())) == 1300
        for n in range(2, 65):
            for m in range(1, n):
                try:
                    wedgeopt.solver._check_shape(n, m)
                    accepted = True
                except DomainError:
                    accepted = False
                assert accepted == (m not in refused.get(n, ())), (n, m)

    def test_wide_shape_solves_without_environment(self, monkeypatch):
        monkeypatch.delenv("WEDGEOPT_MAX_DIMENSION", raising=False)
        rng = np.random.default_rng(40)
        system, objective = random_instance(rng, 40, 2)
        solution = optimal_direction(system, objective)
        expected = null_space_direction(system.rows, objective.b)
        assert np.max(np.abs(solution.direction - expected)) <= 1e-12


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

    def test_across_the_float_range(self):
        # the norm of the first input underflows and that of the second
        # overflows, but the answer |a|^2 b = 1e-140 e2 is a double
        out = triple_product_direction([1e-170, 0, 0], [0, 1e200, 0])
        assert out[0] == out[2] == 0.0 and out[1] == pytest.approx(1e-140, rel=1e-15)
        assert not triple_product_direction([1e-300, 0, 0], [-1e300, 0, 0]).any()
        # |a|^2 b underflows or overflows: refused, not a zero vector that
        # calls the inputs parallel, nor an overflow
        for a in ([1e-200, 0, 0], [5e-324, 0, 0], [1e200, 0, 0]):
            with pytest.raises(DomainError, match="not representable"):
                triple_product_direction(a, [0, 1, 0])

    def test_gaussian_draws_match_the_plain_formula(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            assert np.array_equal(triple_product_direction(a, b), np.cross(a, np.cross(b, a)))

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


class TestPathsRunAlone:
    """Each path's rank test, projection map and ray scale run with the other
    path's patched to raise; only the shared driver and its rules are common."""

    @staticmethod
    def instances():
        """A fold shape (2m <= n), a det shape (2m > n), a degenerate and an
        unconstrained instance, each with its expected status."""
        rng = np.random.default_rng(48)
        system = random_system(rng, 6, 3)
        spanned = Objective(span_combination(rng, system.rows), "min")
        return [
            (*random_instance(rng, 6, 3), SolveStatus.OPTIMAL),
            (*random_instance(rng, 6, 5, "min"), SolveStatus.OPTIMAL),
            (system, spanned, SolveStatus.DEGENERATE),
            (random_system(rng, 6, 0), random_objective(rng, 6), SolveStatus.UNCONSTRAINED),
        ]

    @staticmethod
    def refuse_all(monkeypatch, module, names):
        def refuse(*args):
            raise AssertionError(f"a {module.__name__} step ran in the other path")

        for name in names:
            monkeypatch.setattr(module, name, refuse)

    @staticmethod
    def check(system, objective, status, solution, value, feasible):
        assert solution.status is status
        if status is SolveStatus.DEGENERATE:
            expected = null_space_axis(system.rows)
        else:
            sign = 1.0 if objective.mode == "max" else -1.0
            expected = null_space_direction(system.rows, objective.b) if system.m else objective.b
            expected = sign * expected / np.linalg.norm(expected)
        assert np.max(np.abs(solution.direction - expected)) <= 1e-12
        if system.m:
            ray_value = float(objective.b @ solution.raw)
            assert value == pytest.approx(ray_value if objective.mode == "max" else -ray_value)
        assert relative_residual(system.rows, feasible) <= 1e-10

    def test_solver_runs_without_the_oracle(self, monkeypatch):
        names = ["_gram_schmidt", "_remove_span", "perpendicular_component", "_project"]
        self.refuse_all(monkeypatch, wedgeopt.oracle, names)
        for system, objective, status in self.instances():
            value = objective_value(system, objective, 1.0) if system.m else None
            solution = optimal_direction(system, objective)
            self.check(system, objective, status, solution, value, degenerate_direction(system))

    def test_oracle_runs_without_the_solver(self, monkeypatch):
        names = ["_sigma_min", "_null_projector", "_pivoted_projector", "_projector"]
        names += ["constraint_form", "_wedge_rows", "_project"]
        self.refuse_all(monkeypatch, wedgeopt.solver, [*names, "degenerate_direction"])
        # and the same refusal under the oracle's name, should it import the rule
        refused = wedgeopt.solver.degenerate_direction
        monkeypatch.setattr(wedgeopt.oracle, "degenerate_direction", refused, raising=False)
        for system, objective, status in self.instances():
            value = oracle_value(system, objective, 1.0) if system.m else None
            solution = oracle_direction(system, objective)
            self.check(system, objective, status, solution, value, sample_feasible(system, 5))

    def test_oracle_builds_no_public_basis(self, monkeypatch):
        # the oracle solves on plain Gram-Schmidt arrays, so no per-row scale
        # has to fit in a double as OrthoBasis requires
        def refuse(self):
            raise AssertionError("a solve built an OrthoBasis")

        monkeypatch.setattr(wedgeopt.oracle.OrthoBasis, "__post_init__", refuse)
        for system, objective, status in self.instances():
            value = oracle_value(system, objective, 1.0) if system.m else None
            solution = oracle_direction(system, objective)
            self.check(system, objective, status, solution, value, sample_feasible(system, 5))

    def test_solver_builds_no_form(self, monkeypatch):
        # the wedge path solves on bare coefficient arrays; only the public
        # constraint_form wraps them in a KForm
        def refuse(self):
            raise AssertionError("a solve built a KForm")

        monkeypatch.setattr(wedgeopt.forms.KForm, "__post_init__", refuse)
        for system, objective, status in self.instances():
            value = objective_value(system, objective, 1.0) if system.m else None
            solution = optimal_direction(system, objective)
            self.check(system, objective, status, solution, value, degenerate_direction(system))


class TestSharedRules:
    """What the driver decides once for both paths: m = 0 and the degenerate direction."""

    @pytest.mark.parametrize("solve", [optimal_direction, oracle_direction])
    def test_no_degeneracy_test_without_rows(self, solve):
        # ||b_perp|| = ||b|| <= 2 ||b||, yet m = 0 is never degenerate
        objective = Objective([3.0, -4.0], "min")
        solution = solve(ConstraintSystem.unconstrained(2), objective, tolerance=2.0)
        assert solution.status is SolveStatus.UNCONSTRAINED
        assert np.array_equal(solution.direction, [-0.6, 0.8])
        assert np.array_equal(solution.raw, objective.b)

    def test_degenerate_directions_agree(self):
        rng = np.random.default_rng(49)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(1, n))
            system = random_system(rng, n, m)
            objective = Objective(span_combination(rng, system.rows))
            fast = optimal_direction(system, objective)
            slow = oracle_direction(system, objective)
            assert fast.status is slow.status is SolveStatus.DEGENERATE
            assert np.max(np.abs(fast.direction - slow.direction)) <= 1e-12
            assert np.array_equal(degenerate_direction(system), fast.direction)


# Every site that takes a real array, as a call on that array, with the name its
# errors give it and the number of dimensions it needs.
REAL_ARRAY_SITES = {
    "KForm": (lambda v: KForm(3, 1, v), "form coefficients", 1),
    "from_vector": (from_vector, "vector", 1),
    "ConstraintSystem": (ConstraintSystem, "constraint rows", 2),
    "Objective": (Objective, "objective", 1),
    "orthonormalize": (orthonormalize, "rows", 2),
    "perpendicular_component": (lambda v: perpendicular_component(v, OrthoBasis.empty(3)), "vector", 1),
    "triple_product_direction": (lambda v: triple_product_direction(v, [0.0, 1.0, 0.0]), "a", 1),
    "OrthoBasis": (lambda v: OrthoBasis(v, [1.0], 1), "basis vectors", 2),
    "OrthoBasis scales": (lambda v: OrthoBasis(np.eye(3), v, 3), "scales", 1),
}

# The sites that take a real or complex array, in the same form.
COMPLEX_ARRAY_SITES = {
    "ComplexProblem rows": (lambda v: ComplexProblem(v, [1.0, 0.0, 0.0]), "constraint rows", 2),
    "ComplexProblem b": (lambda v: ComplexProblem([[0.0, 0.0, 1.0]], v), "objective", 1),
    "independent_rows": (independent_rows, "rows", 2),
}


def _bad_arrays(ndim):
    """One input of each refused kind for a site of `ndim` dimensions and length 3."""
    valid = np.array([1.0, 0.0, 0.0]).reshape((1,) * (ndim - 1) + (3,))

    def with_first(entry):
        out = valid.astype(object)
        out[(0,) * ndim] = entry
        return out.tolist()

    return {
        "complex": valid + 0j,
        "complex list": (valid + 1j).tolist(),
        "string": with_first("x"),
        "ragged": [[1.0, 0.0], [0.0]] if ndim == 1 else [[1.0, 0.0, 0.0], [0.0]],
        "wrong ndim": valid[None],
        "nan": with_first(math.nan),
        "integer past the double range": with_first(10**400),
    }


class TestArgumentRules:
    """One rule per kind of argument: each real array, tolerance and t_star is
    checked by the same rule, and refused with a DomainError."""

    @pytest.mark.parametrize("kind", list(_bad_arrays(1)))
    @pytest.mark.parametrize("site", REAL_ARRAY_SITES)
    def test_real_array_sites_refuse(self, site, kind):
        call, what, ndim = REAL_ARRAY_SITES[site]
        with pytest.raises(DomainError, match=f"^{what} must "):
            call(_bad_arrays(ndim)[kind])

    @pytest.mark.parametrize("kind", [kind for kind in _bad_arrays(1) if "complex" not in kind])
    @pytest.mark.parametrize("site", COMPLEX_ARRAY_SITES)
    def test_complex_array_sites_refuse(self, site, kind):
        call, what, ndim = COMPLEX_ARRAY_SITES[site]
        with pytest.raises(DomainError, match=f"^{what} must "):
            call(_bad_arrays(ndim)[kind])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: OrthoBasis([[1.0, 0.0]], np.array([1 + 1j]), 1),
            lambda: ComplexProblem([["a", 1]], [1, 0]),
            lambda: ComplexProblem([[1, 0], [1]], [1, 0]),
            lambda: independent_rows([["a", "b"]]),
        ],
        ids=["complex scales", "string rows", "ragged rows", "string independent_rows"],
    )
    def test_arrays_once_converted_by_their_sites_refused(self, call):
        # a complex scale was truncated to its real part, the others raised bare numpy errors
        with pytest.raises(DomainError, match=" must be a [12]-d array of "):
            call()

    def test_complex_problem_from_real_rows_stores_complex_arrays(self):
        problem = ComplexProblem([[1, 0, 0]], [0.0, 2.0, 0.0])
        assert problem.rows.dtype == problem.b.dtype == complex
        assert problem.rows.tolist() == [[1, 0, 0]] and problem.b.tolist() == [0, 2, 0]
        assert not problem.rows.flags.writeable and not problem.b.flags.writeable

    def test_independent_rows_of_complex_rows_unchanged(self):
        rng = np.random.default_rng(52)
        rows = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
        rows[2] = (1 + 2j) * rows[0] - 1j * rows[1]
        rows[4] = 0
        assert independent_rows(rows) == independent_rows(rows.tolist()) == [0, 1, 3]
        # rounding to single precision leaves row 2 about 1e-8 off the span
        assert independent_rows(rows.astype(np.complex64)) == [0, 1, 2, 3]
        rows[3] = rows[0] + 1e-11j * rows[1]
        assert independent_rows(rows) == [0, 1]

    @pytest.mark.parametrize(
        "tolerance", [True, "0.5", np.array(0.5), 10**400], ids=["bool", "str", "0-d array", "big int"]
    )
    def test_tolerance_of_another_type_refused(self, tolerance):
        # not converted: True would run as the coefficient 1.0, "0.5" as 0.5
        system, objective = ConstraintSystem([[0.0, 0.0, 1.0]]), Objective([1.0, 0.0, 0.0])
        for solve in (optimal_direction, oracle_direction):
            with pytest.raises(DomainError, match="^tolerance must be a finite positive number"):
                solve(system, objective, tolerance)

    def test_tolerance_true_no_longer_calls_an_orthogonal_objective_degenerate(self):
        # b is orthogonal to the row, so ||b_perp|| = ||b||: degenerate only at a coefficient >= 1
        system, objective = ConstraintSystem([[1.0, 0.0, 0.0]]), Objective([0.0, 1.0, 0.0])
        with pytest.raises(DomainError, match="tolerance"):
            optimal_direction(system, objective, tolerance=True)
        assert optimal_direction(system, objective, np.float32(0.5)).status is SolveStatus.OPTIMAL
        assert optimal_direction(system, objective, np.int64(1)).status is SolveStatus.DEGENERATE

    @pytest.mark.parametrize("value", [objective_value, oracle_value])
    def test_infinite_t_star_refused_up_front(self, value):
        # refused before the solve, which has no rows to run on here
        with pytest.raises(DomainError, match="^t_star must be a finite positive number, got inf$"):
            value(ConstraintSystem.unconstrained(3), Objective([1.0, 0.0, 0.0]), math.inf)
        for t_star in (math.nan, 0.0, True, "1"):
            with pytest.raises(DomainError, match="^t_star must be a finite positive number"):
                value(ConstraintSystem([[1.0, 0.0, 0.0]]), Objective([1.0, 1.0, 0.0]), t_star)


class TestDegenerateRay:
    """A degenerate solve's perp is rounding, so both paths return the zero
    ray, and its value is exactly 0, as its objective is."""

    @staticmethod
    def instances():
        """Objectives in the row span: the random 3x6 system from
        default_rng(1), the same rows times 2^200, where a ray built from the
        rounding in perp would overflow, and fold (2m <= n) and det (2m > n)
        shapes."""
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((3, 6))
        b = rng.standard_normal(3) @ rows
        cases = [(ConstraintSystem(rows), b), (ConstraintSystem(np.ldexp(rows, 200)), b)]
        rng = np.random.default_rng(50)
        for n, m in [(7, 2), (8, 4), (4, 3), (9, 8)]:
            system = random_system(rng, n, m)
            cases.append((system, span_combination(rng, system.rows)))
        return cases

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_ray_and_values_are_zero(self, mode):
        for system, b in self.instances():
            objective = Objective(b, mode)
            for solve in (optimal_direction, oracle_direction):
                solution = solve(system, objective)
                assert solution.status is SolveStatus.DEGENERATE and solution.objective == 0.0
                assert np.array_equal(solution.raw, np.zeros(system.n))
            for value in (objective_value, oracle_value):
                assert math.copysign(1.0, value(system, objective, 1.0)) == 1.0  # +0.0
                assert value(system, objective, 1.0) == 0.0

    def test_complex_ray_is_zero(self):
        rng = np.random.default_rng(51)
        rows = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        b = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) @ rows
        solution = solve_complex(ComplexProblem(rows, b))
        assert solution.status is SolveStatus.DEGENERATE
        assert np.array_equal(solution.raw, np.zeros(4, dtype=complex))


class TestScaledOnce:
    """Rows and objective are brought into the double range once, when
    ConstraintSystem and Objective are built; no solve scales them again."""

    @pytest.mark.parametrize("n, m", [(6, 3), (5, 3)])  # fold (2m <= n) and det (2m > n)
    def test_solves_read_the_stored_scaling(self, monkeypatch, n, m):
        rng = np.random.default_rng(47)
        system, objective = random_instance(rng, n, m)

        def refuse(rows):
            raise AssertionError("the rows were scaled again")

        for module in (wedgeopt.solver, wedgeopt.oracle):
            monkeypatch.setattr(module, "_power_of_two_scaled", refuse)
        fast = optimal_direction(system, objective)
        slow = oracle_direction(system, objective)
        assert fast.status is slow.status is SolveStatus.OPTIMAL
        assert float(fast.direction @ slow.direction) >= 1.0 - 1e-12
        assert relative_residual(system.rows, degenerate_direction(system)) <= 1e-10
        assert relative_residual(system.rows, sample_feasible(system, 3)) <= 1e-10


class TestRankMargins:
    """Each path's RankDeficientError names its margin against RANK_TOLERANCE."""

    ROWS = [[1.0, 0.0, 0.0], [1.0, 1e-11, 0.0]]

    @staticmethod
    def margin(message):
        return float(re.search(r"is (\S+), at most RANK_TOLERANCE = 1e-10$", message).group(1))

    def test_solver_gives_the_smallest_singular_value_of_the_unit_rows(self):
        with pytest.raises(RankDeficientError, match="^constraint rows are linearly dependent") as info:
            optimal_direction(ConstraintSystem(self.ROWS), Objective([0.0, 0.0, 1.0]))
        assert "the solver's smallest singular value of the unit rows" in str(info.value)
        unit = np.array(self.ROWS) / np.linalg.norm(self.ROWS, axis=1)[:, None]
        sigma = np.linalg.svd(unit, compute_uv=False)[-1]
        assert self.margin(str(info.value)) == pytest.approx(sigma, rel=1e-3)

    def test_oracle_gives_the_first_row_dropped_and_its_residual_over_its_norm(self):
        with pytest.raises(RankDeficientError, match="^constraint rows are linearly dependent") as info:
            oracle_direction(ConstraintSystem(self.ROWS), Objective([0.0, 0.0, 1.0]))
        assert "the oracle's Gram-Schmidt residual of row 1 over its norm" in str(info.value)
        assert self.margin(str(info.value)) == pytest.approx(1e-11, rel=1e-3)
