"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
on passing runs as well.  Random batches use frozen seeds so the suite is
deterministic.
"""

import math
import time

import numpy as np
import pytest

from helpers import relative_residual
from reference import brute_hodge, brute_optimal_ray
from wedgeopt import forms
from wedgeopt.cli import run_solve, self_test
from wedgeopt.cli import ProblemSpec
from wedgeopt.complexify import ComplexProblem, solve_complex
from wedgeopt.errors import RankDeficientError
from wedgeopt.forms import KForm, hodge, wedge
from wedgeopt.oracle import oracle_direction, orthonormalize
from wedgeopt.solver import (
    ConstraintSystem,
    Objective,
    SolveStatus,
    objective_value,
    optimal_direction,
    triple_product_direction,
)


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def theorem_batch():
    """1000 random Gaussian instances solved by both paths (criteria 1 and 2)."""
    rng = np.random.default_rng(0)
    records = []
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(0, n))
        system = ConstraintSystem(rng.standard_normal((m, n)))
        objective = Objective(rng.standard_normal(n))
        fast = optimal_direction(system, objective)
        slow = oracle_direction(system, objective)
        records.append((system, objective, fast, slow))
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_1_cross_path_agreement(theorem_batch):
    records, elapsed = theorem_batch
    min_cosine = 1.0
    max_gap = 0.0
    for system, objective, fast, slow in records:
        assert fast.status == slow.status
        if fast.status is SolveStatus.OPTIMAL:
            min_cosine = min(min_cosine, float(fast.direction @ slow.direction))
            gap = abs(fast.objective - slow.objective)
            gap /= max(abs(fast.objective), abs(slow.objective))
            max_gap = max(max_gap, gap)
        else:
            assert np.array_equal(fast.direction, slow.direction)
    ok = min_cosine >= 1.0 - 1e-9 and max_gap <= 1e-9 and elapsed < 10.0
    report(
        "criterion 1 (cross-path theorem check)",
        ok,
        f"1000 instances, min cosine {min_cosine:.16f}, "
        f"max objective gap {max_gap:.3e}, solved in {elapsed:.2f}s",
    )


def test_criterion_2_feasibility(theorem_batch):
    records, _ = theorem_batch
    worst = 0.0
    for system, _, fast, _ in records:
        worst = max(worst, relative_residual(system.rows, fast.direction))
    report(
        "criterion 2 (feasibility)",
        worst <= 1e-9,
        f"max relative residual {worst:.3e} over 1000 instances",
    )


def test_criterion_3_maximality():
    rng = np.random.default_rng(0)
    worst_excess = -np.inf
    for _ in range(100):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(0, n))
        rows = rng.standard_normal((m, n))
        system = ConstraintSystem(rows)
        objective = Objective(rng.standard_normal(n))
        solution = optimal_direction(system, objective)
        draws = rng.standard_normal((10000, n))
        if m:
            basis = orthonormalize(rows)
            draws -= (draws @ basis.vectors.T) @ basis.vectors
            draws -= (draws @ basis.vectors.T) @ basis.vectors
        norms = np.linalg.norm(draws, axis=1)
        samples = draws[norms > 1e-8] / norms[norms > 1e-8, None]
        worst_excess = max(worst_excess, float(np.max(samples @ objective.b)) - solution.objective)
    report(
        "criterion 3 (maximality)",
        worst_excess <= 1e-9,
        f"100 instances x 10000 feasible samples, worst excess {worst_excess:.3e}",
    )


def test_criterion_4_3d_closed_forms():
    rng = np.random.default_rng(1)
    min_cosine = 1.0
    max_rel = 0.0
    for _ in range(1000):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        system = ConstraintSystem([a])
        objective = Objective(b)
        solution = optimal_direction(system, objective)
        triple = triple_product_direction(a, b)
        min_cosine = min(min_cosine, float(solution.direction @ triple) / np.linalg.norm(triple))
        value = objective_value(system, objective, 1.0)
        closed = float((a @ a) * (b @ b) - (a @ b) ** 2)
        max_rel = max(max_rel, abs(value - closed) / max(abs(value), abs(closed)))
    ok = min_cosine >= 1.0 - 1e-12 and max_rel <= 1e-12
    report(
        "criterion 4 (3D closed forms)",
        ok,
        f"1000 instances, triple-product min cosine {min_cosine:.16f}, "
        f"closed-form max relative gap {max_rel:.3e}",
    )


def test_criterion_5_algebra_suite():
    checks = 0
    # involution sign law on every basis form, n <= 8
    for n in range(1, 9):
        for k in range(0, n + 1):
            sign = -1.0 if (k * (n - k)) % 2 else 1.0
            size = math.comb(n, k)
            for position in range(size):
                coeffs = np.zeros(size)
                coeffs[position] = 1.0
                twice = hodge(hodge(KForm(n, k, coeffs)))
                assert np.array_equal(twice.coeffs, sign * coeffs)
                checks += 1
    # graded anticommutativity on every wedgeable basis pair, n <= 8
    for n in range(1, 9):
        for k in range(0, n + 1):
            for l in range(0, n - k + 1):
                sign = -1.0 if (k * l) % 2 else 1.0
                for p in range(math.comb(n, k)):
                    a = np.zeros(math.comb(n, k))
                    a[p] = 1.0
                    fa = KForm(n, k, a)
                    for q in range(math.comb(n, l)):
                        b = np.zeros(math.comb(n, l))
                        b[q] = 1.0
                        fb = KForm(n, l, b)
                        assert np.array_equal(wedge(fa, fb).coeffs, sign * wedge(fb, fa).coeffs)
                        checks += 1
    # associativity on every basis triple for n <= 5, random triples beyond
    for n in range(1, 6):
        for i in range(0, n + 1):
            for j in range(0, n - i + 1):
                for k in range(0, n - i - j + 1):
                    for p in range(math.comb(n, i)):
                        a = np.zeros(math.comb(n, i))
                        a[p] = 1.0
                        fa = KForm(n, i, a)
                        for q in range(math.comb(n, j)):
                            b = np.zeros(math.comb(n, j))
                            b[q] = 1.0
                            fb = KForm(n, j, b)
                            for r in range(math.comb(n, k)):
                                c = np.zeros(math.comb(n, k))
                                c[r] = 1.0
                                fc = KForm(n, k, c)
                                left = wedge(wedge(fa, fb), fc)
                                right = wedge(fa, wedge(fb, fc))
                                assert np.array_equal(left.coeffs, right.coeffs)
                                checks += 1
    # 1000 random forms for each law
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 1))
        form = KForm(n, k, rng.standard_normal(math.comb(n, k)))
        sign = -1.0 if (k * (n - k)) % 2 else 1.0
        assert np.array_equal(hodge(hodge(form)).coeffs, sign * form.coeffs)
        checks += 1
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 1))
        l = int(rng.integers(0, n - k + 1))
        a = KForm(n, k, rng.standard_normal(math.comb(n, k)))
        b = KForm(n, l, rng.standard_normal(math.comb(n, l)))
        sign = -1.0 if (k * l) % 2 else 1.0
        scale = a.norm() * b.norm() + 1.0
        assert np.allclose(wedge(a, b).coeffs, sign * wedge(b, a).coeffs, rtol=0, atol=1e-12 * scale)
        checks += 1
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        i = int(rng.integers(0, n + 1))
        j = int(rng.integers(0, n - i + 1))
        k = int(rng.integers(0, n - i - j + 1))
        a = KForm(n, i, rng.standard_normal(math.comb(n, i)))
        b = KForm(n, j, rng.standard_normal(math.comb(n, j)))
        c = KForm(n, k, rng.standard_normal(math.comb(n, k)))
        left = wedge(wedge(a, b), c)
        right = wedge(a, wedge(b, c))
        scale = a.norm() * b.norm() * c.norm() + 1.0
        assert np.allclose(left.coeffs, right.coeffs, rtol=0, atol=1e-11 * scale)
        checks += 1
    # Hodge versus brute-force Levi-Civita enumeration, n <= 6
    worst_brute = 0.0
    for n in range(1, 7):
        for k in range(0, n + 1):
            size = math.comb(n, k)
            for position in range(size):
                coeffs = np.zeros(size)
                coeffs[position] = 1.0
                expected = brute_hodge(n, k, coeffs)
                assert np.array_equal(hodge(KForm(n, k, coeffs)).coeffs, expected)
                checks += 1
            for _ in range(5):
                coeffs = rng.standard_normal(size)
                got = hodge(KForm(n, k, coeffs)).coeffs
                expected = brute_hodge(n, k, coeffs)
                worst_brute = max(worst_brute, float(np.max(np.abs(got - expected))))
                assert np.allclose(got, expected, atol=1e-13)
                checks += 1
    report(
        "criterion 5 (Hodge/wedge algebra suite)",
        True,
        f"{checks} checks passed; worst brute-force Hodge deviation {worst_brute:.3e}",
    )


def test_criterion_6_epsilon_contraction_oracle():
    rng = np.random.default_rng(13)
    min_cosine = 1.0
    count = 0
    for n in range(2, 7):
        for m in range(1, n):
            for _ in range(8):
                rows = rng.standard_normal((m, n))
                b = rng.standard_normal(n)
                solution = optimal_direction(ConstraintSystem(rows), Objective(b))
                ray = brute_optimal_ray(rows, b)
                min_cosine = min(min_cosine, float(solution.direction @ ray) / np.linalg.norm(ray))
                count += 1
    report(
        "criterion 6 (brute-force double-contraction oracle)",
        min_cosine >= 1.0 - 1e-10,
        f"{count} instances over n in [2,6], min cosine {min_cosine:.16f}",
    )


def test_criterion_7_degeneracy_and_rank():
    rng = np.random.default_rng(0)
    degenerate_ok = 0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, n))
        rows = rng.standard_normal((m, n))
        while True:
            b = rng.standard_normal(m) @ rows
            if np.linalg.norm(b) > 1e-2:
                break
        system = ConstraintSystem(rows)
        objective = Objective(b)
        fast = optimal_direction(system, objective)
        slow = oracle_direction(system, objective)
        assert fast.status is SolveStatus.DEGENERATE and slow.status is SolveStatus.DEGENERATE
        assert fast.objective == 0.0 and slow.objective == 0.0
        assert abs(np.linalg.norm(fast.direction) - 1.0) <= 1e-9
        assert relative_residual(rows, fast.direction) <= 1e-9
        degenerate_ok += 1

    rank_ok = 0
    for trial in range(100):
        n = int(rng.integers(3, 13))
        m = int(rng.integers(2, n))
        rows = rng.standard_normal((m, n))
        dup = int(rng.integers(1, m))
        while True:
            combo = rng.standard_normal(dup) @ rows[:dup]
            if np.linalg.norm(combo) > 1e-2:
                break
        rows[dup] = combo
        system = ConstraintSystem(rows)
        objective = Objective(rng.standard_normal(n))
        with pytest.raises(RankDeficientError):
            optimal_direction(system, objective)
        with pytest.raises(RankDeficientError):
            oracle_direction(system, objective)
        # the same instance solves after dropping dependent rows
        spec = ProblemSpec(field="real", n=n, m=m, a=rows, b=objective.b)
        solved = run_solve(spec, reduce_rows=True)
        assert solved.status in ("optimal", "degenerate")
        assert relative_residual(rows, np.array(solved.direction)) <= 1e-9
        rank_ok += 1
    report(
        "criterion 7 (degeneracy and rank handling)",
        degenerate_ok == 100 and rank_ok == 100,
        f"{degenerate_ok}/100 spanned objectives degenerate, "
        f"{rank_ok}/100 dependent systems raised and solved after row reduction",
    )


def test_criterion_8_complexification():
    rng = np.random.default_rng(0)
    worst_feasibility = 0.0
    worst_phase = 0.0
    worst_embedding = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(0, n))
        rows = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        solution = solve_complex(ComplexProblem(rows, b, "re"))
        assert abs(float(np.sum(np.abs(solution.direction) ** 2)) - 1.0) <= 1e-12
        if m:
            scale = np.maximum(1.0, np.linalg.norm(rows, axis=1))
            worst_feasibility = max(
                worst_feasibility, float(np.max(np.abs(rows @ solution.direction) / scale))
            )
        by_im = solve_complex(ComplexProblem(rows, b, "im"))
        by_rot = solve_complex(ComplexProblem(rows, -1j * b, "re"))
        worst_phase = max(worst_phase, float(np.max(np.abs(by_im.direction - by_rot.direction))))

        real_rows = rng.standard_normal((m, n))
        real_b = rng.standard_normal(n)
        if (m == 0 or np.all(np.linalg.norm(real_rows, axis=1) > 1e-3)) and np.linalg.norm(real_b) > 1e-3:
            embedded = solve_complex(
                ComplexProblem(real_rows.astype(complex), real_b.astype(complex), "re")
            )
            real = optimal_direction(ConstraintSystem(real_rows), Objective(real_b))
            worst_embedding = max(
                worst_embedding,
                abs(embedded.objective - real.objective) / max(1.0, abs(real.objective)),
            )
    ok = worst_feasibility <= 1e-9 and worst_phase <= 1e-9 and worst_embedding <= 1e-9
    report(
        "criterion 8 (complexification)",
        ok,
        f"200 instances: feasibility {worst_feasibility:.3e}, phase covariance "
        f"{worst_phase:.3e}, real embedding gap {worst_embedding:.3e}",
    )


def test_criterion_9_performance():
    forms._clear_caches()
    rng = np.random.default_rng(5)
    system = ConstraintSystem(rng.standard_normal((8, 16)))
    objective = Objective(rng.standard_normal(16))
    start = time.perf_counter()
    solution = optimal_direction(system, objective)
    single = time.perf_counter() - start
    assert solution.status is SolveStatus.OPTIMAL
    assert relative_residual(system.rows, solution.direction) <= 1e-9

    forms._clear_caches()
    start = time.perf_counter()
    _, ok = self_test(12, 6, 100, 3)
    batch = time.perf_counter() - start
    passed = single < 1.0 and batch < 30.0 and ok
    report(
        "criterion 9 (performance sanity)",
        passed,
        f"cold n=16 m=8 solve {single:.3f}s (< 1 s), "
        f"self-test n=12 m=6 trials=100 {batch:.2f}s (< 30 s)",
    )
