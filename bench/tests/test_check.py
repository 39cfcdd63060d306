"""Tests of the benchmark's reference and checker; run with `python3 -m pytest bench/tests`.

A checker that passes everything would let a broken program through, so
each gate is shown to reject one kind of wrong output.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _problem(seed: int, n: int = 6, m: int = 3, mode: str = "max"):
    rng = np.random.default_rng(seed)
    return workloads.draw(rng, "real", n, m, mode)


@pytest.mark.parametrize("seed", range(20))
def test_reference_matches_triple_product(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    triple = np.cross(a, np.cross(b, a))
    expected = check.expect(a[None, :], b, "max")
    np.testing.assert_allclose(expected.direction, triple / np.linalg.norm(triple), atol=1e-12)
    minimum = check.expect(a[None, :], b, "min")
    np.testing.assert_allclose(minimum.direction, -triple / np.linalg.norm(triple), atol=1e-12)


def test_correct_output_passes():
    expected = _problem(1).expected()
    direction = expected.direction
    assert check.check(expected, direction, "optimal", float(expected.b @ direction)) is None


def test_negated_direction_fails():
    expected = _problem(2).expected()
    direction = -expected.direction
    assert check.check(expected, direction, "optimal", float(expected.b @ direction)) is not None


def test_perturbed_direction_fails():
    # A feasible perturbation, so only the cosine gate can catch it.
    expected = _problem(3).expected()
    rng = np.random.default_rng(3)
    step = check.null_projection(expected.rows, rng.standard_normal(expected.b.shape))
    step -= (step @ expected.direction) * expected.direction
    direction = expected.direction + 1e-3 * step / np.linalg.norm(step)
    direction /= np.linalg.norm(direction)
    assert check.check(expected, direction, "optimal", float(expected.b @ direction)) is not None


def test_infeasible_direction_fails():
    # A small step into the row span, so only the residual gate can catch it.
    expected = _problem(9).expected()
    direction = expected.direction + 1e-6 * expected.rows[0] / np.linalg.norm(expected.rows[0])
    direction /= np.linalg.norm(direction)
    assert check.check(expected, direction, "optimal", float(expected.b @ direction)) is not None


def test_wrong_status_fails():
    expected = _problem(4).expected()
    direction = expected.direction
    assert check.check(expected, direction, "degenerate", float(expected.b @ direction)) is not None
    rng = np.random.default_rng(4)
    degenerate = workloads.draw(rng, "real", 6, 3, "max", degenerate=True).expected()
    feasible = check.null_projection(degenerate.rows, rng.standard_normal(6))
    feasible /= np.linalg.norm(feasible)
    assert check.check(degenerate, feasible, "degenerate", 0.0) is None
    assert check.check(degenerate, feasible, "optimal", 0.0) is not None


def test_non_unit_direction_fails():
    expected = _problem(5).expected()
    direction = 1.001 * expected.direction
    assert check.check(expected, direction, "optimal", float(expected.b @ direction)) is not None


def test_wrong_sign_for_min_fails():
    maximum = _problem(6, mode="max").expected()
    minimum = check.Expected(maximum.rows, maximum.b, -1.0, -maximum.direction)
    direction = maximum.direction
    assert check.check(minimum, direction, "optimal", float(minimum.b @ direction)) is not None


@pytest.mark.parametrize("b_k", workloads.SCALED_B_K)
def test_correct_answer_to_b_scaled_problem_passes(b_k):
    # The program reports the objective of the b it was given, b * 2**b_k.
    problem = replace(_problem(10), b_k=b_k)
    expected = problem.expected()
    direction = expected.direction
    objective = float(problem.program_b() @ direction)
    assert check.check(expected, direction, "optimal", objective) is None
    unscaled_objective = float(problem.b @ direction)
    assert check.check(expected, direction, "optimal", unscaled_objective) is not None


def test_complex_reference_is_feasible_and_checked():
    rng = np.random.default_rng(7)
    problem = workloads.draw(rng, "complex", 4, 2, "max", part="im")
    expected = problem.expected()
    n = problem.n
    direction = expected.direction[:n] + 1j * expected.direction[n:]
    np.testing.assert_allclose(problem.rows @ direction, 0.0, atol=1e-12)
    value = float((problem.b @ direction).imag)
    assert check.check(expected, direction, "optimal", value) is None
    assert check.check(expected, 1j * direction, "optimal", value) is not None


def test_cli_output_checks():
    problem = _problem(8)
    expected = problem.expected()
    direction = [float(x) for x in expected.direction]
    objective = float(expected.b @ expected.direction)
    doc = {
        "status": "optimal",
        "objective": objective,
        "direction": direction,
        "oracle_status": "optimal",
        "oracle_direction": direction,
        "oracle_objective": objective,
    }
    assert check.check_cli(expected, "json", (), 0, json.dumps(doc)) is None
    assert check.check_cli(expected, "json", (), 2, json.dumps(doc)) is not None
    bad_oracle = {**doc, "oracle_direction": [-x for x in direction]}
    assert check.check_cli(expected, "json", (), 0, json.dumps(bad_oracle)) is not None
    header = ",".join(["status", "objective"] + [f"direction_{i}" for i in range(1, 7)])
    row = ",".join(["optimal", repr(objective)] + [repr(x) for x in direction])
    assert check.check_cli(expected, "csv", (), 0, header + "\n" + row + "\n") is None
    negated = ",".join(["optimal", repr(-objective)] + [repr(-x) for x in direction])
    assert check.check_cli(expected, "csv", (), 0, header + "\n" + negated + "\n") is not None


def test_inputs_depend_on_the_seed_only_through_their_numbers():
    first, second = workloads.lib_problems(1), workloads.lib_problems(2)
    assert [p.shape for p in first] == [p.shape for p in second]
    assert [p.degenerate for p in first] == [p.degenerate for p in second]
    assert not np.array_equal(first[0].rows, second[0].rows)
    scaled = [p for p in first if p.scaled]
    assert len(scaled) == len(workloads.SCALED_ROWS_K) + len(workloads.SCALED_B_K)
    assert all(np.array_equal(p.rows, q.rows) for p, q in zip(scaled, (q for q in second if q.scaled)))


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
