"""CLI tests: parsing, end-to-end solves, exit codes, formats, self-test."""

import copy
import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from wedgeopt.cli import evaluate_check, main, parse_problem, run_solve, self_test
from wedgeopt.complexify import ComplexProblem, solve_complex
from wedgeopt.errors import DomainError, ParseError, ValidationError
from wedgeopt.oracle import oracle_direction
from wedgeopt.solver import ConstraintSystem, Objective, optimal_direction

SIMPLE_3D = {
    "field": "real",
    "n": 3,
    "m": 1,
    "A": [[0, 0, 1]],
    "B": [1, 0, 0],
    "mode": "max",
}


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseProblem:
    def test_valid_example(self, tmp_path):
        spec = parse_problem(write_problem(tmp_path, SIMPLE_3D))
        assert spec.field == "real"
        assert (spec.n, spec.m, spec.mode) == (3, 1, "max")
        assert np.array_equal(spec.a, [[0.0, 0.0, 1.0]])
        assert np.array_equal(spec.b, [1.0, 0.0, 0.0])

    def test_short_row_rejected(self, tmp_path):
        doc = dict(SIMPLE_3D, A=[[0, 1]])
        with pytest.raises(ValidationError):
            parse_problem(write_problem(tmp_path, doc))

    def test_m_equal_n_rejected(self, tmp_path):
        doc = dict(SIMPLE_3D, m=3, A=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ValidationError, match="m < n"):
            parse_problem(write_problem(tmp_path, doc))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"field": "real", "n": 3,')
        with pytest.raises(ParseError, match=r":\d+:\d+:"):
            parse_problem(str(path))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_problem("/nonexistent/problem.json")

    def test_missing_key(self, tmp_path):
        doc = {k: v for k, v in SIMPLE_3D.items() if k != "B"}
        with pytest.raises(ParseError, match="B"):
            parse_problem(write_problem(tmp_path, doc))

    def test_unknown_key(self, tmp_path):
        doc = dict(SIMPLE_3D, extra=1)
        with pytest.raises(ParseError, match="extra"):
            parse_problem(write_problem(tmp_path, doc))

    def test_non_numeric_entry(self, tmp_path):
        doc = dict(SIMPLE_3D, B=[1, "x", 0])
        with pytest.raises(ParseError, match=r"B\[1\]"):
            parse_problem(write_problem(tmp_path, doc))

    def test_non_finite_entry(self, tmp_path):
        doc = dict(SIMPLE_3D, B=[1, float("inf"), 0])
        path = tmp_path / "inf.json"
        path.write_text('{"field":"real","n":3,"m":1,"A":[[0,0,1]],"B":[1,Infinity,0]}')
        with pytest.raises(ValidationError, match="finite"):
            parse_problem(str(path))

    def test_complex_scalars(self, tmp_path):
        doc = {
            "field": "complex",
            "n": 2,
            "m": 1,
            "A": [[[1, 0], [0, 1]]],
            "B": [[1, 0], [0, 0]],
            "objective_part": "re",
        }
        spec = parse_problem(write_problem(tmp_path, doc))
        assert spec.a[0, 1] == 1j
        assert spec.part == "re"

    def test_objective_part_rejected_for_real(self, tmp_path):
        doc = dict(SIMPLE_3D, objective_part="re")
        with pytest.raises(ValidationError, match="complex"):
            parse_problem(write_problem(tmp_path, doc))


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_unusable_tolerance_rejected(tmp_path, capsys, tolerance):
    # json.dumps writes NaN and Infinity, which json parses back
    path = write_problem(tmp_path, dict(SIMPLE_3D, tolerance=tolerance))
    assert main(["--input", path, "--check"]) == 1
    assert "tolerance" in json.loads(capsys.readouterr().err)["error"]["message"]
    path = write_problem(tmp_path, SIMPLE_3D)
    assert main(["--input", path, "--check", f"--tolerance={tolerance!r}"]) == 1
    assert "tolerance" in json.loads(capsys.readouterr().err)["error"]["message"]
    system, objective = ConstraintSystem([[0.0, 0.0, 1.0]]), Objective([1.0, 0.0, 0.0])
    for solve in (optimal_direction, oracle_direction):
        with pytest.raises(DomainError, match="tolerance"):
            solve(system, objective, tolerance)
    with pytest.raises(DomainError, match="tolerance"):
        solve_complex(ComplexProblem([[0, 1]], [1, 0]), tolerance)


class TestRunSolve:
    def test_simple_solve_with_check(self, tmp_path):
        spec = parse_problem(write_problem(tmp_path, SIMPLE_3D))
        report = run_solve(spec, check_oracle=True)
        assert report.status == "optimal"
        assert report.cosine_agreement >= 1.0 - 1e-9
        assert report.residual_max <= 1e-12
        ok, reason = evaluate_check(report)
        assert ok, reason

    def test_check_fails_on_nan(self, tmp_path):
        report = run_solve(parse_problem(write_problem(tmp_path, SIMPLE_3D)), check_oracle=True)
        assert evaluate_check(report)[0]
        for key in ("cosine_agreement", "objective"):
            ok, reason = evaluate_check(dataclasses.replace(report, **{key: float("nan")}))
            assert not ok and "nan" in reason

    def test_degenerate_reported(self, tmp_path):
        doc = dict(SIMPLE_3D, B=[0, 0, 2])
        spec = parse_problem(write_problem(tmp_path, doc))
        report = run_solve(spec, check_oracle=True)
        assert report.status == "degenerate"
        assert report.objective == 0.0
        assert report.cosine_agreement is None
        ok, _ = evaluate_check(report)
        assert ok

    def test_reduce_rows(self, tmp_path):
        doc = {
            "field": "real",
            "n": 3,
            "m": 2,
            "A": [[0, 0, 1], [0, 0, 2]],
            "B": [1, 0, 0],
        }
        spec = parse_problem(write_problem(tmp_path, doc))
        report = run_solve(spec, reduce_rows=True)
        assert report.dropped_rows == [1]
        assert report.m == 1
        assert np.allclose(report.direction, [1.0, 0.0, 0.0])

    def test_reduce_rows_uses_the_solver_rank_rule(self, tmp_path, capsys):
        # Scaled to unit norm these rows are 45 degrees apart, so the solver
        # keeps both with or without --reduce-rows; b lies in their span.
        doc = {"n": 3, "m": 2, "A": [[1, 0, 0], [1e-12, 1e-12, 0]], "B": [0, 1, 0]}
        path = write_problem(tmp_path, doc)
        payloads = []
        for extra in ([], ["--reduce-rows"]):
            assert main(["--input", path, *extra]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        plain, reduced = payloads
        assert plain["status"] == reduced["status"] == "degenerate"
        assert plain["direction"] == reduced["direction"]
        assert np.allclose(np.abs(reduced["direction"]), [0.0, 0.0, 1.0], atol=1e-12)
        assert reduced["dropped_rows"] == [] and reduced["m"] == 2


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        assert main(["--input", write_problem(tmp_path, SIMPLE_3D), "--check"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "optimal"
        assert payload["cosine_agreement"] >= 1.0 - 1e-9

    def test_degenerate_is_success(self, tmp_path, capsys):
        doc = dict(SIMPLE_3D, B=[0, 0, 5])
        assert main(["--input", write_problem(tmp_path, doc)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "degenerate"
        assert payload["objective"] == 0.0

    def test_unconstrained_problem(self, tmp_path, capsys):
        doc = {"field": "real", "n": 2, "m": 0, "A": [], "B": [3, 4]}
        assert main(["--input", write_problem(tmp_path, doc), "--check"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "unconstrained"
        assert payload["objective"] == pytest.approx(5.0)
        assert payload["direction"] == pytest.approx([0.6, 0.8])

    def test_validation_failure(self, tmp_path, capsys):
        doc = dict(SIMPLE_3D, m=3, A=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert main(["--input", write_problem(tmp_path, doc)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"

    def test_rank_deficiency_exit_2(self, tmp_path, capsys):
        doc = {
            "field": "real",
            "n": 3,
            "m": 2,
            "A": [[0, 0, 1], [0, 0, 2]],
            "B": [1, 0, 0],
        }
        path = write_problem(tmp_path, doc)
        assert main(["--input", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "RankDeficientError"
        assert main(["--input", path, "--reduce-rows"]) == 0

    def test_requires_exactly_one_action(self, capsys):
        assert main([]) == 1
        capsys.readouterr()
        assert main(["--input", "x.json", "--self-test", "3", "1", "1", "0"]) == 1
        capsys.readouterr()

    def test_missing_file_exit_1(self, capsys):
        assert main(["--input", "/nonexistent/problem.json"]) == 1
        capsys.readouterr()

    def test_tolerance_flag_flips_near_degenerate(self, tmp_path, capsys):
        doc = {
            "field": "real",
            "n": 3,
            "m": 1,
            "A": [[0, 0, 1]],
            "B": [1e-8, 0, 1],
        }
        path = write_problem(tmp_path, doc)
        assert main(["--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "optimal"
        assert main(["--input", path, "--tolerance", "1e-3"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "degenerate"

    def test_oracle_disagreement_exit_2(self, tmp_path, capsys, monkeypatch):
        import wedgeopt.cli as cli
        from wedgeopt.solver import Solution, SolveStatus

        def skewed_oracle(system, objective, tolerance=None):
            direction = np.zeros(system.n)
            direction[1] = 1.0
            return Solution(direction, direction, 0.5, SolveStatus.OPTIMAL)

        monkeypatch.setattr(cli, "oracle_direction", skewed_oracle)
        assert main(["--input", write_problem(tmp_path, SIMPLE_3D), "--check"]) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert "cross-check" in err["error"]["message"]
        # the report itself is still emitted for inspection
        assert json.loads(captured.out)["status"] == "optimal"

    def test_dimension_cap_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WEDGEOPT_MAX_DIMENSION", "2")
        assert main(["--input", write_problem(tmp_path, SIMPLE_3D)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"

    def test_complex_cap_counts_realified_dimension(self, tmp_path, capsys):
        n = 20  # within the cap of 32, but solved as a 40-dimensional real system
        doc = {"field": "complex", "n": n, "m": 1, "A": [[[1, 0]] * n], "B": [[0, 1]] * n}
        assert main(["--input", write_problem(tmp_path, doc)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValidationError"
        assert "n=20" in err["message"] and "2n=40" in err["message"]

    def test_complex_end_to_end(self, tmp_path, capsys):
        doc = {
            "field": "complex",
            "n": 2,
            "m": 1,
            "A": [[[1, 0], [0, 1]]],
            "B": [[1, 0], [0, 0]],
            "objective_part": "re",
        }
        assert main(["--input", write_problem(tmp_path, doc), "--check"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] == pytest.approx(1 / np.sqrt(2.0), rel=1e-9)
        direction = np.array([re + 1j * im for re, im in payload["direction"]])
        assert np.allclose(direction, [1 / np.sqrt(2.0), 1j / np.sqrt(2.0)], atol=1e-9)


class TestOutputContracts:
    def test_round_trip_residual(self, tmp_path, capsys):
        rng = np.random.default_rng(81)
        doc = {
            "field": "real",
            "n": 6,
            "m": 3,
            "A": rng.standard_normal((3, 6)).tolist(),
            "B": rng.standard_normal(6).tolist(),
        }
        path = write_problem(tmp_path, doc)
        assert main(["--input", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = np.array(doc["A"])
        direction = np.array(payload["direction"])
        scale = np.maximum(1.0, np.linalg.norm(rows, axis=1))
        recomputed = float(np.max(np.abs(rows @ direction) / scale))
        assert recomputed <= 2.0 * max(payload["residual_max"], 1e-300)

    def test_deterministic_output(self, tmp_path, capsys):
        rng = np.random.default_rng(82)
        doc = {
            "field": "real",
            "n": 5,
            "m": 2,
            "A": rng.standard_normal((2, 5)).tolist(),
            "B": rng.standard_normal(5).tolist(),
        }
        path = write_problem(tmp_path, doc)
        outputs = []
        for _ in range(2):
            assert main(["--input", path, "--check"]) == 0
            payload = json.loads(capsys.readouterr().out)
            del payload["timings"]
            outputs.append(json.dumps(payload, sort_keys=True))
        assert outputs[0] == outputs[1]

    def test_csv_format(self, tmp_path, capsys):
        assert main(["--input", write_problem(tmp_path, SIMPLE_3D), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        headers = lines[0].split(",")
        values = lines[1].split(",")
        assert headers[:5] == ["field", "n", "m", "mode", "status"]
        record = dict(zip(headers, values))
        assert record["status"] == "optimal"
        assert float(record["direction_1"]) == pytest.approx(1.0)

    def test_csv_complex_flattening(self, tmp_path, capsys):
        doc = {
            "field": "complex",
            "n": 2,
            "m": 1,
            "A": [[[1, 0], [0, 1]]],
            "B": [[1, 0], [0, 0]],
        }
        assert main(["--input", write_problem(tmp_path, doc), "--format", "csv"]) == 0
        headers = capsys.readouterr().out.splitlines()[0].split(",")
        assert "direction_1_re" in headers and "direction_2_im" in headers


class TestSelfTest:
    def test_small_run_passes(self):
        report, ok = self_test(6, 3, 100, 7)
        assert ok
        assert report["max_residual"] <= 1e-9
        assert report["min_cosine"] >= 1.0 - 1e-6
        assert report["statuses"].get("optimal") == 100

    def test_triple_product_comparison(self):
        report, ok = self_test(3, 1, 100, 11)
        assert ok
        assert report["min_triple_cosine"] >= 1.0 - 1e-12

    def test_zero_trials(self, capsys):
        assert main(["--self-test", "4", "2", "0", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 0
        assert payload["passed"] is True

    def test_unconstrained_trials(self):
        report, ok = self_test(5, 0, 10, 3)
        assert ok
        assert report["statuses"] == {"unconstrained": 10}

    def test_bad_arguments_exit_1(self, capsys):
        assert main(["--self-test", "3", "3", "5", "0"]) == 1
        capsys.readouterr()

    def test_negative_seed_exit_1(self, capsys):
        with pytest.raises(ValidationError, match="seed"):
            self_test(3, 1, 5, -1)
        assert main(["--self-test", "3", "1", "5", "-1"]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValidationError"

    def test_deterministic(self):
        first, _ = self_test(5, 2, 10, 42)
        second, _ = self_test(5, 2, 10, 42)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_module_entry_point(tmp_path):
    path = write_problem(tmp_path, SIMPLE_3D)
    result = subprocess.run(
        [sys.executable, "-m", "wedgeopt", "--input", path, "--check"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["status"] == "optimal"
