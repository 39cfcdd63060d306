"""CLI tests: parsing, end-to-end solves, exit codes, formats, self-test."""

import copy
import dataclasses
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from helpers import allocates_nothing
from wedgeopt import cli
from wedgeopt.cli import SolveReport, evaluate_check, main, parse_problem, run_solve, self_test
from wedgeopt.complexify import ComplexProblem, solve_complex
from wedgeopt.errors import DomainError, ParseError, ValidationError
from wedgeopt.oracle import oracle_direction
from wedgeopt.solver import ConstraintSystem, Objective, Solution, SolveStatus, optimal_direction

SIMPLE_3D = {
    "field": "real",
    "n": 3,
    "m": 1,
    "A": [[0, 0, 1]],
    "B": [1, 0, 0],
    "mode": "max",
}


SIMPLE_COMPLEX = {
    "field": "complex",
    "n": 2,
    "m": 1,
    "A": [[[1, 0], [0, 1]]],
    "B": [[1, 0], [0, 1]],
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

    @pytest.mark.parametrize(
        "where, doc",
        [
            ("A[0][1]", dict(SIMPLE_3D, A=[[0, 10**400, 1]])),
            ("B[2]", dict(SIMPLE_3D, B=[1, 0, -(10**400)])),
            ("A[0][1][1]", dict(SIMPLE_COMPLEX, A=[[[1, 0], [0, 10**400]]])),
            ("tolerance", dict(SIMPLE_3D, tolerance=10**400)),
        ],
    )
    def test_integer_past_the_double_range(self, tmp_path, capsys, where, doc):
        # float() of such an integer raises OverflowError, unlike 1e400, which json reads as inf
        path = write_problem(tmp_path, doc)
        with pytest.raises(ValidationError, match=re.escape(where)):
            parse_problem(path)
        assert main(["--input", path, "--check"]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValidationError" and where in error["message"]

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"n": 2, "m": 0, "A": [], "B": [1, 1' + "0" * 5000 + "]}")
        assert main(["--input", str(path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ParseError"

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

    @pytest.mark.parametrize("k", [-100, 100])
    def test_rows_scaled_by_a_power_of_two_pass_check(self, tmp_path, capsys, k):
        rng = np.random.default_rng(0)
        rows, b = np.ldexp(rng.standard_normal((3, 6)), k), rng.standard_normal(6)
        doc = {"field": "real", "n": 6, "m": 3, "A": rows.tolist(), "B": b.tolist()}
        assert main(["--input", write_problem(tmp_path, doc), "--check"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == payload["oracle_status"] == "optimal"
        assert np.linalg.norm(payload["direction"]) == pytest.approx(1.0, abs=1e-12)

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
        message = err["error"]["message"]
        assert "the solver's smallest singular value of the unit rows is 0.0" in message
        assert main(["--input", path, "--reduce-rows"]) == 0

    @pytest.mark.parametrize("doc", [SIMPLE_3D, SIMPLE_COMPLEX], ids=["real", "complex"])
    def test_check_scales_the_rows_once_and_the_residual_once(self, tmp_path, monkeypatch, doc):
        import wedgeopt.oracle
        import wedgeopt.solver

        scaled = []

        def counting(rows, original=wedgeopt.solver._power_of_two_scaled):
            scaled.append(rows.shape)
            return original(rows)

        for module in (wedgeopt.solver, wedgeopt.oracle, cli):
            monkeypatch.setattr(module, "_power_of_two_scaled", counting)
        assert main(["--input", write_problem(tmp_path, doc), "--check"]) == 0
        # once where ConstraintSystem is built, once in the CLI residual
        assert len(scaled) == 2

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

    def test_dimension_environment_is_ignored(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WEDGEOPT_MAX_DIMENSION", "2")
        assert main(["--input", write_problem(tmp_path, SIMPLE_3D)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "optimal"

    def test_complex_cap_counts_realified_dimension(self, tmp_path, capsys):
        # Complex 16x8 is solved as real 32x16, over the work budget: refused
        # before the solve allocates anything.
        rng = np.random.default_rng(16)
        doc = {
            "field": "complex",
            "n": 16,
            "m": 8,
            "A": rng.standard_normal((8, 16, 2)).tolist(),
            "B": rng.standard_normal((16, 2)).tolist(),
        }
        path = write_problem(tmp_path, doc)
        with allocates_nothing():
            assert main(["--input", path, "--check"]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "DomainError"
        assert "n=32, m=16" in err["message"] and "budget" in err["message"]
        # 2n = 66 is past the hard dimension limit of 64; 2n = 40 is not
        for n, code in [(33, 1), (20, 0)]:
            doc = {"field": "complex", "n": n, "m": 1, "A": [[[1, 0]] * n], "B": [[0, 1]] * n}
            assert main(["--input", write_problem(tmp_path, doc)]) == code
            assert bool(capsys.readouterr().err) == bool(code)

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
    def test_report_fields_are_keyword_only_and_in_output_order(self):
        with pytest.raises(TypeError):
            SolveReport("real", 3, 1, "max", None, "optimal", 1.0, [], [], 0.0)
        report = SolveReport(
            field="complex", n=2, m=1, mode="min", status="optimal", objective=1.0,
            direction=[], raw=[], residual_max=0.0, objective_part="im", cosine_agreement=1.0,
        )
        assert list(report.to_dict()) == [
            "field", "n", "m", "mode", "objective_part", "status", "objective",
            "direction", "raw", "residual_max", "cosine_agreement", "timings",
        ]

    def test_residual_of_rows_past_the_square_range(self, tmp_path, capsys):
        # the squares of 1e200 overflow, so the rows are measured divided by 2^e
        rows = np.array([[1e200, 0.0, 0.0], [1e-200, 0.0, 0.0], [0.5, 0.0, 0.0]])
        assert cli._relative_residual(rows, np.array([0.6, 0.0, 0.8])) == pytest.approx(0.6)
        residual = cli._relative_residual(rows[1:2], np.array([0.6, 0.0, 0.8]))
        assert residual == pytest.approx(6e-201)
        doc = {"n": 4, "m": 2, "A": [[1e200, 0, 0, 0], [0, 1e-200, 0, 0]], "B": [1, 1, 1, 1]}
        assert main(["--input", write_problem(tmp_path, doc), "--check"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["residual_max"] <= 1e-12

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

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--tolerance", "0.5"], "--tolerance"),
            (["--reduce-rows"], "--reduce-rows"),
            (["--check"], "--check"),
            (["--tolerance", "0.5", "--reduce-rows", "--check"], "--tolerance"),
        ],
    )
    def test_solve_flags_refused(self, flags, named, capsys, monkeypatch):
        def no_self_test(*args):
            raise AssertionError("the self-test ran")

        monkeypatch.setattr(cli, "self_test", no_self_test)
        assert main(["--self-test", "3", "1", "3", "0", *flags]) == 1
        captured = capsys.readouterr()
        error = json.loads(captured.err)["error"]
        assert captured.out == ""
        assert error == {
            "type": "ValidationError",
            "message": f"{named} cannot be combined with --self-test",
        }

    def test_csv_carries_the_triple_cosine(self, capsys):
        for shape, has_triple in ((["3", "1"], True), (["4", "1"], False), (["3", "2"], False)):
            assert main(["--self-test", *shape, "5", "1", "--format", "csv"]) == 0
            header, values = capsys.readouterr().out.splitlines()
            columns = dict(zip(header.split(","), values.split(",")))
            assert ("min_triple_cosine" in columns) == has_triple
            assert main(["--self-test", *shape, "5", "1"]) == 0
            report = json.loads(capsys.readouterr().out)
            if has_triple:
                assert float(columns["min_triple_cosine"]) == report["min_triple_cosine"]

    @pytest.mark.parametrize("n, m", [(65, 1), (32, 16)])
    def test_oversized_shape_refused_before_first_trial(self, n, m, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_trials)
        with pytest.raises(DomainError):
            self_test(n, m, 5, 0)

    def test_negative_seed_exit_1(self, capsys):
        with pytest.raises(ValidationError, match="seed"):
            self_test(3, 1, 5, -1)
        assert main(["--self-test", "3", "1", "5", "-1"]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("value", [True, False, 2.0])
    def test_non_integer_argument_refused(self, position, value):
        args = [3, 1, 1, 0]
        args[position] = value
        name = ("n", "m", "trials", "seed")[position]
        with pytest.raises(ValidationError, match=f"^{name}: expected an integer"):
            self_test(*args)

    def test_trials_run_the_check_path(self, monkeypatch):
        def skewed_oracle(system, objective, tolerance=None):
            direction = np.zeros(system.n)
            direction[1] = 1.0
            return Solution(direction, direction, 0.5, SolveStatus.OPTIMAL)

        monkeypatch.setattr(cli, "oracle_direction", skewed_oracle)
        report, ok = self_test(4, 1, 3, 0)
        assert not ok
        assert {failure["trial"] for failure in report["failures"]} == {0, 1, 2}
        assert any("objective mismatch" in failure["reason"] for failure in report["failures"])

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
