"""Command line front end: solve a problem file, cross-check it, or self-test.

Problem files are JSON objects; see the README for the exact schema.
Exit codes: 0 success (degenerate included), 1 parse or validation failure,
2 numerical failure (rank deficiency, oracle disagreement under --check,
self-test breach).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .complexify import ComplexProblem, _fold, realify
from .errors import DomainError, ParseError, RankDeficientError, ValidationError
from .forms import max_dimension
from .oracle import oracle_direction
from .solver import (
    ConstraintSystem,
    Objective,
    SolveStatus,
    independent_rows,
    optimal_direction,
    triple_product_direction,
)

__all__ = [
    "ProblemSpec",
    "SolveReport",
    "evaluate_check",
    "main",
    "parse_problem",
    "run_solve",
    "self_test",
]

# --check gates between the solver and the oracle.
CHECK_COSINE_TOLERANCE = 1e-6
CHECK_OBJECTIVE_TOLERANCE = 1e-6
# Per-trial self-test gates.
SELF_TEST_RESIDUAL = 1e-9
SELF_TEST_TRIPLE_COSINE = 1e-12

_ALLOWED_KEYS = {"field", "n", "m", "A", "B", "mode", "objective_part", "tolerance"}


@dataclass(frozen=True)
class ProblemSpec:
    """Validated contents of a problem file."""

    field: str
    n: int
    m: int
    a: np.ndarray
    b: np.ndarray
    mode: str = "max"
    part: str = "re"
    tolerance: float | None = None


@dataclass
class SolveReport:
    """Solver output plus optional oracle cross-check results."""

    field: str
    n: int
    m: int
    mode: str
    status: str
    objective: float
    direction: list
    raw: list
    residual_max: float
    objective_part: str | None = None
    oracle_status: str | None = None
    oracle_direction: list | None = None
    oracle_objective: float | None = None
    cosine_agreement: float | None = None
    dropped_rows: list | None = None
    timings: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "field": self.field,
            "n": self.n,
            "m": self.m,
            "mode": self.mode,
        }
        if self.objective_part is not None:
            out["objective_part"] = self.objective_part
        out["status"] = self.status
        out["objective"] = self.objective
        out["direction"] = self.direction
        out["raw"] = self.raw
        out["residual_max"] = self.residual_max
        for key in ("oracle_status", "oracle_direction", "oracle_objective", "cosine_agreement"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.dropped_rows is not None:
            out["dropped_rows"] = self.dropped_rows
        out["timings"] = self.timings
        return out


def _require_int(doc: dict, key: str) -> int:
    if key not in doc:
        raise ParseError(f"missing required key {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{key}: expected an integer, got {value!r}")
    return value


def _real_scalar(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _tolerance(value: float, where: str) -> float:
    # json parses NaN, and 1e400 as inf; neither is a usable coefficient
    if not 0.0 < value < np.inf:
        raise ValidationError(f"{where} must be a finite positive number, got {value!r}")
    return value


def _complex_scalar(value, where: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{where}: expected a [re, im] pair, got {value!r}")
    return complex(_real_scalar(value[0], where + "[0]"), _real_scalar(value[1], where + "[1]"))


def _vector(values, length: int, where: str, is_complex: bool) -> np.ndarray:
    if not isinstance(values, list):
        raise ParseError(f"{where}: expected an array, got {values!r}")
    if len(values) != length:
        raise ValidationError(f"{where}: expected {length} entries, got {len(values)}")
    if is_complex:
        out = np.array([_complex_scalar(v, f"{where}[{i}]") for i, v in enumerate(values)])
    else:
        out = np.array([_real_scalar(v, f"{where}[{i}]") for i, v in enumerate(values)])
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"{where}: entries must be finite")
    return out


def parse_problem(path: str) -> ProblemSpec:
    """Read and validate a JSON problem file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("the top level of a problem file must be a JSON object")
    unknown = sorted(set(doc) - _ALLOWED_KEYS)
    if unknown:
        raise ParseError(f"unknown keys: {', '.join(unknown)}")

    field = doc.get("field", "real")
    if field not in ("real", "complex"):
        raise ParseError(f"field: expected 'real' or 'complex', got {field!r}")
    n = _require_int(doc, "n")
    m = _require_int(doc, "m")
    mode = doc.get("mode", "max")
    if mode not in ("max", "min"):
        raise ParseError(f"mode: expected 'max' or 'min', got {mode!r}")
    part = doc.get("objective_part", "re")
    if "objective_part" in doc and field != "complex":
        raise ValidationError("objective_part is only meaningful for complex problems")
    if part not in ("re", "im"):
        raise ParseError(f"objective_part: expected 're' or 'im', got {part!r}")
    tolerance = doc.get("tolerance")
    if tolerance is not None:
        tolerance = _tolerance(_real_scalar(tolerance, "tolerance"), "tolerance")

    if n < 1:
        raise ValidationError(f"n must be at least 1, got {n}")
    if n > max_dimension():
        raise ValidationError(
            f"n={n} exceeds the supported cap {max_dimension()} (WEDGEOPT_MAX_DIMENSION)"
        )
    if field == "complex" and 2 * n > max_dimension():
        raise ValidationError(
            f"complex n={n} is solved as a real system of dimension 2n={2 * n}, "
            f"which exceeds the supported cap {max_dimension()} (WEDGEOPT_MAX_DIMENSION)"
        )
    if m < 0:
        raise ValidationError(f"m must be non-negative, got {m}")
    if m >= n:
        raise ValidationError(f"the problem requires m < n, got m={m}, n={n}")

    rows_doc = doc.get("A")
    if not isinstance(rows_doc, list):
        raise ParseError("A: expected an array of rows")
    if len(rows_doc) != m:
        raise ValidationError(f"A: expected {m} rows, got {len(rows_doc)}")
    is_complex = field == "complex"
    dtype = complex if is_complex else float
    a = np.zeros((m, n), dtype=dtype)
    for i, row in enumerate(rows_doc):
        a[i] = _vector(row, n, f"A[{i}]", is_complex)
    if "B" not in doc:
        raise ParseError("missing required key 'B'")
    b = _vector(doc["B"], n, "B", is_complex)

    return ProblemSpec(field=field, n=n, m=m, a=a, b=b, mode=mode, part=part, tolerance=tolerance)


def _encode_vector(vec: np.ndarray) -> list:
    if np.iscomplexobj(vec):
        return [[float(z.real), float(z.imag)] for z in vec]
    return [float(x) for x in vec]


def _relative_residual(rows: np.ndarray, direction: np.ndarray) -> float:
    if rows.shape[0] == 0:
        return 0.0
    scale = np.maximum(1.0, np.linalg.norm(rows, axis=1))
    return float(np.max(np.abs(rows @ direction) / scale))


def run_solve(spec: ProblemSpec, check_oracle: bool = False, reduce_rows: bool = False) -> SolveReport:
    """Solve a parsed problem, optionally cross-validated by the oracle."""
    timings: dict[str, float] = {}
    a = spec.a
    dropped = None
    if reduce_rows:
        t0 = time.perf_counter()
        keep = independent_rows(a)
        dropped = sorted(set(range(spec.m)) - set(keep))
        a = a[keep]
        timings["reduce"] = time.perf_counter() - t0

    if spec.field == "real":
        system, objective = ConstraintSystem(a), Objective(spec.b, spec.mode)
        fold = np.asarray
    else:
        system, objective = realify(ComplexProblem(a, spec.b, spec.part, spec.mode))
        fold = _fold
    t0 = time.perf_counter()
    solution = optimal_direction(system, objective, spec.tolerance)
    timings["solve"] = time.perf_counter() - t0
    direction = fold(solution.direction)
    report = SolveReport(
        field=spec.field,
        n=spec.n,
        m=a.shape[0],
        mode=spec.mode,
        objective_part=spec.part if spec.field == "complex" else None,
        status=solution.status.value,
        objective=solution.objective,
        direction=_encode_vector(direction),
        raw=_encode_vector(fold(solution.raw)),
        residual_max=_relative_residual(a, direction),
        dropped_rows=dropped,
        timings=timings,
    )
    if check_oracle:
        t0 = time.perf_counter()
        oracle = oracle_direction(system, objective, spec.tolerance)
        timings["oracle"] = time.perf_counter() - t0
        report.oracle_status = oracle.status.value
        report.oracle_direction = _encode_vector(fold(oracle.direction))
        report.oracle_objective = oracle.objective
        if solution.status == oracle.status == SolveStatus.OPTIMAL:
            report.cosine_agreement = float(solution.direction @ oracle.direction)
    return report


def _check_failures(
    status: str, oracle_status: str, cosine: float | None, objective: float, oracle_objective: float
) -> list[str]:
    """The --check gates between a solve and its oracle: one reason per failed gate."""
    if status != oracle_status:
        return [f"status mismatch: solver={status}, oracle={oracle_status}"]
    reasons = []
    # written so that a NaN fails each gate
    if cosine is not None and not cosine >= 1.0 - CHECK_COSINE_TOLERANCE:
        reasons.append(f"direction agreement too low: cosine={cosine!r}")
    scale = max(abs(objective), abs(oracle_objective))
    if not abs(objective - oracle_objective) <= CHECK_OBJECTIVE_TOLERANCE * scale:
        reasons.append(f"objective mismatch: solver={objective!r}, oracle={oracle_objective!r}")
    return reasons


def evaluate_check(report: SolveReport) -> tuple[bool, str | None]:
    """Decide whether an oracle cross-check passed; returns (ok, reason)."""
    if report.oracle_status is None:
        return True, None
    reasons = _check_failures(
        report.status,
        report.oracle_status,
        report.cosine_agreement,
        report.objective,
        report.oracle_objective,
    )
    return not reasons, reasons[0] if reasons else None


def self_test(n: int, m: int, trials: int, seed: int) -> tuple[dict, bool]:
    """Solve random Gaussian instances with both paths and aggregate agreement.

    Per trial the gates are: relative residual <= 1e-9, matching status,
    direction cosine >= 1 - 1e-6, relative objective gap <= 1e-6, and for
    n=3, m=1 additionally 1 - cosine against the normalized vector triple
    product <= 1e-12.
    """
    if not isinstance(n, int) or not isinstance(m, int):
        raise ValidationError("n and m must be integers")
    if n < 1 or n > max_dimension():
        raise ValidationError(f"n must lie in [1, {max_dimension()}], got {n}")
    if not 0 <= m < n:
        raise ValidationError(f"self-test requires 0 <= m < n, got m={m}, n={n}")
    if trials < 0:
        raise ValidationError(f"trials must be non-negative, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")

    rng = np.random.default_rng(seed)
    max_residual = 0.0
    min_cosine = None
    max_gap = 0.0
    min_triple_cosine = None
    status_counts: dict[str, int] = {}
    failures: list[dict] = []

    for trial in range(trials):
        rows = rng.standard_normal((m, n))
        b = rng.standard_normal(n)
        while np.linalg.norm(b) < 1e-8:
            b = rng.standard_normal(n)
        system = ConstraintSystem(rows)
        objective = Objective(b, "max")
        solution = optimal_direction(system, objective)
        oracle = oracle_direction(system, objective)
        status_counts[solution.status.value] = status_counts.get(solution.status.value, 0) + 1

        residual = _relative_residual(system.rows, solution.direction)
        max_residual = max(max_residual, residual)
        if residual > SELF_TEST_RESIDUAL:
            failures.append({"trial": trial, "reason": f"residual {residual!r}"})
        cosine = None
        if solution.status == oracle.status == SolveStatus.OPTIMAL:
            cosine = float(solution.direction @ oracle.direction)
        reasons = _check_failures(
            solution.status.value, oracle.status.value, cosine, solution.objective, oracle.objective
        )
        failures.extend({"trial": trial, "reason": reason} for reason in reasons)
        if cosine is not None:
            min_cosine = cosine if min_cosine is None else min(min_cosine, cosine)
            gap = abs(solution.objective - oracle.objective)
            max_gap = max(max_gap, gap / max(abs(solution.objective), abs(oracle.objective)))
            if n == 3 and m == 1:
                triple = triple_product_direction(rows[0], b)
                triple_norm = float(np.linalg.norm(triple))
                if triple_norm > 0.0:
                    cosine_t = float(solution.direction @ (triple / triple_norm))
                    min_triple_cosine = (
                        cosine_t if min_triple_cosine is None else min(min_triple_cosine, cosine_t)
                    )
                    if cosine_t < 1.0 - SELF_TEST_TRIPLE_COSINE:
                        failures.append({"trial": trial, "reason": f"triple cosine {cosine_t!r}"})

    report = {
        "n": n,
        "m": m,
        "trials": trials,
        "seed": seed,
        "statuses": status_counts,
        "max_residual": max_residual,
        "min_cosine": min_cosine,
        "max_objective_gap": max_gap,
    }
    if n == 3 and m == 1:
        report["min_triple_cosine"] = min_triple_cosine
    report["failures"] = failures
    report["passed"] = not failures
    return report, not failures


def _solve_report_csv(report: SolveReport) -> str:
    headers = ["field", "n", "m", "mode", "status", "objective", "residual_max"]
    values = [
        report.field,
        report.n,
        report.m,
        report.mode,
        report.status,
        report.objective,
        report.residual_max,
    ]
    if report.cosine_agreement is not None:
        headers.append("cosine_agreement")
        values.append(report.cosine_agreement)
    if report.oracle_objective is not None:
        headers.append("oracle_objective")
        values.append(report.oracle_objective)
    if report.field == "complex":
        for i, (re, im) in enumerate(report.direction, start=1):
            headers.extend([f"direction_{i}_re", f"direction_{i}_im"])
            values.extend([re, im])
    else:
        for i, x in enumerate(report.direction, start=1):
            headers.append(f"direction_{i}")
            values.append(x)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerow(values)
    return buffer.getvalue()


def _self_test_csv(report: dict) -> str:
    headers = [
        "n",
        "m",
        "trials",
        "seed",
        "max_residual",
        "min_cosine",
        "max_objective_gap",
        "failure_count",
        "passed",
    ]
    values = [
        report["n"],
        report["m"],
        report["trials"],
        report["seed"],
        report["max_residual"],
        report["min_cosine"],
        report["max_objective_gap"],
        len(report["failures"]),
        report["passed"],
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerow(values)
    return buffer.getvalue()


def _emit_error(exc: Exception) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload, indent=2), file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wedgeopt",
        description=(
            "Compute the unit direction optimizing a linear objective subject "
            "to homogeneous linear constraints."
        ),
    )
    parser.add_argument("--input", metavar="PATH", help="JSON problem file to solve")
    parser.add_argument(
        "--check",
        action="store_true",
        help="cross-validate against the Gram-Schmidt projection oracle (exit 2 on disagreement)",
    )
    parser.add_argument(
        "--reduce-rows",
        action="store_true",
        help="drop linearly dependent constraint rows before solving",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        metavar="X",
        help="override the relative degeneracy tolerance coefficient",
    )
    parser.add_argument(
        "--self-test",
        nargs=4,
        type=int,
        metavar=("N", "M", "TRIALS", "SEED"),
        help="solve TRIALS random instances of size N x M with both paths",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if (args.input is None) == (args.self_test is None):
            raise ValidationError("exactly one of --input or --self-test is required")
        if args.tolerance is not None:
            _tolerance(args.tolerance, "--tolerance")

        if args.self_test is not None:
            report, ok = self_test(*args.self_test)
            if args.format == "csv":
                print(_self_test_csv(report), end="")
            else:
                print(json.dumps(report, indent=2))
            return 0 if ok else 2

        t0 = time.perf_counter()
        spec = parse_problem(args.input)
        parse_time = time.perf_counter() - t0
        if args.tolerance is not None:
            spec = replace(spec, tolerance=args.tolerance)
        report = run_solve(spec, check_oracle=args.check, reduce_rows=args.reduce_rows)
        report.timings["parse"] = parse_time
        if args.format == "csv":
            print(_solve_report_csv(report), end="")
        else:
            print(json.dumps(report.to_dict(), indent=2))
        if args.check:
            ok, reason = evaluate_check(report)
            if not ok:
                _emit_error(ValidationError(f"oracle cross-check failed: {reason}"))
                return 2
        return 0
    except (ParseError, ValidationError, DomainError) as exc:
        _emit_error(exc)
        return 1
    except RankDeficientError as exc:
        _emit_error(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
