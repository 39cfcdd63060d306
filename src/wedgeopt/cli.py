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
from dataclasses import dataclass, field as dc_field, fields, replace

import numpy as np

from .complexify import ComplexProblem, _fold, realify
from .errors import DomainError, ParseError, RankDeficientError, ValidationError
from .oracle import oracle_direction
from .solver import (
    ConstraintSystem,
    Objective,
    SolveStatus,
    _check_shape,
    _power_of_two_scaled,
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


@dataclass(kw_only=True)
class SolveReport:
    """Solver output plus optional oracle cross-check results, fields in output order."""

    field: str
    n: int
    m: int
    mode: str
    objective_part: str | None = None
    status: str
    objective: float
    direction: list
    raw: list
    residual_max: float
    oracle_status: str | None = None
    oracle_direction: list | None = None
    oracle_objective: float | None = None
    cosine_agreement: float | None = None
    dropped_rows: list | None = None
    timings: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field that is set, in declaration order."""
        return {f.name: v for f in fields(self) if (v := getattr(self, f.name)) is not None}


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
    try:
        return float(value)
    except OverflowError:  # an integer past the double range
        raise ValidationError(f"{where}: integers must lie inside the double range") from None


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
    except ValueError as exc:  # an integer past Python's digit limit
        raise ParseError(f"{path}: {exc}") from None
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

    # m >= 0 and m < n imply n >= 1
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
    rows = [_vector(row, n, f"A[{i}]", is_complex) for i, row in enumerate(rows_doc)]
    a = np.array(rows, dtype=complex if is_complex else float).reshape(m, n)
    if "B" not in doc:
        raise ParseError("missing required key 'B'")
    b = _vector(doc["B"], n, "B", is_complex)

    return ProblemSpec(field=field, n=n, m=m, a=a, b=b, mode=mode, part=part, tolerance=tolerance)


def _encode_vector(vec: np.ndarray) -> list:
    if np.iscomplexobj(vec):
        return [[float(z.real), float(z.imag)] for z in vec]
    return [float(x) for x in vec]


def _relative_residual(rows: np.ndarray, direction: np.ndarray) -> float:
    """Largest |row . direction| / max(1, ||row||), as min(x / ||row 2^-e||, x 2^e)
    with x = |row 2^-e . direction|, so that no norm overflows."""
    scaled, e = _power_of_two_scaled(rows)
    dots = np.abs(scaled @ direction)
    with np.errstate(over="ignore"):  # x * 2^e may be past the double range
        residuals = np.minimum(dots / np.linalg.norm(scaled, axis=1), np.ldexp(dots, e))
    return float(np.max(residuals, initial=0.0))


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


def _check_failures(report: SolveReport) -> list[str]:
    """The --check gates between a solve and its oracle: one reason per failed gate."""
    if report.status != report.oracle_status:
        return [f"status mismatch: solver={report.status}, oracle={report.oracle_status}"]
    reasons = []
    # written so that a NaN fails each gate
    cosine = report.cosine_agreement
    if cosine is not None and not cosine >= 1.0 - CHECK_COSINE_TOLERANCE:
        reasons.append(f"direction agreement too low: cosine={cosine!r}")
    objective, oracle_objective = report.objective, report.oracle_objective
    scale = max(abs(objective), abs(oracle_objective))
    if not abs(objective - oracle_objective) <= CHECK_OBJECTIVE_TOLERANCE * scale:
        reasons.append(f"objective mismatch: solver={objective!r}, oracle={oracle_objective!r}")
    return reasons


def evaluate_check(report: SolveReport) -> tuple[bool, str | None]:
    """Decide whether an oracle cross-check passed; returns (ok, reason)."""
    reasons = [] if report.oracle_status is None else _check_failures(report)
    return not reasons, reasons[0] if reasons else None


def self_test(n: int, m: int, trials: int, seed: int) -> tuple[dict, bool]:
    """Solve random Gaussian instances with both paths and aggregate agreement.

    Per trial the gates are: relative residual <= 1e-9, matching status,
    direction cosine >= 1 - 1e-6, relative objective gap <= 1e-6, and for
    n=3, m=1 additionally 1 - cosine against the normalized vector triple
    product <= 1e-12.
    """
    for name, value in (("n", n), ("m", m), ("trials", trials), ("seed", seed)):
        # the rule of `_require_int`: a bool is not an integer here
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{name}: expected an integer, got {value!r}")
    if not 0 <= m < n:
        raise ValidationError(f"self-test requires 0 <= m < n, got m={m}, n={n}")
    if trials < 0:
        raise ValidationError(f"trials must be non-negative, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    _check_shape(n, m)

    rng = np.random.default_rng(seed)
    max_residual = 0.0
    max_gap = 0.0
    cosines: list[float] = []
    triple_cosines: list[float] = []
    status_counts: dict[str, int] = {}
    failures: list[dict] = []

    for trial in range(trials):
        rows = rng.standard_normal((m, n))
        b = rng.standard_normal(n)
        while np.linalg.norm(b) < 1e-8:
            b = rng.standard_normal(n)
        solved = run_solve(ProblemSpec("real", n, m, rows, b), check_oracle=True)
        status_counts[solved.status] = status_counts.get(solved.status, 0) + 1

        max_residual = max(max_residual, solved.residual_max)
        if solved.residual_max > SELF_TEST_RESIDUAL:
            failures.append({"trial": trial, "reason": f"residual {solved.residual_max!r}"})
        failures.extend({"trial": trial, "reason": reason} for reason in _check_failures(solved))
        if solved.cosine_agreement is not None:
            cosines.append(solved.cosine_agreement)
            gap = abs(solved.objective - solved.oracle_objective)
            max_gap = max(max_gap, gap / max(abs(solved.objective), abs(solved.oracle_objective)))
            if n == 3 and m == 1:
                triple = triple_product_direction(rows[0], b)
                triple_norm = float(np.linalg.norm(triple))
                if triple_norm > 0.0:
                    cosine_t = float(np.array(solved.direction) @ (triple / triple_norm))
                    triple_cosines.append(cosine_t)
                    if cosine_t < 1.0 - SELF_TEST_TRIPLE_COSINE:
                        failures.append({"trial": trial, "reason": f"triple cosine {cosine_t!r}"})

    report = {
        "n": n,
        "m": m,
        "trials": trials,
        "seed": seed,
        "statuses": status_counts,
        "max_residual": max_residual,
        "min_cosine": min(cosines, default=None),
        "max_objective_gap": max_gap,
    }
    if n == 3 and m == 1:
        report["min_triple_cosine"] = min(triple_cosines, default=None)
    report["failures"] = failures
    report["passed"] = not failures
    return report, not failures


def _csv(columns: dict) -> str:
    """One header row and one value row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([columns, columns.values()])
    return buffer.getvalue()


def _solve_report_csv(report: SolveReport) -> str:
    names = "field n m mode status objective residual_max cosine_agreement oracle_objective"
    columns = {name: v for name in names.split() if (v := getattr(report, name)) is not None}
    for i, value in enumerate(report.direction, start=1):
        if report.field == "complex":
            columns[f"direction_{i}_re"], columns[f"direction_{i}_im"] = value
        else:
            columns[f"direction_{i}"] = value
    return _csv(columns)


def _self_test_csv(report: dict) -> str:
    names = "n m trials seed max_residual min_cosine max_objective_gap min_triple_cosine"
    columns = {name: report[name] for name in names.split() if name in report}
    columns.update(failure_count=len(report["failures"]), passed=report["passed"])
    return _csv(columns)


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
            # a self-test draws its own problems and always runs both paths
            for flag in ("--tolerance", "--reduce-rows", "--check"):
                if getattr(args, flag[2:].replace("-", "_")) not in (None, False):
                    raise ValidationError(f"{flag} cannot be combined with --self-test")
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
