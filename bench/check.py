"""Reference answers and the output checker, computed apart from wedgeopt.

The reference direction is the projection of the objective onto the null
space of the constraint rows, taken from numpy's SVD of the rows.  Complex
problems are checked in the real coordinates (Re x, Im x), built here from
the bilinear product b . x, so nothing in this file calls into the program.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

# Gates on every checked output.  Each is at least as strict as the
# matching CLI gate: --check allows a cosine of 1 - 1e-6 and a relative
# objective gap of 1e-6, --self-test a relative residual of 1e-9.
UNIT_TOLERANCE = 1e-12
RESIDUAL_TOLERANCE = 1e-9
COSINE_TOLERANCE = 1e-9
OBJECTIVE_TOLERANCE = 1e-9
# Singular values below this share of the largest span no row direction.
RANK_TOLERANCE = 1e-10


def real_coordinates(rows: np.ndarray, b: np.ndarray, part: str = "re") -> tuple[np.ndarray, np.ndarray]:
    """Real rows and objective acting on (Re x, Im x); real inputs pass through.

    A complex row a gives the rows (Re a, -Im a) and (Im a, Re a), whose
    products with (Re x, Im x) are Re(a . x) and Im(a . x).
    """
    if not np.iscomplexobj(rows) and not np.iscomplexobj(b):
        return np.asarray(rows, dtype=float), np.asarray(b, dtype=float)
    rows = np.asarray(rows, dtype=complex)
    b = np.asarray(b, dtype=complex)
    real_rows = np.vstack(
        [np.hstack([rows.real, -rows.imag]), np.hstack([rows.imag, rows.real])]
    )
    if part == "re":
        real_b = np.concatenate([b.real, -b.imag])
    else:
        real_b = np.concatenate([b.imag, b.real])
    return real_rows, real_b


def null_projection(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component of b orthogonal to the row span, from the rows' SVD."""
    if rows.shape[0] == 0:
        return b.copy()
    _, singular, vt = np.linalg.svd(rows, full_matrices=False)
    basis = vt[singular > RANK_TOLERANCE * singular[0]]
    perp = b - basis.T @ (basis @ b)
    return perp - basis.T @ (basis @ perp)


@dataclass(frozen=True)
class Expected:
    """What a correct solve of one problem returns, in real coordinates."""

    rows: np.ndarray
    b: np.ndarray
    sign: float
    direction: np.ndarray | None  # None when b lies in the row span
    b_k: int = 0  # the program got b * 2**b_k, so its objective is 2**b_k * (b . x)

    @property
    def degenerate(self) -> bool:
        return self.direction is None


def expect(
    rows, b, mode: str, part: str = "re", degenerate: bool = False, b_k: int = 0
) -> Expected:
    """Reference answer; `degenerate` says the problem was built with b in the row span.

    `rows` and `b` are unscaled; `b_k` says the program was given b * 2**b_k.
    """
    real_rows, real_b = real_coordinates(np.asarray(rows), np.asarray(b), part)
    sign = 1.0 if mode == "max" else -1.0
    if degenerate:
        return Expected(real_rows, real_b, sign, None, b_k)
    perp = null_projection(real_rows, real_b)
    return Expected(real_rows, real_b, sign, sign * perp / np.linalg.norm(perp), b_k)


def check(expected: Expected, direction, status: str, objective: float) -> str | None:
    """None when the output is right, else the first reason it is wrong.

    `direction` may be complex; it is compared as (Re x, Im x).
    """
    x = np.asarray(direction)
    if np.iscomplexobj(x):
        x = np.concatenate([x.real, x.imag])
    x = x.astype(float)
    if x.shape != expected.b.shape or not np.all(np.isfinite(x)):
        return f"direction has shape {x.shape} or non-finite entries"
    length = float(np.linalg.norm(x))
    if abs(length - 1.0) > UNIT_TOLERANCE:
        return f"direction norm {length!r} is not 1"
    if expected.rows.shape[0]:
        residual = np.abs(expected.rows @ x) / np.linalg.norm(expected.rows, axis=1)
        if float(residual.max()) > RESIDUAL_TOLERANCE:
            return f"relative constraint residual {float(residual.max())!r}"
    scale = float(np.linalg.norm(expected.b))
    value = float(expected.b @ x)
    unscaled = float(np.ldexp(float(objective), -expected.b_k))
    if abs(unscaled - value) > OBJECTIVE_TOLERANCE * scale:
        return f"reported objective {objective!r} but b . x = {value!r} (b scaled by 2**{expected.b_k})"
    if expected.degenerate:
        if status != "degenerate":
            return f"status {status!r}, expected 'degenerate'"
        if abs(value) > OBJECTIVE_TOLERANCE * scale:
            return f"degenerate direction has objective {value!r}"
        return None
    if status != "optimal":
        return f"status {status!r}, expected 'optimal'"
    if expected.sign * value <= 0.0:
        return f"objective {value!r} has the wrong sign for the mode"
    cosine = float(x @ expected.direction)
    if cosine < 1.0 - COSINE_TOLERANCE:
        return f"cosine {cosine!r} with the reference direction"
    return None


def _decode(values: list) -> np.ndarray:
    if values and isinstance(values[0], list):
        return np.array([complex(re, im) for re, im in values])
    return np.array(values, dtype=float)


def check_cli(
    expected: Expected, fmt: str, dropped: tuple[int, ...], returncode: int, stdout: str
) -> str | None:
    """Check one `wedgeopt --input F --check` run from its exit code and output."""
    if returncode != 0:
        return f"exit code {returncode}"
    if fmt == "csv":
        records = list(csv.DictReader(io.StringIO(stdout)))
        if len(records) != 1:
            return f"expected one CSV record, got {len(records)}"
        record = records[0]
        if "direction_1_re" in record:
            count = sum(1 for key in record if key.endswith("_re"))
            direction = [
                complex(float(record[f"direction_{i}_re"]), float(record[f"direction_{i}_im"]))
                for i in range(1, count + 1)
            ]
        else:
            count = sum(1 for key in record if key.startswith("direction_"))
            direction = [float(record[f"direction_{i}"]) for i in range(1, count + 1)]
        return check(expected, np.array(direction), record["status"], float(record["objective"]))
    doc = json.loads(stdout)
    reason = check(expected, _decode(doc["direction"]), doc["status"], doc["objective"])
    if reason is None:
        reason = check(
            expected, _decode(doc["oracle_direction"]), doc["oracle_status"], doc["oracle_objective"]
        )
        reason = reason and "oracle: " + reason
    if reason is None and dropped and doc.get("dropped_rows") != list(dropped):
        reason = f"dropped rows {doc.get('dropped_rows')!r}, expected {list(dropped)!r}"
    return reason
