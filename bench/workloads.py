"""Seeded inputs for the benchmark's three workloads.

The seed draws the numbers only.  Which shapes, fields, formats and flags a
round holds, and in which order, is fixed, so every seed asks for the same
work and the same share of failing operations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

import check

# Draws are redrawn until the rows have condition number below this and the
# objective keeps at least this share of its norm off the row span, so the
# checker's tight gates measure the program, not float conditioning.
MAX_CONDITION = 1e4
MIN_PERP_SHARE = 1e-2


@dataclass(frozen=True, eq=False)
class Problem:
    """One problem, with the facts the checker needs about how it was built."""

    field: str
    rows: np.ndarray  # unscaled: the reference is computed from these
    b: np.ndarray
    mode: str
    part: str = "re"
    degenerate: bool = False  # b was built inside the row span
    rows_k: int = 0  # scaled slice: the program gets rows * 2**rows_k
    b_k: int = 0  # and b * 2**b_k
    fmt: str = "json"  # cli_small: output format
    reduce_rows: bool = False  # cli_small: run with --reduce-rows
    dropped: tuple[int, ...] = ()  # rows built as sums of earlier rows

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def scaled(self) -> bool:
        return bool(self.rows_k or self.b_k)

    @property
    def shape(self) -> str:
        return f"{self.field}:{self.n}x{self.m}"

    def program_rows(self) -> np.ndarray:
        return np.ldexp(self.rows, self.rows_k) if self.rows_k else self.rows

    def program_b(self) -> np.ndarray:
        return np.ldexp(self.b, self.b_k) if self.b_k else self.b

    def expected(self) -> check.Expected:
        return check.expect(self.rows, self.b, self.mode, self.part, self.degenerate, self.b_k)

    def document(self) -> str:
        """The problem file the CLI reads."""

        def encode(values: np.ndarray) -> list:
            if self.field == "complex":
                return [[float(z.real), float(z.imag)] for z in values]
            return [float(x) for x in values]

        doc = {
            "field": self.field,
            "n": self.n,
            "m": self.m,
            "A": [encode(row) for row in self.program_rows()],
            "B": encode(self.program_b()),
            "mode": self.mode,
        }
        if self.field == "complex":
            doc["objective_part"] = self.part
        return json.dumps(doc)

    def cli_args(self, path: str) -> list[str]:
        args = ["--input", path, "--check"]
        if self.reduce_rows:
            args.append("--reduce-rows")
        if self.fmt != "json":
            args += ["--format", self.fmt]
        return args


def _gaussian(rng: np.random.Generator, shape, field: str) -> np.ndarray:
    values = rng.standard_normal(shape)
    if field == "complex":
        values = values + 1j * rng.standard_normal(shape)
    return values


def draw(
    rng: np.random.Generator,
    field: str,
    n: int,
    m: int,
    mode: str,
    part: str = "re",
    degenerate: bool = False,
    dependent: int = 0,
    **options,
) -> Problem:
    """A random m x n problem; `dependent` extra rows are sums of earlier rows."""
    while True:
        rows = _gaussian(rng, (m, n), field)
        singular = np.linalg.svd(rows, compute_uv=False)
        if singular[-1] * MAX_CONDITION >= singular[0]:
            break
    if degenerate:
        b = rows.T @ _gaussian(rng, m, field)
    else:
        while True:
            b = _gaussian(rng, n, field)
            real_rows, real_b = check.real_coordinates(rows, b, part)
            perp = check.null_projection(real_rows, real_b)
            if np.linalg.norm(perp) >= MIN_PERP_SHARE * np.linalg.norm(real_b):
                break
    dropped: tuple[int, ...] = ()
    if dependent:
        extra = [rows[i % m] + rows[(i + 1) % m] for i in range(dependent)]
        dropped = tuple(range(m, m + dependent))
        rows = np.vstack([rows, extra])
    return Problem(field, rows, b, mode, part, degenerate, dropped=dropped, **options)


# --- lib_small ---------------------------------------------------------------

LIB_REAL_N = range(3, 11)
LIB_COMPLEX_N = range(2, 6)
LIB_COPIES = 4  # of every (field, n, m) per round
LIB_DEGENERATE_EVERY = 10
# The scaled slice: one scaled problem after every SCALED_AFTER unscaled ones.
# Its inputs come from SCALED_SEED, not from --seed, so which of them fail is
# a property of the code alone.
SCALED_AFTER = 18
SCALED_SEED = 1009_1151
SCALED_ROWS_K = (-1000, -600, -300, -100, -20, 20, 100, 200, 600, 1000)
SCALED_B_K = (-1000, 600)


def scaled_slice() -> list[Problem]:
    """Real problems whose rows or b are scaled by exact powers of two."""
    rng = np.random.default_rng(SCALED_SEED)
    targets = [("rows", k) for k in SCALED_ROWS_K] + [("b", k) for k in SCALED_B_K]
    out = []
    for j, (target, k) in enumerate(targets):
        n = 3 + j % 8
        problem = draw(rng, "real", n, max(1, n // 2), ("max", "min")[j % 2])
        out.append(replace(problem, **{"rows_k" if target == "rows" else "b_k": k}))
    return out


def lib_problems(seed: int) -> list[Problem]:
    """One round of lib_small: every small shape LIB_COPIES times, plus the scaled slice."""
    shapes = [("real", n, m) for n in LIB_REAL_N for m in range(1, n)]
    shapes += [("complex", n, m) for n in LIB_COMPLEX_N for m in range(1, n)]
    slots = [shape for shape in shapes for _ in range(LIB_COPIES)]
    order = np.random.default_rng(0).permutation(len(slots))
    rng = np.random.default_rng([seed, 1])
    scaled = scaled_slice()
    out = []
    for i, slot in enumerate(order):
        field, n, m = slots[slot]
        mode = ("max", "min")[int(rng.integers(2))]
        part = ("re", "im")[int(rng.integers(2))] if field == "complex" else "re"
        out.append(draw(rng, field, n, m, mode, part, degenerate=i % LIB_DEGENERATE_EVERY == 0))
        if (i + 1) % SCALED_AFTER == 0 and scaled:
            out.append(scaled.pop(0))
    return out + scaled


# --- cli_small ---------------------------------------------------------------

# One round of cli_small, one CLI process per entry: (field, n, m, mode, options).
CLI_CASES = (
    ("real", 3, 1, "max", {}),
    ("real", 4, 2, "min", {}),
    ("real", 5, 2, "max", {"fmt": "csv"}),
    ("real", 6, 3, "min", {}),
    ("real", 7, 1, "max", {}),
    ("real", 8, 4, "min", {"degenerate": True}),
    ("real", 9, 4, "max", {"fmt": "csv"}),
    ("real", 10, 5, "min", {}),
    ("real", 11, 5, "max", {}),
    ("real", 12, 6, "min", {}),
    ("real", 12, 3, "max", {"fmt": "csv"}),
    ("real", 6, 5, "min", {}),
    ("real", 9, 8, "max", {}),
    ("real", 4, 3, "max", {"degenerate": True}),
    ("real", 8, 2, "max", {"dependent": 1, "reduce_rows": True}),
    ("real", 10, 4, "min", {"dependent": 2, "reduce_rows": True}),
    ("real", 12, 5, "max", {"dependent": 1, "reduce_rows": True, "fmt": "csv"}),
    ("complex", 2, 1, "max", {}),
    ("complex", 3, 1, "min", {"part": "im"}),
    ("complex", 3, 2, "max", {"fmt": "csv"}),
    ("complex", 4, 2, "min", {}),
    ("complex", 5, 2, "max", {"part": "im"}),
    ("complex", 6, 3, "min", {}),
    ("complex", 6, 2, "max", {"part": "im", "fmt": "csv"}),
    ("complex", 4, 3, "max", {"part": "im", "degenerate": True}),
    ("complex", 5, 3, "min", {"dependent": 1, "reduce_rows": True}),
)


def cli_problems(seed: int) -> list[Problem]:
    rng = np.random.default_rng([seed, 2])
    return [draw(rng, field, n, m, mode, **options) for field, n, m, mode, options in CLI_CASES]


def write_problem_files(problems: list[Problem], directory) -> list[str]:
    """Write one problem file per problem into `directory`; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, problem in enumerate(problems):
        path = directory / f"problem{index}.json"
        path.write_text(problem.document(), encoding="utf-8")
        paths.append(str(path))
    return paths


# --- wide_grid ---------------------------------------------------------------

# Warm operations per worker, sized so that each shape's warm loop takes a
# similar time (about 0.8 s on a 2-core host at the first benchmarked commit).
WIDE_SHAPES = {(16, 8): 45, (18, 9): 14, (32, 3): 240, (32, 4): 30}
WIDE_PROBLEMS = 4  # distinct problems per worker, solved in turn


def wide_problems(seed: int, n: int, m: int, worker: int) -> list[Problem]:
    rng = np.random.default_rng([seed, 3, n, m, worker])
    return [draw(rng, "real", n, m, ("max", "min")[i % 2]) for i in range(WIDE_PROBLEMS)]


def shape_name(n: int, m: int) -> str:
    return f"{n}x{m}"
