"""Shared random-instance builders and measurements for the test suite."""

import contextlib
import time
import tracemalloc

import numpy as np

from wedgeopt.solver import ConstraintSystem, Objective


def random_system(rng, n, m):
    while True:
        rows = rng.standard_normal((m, n))
        if m == 0 or np.all(np.linalg.norm(rows, axis=1) > 1e-3):
            return ConstraintSystem(rows)


def random_objective(rng, n, mode="max"):
    while True:
        b = rng.standard_normal(n)
        if np.linalg.norm(b) > 1e-3:
            return Objective(b, mode)


def random_instance(rng, n, m, mode="max"):
    return random_system(rng, n, m), random_objective(rng, n, mode)


def span_combination(rng, rows):
    """A vector inside the row span with a comfortably nonzero norm."""
    while True:
        b = rng.standard_normal(rows.shape[0]) @ rows
        if np.linalg.norm(b) > 1e-2:
            return b


def relative_residual(rows, direction):
    """Max constraint violation, scaled by max(1, row norm) per row."""
    rows = np.asarray(rows)
    if rows.shape[0] == 0:
        return 0.0
    scale = np.maximum(1.0, np.linalg.norm(rows, axis=1))
    return float(np.max(np.abs(rows @ direction) / scale))


@contextlib.contextmanager
def allocates_nothing():
    """The block must peak under 1 MB (tracemalloc) and finish within 50 ms."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"peak {peak} bytes"
    assert elapsed < 0.05, f"{elapsed} s"
