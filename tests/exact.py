"""Exact reference for the projected objective b_perp = b - A^T (A A^T)^-1 A b.

Every double is a rational number, so the inputs are taken as exact
`fractions.Fraction` values and b_perp is computed with no rounding at
all; whether A A^T is singular is decided exactly.  Only the final unit
direction is rounded to doubles.  Shares no code with the package.
"""

from fractions import Fraction

import numpy as np


def _dot(u, v):
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def exact_perp(rows, b):
    """b_perp as a list of Fractions, or None when A A^T is exactly singular."""
    a = [[Fraction(float(x)) for x in row] for row in rows]
    vec = [Fraction(float(x)) for x in b]
    m = len(a)
    # Gauss-Jordan elimination on the augmented system [A A^T | A b]
    aug = [[_dot(a[i], a[j]) for j in range(m)] + [_dot(a[i], vec)] for i in range(m)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    coeffs = [aug[i][m] for i in range(m)]
    return [vec[j] - _dot(coeffs, [row[j] for row in a]) for j in range(len(vec))]


def exact_ratio(rows, b):
    """||b_perp|| / ||b||, rounded once to a double; None when A A^T is singular."""
    perp = exact_perp(rows, b)
    if perp is None:
        return None
    vec = [Fraction(float(x)) for x in b]
    return float(_dot(perp, perp) / _dot(vec, vec)) ** 0.5


def exact_direction(rows, b):
    """b_perp / ||b_perp|| as doubles, or None when A A^T is singular or b_perp = 0."""
    perp = exact_perp(rows, b)
    if perp is None or not any(perp):
        return None
    top = max(abs(x) for x in perp)
    unit = np.array([float(x / top) for x in perp])
    return unit / np.linalg.norm(unit)
