"""Grade-k antisymmetric forms over Euclidean R^n.

A k-form is stored densely: one coefficient per strictly increasing
multi-index, in lexicographic order, C(n, k) coefficients in total.
The orientation is e1 ^ ... ^ en and the metric is Euclidean; every sign
produced here is the parity of an explicit shuffle permutation against
that ordering.  All values are immutable after construction and all
operations are pure functions, so everything is safe to share between
threads.

Products and contractions with a grade-1 factor or result, the only ones a
solve takes, run on a compact cached table per (n, k): for every
grade-(k+1) index and every slot in it, the vector's index and the rank of
the k-index left over.  Other grades use a general shuffle table that
lists every split of every target index.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "DEFAULT_MAX_DIMENSION",
    "MAX_DIMENSION_ENV",
    "KForm",
    "MultiIndex",
    "basis_form",
    "contract",
    "from_vector",
    "hodge",
    "inner",
    "max_dimension",
    "rank_multi_index",
    "unrank_multi_index",
    "wedge",
    "zero_form",
]

DEFAULT_MAX_DIMENSION = 32
MAX_DIMENSION_ENV = "WEDGEOPT_MAX_DIMENSION"


def max_dimension() -> int:
    """Largest accepted ambient dimension; override with WEDGEOPT_MAX_DIMENSION."""
    raw = os.environ.get(MAX_DIMENSION_ENV)
    if raw is None:
        return DEFAULT_MAX_DIMENSION
    try:
        cap = int(raw)
    except ValueError:
        raise DomainError(f"{MAX_DIMENSION_ENV} must be an integer, got {raw!r}") from None
    if not 1 <= cap <= 64:
        raise DomainError(f"{MAX_DIMENSION_ENV} must lie in [1, 64], got {cap}")
    return cap


def _check_dimension(n: int) -> None:
    if n < 1:
        raise DomainError(f"ambient dimension must be at least 1, got {n}")
    cap = max_dimension()
    if n > cap:
        raise DomainError(
            f"ambient dimension {n} exceeds the supported cap {cap}; "
            f"set {MAX_DIMENSION_ENV} to raise it"
        )


@lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    """Pascal table; entry [a, b] is C(a, b), zero when b > a."""
    table = np.zeros((n + 1, n + 1), dtype=np.int64)
    table[:, 0] = 1
    for a in range(1, n + 1):
        table[a, 1:] = table[a - 1, 1:] + table[a - 1, :-1]
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _combos(n: int, k: int) -> np.ndarray:
    """All strictly increasing 0-based k-tuples below n, lex order, one per row.

    Column-major, so `.T` is a contiguous slot-major view.  Grades up to n/2
    extend each (k-1)-tuple by every larger index; higher grades are the
    complements of grade n-k in reverse order, so the recursion never passes
    through grade n/2 on its way to a grade near n.
    """
    if k == 0:
        out = np.zeros((1, 0), dtype=np.intp, order="F")
    elif 2 * k > n:
        low = _combos(n, n - k)
        keep = np.ones((low.shape[0], n), dtype=bool)
        keep[np.arange(low.shape[0])[:, None], low] = False
        out = np.asfortranarray(np.nonzero(keep[::-1])[1].reshape(-1, k))
    else:
        prev = _combos(n, k - 1)
        starts = prev[:, -1] + 1 if k > 1 else np.zeros(1, dtype=np.intp)
        counts = n - starts
        out = np.empty((int(counts.sum()), k), dtype=np.intp, order="F")
        for j in range(k - 1):
            out[:, j] = np.repeat(prev[:, j], counts)
        firsts = np.repeat(np.cumsum(counts) - counts, counts)
        out[:, -1] = np.repeat(starts, counts) + np.arange(out.shape[0]) - firsts
    out.flags.writeable = False
    return out


def _rank_rows(cols: np.ndarray, n: int) -> np.ndarray:
    """Lexicographic rank of each sorted 0-based index row among C(n, k)."""
    k = cols.shape[-1]
    if k == 0:
        return np.zeros(cols.shape[:-1], dtype=np.intp)
    table = _binomials(n)
    below = n - 1 - np.arange(n)
    # One small lookup per position: cheaper than a 2-d gather of the table.
    offsets = np.zeros(cols.shape[:-1], dtype=np.int64)
    for j in range(k):
        offsets += table[below, k - j][cols[..., j]]
    return (int(table[n, k]) - 1 - offsets).astype(np.intp, copy=False)


def _shuffle_signs(positions: np.ndarray) -> np.ndarray:
    """Parity of moving the selected slots (each row, sorted) to the front.

    For sorted slot positions p_0 < ... < p_{k-1} inside a longer sorted
    tuple, the number of transpositions needed is sum(p_j - j).
    """
    k = positions.shape[-1]
    if k == 0:
        return np.ones(positions.shape[:-1])
    swaps = (positions - np.arange(k)).sum(axis=-1)
    return np.where(swaps % 2 == 0, 1.0, -1.0)


@lru_cache(maxsize=None)
def _hodge_signs(n: int, k: int) -> np.ndarray:
    """Sign sending each grade-k basis form to its dual.

    The complements of the grade-k indices, taken in lex order, are the
    grade-(n-k) indices in reverse lex order (see `_combos`), so the dual
    of coefficient i lands at position C(n, k) - 1 - i.
    """
    sign = _shuffle_signs(_combos(n, k))
    sign.flags.writeable = False
    return sign


@lru_cache(maxsize=None)
def _wedge_table(n: int, k: int, l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """COO assembly table (out, a, b, sign) for a k-form wedged with an l-form.

    Iterates over each grade-(k+l) target multi-index and the C(k+l, k) ways
    of splitting it between the factors, so the cost never exceeds the number
    of genuinely contributing (disjoint) index pairs.
    """
    grade = k + l
    targets = _combos(n, grade)
    slots = _combos(grade, k)
    keep = np.ones((slots.shape[0], grade), dtype=bool)
    if k:
        keep[np.arange(slots.shape[0])[:, None], slots] = False
    other = np.nonzero(keep)[1].reshape(slots.shape[0], grade - k)
    sign_per_slot = _shuffle_signs(slots)

    a_idx = _rank_rows(targets[:, slots], n).ravel()
    b_idx = _rank_rows(targets[:, other], n).ravel()
    out_idx = np.repeat(np.arange(targets.shape[0], dtype=np.intp), slots.shape[0])
    sign = np.tile(sign_per_slot, targets.shape[0])
    for arr in (out_idx, a_idx, b_idx, sign):
        arr.flags.writeable = False
    return out_idx, a_idx, b_idx, sign


@lru_cache(maxsize=None)
def _grade1_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slot-major table (targets, rank, sign) for a k-form wedged with a 1-form.

    Column T is a grade-(k+1) target index and row p one of its slots:
    targets[p] is T_p, the 1-form's index; rank[p] is the lex rank of T
    without T_p, the k-form's index, namely
    C(n,k) - 1 - sum_{j<p} C(n-1-T_j, k-j) - sum_{j>p} C(n-1-T_j, k+1-j),
    one prefix and one suffix sum over the slots; sign[p] is (-1)^(k-p),
    the parity of moving T_p past the k - p slots after it.
    """
    targets = _combos(n, k + 1).T
    table = _binomials(n)
    below = n - 1 - np.arange(n)
    rank = np.empty(targets.shape, dtype=np.intp)
    running = np.full(targets.shape[1], math.comb(n, k) - 1, dtype=np.intp)
    for p in range(k + 1):
        rank[p] = running
        running -= table[below, k - p][targets[p]]
    running[:] = 0
    for p in range(k, -1, -1):
        rank[p] -= running
        running += table[below, k + 1 - p][targets[p]]
    sign = np.where((k - np.arange(k + 1)) % 2 == 0, 1.0, -1.0)
    rank.flags.writeable = False
    sign.flags.writeable = False
    return targets, rank, sign


# Up to this many targets C(n, k+1), the grade-1 kernels gather every slot
# at once; above it they loop over the slots, whose gathers stay small.
# Measured crossover: 2-D faster at C(n, k+1) <= 2024, slower from 3003 on.
_WHOLE_TABLE_MAX = 2048


def _wedge_vector(a: np.ndarray, v: np.ndarray, n: int, k: int) -> np.ndarray:
    """Coefficients of (k-form a) ^ (1-form v), on bare coefficient arrays."""
    targets, rank, sign = _grade1_table(n, k)
    if targets.shape[1] <= _WHOLE_TABLE_MAX:
        return sign @ (a[rank] * v[targets])
    out = np.zeros(targets.shape[1])
    for p in range(k + 1):
        term = a[rank[p]]
        term *= v[targets[p]]
        if sign[p] > 0:
            out += term
        else:
            out -= term
    return out


def _contract_vector(a: np.ndarray, c: np.ndarray, n: int, k: int) -> np.ndarray:
    """Coefficients of the 1-form contract(k-form a, (k+1)-form c), on bare arrays."""
    targets, rank, sign = _grade1_table(n, k)
    if targets.shape[1] <= _WHOLE_TABLE_MAX:
        terms = a[rank] * c
        terms *= sign[:, None]
        return np.bincount(targets.ravel(), weights=terms.ravel(), minlength=n)
    out = np.zeros(n)
    for p in range(k + 1):
        term = a[rank[p]]
        term *= c
        out += sign[p] * np.bincount(targets[p], weights=term, minlength=n)
    return out


def _clear_caches() -> None:
    """Drop every cached table, so the next operation builds its tables cold."""
    for table in (_binomials, _combos, _grade1_table, _hodge_signs, _wedge_table):
        table.cache_clear()


@dataclass(frozen=True, eq=False)
class MultiIndex:
    """Strictly increasing 1-based index tuple labelling a basis k-form."""

    indices: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        n = int(self.n)
        _check_dimension(n)
        indices = tuple(int(i) for i in self.indices)
        if len(indices) > n:
            raise DomainError(f"at most {n} indices fit in dimension {n}, got {len(indices)}")
        if any(i < 1 or i > n for i in indices):
            raise DomainError(f"indices must lie in [1, {n}], got {indices}")
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise DomainError(f"indices must be strictly increasing, got {indices}")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "n", n)

    @property
    def k(self) -> int:
        return len(self.indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiIndex):
            return NotImplemented
        return self.n == other.n and self.indices == other.indices

    def __hash__(self) -> int:
        return hash((self.n, self.indices))


def rank_multi_index(index: MultiIndex) -> int:
    """Lexicographic position of `index` among all C(n, k) sorted k-tuples."""
    n, k = index.n, index.k
    if k == 0:
        return 0
    rank = math.comb(n, k) - 1
    for j, idx in enumerate(index.indices):
        rank -= math.comb(n - idx, k - j)
    return rank


def unrank_multi_index(position: int, n: int, k: int) -> MultiIndex:
    """Inverse of rank_multi_index: the sorted k-tuple at `position`."""
    _check_dimension(n)
    if not 0 <= k <= n:
        raise DomainError(f"grade must lie in [0, {n}], got {k}")
    position = int(position)
    if not 0 <= position < math.comb(n, k):
        raise DomainError(f"position {position} outside [0, {math.comb(n, k)})")
    indices = []
    remaining = position
    candidate = 1
    for j in range(1, k + 1):
        while remaining >= math.comb(n - candidate, k - j):
            remaining -= math.comb(n - candidate, k - j)
            candidate += 1
        indices.append(candidate)
        candidate += 1
    return MultiIndex(tuple(indices), n)


@dataclass(frozen=True, eq=False)
class KForm:
    """Grade-k form over R^n: C(n, k) coefficients in multi-index lex order."""

    n: int
    k: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        n = int(self.n)
        k = int(self.k)
        _check_dimension(n)
        if not 0 <= k <= n:
            raise DomainError(f"grade must lie in [0, {n}], got {k}")
        coeffs = np.array(self.coeffs, dtype=float)
        expected = math.comb(n, k)
        if coeffs.ndim != 1 or coeffs.shape[0] != expected:
            raise DomainError(f"a grade-{k} form over R^{n} needs exactly {expected} coefficients")
        if not np.all(np.isfinite(coeffs)):
            raise DomainError("form coefficients must be finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "coeffs", coeffs)

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return float(np.linalg.norm(self.coeffs))


def zero_form(n: int, k: int) -> KForm:
    """The zero form of the given grade."""
    _check_dimension(n)
    if not 0 <= k <= n:
        raise DomainError(f"grade must lie in [0, {n}], got {k}")
    return KForm(n, k, np.zeros(math.comb(n, k)))


def basis_form(n: int, indices: Sequence[int]) -> KForm:
    """Unit coefficient on one sorted 1-based multi-index, zero elsewhere."""
    index = MultiIndex(tuple(indices), n)
    coeffs = np.zeros(math.comb(n, index.k))
    coeffs[rank_multi_index(index)] = 1.0
    return KForm(n, index.k, coeffs)


def from_vector(v: Sequence[float]) -> KForm:
    """Embed an n-vector as the grade-1 form with the same components."""
    arr = np.array(v, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise DomainError("expected a non-empty 1-d real vector")
    return KForm(arr.shape[0], 1, arr)


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product of two forms.

    Bilinear, associative and graded-anticommutative; the coefficient of a
    sorted target index is the shuffle-signed sum over all splits between
    the factors, with no factorial averaging.  With a grade-1 factor the
    sum runs over the slots of the target in the cached grade-1 table;
    otherwise over every split in the general shuffle table.
    """
    if not isinstance(a, KForm) or not isinstance(b, KForm):
        raise DomainError("wedge expects two KForm operands")
    if a.n != b.n:
        raise DomainError(f"mismatched ambient dimensions: {a.n} vs {b.n}")
    grade = a.k + b.k
    if grade > a.n:
        raise DomainError(f"grades {a.k} + {b.k} exceed the ambient dimension {a.n}")
    if a.k == 0:
        return KForm(b.n, b.k, a.coeffs[0] * b.coeffs)
    if b.k == 0:
        return KForm(a.n, a.k, b.coeffs[0] * a.coeffs)
    if b.k == 1:
        return KForm(a.n, grade, _wedge_vector(a.coeffs, b.coeffs, a.n, a.k))
    if a.k == 1:
        coeffs = _wedge_vector(b.coeffs, a.coeffs, a.n, b.k)
        return KForm(a.n, grade, -coeffs if b.k % 2 else coeffs)
    out_idx, a_idx, b_idx, sign = _wedge_table(a.n, a.k, b.k)
    terms = sign * a.coeffs[a_idx] * b.coeffs[b_idx]
    coeffs = np.bincount(out_idx, weights=terms, minlength=math.comb(a.n, grade))
    return KForm(a.n, grade, coeffs)


def contract(a: KForm, c: KForm) -> KForm:
    """Interior product of the (k+l)-form `c` by the k-form `a`.

    The adjoint of x -> wedge(a, x): inner(wedge(a, x), c) equals
    inner(x, contract(a, c)) for every l-form x.  It runs the wedge tables
    backwards, gathering from the product's coefficients and summing into
    the second factor's: the grade-1 table when the result is a 1-form,
    the general shuffle table otherwise.
    """
    if not isinstance(a, KForm) or not isinstance(c, KForm):
        raise DomainError("contract expects two KForm operands")
    if a.n != c.n:
        raise DomainError(f"mismatched ambient dimensions: {a.n} vs {c.n}")
    grade = c.k - a.k
    if grade < 0:
        raise DomainError(f"cannot contract a grade-{a.k} form into a grade-{c.k} form")
    if grade == 1:
        return KForm(a.n, 1, _contract_vector(a.coeffs, c.coeffs, a.n, a.k))
    out_idx, a_idx, b_idx, sign = _wedge_table(a.n, a.k, grade)
    terms = sign * a.coeffs[a_idx] * c.coeffs[out_idx]
    coeffs = np.bincount(b_idx, weights=terms, minlength=math.comb(a.n, grade))
    return KForm(a.n, grade, coeffs)


def hodge(a: KForm) -> KForm:
    """Euclidean Hodge dual with respect to the e1 ^ ... ^ en orientation.

    On a sorted basis form e_I the dual is sign(I, I^c) e_{I^c}, where the
    sign is the parity of the permutation (I, I^c) of (1, ..., n).
    """
    if not isinstance(a, KForm):
        raise DomainError("hodge expects a KForm")
    coeffs = _hodge_signs(a.n, a.k) * a.coeffs
    return KForm(a.n, a.n - a.k, coeffs[::-1])


def inner(a: KForm, b: KForm) -> float:
    """Coefficient dot product of two same-grade forms over the same space."""
    if not isinstance(a, KForm) or not isinstance(b, KForm):
        raise DomainError("inner expects two KForm operands")
    if a.n != b.n or a.k != b.k:
        raise DomainError("inner requires matching ambient dimension and grade")
    return float(a.coeffs @ b.coeffs)
