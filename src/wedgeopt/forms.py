"""Grade-k antisymmetric forms over Euclidean R^n.

A k-form is stored densely: one coefficient per strictly increasing
multi-index, in lexicographic order, C(n, k) coefficients in total.
The orientation is e1 ^ ... ^ en and the metric is Euclidean; every sign
produced here is the parity of an explicit shuffle permutation against
that ordering.  All values are immutable after construction and all
operations are pure functions, so everything is safe to share between
threads.

Every product and contraction runs on one cached split table: for every
grade-(k+l) index and every split of its slots, the ranks of the two parts
and the sign.  Only the grade-1 tables, all that a solve uses, are built
directly; every other split table is composed from them.
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


@lru_cache(maxsize=None)
def _hodge_signs(n: int, k: int) -> np.ndarray:
    """Sign sending each grade-k basis form to its dual.

    The complements of the grade-k indices, taken in lex order, are the
    grade-(n-k) indices in reverse lex order (see `_combos`), so the dual
    of coefficient i lands at position C(n, k) - 1 - i.  The sign is the
    parity of moving the index's sorted slots I to the front of (0, ..., n-1),
    sum(I_j - j) transpositions.
    """
    swaps = (_combos(n, k) - np.arange(k)).sum(axis=1)
    sign = np.where(swaps % 2 == 0, 1.0, -1.0)
    sign.flags.writeable = False
    return sign


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


@lru_cache(maxsize=None)
def _split_table(n: int, k: int, l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slot-major table (k_rank, l_rank, sign) for a k-form wedged with an l-form, k >= l.

    Column T is a grade-(k+l) index; row s gives the l-form the slots in
    row s of _combos(k+l, l).  Those slots are removed largest first, so the
    ones below keep their positions, each by a gather in the grade-1 table
    of the current grade, which also gives the sign of moving it to the
    back; each removed element e is prepended to the l-part, whose rank
    grows as rank_{i+1} = C(n,i+1) - C(n,i) - C(n-1-e,i+1) + rank_i.
    """
    grade = k + l
    targets = _combos(n, grade).T
    splits = _combos(grade, l)
    table = _binomials(n)
    below = n - 1 - np.arange(n)
    k_rank = np.broadcast_to(np.arange(targets.shape[1]), (splits.shape[0], targets.shape[1]))
    l_rank = np.zeros(k_rank.shape, dtype=np.intp)
    sign = np.ones(splits.shape[0])
    for i in range(l):
        slot = splits[:, l - 1 - i]
        _, rank, slot_sign = _grade1_table(n, grade - 1 - i)
        k_rank = rank[slot[:, None], k_rank]
        sign *= slot_sign[slot]
        l_rank += table[n, i + 1] - table[n, i]
        l_rank -= table[below, i + 1][targets[slot]]
    for arr in (k_rank, l_rank, sign):
        arr.flags.writeable = False
    return k_rank, l_rank, sign


def _table(n: int, k: int, l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slot-major (k_rank, l_rank, sign) over every split of every grade-(k+l) index.

    The grade-1 table when l is 1, the (l, k) table with its roles swapped
    and its sign times (-1)^(kl) when k < l, the split table otherwise.
    """
    if k < l:
        l_rank, k_rank, sign = _table(n, l, k)
        return k_rank, l_rank, -sign if k * l % 2 else sign
    if l == 1:
        targets, rank, sign = _grade1_table(n, k)
        return rank, targets, sign
    return _split_table(n, k, l)


# Up to this many targets C(n, k+l), the kernels gather every split at
# once; above it they loop over the splits, whose gathers stay small.
# Measured crossover (grade-1 tables): 2-D faster at C(n, k+1) <= 2024,
# slower from 3003 on.
_WHOLE_TABLE_MAX = 2048


def _product(a: np.ndarray, b: np.ndarray, *table: np.ndarray) -> np.ndarray:
    """Coefficients of (k-form a) ^ (l-form b), on bare arrays; `table` is _table(n, k, l)."""
    k_rank, l_rank, sign = table
    if k_rank.shape[1] <= _WHOLE_TABLE_MAX:
        return sign @ (a[k_rank] * b[l_rank])
    out = np.zeros(k_rank.shape[1])
    for p in range(sign.shape[0]):
        term = a[k_rank[p]]
        term *= b[l_rank[p]]
        if sign[p] > 0:
            out += term
        else:
            out -= term
    return out


def _interior(a: np.ndarray, c: np.ndarray, size: int, *table: np.ndarray) -> np.ndarray:
    """The `size` coefficients of contract(k-form a, (k+l)-form c), on bare arrays."""
    k_rank, l_rank, sign = table
    if k_rank.shape[1] <= _WHOLE_TABLE_MAX:
        terms = a[k_rank] * c
        terms *= sign[:, None]
        return np.bincount(l_rank.ravel(), weights=terms.ravel(), minlength=size)
    out = np.zeros(size)
    for p in range(sign.shape[0]):
        term = a[k_rank[p]]
        term *= c
        out += sign[p] * np.bincount(l_rank[p], weights=term, minlength=size)
    return out


def _clear_caches() -> None:
    """Drop every cached table, so the next operation builds its tables cold."""
    for table in (_binomials, _combos, _grade1_table, _hodge_signs, _split_table):
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
    the factors, with no factorial averaging, taken over the split table
    for the two grades (the grade-1 table when one factor is a vector).
    """
    if not isinstance(a, KForm) or not isinstance(b, KForm):
        raise DomainError("wedge expects two KForm operands")
    if a.n != b.n:
        raise DomainError(f"mismatched ambient dimensions: {a.n} vs {b.n}")
    grade = a.k + b.k
    if grade > a.n:
        raise DomainError(f"grades {a.k} + {b.k} exceed the ambient dimension {a.n}")
    return KForm(a.n, grade, _product(a.coeffs, b.coeffs, *_table(a.n, a.k, b.k)))


def contract(a: KForm, c: KForm) -> KForm:
    """Interior product of the (k+l)-form `c` by the k-form `a`.

    The adjoint of x -> wedge(a, x): inner(wedge(a, x), c) equals
    inner(x, contract(a, c)) for every l-form x.  It runs the split table
    of wedge(a, x) backwards, gathering from the product's coefficients and
    summing into the second factor's.
    """
    if not isinstance(a, KForm) or not isinstance(c, KForm):
        raise DomainError("contract expects two KForm operands")
    if a.n != c.n:
        raise DomainError(f"mismatched ambient dimensions: {a.n} vs {c.n}")
    grade = c.k - a.k
    if grade < 0:
        raise DomainError(f"cannot contract a grade-{a.k} form into a grade-{c.k} form")
    size = math.comb(a.n, grade)
    return KForm(a.n, grade, _interior(a.coeffs, c.coeffs, size, *_table(a.n, a.k, grade)))


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
