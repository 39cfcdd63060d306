"""Grade-k antisymmetric forms over Euclidean R^n.

A k-form is stored densely: one coefficient per strictly increasing
multi-index, in lexicographic order, C(n, k) coefficients in total.
The orientation is e1 ^ ... ^ en and the metric is Euclidean; every sign
produced here is the parity of an explicit shuffle permutation against
that ordering.  All values are immutable after construction and all
operations are pure functions, so everything is safe to share between
threads.

Every product and contraction runs on one cached split table: for every
grade-(k+l) index, k >= l, and split of its slots, the ranks of the two
parts and the sign.  A contraction is the product contract(a, c) =
(-1)^(kl + l(n-l)) *(a ^ *c), k and l the grades of a and the result, on a
table as large as its adjoint's: C(n, l) C(n-l, k) = C(n, k+l) C(k+l, k).
Only the grade-1 tables are built directly, each below grade n/2 by block
copies of the one a grade down, and each from n/2 up as a mirror of the one
below its dual grade; every other split table is composed from them.  A
solve of m rows, low = min(m, n - m), builds the (k, 1) tables for
k < low only.  When 2m <= n they fold the rows into an m-form, and the
(m-1, 1) one lays out the contractions of that form by each basis vector as
the rows of one n x C(n, m-1) array; when 2m > n the (n-m-1, 1) one lays
out those of its Hodge dual.  The block rule: past `_BLOCK_MIN`, any (k, 1)
or (1, k) product, `wedge` and `contract` included, and the layout of the
contractions of a (k+1)-form read the (k, 1) table block by block off the
(k-1, 1) one (`_block_slots`), bit-identical to its per-slot loop, and never
build it; so a solve never builds its largest table, the (low-1, 1) one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "KForm",
    "MultiIndex",
    "basis_form",
    "contract",
    "from_vector",
    "hodge",
    "inner",
    "rank_multi_index",
    "unrank_multi_index",
    "wedge",
    "zero_form",
]

# Up to this dimension every C(n, k) and lex rank fits the int64 tables;
# C(64, 32) is about 1.8e18, below 2^63.
_MAX_DIMENSION = 64
# Largest estimated peak, in bytes, of one operation; a larger one is refused
# before it allocates.  On a host with 8 GB of memory the cold 32x8 solve
# completed at a 2.8 GB tracemalloc peak (estimate 3.1 GiB) while it still
# built its (7, 1) table, and 26x13 (estimate 9.0 GiB then, 7.0 GiB on
# blocks) ran out of memory even under a 5.5 GB limit; the budget lies
# between the two.
_WORK_BUDGET = 4 * 2**30


def _check_dimension(n: int) -> int:
    if not 1 <= n <= _MAX_DIMENSION:
        raise DomainError(f"ambient dimension must lie in [1, {_MAX_DIMENSION}], got {n}")
    return n


def _integer(value: object, name: str, error: type[Exception] = DomainError) -> int:
    """`value` as an int: any integer, numpy's included; a bool or any other
    value is refused as `error`, naming the argument `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name}: expected an integer, got {value!r}")
    return int(value)


def _grade(n: object, k: object) -> tuple[int, int]:
    """(n, k) as ints, n an ambient dimension (`_check_dimension`) and 0 <= k <= n."""
    n, k = _integer(n, "n"), _integer(k, "k")
    if not 0 <= k <= _check_dimension(n):
        raise DomainError(f"grade must lie in [0, {n}], got {k}")
    return n, k


def _positive(value: object, name: str, error: type[Exception] = DomainError) -> float:
    """`value` as a float when it is a real number, not a bool, that is a finite
    positive double; any other value is refused as `error`, naming `name`."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else 0.0
    except OverflowError:  # an integer past the double range
        number = math.inf
    if not 0.0 < number < math.inf:  # NaN fails both comparisons
        raise error(f"{name} must be a finite positive number, got {value!r}")
    return number


def _real_array(value: object, what: str, ndim: int, complex_ok: bool = False) -> np.ndarray:
    """`value` as a new `ndim`-d array with finite entries, complex if it is complex
    and `complex_ok`, else float; anything else, ragged or non-numeric input
    included, is refused, naming `what`."""
    try:
        arr = np.asarray(value)
        is_complex = arr.dtype.kind == "c"
        arr = arr.astype(complex if is_complex else float) if complex_ok or not is_complex else None
    except (TypeError, ValueError, OverflowError):  # ragged, not numeric, an int past 2**1024
        arr = None
    if arr is None or arr.ndim != ndim:
        kind = "real or complex" if complex_ok else "real"
        raise DomainError(f"{what} must be a {ndim}-d array of {kind} numbers")
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} must have finite entries")
    return arr


def _check_work(nbytes: int, what: str) -> None:
    """Refuse `what` when its estimated peak, `nbytes`, is over the work budget."""
    if nbytes > _WORK_BUDGET:
        raise DomainError(
            f"{what} needs an estimated {nbytes / 2**30:.3g} GiB at its peak, "
            f"above the work budget of {_WORK_BUDGET / 2**30:g} GiB"
        )


def _freeze(obj: object, **fields: object) -> None:
    """Set each field of the frozen dataclass `obj`, each array made read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)


def _ldexp_checked(x: float, e: int, what: str) -> float:
    """x * 2^e, refused, as `what`, when it is not a finite double."""
    # x = f * 2^k with f in [1/2, 1) scales past the largest double iff k + e > 1024; 0 never does
    if not math.isfinite(x) or (x and math.frexp(x)[1] + e > 1024):
        raise DomainError(f"{what} is not representable: {float(x)!r} * 2**{e}")
    return math.ldexp(x, e)


def _blocks(n: int, k: int):
    """(i, block, tail) for each first element i of a grade-k index below n, k >= 1.

    In lex order the k-tuples that start with i fill rows `block` of
    _combos(n, k), and they are i followed by the (k-1)-tuples whose
    smallest element is above i: rows tail: of _combos(n, k-1).
    """
    size, below = math.comb(n, k), math.comb(n, k - 1)
    for i in range(n - k + 1):
        start, stop = size - math.comb(n - i, k), size - math.comb(n - 1 - i, k)
        yield i, slice(start, stop), below - math.comb(n - 1 - i, k - 1)


@lru_cache(maxsize=None)
def _combos(n: int, k: int) -> np.ndarray:
    """All strictly increasing 0-based k-tuples below n, lex order, one per row.

    Column-major, so `.T` is a contiguous slot-major view.  Grades up to n/2
    are block copies of the grade below (see `_blocks`): a column of first
    elements, and beside it a tail of the (k-1)-tuples.  Higher grades are
    the complements of grade n-k in reverse order, so the recursion never
    passes through grade n/2 on its way to a grade near n.
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
        out = np.empty((math.comb(n, k), k), dtype=np.intp, order="F")
        for i, block, tail in _blocks(n, k):
            out[block, 0] = i
            out[block, 1:] = prev[tail:]
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
    # the index list and its shifted copy
    _check_work(16 * k * math.comb(n, k), f"the grade-{k} Hodge signs over R^{n}")
    swaps = (_combos(n, k) - np.arange(k)).sum(axis=1)
    sign = np.where(swaps % 2 == 0, 1.0, -1.0)
    sign.flags.writeable = False
    return sign


@lru_cache(maxsize=None)
def _grade1_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slot-major table (targets, rank, sign) for a k-form wedged with a 1-form.

    Column T is a grade-(k+1) target index and row p one of its slots:
    targets[p] is T_p, the 1-form's index; rank[p] is the lex rank of T
    without T_p, the k-form's index; sign[p] is (-1)^(k-p), the parity of
    moving T_p past the k - p slots after it.

    Every table but k = 0 is built from one below n/2, built first, so the
    work check counts the whole chain.  When 1 <= k < n/2 the ranks are
    block copies of the (k-1, 1) table: over a block (see `_block_slots`),
    rank[0] is an arange over its tail and rank[1:] the (k-1, 1) ranks over
    it plus the offset.  When 2k >= n they are a scatter of its dual, the
    (n-k-1, 1) table: each of its (U, p) gives the target
    T = (U without U_p)^c, of rank C(n,k+1) - 1 - rank(U without U_p), whose
    slot U_p - p holds U_p and leaves U^c, of rank C(n,k) - 1 - rank(U).
    """
    low, below = (n - k - 1, "its dual") if 2 * k >= n else (k - 1, "it")
    chain = sum(16 * (j + 1) * math.comb(n, j + 1) for j in (*range(low + 1), k))
    _check_work(chain, f"the ({n}, {k}, 1) table and the grade-1 tables below {below}")
    targets = _combos(n, k + 1).T
    rank = np.zeros(targets.shape, dtype=np.intp)  # for k = 0, the empty index
    if 2 * k >= n:
        dual_targets, dual_rank, _ = _grade1_table(n, low)
        slots = dual_targets - np.arange(low + 1)[:, None]
        rank[slots, math.comb(n, k + 1) - 1 - dual_rank] = np.arange(math.comb(n, k))[::-1]
    elif k:
        for _, block, tail, _, lower, offset in _block_slots(n, k + 1):
            rank[0, block] = np.arange(tail, math.comb(n, k))
            np.add(lower, offset, out=rank[1:, block])
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
    grows as rank_{i+1} = C(n,i+1) - C(n,i) - C(n-1-e,i+1) + rank_i, the
    last term gathered from one n-vector of C(n-1-e, i+1) per removed slot.
    """
    grade = k + l
    _check_work(16 * math.comb(n, grade) * math.comb(grade, l), f"the ({n}, {k}, {l}) table")
    targets = _combos(n, grade).T
    splits = _combos(grade, l)
    k_rank = np.broadcast_to(np.arange(targets.shape[1]), (splits.shape[0], targets.shape[1]))
    l_rank = np.zeros(k_rank.shape, dtype=np.intp)
    sign = np.ones(splits.shape[0])
    for i in range(l):
        slot = splits[:, l - 1 - i]
        _, rank, slot_sign = _grade1_table(n, grade - 1 - i)
        k_rank = rank[slot[:, None], k_rank]
        sign *= slot_sign[slot]
        l_rank += math.comb(n, i + 1) - math.comb(n, i)
        l_rank -= np.array([math.comb(n - 1 - e, i + 1) for e in range(n)])[targets[slot]]
    for arr in (k_rank, l_rank, sign):
        arr.flags.writeable = False
    return k_rank, l_rank, sign


# Up to this many targets C(n, k+l), the kernel gathers every split at
# once; above that it loops over the splits, whose gathers stay small.
# Measured crossover (grade-1 tables): 2-D faster at C(n, k+1) <= 2024,
# slower from 3003 on.
_WHOLE_TABLE_MAX = 2048


# From this average block size C(n, k) / (n - k + 1) of the grade-k indices
# up, the grade-k steps run by the block rule of the module docstring: any
# product of a (k-1)-form with a vector, on either side, and the layout of
# the contractions of a k-form.  Warm solves on blocks against tables
# (interleaved medians, 2 cores): 1.18 to 1.34 times as long at averages
# 1144-1430 (16x7, 32x4, 16x8), 1.08-1.12 at 2125-2431 (24x5, 17x8),
# 0.92-1.03 from 2584 up (20x6 to 22x16).  Cold solves on blocks are faster
# at every shape.
_BLOCK_MIN = 3000


def _by_blocks(n: int, k: int) -> bool:
    """Whether the grade-k steps run by the block rule (`_BLOCK_MIN`), k >= 2:
    any product of a (k-1)-form with a vector, on either side, and a layout."""
    return k > 1 and math.comb(n, k) >= _BLOCK_MIN * (n - k + 1)


def _block_slots(n: int, k: int):
    """(j, block, tail, targets, rank, offset) for each block of the grade-k indices, k >= 2.

    The indices T at `block` are j followed by the (k-1)-tuples from `tail`
    on (see `_blocks`): slot 0 holds j and leaves those tuples, a slice.
    Over the block, targets[p - 1] is the element in slot p >= 1 and
    rank[p - 1] + offset the rank of T without it: the (k-1, 1) table's rows
    1: over `block`, read off the (k-2, 1) table, as `_grade1_table` builds
    them.  Callers index them one slot at a time: numpy's 1-d gathers and
    scatters are faster than its 2-d ones.
    """
    lower_targets, lower_rank, _ = _grade1_table(n, k - 2)
    for (j, block, tail), (_, home, lower_tail) in zip(_blocks(n, k), _blocks(n, k - 1)):
        yield j, block, tail, lower_targets[:, tail:], lower_rank[:, tail:], home.start - lower_tail


def _product(a: np.ndarray, b: np.ndarray, n: int, k: int, l: int) -> np.ndarray:
    """Coefficients of (k-form a) ^ (l-form b) over R^n, on bare arrays.

    When k < l it is (-1)^(kl) b ^ a, the only operand swap, so every table
    read has k >= l and a vector on either side takes the (k, 1) path: by
    blocks (`_block_slots`) when `_by_blocks(n, k + 1)`, bit-identical to the
    per-split loop.  Else on the grade-1 or split table, every split at once
    up to `_WHOLE_TABLE_MAX` targets, one at a time above.
    """
    if k < l:
        out = _product(b, a, n, l, k)
        return -out if k * l % 2 else out
    if l == 1 and _by_blocks(n, k + 1):
        out = np.zeros(math.comb(n, k + 1))
        for j, block, tail, targets, rank, offset in _block_slots(n, k + 1):
            part = out[block]
            for p in range(k + 1):
                term = a[rank[p - 1] + offset] * b[targets[p - 1]] if p else a[tail:] * b[j]
                if (k - p) % 2:
                    part -= term
                else:
                    part += term
        return out
    if l == 1:
        l_rank, k_rank, sign = _grade1_table(n, k)
    else:
        k_rank, l_rank, sign = _split_table(n, k, l)
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


def _interior_rows(a: np.ndarray, n: int, k: int) -> np.ndarray:
    """n x C(n, k-1) array whose row i is contract(e_i, k-form a), for k >= 1.

    Coefficient J of contract(e_i, a) is (-1)^p a_T, where T is J with i
    inserted at slot p; the (k-1, 1) grade-1 table lists every such (T, p)
    with T_p and the rank of J, so a is scattered once per slot.  When
    `_by_blocks(n, k)` the table is not built: each block of a (see
    `_block_slots`) is copied to row j, columns tail:, for slot 0, and
    scattered once per slot above it.
    """
    cols = math.comb(n, k - 1)
    out = np.zeros(n * cols)  # row i, column J at i * cols + J
    negated = -a
    if _by_blocks(n, k):
        grid = out.reshape(n, cols)
        for j, block, tail, targets, rank, offset in _block_slots(n, k):
            grid[j, tail:] = a[block]
            for p in range(1, k):
                out[targets[p - 1] * cols + rank[p - 1] + offset] = (negated if p % 2 else a)[block]
        return grid
    targets, rank, _ = _grade1_table(n, k - 1)
    for p in range(k):
        out[targets[p] * cols + rank[p]] = negated if p % 2 else a
    return out.reshape(n, cols)


def _dual(coeffs: np.ndarray, n: int, k: int) -> np.ndarray:
    """Hodge dual of a k-form's coefficients: signed, then reversed (see `_hodge_signs`)."""
    return (_hodge_signs(n, k) * coeffs)[::-1]


def _clear_caches() -> None:
    """Drop every cached table, so the next operation builds its tables cold."""
    for table in (_combos, _grade1_table, _hodge_signs, _split_table):
        table.cache_clear()


@dataclass(frozen=True)
class MultiIndex:
    """Strictly increasing 1-based index tuple labelling a basis k-form."""

    indices: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        n = _check_dimension(_integer(self.n, "n"))
        indices = tuple(_integer(i, "indices") for i in self.indices)
        if len(indices) > n:
            raise DomainError(f"at most {n} indices fit in dimension {n}, got {len(indices)}")
        if any(i < 1 or i > n for i in indices):
            raise DomainError(f"indices must lie in [1, {n}], got {indices}")
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise DomainError(f"indices must be strictly increasing, got {indices}")
        _freeze(self, indices=indices, n=n)

    @property
    def k(self) -> int:
        return len(self.indices)


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
    position = _integer(position, "position")
    n, k = _grade(n, k)
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
        n, k = _grade(self.n, self.k)
        coeffs = _real_array(self.coeffs, "form coefficients", 1)
        expected = math.comb(n, k)
        if coeffs.shape[0] != expected:
            raise DomainError(f"a grade-{k} form over R^{n} needs exactly {expected} coefficients")
        _freeze(self, n=n, k=k, coeffs=coeffs)

    def norm(self) -> float:
        """Euclidean norm of the coefficients, each divided by the exact power of two 2^e
        of the largest and the norm scaled back by 2^e, so no square over- or underflows;
        a norm past the largest double is refused."""
        e = math.frexp(float(np.max(np.abs(self.coeffs))))[1]
        norm = float(np.linalg.norm(np.ldexp(self.coeffs, -e)))
        return _ldexp_checked(norm, e, "the form's norm")


def zero_form(n: int, k: int) -> KForm:
    """The zero form of the given grade."""
    n, k = _grade(n, k)
    _check_work(16 * math.comb(n, k), f"a grade-{k} form over R^{n}")
    return KForm(n, k, np.zeros(math.comb(n, k)))


def basis_form(n: int, indices: Sequence[int]) -> KForm:
    """Unit coefficient on one sorted 1-based multi-index, zero elsewhere."""
    index = MultiIndex(tuple(indices), n)
    _check_work(16 * math.comb(n, index.k), f"a grade-{index.k} form over R^{n}")
    coeffs = np.zeros(math.comb(n, index.k))
    coeffs[rank_multi_index(index)] = 1.0
    return KForm(n, index.k, coeffs)


def from_vector(v: Sequence[float]) -> KForm:
    """Embed an n-vector as the grade-1 form with the same components."""
    arr = _real_array(v, "vector", 1)
    if arr.shape[0] < 1:
        raise DomainError("expected a non-empty 1-d real vector")
    return KForm(arr.shape[0], 1, arr)


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product of two forms.

    Bilinear, associative and graded-anticommutative; the coefficient of a
    sorted target index is the shuffle-signed sum over all splits between
    the factors, with no factorial averaging, by the kernel `_product` picks.
    """
    if not isinstance(a, KForm) or not isinstance(b, KForm):
        raise DomainError("wedge expects two KForm operands")
    if a.n != b.n:
        raise DomainError(f"mismatched ambient dimensions: {a.n} vs {b.n}")
    grade = a.k + b.k
    if grade > a.n:
        raise DomainError(f"grades {a.k} + {b.k} exceed the ambient dimension {a.n}")
    with np.errstate(over="ignore", invalid="ignore"):  # KForm refuses a non-finite result
        coeffs = _product(a.coeffs, b.coeffs, a.n, a.k, b.k)
    return KForm(a.n, grade, coeffs)


def contract(a: KForm, c: KForm) -> KForm:
    """Interior product of the (k+l)-form `c` by the k-form `a`.

    The adjoint of x -> wedge(a, x): inner(wedge(a, x), c) equals
    inner(x, contract(a, c)) for every l-form x.  It is (-1)^(kl + l(n-l))
    *(a ^ *c).  When *c is above grade 1, the table `_product` reads is built,
    and checked against the work budget, before either dual is taken.
    """
    if not isinstance(a, KForm) or not isinstance(c, KForm):
        raise DomainError("contract expects two KForm operands")
    if a.n != c.n:
        raise DomainError(f"mismatched ambient dimensions: {a.n} vs {c.n}")
    n, grade, dual_k = a.n, c.k - a.k, a.n - c.k
    if grade < 0:
        raise DomainError(f"cannot contract a grade-{a.k} form into a grade-{c.k} form")
    if dual_k > 1:  # a dual of grade 0 or 1 is at most n coefficients
        k, l = max(a.k, dual_k), min(a.k, dual_k)  # as `_product` orders them
        if l != 1:
            _split_table(n, k, l)
        else:  # the (k - 1, 1) table when the block rule reads the (k, 1) one off it
            _grade1_table(n, k - 1 if _by_blocks(n, k + 1) else k)
    with np.errstate(over="ignore", invalid="ignore"):  # KForm refuses a non-finite result
        coeffs = _dual(_product(a.coeffs, _dual(c.coeffs, n, c.k), n, a.k, dual_k), n, n - grade)
    return KForm(n, grade, -coeffs if (a.k * grade + grade * (n - grade)) % 2 else coeffs)


def hodge(a: KForm) -> KForm:
    """Euclidean Hodge dual with respect to the e1 ^ ... ^ en orientation.

    On a sorted basis form e_I the dual is sign(I, I^c) e_{I^c}, where the
    sign is the parity of the permutation (I, I^c) of (1, ..., n).
    """
    if not isinstance(a, KForm):
        raise DomainError("hodge expects a KForm")
    return KForm(a.n, a.n - a.k, _dual(a.coeffs, a.n, a.k))


def inner(a: KForm, b: KForm) -> float:
    """Coefficient dot product of two same-grade forms over the same space.

    When the plain dot product is not finite, a product of two coefficients
    overflowed: it is taken again as an exact rational sum, rounded once,
    and refused when that is past the largest double, so no small term is
    lost when the largest ones cancel.  A finite plain result is returned as
    it is.
    """
    if not isinstance(a, KForm) or not isinstance(b, KForm):
        raise DomainError("inner expects two KForm operands")
    if a.n != b.n or a.k != b.k:
        raise DomainError("inner requires matching ambient dimension and grade")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is redone below
        value = float(a.coeffs @ b.coeffs)
    if math.isfinite(value):
        return value
    from fractions import Fraction  # only here, so importing the package does not load it

    exact = sum(Fraction(x) * Fraction(y) for x, y in zip(a.coeffs.tolist(), b.coeffs.tolist()))
    try:
        return float(exact)
    except OverflowError:
        scale = exact.numerator.bit_length() - exact.denominator.bit_length()
        raise DomainError(f"the inner product is not representable: about 2**{scale}") from None
