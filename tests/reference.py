"""Brute-force reference implementations, used only to cross-check fast paths.

Everything here works from first principles (explicit permutation
enumeration, dense antisymmetric tensors, full Levi-Civita contractions)
and deliberately shares no code with the package internals.
"""

import itertools

import numpy as np


def permutation_sign(seq):
    """Parity of a sequence of distinct integers by explicit inversion count."""
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def levi_civita_lookup(n):
    """Map from every n-permutation tuple (0-based) to its sign."""
    return {perm: permutation_sign(perm) for perm in itertools.permutations(range(n))}


def levi_civita_tensor(n):
    """Dense rank-n Levi-Civita array."""
    eps = np.zeros((n,) * n)
    for perm, sign in levi_civita_lookup(n).items():
        eps[perm] = sign
    return eps


def brute_hodge(n, k, coeffs):
    """Hodge dual straight from the Levi-Civita definition."""
    lookup = levi_civita_lookup(n)
    sources = list(itertools.combinations(range(n), k))
    targets = list(itertools.combinations(range(n), n - k))
    out = np.zeros(len(targets))
    for t_pos, target in enumerate(targets):
        total = 0.0
        for s_pos, source in enumerate(sources):
            total += lookup.get(source + target, 0) * coeffs[s_pos]
        out[t_pos] = total
    return out


def dense_tensor(n, k, coeffs):
    """Expand sorted-index coefficients into the full antisymmetric array."""
    if k == 0:
        return np.array(float(coeffs[0]))
    out = np.zeros((n,) * k)
    for pos, combo in enumerate(itertools.combinations(range(n), k)):
        for perm in itertools.permutations(combo):
            out[perm] = permutation_sign(perm) * coeffs[pos]
    return out


def sorted_coeffs(tensor, n, k):
    """Read the sorted-multi-index coefficients back out of a dense array."""
    if k == 0:
        return np.array([float(tensor)])
    return np.array([tensor[c] for c in itertools.combinations(range(n), k)])


def brute_wedge(n, p, q, a_coeffs, b_coeffs):
    """Wedge product via dense tensors and an explicit shuffle sum."""
    if p == 0:
        return float(a_coeffs[0]) * np.asarray(b_coeffs, dtype=float)
    if q == 0:
        return float(b_coeffs[0]) * np.asarray(a_coeffs, dtype=float)
    big = np.multiply.outer(dense_tensor(n, p, a_coeffs), dense_tensor(n, q, b_coeffs))
    r = p + q
    out = np.zeros((n,) * r)
    for pos_a in itertools.combinations(range(r), p):
        pos_b = [i for i in range(r) if i not in pos_a]
        perm = [0] * r
        for axis, slot in enumerate(pos_a):
            perm[slot] = axis
        for axis, slot in enumerate(pos_b):
            perm[slot] = p + axis
        swaps = sum(slot - i for i, slot in enumerate(pos_a))
        out += (-1) ** swaps * np.transpose(big, perm)
    return sorted_coeffs(out, n, r)


def shuffle_products(n, k, l, a, b, c):
    """Explicit shuffle sums: the coefficients of a ^ b and of contract(a, c).

    Every split of every sorted (k+l)-tuple T between a k-tuple and an
    l-tuple adds sign * a[K] * b[L] to the product at T and
    sign * a[K] * c[T] to the interior product at L, where sign is the
    parity of the concatenation (K, L).
    """
    k_pos = {combo: i for i, combo in enumerate(itertools.combinations(range(n), k))}
    l_pos = {combo: i for i, combo in enumerate(itertools.combinations(range(n), l))}
    product = np.zeros(len(c))
    interior = np.zeros(len(l_pos))
    for slots in itertools.combinations(range(k + l), k):
        rest = tuple(i for i in range(k + l) if i not in slots)
        sign = permutation_sign(slots + rest)
        for t, target in enumerate(itertools.combinations(range(n), k + l)):
            term = sign * a[k_pos[tuple(target[i] for i in slots)]]
            low = l_pos[tuple(target[i] for i in rest)]
            product[t] += term * b[low]
            interior[low] += term * c[t]
    return product, interior


def brute_optimal_ray(rows, b):
    """Literal double Levi-Civita contraction for the optimal ray at unit scale."""
    rows = np.asarray(rows, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = rows.shape
    contracted = levi_civita_tensor(n)
    for row in rows:
        contracted = np.tensordot(contracted, row, axes=([1], [0]))
    weighted = np.tensordot(b, contracted, axes=([0], [0]))
    q = n - m - 1
    return np.tensordot(contracted, weighted, axes=(list(range(1, 1 + q)), list(range(q))))


def null_space_axis(rows):
    """First coordinate axis whose SVD null-space projection exceeds 1e-4, normalized."""
    rows = np.asarray(rows, dtype=float)
    null = np.linalg.svd(rows)[2][rows.shape[0]:]
    for axis in np.eye(rows.shape[1]):
        projected = null.T @ (null @ axis)
        length = np.linalg.norm(projected)
        if length > 1e-4:
            return projected / length
    raise AssertionError("no coordinate axis has a null-space part")
