"""Sparse coefficient arrays in canonical order.

A polynomial's terms are two arrays (``poly.TrigPoly``): the frequencies as
the rows of an int64 matrix ``K`` in strictly increasing lexicographic
order, and the coefficients ``C`` in the same order.  ``sorted_sums`` brings
terms given in any order to that form, summing the coefficients of a
repeated frequency, and ``cauchy_product`` multiplies two such forms.
Neither drops small coefficients; ``TrigPoly`` does.
"""

from __future__ import annotations

import math

import numpy as np


def sorted_sums(K: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K's rows sorted and made distinct, each with the sum, left to right in
    the given order, of the coefficients C of its copies."""
    if len(K) < 2:
        return K, C
    order = np.lexsort(K.T[::-1])  # stable: copies keep their order
    K, C = K[order], C[order]
    new = np.logical_or.reduce(K[1:] != K[:-1], axis=1)
    if np.count_nonzero(new) == len(new):
        return K, C
    starts = np.flatnonzero(np.concatenate(([True], new)))
    runs = np.diff(starts, append=len(K))
    total = C[starts]
    for i in range(1, int(runs.max())):
        more = runs > i
        total[more] += C[starts[more] + i]
    return K[starts], total


def cauchy_product(Kf: np.ndarray, Cf: np.ndarray, Kg: np.ndarray, Cg: np.ndarray,
                   limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The terms of f g, for f and g with the canonical terms (Kf, Cf) and
    (Kg, Cg): at each k_a + k_b, the sum of the c_a c_b, in canonical order.

    A frequency's key is its mixed-radix index in the box that holds every
    k_a + k_b, last coordinate fastest, so keys sort as frequencies do and
    the key of k_a + k_b is the sum of k_a's and k_b's offset keys.  One
    stable sort of the nnz(f) nnz(g) keys brings equal frequencies together
    and ``np.add.reduceat`` sums each run, pairwise as numpy reduces.  A box
    of 2**63 points or more has no int64 key, and its pairs go through
    ``sorted_sums``.  A dimension mismatch, more pairs than ``limit`` or a
    product frequency outside int64 is rejected before any work.
    """
    d = Kf.shape[1]
    if Kg.shape[1] != d:
        raise ValueError(f"dimension mismatch: d = {d} times d = {Kg.shape[1]}")
    pairs = len(Kf) * len(Kg)
    if pairs > limit:
        raise ValueError(f"the product of {len(Kf)} and {len(Kg)} terms has {pairs} pairs, "
                         f"over the budget of {limit}")
    if not pairs:
        return np.zeros((0, d), dtype=np.int64), np.zeros(0, dtype=complex)
    lo_f, lo_g = Kf.min(0), Kg.min(0)
    lo = [a + b for a, b in zip(lo_f.tolist(), lo_g.tolist())]
    hi = [a + b for a, b in zip(Kf.max(0).tolist(), Kg.max(0).tolist())]
    if min(lo) < -2**63 or max(hi) >= 2**63:
        raise ValueError(f"the product's frequencies span {lo}..{hi}, outside int64")
    with np.errstate(over="ignore", invalid="ignore"):  # TrigPoly names what is not finite
        C = np.multiply.outer(Cf, Cg).reshape(-1)
        widths = [b - a + 1 for a, b in zip(lo, hi)]
        if math.prod(widths) >= 2**63:
            return sorted_sums((Kf[:, None] + Kg).reshape(-1, d), C)
        strides = np.array([math.prod(widths[j + 1:]) for j in range(d)], dtype=np.int64)
        keys = np.add.outer((Kf - lo_f) @ strides, (Kg - lo_g) @ strides).reshape(-1)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        a, b = np.divmod(order[starts], len(Kg))  # the first pair of each distinct sum
        return Kf[a] + Kg[b], np.add.reduceat(C[order], starts)
