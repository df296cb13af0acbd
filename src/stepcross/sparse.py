"""Sparse coefficient arrays in canonical order.

A polynomial's terms are two arrays (``poly.TrigPoly``): the frequencies as
the rows of an int64 matrix ``K`` in strictly increasing lexicographic
order, and the coefficients ``C`` in the same order.  ``sorted_sums`` brings
terms given in any order to that form, summing the coefficients of a
repeated frequency, ``cauchy_product`` multiplies two such forms and
``cauchy_squares`` squares many, each a run of terms (of at most
``moments.PAIR_BUDGET`` pairs for ``moments.even_norms``).  None drops small
coefficients; ``TrigPoly`` does.  ``run_sums`` is the package's one
left-to-right sum of runs, in memory linear in its input: ``sorted_sums``
adds repeats with it, ``even_norms`` the squared moduli of each polynomial
and of its square, and the projector probe its block sums.
"""

from __future__ import annotations

import math

import numpy as np


def sort_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stable sorting order of int64 ``keys`` (or of matrix rows, taken
    lexicographically), the sorted keys, and where each run of equal keys
    starts among them."""
    # lexsort is stable too: equal rows keep their order
    order = np.argsort(keys, kind="stable") if keys.ndim == 1 else np.lexsort(keys.T[::-1])
    keys = keys[order]
    return order, keys, run_starts(keys)


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal sorted keys (or matrix rows) starts."""
    new = keys[1:] != keys[:-1]
    if keys.ndim > 1:
        new = np.logical_or.reduce(new, axis=1)
    return np.flatnonzero(np.concatenate(([len(keys) > 0], new)))


def sorted_sums(K: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K's rows sorted and made distinct, each with the sum, left to right in
    the given order, of the coefficients C of its copies (``run_sums``)."""
    if len(K) < 2:
        return K, C
    order, K, starts = sort_runs(K)  # stable: copies keep their order
    if len(starts) == len(K):
        return K, C[order]
    with np.errstate(over="ignore", invalid="ignore"):  # TrigPoly names what is not finite
        return K[starts], run_sums(C[order], starts)


def _strides(lo: list[int], hi: list[int]) -> np.ndarray | None:
    """The strides of mixed-radix keys in the box lo..hi, last coordinate
    fastest, or None for a box of 2**63 points or more; a box outside int64
    is rejected."""
    if min(lo) < -2**63 or max(hi) >= 2**63:
        raise ValueError(f"the product's frequencies span {lo}..{hi}, outside int64")
    widths = [b - a + 1 for a, b in zip(lo, hi)]
    if math.prod(widths) >= 2**63:
        return None
    return np.array([math.prod(widths[j + 1:]) for j in range(len(widths))], dtype=np.int64)


def cauchy_product(Kf: np.ndarray, Cf: np.ndarray, Kg: np.ndarray, Cg: np.ndarray,
                   limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The terms of f g, for f and g with the canonical terms (Kf, Cf) and
    (Kg, Cg): at each k_a + k_b, the sum of the c_a c_b, in canonical order.

    A frequency's key is its mixed-radix index in the box that holds every
    k_a + k_b, last coordinate fastest, so keys sort as frequencies do and
    the key of k_a + k_b is the sum of k_a's and k_b's offset keys.  One
    stable sort of the nnz(f) nnz(g) keys brings equal frequencies together
    and ``np.add.reduceat`` sums each run, pairwise as numpy reduces.  A box
    of 2**63 points or more has no int64 key, and ``np.lexsort`` sorts its
    pairs' frequencies instead, for the same sums.  A dimension mismatch,
    more pairs than ``limit`` or a product frequency outside int64 is
    rejected before any work.
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
    strides = _strides([a + b for a, b in zip(lo_f.tolist(), lo_g.tolist())],
                       [a + b for a, b in zip(Kf.max(0).tolist(), Kg.max(0).tolist())])
    with np.errstate(over="ignore", invalid="ignore"):  # TrigPoly names what is not finite
        C = np.multiply.outer(Cf, Cg).reshape(-1)
        if strides is None:
            keys = (Kf[:, None] + Kg).reshape(-1, d)
        else:
            keys = np.add.outer((Kf - lo_f) @ strides, (Kg - lo_g) @ strides).reshape(-1)
        order, _, starts = sort_runs(keys)
        a, b = np.divmod(order[starts], len(Kg))  # the first pair of each distinct sum
        return Kf[a] + Kg[b], np.add.reduceat(C[order], starts)


def cauchy_squares(K: np.ndarray, C: np.ndarray, starts: np.ndarray,
                   limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of f_i f_i for the polynomials f_i whose canonical terms
    are the runs (K, C)[starts[i]:starts[i + 1]], the last to the end: each
    term's run i, frequency and coefficient, run after run, each run in
    canonical order and bit for bit ``cauchy_product`` of the run with
    itself.

    A pair's key is ``cauchy_product``'s with the run as a leading
    coordinate.  One stable sort and one ``np.add.reduceat`` take the pairs
    of every run and sum each run's as ``cauchy_product`` sums one; a caller
    that bounds its memory passes a few runs at a time.  A run of one term
    is multiplied as numpy multiplies a 1 x 1 outer product.  A run of over
    ``limit`` pairs or a square outside int64 is rejected before any work.
    """
    lengths = np.concatenate((starts[1:], [len(K)])) - starts
    if lengths.max(initial=0) ** 2 > limit:
        raise ValueError(f"a square of {lengths.max()} terms has {lengths.max() ** 2} pairs, "
                         f"over the budget of {limit}")
    if not len(K):
        return np.zeros(0, dtype=np.int64), K, C
    lo = K.min(0)
    strides = _strides([0] + [2 * v for v in lo.tolist()],
                       [len(starts) - 1] + [2 * v for v in K.max(0).tolist()])
    offset = None if strides is None else (K - lo) @ strides[1:]
    run = np.repeat(np.arange(len(starts)), lengths)  # each term's run
    reps = lengths[run]  # the pairs (a, b) of each term a
    skip = np.cumsum(reps) - reps - starts[run]  # pair (a, b) is number b + skip[a]
    a = np.repeat(np.arange(len(K)), reps)
    b = np.arange(len(a)) - skip[a]
    with np.errstate(over="ignore", invalid="ignore"):  # TrigPoly names what is not finite
        Cp = C[a] * C[b]
        one = reps[a] == 1
        x, y = C.real[a[one]], C.imag[a[one]]
        # numpy multiplies a 1 x 1 outer product with no fused operations
        Cp.real[one], Cp.imag[one] = x * x - y * y, x * y + y * x
        keys = (np.column_stack((run[a], K[a] + K[b])) if offset is None
                else run[a] * strides[0] + offset[a] + offset[b])
        order, _, sums = sort_runs(keys)
        pair = order[sums]  # the first pair of each distinct sum
        return run[a[pair]], K[a[pair]] + K[b[pair]], np.add.reduceat(Cp[order], sums)


def run_sums(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The sum of each run x[starts[i]:starts[i + 1]], the last to the end,
    added left to right from its first element; an empty run sums to 0.

    The runs are taken longest first, in a stable order, so step i adds
    element i of every run longer than i to a prefix of the sums; nothing
    larger than x and one value per run is held."""
    lengths = np.diff(starts, append=len(x))
    order = np.argsort(-lengths, kind="stable")
    first, total = starts[order], np.zeros(len(starts), x.dtype)
    # in this order the runs longer than i are the first longer[i]
    longer = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)))
    for i, m in enumerate(longer.tolist()):
        total[:m] = x[first[:m]] if i == 0 else total[:m] + x[first[:m] + i]
    out = np.empty_like(total)
    out[order] = total
    return out
