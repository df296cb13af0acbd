"""De la Vallee-Poussin kernels and the smooth dyadic block filters they induce.

``vdp_coeff(l, k)`` is the Fourier coefficient of the order-l kernel: 1 on
|k| <= l, a linear ramp down to 0 on l < |k| < 2l, 0 beyond (for l = 1 the
ramp band is empty).  The block filter attached to a block index s is, per
coordinate, the difference of two consecutive kernels in the dyadic ladder;
convolving with it is plain coefficient multiplication.

``smooth_block(f, s)`` is that multiplication for one block index.
``smooth_blocks_of(f)`` splits f into all of its nonzero smooth blocks in one
pass over the coefficients, the smooth counterpart of ``poly.blocks_of``;
``filter_support_blocks`` lists their indices and ``smooth_aggregate``
filters and sums only those inside a gamma'-cross.  ``smooth_filing(f)``
returns that pass with each group's multipliers, so a caller with many
polynomials on f's frequencies files and filters them once.  The filter
product is formed in one place, ``_multipliers``.  The kernel and filter
coefficients take integer arrays, so every filter is applied to a whole
coordinate column of ``f.K`` at once.

The filters follow one convention, ``partition-exact``, in the one rung
formula that ``block_filter_coeff`` and ``smooth_block`` share: at s = 1
the rung is V_2 minus the pure mean projection, not the ladder's V_2 - V_1,
which annihilates the frequencies |k| = 1.  So summing the filters over all
block indices reproduces any mean-zero polynomial exactly.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .blocks import SmoothParams, group_by_block, int_tuple, mean_zero_block_indices
from .poly import TrigPoly

CONVENTIONS = ("partition-exact",)


def vdp_coeff(l, k):
    """Kernel coefficient at frequency k; ``l`` and ``k`` may be integer arrays
    (broadcast together), and scalars give a scalar."""
    l, a = np.asarray(l), np.abs(k)
    if np.any(l < 1):
        raise ValueError(f"kernel order must be >= 1, got l={l}")
    return _vdp(l, a)[()]


def _vdp(l, a):
    """``vdp_coeff`` at |k| = a for an order l already checked."""
    return np.where(a <= l, 1.0, np.where(a < 2 * l, 1.0 - (a - l) / l, 0.0))


def block_filter_coeff(s, k):
    """Per-coordinate multiplier of the block-s filter at frequency k; ``s``
    and ``k`` may be integer arrays (broadcast together)."""
    a = np.asarray(s)
    if a.dtype.kind not in "iu":
        raise ValueError(f"block index components must be integers, got s={s!r}")
    if np.any(a < 1):
        raise ValueError("block index components must be >= 1")
    return _rung(a.astype(np.int64), np.abs(k))[()]


def _rung(s, a):
    """The block-s filter multiplier at |k| = a, for s >= 1 already checked:
    the ladder rung V_{2^s} - V_{2^(s-1)}, and V_2 - [k = 0] where s = 1.
    ``s`` is an int, which evaluates only the rung it takes, or an int64
    array broadcast with a."""
    first = s == 1  # a bool unless s is an array
    if first is True:
        return _vdp(2, a) - (a == 0)
    ladder = _vdp(2**s, a) - _vdp(2 ** (s - 1), a)
    if first is False or not first.any():
        return ladder
    return np.where(first, _vdp(2, a) - (a == 0), ladder)


def smooth_block(f: TrigPoly, s: Sequence[int], convention: str = "partition-exact") -> TrigPoly:
    """Convolution of f with the product block filter for index ``s``: the
    multipliers are those of ``block_filter_coeff``, bit for bit, with ``s``
    checked once and each kernel of the ladder evaluated once per coordinate.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
    s = int_tuple(s, "block index", "s")
    if len(s) != f.d:
        raise ValueError("dimension mismatch")
    if min(s, default=1) < 1:
        raise ValueError("block index components must be >= 1")
    mult = _multipliers(f.K, s)
    keep = mult != 0.0
    return f.take(keep, f.C[keep] * mult[keep])


def _multipliers(K: np.ndarray, s: tuple[int, ...]) -> np.ndarray:
    """The block-s filter's multiplier at each frequency row of K, for s
    already checked: the one place the product is formed."""
    mult = np.ones(len(K))
    for j, sj in enumerate(s):
        mult = mult * _rung(sj, np.abs(K[:, j]))
    return mult


def _filter_rows(f: TrigPoly) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """(s, the positions of the terms of f that filter s does not annihilate)
    for every filter index s that leaves any, sorted by s.

    A frequency in dyadic block m is touched only by the filters with index
    m - 1 and m per coordinate; of those, each coordinate keeps the indices
    whose filter does not vanish at k_j (for m >= 2, filter m is 0 at
    |k_j| = 2**(m-1)).  So each term lands in at most 2**d groups.
    """
    M = mean_zero_block_indices(f.K)
    # live[j][e]: filter index M_j - 1 + e does not vanish at k_j
    live = [[(M[:, j] - 1 + e >= 1)
             & (block_filter_coeff(np.maximum(M[:, j] - 1 + e, 1), f.K[:, j]) != 0.0)
             for e in (0, 1)] for j in range(f.d)]
    rows, S = [], []
    for e in product((0, 1), repeat=f.d):
        r = np.flatnonzero(np.logical_and.reduce([live[j][ej] for j, ej in enumerate(e)]))
        rows.append(r)
        S.append(M[r] - 1 + np.array(e))
    rows = np.concatenate(rows)
    for s, at in group_by_block(np.concatenate(S)):
        yield s, np.sort(rows[at])


def smooth_filing(f: TrigPoly) -> list[tuple[tuple[int, ...], np.ndarray, np.ndarray]]:
    """(s, rows, multipliers) for every group of f's filing, sorted by s.

    Block s of any g with f's frequencies is then
    ``g.take(rows, g.C[rows] * multipliers)``, bit for bit
    ``smooth_block(g.take(rows), s)``: no filter annihilates a term of its
    group, so ``smooth_block`` keeps every row.
    """
    return [(s, rows, _multipliers(f.K[rows], s)) for s, rows in _filter_rows(f)]


def smooth_blocks_of(f: TrigPoly) -> dict[tuple[int, ...], TrigPoly]:
    """Every nonzero smooth block of f, sorted by block index: the smooth
    counterpart of ``poly.blocks_of``.  One pass files each term under the
    filter indices that do not vanish on it, and ``smooth_block`` filters
    each group alone.  Every call files f afresh; ``smooth_filing`` keeps a
    filing for the polynomials that share f's frequencies.
    """
    split = ((s, smooth_block(f.take(rows), s)) for s, rows in _filter_rows(f))
    return {s: comp for s, comp in split if not comp.is_zero()}


def filter_support_blocks(f: TrigPoly) -> list[tuple[int, ...]]:
    """Block indices s for which the smooth block of f is nonzero."""
    return list(smooth_blocks_of(f))


def smooth_aggregate(f: TrigPoly, n: float, params: SmoothParams) -> TrigPoly:
    """Sum of smooth blocks of f over (s, gamma') < n - (gamma', 1).

    A near-best approximant with spectrum inside the gamma'-cross at level n.
    Only the groups inside that cross are filtered.
    """
    gp = params.gamma_prime
    threshold = n - sum(gp)
    out = TrigPoly.zero(f.d)
    for s, rows in _filter_rows(f):
        if sum(sj * gj for sj, gj in zip(s, gp)) < threshold:
            out = out + smooth_block(f.take(rows), s)
    return out
