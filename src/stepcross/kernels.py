"""De la Vallee-Poussin kernels and the smooth dyadic block filters they induce.

``vdp_coeff(l, k)`` is the Fourier coefficient of the order-l kernel: 1 on
|k| <= l, a linear ramp down to 0 on l < |k| < 2l, 0 beyond (for l = 1 the
ramp band is empty).  The block filter attached to a block index s is, per
coordinate, the difference of two consecutive kernels in the dyadic ladder;
convolving with it is plain coefficient multiplication.

``smooth_block(f, s)`` is that multiplication for one block index and the
only place the filter product is computed.  ``smooth_blocks_of(f)`` splits f
into all of its nonzero smooth blocks in one pass over the coefficients, the
smooth counterpart of ``poly.blocks_of``; ``filter_support_blocks`` lists
their indices and ``smooth_aggregate`` sums those inside a gamma'-cross.

Two conventions are defined, in ``block_filter_coeff`` and ``smooth_block``.
``literal`` takes the ladder rung at s = 1 as V_2 - V_1, which annihilates
the frequencies |k| = 1 and therefore cannot reproduce every mean-zero
polynomial from its filtered pieces; it is kept for comparison only.
``partition-exact`` replaces the subtracted V_1 by the pure mean projection,
so that summing the filters over all block indices reproduces any mean-zero
polynomial exactly.  Every norm, error and experiment uses
``partition-exact``, and so does everything else in this module.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .blocks import SmoothParams, block_of
from .poly import TrigPoly

CONVENTIONS = ("partition-exact", "literal")


def vdp_coeff(l: int, k: int) -> float:
    if l < 1:
        raise ValueError("kernel order must be >= 1")
    a = abs(int(k))
    if a <= l:
        return 1.0
    if a < 2 * l:
        return 1.0 - (a - l) / l
    return 0.0


def block_filter_coeff(s: int, k: int, convention: str = "partition-exact") -> float:
    """Per-coordinate multiplier of the block-s filter at frequency k."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
    if s < 1:
        raise ValueError("block index components must be >= 1")
    if s == 1 and convention == "partition-exact":
        return vdp_coeff(2, k) - (1.0 if k == 0 else 0.0)
    return vdp_coeff(2**s, k) - vdp_coeff(2 ** (s - 1), k)


def smooth_block(f: TrigPoly, s: Sequence[int], convention: str = "partition-exact") -> TrigPoly:
    """Convolution of f with the product block filter for index ``s``."""
    s = tuple(int(x) for x in s)
    if len(s) != f.d:
        raise ValueError("dimension mismatch")
    out = {}
    for k, c in f.coeffs.items():
        mult = 1.0
        for sj, kj in zip(s, k):
            mult *= block_filter_coeff(sj, kj, convention)
            if mult == 0.0:
                break
        if mult != 0.0:
            out[k] = c * mult
    return TrigPoly(f.d, out)


def smooth_blocks_of(f: TrigPoly) -> dict[tuple[int, ...], TrigPoly]:
    """Every nonzero smooth block of f, sorted by block index: the smooth
    counterpart of ``poly.blocks_of``.

    A frequency in dyadic block m is touched only by the filters with index
    m - 1 and m per coordinate; of those, each coordinate keeps the indices
    whose filter does not vanish at k_j (for m >= 2, filter m is 0 at
    |k_j| = 2**(m-1)).  One pass files each coefficient under those at most
    2**d indices, and ``smooth_block`` filters each group alone.
    """
    groups: dict[tuple[int, ...], dict] = {}
    for k, c in f.coeffs.items():
        m = block_of(k)
        if m is None:
            raise ValueError(f"frequency {k} has a zero component")
        per_dim = [[sj for sj in (mj - 1, mj) if sj >= 1 and block_filter_coeff(sj, kj) != 0.0]
                   for mj, kj in zip(m, k)]
        for s in product(*per_dim):
            groups.setdefault(s, {})[k] = c
    split = ((s, smooth_block(TrigPoly(f.d, g), s)) for s, g in sorted(groups.items()))
    return {s: comp for s, comp in split if not comp.is_zero()}


def filter_support_blocks(f: TrigPoly) -> list[tuple[int, ...]]:
    """Block indices s for which the smooth block of f is nonzero."""
    return list(smooth_blocks_of(f))


def smooth_aggregate(f: TrigPoly, n: float, params: SmoothParams) -> TrigPoly:
    """Sum of smooth blocks of f over (s, gamma') < n - (gamma', 1).

    A near-best approximant with spectrum inside the gamma'-cross at level n.
    """
    gp = params.gamma_prime
    threshold = n - sum(gp)
    out = TrigPoly.zero(f.d)
    for s, comp in smooth_blocks_of(f).items():
        if sum(sj * gj for sj, gj in zip(s, gp)) < threshold:
            out = out + comp
    return out
