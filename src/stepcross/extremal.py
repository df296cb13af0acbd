"""Test families used to probe the approximation rates from below.

* ``dirichlet_shell``: unit coefficients on every frequency of the shell of
  blocks with (s,1) = n; the worst-case building block for sharp cuts.  Its
  block s is the product of the 1-D blocks D_{s_j} = ``dirichlet_shell(s_j, 1)``.
* ``shell_extremal``: the shell polynomial scaled so its class norm stays in
  an n-independent band.
* ``shell_scale``: the level-n scale 2**(-n alpha) n**(-(d-1)/theta) of both
  families (alpha = r1 for the shifted rectangles) and the rate sweeps.
* ``shifted_rect_sample``: sums over the even shell of rectangle polynomials
  re-centered at the block anchors, with sup-normalized factors.

Every member of a level has the same frequencies, so what they share is
built once per (n, d) and kept for the last level asked for: the constant
member, each block's unit rectangle factor, and the sorted frequency matrix
of a random-sign member with the permutation that sorts its blocks' terms
into it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .blocks import block_anchor, block_ranges, compositions, even_shell
from .norms import lp_norms
from .poly import GridSpec, TrigPoly, check_exponent


def dirichlet_shell(n: int, d: int) -> TrigPoly:
    """Sum of exp(i k.x) over all k in blocks with (s,1) = n.

    Term count is 2**n * C(n-1, d-1); returns the zero polynomial for n < d.
    """
    K = [_grid_rows(block_ranges(s)) for s in compositions(n, d)]
    if not K:
        return TrigPoly.zero(d)
    K = np.concatenate(K)
    return TrigPoly.from_arrays(K, np.ones(len(K)))


def _grid_rows(axes) -> np.ndarray:
    """The Cartesian product of the 1-D integer ``axes`` as rows, in
    lexicographic order when each axis is increasing."""
    grids = np.meshgrid(*[np.asarray(a, dtype=np.int64) for a in axes], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def shell_extremal(n: int, d: int, r1: float, p: float, theta: float) -> TrigPoly:
    """2**(-n(r1+1-1/p)) * n**(-(d-1)/theta) times the shell polynomial.

    Needs n >= d (a nonempty shell), r1 > 0 and real p, theta >= 1 (inf
    allowed); for theta = inf the logarithmic factor is absent (exponent 0).
    """
    if n < d:
        raise ValueError(f"need n >= d for a nonempty shell, got n={n}, d={d}")
    if not r1 > 0:
        raise ValueError(f"r1 must be positive, got r1={r1}")
    check_exponent(p)
    return shell_scale(n, d, r1 + 1.0 - 1.0 / p, theta) * dirichlet_shell(n, d)


def shell_scale(n: int, d: int, alpha: float, theta: float) -> float:
    """2**(-n alpha) * n**(-(d-1)/theta), the level-n scale of the test
    families: alpha = r1 + 1 - 1/p for ``shell_extremal``, alpha = r1 for
    ``shifted_rect_sample``.  theta must be a real number >= 1 (inf allowed); for
    theta = inf the logarithmic factor is absent (exponent 0).
    """
    check_exponent(theta, "theta")
    log_exp = 0.0 if math.isinf(theta) else (d - 1) / theta
    return 2.0 ** (-n * alpha) * float(n) ** -log_exp


TPRIME_MODES = ("constant", "random-sign")


def shifted_rect_sample(n: int, d: int, mode: str = "constant",
                        rng: int | np.random.Generator | None = 0) -> TrigPoly:
    """A member of the shifted-rectangle family over the even shell at level n.

    For each block s in the shell, a factor polynomial of rectangular degree
    2**(s_j - 2) rides on the anchor frequency of the block.  ``constant``
    mode uses the factor 1; ``random-sign`` draws plus-minus-one coefficients
    on the whole rectangle and rescales by the factor's L_inf norm, its max
    on the grid oversampled 8 times, so the factor's sup is 1 on that grid.
    """
    if mode not in TPRIME_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {TPRIME_MODES}")
    if n % 2 != 0:
        raise ValueError("shell level must be even")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    constant, factors, support = _level_support(n, d)
    if mode == "constant":
        return constant
    # one draw per rectangle frequency, in lexicographic order, factor by factor
    signs = [rng.choice((-1.0, 1.0), size=unit.nnz) for unit, _ in factors]
    peaks = lp_norms([unit.take(slice(None), s) for (unit, _), s in zip(factors, signs)],
                     math.inf, GridSpec(oversampling=8.0))
    C = np.empty(support.nnz)
    for (_, at), s, peak in zip(factors, signs, peaks):
        C[at] = s / peak
    return support.take(slice(None), C)


@functools.lru_cache(maxsize=1)
def _level_support(n: int, d: int) -> tuple[TrigPoly, tuple[tuple[TrigPoly, np.ndarray], ...],
                                            TrigPoly]:
    """What every level-n member shares, for an even n: the constant member;
    per block of ``even_shell(n, d)``, the rectangle factor with unit
    coefficients and the positions of its shifted terms in a random-sign
    member; and that member's support, with unit coefficients.  Blocks of one
    even shell differ by at least 2 in some component, so their shifted
    rectangles share no frequency and the member has every term of each."""
    shell = even_shell(n, d)
    anchors = np.array([block_anchor(s) for s in shell], dtype=np.int64).reshape(-1, d)
    rects = [_grid_rows([range(-2 ** (sj - 2), 2 ** (sj - 2) + 1) for sj in s]) for s in shell]
    # an empty shell (n < 2d) stacks no rows: anchors is then 0 x d
    K = np.concatenate([a + R for a, R in zip(anchors, rects)] or [anchors])
    order = np.lexsort(K.T[::-1])
    at = np.empty_like(order)
    at[order] = np.arange(len(order))  # where each stacked term lands once sorted
    at.setflags(write=False)
    ends = np.cumsum([len(R) for R in rects], dtype=np.int64)
    factors = tuple((TrigPoly.from_arrays(R, np.ones(len(R))), at[end - len(R):end])
                    for R, end in zip(rects, ends))
    return (TrigPoly.from_arrays(anchors, np.ones(len(anchors))), factors,
            TrigPoly.from_arrays(K[order], np.ones(len(K))))
