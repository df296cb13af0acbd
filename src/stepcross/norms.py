"""Norms on the torus: L_p, mixed-smoothness Besov norms in sharp and smooth
block form, the block-sum norm that is stronger than L_q, the sup-form
difference seminorm, and the inequality check between different metrics.

Numerical methods
-----------------
* L_2 is computed exactly from coefficients (Parseval, normalized measure).
* L_inf is the maximum over an oversampled grid and is therefore a lower
  estimate of the true sup; oversampling is forced to at least 4.
* Even integer p uses trigonometric-rectangle quadrature on a grid fine
  enough to make |f|^p a resolved trigonometric polynomial, hence exact.
* Any other p uses quadrature with a doubling self-check: the grid is
  refined until one doubling changes the value by less than ``check_rtol``
  relatively.  Grids pinned by ``points_per_dim`` skip the self-check.
* A polynomial whose coefficient tensor has rank 1, f(x) = prod_j g_j(x_j),
  is sampled through its 1-D factors: on an N_1 x ... x N_d grid the mean
  of |f|^p is prod_j mean |g_j|^p over N_j points, and the grid max is
  prod_j max |g_j|.  The grids, the self-check and the point budget are the
  same as for the full grid, so values agree up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import product as iter_product
from typing import Sequence

import numpy as np

from .blocks import SmoothParams
from .kernels import smooth_blocks_of
from .poly import GridSpec, TrigPoly, blocks_of, eval_grid, mixed_difference, resolve_grid_dims

FORMS = ("sharp", "smooth")


class QuadratureError(RuntimeError):
    """Self-checked quadrature failed to converge within the refinement budget."""


def _check_form(form: str, p: float) -> None:
    if form not in FORMS:
        raise ValueError(f"unknown block form {form!r}; expected one of {FORMS}")
    if form == "sharp" and not (1 < p < math.inf):
        raise ValueError("sharp block form requires 1 < p < inf")


RANK1_RTOL = 1e-12


def _rank1_factors(f: TrigPoly) -> list[TrigPoly] | None:
    """1-D polynomials g_j with f(x) = prod_j g_j(x_j), or None unless f's
    coefficient tensor has rank 1 up to ``RANK1_RTOL`` relatively.

    The support must be a Cartesian product; then every coefficient is
    compared with the product of the fibers through the largest one.  Costs
    O(nnz) and evaluates nothing.
    """
    if f.d == 1:
        return [f]
    axes, where = zip(*(np.unique(f.K[:, j], return_inverse=True) for j in range(f.d)))
    shape = tuple(len(a) for a in axes)
    if math.prod(shape) != f.nnz:
        return None
    T = np.empty(shape, dtype=complex)
    T[where] = f.C
    pivot = np.unravel_index(np.argmax(np.abs(T)), shape)
    # fiber j runs along axis j through the pivot; all but the first are
    # divided by the pivot so that the product reproduces T
    fibers = [T[pivot[:j] + (slice(None),) + pivot[j + 1:]] for j in range(f.d)]
    fibers[1:] = [u / T[pivot] for u in fibers[1:]]
    outer = fibers[0]
    for u in fibers[1:]:
        outer = np.multiply.outer(outer, u)
    if not np.all(np.abs(T - outer) <= RANK1_RTOL * np.abs(T)):
        return None
    return [TrigPoly.from_arrays(a[:, None], u) for a, u in zip(axes, fibers)]


def _grid_stat(vals: np.ndarray, p: float) -> float:
    """Mean of |vals|**p, or the max of |vals| at p = inf."""
    a = np.abs(vals)
    if math.isinf(p):
        return float(np.max(a))
    if p != 1:
        a **= p
    return float(np.mean(a))


def _quad_stat(f: TrigPoly, factors: list[TrigPoly] | None, p: float,
               dims: Sequence[int]) -> float:
    """``_grid_stat`` of f over the ``dims`` grid, from the 1-D factors of f
    on their own coordinate's points when it has them."""
    if factors is None:
        return _grid_stat(eval_grid(f, dims), p)
    return math.prod(_grid_stat(eval_grid(g, (n,)), p) for g, n in zip(factors, dims))


def lp_norm(f: TrigPoly, p: float, grid: GridSpec = GridSpec()) -> float:
    """L_p norm with the normalized measure (2*pi)**(-d) dx."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if f.is_zero():
        return 0.0
    if p == 2:
        # summed left to right, like the scalar sum(abs(c) ** 2 for c in C)
        return math.sqrt(sum(f.abs2().tolist()))
    factors = _rank1_factors(f)
    if math.isinf(p):
        g = grid if grid.oversampling >= 4 else replace(grid, oversampling=4.0)
        return _quad_stat(f, factors, p, resolve_grid_dims(f, g))
    base = resolve_grid_dims(f, grid)
    if p == int(p) and int(p) % 2 == 0:
        # |f|^p is itself a trigonometric polynomial of degree p*deg
        dims = tuple(max(n, int(p) * m + 1) for n, m in zip(base, f.degree()))
        return _quad_stat(f, factors, p, dims) ** (1.0 / p)
    prev = _quad_stat(f, factors, p, base) ** (1.0 / p)
    if grid.points_per_dim is not None or not grid.self_check:
        return prev
    # refine by exact doubling of the base grid so successive grids nest
    for level in range(1, grid.max_refine + 1):
        dims = tuple(n * 2**level for n in base)
        if math.prod(dims) > grid.max_points:
            raise QuadratureError(
                f"L_{p} quadrature hit the grid budget before reaching "
                f"rtol={grid.check_rtol} (last value {prev:.6e})"
            )
        cur = _quad_stat(f, factors, p, dims) ** (1.0 / p)
        if abs(cur - prev) <= grid.check_rtol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureError(
        f"L_{p} quadrature not converged to rtol={grid.check_rtol} "
        f"within {grid.max_refine} refinements (last value {prev:.6e})"
    )


def block_norms(f: TrigPoly, p: float, form: str,
                grid: GridSpec) -> list[tuple[tuple[int, ...], float]]:
    """Per-block L_p norms of the sharp or smooth components, sorted by block."""
    _check_form(form, p)
    if not f.is_mean_zero():
        raise ValueError("polynomial must have mean zero in every variable")
    split = blocks_of(f) if form == "sharp" else smooth_blocks_of(f)
    return [(s, lp_norm(comp, p, grid)) for s, comp in split.items()]


def aggregate_block_norms(per_block: Sequence[tuple[tuple[int, ...], float]],
                          r: Sequence[float], theta: float) -> float:
    """l_theta aggregation of 2**(s.r)-weighted per-block norms."""
    terms = [2.0 ** sum(sj * rj for sj, rj in zip(s, r)) * v for s, v in per_block]
    if math.isinf(theta):
        return max(terms, default=0.0)
    return sum(t**theta for t in terms) ** (1.0 / theta)


def besov_mixed_norm(f: TrigPoly, params: SmoothParams, p: float, theta: float,
                     form: str = "sharp", grid: GridSpec = GridSpec()) -> float:
    """Mixed-smoothness class norm: l_theta of 2**(s.r) times block L_p norms."""
    if not (1 <= theta):
        raise ValueError("theta must be >= 1")
    if len(params.r) != f.d:
        raise ValueError("smoothness vector dimension mismatch")
    return aggregate_block_norms(block_norms(f, p, form, grid), params.r, theta)


def bq1_norm(f: TrigPoly, q: float, form: str = "smooth", grid: GridSpec = GridSpec()) -> float:
    """Sum over blocks of the block component's L_q norm (stronger than L_q)."""
    return sum((v for _, v in block_norms(f, q, form, grid)), 0.0)


def nikolskii_check(t: TrigPoly, p: float, q: float,
                    grid: GridSpec = GridSpec()) -> tuple[float, float, bool]:
    """Different-metrics inequality for a polynomial of rectangular degree n.

    Returns (|t|_q, 2**d * prod n_j**(1/p - 1/q) * |t|_p, lhs <= rhs) with the
    degree bound n_j = max(1, max_k |k_j|).
    """
    if not (1 <= p < q):
        raise ValueError("requires 1 <= p < q")
    lhs = lp_norm(t, q, grid)
    degs = tuple(max(1, m) for m in t.degree())
    qinv = 0.0 if math.isinf(q) else 1.0 / q
    rhs = 2.0**t.d * math.prod(m ** (1.0 / p - qinv) for m in degs) * lp_norm(t, p, grid)
    return lhs, rhs, lhs <= rhs * (1 + 1e-9)


def _h_grid(h_points: int) -> np.ndarray:
    return np.geomspace(2.0 * math.pi * 2.0**-20, 2.0 * math.pi, num=h_points, endpoint=False)


def difference_seminorm(f: TrigPoly, params: SmoothParams, order: Sequence[int],
                        p: float = 2.0, h_points: int = 64,
                        grid: GridSpec = GridSpec()) -> float:
    """Sup-form seminorm: max over a log grid of steps h of
    |mixed difference of f|_p * prod h_j**(-r_j).

    A lower estimate of the supremum.  For p = 2 the difference norm is
    evaluated exactly from coefficients; other p walk the h grid with
    quadrature and are markedly slower.
    """
    order = tuple(int(x) for x in order)
    if len(order) != f.d or len(params.r) != f.d:
        raise ValueError("dimension mismatch")
    for oj, rj in zip(order, params.r):
        if oj <= rj:
            raise ValueError("difference order must exceed the smoothness in each coordinate")
    if h_points < 1:
        raise ValueError("h_points must be >= 1")
    if f.is_zero():
        return 0.0
    hs = _h_grid(h_points)
    hw = [hs ** (-rj) for rj in params.r]
    if p == 2:
        K, A = f.K, f.abs2()
        # (H, nnz) per-coordinate factors |e^{i k h} - 1|^{2 order}
        W = [
            (4.0 * np.sin(0.5 * np.outer(hs, K[:, j])) ** 2) ** order[j]
            for j in range(f.d)
        ]
        # fix the steps of all but the last coordinate, then contract the
        # coefficients against every step of the last one at once
        best = 0.0
        for idx in iter_product(range(len(hs)), repeat=f.d - 1):
            w, scale = A, 1.0
            for j, i in enumerate(idx):
                w = w * W[j][i]
                scale *= hw[j][i]
            best = max(best, float(np.max(np.sqrt(W[-1] @ w) * hw[-1])) * scale)
        return best
    best = 0.0
    g = replace(grid, self_check=False)
    for idx in iter_product(range(len(hs)), repeat=f.d):
        h = tuple(hs[i] for i in idx)
        v = lp_norm(mixed_difference(f, order, h), p, g)
        v *= math.prod(hw[j][idx[j]] for j in range(f.d))
        best = max(best, v)
    return best
