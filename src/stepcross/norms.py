"""Norms on the torus: L_p, mixed-smoothness Besov norms in sharp and smooth
block form, the block-sum norm that is stronger than L_q, and the inequality
check between different metrics.

Numerical methods
-----------------
* L_2 is computed exactly from coefficients (Parseval, normalized measure).
* L_inf is the maximum over an oversampled grid and is therefore a lower
  estimate of the true sup; oversampling is forced to at least 4.  When
  every coefficient is real and >= 0 the sup is f(0), the coefficient sum
  (``_abs_sum``), returned with no grid.
* Even integer p uses trigonometric-rectangle quadrature on a grid fine
  enough to make |f|^p a resolved trigonometric polynomial, hence exact.
* Any other p uses quadrature with a doubling self-check: the grid is
  refined, at most ``MAX_REFINE`` times, until one doubling changes the
  value by at most ``CHECK_RTOL`` relatively.  Grids pinned by
  ``points_per_dim`` skip the self-check.
* No grid may hold more than ``poly.MAX_POINTS`` points: a first grid over
  it raises GridBudgetError before any evaluation, a doubling over it ends
  the self-check with QuadratureError.
* A polynomial with real coefficients has f(-x) equal to the conjugate of
  f(x), so rows m and N_0 - m of its grid carry the same moduli.  Only rows
  0..N_0//2 are evaluated: their max is the grid max, and a mean counts
  every row but 0 and N_0/2 twice.  Values agree with the full grid up to
  rounding.  Complex coefficients take the full grid.
* Norms at several exponents compute each distinct p once, and exponents
  whose first grid has the same dims (L_inf, even p and the base grid often
  do) share one evaluation of it; each value is bit for bit the one-exponent
  value.  A self-checked non-even p then refines on its own grids.
* A grid of at most ``SLICE_POINTS`` values evaluated is one batch.  Norms
  of many polynomials (``lp_norms``; ``block_norms`` takes its components
  that way) evaluate the grids that have the same dims and whose
  coefficients are of one kind, real or complex, as one stack: a leading
  axis that no FFT stage transforms, so each stage is one ``ifft`` call
  over every polynomial's lines, and one ``abs``, power and
  ``np.add.reduce(..., -1)`` pass over the stack, of at most
  ``2 * SLICE_POINTS`` values.  Each line's FFT and each row's pairwise
  sum are the operations of the polynomial alone, so every value is bit
  for bit its own ``lp_norm``; one polynomial is a stack of one.  Every
  first grid is sized and checked against the budget before any is
  evaluated, and the self-check's doublings refine one polynomial at a
  time.
* A larger grid, of any d, is reduced one polynomial at a time in batches
  of at most ``SLICE_POINTS`` values: runs of whole rows; runs of lines
  inside one row when a row holds more; runs of points of one line when a
  line holds more (for d = 1, the one line).  The last FFT stage
  (``GridLines.transform``) runs once on each line as its batch comes, each
  batch takes one max and one sum per exponent, and a polynomial's sum is
  the correctly rounded ``math.fsum`` of its batch sums (J. R. Shewchuk,
  *Discrete Comput. Geom.* 18, 1997).  It differs from the whole array's
  pairwise ``np.sum`` only at rounding.  Besides the last stage's input it
  holds one batch's values, moduli and powers (the complex values of a
  whole line when a line holds more than a batch) and, for real
  coefficients, the powers of row 0 until row N_0/2 comes.
* An exponent that is not a real number >= 1 is rejected before any work.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .blocks import SmoothParams
from .kernels import smooth_blocks_of
from .poly import (GridBudgetError, GridLines, GridSpec, TrigPoly, blocks_of, check_exponent,
                   check_grid_budget, eval_grid, resolve_grid_dims)

FORMS = ("sharp", "smooth")
CHECK_RTOL = 1e-6  # relative change of one doubling that passes the self-check
MAX_REFINE = 10  # doublings the self-check may take


class QuadratureError(RuntimeError):
    """Self-checked quadrature failed to converge within the refinement budget."""


def _check_form(form: str, p: float) -> None:
    check_exponent(p)
    if form not in FORMS:
        raise ValueError(f"unknown block form {form!r}; expected one of {FORMS}")
    if form == "sharp" and not (1 < p < math.inf):
        raise ValueError("sharp block form requires 1 < p < inf")


# the most values of a batch: a grid of at most this many wanted values is
# one batch, evaluated by eval_grid in a stack of up to twice as many values,
# and a larger one is reduced in batches of at most this many
SLICE_POINTS = 1 << 15


def _batches(f: TrigPoly, dims: Sequence[int], rows: int):
    """Rows 0..rows-1 of f's ``dims`` grid in batches of at most
    ``SLICE_POINTS`` values, in flat order: (flat index of the first value,
    the values as an array of shape (1, count)).

    The grid's trailing blocks are its rows, the slices of a row along the
    next axis, and so on down to lines and points.  A batch is a run of the
    largest of them that hold at most ``SLICE_POINTS`` values, inside one
    block of the next size up.  The last FFT stage runs once on each line,
    on all the lines of a batch at once, or on one line at a time when a
    line holds more than ``SLICE_POINTS`` values (for d = 1 the whole axis,
    of which the first ``rows`` points are wanted).
    """
    lines = GridLines(f, dims, rows)
    n, size = lines.n, rows * math.prod(dims[1:])
    blocks = [size] + [math.prod(dims[a:]) for a in range(1, len(dims) + 1)]
    a = next(a for a in range(1, len(blocks)) if blocks[a] <= SLICE_POINTS)
    step = SLICE_POINTS // blocks[a] * blocks[a]  # values per batch
    group = max(step // n, 1)  # lines per transform
    span = max(blocks[a - 1] // n, 1)  # lines a batch stays inside
    buf = np.empty((min(group, lines.count), n), dtype=complex)
    for start in range(0, lines.count, span):
        for first in range(start, start + span, group):
            out = buf[:min(group, start + span - first)]
            out.fill(0)
            values = lines.transform(first, out).reshape(1, -1)[:, :size]
            for at in range(0, values.shape[1], step):
                yield first * n + at, values[:, at:at + step]


def _grid_stats(fs: Sequence[TrigPoly], ps: Sequence[float], dims: Sequence[int],
                real: bool) -> list[dict[float, float]]:
    """For each f in ``fs``, the mean of |f|**p over the ``dims`` grid for
    each distinct p in ``ps``, or the max of |f| at p = inf, keyed by p.
    The fs all have ``real`` coefficients or all have complex ones.

    If f's coefficients are real, f(-x) is the conjugate of f(x), so rows m
    and N_0 - m of the grid carry the same moduli, and rows 0..N_0//2 alone
    are evaluated.  Their max is the grid max, and a mean is (2 S - E) /
    (grid size), from the sum S over those rows and the sum E of the rows
    that map onto themselves, row 0 and, for even N_0, row N_0/2 (the last
    one evaluated), added elementwise.

    A grid of at most ``SLICE_POINTS`` values evaluated is one batch: the fs
    are evaluated in stacks of at most ``2 * SLICE_POINTS`` values, one
    ``eval_grid`` call each, and a stack is reduced along its rows, one
    polynomial's values each, so each sum is the flat array's ``sum`` bit
    for bit.  A larger grid is reduced one polynomial at a time, in the
    batches of ``_batches``.  Each batch takes one max and one sum per
    exponent, and E one sum per batch of row 0, over that part of row 0
    added elementwise to the same part of row N_0/2; a polynomial's
    2 S - E, or S, is the correctly rounded ``math.fsum`` of these sums.  A
    mean divides it by the grid size, as ``np.mean`` does.
    """
    n0, row = dims[0], math.prod(dims[1:])
    rows = n0 // 2 + 1 if real else n0
    size, points = rows * row, n0 * row
    edges = 2 - n0 % 2 if real else 0
    sum_ps = [p for p in ps if not math.isinf(p)]
    if size > SLICE_POINTS:
        groups = ((1, _batches(f, dims, rows)) for f in fs)
    else:
        step = 2 * SLICE_POINTS // size
        groups = ((len(stack), [(0, eval_grid(stack, dims, rows).reshape(len(stack), -1))])
                  for stack in (fs[at:at + step] for at in range(0, len(fs), step)))
    out = []
    for count, batches in groups:
        top = None
        sums = {p: [] for p in sum_ps}  # per p, the terms of each polynomial's 2 S - E, or S
        heads = {p: [] for p in sum_ps}  # per p, the row 0 parts waiting for row N_0/2's
        for lo, v in batches:
            a = np.abs(v)
            if len(sum_ps) < len(ps):
                m = np.maximum.reduce(a, -1)
                top = m if top is None else np.maximum(top, m)
            for p in sum_ps:
                x = a if p == 1 else a**p
                s = np.add.reduce(x, -1)  # each row's x.sum(), without its wrapper
                sums[p].append(2 * s if edges else s)
                if edges == 1 and lo < row:
                    sums[p].append(-np.add.reduce(x[:, :row - lo], -1))
                elif edges == 2:
                    if lo < row:
                        heads[p].append(x[:, :row - lo])
                    if lo + x.shape[1] > size - row:
                        last = x[:, max(size - row - lo, 0):]
                        sums[p].append(-np.add.reduce(heads[p].pop(0) + last, -1))
            a = x = None  # freed before the next batch's are made
        stats = [{} for _ in range(count)]
        for p in sum_ps:
            for st, terms in zip(stats, zip(*(s.tolist() for s in sums[p]))):
                st[p] = math.fsum(terms) / points  # as np.mean divides
        if top is not None:
            for st, v in zip(stats, top.tolist()):
                st[math.inf] = v
        out += stats
    return out


def _is_even(p: float) -> bool:
    return p == int(p) and int(p) % 2 == 0


def _lp_norms(fs: Sequence[TrigPoly], ps: Sequence[float],
              grid: GridSpec) -> list[dict[float, float]]:
    """L_p norms of each f in ``fs`` for each p in ``ps``, as ``lp_norm``
    computes them, keyed by p.

    For each f, each distinct p is computed once, and the exponents whose
    first grid has the same dims share one evaluation of f.  The first grids
    of all the fs are sized and checked against the budget before any is
    evaluated, and those with the same dims, exponents and coefficient kind
    are reduced together by ``_grid_stats``.  A self-checked non-even p then
    refines on its own, one polynomial at a time, in order.
    """
    for p in ps:
        check_exponent(p)
    ps = dict.fromkeys(ps)  # each distinct p once, in order
    todo = [p for p in ps if p != 2]
    # L_inf forces oversampling >= 4; from there its grid is the base grid
    inf_grid = replace(grid, oversampling=4.0) if (
        grid.oversampling < 4 and math.inf in todo) else grid
    norms: list[dict[float, float]] = []
    bases = []  # (f's place, its base dims, its coefficient kind) of the fs with a grid
    jobs: dict[tuple, list[int]] = {}  # (dims, exponents, real) -> places in fs
    for i, f in enumerate(fs):
        if f.is_zero():
            norms.append(dict.fromkeys(ps, 0.0))
            continue
        # summed left to right, like the scalar sum(abs(c) ** 2 for c in C)
        norms.append({2: math.sqrt(sum(f.abs2().tolist()))} if len(todo) < len(ps) else {})
        if not todo:
            continue
        real = not np.count_nonzero(f.C.imag)
        need = todo
        if math.inf in todo and real and not np.count_nonzero(f.C.real < 0):
            norms[i][math.inf] = _abs_sum(f)  # the sup is f(0)
            need = [p for p in todo if not math.isinf(p)]
            if not need:
                continue
        base = resolve_grid_dims(f, grid)
        groups: dict[tuple[int, ...], list[float]] = {}
        for p in need:
            if math.isinf(p):
                dims = base if inf_grid is grid else resolve_grid_dims(f, inf_grid)
            elif _is_even(p):
                # |f|^p is itself a trigonometric polynomial of degree p*deg
                dims = tuple(max(n, int(p) * m + 1) for n, m in zip(base, f.degree()))
                check_grid_budget(dims)
            else:
                dims = base
            groups.setdefault(dims, []).append(p)
        for dims, group in groups.items():
            jobs.setdefault((dims, tuple(group), real), []).append(i)
        bases.append((i, base, real))
    for (dims, group, real), places in jobs.items():
        for i, stats in zip(places, _grid_stats([fs[i] for i in places], group, dims, real)):
            for p, stat in stats.items():
                norms[i][p] = stat if math.isinf(p) else stat ** (1.0 / p)
    if grid.points_per_dim is None and grid.self_check:
        checked = [p for p in todo if not (math.isinf(p) or _is_even(p))]
        for i, base, real in bases:
            for p in checked:
                norms[i][p] = _refine(fs[i], p, base, real, norms[i][p])
    return norms


def _refine(f: TrigPoly, p: float, base: tuple[int, ...], real: bool, prev: float) -> float:
    """Doubling self-check of the L_p quadrature whose value on ``base`` is
    ``prev``: refine until one doubling changes it by at most ``CHECK_RTOL``.
    ``real`` tells whether f's coefficients are real."""
    # refine by exact doubling of the base grid so successive grids nest
    for level in range(1, MAX_REFINE + 1):
        dims = tuple(n * 2**level for n in base)
        try:
            check_grid_budget(dims)
        except GridBudgetError as exc:
            raise QuadratureError(
                f"L_{p} quadrature hit the grid budget before reaching "
                f"rtol={CHECK_RTOL} (last value {prev:.6e})"
            ) from exc
        cur = _grid_stats((f,), (p,), dims, real)[0][p] ** (1.0 / p)
        if abs(cur - prev) <= CHECK_RTOL * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureError(
        f"L_{p} quadrature not converged to rtol={CHECK_RTOL} "
        f"within {MAX_REFINE} refinements (last value {prev:.6e})"
    )


def lp_norm(f: TrigPoly, p: float, grid: GridSpec = GridSpec()) -> float:
    """L_p norm with the normalized measure (2*pi)**(-d) dx."""
    return _lp_norms((f,), (p,), grid)[0][p]


def lp_norms(fs: Sequence[TrigPoly], p: float, grid: GridSpec = GridSpec()) -> list[float]:
    """The L_p norm of each polynomial in ``fs``, each bit for bit its
    ``lp_norm``; polynomials whose grids share dims are evaluated together."""
    return [norm[p] for norm in _lp_norms(fs, (p,), grid)]


def block_norms(f: TrigPoly, p: float, form: str,
                grid: GridSpec) -> list[tuple[tuple[int, ...], float]]:
    """Per-block L_p norms of the sharp or smooth components, sorted by block."""
    _check_form(form, p)
    if not f.is_mean_zero():
        raise ValueError("polynomial must have mean zero in every variable")
    split = blocks_of(f) if form == "sharp" else smooth_blocks_of(f)
    return list(zip(split, lp_norms(list(split.values()), p, grid)))


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
    check_exponent(theta, "theta")
    if len(params.r) != f.d:
        raise ValueError("smoothness vector dimension mismatch")
    return aggregate_block_norms(block_norms(f, p, form, grid), params.r, theta)


def bq1_norm(f: TrigPoly, q: float, form: str = "smooth", grid: GridSpec = GridSpec()) -> float:
    """Sum over blocks of the block component's L_q norm (stronger than L_q)."""
    return sum((v for _, v in block_norms(f, q, form, grid)), 0.0)


def _abs_sum(f: TrigPoly) -> float:
    """The correctly rounded sum of |c_k|: an upper bound of ||f||_inf, and
    equal to it, f(0), when every coefficient is real and >= 0."""
    return math.fsum(np.abs(f.C).tolist())


def nikolskii_check(t: TrigPoly,
                    pairs: Sequence[tuple[float, float]]) -> list[tuple[float, float, bool]]:
    """Certified different-metrics inequality for a polynomial of
    rectangular degree n, one (p, q) pair after another.

    The inequality is |t|_q <= C |t|_p with C = 2**d * prod n_j**(1/p - 1/q)
    and the degree bound n_j = max(1, max_k |k_j|).  Per pair this returns
    (upper(q), C * lower(p), upper(q) <= C * lower(p) * (1 + 1e-9)), where
    upper(q) >= |t|_q and lower(p) <= |t|_p are built from three numbers:
    L2 by Parseval, the exact L4 by even-p quadrature, and S = sum |c_k| >=
    |t|_inf.  By log-convexity of |t|_r in 1/r,

    * upper(q) is L2 for q <= 2, L2**(1-th) L4**th with th = 2 - 4/q for
      2 < q <= 4, L4**(4/q) S**(1-4/q) for 4 < q < inf, and S at q = inf;
    * lower(p) is (L2 / L4**th)**(1/(1-th)) = L2**(4/p-1) / L4**(4/p-2)
      with th = (1/p - 1/2) / (1/p - 1/4) for p < 2 (Hoelder; L2**3 / L4**2
      at p = 1), L2 for 2 <= p < 4, and L4 for p >= 4.

    So upper(q) is exact at q in {2, 4}, lower(p) at p in {2, 4}, and a True
    verdict proves the inequality for t.  A False one may be the bounds'
    slack or, as for the Dirichlet kernel D_1 at (1, inf), where |D_1|_inf
    = 3 > 2 |D_1|_1, a case the constant does not cover.  The only grid is
    the L4 grid, of _fast_len(4 m_j + 2) >= 4 m_j + 1 points per dimension.
    Every pair is validated before any work.
    """
    for p, q in pairs:
        check_exponent(p)
        check_exponent(q, "q")
        if not p < q:
            raise ValueError(f"requires 1 <= p < q, got p={p!r}, q={q!r}")
    norm = _lp_norms((t,), (2.0, 4.0), GridSpec(oversampling=2.0))[0]
    l2, l4, s = norm[2.0], norm[4.0], _abs_sum(t)
    degs = tuple(max(1, m) for m in t.degree())
    out = []
    for p, q in pairs:
        if q <= 2:
            upper = l2
        elif q <= 4:
            upper = l2 ** (4 / q - 1) * l4 ** (2 - 4 / q)
        else:
            upper = l4 ** (4 / q) * s ** (1 - 4 / q)  # S at q = inf
        if p < 2:
            lower = l2 ** (4 / p - 1) / l4 ** (4 / p - 2) if l2 else 0.0
        else:
            lower = l2 if p < 4 else l4
        qinv = 0.0 if math.isinf(q) else 1.0 / q
        rhs = 2.0**t.d * math.prod(m ** (1.0 / p - qinv) for m in degs) * lower
        out.append((upper, rhs, upper <= rhs * (1 + 1e-9)))
    return out
