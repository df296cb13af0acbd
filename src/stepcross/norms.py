"""Norms on the torus: L_p, mixed-smoothness Besov norms in sharp and smooth
block form, the block-sum norm that is stronger than L_q, and the inequality
check between different metrics.

Numerical methods
-----------------
* L_2 is computed exactly from coefficients (Parseval, normalized measure).
* L_inf is the maximum over an oversampled grid and is therefore a lower
  estimate of the true sup; oversampling is forced to at least 4.
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
* A grid of at most ``SLICE_POINTS`` values evaluated is one leaf.  Norms
  of many polynomials (``lp_norms``; ``block_norms`` takes its components
  that way) evaluate the leaves whose grids have the same dims and whose
  coefficients are of one kind, real or complex, as one stack: a leading
  axis that no FFT stage transforms, so each stage is one ``ifft`` call
  over every polynomial's lines, and one ``abs``, power and
  ``np.add.reduce(..., -1)`` pass over the stack, of at most
  ``2 * SLICE_POINTS`` values.  Each line's FFT and each row's pairwise
  sum are the operations of the polynomial alone, so every value is bit
  for bit its own ``lp_norm``; one polynomial is a stack of one.  Every
  first grid is sized and checked against the budget before any is
  evaluated, and the self-check's doublings refine one polynomial at a
  time.  A larger grid, of any d, is reduced leaf by leaf, one polynomial
  at a time: numpy sums a float64 array pairwise over a fixed binary tree,
  so the grid's flat index is walked down that tree to leaves of at most
  ``SLICE_POINTS`` points, the last FFT stage (``GridLines.transform``)
  runs once on each line as the leaves reach it, and the leaves' max and
  sums combine in tree order, bit for bit the whole array's.  Besides the
  last stage's input it holds up to two leaves' worth of lines (for d = 1
  the whole line), a few leaf-sized arrays and the powers of the rows that
  map onto themselves.
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


# the most points of a leaf: a grid of at most this many wanted values is one
# leaf, evaluated by eval_grid in a stack of up to twice as many values, and a
# larger one is walked leaf by leaf (at least 128, numpy's smallest pairwise
# block)
SLICE_POINTS = 1 << 15


def _pairwise(leaf, lo: int, n: int) -> list:
    """The sums of n values from flat index lo on, in numpy's pairwise order,
    where ``leaf(lo, n)`` returns them for at most ``SLICE_POINTS`` values.

    numpy sums a contiguous float64 array over a fixed binary tree: n values
    split into the first n/2, rounded down to a multiple of 8, and the rest,
    down to blocks of 128 (``pairwise_sum`` in numpy's loops; N. J. Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002, 4.2).
    Each leaf's own ``sum`` walks its subtree, so the leaf sums added in tree
    order equal the whole array's ``sum`` bit for bit, as the tests check.
    """
    if n <= SLICE_POINTS:
        return leaf(lo, n)
    half = n // 2 - n // 2 % 8
    # one thread: the right half in a second thread took family's L_inf norms 58-70 -> 110-116 ms
    return [x + y for x, y in zip(_pairwise(leaf, lo, half), _pairwise(leaf, lo + half, n - half))]


class _LineWindow:
    """A buffer of consecutive grid lines from ``GridLines``, transformed by
    its last stage as values are asked for.  Values are asked for in
    increasing order; a request that runs past the lines held keeps the
    ones it shares with them and fills the rest of the buffer, so each line
    is transformed once, and in batches of up to ``2 * SLICE_POINTS``
    points."""

    def __init__(self, lines: GridLines):
        self.lines = lines
        self.buf = np.empty((min(2 * SLICE_POINTS // lines.n + 2, lines.count), lines.n),
                            dtype=complex)
        self.held = range(0)  # the lines buf holds, from its first row on

    def values(self, lo: int, count: int) -> np.ndarray:
        """Grid values lo..lo + count - 1 (count <= ``SLICE_POINTS``) in flat
        order, a view of the buffer."""
        n = self.lines.n
        first, stop = lo // n, (lo + count - 1) // n + 1
        if stop > self.held.stop:
            kept = max(self.held.stop - first, 0)
            shift = first - self.held.start
            if kept and shift:
                self.buf[:kept] = self.buf[shift:shift + kept]
            end = min(first + len(self.buf), self.lines.count)
            rest = self.buf[kept:end - first]
            rest.fill(0)
            self.lines.transform(first + kept, rest)
            self.held = range(first, end)
        at = lo - self.held.start * n
        return self.buf.reshape(-1)[at:at + count]


class _LeafStats:
    """Leaf by leaf, the sums of |v| (p = 1) and |v|**p, in ``sum_ps`` order,
    over the ``size`` values v of each polynomial of a stack, which
    ``values(lo, count)`` returns as an array of shape (polynomials, count);
    and, when ``ps`` holds inf, the maximum of |v|, ``top``.  Each sum is
    one pairwise reduction along a row, so every polynomial's sum is its
    row's flat ``sum``.  With ``edges``, for each p, ``kept`` holds the
    powers of the first ``row`` values and, with two edges, of the last
    ``row``, in the pieces the walk passes them in."""

    def __init__(self, values, ps: Sequence[float], size: int, row: int, edges: int):
        self.values, self.size, self.row, self.edges = values, size, row, edges
        self.sum_ps = [p for p in ps if not math.isinf(p)]
        self.top = None
        self.tops = len(self.sum_ps) < len(ps)
        self.kept = [([], []) for _ in self.sum_ps]

    def sums(self, lo: int, count: int) -> list:
        """The sums over values lo..lo + count - 1, one per polynomial; the
        leaf's maxima join ``top``."""
        a = np.abs(self.values(lo, count))
        if self.tops:
            top = np.maximum.reduce(a, -1)
            self.top = top if self.top is None else np.maximum(self.top, top)
        head = self.edges and lo < self.row
        tail = self.edges == 2 and lo + count > self.size - self.row  # past the last row's start
        out = []
        for p, (first, last) in zip(self.sum_ps, self.kept):
            x = a if p == 1 else a**p
            out.append(np.add.reduce(x, -1))  # each row's x.sum(), without its wrapper
            if head:
                first.append(x[:, :self.row - lo])
            if tail:
                last.append(x[:, max(self.size - self.row - lo, 0):])
        return out


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The pieces of the rows as one array."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _grid_stats(fs: Sequence[TrigPoly], ps: Sequence[float],
                dims: Sequence[int]) -> list[dict[float, float]]:
    """For each f in ``fs``, the mean of |f|**p over the ``dims`` grid for
    each distinct p in ``ps``, or the max of |f| at p = inf, keyed by p.
    The fs all have real coefficients or all have complex ones.

    If f's coefficients are real, f(-x) is the conjugate of f(x), so rows m
    and N_0 - m of the grid carry the same moduli, and rows 0..N_0//2 alone
    are evaluated.  Their max is the grid max, and a mean is (2 S - E) /
    (grid size), from the sum S over those rows and the sum E of the rows
    that map onto themselves, row 0 and, for even N_0, row N_0/2 (the last
    one evaluated), added elementwise.  A grid of at most ``SLICE_POINTS``
    values evaluated is one leaf: the fs are evaluated in stacks of at most
    ``2 * SLICE_POINTS`` values, one ``eval_grid`` call each, and a stack is
    reduced along its rows, one polynomial's values each.  A larger grid is
    walked through a ``_LineWindow``, one polynomial at a time.  Either way
    each sum is the whole array's ``sum`` bit for bit, and a mean divides it
    by the grid size, as ``np.mean`` does.
    """
    n0, row = dims[0], math.prod(dims[1:])
    real = not np.count_nonzero(fs[0].C.imag)
    rows = n0 // 2 + 1 if real else n0
    size, points = rows * row, n0 * row
    edges = 2 - n0 % 2 if real else 0
    step = 1 if size > SLICE_POINTS else 2 * SLICE_POINTS // size
    out = []
    for at in range(0, len(fs), step):
        stack = fs[at:at + step]
        if size > SLICE_POINTS:
            window = _LineWindow(GridLines(stack[0], dims, rows)).values
            values = lambda lo, count: window(lo, count).reshape(1, -1)
        else:
            grid = eval_grid(stack, dims, rows).reshape(len(stack), -1)
            values = lambda lo, count: grid
        leaves = _LeafStats(values, ps, size, row, edges)
        stats = [{} for _ in stack]
        for p, s, (first, last) in zip(leaves.sum_ps, _pairwise(leaves.sums, 0, size),
                                       leaves.kept):
            s = s.tolist()  # Python floats round as float64 arrays do
            if edges:
                e = _joined(first) if edges == 1 else _joined(first) + _joined(last)
                e = e[:, 0] if row == 1 else np.add.reduce(e, -1)  # d = 1: one value
                s = [2 * v - w for v, w in zip(s, e.tolist())]
            for st, v in zip(stats, s):
                st[p] = v / points  # as np.mean divides
        if leaves.tops:
            for st, v in zip(stats, leaves.top.tolist()):
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
    bases = []  # (f's place, its base dims) of the fs with a grid
    jobs: dict[tuple, list[int]] = {}  # (dims, exponents, real) -> places in fs
    for i, f in enumerate(fs):
        if f.is_zero():
            norms.append(dict.fromkeys(ps, 0.0))
            continue
        # summed left to right, like the scalar sum(abs(c) ** 2 for c in C)
        norms.append({2: math.sqrt(sum(f.abs2().tolist()))} if len(todo) < len(ps) else {})
        if not todo:
            continue
        base = resolve_grid_dims(f, grid)
        groups: dict[tuple[int, ...], list[float]] = {}
        for p in todo:
            if math.isinf(p):
                dims = base if inf_grid is grid else resolve_grid_dims(f, inf_grid)
            elif _is_even(p):
                # |f|^p is itself a trigonometric polynomial of degree p*deg
                dims = tuple(max(n, int(p) * m + 1) for n, m in zip(base, f.degree()))
                check_grid_budget(dims)
            else:
                dims = base
            groups.setdefault(dims, []).append(p)
        real = not np.count_nonzero(f.C.imag)
        for dims, group in groups.items():
            jobs.setdefault((dims, tuple(group), real), []).append(i)
        bases.append((i, base))
    for (dims, group, _), places in jobs.items():
        for i, stats in zip(places, _grid_stats([fs[i] for i in places], group, dims)):
            for p, stat in stats.items():
                norms[i][p] = stat if math.isinf(p) else stat ** (1.0 / p)
    if grid.points_per_dim is None and grid.self_check:
        checked = [p for p in todo if not (math.isinf(p) or _is_even(p))]
        for i, base in bases:
            for p in checked:
                norms[i][p] = _refine(fs[i], p, base, norms[i][p])
    return norms


def _refine(f: TrigPoly, p: float, base: tuple[int, ...], prev: float) -> float:
    """Doubling self-check of the L_p quadrature whose value on ``base`` is
    ``prev``: refine until one doubling changes it by at most ``CHECK_RTOL``."""
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
        cur = _grid_stats((f,), (p,), dims)[0][p] ** (1.0 / p)
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


def nikolskii_check(t: TrigPoly, pairs: Sequence[tuple[float, float]],
                    grid: GridSpec = GridSpec()) -> list[tuple[float, float, bool]]:
    """Different-metrics inequality for a polynomial of rectangular degree n,
    one (p, q) pair after another.

    Returns, per pair, (|t|_q, 2**d * prod n_j**(1/p - 1/q) * |t|_p,
    lhs <= rhs) with the degree bound n_j = max(1, max_k |k_j|).  Every pair
    is validated first, and each distinct exponent's norm is computed once.
    """
    for p, q in pairs:
        check_exponent(p)
        check_exponent(q, "q")
        if not p < q:
            raise ValueError(f"requires 1 <= p < q, got p={p!r}, q={q!r}")
    norm = _lp_norms((t,), [x for pair in pairs for x in pair], grid)[0]
    degs = tuple(max(1, m) for m in t.degree())
    out = []
    for p, q in pairs:
        lhs = norm[q]
        qinv = 0.0 if math.isinf(q) else 1.0 / q
        rhs = 2.0**t.d * math.prod(m ** (1.0 / p - qinv) for m in degs) * norm[p]
        out.append((lhs, rhs, lhs <= rhs * (1 + 1e-9)))
    return out
