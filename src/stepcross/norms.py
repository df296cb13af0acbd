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
* A grid of at most ``SLICE_POINTS`` values evaluated is one batch.  Norms
  of many polynomials (``lp_norms``; ``block_norms`` takes its components
  that way) reduce the grids that have the same dims and whose
  coefficients are of one kind, real or complex, as one stack of at most
  ``2 * SLICE_POINTS`` values: ``eval_grid`` evaluates each polynomial
  alone into its row of the stack, and one ``abs``, power and
  ``np.add.reduce(..., -1)`` pass reduces the stack.  Each row's pairwise
  sum is the operation of the polynomial alone, so every value is bit for
  bit its own ``lp_norm``; one polynomial is a stack of one.  Every first
  grid is sized and checked against the budget before any is evaluated,
  and the self-check's doublings refine one polynomial at a time.
* A larger grid, of any d, is reduced one polynomial at a time in batches
  of at most ``SLICE_POINTS`` values: runs of whole rows; runs of lines
  inside one row when a row holds more; runs of points of one line when a
  line holds more (for d = 1, the one line).  The last FFT stage
  (``GridLines.transform``) runs once on each line as its batch comes, each
  batch takes one max or one sum, and a polynomial's sum is the correctly
  rounded ``math.fsum`` of its batch sums (J. R. Shewchuk, *Discrete
  Comput. Geom.* 18, 1997).  It differs from the whole array's pairwise
  ``np.sum`` only at rounding.  Besides the last stage's input it holds one
  batch's values and moduli, raised to p in place (the complex values of a
  whole line when a line holds more than a batch) and, for real
  coefficients, the powers of row 0 until row N_0/2 comes.
* The batched grids of one call, grouped by dims and coefficient kind, are
  shared between the calling thread and one helper thread when there are
  two or more groups and the process may use more than one CPU: numpy's
  FFT, ``abs``, power and sums release the GIL.  One thread reduces a whole
  group, in the same operations as alone, so every value is bit for bit
  the same.  Stacks stay on the calling thread, which alone calls
  ``eval_grid``.  Two batches (about 1 MB) can be in flight.
* ``even_norms`` takes the exact L_2 and L_4 of many sparse polynomials
  with no grid, and ``lp_bounds`` brackets any L_p from them.
* An exponent that is not a real number >= 1 is rejected before any work.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np

from .blocks import SmoothParams
from .kernels import smooth_blocks_of
from .poly import (GridBudgetError, GridLines, GridSpec, TrigPoly, blocks_of, check_exponent,
                   check_grid_budget, eval_grid, kept_terms, resolve_grid_dims)
from .sparse import cauchy_squares, run_sums

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
# one batch, reduced in a stack of up to twice as many values, and a larger
# one is reduced in batches of at most this many
SLICE_POINTS = 1 << 15
# most square pairs in a ``nikolskii_checks`` group: its memory stays below a probe's
GROUP_PAIRS = SLICE_POINTS // 4


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


def _rows(dims: Sequence[int], real: bool) -> int:
    """Rows of a ``dims`` grid that are evaluated: 0..N_0//2 for real
    coefficients, all N_0 for complex ones."""
    return dims[0] // 2 + 1 if real else dims[0]


def _stack(fs: Sequence[TrigPoly], dims: Sequence[int], rows: int) -> np.ndarray:
    """Rows 0..rows-1 of each f's ``dims`` grid, from ``eval_grid``, as the
    rows of one array of shape (len(fs), values).

    Besides taking one reduction pass for many small grids, the stack keeps
    the heap warm: freeing a block this large, mapped on its own, raises
    glibc's mmap and trim thresholds, so later buffers up to its size are
    reused from the heap, not mapped, trimmed and faulted in again for
    every polynomial."""
    stack = np.empty((len(fs), rows * math.prod(dims[1:])), dtype=complex)
    for f, values in zip(fs, stack):
        values[:] = eval_grid(f, dims, rows).reshape(-1)
    return stack


def _grid_stats(fs: Sequence[TrigPoly], p: float, dims: Sequence[int],
                real: bool) -> list[float]:
    """For each f in ``fs``, the mean of |f|**p over the ``dims`` grid, or
    the max of |f| at p = inf.  The fs all have ``real`` coefficients or all
    have complex ones.

    If f's coefficients are real, f(-x) is the conjugate of f(x), so rows m
    and N_0 - m of the grid carry the same moduli, and rows 0..N_0//2 alone
    are evaluated.  Their max is the grid max, and a mean is (2 S - E) /
    (grid size), from the sum S over those rows and the sum E of the rows
    that map onto themselves, row 0 and, for even N_0, row N_0/2 (the last
    one evaluated), added elementwise.

    A grid of at most ``SLICE_POINTS`` values evaluated is one batch: the fs
    go in stacks of at most ``2 * SLICE_POINTS`` values (``_stack``), and a
    stack is reduced along its rows, one polynomial's values each, so each
    sum is the flat array's ``sum`` bit for bit.  A larger grid is reduced
    one polynomial at a time, in the batches of ``_batches``.  Each batch
    takes one max or one sum, and E one sum per batch of row 0, over that
    part of row 0 added elementwise to the same part of row N_0/2; a
    polynomial's 2 S - E, or S, is the correctly rounded ``math.fsum`` of
    these sums.  A mean divides it by the grid size, as ``np.mean`` does.
    """
    n0, row, rows = dims[0], math.prod(dims[1:]), _rows(dims, real)
    size, points = rows * row, n0 * row
    edges = 2 - n0 % 2 if real else 0
    if size > SLICE_POINTS:
        groups = (_batches(f, dims, rows) for f in fs)
    else:
        step = 2 * SLICE_POINTS // size
        groups = ([(0, _stack(fs[at:at + step], dims, rows))] for at in range(0, len(fs), step))
    out = []
    for batches in groups:
        terms = []  # each batch's max, or the terms of each polynomial's 2 S - E, or S
        heads = []  # the row 0 parts waiting for row N_0/2's
        for lo, v in batches:
            x = np.abs(v)
            if math.isinf(p):
                terms.append(np.maximum.reduce(x, -1))
            else:
                if p != 1:
                    x **= p
                s = np.add.reduce(x, -1)  # each row's x.sum(), without its wrapper
                terms.append(2 * s if edges else s)
                if edges == 1 and lo < row:
                    terms.append(-np.add.reduce(x[:, :row - lo], -1))
                elif edges == 2:
                    if lo < row:
                        heads.append(x[:, :row - lo])
                    if lo + x.shape[1] > size - row:
                        last = x[:, max(size - row - lo, 0):]
                        terms.append(-np.add.reduce(heads.pop(0) + last, -1))
            x = None  # freed before the next batch's are made
        cols = zip(*(t.tolist() for t in terms))
        out += [max(c) for c in cols] if math.isinf(p) else [math.fsum(c) / points for c in cols]
    return out


def _is_even(p: float) -> bool:
    return p % 2 == 0


def lp_norms(fs: Sequence[TrigPoly], p: float, grid: GridSpec = GridSpec()) -> list[float]:
    """The L_p norm of each polynomial in ``fs``, each bit for bit the value
    it has alone (``lp_norm`` is a list of one).

    The first grids of all the fs are sized and checked against the budget
    before any is evaluated, and those with the same dims and coefficient
    kind are reduced together by ``_grid_stats``, the batched ones on two
    threads (``_reduce``).  A self-checked non-even p then refines on its
    own, one polynomial at a time, in order, on the calling thread.
    """
    check_exponent(p)
    if math.isinf(p) and grid.oversampling < 4:
        grid = replace(grid, oversampling=4.0)  # L_inf forces oversampling >= 4
    norms = [0.0] * len(fs)
    bases = []  # (f's place, its base dims, its coefficient kind) of the fs with a grid
    jobs: dict[tuple, list[int]] = {}  # (dims, real) -> places in fs
    for i, f in enumerate(fs):
        if f.is_zero():
            continue
        if p == 2:
            # summed left to right, like the scalar sum(abs(c) ** 2 for c in C)
            norms[i] = math.sqrt(sum(f.abs2().tolist()))
            continue
        real = not np.count_nonzero(f.C.imag)
        if math.isinf(p) and real and not np.count_nonzero(f.C.real < 0):
            norms[i] = _abs_sum(f)  # the sup is f(0)
            continue
        dims = base = resolve_grid_dims(f, grid)
        if _is_even(p):
            # |f|^p is itself a trigonometric polynomial of degree p*deg
            dims = tuple(max(n, int(p) * m + 1) for n, m in zip(base, f.degree()))
            check_grid_budget(dims)
        jobs.setdefault((dims, real), []).append(i)
        bases.append((i, base, real))
    for places, stats in zip(jobs.values(), _reduce(fs, p, jobs)):
        for i, stat in zip(places, stats):
            norms[i] = stat if math.isinf(p) else stat ** (1.0 / p)
    if grid.points_per_dim is None and grid.self_check and not (math.isinf(p) or _is_even(p)):
        for i, base, real in bases:
            norms[i] = _refine(fs[i], p, base, real, norms[i])
    return norms


def _reduce(fs: Sequence[TrigPoly], p: float, jobs: dict[tuple, list[int]]) -> list[list[float]]:
    """Each job's ``_grid_stats``, in job order: a job, (dims, real) ->
    places in ``fs``, is the polynomials there whose grids have those dims
    and coefficient kind.

    The stacked jobs, of at most ``SLICE_POINTS`` values evaluated, run on
    the calling thread.  The batched ones run on it too and, when there are
    two or more and the process may use more than one CPU, on one helper
    thread: both take jobs from one iterator, whose next step CPython takes
    whole under the GIL, and each writes its own job's slot.  The helper is
    joined before this returns, an exception it raised is raised here, and
    after an exception in either thread the other takes no new job.
    """
    items = list(jobs.items())
    stats: list = [None] * len(items)
    stacked, batched = [], []
    for k, ((dims, real), _) in enumerate(items):
        (batched if _rows(dims, real) * math.prod(dims[1:]) > SLICE_POINTS else stacked).append(k)
    shared, errors, helper = iter(batched), [], None
    if len(batched) > 1 and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1:
        helper = threading.Thread(target=_run_jobs, args=(fs, p, items, shared, stats, errors))
        helper.start()
    try:
        _run_jobs(fs, p, items, stacked, stats)
        _run_jobs(fs, p, items, shared, stats)
    finally:
        for _ in shared:  # after an error here, the helper ends with its current job
            pass
        if helper is not None:
            helper.join()
    if errors:
        raise errors[0]
    return stats


def _run_jobs(fs: Sequence[TrigPoly], p: float, items: list, ks: Iterable[int], stats: list,
              errors: list | None = None) -> None:
    """Job k of ``items``' ``_grid_stats`` into ``stats[k]``, for each k of
    ``ks`` in turn.  Given ``errors`` (on the helper thread), an exception is
    appended there, and the jobs left in ``ks`` are taken so that the
    calling thread stops."""
    try:
        for k in ks:
            (dims, real), places = items[k]
            stats[k] = _grid_stats([fs[i] for i in places], p, dims, real)
    except BaseException as exc:  # raised again on the calling thread
        if errors is None:
            raise
        errors.append(exc)
        for _ in ks:
            pass


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
        cur = _grid_stats((f,), p, dims, real)[0] ** (1.0 / p)
        if abs(cur - prev) <= CHECK_RTOL * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureError(
        f"L_{p} quadrature not converged to rtol={CHECK_RTOL} "
        f"within {MAX_REFINE} refinements (last value {prev:.6e})"
    )


def lp_norm(f: TrigPoly, p: float, grid: GridSpec = GridSpec()) -> float:
    """L_p norm with the normalized measure (2*pi)**(-d) dx."""
    return lp_norms((f,), p, grid)[0]


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
    """l_theta aggregation of 2**(s.r)-weighted per-block norms.

    When the largest term's theta-th power lies outside 2**±900, where the
    powers could overflow or underflow, every term is divided by the
    largest first; inside, the powers are taken as they are.  The theta = 2
    root is ``math.sqrt``, correctly rounded."""
    terms = [2.0 ** sum(sj * rj for sj, rj in zip(s, r)) * v for s, v in per_block]
    top = max(terms, default=0.0)
    if math.isinf(theta) or not 0 < top < math.inf:
        return top
    root = math.sqrt if theta == 2 else lambda S: S ** (1.0 / theta)
    if abs(theta * math.log2(top)) < 900:
        return root(sum(t**theta for t in terms))
    return top * root(sum((t / top) ** theta for t in terms))


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


def even_norms(K: np.ndarray, C: np.ndarray,
               starts: np.ndarray) -> tuple[list[float], list[float]]:
    """Parseval's L_2 and the exact L_4 of each polynomial f_i whose
    canonical terms are the run (K, C)[starts[i]:starts[i + 1]], the last to
    the end, bit for bit ``lp_norm(f_i, 2)`` and ``sqrt(lp_norm(f_i * f_i,
    2))``, with no grid: the squares come from ``sparse.cauchy_squares``, in
    chunks of at most ``SLICE_POINTS`` pairs, drop and reject coefficients
    as ``TrigPoly`` does, and each |c|**2 is ``TrigPoly.abs2``'s, added left
    to right as ``lp_norm`` adds them."""
    run, Ks, Cs = cauchy_squares(K, C, starts, SLICE_POINTS)
    mod, keep = kept_terms(Ks, Cs, "of a square ")
    # one pass adds the |c|**2 of every run, then those of every square
    sums = run_sums(np.concatenate((np.float_power(np.hypot(C.real, C.imag), 2),
                                    np.where(keep, np.float_power(mod, 2), 0.0))),
                    np.concatenate((starts, len(C) + np.searchsorted(run, np.arange(len(starts))))))
    return np.sqrt(sums[:len(starts)]).tolist(), np.sqrt(np.sqrt(sums[len(starts):])).tolist()


def lp_bounds(p: float, l2: float, l4: float, s: float) -> tuple[float, float]:
    """(lower, upper) around |f|_p from the Python floats L2 = |f|_2,
    L4 = |f|_4 and S = sum |c_k| >= |f|_inf, by log-convexity of |f|_r in
    1/r (Hardy, Littlewood and Polya, *Inequalities*, 1934): upper is L2 for
    p <= 2, L2**(4/p-1) L4**(2-4/p) up to p = 4, L4**(4/p) S**(1-4/p) above
    (S at p = inf); lower is L2**(4/p-1) / L4**(4/p-2) for p < 2 (Hoelder),
    L2 for 2 <= p < 4 and L4 from p = 4.  Both are exact at p in {2, 4}, up
    to rounding.  The powers are Python's, which ``np.power`` does not
    always match in the last bit."""
    if p <= 2:
        upper = l2
    elif p <= 4:
        upper = l2 ** (4 / p - 1) * l4 ** (2 - 4 / p)
    else:
        upper = l4 ** (4 / p) * s ** (1 - 4 / p)  # S at p = inf
    if p < 2:
        lower = l2 ** (4 / p - 1) / l4 ** (4 / p - 2) if l2 else 0.0
    else:
        lower = l2 if p < 4 else l4
    return lower, upper


def _nikolskii_pairs(pairs: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """``pairs`` read once into a list, each (p, q) validated."""
    pairs = list(pairs)
    for p, q in pairs:
        check_exponent(p)
        check_exponent(q, "q")
        if not p < q:
            raise ValueError(f"requires 1 <= p < q, got p={p!r}, q={q!r}")
    return pairs


def _nikolskii_verdicts(t: TrigPoly, l2: float, l4: float,
                        pairs: list[tuple[float, float]]) -> list[tuple[float, float, bool]]:
    """``nikolskii_check``'s verdicts for t from its exact L2 and L4."""
    s = _abs_sum(t)
    degs = tuple(max(1, m) for m in t.degree())
    out = []
    for p, q in pairs:
        upper, lower = lp_bounds(q, l2, l4, s)[1], lp_bounds(p, l2, l4, s)[0]
        qinv = 0.0 if math.isinf(q) else 1.0 / q
        rhs = 2.0**t.d * math.prod(m ** (1.0 / p - qinv) for m in degs) * lower
        out.append((upper, rhs, upper <= rhs * (1 + 1e-9)))
    return out


def nikolskii_check(t: TrigPoly, pairs: Iterable[tuple[float, float]]
                    ) -> list[tuple[float, float, bool]]:
    """Certified different-metrics inequality for a polynomial of
    rectangular degree n, one (p, q) pair after another.

    The inequality is |t|_q <= C |t|_p with C = 2**d * prod n_j**(1/p - 1/q)
    and the degree bound n_j = max(1, max_k |k_j|).  Per pair this returns
    (upper(q), C * lower(p), upper(q) <= C * lower(p) * (1 + 1e-9)), where
    upper(q) >= |t|_q and lower(p) <= |t|_p are ``lp_bounds``' from three
    numbers: L2 by Parseval, the exact L4, and S = sum |c_k| >= |t|_inf,
    correctly rounded.  So upper(q) is exact at q in {2, 4}, lower(p) at p
    in {2, 4}, and a True verdict proves the inequality for t.  A False one
    may be the bounds' slack or, as for the Dirichlet kernel D_1 at
    (1, inf), where |D_1|_inf = 3 > 2 |D_1|_1, a case the constant does not
    cover.

    L2 and L4 are exact either way: a t of at most sqrt(SLICE_POINTS) terms,
    whose square t * t has at most SLICE_POINTS pairs, is ``nikolskii_checks``
    of the one t and evaluates no grid.  A denser t, such as a Dirichlet
    kernel of over 181 terms, takes L4 from the even-p quadrature on its L4
    grid of _fast_len(4 m_j + 2) >= 4 m_j + 1 points per dimension.
    ``pairs`` is read once, and every pair is validated before any work.
    """
    pairs = _nikolskii_pairs(pairs)
    if t.nnz ** 2 <= SLICE_POINTS:  # t * t is no larger than one grid batch
        return nikolskii_checks((t,), pairs)[0]
    l2, l4 = lp_norm(t, 2.0), lp_norm(t, 4.0, GridSpec(oversampling=2.0))
    return _nikolskii_verdicts(t, l2, l4, pairs)


def nikolskii_checks(ts: Sequence[TrigPoly], pairs: Iterable[tuple[float, float]]
                     ) -> list[list[tuple[float, float, bool]]]:
    """``nikolskii_check(t, pairs)`` of each t in ``ts``, bit for bit and in
    order, with the fixed cost of ``even_norms`` paid per group, not per t.
    ``pairs`` is read once, and every pair is validated before any work.

    The ts whose square has at most SLICE_POINTS pairs are taken in order of
    d (stably) and cut into groups of one d and at most ``GROUP_PAIRS``
    square pairs (a t of more is a group alone); each group takes the L2
    and L4 of all its ts from one ``even_norms`` call over their runs, so a
    group holds no more memory than one probe.  A t's moments do not depend
    on its group.  Each denser t is certified alone by ``nikolskii_check``,
    on its L4 grid, so neither function calls the other for the same t.
    """
    pairs = _nikolskii_pairs(pairs)
    out: list = [None] * len(ts)
    groups: list[list[int]] = []
    size = 0  # square pairs of the last group
    for i in sorted(range(len(ts)), key=lambda i: ts[i].d):
        n = ts[i].nnz ** 2
        if n > SLICE_POINTS:
            out[i] = nikolskii_check(ts[i], pairs)
            continue
        if not groups or ts[groups[-1][0]].d != ts[i].d or size + n > GROUP_PAIRS:
            groups.append([])
            size = 0
        groups[-1].append(i)
        size += n
    for group in groups:
        starts = np.cumsum([0] + [ts[i].nnz for i in group[:-1]], dtype=np.int64)
        l2, l4 = even_norms(np.concatenate([ts[i].K for i in group]),
                            np.concatenate([ts[i].C for i in group]), starts)
        for i, a, b in zip(group, l2, l4):
            out[i] = _nikolskii_verdicts(ts[i], a, b, pairs)
    return out
