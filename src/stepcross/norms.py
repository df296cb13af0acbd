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
  ``points_per_dim`` skip the self-check.  Each doubling is one grid
  reduced alone, the largest grids the package reduces, so a doubling over
  one batch is reduced on two threads, batch by batch (below).
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
  (``GridLines.transform``) runs once on each line as its batch comes.
  Each batch is reduced as it comes and keeps nothing for the next: one
  max, or one sum and, for real coefficients, the sums of its parts of
  rows 0 and N_0/2.  A polynomial's sum is the correctly rounded
  ``math.fsum`` of these (J. R. Shewchuk, *Discrete Comput. Geom.* 18,
  1997), which differs from the whole array's pairwise ``np.sum`` only at
  rounding.  Besides the last stage's input it holds, per thread, one
  batch's values and moduli, raised to p in place (the complex values of a
  whole line when a line holds more than a batch).
* Batched work is shared between the calling thread and one helper thread
  when the process may use more than one CPU: numpy's FFT, ``abs``, power
  and sums release the GIL.  A call with two or more batched groups (dims
  and coefficient kind) shares whole groups, each reduced by one thread.
  Any other batched grid, such as each doubling, shares its line ranges:
  ``GridLines`` is built once on the calling thread, both threads take
  ranges from one iterator and transform them into their own buffers, and
  each range's maxima or sums go to its slot, combined in order after the
  join.  A batch is reduced in the same operations on either thread, and
  ``max`` and ``math.fsum`` do not depend on the order, so every value is
  bit for bit the one-thread value.  One helper runs at a time in the
  process and never starts another; stacks stay on the calling thread,
  which alone calls ``eval_grid``.  About 1 MB of batches can be in
  flight.
* ``even_norms`` takes the exact L_2 and L_4 of many sparse polynomials
  with no grid, a chunk of their squares at a time, and ``lp_bounds``
  brackets any L_p from them.
* An exponent that is not a real number >= 1 is rejected before any work.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import replace
from itertools import chain
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
# most square pairs in an ``even_norms`` chunk of several runs
CHUNK_PAIRS = SLICE_POINTS // 4


_HELPER = threading.Lock()  # held while a helper thread runs (``_share``)


def _ranges(dims: Sequence[int], size: int) -> tuple[list, int]:
    """The line ranges (first line, lines) in which the first ``size``
    values of a ``dims`` grid, a run of whole rows, are transformed, in
    flat order, and the most values of a batch.

    The grid's trailing blocks are its rows, the slices of a row along the
    next axis, and so on down to lines and points.  A batch is a run of the
    largest of them that hold at most ``SLICE_POINTS`` values, inside one
    block of the next size up.  The last FFT stage runs on all the lines of
    a batch at once, or on one line at a time when a line holds more than
    ``SLICE_POINTS`` values (for d = 1 the whole axis, of which the first
    ``size`` points are wanted); such a line is cut into batches.
    """
    n = dims[-1]  # values per line
    blocks = [size] + [math.prod(dims[a:]) for a in range(1, len(dims) + 1)]
    a = next(a for a in range(1, len(blocks)) if blocks[a] <= SLICE_POINTS)
    step = SLICE_POINTS // blocks[a] * blocks[a]
    group = max(step // n, 1)  # lines per transform
    span = max(blocks[a - 1] // n, 1)  # lines a batch stays inside
    return [(first, min(group, start + span - first)) for start in range(0, max(size // n, 1), span)
            for first in range(start, start + span, group)], step


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
    one evaluated).

    A grid of at most ``SLICE_POINTS`` values evaluated is one batch: the fs
    go in stacks of at most ``2 * SLICE_POINTS`` values (``_stack``), and a
    stack is reduced along its rows, one polynomial's values each, so each
    sum is the flat array's ``sum`` bit for bit.  A larger grid is reduced
    one polynomial at a time, in the batches of ``_ranges``, on two threads
    (``_share``).  Each batch gives its own ``_terms``; a polynomial's max is
    their max, and its 2 S - E, or S, their correctly rounded ``math.fsum``,
    which no order of the batches changes.  A mean divides it by the grid
    size, as ``np.mean`` does.
    """
    n0, row, rows = dims[0], math.prod(dims[1:]), _rows(dims, real)
    size, points = rows * row, n0 * row
    edges = [0, size - row][:2 - n0 % 2] if real else []  # the flat starts of E's rows
    if size > SLICE_POINTS:
        ranges, step = _ranges(dims, size)
        groups = (_share(_run_ranges, (GridLines(f, dims, rows), ranges, step, p, edges, row, size),
                         (), range(len(ranges))) for f in fs)
    else:
        step = 2 * SLICE_POINTS // size
        groups = ([_terms(_stack(fs[at:at + step], dims, rows), 0, p, edges, row)]
                  for at in range(0, len(fs), step))
    out = []
    for slots in groups:  # per stack or polynomial; a slot is a list of terms
        cols = zip(*(t.tolist() for slot in slots for t in slot))
        out += [max(c) for c in cols] if math.isinf(p) else [math.fsum(c) / points for c in cols]
    return out


def _run_ranges(lines: GridLines, ranges: list, step: int, p: float, edges: list, row: int,
                size: int, slots: list, ks: Iterable[int]) -> None:
    """For each k of ``ks`` in turn, line range k of ``ranges`` transformed
    into this thread's own buffer, and the ``_terms`` of its batches of at
    most ``step`` values, in order, put in ``slots[k]``."""
    buf = np.empty((ranges[0][1], lines.n), dtype=complex)
    for k in ks:
        first, count = ranges[k]
        out = buf[:count]
        out.fill(0)
        values = lines.transform(first, out).reshape(1, -1)[:, :size]
        slots[k] = [t for at in range(0, values.shape[1], step) for t in _terms(
            values[:, at:at + step], first * lines.n + at, p, edges, row)]


def _terms(v: np.ndarray, lo: int, p: float, edges: list, row: int) -> list:
    """One batch of ``_grid_stats``: the values ``v`` of flat indices lo..,
    one row per polynomial.  Returns its max or, each an array of one value
    per polynomial, its terms of S or, when ``edges`` holds the flat starts
    of the rows that E takes, of 2 S - E: twice its sum, and minus the sum
    of its part of each such row.  Nothing of it is kept for the next."""
    x = np.abs(v)
    if math.isinf(p):
        return [np.maximum.reduce(x, -1)]
    if p != 1:
        x **= p
    s = np.add.reduce(x, -1)  # each row's x.sum(), without its wrapper
    return [2 * s if edges else s] + [-np.add.reduce(x[:, max(e - lo, 0):e + row - lo], -1)
                                      for e in edges if lo < e + row and e < lo + x.shape[1]]


def _is_even(p: float) -> bool:
    return p % 2 == 0


def lp_norms(fs: Sequence[TrigPoly], p: float, grid: GridSpec = GridSpec()) -> list[float]:
    """The L_p norm of each polynomial in ``fs``, each bit for bit the value
    it has alone (``lp_norm`` is a list of one).

    The first grids of all the fs are sized and checked against the budget
    before any is evaluated, and those with the same dims and coefficient
    kind, a job, are reduced together by ``_grid_stats``.  The stacked
    jobs, of at most ``SLICE_POINTS`` values evaluated, run on the calling
    thread; the batched ones are shared with a helper thread (``_share``),
    whole jobs when there are two or more, else batch by batch.  A
    self-checked non-even p then refines one polynomial at a time, in
    order (``_refine``).
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
    items = list(jobs.items())
    stacked, batched = [], []
    for k, ((dims, real), _) in enumerate(items):
        (batched if _rows(dims, real) * math.prod(dims[1:]) > SLICE_POINTS else stacked).append(k)
    for (_, places), job in zip(items, _share(_run_jobs, (fs, p, items), stacked, batched)):
        for i, stat in zip(places, job):
            norms[i] = stat if math.isinf(p) else stat ** (1.0 / p)
    if grid.points_per_dim is None and grid.self_check and not (math.isinf(p) or _is_even(p)):
        for i, base, real in bases:
            norms[i] = _refine(fs[i], p, base, real, norms[i])
    return norms


def _run_jobs(fs: Sequence[TrigPoly], p: float, items: list, stats: list,
              ks: Iterable[int]) -> None:
    """Job k of ``items``' ``_grid_stats`` into ``stats[k]``, for each k of
    ``ks`` in turn: a job, (dims, real) -> places in ``fs``, is the
    polynomials there whose grids have those dims and coefficient kind."""
    for k in ks:
        (dims, real), places = items[k]
        stats[k] = _grid_stats([fs[i] for i in places], p, dims, real)


def _share(work, args: tuple, mine: Sequence[int], rest: Sequence[int]) -> list:
    """Items ``mine`` and ``rest`` done by ``work(*args, slots, ks)``, which
    does each item k of ks into ``slots[k]``; returns the slots.  The
    calling thread does ``mine``, then it and one helper thread take the
    items of ``rest`` from one iterator, whose next step CPython takes whole
    under the GIL.

    The helper is started only when ``rest`` has two or more items, the
    process may use more than one CPU and no other helper runs: it holds
    ``_HELPER``, so that neither it nor the thread beside it starts another.
    When it cannot be started (``Thread.start`` raises RuntimeError), the
    calling thread does every item alone.  It is joined before this returns,
    an exception it raised is raised here, and after an exception in either
    thread the other takes no new item.
    """
    slots: list = [None] * (len(mine) + len(rest))
    shared, errors, helper = iter(rest), [], None
    if (len(rest) > 1 and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
            and _HELPER.acquire(blocking=False)):
        helper = threading.Thread(target=_guard, args=(work, args + (slots,), shared, errors))
        try:
            helper.start()
        except RuntimeError:  # no thread can be started: this one does every item
            helper = None
            _HELPER.release()
    try:
        work(*args, slots, chain(mine, shared))
    finally:
        for _ in shared:  # after an error here, the helper ends with its current item
            pass
        if helper is not None:
            helper.join()
            _HELPER.release()
    if errors:
        raise errors[0]
    return slots


def _guard(work, args: tuple, ks: Iterable[int], errors: list) -> None:
    """``work(*args, ks)`` on the helper thread: an exception is appended to
    ``errors``, and the items left in ``ks`` are taken so that the calling
    thread stops after its current one."""
    try:
        work(*args, ks)
    except BaseException as exc:  # raised again on the calling thread
        errors.append(exc)
        for _ in ks:
            pass


def _refine(f: TrigPoly, p: float, base: tuple[int, ...], real: bool, prev: float) -> float:
    """Doubling self-check of the L_p quadrature whose value on ``base`` is
    ``prev``: refine until one doubling changes it by at most ``CHECK_RTOL``.
    ``real`` tells whether f's coefficients are real.  Each doubling is one
    ``_grid_stats`` call on f alone, called on this thread, whose batches
    two threads share when it has more than one line range."""
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
    2))``, with no grid.  Each chunk of runs, the next of at most
    ``CHUNK_PAIRS`` square pairs in all or one of more (at most
    ``SLICE_POINTS``), is squared (``sparse.cauchy_squares``) and reduced
    before the next; squares drop and reject coefficients as ``TrigPoly``
    does, and each |c|**2 is ``TrigPoly.abs2``'s, added left to right."""
    ends = np.append(starts, len(K))
    done = np.cumsum(np.append(0, np.diff(ends) ** 2))  # the square pairs of runs 0..i-1
    l2, l4, r0 = [], [], 0
    while r0 < len(starts):
        r1 = max(r0 + 1, np.searchsorted(done, done[r0] + CHUNK_PAIRS, "right") - 1)
        c, at = C[ends[r0]:ends[r1]], starts[r0:r1] - ends[r0]
        run, Ks, Cs = cauchy_squares(K[ends[r0]:ends[r1]], c, at, SLICE_POINTS)
        mod, keep = kept_terms(Ks, Cs, "of a square ")
        # one pass adds the |c|**2 of every run, then those of every square
        sums = run_sums(np.concatenate((np.float_power(np.hypot(c.real, c.imag), 2),
                                        np.where(keep, np.float_power(mod, 2), 0.0))),
                        np.concatenate((at, len(c) + np.searchsorted(run, np.arange(r1 - r0)))))
        l2 += np.sqrt(sums[:r1 - r0]).tolist()
        l4 += np.sqrt(np.sqrt(sums[r1 - r0:])).tolist()
        del run, Ks, Cs, mod, keep, sums  # freed before the next chunk is made
        r0 = r1
    return l2, l4


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
    order, with the fixed cost of ``even_norms`` paid once per d, not per t.
    ``pairs`` is read once, and every pair is validated before any work.

    The ts of one d whose square has at most SLICE_POINTS pairs take their
    L2 and L4 from one ``even_norms`` call over their runs, which squares
    them a chunk at a time.  Each denser t is certified alone by
    ``nikolskii_check``, on its L4 grid, so neither function calls the
    other for the same t.
    """
    pairs = _nikolskii_pairs(pairs)
    out = [nikolskii_check(t, pairs) if t.nnz ** 2 > SLICE_POINTS else None for t in ts]
    runs: dict[int, list[int]] = {}  # d -> places of the ts whose moments take no grid
    for i, t in enumerate(ts):
        if out[i] is None:
            runs.setdefault(t.d, []).append(i)
    for places in runs.values():
        starts = np.cumsum([0] + [ts[i].nnz for i in places[:-1]], dtype=np.int64)
        l2, l4 = even_norms(np.concatenate([ts[i].K for i in places]),
                            np.concatenate([ts[i].C for i in places]), starts)
        for i, a, b in zip(places, l2, l4):
            out[i] = _nikolskii_verdicts(ts[i], a, b, pairs)
    return out
