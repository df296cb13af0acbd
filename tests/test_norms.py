import itertools
import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepcross import moments, norms, poly
from stepcross.approx import random_mixed_poly
from stepcross.blocks import SmoothParams
from stepcross.extremal import dirichlet_shell
from stepcross.kernels import smooth_block
from stepcross.norms import (QuadratureError, aggregate_block_norms, besov_mixed_norm, bq1_norm,
                             lp_norm, lp_norms, nikolskii_check, nikolskii_checks)
from stepcross.poly import (GridBudgetError, GridLines, GridSpec, TrigPoly, blocks_of,
                            eval_grid, resolve_grid_dims)
from stepcross.rates import sweep_extremal


def block_poly_1d(s):
    lo, hi = 2 ** (s - 1), 2**s
    ks = list(range(-hi + 1, -lo + 1)) + list(range(lo, hi))
    return TrigPoly(1, {(k,): 1.0 for k in ks})


class TestLpNorm:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 4.0, math.inf])
    def test_single_exponential_is_unit(self, p):
        assert lp_norm(TrigPoly.exponential((3, -2)), p) == pytest.approx(1.0, rel=1e-9)

    def test_parseval_two_terms(self):
        f = TrigPoly(1, {(0,): 1.0, (1,): 1.0})
        assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_dirichlet_sup(self):
        m = 6
        f = TrigPoly(1, {(k,): 1.0 for k in range(-m, m + 1)})
        assert lp_norm(f, math.inf) == pytest.approx(2 * m + 1, rel=1e-12)

    def test_nonnegative_sup_is_the_coefficient_sum(self, monkeypatch):
        # every Dirichlet shell and sharp block whose L_inf grid has at most
        # 2^20 points (d = 1 to n = 17, d = 2 to n = 14, d = 3 to n = 11):
        # the sum, with no grid, equals the grid max bit for bit
        polys = []
        for d, n_top in ((1, 17), (2, 14), (3, 11)):
            for n in range(d, n_top + 1):
                shell = dirichlet_shell(n, d)
                polys += [shell] + list(blocks_of(shell).values())
        polys = [f for f in polys
                 if math.prod(poly._fast_len(8 * m + 4) for m in f.degree()) <= 1 << 20]
        want = [norms._grid_stats((f,), math.inf, resolve_grid_dims(f, GridSpec()), True)[0]
                for f in polys]
        calls = record_grids(monkeypatch)
        assert [lp_norm(f, math.inf) for f in polys] == want
        assert calls == [] and len(polys) == 300
        # a grid of 8e8 points would be over the budget; the sum needs none
        assert lp_norm(TrigPoly(1, {(0,): 0.5, (10**8,): 2.25}), math.inf) == 2.75
        # a negative or complex coefficient still takes the grid
        for c in (-1.0, 1j):
            lp_norm(TrigPoly(1, {(0,): 2.0, (1,): c}), math.inf)
        assert calls == [(1, (12,)), (1, (12,))]

    def test_two_cosine_l1_analytic(self):
        # (1/2pi) integral |2 cos x| dx = 4/pi
        f = TrigPoly(1, {(1,): 1.0, (-1,): 1.0})
        assert lp_norm(f, 1.0) == pytest.approx(4 / math.pi, rel=1e-5)

    def test_even_p_quadrature_is_exact(self):
        # |f|^4 expands exactly: ||2 cos x||_4^4 = 16 * 3/8 = 6
        f = TrigPoly(1, {(1,): 1.0, (-1,): 1.0})
        assert lp_norm(f, 4.0) == pytest.approx(6 ** 0.25, rel=1e-13)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(TrigPoly.exponential((1,)), 0.5)

    def test_zero_poly(self):
        assert lp_norm(TrigPoly.zero(2), 3.0) == 0.0

    @pytest.mark.parametrize("p", [math.nan, True, False, -math.inf, "3", None, 1j],
                             ids=repr)
    @pytest.mark.parametrize("f", [TrigPoly(2, {(1, 2): 1.0, (3, -1): 2.0}), TrigPoly.zero(2)],
                             ids=["nonzero", "zero"])
    def test_rejects_exponent_before_any_work(self, monkeypatch, f, p):
        def fail(*args):
            raise AssertionError("work done before the exponent was checked")

        for name in ("_grid_stats", "resolve_grid_dims", "eval_grid"):
            monkeypatch.setattr(norms, name, fail)
        with pytest.raises(ValueError, match="p must be a real number >= 1"):
            lp_norm(f, p)

    @pytest.mark.parametrize("call", [
        lambda p: bq1_norm(TrigPoly.zero(2), p),
        lambda p: besov_mixed_norm(TrigPoly.zero(2), SmoothParams((1.0, 1.0)), p, 2.0, "smooth"),
    ], ids=["bq1", "besov-smooth"])
    def test_block_and_difference_norms_reject_nan_exponent(self, call):
        with pytest.raises(ValueError, match="p must be a real number >= 1"):
            call(math.nan)

    def test_self_check_budget_error(self, monkeypatch):
        f = TrigPoly(1, {(1,): 1.0, (-1,): 1.0})
        monkeypatch.setattr(norms, "MAX_REFINE", 0)
        with pytest.raises(QuadratureError, match="within 0 refinements"):
            lp_norm(f, 1.0)

    def test_doubling_over_budget_ends_self_check(self, monkeypatch):
        # |f| vanishes at two points, so L_1 needs several doublings
        f = TrigPoly(1, {(1,): 1.0, (-1,): 1.0})
        base = math.prod(resolve_grid_dims(f, GridSpec()))
        monkeypatch.setattr(poly, "MAX_POINTS", 4 * base)
        calls = record_grids(monkeypatch)
        with pytest.raises(QuadratureError, match="hit the grid budget"):
            lp_norm(f, 1.0)
        assert [math.prod(dims) for _, dims in calls] == [base, 2 * base, 4 * base]

    @pytest.mark.parametrize("p,grid,budget,points", [
        (20.0, GridSpec(), 100_000, 601 * 601), (4.0, GridSpec(oversampling=1.0), 4000, 121 * 121),
        (math.inf, GridSpec(oversampling=1.0), 4000, 245 * 245),
        (26.0, GridSpec(), 100_000, 781 * 781)])  # a grid reduced in batches
    def test_first_grid_over_budget_raises_before_any_grid(self, monkeypatch, p, grid, budget,
                                                           points):
        # the base grid is within the budget; the even-p grid, sized from p
        # times the degree, and the L_inf grid, sized from oversampling 4, are
        # not (a negative coefficient, since a nonnegative f's sup needs none)
        f = TrigPoly(2, {(30, 30): 1.0, (1, -2): -0.5})
        assert math.prod(resolve_grid_dims(f, grid)) <= budget < points
        calls = record_grids(monkeypatch)
        monkeypatch.setattr(poly, "MAX_POINTS", budget)
        with pytest.raises(GridBudgetError, match=f"grid of {points} points exceeds budget"):
            lp_norm(f, p, grid)
        assert calls == []
        monkeypatch.setattr(poly, "MAX_POINTS", points)
        lp_norm(f, p, grid)
        assert [math.prod(dims) for _, dims in calls] == [points]

    def test_pinned_grid_skips_self_check(self):
        f = TrigPoly(1, {(1,): 1.0, (-1,): 1.0})
        v = lp_norm(f, 1.0, GridSpec(points_per_dim=64))
        assert v == pytest.approx(4 / math.pi, rel=1e-2)

    def test_homogeneity(self):
        f = TrigPoly(2, {(1, 2): 1.0, (3, -1): 2.0})
        for p in (2.0, 4.0, math.inf):
            assert lp_norm(3.0 * f, p) == pytest.approx(3 * lp_norm(f, p), rel=1e-12)

    def test_fractional_p_product_factorizes(self):
        # tensor-product polynomial on a matched grid: 2-d quadrature equals
        # the product of the 1-d quadratures
        b = block_poly_1d(3)
        prod = TrigPoly(2, {(a, c): va * vc for (a,), va in b.coeffs.items()
                            for (c,), vc in b.coeffs.items()})
        g = GridSpec(oversampling=8, self_check=False)
        full = float(np.mean(np.abs(eval_grid(prod, resolve_grid_dims(prod, g))) ** 2.5))
        assert full ** (1 / 2.5) == pytest.approx(lp_norm(b, 2.5, g) ** 2, rel=1e-12)


def random_rank1(rng, d, max_deg=4, real=False):
    """Product of d random 1-D factors, each a dominant constant plus up to
    three complex terms, so that no factor vanishes on the torus; with
    ``real``, the real parts of the same draws."""
    factors = []
    for _ in range(d):
        ks = rng.choice(np.arange(1, max_deg + 1), size=3, replace=False) * rng.choice([-1, 1], 3)
        u = {0: complex(2.0, rng.standard_normal())}
        u.update({int(k): 0.4 * complex(*rng.standard_normal(2)) for k in ks})
        factors.append({k: c.real for k, c in u.items()} if real else u)
    coeffs = {ks: math.prod(u[k] for u, k in zip(factors, ks))
              for ks in itertools.product(*factors)}
    return TrigPoly(d, coeffs)


def record_grids(monkeypatch):
    """Patch ``norms._grid_stats``, which every grid a norm reduces passes
    through, to record (poly dimension, dims) once per polynomial."""
    calls = []
    grid_stats = norms._grid_stats

    def spy(fs, p, dims, real):
        calls.extend((f.d, tuple(dims)) for f in fs)
        return grid_stats(fs, p, dims, real)

    monkeypatch.setattr(norms, "_grid_stats", spy)
    return calls


def reference_lp_norm(f, p, grid):
    """L_p by the single-exponent rule written out: each whole grid of f from
    eval_grid, reduced by hand in the batches of ``batch_cuts``."""

    def stat(dims):
        a = np.abs(eval_grid(f, dims)).reshape(-1)
        if math.isinf(p):
            return float(a.max())
        x = a if p == 1 else a**p
        return math.fsum(x[lo:hi].sum() for lo, hi in batch_cuts(dims, dims[0])) / a.size

    if math.isinf(p):
        return stat(resolve_grid_dims(f, replace(grid, oversampling=max(4.0, grid.oversampling))))
    base = resolve_grid_dims(f, grid)
    if p == 4:
        return stat(tuple(max(n, 4 * m + 1) for n, m in zip(base, f.degree()))) ** (1 / p)
    prev = stat(base) ** (1 / p)
    if grid.points_per_dim is not None or not grid.self_check:
        return prev
    for level in itertools.count(1):
        cur = stat(tuple(n * 2**level for n in base)) ** (1 / p)
        if abs(cur - prev) <= norms.CHECK_RTOL * abs(cur):
            return cur
        prev = cur


class TestLpNormsEngine:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.5, 3.0, 4.0, math.inf])
    @pytest.mark.parametrize("grid", [GridSpec(points_per_dim=24), GridSpec(self_check=False),
                                      GridSpec(), GridSpec(oversampling=2.0)],
                             ids=["pinned", "unchecked", "self-checked", "oversampling-2"])
    def test_equals_explicit_grid_reduction(self, d, p, grid):
        rng = np.random.default_rng(10 * d + 1)
        for _ in range(2):
            rank1 = random_rank1(rng, d)
            # a second product term on the same support makes rank 2
            rank2 = rank1 + 0.3 * random_rank1(rng, d)
            for f in (rank1, rank2):
                assert lp_norm(f, p, grid) == reference_lp_norm(f, p, grid)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.0, 2.5, 4.0, math.inf])
    @pytest.mark.parametrize("grid", [GridSpec(points_per_dim=24), GridSpec(points_per_dim=25),
                                      GridSpec(self_check=False), GridSpec()],
                             ids=["pinned-even", "pinned-odd", "unchecked", "self-checked"])
    def test_real_coefficients_on_half_the_rows(self, monkeypatch, d, p, grid):
        rng = np.random.default_rng(10 * d + 2)
        rank1 = random_rank1(rng, d, real=True)
        rank2 = rank1 + 0.3 * random_rank1(rng, d, real=True)
        shapes = []

        def spy(g, dims, rows=None):
            vals = eval_grid(g, dims, rows)
            shapes.append((dims, vals.shape))
            return vals

        monkeypatch.setattr(norms, "eval_grid", spy)
        for f in (rank1, rank2):
            # the reference reduces full grids from the unpatched eval_grid
            assert lp_norm(f, p, grid) == pytest.approx(reference_lp_norm(f, p, grid),
                                                        rel=1e-14, abs=0)
        assert shapes and all(shape == (dims[0] // 2 + 1,) + dims[1:] for dims, shape in shapes)

    def test_linf_grid_spec_built_only_for_linf(self, monkeypatch):
        # below oversampling 4 the L_inf grid needs its own GridSpec; a norm
        # that asks no L_inf must not pay for building and checking one
        grid = GridSpec(oversampling=2.0, self_check=False)
        built = []
        post_init = GridSpec.__post_init__
        monkeypatch.setattr(GridSpec, "__post_init__",
                            lambda self: (built.append(self), post_init(self))[1])
        f = random_rank1(np.random.default_rng(3), 2)
        lp_norm(f, 1.5, grid)
        assert built == []
        lp_norm(f, math.inf, grid)
        assert [g.oversampling for g in built] == [4.0]

    @pytest.mark.parametrize("ps", [(1.0,), (1.5,), (math.inf,), (1.0, 4.0, math.inf),
                                    (1.5, 3.0, 4.0)])
    @pytest.mark.parametrize("shape", [(7,), (3, 11), (norms.SLICE_POINTS + 1,)])
    def test_grid_stats_equal_numpy_mean_and_max(self, ps, shape):
        # complex coefficients: the whole grid, one batch or walked
        f = random_spectrum(np.random.default_rng(len(ps) + len(shape)), len(shape), 3, 9)
        want = numpy_grid_stats(f, ps, shape)
        got = {p: norms._grid_stats([f], p, shape, False)[0] for p in ps}
        # one batch is the whole array's; a walked grid's sums move only at rounding
        assert got == (want if math.prod(shape) <= norms.SLICE_POINTS else
                       whole_grid_stats(f, ps, shape))
        assert got == pytest.approx(want, rel=1e-15, abs=0)


def random_spectrum(rng, d, deg, nnz, real=False):
    """nnz random frequencies with |k_j| <= deg, coefficients real or complex."""
    K = rng.integers(-deg, deg + 1, size=(nnz, d))
    C = rng.standard_normal(nnz) + (0 if real else 1j * rng.standard_normal(nnz))
    return TrigPoly.from_arrays(K, C)


def batch_cuts(dims, rows):
    """The flat ranges (lo, hi) of the batches that ``_grid_stats`` sums
    rows 0..rows-1 of a ``dims`` grid in: the whole range if it holds at
    most SLICE_POINTS values; else runs of the largest trailing blocks (rows,
    lines, points) of at most SLICE_POINTS values, each run inside one block
    of the next size up."""
    size = rows * math.prod(dims[1:])
    if size <= norms.SLICE_POINTS:
        return [(0, size)]
    blocks = [size] + [math.prod(dims[a:]) for a in range(1, len(dims) + 1)]
    a = next(a for a in range(1, len(blocks)) if blocks[a] <= norms.SLICE_POINTS)
    step = norms.SLICE_POINTS // blocks[a] * blocks[a]
    return [(lo, min(lo + step, start + blocks[a - 1]))
            for start in range(0, size, blocks[a - 1])
            for lo in range(start, start + blocks[a - 1], step)]


def whole_grid_stats(f, ps, dims):
    """``_grid_stats`` of one polynomial written out on the whole
    ``eval_grid`` array (rows 0..N_0//2 of it for real coefficients): the
    max of |f|, and a mean that is the fsum of the np.sum of each batch of
    ``batch_cuts``, over prod(dims).  For real coefficients the fsum takes
    twice each batch sum and, for each batch, minus the np.sum of its part
    of row 0 and (even N_0 only) minus that of its part of row N_0/2."""
    real = not np.count_nonzero(f.C.imag)
    n0, row = dims[0], math.prod(dims[1:])
    rows = n0 // 2 + 1 if real else n0
    a = np.abs(eval_grid(f, dims, rows)).reshape(-1)
    cuts = batch_cuts(dims, rows)
    edges = [(0, row)] + [(a.size - row, a.size)] * (n0 % 2 == 0)  # rows 0 and N_0/2
    out = {}
    for p in ps:
        if math.isinf(p):
            out[p] = float(a.max())
            continue
        x = a if p == 1 else a**p
        terms = [x[lo:hi].sum() for lo, hi in cuts]
        if real:
            terms = [2 * t for t in terms] + [-x[max(lo, e0):min(hi, e1)].sum()
                                              for lo, hi in cuts for e0, e1 in edges
                                              if lo < e1 and e0 < hi]
        out[p] = math.fsum(terms) / math.prod(dims)
    return out


def numpy_grid_stats(f, ps, dims):
    """np.mean of |f|**p and np.max of |f| over the whole ``eval_grid``
    array."""
    a = np.abs(eval_grid(f, dims))
    return {p: float(np.max(a)) if math.isinf(p) else float(np.mean(a if p == 1 else a**p))
            for p in ps}


STREAM_PS = (1.0, 1.5, 2.5, 3.0, 4.0, math.inf)
BATCHES = [128, 1000, norms.SLICE_POINTS]


class TestStreamedStats:
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("dims", [
        (40, 33, 29), (41, 30, 27),  # d = 3, even and odd N_0
        (300, 257), (301, 256),  # d = 2
        (4, 40000), (5, 33001),  # a last axis longer than the largest batch
        (12, 60000),  # an edge row longer than the largest batch
        (2**15 + 1,), (100_003,), (2**20,),  # d = 1 lines over one batch, odd and even
        # SLICE_POINTS and SLICE_POINTS + 1 points, all of them (complex) or
        # rows 0..N_0//2 (real) evaluated
        (2**15,), (128, 256), (99, 331), (510, 128), (196, 331),
    ], ids=str)
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_equals_whole_grid_stats(self, monkeypatch, batch, dims, real):
        # batches of whole rows, of lines inside a row, and of points of one
        # line, which for d = 1 is the whole axis
        f = random_spectrum(np.random.default_rng(len(dims) + dims[0]), len(dims), 12, 40, real)
        monkeypatch.setattr(norms, "SLICE_POINTS", batch)
        got = {p: norms._grid_stats([f], p, dims, real)[0] for p in STREAM_PS}
        assert got == whole_grid_stats(f, STREAM_PS, dims)
        # within rounding of the whole array's mean and max
        numpy = numpy_grid_stats(f, STREAM_PS, dims)
        for p, v in got.items():
            assert v == pytest.approx(numpy[p], rel=1e-15, abs=0)

    @pytest.mark.parametrize("batch", [128, 1000])
    @pytest.mark.parametrize("dims", [(40, 33, 29), (4, 40000), (41, 30, 27), (5, 33001),
                                      (80, 81, 83), (81, 80, 83), (12, 60000), (13, 45000)],
                             ids=str)
    def test_each_line_is_transformed_once(self, monkeypatch, batch, dims):
        # whether a batch holds whole rows, lines of a row or part of one
        # line: in flat order on one CPU, and once each when two threads
        # share the batches
        monkeypatch.setattr(norms, "SLICE_POINTS", batch)
        transform = GridLines.transform
        for real in (False, True):
            f = random_spectrum(np.random.default_rng(1), len(dims), 12, 40, real)
            done = []

            def spy(self, first, out):
                done.extend(range(first, first + len(out)))
                return transform(self, first, out)

            monkeypatch.setattr(GridLines, "transform", spy)
            rows = dims[0] // 2 + 1 if real else dims[0]
            for cpus in ({0}, {0, 1}):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
                for p in (1.0, 2.5, math.inf):
                    done.clear()
                    norms._grid_stats([f], p, dims, real)
                    want = list(range(rows * math.prod(dims[1:-1])))
                    assert (done if len(cpus) == 1 else sorted(done)) == want

    @pytest.mark.parametrize("d,ppd", [(2, 725), (3, 81)])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_grids_just_over_the_cutoff_stream(self, monkeypatch, d, ppd, real):
        # grids on both sides of 2^19 points are walked the same way, once
        # per exponent, and a grid of one batch is evaluated whole by eval_grid
        f = random_spectrum(np.random.default_rng(d), d, 10, 30, real)
        ps = (1.0, 1.5, math.inf)
        walked, whole = [], []
        monkeypatch.setattr(norms, "GridLines", lambda *a: walked.append(a) or GridLines(*a))
        monkeypatch.setattr(norms, "eval_grid", lambda *a: whole.append(a) or eval_grid(*a))
        for n in (ppd - 1, ppd, 32):
            grid = GridSpec(points_per_dim=n)
            for p, stat in whole_grid_stats(f, ps, (n,) * d).items():
                assert lp_norms([f], p, grid) == [
                    stat if math.isinf(p) else stat ** (1 / p)]
        assert [a[1] for a in walked] == [(ppd - 1,) * d] * 3 + [(ppd,) * d] * 3
        assert [a[1] for a in whole] == [(32,) * d] * 3

    def test_norm_on_a_large_grid_holds_no_grid(self):
        # reduced whole, this 1.8M-point grid alone takes 28.8 MB
        rng = np.random.default_rng(5)
        f = random_mixed_poly(rng, 3, max_shell=6)
        while math.prod(resolve_grid_dims(f, GridSpec())) < 1_000_000:
            f = random_mixed_poly(rng, 3, max_shell=6)
        grid_bytes = 16 * math.prod(resolve_grid_dims(f, GridSpec()))
        tracemalloc.start()
        try:
            lp_norm(f, 1.5, GridSpec(self_check=False))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= grid_bytes / 4

    def test_walked_sup_frees_each_batch(self, monkeypatch):
        # a walked L_inf holds one batch's moduli at a time, as a walked L_1
        # does: keeping the last batch's while the next is made would trace
        # one more batch, 8 * SLICE_POINTS bytes.  On one CPU, since the
        # peak of two threads sharing the batches depends on how they
        # interleave
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        rng = np.random.default_rng(5)
        g = random_mixed_poly(rng, 3, max_shell=6)
        while math.prod(resolve_grid_dims(g, GridSpec())) < 1_000_000:
            g = random_mixed_poly(rng, 3, max_shell=6)
        assert np.count_nonzero(g.C.imag)
        peaks = []
        for p, grid in ((1.0, GridSpec(self_check=False)), (math.inf, GridSpec())):
            tracemalloc.start()
            try:
                lp_norm(g, p, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2 * norms.SLICE_POINTS

    def test_walked_real_mean_holds_no_edge_rows(self, monkeypatch):
        # rows of 60000 values, each over a batch: a real L_1 reduces its
        # parts of rows 0 and N_0/2 as their batches come, and holds no more
        # than the L_inf of the same grid
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        f = random_spectrum(np.random.default_rng(3), 2, 12, 40, real=True)
        dims = (12, 60000)
        assert dims[1] > norms.SLICE_POINTS
        peaks = []
        for p in (math.inf, 1.0):
            tracemalloc.start()
            try:
                norms._grid_stats([f], p, dims, True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2 * norms.SLICE_POINTS

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_long_line_holds_no_moduli_whole(self, real):
        # a d = 1 line is transformed whole, 16 bytes a point; its moduli and
        # powers, 8 bytes a point each, are made one batch at a time
        n = 1 << 20
        f = random_spectrum(np.random.default_rng(6), 1, 40, 30, real)
        tracemalloc.start()
        try:
            for p in (1.0, 2.5, math.inf):
                norms._grid_stats([f], p, (n,), real)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * n + 2 * n

    def test_self_checked_norm_traces_under_10_mb(self):
        # this norm's doublings reach grids of millions of points, 60 MB
        # traced when each is reduced whole
        f = random_mixed_poly(np.random.default_rng(8), 3, max_shell=6)
        tracemalloc.start()
        try:
            lp_norm(f, 2.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10e6


def same_dims_polys(rng, d, deg, count, real):
    """``count`` random polynomials of degree ``deg`` in every coordinate,
    whose grids therefore share dims, with real or complex coefficients."""
    polys = []
    for _ in range(count):
        K = rng.integers(-deg, deg + 1, size=(6, d))
        K[0] = rng.choice([-deg, deg], d)  # pins the degree
        C = rng.standard_normal(6) + (0 if real else 1j * rng.standard_normal(6))
        polys.append(TrigPoly.from_arrays(K, C))
    return polys


def record_stacks(monkeypatch):
    """Patch ``norms._stack`` to record the number of polynomials and the
    values of every stack that ``norms`` reduces."""
    stacks = []
    stack_of = norms._stack

    def spy(fs, dims, rows):
        stack = stack_of(fs, dims, rows)
        stacks.append((len(stack), stack.size))
        return stack

    monkeypatch.setattr(norms, "_stack", spy)
    return stacks


class TestStackedNorms:
    """Polynomials whose grids share dims and coefficient kind are evaluated
    and reduced in stacks, each value bit for bit its own ``lp_norm``."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 4.0, math.inf])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_stack_equals_one_at_a_time(self, monkeypatch, d, p, real):
        rng = np.random.default_rng(10 * d + real)
        fs = same_dims_polys(rng, d, 5 if d < 3 else 2, 9, real)
        fs[3:3] = [TrigPoly.zero(d), TrigPoly.zero(d)]
        grid = GridSpec(oversampling=2.0, self_check=False)
        want = [lp_norm(f, p, grid) for f in fs]
        stacks = record_stacks(monkeypatch)
        assert lp_norms(fs, p, grid) == want
        if p == 2:  # Parseval evaluates no grid
            assert stacks == []
        else:
            # every nonzero polynomial once, most of them in a stack with
            # others, but at p = inf none whose coefficients are all >= 0
            grids = sum(not (f.is_zero() or math.isinf(p) and real and min(f.C.real) >= 0)
                        for f in fs)
            assert sum(n for n, _ in stacks) == grids >= 8 and max(n for n, _ in stacks) >= 3
        assert all(size <= 2 * norms.SLICE_POINTS for _, size in stacks)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.5, 2.5])
    def test_self_checked_stack_refines_each_alone(self, monkeypatch, d, p):
        rng = np.random.default_rng(d)
        # sums of products without zeros, so the self-check converges
        fs = [random_rank1(rng, d, max_deg=3) + 0.3 * random_rank1(rng, d, max_deg=3)
              for _ in range(4)]
        assert len({resolve_grid_dims(f, GridSpec()) for f in fs}) == 1
        want = [lp_norm(f, p) for f in fs]
        calls = []
        grid_stats = norms._grid_stats
        monkeypatch.setattr(norms, "_grid_stats", lambda gs, p, dims, real: calls.append(len(gs))
                            or grid_stats(gs, p, dims, real))
        assert lp_norms(fs, p) == want
        # the base grids together, then each polynomial's doublings alone
        assert calls[0] == 4 and len(calls) >= 5 and set(calls[1:]) == {1}

    @pytest.mark.parametrize("d,ppd,real,walked", [
        (1, 32768, False, False), (1, 32769, False, True),
        (1, 65535, True, False), (1, 65536, True, True),
        (2, 181, False, False), (2, 182, False, True),
        (2, 255, True, False), (2, 256, True, True),
        (3, 32, False, False), (3, 33, False, True),
        (3, 39, True, False), (3, 40, True, True),
    ])
    def test_grids_at_the_leaf_size(self, monkeypatch, d, ppd, real, walked):
        # grids of at most SLICE_POINTS values evaluated go two to a stack,
        # larger ones are walked one polynomial at a time, once per exponent
        fs = same_dims_polys(np.random.default_rng(ppd), d, 10, 3, real)
        grid = GridSpec(points_per_dim=ppd)
        ps = (1.0, 2.5, math.inf)
        want = [[lp_norm(f, p, grid) for f in fs] for p in ps]
        stacks = record_stacks(monkeypatch)
        lines = []
        monkeypatch.setattr(norms, "GridLines", lambda *a: lines.append(a) or GridLines(*a))
        assert [lp_norms(fs, p, grid) for p in ps] == want
        if walked:
            assert stacks == [] and [a[0] for a in lines] == fs * 3
        else:
            assert [n for n, _ in stacks] == [2, 1] * 3 and lines == []

    def test_mixed_polynomials_keep_their_order(self, monkeypatch):
        rng = np.random.default_rng(7)
        fs = [f for d in (1, 2, 3) for real in (False, True) for deg in (3, 4)
              for f in same_dims_polys(rng, d, deg, 2, real)]
        fs = [fs[i] for i in rng.permutation(len(fs))] + [TrigPoly.zero(2)]
        grid = GridSpec(oversampling=2.0, self_check=False)
        want = [lp_norm(f, 3.0, grid) for f in fs]
        stacks = record_stacks(monkeypatch)
        assert lp_norms(fs, 3.0, grid) == want
        assert sorted(n for n, _ in stacks) == [2] * 12

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_numpy_row_sums_are_flat_sums(self, rows):
        # a stack is reduced along its rows; this rests on numpy summing each
        # row of a C-contiguous array pairwise, as it sums the row alone
        rng = np.random.default_rng(rows)
        sizes = list(range(1, 301)) + [128 * k + j for k in range(3, 17) for j in (-1, 0, 1)]
        for n in sizes:
            x = rng.random((rows, n)) * 10.0 ** rng.integers(-3, 4, size=(rows, n))
            assert np.add.reduce(x, -1).tolist() == [row.copy().sum() for row in x]
            # the first row of a real polynomial's grid is reduced as a view
            k = max(n // 3, 1)
            assert np.add.reduce(x[:, :k], -1).tolist() == [row[:k].copy().sum() for row in x]


def nonvanishing_polys(rng, d, degs, real):
    """For each degree in ``degs``, a polynomial of that degree in every
    coordinate: the constant 4 and five terms of modulus below 0.6 each, so
    that it has no zero and the self-check converges in a few doublings.
    Real coefficients include -0.5, so that the sup takes a grid."""
    polys = []
    for deg in degs:
        K = rng.integers(-deg, deg + 1, size=(6, d))
        K[0], K[1] = 0, rng.choice([-deg, deg], d)  # the constant, and the pinned degree
        C = 0.4 * (rng.uniform(-1, 1, 6) + (0 if real else 1j * rng.uniform(-1, 1, 6)))
        C[0], C[1] = 4.0, -0.5
        polys.append(TrigPoly.from_arrays(K, C))
    return polys


def batched(dims, real):
    """Whether a grid is reduced in batches: over SLICE_POINTS values evaluated."""
    return norms._rows(dims, real) * math.prod(dims[1:]) > norms.SLICE_POINTS


def spy_jobs(monkeypatch, raise_on=None):
    """Patch ``norms._grid_stats`` to record the thread of each batched call.
    Each thread's first one waits, at most 10 s, until a second thread
    makes one, so that a helper, if started, and the calling thread both
    run a job.  ``raise_on``, "helper" or "caller", makes that thread's
    first batched call raise then."""
    threads = []
    both = threading.Barrier(2)
    grid_stats = norms._grid_stats
    main = threading.get_ident()

    def spy(fs, p, dims, real):
        me = threading.get_ident()
        if batched(dims, real):
            first = me not in threads
            threads.append(me)
            if first:
                try:
                    both.wait(10)
                except threading.BrokenBarrierError:
                    pass  # no second thread: ``threads`` shows it
                if raise_on == ("caller" if me == main else "helper"):
                    raise RuntimeError(f"job failed on the {raise_on} thread")
        return grid_stats(fs, p, dims, real)

    monkeypatch.setattr(norms, "_grid_stats", spy)
    # two CPUs, whatever the machine offers, so that the helper is started
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return threads


def record_starts(monkeypatch):
    """Patch ``threading.Thread.start`` to record the work of each helper it
    starts, the function that ``norms._guard`` runs."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t._args[0]) or start(t))
    return started


class TestThreadedNorms:
    """The batched grids of one ``lp_norms`` call are reduced by the calling
    thread and one helper, each value bit for bit as on one thread."""

    DEGS = {1: (8300, 9000), 2: (35, 40), 3: (5, 6)}

    def mixed(self, d):
        rng = np.random.default_rng(50 + d)
        fs = [f for real in (False, True) for f in nonvanishing_polys(rng, d, self.DEGS[d], real)]
        fs.insert(2, same_dims_polys(rng, d, 2, 1, False)[0])  # a stack, on the calling thread
        return fs

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0, math.inf])
    def test_equals_one_at_a_time(self, monkeypatch, d, p):
        fs = self.mixed(d)
        jobs = {(resolve_grid_dims(f, GridSpec()), not f.C.imag.any()) for f in fs}
        assert sum(batched(*job) for job in jobs) == 4
        want = [lp_norm(f, p) for f in fs]
        before = threading.active_count()
        threads = spy_jobs(monkeypatch)
        assert lp_norms(fs, p) == want
        assert len(set(threads)) == 2 and threading.active_count() == before

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_an_error_in_either_thread_is_raised(self, monkeypatch, where):
        fs = self.mixed(2)
        before = threading.active_count()
        threads = spy_jobs(monkeypatch, raise_on=where)
        with pytest.raises(RuntimeError, match=f"on the {where} thread"):
            lp_norms(fs, 1.5)
        assert len(set(threads)) == 2 and threading.active_count() == before

    def test_each_job_runs_once_under_rapid_switching(self, monkeypatch):
        # both threads take jobs from one iterator: with the interpreter
        # switching threads every microsecond, no job runs twice or not at all
        fs = nonvanishing_polys(np.random.default_rng(8), 2, range(30, 60, 2), False)
        want = [lp_norm(f, math.inf) for f in fs]
        calls = record_grids(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = lp_norms(fs, math.inf)
        finally:
            sys.setswitchinterval(interval)
        grids = [(2, resolve_grid_dims(f, GridSpec())) for f in fs]  # (d, dims) of each f
        assert got == want and len(set(grids)) >= 8 and sorted(calls) == sorted(grids)

    @pytest.mark.parametrize("cpus,d", [({0}, 2), ({0, 1}, 1)],
                             ids=["one-cpu", "one-line-range"])
    def test_no_helper_for_one_cpu_or_one_line_range(self, monkeypatch, cpus, d):
        # a d = 1 grid is one line, transformed whole: nothing to share
        fs = self.mixed(d)[:None if d == 2 else 1]
        want = [lp_norm(f, math.inf) for f in fs]
        started = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
        assert lp_norms(fs, math.inf) == want and started == []

    def test_one_helper_for_several_batched_jobs(self, monkeypatch):
        # the job-level helper holds ``_HELPER``: no grid, on either
        # thread, starts a helper of its own
        fs = self.mixed(2)
        unchecked = [lp_norm(f, 1.5, GridSpec(self_check=False)) for f in fs]
        want = [lp_norm(f, 1.5) for f in fs]
        started = record_starts(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert lp_norms(fs, 1.5, GridSpec(self_check=False)) == unchecked
        assert started == [norms._run_jobs]
        assert lp_norms(fs, 1.5) == want  # then each doubling shares its batches
        assert started[1] is norms._run_jobs and set(started[2:]) == {norms._run_ranges}


    def test_no_thread_to_start_leaves_every_item_to_the_caller(self, monkeypatch):
        # several batched jobs, then the doublings' line ranges: when no
        # thread can be started the calling thread does them all, bit for
        # bit as on one CPU, and a later call shares again
        fs = self.mixed(2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        want = lp_norms(fs, 1.5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        tried = []

        def no_thread(thread):
            tried.append(thread._args[0])
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        before = threading.active_count()
        assert lp_norms(fs, 1.5) == want
        assert tried[0] is norms._run_jobs and norms._run_ranges in tried
        assert threading.active_count() == before and not norms._HELPER.locked()
        monkeypatch.undo()
        started = record_starts(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert lp_norms(fs, 1.5) == want and started[0] is norms._run_jobs


def spy_ranges(monkeypatch, raise_on=None):
    """Patch ``norms._run_ranges`` to record, per grid dims, the threads
    that take its line ranges.  Each thread's first call waits, at most
    10 s, until a second thread makes one; ``raise_on``, "helper" or
    "caller", makes that thread's first call raise then."""
    threads = {}
    both = threading.Barrier(2)
    run_ranges = norms._run_ranges
    main = threading.get_ident()

    def spy(lines, *args):
        me = threading.get_ident()
        if not any(me in seen for seen in threads.values()):
            try:
                both.wait(10)
            except threading.BrokenBarrierError:
                pass  # no second thread: ``threads`` shows it
            if raise_on == ("caller" if me == main else "helper"):
                raise RuntimeError(f"batch failed on the {raise_on} thread")
        threads.setdefault(lines.dims, set()).add(me)
        return run_ranges(lines, *args)

    monkeypatch.setattr(norms, "_run_ranges", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return threads


class TestSharedBatches:
    """A grid reduced alone, such as each doubling of the self-check, has
    its line ranges shared by the calling thread and one helper, each value
    bit for bit as on one thread."""

    DEGS = {1: (17000, 30000), 2: (60, 130), 3: (9, 16)}

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_equals_one_cpu(self, monkeypatch, d, real):
        fs = nonvanishing_polys(np.random.default_rng(70 + d), d, self.DEGS[d], real)
        runs = [(p, GridSpec()) for p in (1.0, 1.5, 2.5)] + [(math.inf, GridSpec())]
        # pinned grids of odd and even N_0 over SLICE_POINTS values
        runs += [(p, GridSpec(points_per_dim=n)) for p in (1.0, math.inf)
                 for n in {1: (70001, 70002), 2: (301, 302), 3: (45, 46)}[d]]

        def norms_on(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            return [lp_norm(f, p, grid) for f in fs for p, grid in runs]

        want = norms_on({0})
        grids = []
        grid_stats = norms._grid_stats
        monkeypatch.setattr(norms, "_grid_stats", lambda gs, p, dims, real: grids.append(
            (dims, real)) or grid_stats(gs, p, dims, real))
        started = record_starts(monkeypatch)
        assert norms_on({0, 1}) == want
        shared = {(dims[0] % 2, real) for dims, real in grids if batched(dims, real)}
        if d == 1:  # one line, one range
            assert started == []
        else:  # the edge rows of every kind: none, row 0, rows 0 and N_0/2
            assert len(started) >= 10 and shared == {(0, real), (1, real)}

    def test_two_threads_inside_one_doubling(self, monkeypatch):
        # a base grid of one batch, and doublings over SLICE_POINTS values
        f = nonvanishing_polys(np.random.default_rng(3), 2, (20,), False)[0]
        base = resolve_grid_dims(f, GridSpec())
        assert not batched(base, False)
        want = lp_norm(f, 1.5)
        threads = spy_ranges(monkeypatch)
        assert lp_norm(f, 1.5) == want
        assert threads and all(len(seen) == 2 for seen in threads.values())
        assert all(dims[0] > base[0] for dims in threads)

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_an_error_in_either_thread_is_raised(self, monkeypatch, where):
        f = nonvanishing_polys(np.random.default_rng(4), 2, (200,), True)[0]
        done = []
        transform = GridLines.transform
        monkeypatch.setattr(GridLines, "transform",
                            lambda self, first, out: done.append(first) or transform(self, first, out))
        before = threading.active_count()
        spy_ranges(monkeypatch, raise_on=where)
        with pytest.raises(RuntimeError, match=f"on the {where} thread"):
            lp_norm(f, math.inf)
        assert threading.active_count() == before
        # after the error neither thread takes a new range
        dims = resolve_grid_dims(f, GridSpec(oversampling=4.0))
        ranges, _ = norms._ranges(dims, norms._rows(dims, True) * math.prod(dims[1:]))
        assert len(ranges) == 41 and len(done) < len(ranges) // 2

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_each_range_runs_once_under_rapid_switching(self, monkeypatch, real):
        # both threads take line ranges from one iterator: with the
        # interpreter switching threads every microsecond, no range runs
        # twice or not at all, and no batch's sums go astray
        monkeypatch.setattr(norms, "SLICE_POINTS", 1000)
        f = random_spectrum(np.random.default_rng(11), 2, 12, 40, real)
        dims = (300, 257)
        want = whole_grid_stats(f, (1.5,), dims)[1.5]
        done = []
        transform = GridLines.transform
        monkeypatch.setattr(GridLines, "transform",
                            lambda self, first, out: done.append(first) or transform(self, first, out))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = norms._grid_stats([f], 1.5, dims, real)
        finally:
            sys.setswitchinterval(interval)
        rows = norms._rows(dims, real)
        ranges, _ = norms._ranges(dims, rows * dims[1])
        assert got == [want] and sorted(done) == [first for first, _ in ranges]

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_shared_doubling_holds_no_grid(self, monkeypatch, real):
        # one doubling, to 1134 x 1134 points, that passes whatever it
        # changes; two threads hold two batches, not a grid
        f = nonvanishing_polys(np.random.default_rng(9), 2, (70,), real)[0]
        grid_bytes = 16 * 4 * math.prod(resolve_grid_dims(f, GridSpec()))
        monkeypatch.setattr(norms, "CHECK_RTOL", 1.0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        grids = record_grids(monkeypatch)
        started = record_starts(monkeypatch)
        tracemalloc.start()
        try:
            lp_norm(f, 1.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 16 * math.prod(grids[-1][1]) == grid_bytes > 16_000_000
        assert started == [norms._run_ranges] * 2 and peak <= grid_bytes / 4

    def test_t3_quadrature_failure_is_unchanged(self):
        # the T3 p = q = 1 level, whose doublings reach 3584 x 7680 points
        with pytest.raises(QuadratureError, match=r"hit the grid budget before reaching "
                           r"rtol=1e-06 \(last value 6\.384506e-02\)"):
            sweep_extremal(1.0, 1.0, math.inf, SmoothParams((1.0, 1.0)), "gamma", [5])


class TestRankOneFactors:
    """A product f(x) = prod_j g_j(x_j) of 1-D factors is reduced on its own
    grid, like any other polynomial."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("p", [1.0, 2.5, 3.0, 4.0, math.inf])
    @pytest.mark.parametrize("grid", [GridSpec(points_per_dim=24), GridSpec()],
                             ids=["pinned", "self-checked"])
    def test_matches_full_grid(self, monkeypatch, d, p, grid):
        rng = np.random.default_rng(d)
        calls = record_grids(monkeypatch)
        for real in (False, True):
            for _ in range(8):
                f = random_rank1(rng, d, real=real)
                calls.clear()
                got = lp_norm(f, p, grid)
                if math.isinf(p) and real and min(f.C.real) >= 0:  # the sup is f(0)
                    assert calls == [] and got == math.fsum(f.C.real.tolist())
                    continue
                assert calls and all(fd == d for fd, _ in calls)
                stat = whole_grid_stats(f, (p,), calls[-1][1])[p]
                assert got == (stat if math.isinf(p) else stat ** (1 / p))

    def test_shell_smooth_block_l1_still_hits_budget(self):
        comp = smooth_block(dirichlet_shell(5, 2), (1, 2))
        with pytest.raises(QuadratureError, match="hit the grid budget"):
            lp_norm(comp, 1.0)


class TestBesovNorm:
    def test_single_block_example(self):
        # block s=2 carries weight 2^(2*1) = 4 and a unit L_p norm
        f = TrigPoly.exponential((2,))
        params = SmoothParams((1.0,))
        for theta in (1.0, 2.0, math.inf):
            assert besov_mixed_norm(f, params, 2.0, theta) == pytest.approx(4.0, rel=1e-13)

    def test_homogeneity(self):
        params = SmoothParams((1.0, 2.0))
        f = TrigPoly(2, {(1, 1): 1.0, (4, 2): 2.0})
        v1 = besov_mixed_norm(f, params, 2.0, 2.0)
        v2 = besov_mixed_norm(2.5 * f, params, 2.0, 2.0)
        assert v2 == pytest.approx(2.5 * v1, rel=1e-12)

    def test_theta_monotone_in_sharp_form(self):
        rng = np.random.default_rng(2)
        params = SmoothParams((1.0, 1.0))
        for _ in range(25):
            f = random_mixed_poly(rng, 2, max_shell=7)
            vals = [besov_mixed_norm(f, params, 2.0, th) for th in (1.0, 1.5, 2.0, 4.0, math.inf)]
            for a, b in zip(vals, vals[1:]):
                assert b <= a * (1 + 1e-12)

    def test_sharp_form_requires_inner_p(self):
        f = TrigPoly.exponential((2,))
        params = SmoothParams((1.0,))
        with pytest.raises(ValueError, match="sharp"):
            besov_mixed_norm(f, params, 1.0, 2.0, "sharp")
        with pytest.raises(ValueError, match="sharp"):
            besov_mixed_norm(f, params, math.inf, 2.0, "sharp")

    def test_smooth_form_allows_extreme_p(self):
        f = TrigPoly.exponential((2,))
        params = SmoothParams((1.0,))
        assert besov_mixed_norm(f, params, math.inf, 1.0, "smooth") > 0

    def test_requires_mean_zero(self):
        params = SmoothParams((1.0,))
        with pytest.raises(ValueError):
            besov_mixed_norm(TrigPoly(1, {(0,): 1.0}), params, 2.0, 2.0)

    def test_rejects_theta_below_one(self):
        f = TrigPoly.exponential((2,))
        with pytest.raises(ValueError, match="theta"):
            besov_mixed_norm(f, SmoothParams((1.0,)), 2.0, 0.5)


def test_zero_polynomial_is_validated():
    zero = TrigPoly.zero(2)
    with pytest.raises(ValueError, match="block form"):
        bq1_norm(zero, 2.0, "bogus")
    with pytest.raises(ValueError, match="sharp block form"):
        besov_mixed_norm(zero, SmoothParams((1.0, 1.0)), 1.0, 2.0, "sharp")
    with pytest.raises(ValueError, match="dimension"):
        besov_mixed_norm(zero, SmoothParams((1.0,)), 2.0, 2.0)
    for v in (bq1_norm(zero, 2.0, "sharp"), bq1_norm(zero, 1.0),
              besov_mixed_norm(zero, SmoothParams((1.0, 1.0)), 2.0, 2.0),
              besov_mixed_norm(zero, SmoothParams((1.0, 1.0)), 1.0, math.inf, "smooth")):
        assert v == 0.0 and type(v) is float


class TestBq1Norm:
    def test_single_block_equals_lq(self):
        f = TrigPoly(1, {(2,): 1.0, (3,): -1.0})
        assert bq1_norm(f, 2.0, "sharp") == pytest.approx(lp_norm(f, 2.0), rel=1e-13)

    def test_two_blocks_example(self):
        f = TrigPoly(1, {(1,): 1.0, (4,): 1.0})
        assert bq1_norm(f, 2.0, "sharp") == pytest.approx(2.0, rel=1e-13)

    def test_dominates_lq(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            f = random_mixed_poly(rng, 2, max_shell=7)
            assert lp_norm(f, 2.0) <= bq1_norm(f, 2.0, "sharp") * (1 + 1e-9)

    def test_monotone_in_q_smooth_form(self):
        rng = np.random.default_rng(4)
        grid = GridSpec(self_check=False)
        for _ in range(25):
            f = random_mixed_poly(rng, 2, max_shell=6)
            v1 = bq1_norm(f, 1.0, "smooth", grid)
            v2 = bq1_norm(f, 2.0, "smooth", grid)
            vi = bq1_norm(f, math.inf, "smooth", grid)
            assert v1 <= v2 * (1 + 1e-9) <= vi * (1 + 1e-9) ** 2

    def test_sharp_vs_smooth_band_on_shell_family(self):
        grid = GridSpec()
        ratios = []
        for n in range(3, 8):
            dn = dirichlet_shell(n, 2)
            ratios.append(bq1_norm(dn, 2.0, "sharp", grid) / bq1_norm(dn, 2.0, "smooth", grid))
        assert max(ratios) / min(ratios) < 1.5

    def test_sharp_requires_inner_q(self):
        with pytest.raises(ValueError):
            bq1_norm(TrigPoly.exponential((1,)), 1.0, "sharp")


class TestDyadicShellNorms:
    def test_l2_block_norms_exact(self):
        # Parseval: every block of the shell polynomial has 2^(s,1) unit
        # coefficients (small version; the full check runs in acceptance)
        for d, n_top in ((1, 9), (2, 9)):
            for n in range(d, n_top):
                for s, comp in blocks_of(dirichlet_shell(n, d)).items():
                    assert lp_norm(comp, 2.0) == pytest.approx(2.0 ** (sum(s) / 2), rel=1e-13)

    def test_p4_band_1d(self):
        ratios = [lp_norm(block_poly_1d(s), 4.0) / 2.0 ** (0.75 * s) for s in range(6, 15)]
        assert max(ratios) / min(ratios) < 4.0

    def test_p43_band_1d(self):
        # fixed fine grid; accuracy far below the factor-4 band width
        g = GridSpec(oversampling=32, self_check=False)
        ratios = [lp_norm(block_poly_1d(s), 4 / 3, g) / 2.0 ** (0.25 * s) for s in range(6, 15)]
        assert max(ratios) / min(ratios) < 4.0

    def test_p4_band_includes_2d_blocks(self):
        vals = []
        for s in ((3, 3), (5, 2), (4, 4), (6, 3)):
            comp = TrigPoly(2, {(a, b): 1.0 for (a,) in block_poly_1d(s[0]).coeffs
                                for (b,) in block_poly_1d(s[1]).coeffs})
            vals.append(lp_norm(comp, 4.0) / 2.0 ** (0.75 * sum(s)))
        assert max(vals) / min(vals) < 4.0


NIKOLSKII_PAIRS = ((1.0, 2.0), (2.0, 4.0), (2.0, math.inf))


class TestNikolskii:
    def test_unit_exponential(self):
        [(lhs, rhs, ok)] = nikolskii_check(TrigPoly.exponential((1,)), ((1.0, 2.0),))
        assert ok and lhs == pytest.approx(1.0, rel=1e-9) and rhs == pytest.approx(2.0, rel=1e-4)

    def test_dirichlet_two_infinity(self):
        for m in (1, 2, 5, 9):
            t = TrigPoly(1, {(k,): 1.0 for k in range(-m, m + 1)})
            [(lhs, rhs, ok)] = nikolskii_check(t, ((2.0, math.inf),))
            assert ok
            assert lhs == pytest.approx(2 * m + 1, rel=1e-12)
            assert rhs == pytest.approx(2 * math.sqrt(m) * math.sqrt(2 * m + 1), rel=1e-12)

    def test_property_random(self):
        rng = np.random.default_rng(5)
        for i in range(60):
            d = 1 + i % 3
            f = random_mixed_poly(rng, d, max_shell=min(7, 3 * d + 2))
            results = nikolskii_check(f, NIKOLSKII_PAIRS)
            assert len(results) == 3
            for _, _, ok in results:
                assert ok

    def test_rejects_bad_pair(self):
        with pytest.raises(ValueError):
            nikolskii_check(TrigPoly.exponential((1,)), ((2.0, 2.0),))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), dense=st.booleans(), real=st.booleans())
    def test_bounds_bracket_the_estimates(self, data, d, dense, real):
        # a product of 1-D factors, each a constant larger than the sum of its
        # other terms' moduli, has no zero, so the self-checks converge
        part = st.floats(-1.0, 1.0)
        factors = []
        for _ in range(d):
            ks = (list(range(-3, 4)) if dense else
                  data.draw(st.lists(st.integers(-12, 12), min_size=1, max_size=3, unique=True)))
            u = {k: complex(data.draw(part), 0.0 if real else data.draw(part)) for k in ks}
            scale = max(1.0, 2 * sum(abs(c) for k, c in u.items() if k))
            u = {k: c / scale for k, c in u.items()}
            u[0] = 1.0 + data.draw(st.floats(0.0, 1.0))
            factors.append(u)
        f = TrigPoly(d, {ks: math.prod(u[k] for u, k in zip(factors, ks))
                         for ks in itertools.product(*factors)})
        pairs = NIKOLSKII_PAIRS + ((1.5, 3.0), (1.0, math.inf), (3.0, 6.0), (4.0, 8.0))
        degs = [max(1, m) for m in f.degree()]
        results = nikolskii_check(f, pairs)
        assert all(ok for _, _, ok in results[:len(NIKOLSKII_PAIRS)])
        for (p, q), (lhs, rhs, ok) in zip(pairs, results):
            qinv = 0.0 if math.isinf(q) else 1.0 / q
            const = 2.0**d * math.prod(m ** (1.0 / p - qinv) for m in degs)
            assert ok == (lhs <= rhs * (1 + 1e-9))
            est_q, est_p = lp_norm(f, q), lp_norm(f, p)
            if q in (2.0, 4.0):
                assert lhs == pytest.approx(est_q, rel=1e-12)
            else:
                assert lhs >= est_q * (1 - 1e-12)
            assert rhs / const <= est_p * (1 + 1e-9)
            if p in (2.0, 4.0):
                assert rhs / const == pytest.approx(est_p, rel=1e-12)

    @pytest.mark.parametrize("grid", [GridSpec(self_check=False), GridSpec()],
                             ids=["unchecked", "self-checked"])
    def test_pairs_match_one_norm_at_a_time(self, grid):
        # a list of pairs gives each pair's verdict checked on its own, and
        # each bound sits on the right side of lp_norm's estimate on ``grid``
        rng = np.random.default_rng(8)
        pairs = NIKOLSKII_PAIRS + ((1.5, 3.0), (1.0, math.inf))
        # sums of two products without zeros, so the self-check converges
        polys = [random_rank1(rng, d) + 0.3 * random_rank1(rng, d) for d in (1, 2, 3)]
        if not grid.self_check:
            polys += [random_mixed_poly(rng, d, max_shell=min(7, 3 * d + 2)) for d in (1, 2, 3)]
        for f in polys:
            degs = [max(1, m) for m in f.degree()]
            for (p, q), (lhs, rhs, ok) in zip(pairs, nikolskii_check(f, pairs)):
                assert nikolskii_check(f, ((p, q),)) == [(lhs, rhs, ok)]
                qinv = 0.0 if math.isinf(q) else 1.0 / q
                const = 2.0**f.d * math.prod(m ** (1.0 / p - qinv) for m in degs)
                assert ok == (lhs <= rhs * (1 + 1e-9))
                est_q, est_p = lp_norm(f, q, grid), lp_norm(f, p, grid)
                if q in (2.0, 4.0):
                    assert lhs == pytest.approx(est_q, rel=1e-12)
                else:
                    assert lhs >= est_q * (1 - 1e-12)
                if p in (2.0, 4.0):
                    assert rhs / const == pytest.approx(est_p, rel=1e-12)
                else:
                    assert rhs / const <= est_p * (1 + 1e-9)

    def test_estimate_passes_where_certificate_fails(self):
        # D_2 at (1, inf), C = 4: the grid values pass, 5 <= 4 * 1.642 = 6.57,
        # but the certified lower bound of the L_1 norm does not,
        # 5 > 4 * ||D_2||_2**3 / ||D_2||_4**2 = 4 * 5**1.5 / 85**0.5 = 4.85
        d2 = TrigPoly(1, {(k,): 1.0 for k in range(-2, 3)})
        assert lp_norm(d2, math.inf) <= 4 * lp_norm(d2, 1.0)
        [(lhs, rhs, ok)] = nikolskii_check(d2, ((1.0, math.inf),))
        assert lhs == 5.0 and rhs == pytest.approx(4 * 5**1.5 / 85**0.5, rel=1e-14)
        assert not ok
        # D_1 at (1, inf), C = 2: the inequality itself fails, since
        # ||D_1||_inf = 3 > 2 ||D_1||_1 = 2 (1/3 + 2 sqrt(3) / pi) = 2.872
        d1 = TrigPoly(1, {(k,): 1.0 for k in range(-1, 2)})
        assert lp_norm(d1, math.inf) > 2 * (1 / 3 + 2 * math.sqrt(3) / math.pi)
        [(lhs, rhs, ok)] = nikolskii_check(d1, ((1.0, math.inf),))
        assert lhs == 3.0 and rhs <= 2.872 and not ok

    @pytest.mark.parametrize("d,seed,streamed", [pytest.param(2, 2, False, id="2"),
                                                 pytest.param(3, 3, False, id="3"),
                                                 pytest.param(3, 5, True, id="3-streamed")])
    def test_one_grid_for_every_pair(self, monkeypatch, d, seed, streamed):
        # a sparse t takes its exact L_4 from t * t and evaluates no grid, not
        # even the L_4 grid that seed 5's would reduce in batches over 85,050
        # points
        f = random_mixed_poly(np.random.default_rng(seed), d, max_shell=6)
        assert f.nnz ** 2 <= moments.PAIR_BUDGET
        dims = resolve_grid_dims(f, GridSpec(oversampling=2.0))
        assert (math.prod(dims) > norms.SLICE_POINTS) == streamed
        calls = record_grids(monkeypatch)
        nikolskii_check(f, NIKOLSKII_PAIRS)
        assert calls == []

    @pytest.mark.parametrize("shape", [(100,), (7, 7), (3, 2, 3)], ids=["1", "2", "3"])
    def test_dense_takes_the_one_l4_grid(self, monkeypatch, shape):
        # over sqrt(PAIR_BUDGET) terms: the exact L_4 on its grid, equal to
        # Parseval on t * t
        rng = np.random.default_rng(len(shape))
        K = np.array(list(itertools.product(*[range(-m, m + 1) for m in shape])))
        t = TrigPoly.from_arrays(K, rng.normal(size=len(K)) + 1j * rng.normal(size=len(K)))
        assert t.nnz ** 2 > moments.PAIR_BUDGET
        calls = record_grids(monkeypatch)
        [_, (l4, _, _), _] = nikolskii_check(t, NIKOLSKII_PAIRS)
        assert calls == [(t.d, resolve_grid_dims(t, GridSpec(oversampling=2.0)))]
        assert l4 == pytest.approx(math.sqrt(lp_norm(t * t, 2.0)), rel=1e-12)

    def test_product_holds_its_pairs_only(self):
        # the square's arrays are a few per pair; the L_4 grid would be 45,360
        # points of 16 bytes
        rng = np.random.default_rng(4)
        t = random_mixed_poly(rng, 3, max_shell=6)
        while math.prod(resolve_grid_dims(t, GridSpec())) < 200_000:
            t = random_mixed_poly(rng, 3, max_shell=6)
        assert t.nnz ** 2 <= moments.PAIR_BUDGET
        tracemalloc.start()
        try:
            nikolskii_check(t, NIKOLSKII_PAIRS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * t.nnz ** 2

    def test_shared_grid_holds_one_grid_buffer(self):
        # the modulus overwrites the complex grid and the one power overwrites
        # the modulus, so the peak is the grid's own 16 bytes a point; a sum of
        # draws of over sqrt(PAIR_BUDGET) terms takes the L_4 grid
        rng = np.random.default_rng(4)
        t = random_mixed_poly(rng, 3, max_shell=6)
        while (t.nnz ** 2 <= moments.PAIR_BUDGET
               or math.prod(resolve_grid_dims(t, GridSpec())) < 200_000):
            t = t + random_mixed_poly(rng, 3, max_shell=6)
        points = math.prod(resolve_grid_dims(t, GridSpec()))
        tracemalloc.start()
        try:
            nikolskii_check(t, NIKOLSKII_PAIRS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 18 * points

    @pytest.mark.parametrize("bad", [(2.0, 2.0), (3.0, 2.0), (0.5, 2.0), (1.0, math.nan),
                                     (True, 2.0)])
    def test_bad_pair_last_raises_before_any_grid(self, monkeypatch, bad):
        f = random_mixed_poly(np.random.default_rng(1), 2, max_shell=6)
        calls = record_grids(monkeypatch)
        with pytest.raises(ValueError):
            nikolskii_check(f, NIKOLSKII_PAIRS + (bad,))
        assert calls == []


def verdict_bits(results):
    """Each (lhs, rhs, ok) with its floats as hex, so == compares bits."""
    return [[(lhs.hex(), rhs.hex(), ok) for lhs, rhs, ok in checks] for checks in results]


def budget_table():
    """Sparse ts of d = 1..3, two of about 150 terms, whose squares have over
    20,000 pairs, and one dense t of 225 terms, whose square has over 2^15."""
    rng = np.random.default_rng(41)
    wide = [TrigPoly.from_arrays(rng.integers(-60, 61, (150, 2)), rng.normal(size=150))
            for _ in range(2)]
    K = np.array(list(itertools.product(range(-7, 8), range(-7, 8))))
    dense = TrigPoly.from_arrays(K, rng.normal(size=len(K)))
    ts = [random_mixed_poly(rng, 1 + i % 3, max_shell=min(7, 3 * (1 + i % 3) + 2))
          for i in range(12)]
    return ts[:1] + [wide[0], dense] + ts[1:6] + [wide[1]] + ts[6:]


def record_table(monkeypatch, ts, pairs):
    """The bits of ``nikolskii_checks(ts, pairs)``, and (d, run lengths) of
    each chunk that ``even_norms`` squares on the way."""
    chunks, cauchy_squares = [], moments.cauchy_squares
    monkeypatch.setattr(moments, "cauchy_squares", lambda K, C, starts, limit: chunks.append(
        (K.shape[1], np.diff(starts, append=len(K)).tolist())) or cauchy_squares(K, C, starts,
                                                                               limit))
    got = verdict_bits(nikolskii_checks(ts, pairs))
    monkeypatch.setattr(moments, "cauchy_squares", cauchy_squares)
    return got, chunks


class TestNikolskiiChecks:
    def test_pairs_may_be_a_generator(self):
        t = TrigPoly(1, {(1,): 1.0, (3,): 2.0})
        got = nikolskii_check(t, (pq for pq in [(1.0, 2.0), (2.0, 4.0)]))
        assert len(got) == 2 and got == nikolskii_check(t, [(1.0, 2.0), (2.0, 4.0)])
        assert nikolskii_checks([t, t], iter([(2.0, math.inf)])) == (
            [nikolskii_check(t, [(2.0, math.inf)])] * 2)

    def test_ts_may_be_a_generator(self):
        # ``ts`` is read once: a one-shot iterable gives the list's verdicts
        ts = [TrigPoly(1, {(1,): 1.0, (3,): 2.0}), TrigPoly(2, {(1, 2): 1.0, (0, 5): 0.5j})]
        got = nikolskii_checks((t for t in ts), NIKOLSKII_PAIRS)
        assert got == nikolskii_checks(ts, NIKOLSKII_PAIRS)
        assert got == [nikolskii_check(t, NIKOLSKII_PAIRS) for t in ts]

    def test_equals_one_polynomial_at_a_time(self, monkeypatch):
        # d = 1..3 interleaved, zero polynomials, a dense t (the grid L_4
        # path) and sparse ones of 150 terms, whose squares alone overfill a
        # chunk: one ``even_norms`` call per d, and d = 2 squared in several
        # chunks
        rng = np.random.default_rng(40)
        K = np.array(list(itertools.product(range(-7, 8), range(-7, 8))))  # 225 terms
        dense = TrigPoly.from_arrays(K, rng.normal(size=len(K)))
        wide = [TrigPoly.from_arrays(rng.integers(-60, 61, (150, 2)), rng.normal(size=150))
                for _ in range(2)]
        ts = [random_mixed_poly(rng, 1 + i % 3, max_shell=min(7, 3 * (1 + i % 3) + 2))
              for i in range(90)]
        ts[5:5] = [TrigPoly.zero(2), wide[0], dense]
        ts[40:40] = [TrigPoly.zero(1), wide[1], TrigPoly.zero(3)]
        assert dense.nnz ** 2 > moments.PAIR_BUDGET >= max(t.nnz for t in wide) ** 2
        calls, chunks = [], []
        even_norms, cauchy_squares = norms.even_norms, moments.cauchy_squares
        monkeypatch.setattr(norms, "even_norms", lambda K, C, starts: calls.append(
            (K.shape[1], len(starts))) or even_norms(K, C, starts))
        monkeypatch.setattr(moments, "cauchy_squares", lambda K, C, starts, limit: chunks.append(
            (K.shape[1], np.diff(starts, append=len(K)).tolist())) or cauchy_squares(K, C, starts,
                                                                                   limit))
        pairs = NIKOLSKII_PAIRS + ((1.5, 3.0), (3.0, 6.0))
        got = nikolskii_checks(ts, pairs)
        assert sorted(d for d, _ in calls) == [1, 2, 3]
        # all but the dense t
        assert sum(n for _, n in calls) == sum(len(nnz) for _, nnz in chunks) == len(ts) - 1
        assert sum(d == 2 for d, _ in chunks) >= 3
        for _, nnz in chunks:
            assert len(nnz) == 1 or sum(n * n for n in nnz) <= moments.CHUNK_PAIRS
        monkeypatch.undo()
        assert verdict_bits(got) == verdict_bits([nikolskii_check(t, pairs) for t in ts])
        assert got[5] == [(0.0, 0.0, True)] * len(pairs)

    def test_pair_budget_is_not_the_grid_batch(self, monkeypatch):
        # a grid batch of 1,000 values moves neither the sparse/dense cut nor
        # ``even_norms``' chunks: the ts of about 150 terms (over 20,000
        # square pairs) still take no grid, and every verdict keeps its bits
        ts, pairs = budget_table(), NIKOLSKII_PAIRS + ((1.5, 3.0),)
        want, want_chunks = record_table(monkeypatch, ts, pairs)
        monkeypatch.setattr(norms, "SLICE_POINTS", 1000)
        grids = record_grids(monkeypatch)
        got, chunks = record_table(monkeypatch, ts, pairs)
        assert got == want and chunks == want_chunks
        assert [d for d, _ in grids] == [2]  # the dense t's L_4 grid alone

    def test_lower_pair_budget_moves_the_cut(self, monkeypatch):
        # with a budget of 1,000 pairs the ts of about 150 terms take their
        # L_4 grids, and ``even_norms`` rejects a square of more
        ts = budget_table()
        monkeypatch.setattr(moments, "PAIR_BUDGET", 1000)
        grids = record_grids(monkeypatch)
        _, chunks = record_table(monkeypatch, ts, NIKOLSKII_PAIRS)
        assert len(grids) == 3 and all(n * n <= 1000 for _, nnz in chunks for n in nnz)
        wide = ts[1]
        with pytest.raises(ValueError, match="over the budget of 1000"):
            moments.even_norms(wide.K, wide.C, np.array([0]))

    def test_empty_table(self):
        assert nikolskii_checks([], NIKOLSKII_PAIRS) == []

    def test_bad_pair_raises_before_any_norm(self, monkeypatch):
        monkeypatch.setattr(norms, "even_norms", None)  # any norm raises TypeError
        calls = record_grids(monkeypatch)
        ts = [TrigPoly.exponential((1, 2)), TrigPoly(1, {(k,): 1.0 for k in range(-99, 100)})]
        with pytest.raises(ValueError, match="requires 1 <= p < q"):
            nikolskii_checks(ts, iter(NIKOLSKII_PAIRS + ((4.0, 2.0),)))
        assert calls == []


def test_aggregate_block_norms_matches_manual():
    bn = [((1,), 2.0), ((3,), 1.0)]
    assert aggregate_block_norms(bn, (1.0,), 1.0) == pytest.approx(2 * 2 + 8 * 1)
    assert aggregate_block_norms(bn, (1.0,), math.inf) == pytest.approx(8.0)


def random_block_norms(rng, d):
    """Up to 11 (block, norm) pairs of dimension d, norms from 1e-8 to 1e8."""
    return [(tuple(int(s) for s in rng.integers(1, 12, d)),
             float(rng.random() * 10.0 ** rng.integers(-8, 9)))
            for _ in range(int(rng.integers(1, 12)))]


class TestAggregateBlockNorms:
    def test_tiny_norms_do_not_underflow(self):
        # the squares of 2e-200 and 4e-200 are below the smallest double
        bn = [((1,), 1e-200), ((2,), 1e-200)]
        assert aggregate_block_norms(bn, (1.0,), 2.0) == pytest.approx(math.sqrt(20) * 1e-200,
                                                                       rel=1e-15, abs=0)

    def test_large_theta_does_not_overflow(self):
        # 2**180 to the 8th power is above the largest double
        assert aggregate_block_norms([((6,), 1.0)], (30.0,), 8.0) == 2.0**180
        # ... and 0.75 to the 2000th power below the smallest
        bn = [((0,), 0.75), ((0,), 0.5)]
        assert aggregate_block_norms(bn, (1.0,), 2000.0) == pytest.approx(0.75, rel=1e-15, abs=0)

    @pytest.mark.parametrize("theta", [1.0, 2.0])
    def test_plain_powers_bit_for_bit(self, theta):
        # inside 2**±900 the terms are not rescaled, so the values are the
        # unscaled formula's exactly, with the theta = 2 root a square root
        rng = np.random.default_rng(int(theta))
        for _ in range(2000):
            d = int(rng.integers(1, 4))
            bn, r = random_block_norms(rng, d), tuple(rng.random(d) * 3)
            terms = [2.0 ** sum(sj * rj for sj, rj in zip(s, r)) * v for s, v in bn]
            total = sum(t**theta for t in terms)
            want = math.sqrt(total) if theta == 2 else total ** (1.0 / theta)
            assert aggregate_block_norms(bn, r, theta) == want

    def test_theta_two_root_is_correctly_rounded(self):
        # the sum's ** 0.5 is one ulp above its correctly rounded square root
        bn = [((1,), 1 / 7), ((2,), 13 / 3)]
        assert aggregate_block_norms(bn, (1.0,), 2.0) == 17.335687961471432

    @pytest.mark.parametrize("scale", [2.0**900, 2.0**-900], ids=["2^900", "2^-900"])
    def test_homogeneous_far_from_one(self, scale):
        rng = np.random.default_rng(8)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            bn, r = random_block_norms(rng, d), tuple(rng.random(d) * 3)
            scaled = [(s, scale * v) for s, v in bn]
            assert aggregate_block_norms(scaled, r, 8.0) == pytest.approx(
                scale * aggregate_block_norms(bn, r, 8.0), rel=1e-14, abs=0)
