"""Exact even moments with no grid: Parseval's L_2 and the exact L_4 of
many sparse polynomials, and the L_p brackets taken from them."""

import math
import tracemalloc

import numpy as np
import pytest

from stepcross.approx import random_mixed_poly
from stepcross.moments import abs_sum, even_norms, lp_bounds
from stepcross.norms import QuadratureError, lp_norm
from stepcross.poly import blocks_of


def block_components(rng, d, count):
    """The sharp block components of random sparse polynomials, 1-3 terms
    each, the last fifth cut to their first term."""
    comps = []
    while len(comps) < count:
        comps += blocks_of(random_mixed_poly(rng, d, max_shell=d + 2)).values()
    cut = count - count // 5
    return comps[:cut] + [f.take(slice(0, 1)) for f in comps[cut:count]]


def runs_of(fs):
    """The terms of the polynomials ``fs`` one after another, and where each starts."""
    return (np.concatenate([f.K for f in fs]), np.concatenate([f.C for f in fs]),
            np.cumsum([0] + [f.nnz for f in fs[:-1]]))


class TestEvenMomentBounds:
    @pytest.mark.parametrize("whole", [False, True], ids=["components", "polynomials"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_even_norms_are_parseval_on_each_and_its_square(self, d, whole):
        rng = np.random.default_rng(d)
        fs = ([random_mixed_poly(rng, d, max_shell=3 * d + 2) for _ in range(30)] if whole
              else block_components(rng, d, 60))
        l2, l4 = even_norms(*runs_of(fs))
        assert l2 == [lp_norm(f, 2.0) for f in fs]
        assert l4 == [math.sqrt(lp_norm(f * f, 2.0)) for f in fs]

    def test_memory_is_one_chunk_of_squares(self):
        # each chunk of squares is reduced before the next is made, so 16
        # times the polynomials trace less than twice the peak
        rng = np.random.default_rng(0)
        peaks = []
        for count in (180, 2880):
            fs = [random_mixed_poly(rng, 2, max_shell=6) for _ in range(count)]
            runs = runs_of(fs)
            tracemalloc.start()
            try:
                even_norms(*runs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]

    def test_one_long_run_among_many_short_ones(self):
        # one 60-term d = 2 polynomial and 4,500 one-term ones, 8,100 square
        # pairs in one chunk; when every run was padded to the longest, the
        # chunk traced 264 MB
        rng = np.random.default_rng(0)
        K = np.unique(rng.integers(-500, 500, (60, 2)), axis=0)
        C = rng.standard_normal((60, 2)).view(complex)[:, 0]
        k = rng.integers(-500, 500, (4500, 2))
        c = rng.standard_normal((4500, 2)).view(complex)[:, 0]
        long, short = (K, C, np.array([0])), (k, c, np.arange(4500))
        both = np.concatenate((K, k)), np.concatenate((C, c)), np.append(0, 60 + short[2])
        assert len(K) == 60
        tracemalloc.start()
        try:
            got = even_norms(*both)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        # each run's norms are its own, as the runs give them alone
        want = [a + b for a, b in zip(even_norms(*long), even_norms(*short))]
        assert list(got) == want

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_lower_equals_upper_at_two_and_four(self, d):
        fs = block_components(np.random.default_rng(10 + d), d, 40)
        for f, l2, l4 in zip(fs, *even_norms(*runs_of(fs))):
            s = abs_sum(f)
            assert lp_bounds(2.0, l2, l4, s) == (l2, l2)
            assert lp_bounds(4.0, l2, l4, s) == (l4, l4)

    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_brackets_hold_the_self_checked_norm(self, d, p):
        # a component with zeros can take the L_1.5 self-check past the grid
        # budget; every one whose self-check converges lies in its bracket
        fs = block_components(np.random.default_rng(20 + d), d, 25)
        checked = 0
        for f, l2, l4 in zip(fs, *even_norms(*runs_of(fs))):
            # where the bounds meet, for one term, each may round past the other
            lo, hi = lp_bounds(p, l2, l4, abs_sum(f))
            assert lo <= hi * (1 + 1e-14)
            try:
                est = lp_norm(f, p)
            except QuadratureError:
                continue
            assert lo * (1 - 1e-9) <= est <= hi * (1 + 1e-9)
            checked += 1
        assert checked >= 20
