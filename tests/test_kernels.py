import itertools
import math
import re

import numpy as np
import pytest

from stepcross import kernels
from stepcross.approx import random_mixed_poly
from stepcross.blocks import SmoothParams, block_ranges
from stepcross.extremal import shell_extremal, shifted_rect_sample
from stepcross.kernels import (block_filter_coeff, filter_support_blocks, smooth_aggregate,
                               smooth_block, smooth_blocks_of, smooth_filing, vdp_coeff)
from stepcross.norms import block_norms, lp_norm
from stepcross.poly import GridSpec, TrigPoly


def coeff_gap(f, g):
    """Largest coefficient modulus of f - g."""
    return max(map(abs, (f - g).coeffs.values()), default=0.0)


def same_bytes(f, g):
    """f and g have the same frequencies and coefficients, bit for bit."""
    return f.K.tobytes() == g.K.tobytes() and f.C.tobytes() == g.C.tobytes()


def filter_poly_1d(s):
    """The one-dimensional block-s filter as a trigonometric polynomial."""
    hi = 2 ** (s + 1)
    return TrigPoly(1, {(k,): block_filter_coeff(s, k) for k in range(-hi, hi + 1)})


class TestVdpCoeff:
    def test_order_one_profile(self):
        assert vdp_coeff(1, 0) == 1.0
        assert vdp_coeff(1, 1) == vdp_coeff(1, -1) == 1.0
        assert vdp_coeff(1, 2) == vdp_coeff(1, -2) == 0.0

    def test_order_two_ramp(self):
        assert vdp_coeff(2, 3) == pytest.approx(0.5)
        assert vdp_coeff(2, 4) == 0.0
        assert vdp_coeff(2, -3) == pytest.approx(0.5)

    @pytest.mark.parametrize("l", [1, 2, 5, 16])
    def test_center_is_one(self, l):
        assert vdp_coeff(l, 0) == 1.0

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            vdp_coeff(0, 1)

    def test_flat_band_and_support(self):
        for l in (2, 4, 8):
            assert all(vdp_coeff(l, k) == 1.0 for k in range(-l, l + 1))
            assert all(vdp_coeff(l, k) == 0.0 for k in range(2 * l, 3 * l))


class TestBlockFilter:
    def test_partition_exact_keeps_unit_frequencies(self):
        assert block_filter_coeff(1, 1) == 1.0
        assert block_filter_coeff(1, 0) == 0.0

    def test_smooth_block_examples(self):
        # order-4 kernel is 1 at k=3, order-2 kernel is 1/2
        f = TrigPoly.exponential((3,))
        assert smooth_block(f, (2,), "partition-exact") == 0.5 * f
        e1 = TrigPoly.exponential((1,))
        assert smooth_block(e1, (1,), "partition-exact") == e1

    @pytest.mark.parametrize("convention", ["partition-exact"])
    def test_smooth_block_matches_per_coefficient_loop(self, convention):
        def vdp(l, k):
            return 1.0 if abs(k) <= l else 1.0 - (abs(k) - l) / l if abs(k) < 2 * l else 0.0

        def rung(s, k):
            if s == 1:
                return vdp(2, k) - (1.0 if k == 0 else 0.0)
            return vdp(2**s, k) - vdp(2 ** (s - 1), k)

        rng = np.random.default_rng(5)
        for d in (1, 2, 3):
            ks = rng.integers(-70, 71, size=(40, d))
            f = TrigPoly(d, {tuple(map(int, k)): complex(*rng.standard_normal(2)) for k in ks})
            for s in itertools.product(range(1, 8), repeat=d):
                want = {k: c * math.prod(rung(sj, kj) for sj, kj in zip(s, k))
                        for k, c in f.terms()}
                assert smooth_block(f, s, convention) == TrigPoly(d, want)

    def test_unknown_convention(self):
        for convention in ("other", "literal"):
            with pytest.raises(ValueError, match=f"unknown convention '{convention}'"):
                smooth_block(TrigPoly.exponential((1,)), (1,), convention)

    @pytest.mark.parametrize("convention", ["partition-exact"])
    def test_smooth_block_multipliers_are_block_filter_coeff(self, convention):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            ks = rng.integers(-80, 81, size=(60, d))
            # zero and unit coordinates, where the s_j = 1 filter leaves the ladder
            ks[:4, 0] = 0
            ks[4:8] = rng.choice((-1, 1), size=(4, d))
            f = TrigPoly.from_arrays(ks, rng.standard_normal(60) + 1j * rng.standard_normal(60))
            for s in itertools.product(range(1, 8), repeat=d):
                mult = np.ones(f.nnz)
                for j, sj in enumerate(s):
                    mult = mult * block_filter_coeff(sj, f.K[:, j])
                keep = mult != 0.0
                got = smooth_block(f, s, convention)
                assert np.array_equal(got.K, f.K[keep])
                assert np.array_equal(got.C, f.C[keep] * mult[keep])

    @pytest.mark.parametrize("s", [(0,), (2, 0), (-1, 3)])
    def test_smooth_block_rejects_index_below_one(self, s):
        with pytest.raises(ValueError, match="block index components must be >= 1"):
            smooth_block(TrigPoly.exponential((3,) * len(s)), s)

    @pytest.mark.parametrize("s", [(1.5, 2.7), (2.0, 3), (True, 2), (2, np.float64(3.0)),
                                   (np.bool_(True), 1), ("2", 1)])
    def test_smooth_block_rejects_non_integer_index(self, monkeypatch, s):
        monkeypatch.setattr(kernels, "_rung", lambda *a: pytest.fail("formed a multiplier"))
        with pytest.raises(ValueError, match=re.escape(f"must be integers, got s={s!r}")):
            smooth_block(TrigPoly.exponential((3, 5)), s)

    @pytest.mark.parametrize("s", [1.9, 2.0, True, np.float32(1.0), np.array([1, 2.5]),
                                   np.array([True, False]), [1, 2.0]])
    def test_block_filter_coeff_rejects_non_integer_index(self, s):
        with pytest.raises(ValueError, match="block index components must be integers, got s="):
            block_filter_coeff(s, 3)

    def test_integer_types_of_any_width_are_indices(self):
        f = TrigPoly(2, {(3, 5): 1.0, (-6, 2): 2.0j})
        want = smooth_block(f, (2, 3))
        for s in (np.array([2, 3]), (np.int32(2), np.uint8(3)), [2, np.int64(3)]):
            assert same_bytes(smooth_block(f, s), want)
        for dtype in (np.int8, np.int32, np.uint16, np.uint64):
            got = block_filter_coeff(np.array([1, 2, 3], dtype=dtype), 3)
            assert got.tolist() == [block_filter_coeff(s, 3) for s in (1, 2, 3)]


def reconstruct(f, convention):
    total = TrigPoly.zero(f.d)
    for s in filter_support_blocks(f):
        total = total + smooth_block(f, s, convention)
    return total


class TestPartitionOfUnity:
    def test_exact_on_random_polys(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3):
            for _ in range(20):
                ks = rng.integers(1, 200, size=(8, d)) * rng.choice((-1, 1), size=(8, d))
                f = TrigPoly(d, {tuple(map(int, k)): complex(a, b)
                                 for k, a, b in zip(ks, rng.standard_normal(8),
                                                    rng.standard_normal(8))})
                assert coeff_gap(reconstruct(f, "partition-exact"), f) <= 1e-13

    def test_scalar_coefficient_sums_to_one(self):
        for k in range(1, 1025):
            total = sum(block_filter_coeff(s, k) for s in range(1, 13))
            assert total == 1.0  # dyadic ramps are exact in binary floating point


class TestSupportAndReproduction:
    def test_filtered_spectrum_stays_in_neighborhood(self):
        f = TrigPoly(1, {(k,): 1.0 for k in range(1, 80)})
        for s in range(1, 8):
            g = smooth_block(f, (s,), "partition-exact")
            for (k,) in g.coeffs:
                m = abs(k).bit_length()
                assert abs(m - s) <= 1

    def test_far_blocks_annihilate(self):
        f = TrigPoly(2, {k: 1.0 for k in itertools.product(*block_ranges((3, 3)))})
        for s in ((1, 3), (5, 3), (3, 1), (3, 5), (1, 1), (5, 5)):
            assert smooth_block(f, s, "partition-exact").is_zero()

    def test_single_filter_does_not_reproduce(self):
        t = TrigPoly.exponential((2,))
        assert smooth_block(t, (2,), "partition-exact") != t

    def test_neighborhood_sum_reproduces_block_content(self):
        rng = np.random.default_rng(1)
        for s in ((3,), (2, 4)):
            d = len(s)
            freqs = list(itertools.product(*block_ranges(s)))
            take = rng.choice(len(freqs), size=min(6, len(freqs)), replace=False)
            t = TrigPoly(d, {freqs[i]: complex(*rng.standard_normal(2)) for i in take})
            total = TrigPoly.zero(d)
            for ds in itertools.product((-1, 0, 1), repeat=d):
                s2 = tuple(a + b for a, b in zip(s, ds))
                if all(x >= 1 for x in s2):
                    total = total + smooth_block(t, s2, "partition-exact")
            assert coeff_gap(total, t) <= 1e-13


def neighborhood_blocks(f):
    """Every s with s_j in {m_j - 1, m_j} (s_j >= 1) around the blocks m of f."""
    out = set()
    for k in f.coeffs:
        out.update(itertools.product(*[[sj for sj in (abs(kj).bit_length() - 1,
                                                        abs(kj).bit_length()) if sj >= 1]
                                       for kj in k]))
    return sorted(out)


SHIFTED_RECT_MEMBERS = pytest.mark.parametrize(
    "n,d,mode", [(6, 2, "random-sign"), (8, 2, "random-sign"), (8, 3, "random-sign"),
                 (10, 2, "constant")])


class TestFilterSupport:
    @staticmethod
    def assert_exact(f):
        # the oracle filters all of f once per candidate block
        want = [(s, smooth_block(f, s)) for s in neighborhood_blocks(f)]
        want = [(s, b) for s, b in want if not b.is_zero()]
        assert list(smooth_blocks_of(f).items()) == want
        assert filter_support_blocks(f) == [s for s, _ in want]

    def test_random_polys(self):
        rng = np.random.default_rng(2)
        for d in (1, 2, 3):
            for _ in range(20):
                # about half of the components sit on a power of two, where the
                # filter of their own block vanishes
                ks = rng.integers(1, 200, size=(8, d))
                pow2 = 2 ** rng.integers(0, 8, size=(8, d))
                ks = np.where(rng.random((8, d)) < 0.5, ks, pow2) * rng.choice((-1, 1), size=(8, d))
                self.assert_exact(TrigPoly(d, {tuple(map(int, k)): complex(*rng.standard_normal(2))
                                               for k in ks}))

    @SHIFTED_RECT_MEMBERS
    def test_shifted_rect_members(self, n, d, mode):
        self.assert_exact(shifted_rect_sample(n, d, mode, rng=n))

    def test_unit_frequency_keeps_first_filter(self):
        assert filter_support_blocks(TrigPoly(1, {(1,): 1.0})) == [(1,)]
        assert filter_support_blocks(TrigPoly(1, {(4,): 1.0})) == [(2,)]


class TestSmoothBlocksOf:
    @SHIFTED_RECT_MEMBERS
    def test_filters_each_coefficient_at_most_2_to_the_d_times(self, monkeypatch, n, d, mode):
        f = shifted_rect_sample(n, d, mode, rng=n)
        handed = []

        def spy(g, s, *args):
            handed.append(g.nnz)
            return smooth_block(g, s, *args)

        monkeypatch.setattr(kernels, "smooth_block", spy)
        split = smooth_blocks_of(f)
        assert sum(handed) <= 2**d * f.nnz
        # the smooth block norms take the same single pass
        handed.clear()
        assert [s for s, _ in block_norms(f, 2.0, "smooth", GridSpec())] == list(split)
        assert len(handed) == len(split) and sum(handed) <= 2**d * f.nnz

    def test_rejects_zero_component(self):
        with pytest.raises(ValueError, match="zero component"):
            smooth_blocks_of(TrigPoly(2, {(0, 3): 1.0}))


class TestSmoothFiling:
    @staticmethod
    def assert_filing_splits(f, g):
        """g has f's frequencies: f's filing gives g's blocks, bit for bit."""
        filing = smooth_filing(f)
        assert [(s, rows.tolist()) for s, rows, _ in filing] == [
            (s, rows.tolist()) for s, rows in kernels._filter_rows(f)]
        split = {}
        for s, rows, mult in filing:
            block = g.take(rows, g.C[rows] * mult)
            assert same_bytes(block, smooth_block(g.take(rows), s))
            split[s] = block
        want = smooth_blocks_of(g)
        assert list(split) == list(want)
        assert all(same_bytes(split[s], comp) for s, comp in want.items())

    @SHIFTED_RECT_MEMBERS
    def test_members_of_one_level(self, n, d, mode):
        rng = np.random.default_rng(n + d)
        f = shifted_rect_sample(n, d, mode, rng)
        self.assert_filing_splits(f, f)
        if mode == "random-sign":
            self.assert_filing_splits(f, shifted_rect_sample(n, d, mode, rng))

    def test_random_polys(self):
        rng = np.random.default_rng(4)
        for d in (1, 2, 3):
            for _ in range(10):
                # components on powers of two, where some filters vanish
                ks = rng.integers(1, 200, size=(12, d))
                pow2 = 2 ** rng.integers(0, 8, size=(12, d))
                ks = np.where(rng.random((12, d)) < 0.5, ks, pow2) * rng.choice((-1, 1), size=(12, d))
                f = TrigPoly(d, {tuple(map(int, k)): complex(*rng.standard_normal(2)) for k in ks})
                g = f.take(slice(None), rng.standard_normal(f.nnz) + 1j * rng.standard_normal(f.nnz))
                self.assert_filing_splits(f, g)


class TestKernelL1:
    def test_matches_highres_oracle_1d(self):
        # the self-checked L1 quadrature of the filter against a fixed very
        # fine grid as the independent oracle
        k = filter_poly_1d(2)
        oracle = lp_norm(k, 1.0, GridSpec(oversampling=512, self_check=False))
        assert lp_norm(k, 1.0) == pytest.approx(oracle, rel=1e-4)

    def test_tensor_factorization_on_matching_grid(self):
        # on a shared per-dim grid the 2-d quadrature of a product kernel
        # factorizes exactly into the 1-d quadratures
        k1 = filter_poly_1d(2)
        k2 = TrigPoly(2, {(a, b): ca * cb for (a,), ca in k1.coeffs.items()
                          for (b,), cb in k1.coeffs.items()})
        g = GridSpec(oversampling=16, self_check=False)
        direct = lp_norm(k2, 1.0, g)
        product = lp_norm(k1, 1.0, g) ** 2
        assert direct == pytest.approx(product, rel=1e-12)

    def test_uniformly_bounded_over_blocks(self):
        vals = [lp_norm(filter_poly_1d(s), 1.0, GridSpec(oversampling=8.0))
                for s in range(1, 9)]
        assert max(vals) < 2.0
        # away from the modified first rung the values are level-independent
        tail = vals[1:]
        assert max(tail) / min(tail) < 1.01
        assert max(v ** 3 for v in vals) < 8.0  # d = 3 products stay bounded


class TestSmoothAggregate:
    def test_zero_below_threshold(self):
        params = SmoothParams((1.0, 1.0))
        f = TrigPoly(2, {(1, 1): 1.0})
        assert smooth_aggregate(f, 2, params).is_zero()

    def test_deep_block_reproduced(self):
        # all filters touching the block sit inside the cutoff, so the
        # aggregate returns the polynomial itself (partition of unity)
        params = SmoothParams((1.0, 1.0))
        f = TrigPoly(2, {(1, 1): 1.0 + 2.0j, (1, -1): 0.5})
        assert coeff_gap(smooth_aggregate(f, 9, params), f) <= 1e-14

    def test_partial_filtering_matches_manual_sum(self):
        params = SmoothParams((1.0, 1.0))
        f = TrigPoly(2, {(2, 2): 1.0, (8, 8): 1.0})
        n = 7.0
        threshold = n - 2.0
        manual = TrigPoly.zero(2)
        for s in filter_support_blocks(f):
            if sum(s) < threshold:
                manual = manual + smooth_block(f, s)
        assert smooth_aggregate(f, n, params) == manual

    @pytest.mark.parametrize("r,gamma_prime", [((1.0, 1.0), None), ((1.0, 2.0), (1.0, 1.5)),
                                               ((1.0, 1.0, 3.0), None)])
    def test_matches_sum_of_kept_smooth_blocks(self, r, gamma_prime):
        # the oracle splits all of f and keeps the components inside the cross
        params = SmoothParams(r, gamma_prime)
        rng = np.random.default_rng(len(r))
        for _ in range(10):
            f = random_mixed_poly(rng, params.d, max_shell=9)
            for n in (4.0, 6.5, 9.0):
                want = TrigPoly.zero(params.d)
                for s, comp in smooth_blocks_of(f).items():
                    if sum(sj * gj for sj, gj in zip(s, params.gamma_prime)) < n - sum(
                            params.gamma_prime):
                        want = want + comp
                assert smooth_aggregate(f, n, params) == want

    def test_filters_no_block_outside_the_cross(self, monkeypatch):
        # every smooth block of the level-n shell member lies outside the
        # gamma'-cross at level n, so none is filtered: a smooth block index
        # s of a frequency in shell block m has s >= m - 1, hence
        # (s, gamma') >= n - (gamma', 1), the aggregate's threshold
        calls = []
        monkeypatch.setattr(kernels, "smooth_block", lambda *a: calls.append(a))
        f = shell_extremal(10, 2, 1.0, math.inf, math.inf)
        assert smooth_aggregate(f, 10, SmoothParams((1.0, 1.0))).is_zero()
        for params in (SmoothParams((1.0,)), SmoothParams((1.0, 1.0)),
                       SmoothParams((1.0, 1.0, 1.0)), SmoothParams((1.0, 2.0))):
            for n in range(params.d, 10):
                f = shell_extremal(n, params.d, params.r1, 2.0, 2.0)
                assert smooth_aggregate(f, n, params).is_zero()
        assert calls == []
