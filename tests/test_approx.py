import math

import numpy as np
import pytest

from stepcross import approx, norms, sparse
from stepcross.approx import (best_approx_upper, fourier_sum_error, projector_norm_probe,
                              random_mixed_poly, random_mixed_terms)
from stepcross.blocks import (SmoothParams, compositions, hyperbolic_cross,
                              mean_zero_block_indices)
from stepcross.extremal import shell_extremal
from stepcross.kernels import smooth_aggregate
from stepcross.norms import bq1_norm, lp_bounds, lp_norm
from stepcross.poly import DROP_TOL, TrigPoly, blocks_of, project_cross
from stepcross.sparse import sort_runs


class TestFourierSumError:
    def test_zero_inside_cross(self):
        params = SmoothParams((1.0, 1.0))
        f = TrigPoly(2, {(1, 1): 1.0, (2, -1): 3.0})
        assert fourier_sum_error(f, 5, params, "gamma", 2.0) == 0.0

    def test_single_coefficient_projection_oracle(self):
        # membership oracle: exp(i 2^m x) sits in block m+1, which the
        # level-n cross contains iff m+1 < n
        params = SmoothParams((1.0,))
        for m in (2, 4):
            f = TrigPoly.exponential((2**m,))
            for n in range(2, m + 4):
                want = 0.0 if m + 1 < n else 1.0
                got = fourier_sum_error(f, n, params, "gamma", 2.0)
                assert got == pytest.approx(want, abs=1e-13)

    def test_extremal_error_is_full_norm(self):
        params = SmoothParams((1.5, 1.5))
        g = shell_extremal(6, 2, 1.5, 2.0, 2.0)
        err = fourier_sum_error(g, 6, params, "gamma", 4.0)
        assert err == pytest.approx(bq1_norm(g, 4.0, "sharp"), rel=1e-12)

    def test_idempotence(self):
        cross = (5, SmoothParams((1.0, 1.0)), "gamma")
        rng = np.random.default_rng(0)
        for _ in range(10):
            f = random_mixed_poly(rng, 2, max_shell=7)
            assert fourier_sum_error(project_cross(f, *cross), *cross, 2.0) == 0.0

    def test_triangle_inequality(self):
        cross = (5, SmoothParams((1.0, 1.0)), "gamma")
        rng = np.random.default_rng(1)
        for _ in range(15):
            f = random_mixed_poly(rng, 2, max_shell=7)
            g = random_mixed_poly(rng, 2, max_shell=7)
            lhs = fourier_sum_error(f + g, *cross, 2.0)
            rhs = fourier_sum_error(f, *cross, 2.0) + fourier_sum_error(g, *cross, 2.0)
            assert lhs <= rhs + 1e-9

    def test_hand_built_cross_drops_the_blocks_outside(self):
        # the level-6 cross at r = (1, 2), s_1 + 2 s_2 < 6, listed by hand:
        # the error is the sum of f's sharp-block norms over the blocks it
        # leaves out
        params = SmoothParams((1.0, 2.0))
        cross = {(1, 1), (2, 1), (3, 1), (1, 2)}
        assert set(map(tuple, hyperbolic_cross(6, params).tolist())) == cross
        rng = np.random.default_rng(6)
        for _ in range(5):
            f = random_mixed_poly(rng, 2, max_shell=6)
            want = sum(lp_norm(comp, 3.0) for s, comp in blocks_of(f).items()
                       if s not in cross)
            assert want > 0
            got = fourier_sum_error(f, 6, params, "gamma", 3.0)
            assert got == pytest.approx(want, rel=1e-12)


class TestBestApproxUpper:
    def test_never_exceeds_fourier_sum_error(self):
        params = SmoothParams((1.0, 2.0))
        rng = np.random.default_rng(2)
        for _ in range(15):
            f = random_mixed_poly(rng, 2, max_shell=7)
            e = fourier_sum_error(f, 6, params, "gamma-prime", 2.0)
            u = best_approx_upper(f, 6, params, "gamma-prime", 2.0)
            assert u <= e * (1 + 1e-12)

    def test_zero_inside_cross(self):
        params = SmoothParams((1.0, 1.0))
        f = TrigPoly(2, {(1, 1): 1.0})
        assert best_approx_upper(f, 5, params, "gamma-prime", 2.0) == 0.0

    def test_ratio_band_on_extremal_family(self):
        params = SmoothParams((1.5, 1.5))
        for n in (5, 7):
            g = shell_extremal(n, 2, 1.5, 2.0, 2.0)
            e = fourier_sum_error(g, n, params, "gamma", 4.0)
            u = best_approx_upper(g, n, params, "gamma", 4.0)
            assert 0.5 * e <= u <= e * (1 + 1e-12)

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("gamma_mode", ["gamma", "gamma-prime"])
    def test_sharp_norm_builds_no_aggregate(self, monkeypatch, q, gamma_mode):
        # for 1 < q < inf the Fourier sum is the best approximation in the
        # sharp norm, so the aggregate is never built and the bound is its error
        def no_aggregate(*args, **kwargs):
            raise AssertionError("the smooth aggregate was built")

        monkeypatch.setattr(approx, "smooth_aggregate", no_aggregate)
        params = SmoothParams((1.0, 1.0))
        f = random_mixed_poly(np.random.default_rng(4), 2, max_shell=7)
        u = best_approx_upper(f, 5, params, gamma_mode, q)
        assert u == fourier_sum_error(f, 5, params, gamma_mode, q) > 0

    # a smooth aggregate other than the Fourier sum is measured, and the
    # smaller error is the bound: on the 1-D Dirichlet kernel of degree 31 at
    # level 5, whose low blocks lie inside the gamma-prime cross, the
    # aggregate's at q = 1 and the Fourier sum's at q = inf
    @pytest.mark.parametrize("q", [1.0, math.inf])
    def test_nonempty_aggregate_is_measured(self, monkeypatch, q):
        params = SmoothParams((1.0,))
        K = np.array([k for k in range(-31, 32) if k])[:, None]
        f = TrigPoly.from_arrays(K, np.ones(len(K)))
        aggregate = smooth_aggregate(f, 5, params)
        assert not aggregate.is_zero() and aggregate != project_cross(f, 5, params)
        sharp = fourier_sum_error(f, 5, params, "gamma-prime", q)
        smooth = bq1_norm(f - aggregate, q, "smooth")
        assert (smooth < sharp) is (q == 1.0)
        measured = []
        monkeypatch.setattr(approx, "bq1_norm",
                            lambda g, *a: measured.append(g) or bq1_norm(g, *a))
        assert best_approx_upper(f, 5, params, "gamma-prime", q) == min(sharp, smooth)
        assert measured[1] == f - aggregate and len(measured) == 2

    def test_approx_result_consistency(self):
        # the bound and the Fourier-sum error of one polynomial agree
        params = SmoothParams((1.0, 1.0))
        f = TrigPoly(2, {(1, 1): 1.0, (16, 16): 1.0})
        u = best_approx_upper(f, 4, params, "gamma", 2.0)
        want = pytest.approx(1.0, rel=1e-12)
        assert u == fourier_sum_error(f, 4, params, "gamma", 2.0) == want

    @pytest.mark.parametrize(("r", "n", "condition"), [
        ((1.0,), 5, "dimension mismatch"),
        ((1.0, 1.0), 41, "exceeds cap 40"),
        ((1.0, 1.0), math.inf, "must be finite"),
    ], ids=["wrong-dimension", "above-cap", "not-finite"])
    def test_rejects_an_unusable_cross_before_any_norm(self, monkeypatch, r, n, condition):
        def no_norm(*args, **kwargs):
            raise AssertionError("a norm was computed")

        monkeypatch.setattr(approx, "bq1_norm", no_norm)
        f = TrigPoly(2, {(1, 1): 1.0, (16, 16): 1.0})
        with pytest.raises(ValueError, match=condition):
            best_approx_upper(f, n, SmoothParams(r), "gamma", 2.0)


class TestProjectorProbe:
    def test_single_block_inside_gives_one(self):
        params = SmoothParams((1.0, 1.0))
        f = TrigPoly(2, {(1, 1): 1.0, (1, -1): 2.0})
        kept = bq1_norm(project_cross(f, 5, params), 2.0, "sharp")
        assert kept / bq1_norm(f, 2.0, "sharp") == pytest.approx(1.0, rel=1e-14)

    def test_single_block_outside_gives_zero(self):
        params = SmoothParams((1.0, 1.0))
        f = TrigPoly(2, {(16, 16): 1.0})
        assert project_cross(f, 4, params).is_zero()

    def test_probe_never_exceeds_one(self):
        params = SmoothParams((1.0, 1.0))
        for q in (1.5, 2.0):
            ratio = projector_norm_probe(5, params, q, samples=40, rng_seed=3)
            assert 0 < ratio <= 1 + 1e-9

    def test_probe_rejects_extreme_q(self):
        params = SmoothParams((1.0, 1.0))
        with pytest.raises(ValueError):
            projector_norm_probe(5, params, 1.0, samples=5)
        with pytest.raises(ValueError):
            projector_norm_probe(5, params, math.inf, samples=5)


def reference_projector_norm_probe(n, params, q, samples, rng_seed=0):
    """The probe as one loop over samples: draw a polynomial, bound each
    block component's L_q by ``lp_bounds`` from its own ``lp_norm(comp, 2)``
    and ``lp_norm(comp * comp, 2)``, and take the sample's ratio before the
    next draw."""
    rng = np.random.default_rng(rng_seed)
    cross = set(map(tuple, hyperbolic_cross(n, params).tolist()))
    worst = 0.0
    for _ in range(samples):
        f = random_mixed_poly(rng, params.d, max_shell=int(n) + 2)
        per_block = []
        for s, comp in blocks_of(f).items():
            l2, l4 = lp_norm(comp, 2.0), math.sqrt(lp_norm(comp * comp, 2.0))
            lo, hi = lp_bounds(q, l2, l4, sum(np.abs(comp.C).tolist()))
            per_block.append((s in cross, lo, hi))
        total = sum(hi if inside else lo for inside, lo, hi in per_block)
        if total == 0.0:
            continue
        kept = sum(hi for inside, _, hi in per_block if inside)
        worst = max(worst, kept / total)
    return worst


# the probe's q = 2 outputs before its block norms came from even moments,
# when every block norm was lp_norm(comp, 2), at samples = 40
PROBE_Q2 = {(1, 5, 2): 0.7567425468751737, (2, 4, 0): 0.4686268346227361,
            (2, 6.5, 3): 0.8224380147233539, (3, 5, 11): 0.4844266062517921,
            (2, 8, 7): 0.8963468718350104}


class TestProjectorProbeReference:
    @pytest.mark.parametrize("d,n", [(2, 4), (2, 6), (3, 4.5)])
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("samples", [1, 7, 200])
    def test_equals_the_per_sample_loop(self, d, n, q, samples):
        params = SmoothParams((1.0,) * d)
        for seed in (3,) if samples == 200 else (0, 5, 11):
            assert projector_norm_probe(n, params, q, samples, rng_seed=seed) == (
                reference_projector_norm_probe(n, params, q, samples, rng_seed=seed))

    @pytest.mark.parametrize("d,n,seed", list(PROBE_Q2), ids=str)
    def test_q2_outputs_are_the_parseval_ratios(self, d, n, seed):
        got = projector_norm_probe(n, SmoothParams((1.0,) * d), 2.0, 40, rng_seed=seed)
        assert got == PROBE_Q2[d, n, seed]

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_reduces_no_grid(self, monkeypatch, q):
        calls = []
        grid_stats = norms._grid_stats
        monkeypatch.setattr(norms, "_grid_stats", lambda fs, p, dims, real: calls.append(dims)
                            or grid_stats(fs, p, dims, real))
        assert projector_norm_probe(5, SmoothParams((1.0, 1.0)), q, 20, rng_seed=2) > 0
        assert calls == []

    def test_wide_boxes_take_the_lexsort_path(self, monkeypatch):
        # at n = 40 and d = 3 the blocks reach (s,1) = 42, so the (run,
        # frequency) box of a chunk of squares has no int64 keys
        params = SmoothParams((1.0, 1.0, 1.0))
        sort_runs, rows = sparse.sort_runs, []
        monkeypatch.setattr(sparse, "sort_runs", lambda keys: rows.append(keys.ndim == 2)
                            or sort_runs(keys))
        got = [projector_norm_probe(40, params, q, 2, rng_seed=seed)
               for q in (1.5, 3.0) for seed in (1, 2, 3)]
        assert rows and all(rows)
        monkeypatch.undo()
        assert got == [reference_projector_norm_probe(40, params, q, 2, rng_seed=seed)
                       for q in (1.5, 3.0) for seed in (1, 2, 3)]
        assert min(got) < 1


def sample_polys_by_block(draws):
    """Each draw's ``TrigPoly.from_arrays``, its terms stably sorted by
    block: (sample, K, C) per sample."""
    out = []
    for i, (K, C) in enumerate(draws):
        f = TrigPoly.from_arrays(K, C)
        order = sort_runs(mean_zero_block_indices(f.K))[0]
        out.append((i, f.K[order], f.C[order]))
    return out


class TestSampleTerms:
    def check(self, draws):
        keys, C = approx._sample_terms(draws)
        d = draws[0][0].shape[1]
        assert keys.dtype == np.int64 and keys.shape == (len(C), 2 * d + 1)
        for i, K, want in sample_polys_by_block(draws):
            rows = keys[:, 0] == i
            assert np.array_equal(keys[rows, d + 1:], K)
            assert C[rows].tobytes() == want.tobytes()  # bit for bit
            assert np.array_equal(keys[rows, 1:d + 1], mean_zero_block_indices(K))
        order = np.lexsort(keys.T[::-1])
        assert np.array_equal(order, np.arange(len(keys)))  # sorted by (sample, block, k)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_each_samples_poly(self, d):
        # a small max_shell with many terms per block repeats frequencies
        rng = np.random.default_rng(d)
        for max_shell, terms in ((d, 9), (d + 1, 7), (3 * d + 2, 3)):
            draws = [random_mixed_terms(rng, d, max_shell, terms_per_block=terms)
                     for _ in range(25)]
            assert any(len(TrigPoly.from_arrays(*dr).C) < len(dr[1]) for dr in draws)
            self.check(draws)

    def test_small_and_cancelled_coefficients_are_dropped(self):
        K = np.array([[3, 1], [1, 1], [3, 1], [-2, 5], [1, 1]])
        draws = [(K, np.array([0.5, 1e-31, -0.5, 2.0, 1e-40j])),  # (3, 1) cancels
                 (K[:2], np.array([DROP_TOL, DROP_TOL / 2], dtype=complex)),
                 (K[1:2], np.array([1e-35j]))]  # a sample that drops to zero
        keys, C = approx._sample_terms(draws)
        assert keys.tolist() == [[0, 2, 3, -2, 5], [1, 2, 1, 3, 1]]
        assert C.tolist() == [2.0, DROP_TOL]
        self.check(draws)

    @pytest.mark.parametrize("c", [math.inf, complex(1.0, math.nan)], ids=repr)
    def test_non_finite_coefficient_named(self, c):
        K = np.array([[5], [-3], [5]])
        draws = [(K[:1], np.array([1.0 + 0j])), (K, np.array([1.0, 2.0, c], dtype=complex))]
        with pytest.raises(ValueError, match="is not finite") as want:
            TrigPoly.from_arrays(*draws[1])
        with pytest.raises(ValueError, match="is not finite") as got:
            approx._sample_terms(draws)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_poly_is_the_raw_draw(self, d):
        for seed in range(6):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for kwargs in ({}, {"terms_per_block": 8, "max_component": 2}):
                f = random_mixed_poly(rng, d, d + 2, **kwargs)
                K, C = random_mixed_terms(ref, d, d + 2, **kwargs)
                g = TrigPoly.from_arrays(K, C)
                assert f == g and f.C.tobytes() == g.C.tobytes()
                assert K.dtype == np.int64 and len(K) == len(C)
                assert rng.bit_generator.state == ref.bit_generator.state


class TestRejectsEmptyRequests:
    @pytest.mark.parametrize("samples", [0, -3, True, 2.5, "3", None], ids=repr)
    def test_probe_samples(self, monkeypatch, samples):
        monkeypatch.setattr(approx, "random_mixed_terms", None)  # any draw raises TypeError
        with pytest.raises(ValueError, match="samples must be an integer >= 1"):
            projector_norm_probe(5, SmoothParams((1.0, 1.0)), 1.5, samples)

    @pytest.mark.parametrize("d,n", [(2, -1), (2, -1.5), (3, 0.9)])
    def test_probe_level_below_every_block(self, monkeypatch, d, n):
        monkeypatch.setattr(approx, "random_mixed_terms", None)
        with pytest.raises(ValueError, match=r"int\(n\) \+ 2 = .* hold no block"):
            projector_norm_probe(n, SmoothParams((1.0,) * d), 1.5, 5)

    @pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan], ids=repr)
    def test_probe_level_not_finite(self, monkeypatch, n):
        monkeypatch.setattr(approx, "random_mixed_terms", None)
        with pytest.raises(ValueError, match="cross level n must be finite"):
            projector_norm_probe(n, SmoothParams((1.0, 1.0)), 1.5, 5)

    @pytest.mark.parametrize("kwargs,condition", [
        ({"d": 2, "max_shell": 1}, "max_shell must be an integer >= 2"),
        ({"d": 3, "max_shell": 2}, "max_shell must be an integer >= 3"),
        ({"d": 2, "max_shell": 6.0}, "max_shell must be an integer"),
        ({"d": 0, "max_shell": 4}, "d must be an integer >= 1"),
        ({"d": True, "max_shell": 4}, "d must be an integer >= 1"),
        ({"d": 2, "max_shell": 6, "blocks_per_poly": 0}, "blocks_per_poly must be an integer >= 1"),
        ({"d": 2, "max_shell": 6, "terms_per_block": -1},
         "terms_per_block must be an integer >= 1"),
        ({"d": 2, "max_shell": 6, "max_component": 0},
         "max_component must be None or an integer >= 1"),
        ({"d": 1, "max_shell": 0}, "max_shell must be an integer >= 1"),
        ({"d": 2, "max_shell": 6, "terms_per_block": 0},
         "terms_per_block must be an integer >= 1"),
    ])
    def test_sampler_that_can_only_draw_zero(self, kwargs, condition):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=condition):
            random_mixed_poly(rng, **kwargs)
        assert rng.bit_generator.state == state  # nothing drawn

    def test_sampler_at_the_smallest_valid_request(self):
        f = random_mixed_poly(np.random.default_rng(1), 2, 2, blocks_per_poly=1, terms_per_block=1,
                              max_component=1)
        assert f.nnz == 1 and np.all(np.abs(f.K) == 1)


def reference_random_mixed_poly(rng, d, max_shell, max_component=None):
    """The sampler with its candidate blocks listed afresh on every call."""
    S = compositions(max_shell + 1, d + 1)[:, :d]
    S = S[np.argsort(S.sum(axis=1), kind="stable")]
    if max_component is not None:
        S = S[S.max(axis=1) <= max_component]
    s = np.repeat(S[rng.choice(len(S), size=min(6, len(S)), replace=False)], 3, axis=0)
    mag = rng.integers(2 ** (s - 1), 2**s)
    K = np.where(rng.random(s.shape) < 0.5, mag, -mag)
    z = rng.standard_normal((len(K), 2))
    return TrigPoly.from_arrays(K, z[:, 0] + 1j * z[:, 1])


class TestRandomSampler:
    def test_respects_caps(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = random_mixed_poly(rng, 2, max_shell=6, max_component=4)
            for k in f.coeffs:
                s = tuple(abs(x).bit_length() for x in k)
                assert sum(s) <= 6 and max(s) <= 4

    def test_mean_zero(self):
        rng = np.random.default_rng(5)
        assert all(random_mixed_poly(rng, d, max_shell=d + 3).is_mean_zero()
                   for d in (1, 2, 3))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("max_component", [None, 3])
    def test_draws_as_the_loop_over_fresh_candidates(self, d, max_component):
        for seed in range(8):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):  # the later draws take the memoized candidates
                assert random_mixed_poly(rng, d, 3 * d + 2, max_component=max_component) == (
                    reference_random_mixed_poly(ref, d, 3 * d + 2, max_component))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_terms_lie_in_the_distinct_drawn_blocks(self, d):
        S = approx._candidate_blocks(3 * d + 2, d, None)
        for seed in range(20):
            rows = np.random.default_rng(seed).choice(len(S), size=min(6, len(S)), replace=False)
            split = blocks_of(random_mixed_poly(np.random.default_rng(seed), d, 3 * d + 2))
            assert sorted(split) == sorted(map(tuple, S[rows].tolist()))
            assert all(1 <= g.nnz <= 3 for g in split.values())

    def test_repeated_frequency_holds_the_sum_of_its_draws(self):
        # at d = 1 block 1 holds only k = 1 and -1, so five terms repeat one
        for seed in range(10):
            f = random_mixed_poly(np.random.default_rng(seed), 1, 1, blocks_per_poly=1,
                                  terms_per_block=5)
            rng = np.random.default_rng(seed)
            rng.choice(1, size=1, replace=False)
            rng.integers(np.ones((5, 1), dtype=np.int64))  # each magnitude is 1
            ks = np.where(rng.random((5, 1)) < 0.5, 1, -1)[:, 0].tolist()
            z = rng.standard_normal((5, 2))
            want = {}
            for k, c in zip(ks, (z[:, 0] + 1j * z[:, 1]).tolist()):
                want[k,] = want[k,] + c if (k,) in want else c
            assert dict(f.coeffs) == want
