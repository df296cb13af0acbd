import itertools
import math

import numpy as np
import pytest

from stepcross.blocks import SmoothParams, block_anchor, block_ranges, compositions, even_shell
from stepcross.extremal import dirichlet_shell, shell_extremal, shell_scale, shifted_rect_sample
from stepcross.norms import besov_mixed_norm, bq1_norm, lp_norm
from stepcross.poly import GridSpec, TrigPoly, eval_grid, project_cross, resolve_grid_dims


def shell_term_count(n, d):
    """Frequencies in the blocks with (s,1) = n: 2**n * C(n-1, d-1)."""
    return 2**n * math.comb(n - 1, d - 1) if n >= d else 0


def shifted_rect_oracle(n, d, rng):
    """The random-sign member built one frequency and one draw at a time."""
    coeffs = {}
    for s in even_shell(n, d):
        anchor = block_anchor(s)
        rect = {m: float(rng.choice((-1.0, 1.0)))
                for m in itertools.product(*[range(-2 ** (sj - 2), 2 ** (sj - 2) + 1)
                                             for sj in s])}
        factor = TrigPoly(d, rect)
        peak = lp_norm(factor, math.inf, GridSpec(oversampling=8.0))
        for m, c in rect.items():
            coeffs[tuple(a + x for a, x in zip(anchor, m))] = c / peak
    return TrigPoly(d, coeffs)


def shifted_rect_loop(n, d, mode, rng):
    """The member built block by block, with the rectangle rebuilt and the
    whole member sorted on every call."""
    K, C = [], []
    for s in even_shell(n, d):
        anchor = np.array(block_anchor(s), dtype=np.int64)
        if mode == "constant":
            K.append(anchor[None, :])
            C.append(np.ones(1))
            continue
        rect = np.array(list(itertools.product(*[range(-2 ** (sj - 2), 2 ** (sj - 2) + 1)
                                                 for sj in s])), dtype=np.int64)
        factor = TrigPoly.from_arrays(rect, rng.choice((-1.0, 1.0), size=len(rect)))
        peak = lp_norm(factor, math.inf, GridSpec(oversampling=8.0))
        K.append(anchor + factor.K)
        C.append(factor.C.real / peak)
    if not K:
        return TrigPoly.zero(d)
    return TrigPoly.from_arrays(np.concatenate(K), np.concatenate(C))


class TestDirichletShell:
    def test_d1_block(self):
        f = dirichlet_shell(3, 1)
        assert f.nnz == 8
        assert set(f.coeffs) == {(k,) for k in list(range(-7, -3)) + list(range(4, 8))}

    def test_d2_count(self):
        f = dirichlet_shell(3, 2)
        assert f.nnz == 16 == shell_term_count(3, 2)

    @pytest.mark.parametrize("d,n", [(1, 6), (2, 6), (2, 9), (3, 7)])
    def test_term_count_formula(self, d, n):
        assert dirichlet_shell(n, d).nnz == 2**n * math.comb(n - 1, d - 1)

    def test_empty_below_dimension(self):
        assert dirichlet_shell(2, 3).is_zero()

    def test_l2_norm(self):
        for d, n in ((1, 5), (2, 6), (3, 6)):
            f = dirichlet_shell(n, d)
            assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(shell_term_count(n, d)), rel=1e-13)

    @pytest.mark.parametrize("d,n", [(1, 8), (2, 8), (3, 9)])
    def test_spectrum_is_exactly_the_shell(self, d, n):
        want = set()
        for s in compositions(n, d):
            want |= set(itertools.product(*block_ranges(s)))
        assert set(dirichlet_shell(n, d).coeffs) == want

    def test_unit_coefficients(self):
        f = dirichlet_shell(5, 2)
        assert all(c == 1.0 for c in f.coeffs.values())


class TestShellExtremal:
    def test_scaling_formula(self):
        g = shell_extremal(5, 2, 1.5, 2.0, 2.0)
        dn = dirichlet_shell(5, 2)
        want = 2.0 ** (-5 * (1.5 + 0.5)) * 5 ** (-0.5)
        k = next(iter(g.coeffs))
        assert g.coeffs[k] == pytest.approx(want * dn.coeffs[k], rel=1e-14)

    def test_theta_inf_drops_log_factor(self):
        g1 = shell_extremal(5, 2, 1.0, 2.0, math.inf)
        k = next(iter(g1.coeffs))
        assert g1.coeffs[k] == pytest.approx(2.0 ** (-5 * 1.5), rel=1e-14)

    def test_projection_annihilates(self):
        params = SmoothParams((1.5, 1.5))
        for n in (4, 6):
            g = shell_extremal(n, 2, 1.5, 2.0, 2.0)
            assert project_cross(g, n, params, "gamma").is_zero()
            assert project_cross(g, n, params, "gamma-prime").is_zero()

    def test_class_norm_band_over_n(self):
        # the scaling keeps the class norm in an n-independent band
        params = SmoothParams((1.5, 1.5))
        for theta in (1.0, 2.0, math.inf):
            vals = []
            for n in range(4, 10):
                g = shell_extremal(n, 2, 1.5, 2.0, theta)
                vals.append(besov_mixed_norm(g, params, 2.0, theta, "sharp"))
            assert max(vals) / min(vals) < 2.0

    def test_target_rate_band(self):
        # block-sum norm of g against its predicted order, q > p case
        r1, p, q, theta, d = 1.5, 2.0, 4.0, 2.0, 2
        vals = []
        for n in range(4, 10):
            g = shell_extremal(n, d, r1, p, theta)
            target = 2.0 ** (-n * (r1 - 1 / p + 1 / q)) * n ** ((d - 1) * (1 - 1 / theta))
            vals.append(bq1_norm(g, q, "sharp") / target)
        assert max(vals) / min(vals) < 2.0

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="n >= d"):
            shell_extremal(1, 2, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="r1"):
            shell_extremal(4, 2, -1.0, 2.0, 1.0)

    @pytest.mark.parametrize("p,theta,named", [
        (0.0, 1.0, "p must"), (0.5, 1.0, "p must"), (math.nan, 1.0, "p must"),
        (2.0, 0.0, "theta must"), (2.0, -1.0, "theta must"), (2.0, math.nan, "theta must")])
    def test_rejects_exponents_before_building(self, monkeypatch, p, theta, named):
        def no_shell(*args):
            raise AssertionError("the shell was built")

        monkeypatch.setattr("stepcross.extremal.dirichlet_shell", no_shell)
        with pytest.raises(ValueError, match=named):
            shell_extremal(5, 2, 1.0, p, theta)


class TestShiftedRectFamily:
    def test_d2_n4_constant(self):
        t = shifted_rect_sample(4, 2, "constant")
        assert t == TrigPoly(2, {(3, 3): 1.0})

    def test_constant_l2_squared_counts_shell(self):
        for n in (6, 8, 10):
            t = shifted_rect_sample(n, 2, "constant")
            assert lp_norm(t, 2.0) ** 2 == pytest.approx(len(even_shell(n, 2)), rel=1e-12)

    def test_odd_level_rejected(self):
        with pytest.raises(ValueError):
            shifted_rect_sample(5, 2)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            shifted_rect_sample(4, 2, "other")

    @pytest.mark.parametrize("n,d,seed", [(4, 1, 0), (8, 1, 1), (6, 2, 2), (8, 2, 3),
                                          (6, 3, 4), (8, 3, 5)])
    def test_random_sign_matches_per_draw_oracle(self, n, d, seed):
        # one vector draw per block takes the same stream as one draw per
        # frequency and leaves the generator in the same state
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert shifted_rect_sample(n, d, "random-sign", rng) == shifted_rect_oracle(n, d, ref)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("mode", ["constant", "random-sign"])
    @pytest.mark.parametrize("d,n", [(2, 4), (2, 6), (2, 8), (2, 10), (2, 12),
                                     (3, 4), (3, 6), (3, 8), (3, 10), (3, 12)])
    def test_equals_the_block_loop_bit_for_bit(self, d, n, mode):
        # levels in turn, so each is built afresh, then members of a level
        # already built; the d = 3, n = 4 shell is empty.  The sample draws
        # every factor's signs before one norm call takes all their sups.
        for seed in (0, 7, 2024):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for m in (n, n - 2, n, n) if n > 4 else (n, n):
                t, want = shifted_rect_sample(m, d, mode, rng), shifted_rect_loop(m, d, mode, ref)
                assert t.d == want.d and t.nnz == want.nnz
                assert t.K.tobytes() == want.K.tobytes() and t.C.tobytes() == want.C.tobytes()
                assert rng.bit_generator.state == ref.bit_generator.state

    def test_members_of_a_level_share_their_frequencies(self):
        rng = np.random.default_rng(4)
        a, b = (shifted_rect_sample(8, 2, "random-sign", rng) for _ in range(2))
        assert np.shares_memory(a.K, b.K) and not np.array_equal(a.C, b.C)
        assert shifted_rect_sample(8, 2, "constant") is shifted_rect_sample(8, 2, "constant")

    def test_random_sign_factor_sup_normalized(self):
        # reconstruct one factor and check its oversampled grid max is 1
        rng = np.random.default_rng(9)
        t = shifted_rect_sample(8, 2, "random-sign", rng)
        s = (2, 6)
        anchor = block_anchor(s)
        half = [2 ** (x - 2) for x in s]
        factor = TrigPoly(2, {tuple(k - a for k, a in zip(key, anchor)): c
                              for key, c in t.coeffs.items()
                              if all(abs(k - a) <= h for k, a, h in zip(key, anchor, half))})
        peak = float(np.max(np.abs(eval_grid(factor, resolve_grid_dims(
            factor, GridSpec(oversampling=8.0))))))
        assert peak == pytest.approx(1.0, rel=1e-12)

    def test_random_sign_deterministic_given_seed(self):
        a = shifted_rect_sample(6, 2, "random-sign", 123)
        b = shifted_rect_sample(6, 2, "random-sign", 123)
        assert a == b

    def test_block_sum_chain_constant_mode(self):
        # each filtered piece is a single exponential, so the block-sum norm
        # telescopes to exactly the shell size (= squared L2 norm)
        for n in (6, 8, 10):
            t = shifted_rect_sample(n, 2, "constant")
            l2sq = lp_norm(t, 2.0) ** 2
            b11 = bq1_norm(t, 1.0, "smooth")
            assert b11 == pytest.approx(l2sq, rel=1e-10)

    def test_scaled_member_class_norm_bounded(self):
        params = SmoothParams((1.0, 1.0))
        rng = np.random.default_rng(11)
        for theta in (1.0, math.inf):
            vals = []
            for n in (6, 8, 10):
                t = shifted_rect_sample(n, 2, "random-sign", rng)
                f = shell_scale(n, 2, 1.0, theta) * t
                vals.append(besov_mixed_norm(f, params, math.inf, theta, "smooth"))
            assert max(vals) / min(vals) < 2.0

    # the class scale of the family is shell_scale(n, d, r1, theta)
    @pytest.mark.parametrize("theta", [0.0, 0.5, -1.0, math.nan])
    def test_class_scale_rejects_theta(self, theta):
        with pytest.raises(ValueError, match="theta must be a real number >= 1"):
            shell_scale(6, 2, 1.0, theta)

    def test_class_scale_values(self):
        assert shell_scale(6, 2, 1.0, math.inf) == pytest.approx(2.0**-6)
        assert shell_scale(6, 2, 1.0, 1.0) == pytest.approx(2.0**-6 / 6)
