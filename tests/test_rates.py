import math
import re

import numpy as np
import pytest

from stepcross import approx, blocks, rates
from stepcross.blocks import SmoothParams, hyperbolic_cross
from stepcross.extremal import dirichlet_shell, shell_extremal, shell_scale
from stepcross.norms import lp_norm
from stepcross.rates import (RateFit, SweepRow, block_profile, dirichlet_lq_mean, fit_rates,
                             gauss_legendre, local_log_powers, predicted_order, sweep_extremal,
                             theory_exponents, validate_hypotheses)


def freq_count(cross):
    """Oracle: the number of frequencies in the blocks of ``cross``."""
    return sum(2 ** sum(s) for s in cross.tolist())


def synthetic_rows(fn, ns):
    return [SweepRow(n=n, cardinality=0, error=fn(n)) for n in ns]


class TestFitRates:
    def test_pure_exponential_free_fit(self):
        rows = synthetic_rows(lambda n: 2.0 ** (-2 * n), range(5, 13))
        fit = fit_rates(rows, "free", 2.0, 0.0)
        assert fit.a_hat == pytest.approx(2.0, abs=1e-9)
        assert fit.b_hat == pytest.approx(0.0, abs=1e-9)
        assert fit.residual_rms < 1e-10

    def test_exponential_with_log_factor(self):
        rows = synthetic_rows(lambda n: 2.0**-n * n, range(8, 21))
        fit = fit_rates(rows, "free", 1.0, 1.0)
        assert fit.a_hat == pytest.approx(1.0, abs=1e-9)
        assert fit.b_hat == pytest.approx(1.0, abs=1e-9)
        assert fit.residual_rms < 1e-10

    def test_slope_fixed_recovers_log_power_and_intercept(self):
        rows = synthetic_rows(lambda n: 7.0 * 2.0 ** (-1.25 * n) * n, range(5, 12))
        fit = fit_rates(rows, "slope-fixed", 1.25, 1.0)
        assert fit.a_hat == 1.25
        assert fit.b_hat == pytest.approx(1.0, abs=1e-9)
        assert fit.c_hat == pytest.approx(math.log2(7.0), abs=1e-9)
        assert fit.residual_rms < 1e-10

    def test_slope_fixed_b_invariant_under_scaling(self):
        rows = synthetic_rows(lambda n: 2.0**-n * n**0.7, range(5, 12))
        scaled = [SweepRow(r.n, r.cardinality, 13.0 * r.error) for r in rows]
        f1 = fit_rates(rows, "slope-fixed", 1.0, 0.7)
        f2 = fit_rates(scaled, "slope-fixed", 1.0, 0.7)
        assert f1.b_hat == pytest.approx(f2.b_hat, abs=1e-12)
        assert f2.c_hat == pytest.approx(f1.c_hat + math.log2(13.0), abs=1e-9)

    def test_needs_four_rows(self):
        rows = synthetic_rows(lambda n: 2.0**-n, range(5, 8))
        with pytest.raises(ValueError):
            fit_rates(rows, "free", 1.0, 0.0)

    def test_rejects_nonpositive_errors(self):
        rows = synthetic_rows(lambda n: 0.0, range(5, 10))
        with pytest.raises(ValueError):
            fit_rates(rows, "free", 1.0, 0.0)

    def test_unknown_mode(self):
        rows = synthetic_rows(lambda n: 2.0**-n, range(5, 10))
        with pytest.raises(ValueError):
            fit_rates(rows, "both", 1.0, 0.0)


class TestTheoryExponents:
    def test_off_diagonal_instantiation(self):
        params = SmoothParams((1.5, 1.5))
        a, b = theory_exponents(2.0, 4.0, math.inf, params, "gamma")
        assert (a, b) == (pytest.approx(1.25), pytest.approx(1.0))
        a, b = theory_exponents(2.0, 4.0, 2.0, params, "gamma")
        assert b == pytest.approx(0.5)
        a, b = theory_exponents(2.0, 4.0, 1.0, params, "gamma")
        assert b == pytest.approx(0.0)

    def test_univariate_collapse(self):
        params = SmoothParams((1.5,))
        for theta in (1.0, 2.0, math.inf):
            _, b = theory_exponents(2.0, 4.0, theta, params, "gamma")
            assert b == 0.0

    def test_diagonal_gamma_uses_full_dimension(self):
        params = SmoothParams((1.0, 1.0))
        a, b = theory_exponents(2.5, 2.5, 2.0, params, "gamma")
        assert (a, b) == (pytest.approx(1.0), pytest.approx(0.5))

    def test_diagonal_gamma_prime_uses_minimal_count(self):
        params = SmoothParams((1.0, 2.0))
        _, b = theory_exponents(2.5, 2.5, 2.0, params, "gamma-prime")
        assert b == pytest.approx(0.0)
        _, b = theory_exponents(2.5, 2.5, 2.0, params, "gamma")
        assert b == pytest.approx(0.5)

    def test_under_smoothing_direction(self):
        params = SmoothParams((1.0, 1.0))
        a, _ = theory_exponents(4.0, 2.0, 1.0, params, "gamma-prime")
        assert a == pytest.approx(1.0)  # (1/p - 1/q)_+ = 0 here


class TestValidateHypotheses:
    def test_small_smoothness_rejected_off_diagonal(self):
        params = SmoothParams((0.2, 0.2))
        with pytest.raises(ValueError, match="1/p - 1/q"):
            validate_hypotheses(2.0, 4.0, 2.0, params, "gamma")

    def test_p_one_with_larger_q_rejected(self):
        params = SmoothParams((1.0, 1.0))
        with pytest.raises(ValueError, match="1 < p"):
            validate_hypotheses(1.0, 2.0, 2.0, params, "gamma")

    def test_gamma_prime_rejected_off_diagonal(self):
        params = SmoothParams((1.0, 2.0))
        with pytest.raises(ValueError, match="gamma"):
            validate_hypotheses(1.5, 3.0, 2.0, params, "gamma-prime")

    def test_diagonal_and_under_smoothing_accepted(self):
        params = SmoothParams((1.0, 1.0))
        validate_hypotheses(2.5, 2.5, 2.0, params, "gamma")
        validate_hypotheses(1.0, 1.0, 1.0, params, "gamma-prime")
        validate_hypotheses(math.inf, 1.0, 2.0, params, "gamma-prime")


class TestSweep:
    def test_errors_positive_and_decreasing(self):
        params = SmoothParams((1.5, 1.5))
        rows = sweep_extremal(2.0, 4.0, 2.0, params, "gamma", range(4, 9))
        errs = [r.error for r in rows]
        assert all(e > 0 for e in errs)
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert all(rows[i].cardinality < rows[i + 1].cardinality for i in range(len(rows) - 1))

    # at d = 1 the q = 1 levels run on the default grid (at d >= 2 they hit
    # the grid budget)
    def test_extreme_q_uses_certified_upper_bound(self):
        params = SmoothParams((1.0,))
        rows = sweep_extremal(1.0, 1.0, 2.0, params, "gamma", range(4, 8))
        for r in rows:
            member = shell_extremal(r.n, 1, 1.0, 1.0, 2.0)
            assert r.error == approx.best_approx_upper(member, r.n, params, "gamma", 1.0)

    # every q records the best-upper bound; at q = 2.5 it is the Fourier-sum
    # error.  The sweep reads its blocks and keys from ``cross_candidates``
    # alone: no cross builder is reachable from it
    @pytest.mark.parametrize("pq", [2.5, math.inf])
    def test_profile_path_builds_no_cross(self, pq):
        params = SmoothParams((1.0, 1.0))
        assert not hasattr(rates, "hyperbolic_cross")
        rows = sweep_extremal(pq, pq, 2.0, params, "gamma", range(4, 7))
        assert [r.n for r in rows] == [4, 5, 6]
        for r in rows:
            member = shell_extremal(r.n, 2, 1.0, pq, 2.0)
            assert r.cardinality == freq_count(hyperbolic_cross(r.n, params, "gamma"))
            # 1-D profiles against the polynomial's product grids: equal up to
            # rounding for q = inf, within the self-check tolerance for q = 2.5
            for want in (approx.best_approx_upper(member, r.n, params, "gamma", pq),
                         approx.fourier_sum_error(member, r.n, params, "gamma", pq)):
                assert r.error == pytest.approx(want, rel=1e-15 if pq == math.inf else 1e-6,
                                                abs=0)

    # the cardinality column reads the key of every block once; the cross
    # itself is the oracle, and at q = inf the error is the shell's term count
    # 2**n C(n-1, d-1) times the scale, in either gamma mode
    @pytest.mark.parametrize("r", [(1.0,), (1.0, 1.0), (1.5, 2.0), (1.0, 1.0, 1.0),
                                   (1.5, 2.0, 4.0), (1.0, 1.0, 2.0)], ids=str)
    @pytest.mark.parametrize("gamma_mode", ["gamma", "gamma-prime"])
    def test_cardinality_counts_the_cross(self, r, gamma_mode):
        params, d = SmoothParams(r), len(r)
        rows = sweep_extremal(math.inf, math.inf, 2.0, params, gamma_mode, range(d, 41))
        assert [row.n for row in rows] == list(range(d, 41))
        for row in rows:
            assert row.cardinality == freq_count(hyperbolic_cross(row.n, params, gamma_mode))
            want = (shell_scale(row.n, d, params.r1 + 1.0, 2.0) * 2.0**row.n
                    * math.comb(row.n - 1, d - 1))
            assert row.error == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("levels", [[5.5], [5.0], [True, 5], [5, "6"], [5, 6.0, 7]],
                             ids=str)
    def test_non_integer_level_rejected_before_any_level(self, monkeypatch, levels):
        def no_level(*args, **kwargs):
            raise AssertionError("a sweep level was computed")

        for name in ("cross_candidates", "block_profile"):
            monkeypatch.setattr(rates, name, no_level)
        bad = next(n for n in levels if not isinstance(n, int) or isinstance(n, bool))
        with pytest.raises(ValueError, match=re.escape(f"integers, got n={bad!r}")):
            sweep_extremal(math.inf, math.inf, 2.0, SmoothParams((1.0, 1.0)), "gamma", levels)

    # the sweep lists its blocks once, reads every level from that array and
    # computes each 1-D profile once; it lists no shell of its own
    def test_one_block_array_per_sweep(self, monkeypatch):
        calls = []
        for module, name in ((rates, "cross_candidates"), (rates, "block_profile"),
                             (blocks, "compositions")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name:
                                calls.append((name, a[:2])) or real(*a))
        assert not hasattr(rates, "compositions")
        params = SmoothParams((1.0, 1.0))
        rows = sweep_extremal(2.5, 2.5, 2.0, params, "gamma", range(4, 8))
        assert calls == ([("cross_candidates", (8, 2)), ("compositions", (8, 3))]
                         + [("block_profile", (2.5, s)) for s in range(1, 7)])
        for row in rows:
            assert row.cardinality == freq_count(hyperbolic_cross(row.n, params, "gamma"))

    # a q = 1 level measures its member once: the member's smooth aggregate
    # and its Fourier sum are both empty, so the two remainders are one
    def test_q1_level_measures_its_member_once(self, monkeypatch):
        measured = []
        bq1_norm = approx.bq1_norm
        monkeypatch.setattr(approx, "bq1_norm",
                            lambda f, *a: measured.append(f) or bq1_norm(f, *a))
        params = SmoothParams((1.0,))
        rows = sweep_extremal(1.0, 1.0, 2.0, params, "gamma", range(5, 12))
        assert len(measured) == 7
        for row, f in zip(rows, measured):
            assert f == shell_extremal(row.n, 1, 1.0, 1.0, 2.0)

    def test_hypothesis_violation_bubbles_up(self):
        params = SmoothParams((0.1, 0.1))
        with pytest.raises(ValueError, match="1/p - 1/q"):
            sweep_extremal(2.0, 4.0, 2.0, params, "gamma", range(4, 9))


def polynomial_rows(p, q, theta, params, gamma_mode, ns):
    """The polynomial path: build the shell member, project it on the cross
    and measure the remainder block by block."""
    rows = []
    for n in ns:
        member = shell_extremal(n, params.d, params.r1, p, theta)
        cross = hyperbolic_cross(n, params, gamma_mode)
        rows.append((n, freq_count(cross),
                     approx.best_approx_upper(member, n, params, gamma_mode, q)))
    return rows


class TestProfilePath:
    @pytest.mark.parametrize("s", range(1, 11))
    def test_closed_forms_match_lp_norm(self, s):
        block = dirichlet_shell(s, 1)  # the shell (s,1) = s at d = 1 is the block D_s
        assert block_profile(2.0, s) == pytest.approx(2.0 ** (s / 2), rel=1e-12, abs=0)
        assert block_profile(2.0, s) == pytest.approx(lp_norm(block, 2.0), rel=1e-12, abs=0)
        assert block_profile(4.0, s) ** 4 == pytest.approx(2 ** (3 * s - 1) + 2**s,
                                                           rel=1e-12, abs=0)
        assert block_profile(4.0, s) == pytest.approx(lp_norm(block, 4.0), rel=1e-12, abs=0)
        # unit coefficients: the value at x = 0, the term count, is the sup
        assert block_profile(math.inf, s) == 2.0**s == block.nnz
        assert block_profile(math.inf, s) == pytest.approx(lp_norm(block, math.inf),
                                                           rel=1e-12, abs=0)

    # the panel rule itself, at the exponents whose closed forms block_profile returns
    @pytest.mark.parametrize("s", range(1, 21))
    def test_panels_match_closed_forms(self, s):
        assert dirichlet_lq_mean(2.0, s) == pytest.approx(2.0**s, rel=1e-13, abs=0)
        assert dirichlet_lq_mean(4.0, s) == pytest.approx(2.0 ** (3 * s - 1) + 2.0**s,
                                                          rel=1e-13, abs=0)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.5, 3.0, 7.5])
    def test_32_nodes_match_64(self, monkeypatch, q):
        got = [dirichlet_lq_mean(q, s) for s in range(1, 13)]
        monkeypatch.setattr(rates, "GL_NODES", 64)
        want = [dirichlet_lq_mean(q, s) for s in range(1, 13)]
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    # phi_q(s)**q / 2**(s(q-1)) tends to c_q; c_2.5 was integrated on the
    # real line, from the limit kernel 2 (sin y - sin(y/2)) / y
    def test_scaling_limit(self):
        assert block_profile(2.5, 18) ** 2.5 / 2**27 == pytest.approx(0.7811018557,
                                                                        rel=0, abs=1e-8)

    # the self-checked quadrature of D_s, the profile's oracle, stops when one
    # doubling moves it by at most CHECK_RTOL; its error at s <= 10 peaks at
    # s = 3 (q = 1), 4 (q = 1.5), 5 (q = 2.5, 3) and 3 (q = 7.5)
    @pytest.mark.parametrize(("q", "gap"), [(1.0, 1.6e-6), (1.5, 2.4e-6), (2.5, 3.4e-7),
                                            (3.0, 9e-8), (7.5, 6e-11)])
    def test_lp_norm_oracle_within_measured_gap(self, q, gap):
        for s in range(1, 11):
            assert block_profile(q, s) == pytest.approx(lp_norm(dirichlet_shell(s, 1), q),
                                                        rel=gap, abs=0)

    @pytest.mark.parametrize(("q", "s", "match"), [
        (2.0, 0, "s must be"), (math.inf, -2, "s must be"), (4.0, 2.5, "s must be"),
        (2.0, True, "s must be"), (2.5, 0, "s must be"), (2.5, "3", "s must be"),
        (0.5, 3, "q must be"), (math.nan, 3, "q must be"), (True, 3, "q must be"),
        ("2.5", 3, "q must be")])
    def test_invalid_arguments_named(self, monkeypatch, q, s, match):
        def no_work(*args):
            raise AssertionError("a profile was integrated")

        monkeypatch.setattr(rates, "dirichlet_lq_mean", no_work)
        with pytest.raises(ValueError, match=match):
            block_profile(q, s)

    def test_accepts_numpy_integers(self):
        assert block_profile(2.5, np.int64(6)) == block_profile(2.5, 6)

    def test_gauss_legendre_rule(self):
        u, w = gauss_legendre(32)
        assert np.all(np.diff(u) > 0) and 0 < u[0] and u[-1] < 1
        assert np.all(w > 0) and not u.flags.writeable and not w.flags.writeable
        # exact on every polynomial of degree < 64
        for m in range(64):
            assert w @ u**m == pytest.approx(1 / (m + 1), rel=1e-14, abs=0)

    def test_no_linalg_or_unique(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg or np.unique was called")

        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, forbidden)
        monkeypatch.setattr(np, "unique", forbidden)
        monkeypatch.setattr(rates, "GL_NODES", 24)  # a rule not yet cached
        assert dirichlet_lq_mean(2.0, 7) == pytest.approx(2.0**7, rel=1e-13, abs=0)

    @pytest.mark.parametrize(("p", "q", "theta", "r", "gamma_mode", "rtol"), [
        (2.0, 4.0, 2.0, (1.5,), "gamma", 1e-12),
        (4.0, 2.0, math.inf, (1.0,), "gamma", 1e-12),
        (2.0, 4.0, 1.0, (1.5, 1.5), "gamma", 1e-12),
        (4.0, 2.0, 2.0, (1.0, 1.0), "gamma", 1e-12),
        (2.0, 2.0, 2.0, (1.0, 2.0), "gamma-prime", 1e-12),
        (math.inf, 4.0, 2.0, (1.0, 2.0), "gamma-prime", 1e-12),
        (2.0, 4.0, math.inf, (1.5, 1.5, 1.5), "gamma", 1e-12),
        (4.0, 2.0, 1.0, (1.0, 1.0, 2.0), "gamma-prime", 1e-12),
        (2.5, 2.5, 2.0, (1.0,), "gamma", 1e-6),
        (2.5, 2.5, 2.0, (1.0, 1.0), "gamma", 1e-6),
        (2.5, 2.5, math.inf, (1.0, 2.0), "gamma-prime", 1e-6),
        (math.inf, math.inf, 2.0, (1.0,), "gamma", 1e-15),
        (math.inf, math.inf, math.inf, (1.0, 1.0), "gamma", 1e-15),
        (math.inf, math.inf, 2.0, (1.0, 2.0), "gamma-prime", 1e-15),
        (math.inf, math.inf, 1.0, (1.0, 2.0), "gamma", 1e-15),
        (math.inf, math.inf, 2.0, (1.0, 1.0, 1.0), "gamma", 1e-15),
    ])
    def test_matches_polynomial_path(self, p, q, theta, r, gamma_mode, rtol):
        params = SmoothParams(r)
        ns = range(max(params.d, 2), 10)
        rows = sweep_extremal(p, q, theta, params, gamma_mode, ns)
        for row, (n, card, want) in zip(rows, polynomial_rows(p, q, theta, params,
                                                              gamma_mode, ns), strict=True):
            assert (row.n, row.cardinality) == (n, card)
            assert row.error == pytest.approx(want, rel=rtol, abs=0)

    @pytest.mark.parametrize("q", [2.5, math.inf])
    def test_builds_no_polynomial_and_each_profile_once(self, monkeypatch, q):
        def no_member(*args, **kwargs):
            raise AssertionError("the shell member was built")

        computed = []

        def counting(q, s):
            computed.append(s)
            return block_profile(q, s)

        monkeypatch.setattr(rates, "shell_extremal", no_member)
        monkeypatch.setattr(rates, "best_approx_upper", no_member)
        monkeypatch.setattr(rates, "block_profile", counting)
        rows = sweep_extremal(q, q, 2.0, SmoothParams((1.0, 1.0)), "gamma", range(4, 8))
        assert computed == [1, 2, 3, 4, 5, 6]
        assert all(r.error > 0 for r in rows)

    # the error is the shell's term count 2**n C(n-1, d-1) times the scale
    @pytest.mark.parametrize("d", [2, 3])
    def test_sup_error_closed_form(self, d):
        rows = sweep_extremal(math.inf, math.inf, 2.0, SmoothParams((1.0,) * d), "gamma",
                              range(d, 41))
        for r in rows:
            want = shell_scale(r.n, d, 2.0, 2.0) * 2.0**r.n * math.comb(r.n - 1, d - 1)
            assert r.error == pytest.approx(want, rel=1e-15, abs=0)

    # the joint doubling of the product grid hits the point budget in these
    # sweeps (at n = 6 and n = 9) although every 1-D factor converges
    @pytest.mark.parametrize(("d", "p", "q", "ns"), [(3, 1.5, 3.0, range(5, 10)),
                                                     (2, 1.5, 1.5, range(5, 11))])
    def test_sweeps_past_the_joint_grid_budget(self, d, p, q, ns):
        rows = sweep_extremal(p, q, 2.0, SmoothParams((1.0,) * d), "gamma", ns)
        assert [r.n for r in rows] == list(ns)
        assert all(math.isfinite(r.error) and r.error > 0 for r in rows)

    @pytest.mark.parametrize("q", [2.5, math.inf])
    def test_level_below_dimension_rejected_before_any_level(self, monkeypatch, q):
        def no_level(*args, **kwargs):
            raise AssertionError("a sweep level was computed")

        for name in ("cross_candidates", "block_profile"):
            monkeypatch.setattr(rates, name, no_level)
        with pytest.raises(ValueError, match="n >= d"):
            sweep_extremal(q, q, 2.0, SmoothParams((1.0, 1.0, 1.0)), "gamma", range(4, 1, -1))

    @pytest.mark.parametrize("q", [2.5, math.inf])
    def test_level_above_cap_rejected_before_any_level(self, monkeypatch, q):
        def no_level(*args, **kwargs):
            raise AssertionError("a sweep level was computed")

        for name in ("cross_candidates", "block_profile"):
            monkeypatch.setattr(rates, name, no_level)
        with pytest.raises(ValueError, match="n=41 exceeds cap 40"):
            sweep_extremal(q, q, 2.0, SmoothParams((1.0, 1.0)), "gamma", range(5, 42))


def test_local_log_powers():
    rows = synthetic_rows(lambda n: 3.0 * 2.0 ** (-1.25 * n) * n**0.7, range(5, 10))
    out = local_log_powers(rows, 1.25)
    assert [n for n, _ in out] == [6, 7, 8, 9]
    assert all(b == pytest.approx(0.7, abs=1e-9) for _, b in out)


def test_predicted_order():
    assert predicted_order(8, 1.0, 0.0) == pytest.approx(2.0**-8)
    assert predicted_order(8, 1.25, 1.0) == pytest.approx(2.0**-10 * 8)
