import hashlib
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepcross.blocks import (GAMMA_MODES, SmoothParams, block_anchor,
                              block_indices, block_ranges, compositions, cross_level, even_shell,
                              hyperbolic_cross, weighted_tail_sums, write_blocks)
from stepcross.poly import TrigPoly, project_cross


def block_freqs(s):
    """Every frequency of dyadic block s."""
    return set(itertools.product(*block_ranges(s)))


def composition_tuples(total, parts):
    """Oracle: the compositions as tuples, from the bars between the parts."""
    for bars in itertools.combinations(range(1, total), parts - 1):
        yield tuple(b - a for a, b in zip((0,) + bars, bars + (total,)))


def dot(s, g):
    """(s, g) added left to right from 0.0."""
    acc = 0.0
    for c, x in zip(s, g):
        acc += c * x
    return acc


def rows(S):
    """The rows of the int64 array ``S`` as a tuple of int tuples."""
    return tuple(map(tuple, S.tolist()))


def freq_count(cross):
    """Oracle: the number of frequencies in the blocks of ``cross``."""
    return sum(2 ** sum(s) for s in rows(cross))


def least_tails(gamma):
    """The least remaining tail after each coordinate j, g_{j+1} + ... + g_d,
    added left to right from 0.0."""
    return [dot((1,) * (len(gamma) - j - 1), gamma[j + 1:]) for j in range(len(gamma))]


def recursive_cross(n, params, gamma_mode):
    """Oracle: the cross as a coordinate-by-coordinate recursion, which keeps
    s_j while the running sum plus the least remaining tail stays below n."""
    gamma = params.gamma_for(gamma_mode)
    tails = least_tails(gamma)
    d = params.d
    out = []

    def rec(coord, acc, partial):
        if coord == d:
            out.append(tuple(acc))
            return
        sj = 1
        while partial + gamma[coord] * sj + tails[coord] < n:
            rec(coord + 1, acc + [sj], partial + gamma[coord] * sj)
            sj += 1

    rec(0, [], 0.0)
    return tuple(out)


def outside_cross(s, gamma, tails, n):
    """Oracle: s lies outside the level-n cross when, at some coordinate, the
    recursion's running sum plus the least remaining tail reaches n."""
    partial = 0.0
    for sj, g, tail in zip(s, gamma, tails):
        partial = partial + g * sj
        if not partial + tail < n:
            return True
    return False


def exact_tail_sums(alpha, params, ls, mode):
    """Oracle: the tail sums at 40 digits, as the sum of prod_j
    1 / (2**(alpha gamma_j) - 1) over all blocks minus the sum over the
    blocks of ``hyperbolic_cross``, each weight from the exact (s, gamma)."""
    gamma_mode = "gamma" if mode == "gamma-on-gamma" else "gamma-prime"
    with mpmath.workdps(40):
        a, g = mpmath.mpf(alpha), [mpmath.mpf(x) for x in params.gamma]
        total = mpmath.fprod(1 / (2 ** (a * x) - 1) for x in g)
        weights = {}
        out = []
        for l in ls:
            cross = hyperbolic_cross(l, params, gamma_mode)
            for s in set(rows(cross)) - weights.keys():
                weights[s] = 2 ** (-a * mpmath.fsum(sj * x for sj, x in zip(s, g)))
            out.append(total - mpmath.fsum(weights[s] for s in rows(cross)))
        return out


def assert_exact(alpha, params, ls, mode):
    """Each value of ``weighted_tail_sums`` lies within the docstring's
    (9 d + 1) 2**-53 of the 40-digit oracle, relatively."""
    got = weighted_tail_sums(alpha, params, ls, mode)
    bound = (9 * params.d + 1) * 2.0**-53
    for l, (value, _), want in zip(ls, got, exact_tail_sums(alpha, params, ls, mode)):
        assert abs(mpmath.mpf(value) - want) <= bound * want, (l, value, want)


class TestSmoothParams:
    def test_derived_vectors(self):
        p = SmoothParams((1.0, 2.0, 3.0))
        assert p.nu == 1
        assert p.gamma == (1.0, 2.0, 3.0)
        assert p.gamma_prime == (1.0, 1.5, 2.0)

    def test_all_minimal(self):
        p = SmoothParams((2.0, 2.0))
        assert p.nu == 2
        assert p.gamma == (1.0, 1.0)
        assert p.gamma_prime == (1.0, 1.0)

    def test_univariate(self):
        p = SmoothParams((1.5,))
        assert p.nu == 1 and p.gamma == (1.0,)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="ordering"):
            SmoothParams((2.0, 1.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="ordering"):
            SmoothParams((0.0, 1.0))

    @pytest.mark.parametrize("r", [(1.0, math.nan), (math.nan, 1.0), (1.0, math.inf),
                                   (math.inf,)], ids=str)
    def test_rejects_non_finite(self, r):
        with pytest.raises(ValueError, match=r"finite.*(nan|inf)"):
            SmoothParams(r)

    def test_custom_gamma_prime(self):
        p = SmoothParams((1.0, 4.0), gamma_prime=(1.0, 2.0))
        assert p.gamma_prime == (1.0, 2.0)

    def test_custom_gamma_prime_out_of_range(self):
        with pytest.raises(ValueError):
            SmoothParams((1.0, 2.0), gamma_prime=(1.0, 2.0))
        with pytest.raises(ValueError):
            SmoothParams((1.0, 2.0), gamma_prime=(1.5, 1.5))


class TestCompositions:
    @pytest.mark.parametrize("total,parts,rows", [
        (1, 1, [[1]]), (4, 1, [[4]]), (2, 2, [[1, 1]]),
        (5, 2, [[1, 4], [2, 3], [3, 2], [4, 1]]),
        (5, 3, [[1, 1, 3], [1, 2, 2], [1, 3, 1], [2, 1, 2], [2, 2, 1], [3, 1, 1]])])
    def test_examples(self, total, parts, rows):
        S = compositions(total, parts)
        assert S.dtype == np.int64 and S.tolist() == rows

    @pytest.mark.parametrize("total,parts", [(0, 1), (-3, 1), (1, 2), (2, 3), (-1, 4)])
    def test_no_rows_when_parts_exceed_total(self, total, parts):
        assert compositions(total, parts).shape == (0, parts)

    @pytest.mark.parametrize("parts", [0, -1])
    def test_rejects_no_parts(self, parts):
        with pytest.raises(ValueError, match="parts"):
            compositions(4, parts)

    def test_matches_tuples_in_lexicographic_order(self):
        for parts in (1, 2, 3, 4):
            for total in range(parts, 13):
                S = compositions(total, parts)
                assert list(map(tuple, S.tolist())) == list(composition_tuples(total, parts))
                assert len(S) == math.comb(total - 1, parts - 1)
                assert (S >= 1).all() and (S.sum(axis=1) == total).all()


class TestDyadicBlocks:
    def test_d1_first_block(self):
        assert block_freqs((1,)) == {(-1,), (1,)}

    def test_d2_unit_block(self):
        assert block_freqs((1, 1)) == {(a, b) for a in (-1, 1) for b in (-1, 1)}

    def test_d2_s21_enumeration(self):
        # exhaustive per-coordinate enumeration oracle
        want = {(a, b) for a in (-3, -2, 2, 3) for b in (-1, 1)}
        assert block_freqs((2, 1)) == want
        assert len(want) == 8

    @pytest.mark.parametrize("s", [(1,), (4,), (2, 3), (1, 1, 2), (3, 2, 1)])
    def test_cardinality(self, s):
        assert len(block_freqs(s)) == 2 ** sum(s)

    def test_cardinality_large_shells(self):
        # spot blocks on the (s,1) = 16 shell
        assert len(block_freqs((16,))) == 2**16
        assert len(block_freqs((8, 8))) == 2**16
        assert len(block_freqs((6, 5, 5))) == 2**16

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    def test_block_of_roundtrip(self, s):
        K = np.array(sorted(block_freqs(tuple(s))))
        assert (block_indices(K) == s).all()

    def test_blocks_disjoint_and_cover(self):
        # union over (s,1) <= L equals the mean-zero box predicate
        for d, L in ((1, 5), (2, 5), (3, 4)):
            union = set()
            for m in range(d, L + 1):
                for s in compositions(m, d):
                    blk = block_freqs(s)
                    assert not (union & blk)
                    union |= blk
            box = itertools.product(range(-(2**L) + 1, 2**L), repeat=d)
            want = {k for k in box
                    if all(kj != 0 for kj in k)
                    and sum(abs(kj).bit_length() for kj in k) <= L}
            assert union == want

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            block_ranges((0, 1))

    @pytest.mark.parametrize("s", [(1.5,), (2, 2.0), (True, 2), ("3",)])
    def test_rejects_non_integral_index(self, s):
        with pytest.raises(ValueError, match=r"block index components must be integers, got s="):
            block_ranges(s)

    def test_block_of_zero_component(self):
        # index 0 marks a coordinate in no block
        assert block_indices(np.array([[0, 3], [-1, 0]])).tolist() == [[0, 2], [1, 0]]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=20))
    def test_frexp_index_is_bit_length(self, ks):
        # plus the edges 2**j - 1 and 2**j of every block up to 2**40
        ks = ks + [sign * (2**j + off) for j in range(41) for off in (-1, 0)
                   for sign in (1, -1)]
        got = block_indices(np.array(ks)[:, None])[:, 0]
        assert got.tolist() == [abs(k).bit_length() for k in ks]


class TestHyperbolicCross:
    def test_d1_example(self):
        q = hyperbolic_cross(4, SmoothParams((1.0,)))
        assert q.dtype == np.int64 and rows(q) == ((1,), (2,), (3,))
        assert freq_count(q) == 2 + 4 + 8

    def test_d2_isotropic_example(self):
        q = hyperbolic_cross(4, SmoothParams((1.0, 1.0)))
        assert rows(q) == ((1, 1), (1, 2), (2, 1))  # lexicographic
        assert freq_count(q) == 20

    def test_d2_anisotropic_example(self):
        q = hyperbolic_cross(4, SmoothParams((1.0, 2.0)))
        assert rows(q) == ((1, 1),)
        assert freq_count(q) == 4

    def test_empty_cross_is_silent(self):
        q = hyperbolic_cross(1, SmoothParams((1.0, 1.0)))
        assert q.shape == (0, 2) and freq_count(q) == 0

    def test_monotone_in_n(self):
        params = SmoothParams((1.0, 1.5))
        for n in range(2, 10):
            small = set(rows(hyperbolic_cross(n, params)))
            big = set(rows(hyperbolic_cross(n + 1, params)))
            assert small <= big

    def test_gamma_modes(self):
        params = SmoothParams((1.0, 2.0))
        prime = hyperbolic_cross(4, params, "gamma-prime")
        gamma = hyperbolic_cross(4, params, "gamma")
        assert set(rows(gamma)) <= set(rows(prime))

    def test_level_cap(self):
        with pytest.raises(ValueError, match="cap"):
            hyperbolic_cross(41, SmoothParams((1.0,)))

    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_level(self, n):
        with pytest.raises(ValueError, match=f"finite, got n={n}"):
            hyperbolic_cross(n, SmoothParams((1.0, 1.0)))

    def test_prefix_rule_not_the_plain_sum(self):
        # (4,1,1) has (s, gamma') = 6.999999999999999 < 7, but its first
        # running sum plus the least tail is 4 + 7/6 + 11/6 = 7.0, not < 7
        params = SmoothParams((1.5, 2.0, 4.0))
        gp = params.gamma_prime
        assert dot((4, 1, 1), gp) < 7 and 4 + (gp[1] + gp[2]) == 7.0
        cross = hyperbolic_cross(7, params, "gamma-prime")
        assert (4, 1, 1) not in rows(cross) and (3, 1, 1) in rows(cross)

    @settings(max_examples=300, deadline=None)
    @given(r=st.lists(st.sampled_from((0.6, 1.0, 1.1, 1.3, 1.5, 1.7, 2.0, 2.2, 3.1, 4.0))
                      | st.floats(0.3, 4.0), min_size=1, max_size=3).map(sorted),
           gamma_mode=st.sampled_from(GAMMA_MODES),
           n=st.floats(-1.0, 14.0) | st.integers(0, 14) | st.sampled_from((3.5, 6.25, 7.0)))
    @example(r=[1.5, 2.0, 4.0], gamma_mode="gamma-prime", n=7.0)
    def test_matches_the_recursion(self, r, gamma_mode, n):
        params = SmoothParams(r)
        cross = hyperbolic_cross(n, params, gamma_mode)
        assert rows(cross) == recursive_cross(n, params, gamma_mode)

    @settings(max_examples=100, deadline=None)
    @given(r=st.lists(st.sampled_from((0.6, 1.0, 1.3, 1.5, 2.0, 3.1, 4.0)) | st.floats(0.3, 4.0),
                      min_size=1, max_size=3).map(sorted),
           gamma_mode=st.sampled_from(GAMMA_MODES), total=st.integers(1, 16))
    @example(r=[1.5, 2.0, 4.0], gamma_mode="gamma-prime", total=6)
    def test_key_is_the_recursions_rule(self, r, gamma_mode, total):
        # every block of the shells below ``total``: key < n decides as the
        # recursion does at each level n, and the key is never below (s,1),
        # which lets a caller enumerate a level-n cross from the shells below n
        params = SmoothParams(r)
        gamma = params.gamma_for(gamma_mode)
        tails = least_tails(gamma)
        S = compositions(total, params.d + 1)[:, :params.d]
        key = cross_level(S, gamma)
        assert key.shape == (len(S),) and (key >= S.sum(axis=1)).all()
        for n in range(1, total + 1):
            assert list(key < n) == [not outside_cross(s, gamma, tails, n) for s in S.tolist()]

    def test_cardinality_order_band(self):
        # the frequency count / (2^n n^(d-1)) stays in a narrow band
        for d in (2, 3):
            params = SmoothParams((1.0,) * d)
            ratios = []
            for n in range(8, 21):
                q = hyperbolic_cross(n, params)
                ratios.append(freq_count(q) / (2.0**n * n ** (d - 1)))
            assert max(ratios) / min(ratios) <= 4.0

    def test_contains_freq(self):
        # the cross holds a frequency iff the Fourier sum over it keeps it
        f = TrigPoly(2, {k: 1.0 for k in ((1, 1), (-3, 1), (8, 8), (0, 1))})
        assert set(project_cross(f, 4, SmoothParams((1.0, 1.0))).coeffs) == {(1, 1), (-3, 1)}


class TestEvenShell:
    def test_d2_examples(self):
        assert set(even_shell(6, 2)) == {(2, 4), (4, 2)}
        assert even_shell(4, 2) == ((2, 2),)

    def test_d3_singleton(self):
        assert even_shell(6, 3) == ((2, 2, 2),)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            even_shell(5, 2)

    def test_too_small_is_empty(self):
        assert even_shell(2, 2) == ()

    def test_components_even(self):
        for s in even_shell(12, 3):
            assert all(x % 2 == 0 and x >= 2 for x in s) and sum(s) == 12


class TestBlockAnchor:
    @pytest.mark.parametrize("s,want", [((2, 2), (3, 3)), ((4, 2), (12, 3)),
                                        ((3, 3, 3), (6, 6, 6))])
    def test_examples(self, s, want):
        assert block_anchor(s) == want

    def test_anchor_in_block(self):
        for s in ((2, 3), (4, 4), (5, 2, 3)):
            assert block_indices(np.array([block_anchor(s)])).tolist() == [list(s)]

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            block_anchor((1, 3))

    @pytest.mark.parametrize("s", [(2.7, 3), (3, 3.0), (True, 3), ("3", 3)])
    def test_rejects_non_integral_index(self, s):
        with pytest.raises(ValueError, match=r"block index components must be integers, got s="):
            block_anchor(s)


CRITERION_08_DIGEST = "891c9552ff3fe8884e5840ce5e439d2375f56ca0f663511f0e4c732824a685bc"


class TestWeightedTailSum:
    def test_d1_geometric(self):
        value, ratio = weighted_tail_sums(1.0, SmoothParams((1.0,)), [5])[0]
        assert value == pytest.approx(2.0**-5 * 2, rel=1e-11)
        assert ratio == pytest.approx(2.0, rel=1e-11)

    def test_d2_closed_form(self):
        # sum over m >= l of (m-1) 2^-m = 2^-l * 2l
        value, _ = weighted_tail_sums(1.0, SmoothParams((1.0, 1.0)), [6])[0]
        assert value == pytest.approx(2.0**-6 * 12, rel=1e-11)

    def test_brute_force_cross_check(self):
        # independent direct enumeration with a generous fixed cap
        params = SmoothParams((1.0, 2.0))
        alpha, l = 1.0, 8.0
        brute = 0.0
        for m in range(2, 90):
            for s in compositions(m, 2).tolist():
                if s[0] * 1.0 + s[1] * 2.0 >= l:
                    brute += 2.0 ** (-alpha * (s[0] + 2.0 * s[1]))
        value, _ = weighted_tail_sums(alpha, params, [l])[0]
        assert value == pytest.approx(brute, rel=1e-9)

    def test_gamma_prime_mode_ratio_stabilizes(self):
        params = SmoothParams((1.0, 2.0))
        out = weighted_tail_sums(1.0, params, range(8, 17), "gamma-prime-on-gamma")
        ratios = [r for _, r in out]
        assert max(ratios) / min(ratios) < 1.6

    def test_vector_matches_scalar(self):
        params = SmoothParams((1.0, 1.0, 2.0))
        ls = [6, 9, 12]
        vec = weighted_tail_sums(0.75, params, ls)
        for (v, r), l in zip(vec, ls):
            v1, r1 = weighted_tail_sums(0.75, params, [l])[0]
            assert v == pytest.approx(v1, rel=1e-12)
            assert r == pytest.approx(r1, rel=1e-12)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            weighted_tail_sums(0.0, SmoothParams((1.0,)), [5])

    @pytest.mark.parametrize("alpha,ls,named", [
        (math.nan, [10], "alpha=nan"), (math.inf, [10], "alpha=inf"), (-1.0, [10], "alpha=-1"),
        (1.0, [], "ls"), (1.0, [10, 0], "ls"), (1.0, [-2], "ls"), (1.0, [math.nan], "nan"),
        (1.0, [5, math.inf], "inf"), (1.0, [700], "n=700.0 exceeds cap 40"),
        (1.0, [10, 40.5], "n=40.5 exceeds cap 40"),
        # 2**(-alpha*l) leaves the normal floats where alpha * l > 1022
        (30.0, [30, 35], r"alpha=30.0, l=35.0: 2\*\*\(-alpha\*l\) is not normal")])
    def test_rejects_before_any_shell(self, monkeypatch, alpha, ls, named):
        def no_shell(*args):
            raise AssertionError("a shell was enumerated")

        monkeypatch.setattr("stepcross.blocks.compositions", no_shell)
        with pytest.raises(ValueError, match=named):
            weighted_tail_sums(alpha, SmoothParams((1.0, 1.0, 1.0)), ls)

    # fixed draws, since random ones moved the run time more than tenfold
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(r=st.lists(st.sampled_from((0.7, 1.0, 1.3, 1.7, 2.2, 3.1)), min_size=1,
                      max_size=3).map(sorted),
           alpha=st.sampled_from((0.6, 1.0, 1.45, 2.5)) | st.floats(0.6, 3.0),
           ls=st.lists(st.floats(0.5, 12.0) | st.integers(1, 12), min_size=1, max_size=3),
           mode=st.sampled_from(("gamma-on-gamma", "gamma-prime-on-gamma")))
    @example(r=[1.5, 2.0, 4.0], alpha=1.0, ls=[7], mode="gamma-prime-on-gamma")
    @example(r=[0.7, 1.0, 1.3], alpha=0.6, ls=[12, 12, 12], mode="gamma-prime-on-gamma")
    def test_equals_the_exact_sum(self, r, alpha, ls, mode):
        assert_exact(alpha, SmoothParams(r), ls, mode)

    # from alphas that no shell walk could certify to ones where the tail is
    # so small a part of the total that total minus inside loses digits in
    # floats (the oracle's 40 digits absorb that)
    @pytest.mark.parametrize("alpha", [0.002, 0.01, 0.1, 0.5, 2.0])
    @pytest.mark.parametrize("mode", ["gamma-on-gamma", "gamma-prime-on-gamma"])
    @pytest.mark.parametrize("r", [(1.0, 1.5), (1.0, 1.0, 2.0)])
    def test_equals_the_exact_sum_at_every_alpha(self, r, mode, alpha):
        assert_exact(alpha, SmoothParams(r), (1, 3.5, 10, 15, 20), mode)

    # every block lies in exactly one of the level-l cross and the tail at l:
    # the cross's weights plus the tail at l add up to the tail at 1/2, which
    # holds every block, over the same shells.  At r = (1.5, 2, 4) the block
    # (l-3, 1, 1) of l = 6, 7, 8 has (s, gamma') < l but leaves the cross.
    @pytest.mark.parametrize(("r", "mode"), [((1.5, 2.0, 4.0), "gamma-prime-on-gamma"),
                                             ((1.5, 2.0, 4.0), "gamma-on-gamma"),
                                             ((1.0, 1.0, 2.0), "gamma-prime-on-gamma"),
                                             ((1.0, 3.0), "gamma-prime-on-gamma")])
    def test_tail_is_the_complement_of_the_cross(self, r, mode):
        params, alpha, ls = SmoothParams(r), 1.0, range(3, 13)
        gamma_mode = "gamma" if mode == "gamma-on-gamma" else "gamma-prime"
        (total, _), *tails = weighted_tail_sums(alpha, params, [0.5, *ls], mode)
        for l, (tail, _) in zip(ls, tails):
            inside = sum(2.0 ** (-alpha * dot(s, params.gamma))
                         for s in rows(hyperbolic_cross(l, params, gamma_mode)))
            assert inside + tail == pytest.approx(total, rel=1e-12, abs=0), f"l={l}"

    def test_criterion_08_cases_bit_for_bit(self):
        # float.hex of every value and ratio of the twelve criterion-08 sums
        cases = [("gamma-on-gamma", SmoothParams((1.0, 1.0))),
                 ("gamma-on-gamma", SmoothParams((1.0, 1.0, 1.0))),
                 ("gamma-prime-on-gamma", SmoothParams((1.0, 4.0), gamma_prime=(1.0, 2.0))),
                 ("gamma-prime-on-gamma",
                  SmoothParams((1.0, 1.0, 4.0), gamma_prime=(1.0, 1.0, 2.0)))]
        bits = [(v.hex(), r.hex()) for mode, params in cases for alpha in (0.5, 1.0, 2.0)
                for v, r in weighted_tail_sums(alpha, params, range(10, 21), mode)]
        assert hashlib.sha256(repr(bits).encode()).hexdigest() == CRITERION_08_DIGEST

    # a shell walk could not certify these: at 1e-3 its remainder bound was
    # infinite at every shell up to 600, at 3e-3 (d = 2) too large at the last
    @pytest.mark.parametrize(("alpha", "d"), [(1e-3, 2), (1e-3, 3), (3e-3, 2)])
    def test_small_alpha_is_exact(self, alpha, d):
        assert_exact(alpha, SmoothParams((1.0,) * d), [10], "gamma-on-gamma")

    # the G_j overflow at alpha = 1e-300, d = 3 (each about 1.4e300), and at
    # r = (1, 200), alpha = 10 the sum, all of it outside the cross, is 2**-2010
    @pytest.mark.parametrize(("alpha", "r"), [(1e-300, (1.0, 1.0, 1.0)), (10.0, (1.0, 200.0))])
    def test_sum_outside_the_normal_floats_named(self, alpha, r):
        with pytest.raises(ValueError, match=f"alpha={alpha}, l=10.0 is not a normal float"):
            weighted_tail_sums(alpha, SmoothParams(r), [10])


def test_block_serialization_roundtrip(tmp_path):
    q = hyperbolic_cross(5, SmoothParams((1.0, 1.0)))
    path = tmp_path / "blocks.txt"
    write_blocks(path, q)
    text = path.read_text().splitlines()
    assert tuple(tuple(int(tok) for tok in line.split()) for line in text) == rows(q)
    assert text[0] == "1 1"
    assert all(len(line.split()) == 2 for line in text)
