import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from stepcross import poly
from stepcross.approx import random_mixed_poly
from stepcross.blocks import SmoothParams, compositions, hyperbolic_cross
from stepcross.extremal import dirichlet_shell
from stepcross.norms import lp_norm
from stepcross.poly import (DROP_TOL, AliasingError, GridBudgetError, GridLines, GridSpec,
                            TrigPoly, blocks_of, eval_grid, project_cross, read_jsonl,
                            resolve_grid_dims, write_jsonl)

coeff_st = st.complex_numbers(min_magnitude=1e-6, max_magnitude=10,
                              allow_nan=False, allow_infinity=False)


def random_poly_st(d):
    freq = st.tuples(*[st.integers(-40, 40).filter(lambda x: x != 0)] * d)
    return st.dictionaries(freq, coeff_st, min_size=1, max_size=12).map(
        lambda c: TrigPoly(d, c))


def sharp_block(f, s):
    """Restriction of f to the dyadic block s: the oracle for ``blocks_of``."""
    return TrigPoly(f.d, {k: c for k, c in f.coeffs.items()
                          if all(2 ** (sj - 1) <= abs(kj) < 2**sj for kj, sj in zip(k, s))})


class TestGridSpec:
    @pytest.mark.parametrize("field,value", [
        ("points_per_dim", 0), ("points_per_dim", 64.5), ("oversampling", 0.5),
        ("oversampling", "x"), ("self_check", "yes"),
    ])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError, match=f"GridSpec.{field}"):
            GridSpec(**{field: value})

    def test_accepts_integral_and_numpy_values(self):
        g = GridSpec(points_per_dim=np.int64(64), oversampling=np.float64(8))
        assert resolve_grid_dims(TrigPoly.exponential((3,)), g) == (64,)


class TestTrigPolyBasics:
    def test_canonical_drops_tiny(self):
        f = TrigPoly(1, {(1,): 1e-31, (2,): 1.0})
        assert f.coeffs == {(2,): 1.0}

    def test_zero_after_cancellation(self):
        f = TrigPoly(2, {(1, 2): 3.0})
        assert (f - f).is_zero()

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            TrigPoly(2, {(1,): 1.0})

    def test_immutable(self):
        f = TrigPoly.exponential((1,))
        with pytest.raises(AttributeError):
            f.d = 3

    def test_degree_and_mean_zero(self):
        f = TrigPoly(2, {(3, -5): 1.0, (-7, 1): 2.0})
        assert f.degree() == (7, 5)
        assert f.is_mean_zero()
        assert not TrigPoly(2, {(0, 1): 1.0}).is_mean_zero()

    def test_scalar_algebra(self):
        f = TrigPoly(1, {(1,): 2.0, (3,): -1.0})
        assert (0.5 * f).coeffs == {(1,): 1.0, (3,): -0.5}
        assert (-f + f).is_zero()

    def test_evaluate_matches_definition(self):
        f = TrigPoly(2, {(1, 2): 1 + 1j, (-3, 1): 2.0})
        x = (0.3, 1.1)
        want = (1 + 1j) * np.exp(1j * (x[0] + 2 * x[1])) + 2 * np.exp(1j * (-3 * x[0] + x[1]))
        assert f.evaluate(x) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("x", [(0.0,), (0.0, 1.0, 2.0), ((0.0, 1.0),)])
    def test_evaluate_names_dimension(self, x):
        f = TrigPoly(2, {(1, 2): 1.0})
        with pytest.raises(ValueError, match="expected d = 2"):
            f.evaluate(x)

    @pytest.mark.parametrize("x,j,v", [((math.nan, 0.0), 1, "nan"), ((1.0, math.inf), 2, "inf"),
                                       ((1.0, -math.inf), 2, "-inf")])
    def test_evaluate_rejects_non_finite_coordinate(self, monkeypatch, x, j, v):
        f = TrigPoly(2, {(1, 2): 1.0})
        monkeypatch.setattr(np, "exp", None)  # no term is evaluated
        with pytest.raises(ValueError, match=f"coordinate {j} is {v}, expected a finite"):
            f.evaluate(x)


# small frequencies, so that random pairs share some
freq2_st = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
# half-integer multiples of DROP_TOL: kept or dropped alone, and their sums
# and differences land on both sides of the threshold
tiny_st = st.builds(complex, st.integers(-4, 4), st.integers(-4, 4)).map(
    lambda c: c * (DROP_TOL / 2))
any_coeff_st = st.one_of(coeff_st, tiny_st)


def oracle(items):
    """The dict a polynomial with these (frequency, coefficient) items keeps."""
    return {k: complex(c) for k, c in items if abs(complex(c)) >= DROP_TOL}


class TestArrayContract:
    """``TrigPoly`` against a plain dict: the canonical form, equality, hash
    and term order."""

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(freq2_st, any_coeff_st, max_size=30))
    def test_drop_tol_on_construction(self, coeffs):
        f = TrigPoly(2, coeffs)
        assert f.coeffs == oracle(coeffs.items())
        assert f.nnz == len(oracle(coeffs.items()))

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(freq2_st, any_coeff_st, max_size=20),
           st.dictionaries(freq2_st, any_coeff_st, max_size=20),
           st.lists(st.booleans(), min_size=20, max_size=20))
    def test_drop_tol_after_cancellation(self, a, b, cancel):
        # b takes -a[k] at some frequencies of a, which must then vanish
        for (k, c), flip in zip(a.items(), cancel):
            if flip:
                b[k] = -c
        f, g = TrigPoly(2, a), TrigPoly(2, b)
        fa, gb = oracle(a.items()), oracle(b.items())
        keys = set(fa) | set(gb)
        assert (f + g).coeffs == oracle((k, fa.get(k, 0.0) + gb.get(k, 0.0)) for k in keys)
        assert (f - g).coeffs == oracle((k, fa.get(k, 0.0) - gb.get(k, 0.0)) for k in keys)
        assert (f - f).is_zero() and (g - g).is_zero()

    def test_sum_below_drop_tol_dropped(self):
        f = TrigPoly(1, {(1,): 1.5 * DROP_TOL, (2,): 1.0})
        g = TrigPoly(1, {(1,): -1.0 * DROP_TOL})
        assert f.nnz == 2 and g.nnz == 1
        assert (f + g).coeffs == {(2,): 1.0}
        assert (f - (-1 * g)).coeffs == {(2,): 1.0}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(freq2_st, coeff_st), max_size=25, unique_by=lambda t: t[0]),
           st.randoms(use_true_random=False))
    def test_insertion_order_irrelevant(self, items, rnd):
        shuffled = list(items)
        rnd.shuffle(shuffled)
        f, g = TrigPoly(2, dict(items)), TrigPoly(2, dict(shuffled))
        assert f == g and hash(f) == hash(g)
        K = np.array([k for k, _ in shuffled], dtype=np.int64).reshape(-1, 2)
        h = TrigPoly.from_arrays(K, np.array([c for _, c in shuffled], dtype=complex))
        assert h == f and hash(h) == hash(f)

    def test_signed_zeros_equal_and_hash_alike(self):
        f = TrigPoly(1, {(1,): complex(-0.0, 1.0), (2,): complex(1.0, -0.0)})
        g = TrigPoly(1, {(1,): 1j, (2,): 1.0})
        assert f == g and hash(f) == hash(g)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(freq2_st, any_coeff_st, max_size=30))
    def test_terms_in_lexicographic_order(self, coeffs):
        f = TrigPoly(2, coeffs)
        want = oracle(coeffs.items())
        assert f.terms() == sorted(want.items())
        assert f.K.tolist() == [list(k) for k in sorted(want)]

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(freq2_st, any_coeff_st, max_size=30), st.data())
    def test_take_equals_the_filtered_path(self, coeffs, data):
        f = TrigPoly(2, coeffs)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=f.nnz, max_size=f.nnz)),
                        dtype=bool)
        for rows in (mask, np.flatnonzero(mask), slice(1, None, 2)):
            got = f.take(rows)
            assert got == f.take(rows, f.C[rows])
            assert not (got.K.flags.writeable or got.C.flags.writeable)

    def test_repeated_rows_summed_in_order(self):
        K = np.array([[2, 1], [1, 1], [2, 1], [2, 1]])
        C = np.array([1e16, 5.0, -1e16, 1.0], dtype=complex)
        # left to right, (1e16 - 1e16) + 1 = 1; 1e16 + (-1e16 + 1) would round to 0
        assert TrigPoly.from_arrays(K, C).terms() == [((1, 1), 5.0), ((2, 1), 1.0)]

    @pytest.mark.filterwarnings("error")  # no numpy warning before the named error
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf),
                                     complex(math.nan, 0.0)])
    def test_non_finite_coefficient_named(self, bad):
        f = TrigPoly(2, {(3, -1): 1.0, (1, 2): 2j})
        for build in (lambda: TrigPoly(2, {(1, 2): bad, (3, -1): 1.0}),
                      lambda: TrigPoly.from_arrays([[3, -1], [1, 2]], [1.0, bad]),
                      lambda: f.take([0, 1], [bad, 1.0]),
                      lambda: f * bad):
            with pytest.raises(ValueError, match=r"of frequency \(1, 2\) is not finite"):
                build()

    @pytest.mark.parametrize("k", [(1.5, 2), (True, 2), ("3", 2), (np.float64(2.0), 2)])
    def test_non_integral_frequency_named(self, k):
        with pytest.raises(ValueError, match=r"frequency components must be integers, got k="):
            TrigPoly(2, {(1, 1): 1.0, k: 1.0})
        with pytest.raises(ValueError, match=r"frequency components must be integers, got k="):
            TrigPoly.exponential(k)

    def test_integral_numpy_frequency_accepted(self):
        f = TrigPoly(2, {(np.int64(3), np.int32(-1)): 1.0})
        assert f == TrigPoly.exponential((np.int64(3), -1)) == TrigPoly(2, {(3, -1): 1.0})

    def test_float_frequency_array_named(self):
        with pytest.raises(ValueError, match="frequencies must be integers, got a float64"):
            TrigPoly.from_arrays(np.array([[1.5, 2.0]]), [1.0])
        # an empty array of any type has no frequency to check
        assert TrigPoly.from_arrays(np.zeros((0, 2)), []) == TrigPoly.zero(2)

    def test_read_only(self):
        f = TrigPoly(1, {(1,): 1.0})
        with pytest.raises(TypeError):
            f.coeffs[(1,)] = 2.0
        with pytest.raises(ValueError):
            f.C[0] = 2.0
        with pytest.raises(ValueError):
            f.K[0, 0] = 2


def cauchy_oracle(f, g):
    """f g as a dict, the c_a c_b of each k_a + k_b summed in a loop over
    the pairs, with the coefficients that cancel dropped."""
    out = {}
    for ka, ca in f.terms():
        for kb, cb in g.terms():
            k = tuple(a + b for a, b in zip(ka, kb))
            out[k] = out.get(k, 0.0) + ca * cb
    return oracle(out.items())


def random_support(rng, d, dense):
    """A dense box of frequencies, or a few scattered over a wide one."""
    if dense:
        m = {1: 6, 2: 3, 3: 2}[d]
        return [k for k in itertools.product(range(-m, m + 1), repeat=d) if rng.random() < 0.8]
    return [tuple(k) for k in rng.integers(-30, 31, (int(rng.integers(1, 15)), d)).tolist()]


class TestProduct:
    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_pair_loop(self, d, dense):
        rng = np.random.default_rng(10 * d + dense)
        for _ in range(20):
            f, g = (TrigPoly(d, {k: complex(*rng.integers(-9, 10, 2))
                                 for k in random_support(rng, d, dense)}) for _ in range(2))
            # integer parts: every sum is exact, so bit for bit
            assert (f * g).coeffs == cauchy_oracle(f, g)
            f, g = (TrigPoly(d, {k: complex(*rng.normal(size=2))
                                 for k in random_support(rng, d, dense)}) for _ in range(2))
            got, want = (f * g).coeffs, cauchy_oracle(f, g)
            assert got.keys() == want.keys()
            scale = max(map(abs, f.C)) * max(map(abs, g.C)) * min(f.nnz, g.nnz)
            for k, c in got.items():
                assert abs(c - want[k]) <= 1e-14 * scale

    def test_frequency_box_beyond_int64_keys(self):
        # the box of every k_a + k_b holds over 2**63 points
        f = TrigPoly(3, {(2**40, -2**40, 5): 1.0, (1, 2, 3): 2j, (-2**40, 7, 2**40): 3.0})
        assert (f * f).coeffs == cauchy_oracle(f, f)

    def test_frequencies_past_int64_rejected(self):
        f = TrigPoly(1, {(2**62,): 1.0, (1,): 1.0})
        with pytest.raises(ValueError, match="outside int64"):
            f * f

    @pytest.mark.parametrize("d", [1, 3])
    def test_zero_either_side(self, d):
        f = TrigPoly(d, {(1,) * d: 2.0, (-3,) * d: 1j})
        zero = TrigPoly.zero(d)
        assert (f * zero) == (zero * f) == (zero * zero) == zero

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            TrigPoly.exponential((1, 2)) * TrigPoly.exponential((1,))

    @pytest.mark.parametrize("f,g,k", [
        (TrigPoly(1, {(1,): 1e200, (2,): 1.0}), None, 2),  # a pair's product overflows
        (TrigPoly(1, {(1,): 1e154, (2,): 1e154}), None, 3),  # a sum of pairs overflows
        (TrigPoly(1, {(1,): 1e200}), 1e200, 1),  # the scalar path
    ], ids=["pair", "sum", "scalar"])
    def test_overflow_raises_the_named_error_alone(self, f, g, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"of frequency \({k},\) is not finite"):
                f * (f if g is None else g)

    @pytest.mark.parametrize("make", [
        lambda: TrigPoly(1, {(1,): 1e308}) + TrigPoly(1, {(1,): 1e308}),
        lambda: TrigPoly.from_arrays(np.array([[1], [2], [1]]), np.array([1e308, 1.0, 1e308])),
    ], ids=["add", "from_arrays"])
    def test_sum_overflow_raises_the_named_error_alone(self, make):
        # the repeated frequency's coefficients sum to inf in sparse.sorted_sums
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"of frequency \(1,\) is not finite"):
                make()

    def test_pairs_over_budget_rejected_before_any_allocation(self):
        n = math.isqrt(poly.MAX_POINTS) + 1
        f = TrigPoly.from_arrays(np.arange(n).reshape(n, 1), np.ones(n))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"has {n * n} pairs, over the budget"):
                f * f
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # the pairs' coefficients alone would take 1 GB

    @pytest.mark.parametrize("c", [0.5, -2j, 3 - 1e-3j])
    def test_one_constant_term_is_the_scalar(self, c):
        f = TrigPoly(2, {(1, 2): 1 + 1j, (-3, 1): 2.0, (0, 5): -0.25j})
        assert f * TrigPoly.exponential((0, 0), c) == c * f == f * c

    def test_l4_is_parseval_on_the_square(self):
        rng = np.random.default_rng(12)
        polys = [random_mixed_poly(rng, d, max_shell=min(7, 3 * d + 2))
                 for d in (1, 2, 3) for _ in range(20)]
        polys += [dense_rectangle(shape) * dense_rectangle(shape[::-1])
                  for shape in ((6,), (3, 4), (2, 1, 3))]
        for t in polys:
            assert math.sqrt(lp_norm(t * t, 2.0)) == pytest.approx(lp_norm(t, 4.0), rel=1e-12)


class TestEvalGrid:
    def test_single_exponential_quarter_points(self):
        vals = eval_grid(TrigPoly.exponential((1,)), (4,))
        assert np.allclose(vals, [1, 1j, -1, -1j], atol=1e-14)

    def test_constant(self):
        vals = eval_grid(TrigPoly(1, {(0,): 1.0}), (8,))
        assert np.allclose(vals, np.ones(8), atol=1e-14)

    def test_shell_poly_peak_at_origin(self):
        # every coefficient is 1, so f(0) equals the term count and is the max
        f = dirichlet_shell(5, 2)
        vals = eval_grid(f, resolve_grid_dims(f, GridSpec()))
        assert vals[0, 0] == pytest.approx(f.nnz, rel=1e-12)
        assert np.max(np.abs(vals)) == pytest.approx(f.nnz, rel=1e-12)

    def test_matches_direct_evaluation(self):
        f = TrigPoly(2, {(1, 2): 1 + 2j, (-3, 4): -0.5, (2, -1): 0.25j})
        dims = (16, 16)
        vals = eval_grid(f, dims)
        for idx in ((0, 0), (3, 7), (10, 1)):
            x = (2 * math.pi * idx[0] / dims[0], 2 * math.pi * idx[1] / dims[1])
            assert vals[idx] == pytest.approx(f.evaluate(x), abs=1e-12)

    def test_aliasing_rejected(self):
        with pytest.raises(AliasingError):
            resolve_grid_dims(TrigPoly.exponential((2,)), GridSpec(points_per_dim=4))

    def test_budget_guard(self, monkeypatch):
        f = TrigPoly.exponential((1000, 1000))
        assert math.prod(resolve_grid_dims(f, GridSpec())) <= poly.MAX_POINTS
        monkeypatch.setattr(poly, "MAX_POINTS", 1000)
        with pytest.raises(GridBudgetError, match="exceeds budget 1000"):
            resolve_grid_dims(f, GridSpec())
        monkeypatch.undo()
        with pytest.raises(GridBudgetError, match="budget"):
            resolve_grid_dims(f, GridSpec(points_per_dim=10_000))

    @settings(max_examples=30, deadline=None)
    @given(random_poly_st(2))
    def test_parseval_on_grid(self, f):
        vals = eval_grid(f, resolve_grid_dims(f, GridSpec()))
        quad = float(np.mean(np.abs(vals) ** 2))
        exact = sum(abs(c) ** 2 for c in f.coeffs.values())
        assert quad == pytest.approx(exact, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.dictionaries(
        st.tuples(*[st.integers(-40, 40)] * d),
        st.builds(complex, st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=12)),
        st.sampled_from([1.0, 1.5, 2.0, 4.0]))
    def test_value_at_origin_is_the_coefficient_sum(self, coeffs, over):
        # integer coefficients add up exactly in every stage, and no stage
        # scales, so f(0) is their sum with no rounding at all
        f = TrigPoly(len(next(iter(coeffs))), coeffs)
        dims = resolve_grid_dims(f, GridSpec(oversampling=over))
        assert eval_grid(f, dims)[(0,) * f.d] == f.C.sum()

    @pytest.mark.parametrize("d,top", [(1, 16), (2, 9), (3, 7)])
    def test_dirichlet_sup_is_the_term_count(self, d, top):
        # unit coefficients: the grid max is f(0), the term count, exactly
        for n in range(d, top + 1):
            f = dirichlet_shell(n, d)
            for g in [f, *blocks_of(f).values()]:
                assert lp_norm(g, math.inf) == g.nnz

    def test_folded_frequencies_add_up(self):
        # 1 and 5 both land on index 1 of a 4-point grid: f(0) = 2
        f = TrigPoly(1, {(1,): 1.0, (5,): 1.0})
        assert np.allclose(eval_grid(f, (4,)), [2, 2j, -2, -2j], atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(random_poly_st), st.data())
    def test_values_exact_on_grids_that_fold(self, f, data):
        # each N_j in 1..2*deg_j, below the 2*deg_j + 1 points that resolve f
        dims = tuple(data.draw(st.integers(1, 2 * m)) for m in f.degree())
        vals = eval_grid(f, dims)
        scale = float(np.sum(np.abs(f.C)))
        for _ in range(5):
            idx = tuple(data.draw(st.integers(0, n - 1)) for n in dims)
            x = [2 * math.pi * i / n for i, n in zip(idx, dims)]
            assert vals[idx] == pytest.approx(f.evaluate(x), abs=1e-12 * scale)


def dense_eval_grid(f, dims):
    """The oracle for ``eval_grid``: the whole spectrum scattered onto the
    grid, one unnormalized ``ifftn`` over it."""
    spec = np.zeros(dims, dtype=complex)
    np.add.at(spec, tuple(np.mod(f.K, dims).T), f.C)
    return scipy.fft.ifftn(spec, norm="forward", overwrite_x=True)


def dense_rectangle(shape):
    """Every frequency of the box |k_j| <= shape_j, with distinct
    coefficients, so every line of every stage holds a nonzero."""
    K = np.array(list(itertools.product(*[range(-m, m + 1) for m in shape])))
    return TrigPoly.from_arrays(K, np.arange(1, len(K) + 1) * (1 - 0.5j))


class TestStagedTransform:
    """``eval_grid`` equals the dense oracle bit for bit, and transforms only
    the lines that hold a coefficient."""

    @pytest.mark.parametrize("f,dims", [
        (TrigPoly(1, {(-3,): 1 - 2j, (5,): 0.5, (0,): 2j}), (16,)),
        (TrigPoly(2, {(-3, 4): 1.5, (2, -7): -1j, (0, 1): 0.25}), (20, 30)),
        (TrigPoly(3, {(-1, 2, -3): 1.0, (4, -2, 1): 2 - 1j, (4, 2, 1): 3j}), (12, 10, 8)),
        # lengths that are not next_fast_len values; 2731 is prime, where
        # 1/N in double and in long double round apart: no stage may scale
        (TrigPoly(1, {(-30,): 1.0, (7,): 1j}), (2731,)),
        (TrigPoly(2, {(-5, 6): 1.0, (3, -4): 2j, (3, 6): -1.0}), (13, 29)),
        (TrigPoly(3, {(-2, 3, -4): 1.0, (1, -3, 5): 1j}), (7, 11, 13)),
        (TrigPoly(2, {(-13, 4000): 1.0, (2, -3): 0.5j, (13, 4000): -2.0}), (28, 8192)),
        (TrigPoly.exponential((-3, 5, 2), 1.5 - 0.5j), (9, 12, 10)),
        (dense_rectangle((4,)), (9,)),
        (dense_rectangle((3, 5)), (7, 11)),
        (dense_rectangle((2, 3, 1)), (5, 8, 3)),
        # no line to transform before the last stage, which fills the grid
        (TrigPoly.zero(1), (5,)),
        (TrigPoly.zero(2), (4, 6)),
        (TrigPoly.zero(3), (3, 4, 5)),
    ])
    def test_matches_dense_oracle(self, f, dims):
        assert np.array_equal(eval_grid(f, dims), dense_eval_grid(f, dims))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(random_poly_st), st.data())
    def test_random_matches_dense_oracle(self, f, data):
        dims = tuple(data.draw(st.integers(2 * m + 1, 4 * m + 8)) for m in f.degree())
        assert np.array_equal(eval_grid(f, dims), dense_eval_grid(f, dims))

    @pytest.mark.parametrize("f,dims", [
        (TrigPoly(1, {(-3,): 1.0, (5,): 2.0}), (16,)),
        (dirichlet_shell(5, 2), (64, 64)),
        (TrigPoly(3, {(1, 2, 3): 1.0, (5, 2, 3): 1j, (1, -2, 3): 2.0, (4, 2, 19): 3.0}),
         (16, 8, 16)),
    ])
    def test_first_stage_has_one_line_per_occupied_residue(self, monkeypatch, f, dims):
        calls = []
        ifft = np.fft.ifft

        def spy(x, *args, axis=-1, **kwargs):
            calls.append((x.shape[axis], x.size // x.shape[axis]))  # line length, lines
            return ifft(x, *args, axis=axis, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", spy)
        vals = eval_grid(f, dims)
        lines = len({tuple(k) for k in np.mod(f.K[:, 1:], dims[1:]).tolist()})
        assert [n for n, _ in calls] == list(dims)
        assert calls[0] == (dims[0], lines)
        assert np.array_equal(vals, dense_eval_grid(f, dims))

    @pytest.mark.parametrize("f,dims", [
        (TrigPoly(1, {(-3,): 1.0, (5,): -2.0, (0,): 0.5}), (16,)),
        (TrigPoly(1, {(-30,): 1.0, (7,): 1j}), (2731,)),
        (dense_rectangle((3, 5)), (7, 11)),
        (dirichlet_shell(5, 2), (64, 64)),
        (TrigPoly(2, {(-5, 6): 1.0, (3, -4): 2j, (3, 6): -1.0}), (13, 29)),
        (TrigPoly(2, {(-13, 4000): 1.0, (2, -3): -0.5, (13, 4000): -2.0}), (28, 8192)),
        (dense_rectangle((2, 3, 1)), (5, 8, 3)),
        (TrigPoly(3, {(-2, 3, -4): 1.0, (1, -3, 5): -1.5, (4, 2, 19): 3.0}), (12, 10, 40)),
        (TrigPoly.zero(2), (4, 6)),
    ])
    def test_rows_are_a_prefix_bit_for_bit(self, f, dims):
        full = eval_grid(f, dims)
        for rows in (1, dims[0] // 2 + 1, dims[0]):
            got = eval_grid(f, dims, rows)
            assert got.shape == (rows,) + dims[1:] and np.array_equal(got, full[:rows])
            assert got.flags.c_contiguous and got.flags.writeable

    @pytest.mark.parametrize("f,dims", [
        (TrigPoly(2, {(-5, 6): 1.0, (3, -4): 2j, (3, 6): -1.0}), (13, 29)),
        (TrigPoly(2, {(-13, 4000): 1.0, (2, -3): -0.5, (13, 4000): -2.0}), (28, 8192)),
        (dense_rectangle((2, 3, 1)), (5, 8, 3)),
        (TrigPoly(3, {(-2, 3, -4): 1.0, (1, -3, 5): -1.5, (4, 2, 19): 3.0}), (12, 10, 40)),
        (TrigPoly.zero(3), (4, 6, 5)),
    ])
    def test_any_range_of_lines_equals_the_grid(self, f, dims):
        # the last stage on lines first..first+k-1 alone, any range of whole
        # rows or of lines inside one row, gives those lines of the whole
        # grid bit for bit, whatever rows of the grid are wanted
        per = math.prod(dims[1:-1])  # lines per row
        for rows in (dims[0], dims[0] // 2 + 1):
            lines = GridLines(f, dims, rows)
            grid = eval_grid(f, dims, rows).reshape(-1, dims[-1])
            assert (lines.count, lines.n) == (len(grid), dims[-1])
            for first, k in ((0, 1), (1, 2), (lines.count - 3, 3), (per, lines.count - 2 * per),
                             (0, lines.count)):
                out = lines.transform(first, np.zeros((k, dims[-1]), dtype=complex))
                assert np.array_equal(out, grid[first:first + k])
            if per > 1:  # across a row's end, neither whole rows nor inside one
                with pytest.raises(ValueError, match="neither whole rows"):
                    lines.transform(per - 1, np.zeros((2, dims[-1]), dtype=complex))

    def test_d1_takes_only_its_whole_line(self):
        # a d = 1 grid scatters its one line whole: a later first line or
        # more lines is named, and out stays untouched
        f = TrigPoly(1, {(2,): 1.0, (-5,): 2.0})
        lines = GridLines(f, (16,))
        assert (lines.count, lines.n) == (1, 16)
        for first, k in ((1, 1), (5, 1), (0, 2)):
            out = np.zeros((k, 16), dtype=complex)
            with pytest.raises(ValueError, match=rf"lines {first}\.\.{first + k - 1} are not the"
                                                 r" whole d = 1 grid, line 0"):
                lines.transform(first, out)
            assert not out.any()
        got = lines.transform(0, np.zeros((1, 16), dtype=complex))
        assert np.array_equal(got.reshape(-1), eval_grid(f, (16,)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(random_poly_st), st.booleans(), st.data())
    def test_random_rows_are_a_prefix(self, f, real, data):
        if real:
            f = TrigPoly.from_arrays(f.K, f.C.real)
        dims = tuple(data.draw(st.integers(max(1, 2 * m - 3), 2 * m + 8)) for m in f.degree())
        rows = data.draw(st.integers(1, dims[0]))
        assert np.array_equal(eval_grid(f, dims, rows), eval_grid(f, dims)[:rows])

    @pytest.mark.parametrize("fs", [[], [TrigPoly.zero(2), TrigPoly.zero(3)],
                                    (TrigPoly.zero(2),)], ids=["empty", "mixed-d", "one"])
    def test_sequence_rejected_before_any_work(self, monkeypatch, fs):
        monkeypatch.setattr(np.fft, "ifft", None)  # any transform would raise TypeError
        for evaluate in (eval_grid, GridLines):
            with pytest.raises(TypeError, match=rf"one TrigPoly, got a {type(fs).__name__}$"):
                evaluate(fs, (4, 6))

    @pytest.mark.parametrize("rows", [0, 9, 2.5, True, -1, "4"], ids=repr)
    def test_rows_out_of_range_named(self, rows):
        f = TrigPoly(2, {(1, 2): 1.0, (-3, 1): 0.5})
        with pytest.raises(ValueError, match=r"rows must be an integer from 1 to N_0 = 8"):
            eval_grid(f, (8, 5), rows)

    @pytest.mark.parametrize("bad", [4.9, 5.0, "7", True, 0, -3, None], ids=repr)
    def test_dims_not_integers_named_before_any_work(self, monkeypatch, bad):
        f = TrigPoly(2, {(1, 2): 1.0, (-3, 1): 0.5})
        monkeypatch.setattr(np.fft, "ifft", None)  # any transform would raise TypeError
        for dims in ((bad, 5), (5, bad)):
            with pytest.raises(ValueError, match=rf"dims must be integers >= 1, got {bad!r} in "):
                eval_grid(f, dims)
        monkeypatch.undo()
        assert np.array_equal(eval_grid(f, (np.int64(5), 4)), eval_grid(f, (5, 4)))

    def test_result_is_a_fresh_writable_grid(self):
        f = dirichlet_shell(5, 2)
        vals = eval_grid(f, (256, 256))
        assert vals.flags.c_contiguous and vals.flags.writeable and vals.shape == (256, 256)


class TestNumpyRuntime:
    """The package runs on numpy alone; scipy is the tests' reference."""

    def test_fast_len_matches_scipy(self):
        rng = np.random.default_rng(13)
        sampled = rng.integers(20_001, 2 * poly.MAX_POINTS + 1, size=2_000).tolist()
        ns = [*range(1, 20_001), *sampled, 2 * poly.MAX_POINTS]
        assert [n for n in ns if poly._fast_len(n) != scipy.fft.next_fast_len(n, real=False)] == []

    @pytest.mark.parametrize("k", [(poly.MAX_POINTS,), (1, poly.MAX_POINTS)])
    def test_degree_beyond_the_table_exceeds_the_budget(self, k):
        f = TrigPoly.exponential(k)  # ceil(4 * (2 * 2**26 + 1)) is past the table
        with pytest.raises(GridBudgetError, match="exceeds budget"):
            resolve_grid_dims(f, GridSpec())

    def test_fresh_interpreter_never_imports_scipy(self):
        code = ("import sys\n"
                "import stepcross, stepcross.cli\n"
                "f = stepcross.TrigPoly(2, {(1, 3): 1.0, (-2, 5): 0.5j})\n"
                "assert stepcross.lp_norm(f, 3.0) > 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        src = str(Path(poly.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestSharpBlocks:
    def test_example_keep(self):
        f = TrigPoly(1, {(1,): 1.0, (5,): 2.0})
        assert blocks_of(f) == {(1,): TrigPoly.exponential((1,)),
                                (3,): TrigPoly.exponential((5,), 2.0)}

    def test_example_drop(self):
        assert list(blocks_of(TrigPoly.exponential((3,)))) == [(2,)]

    def test_idempotent_and_orthogonal(self):
        f = TrigPoly(1, {(1,): 1.0, (2,): 2.0, (5,): 3.0})
        b = blocks_of(f)[(2,)]
        assert blocks_of(b) == {(2,): b}
        assert sharp_block(b, (3,)).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(random_poly_st(2))
    def test_linear_exact(self, f):
        # |k_j| <= 40 keeps every block index within 1..6
        oracle = {s: sharp_block(f, s) for s in itertools.product(range(1, 7), repeat=2)}
        split = blocks_of(f)
        assert list(split.items()) == [(s, b) for s, b in oracle.items() if not b.is_zero()]
        assert blocks_of(2.5j * f) == {s: 2.5j * b for s, b in split.items()}

    @settings(max_examples=40, deadline=None)
    @given(random_poly_st(2))
    def test_blocks_partition_exactly(self, f):
        total = TrigPoly.zero(2)
        for _, comp in blocks_of(f).items():
            total = total + comp
        assert total == f  # disjoint supports, so addition is exact

    def test_blocks_of_rejects_zero_component(self):
        with pytest.raises(ValueError, match="zero component"):
            blocks_of(TrigPoly(2, {(0, 1): 1.0}))


class TestProjectCross:
    def test_fixed_point(self):
        params = SmoothParams((1.0, 1.0))
        f = TrigPoly(2, {(1, 1): 1.0, (-2, 1): 2.0})
        assert project_cross(f, 4, params) == f

    def test_membership_example(self):
        # (1,1) lies in block (1,1); (8,8) in block (4,4) with (s,1)=8 >= 4
        params = SmoothParams((1.0, 1.0))
        f = TrigPoly(2, {(1, 1): 1.0, (8, 8): 1.0})
        assert project_cross(f, 4, params) == TrigPoly(2, {(1, 1): 1.0})

    def test_shell_annihilation(self):
        params = SmoothParams((1.0, 1.0))
        for n in (3, 5):
            g = dirichlet_shell(n, 2)
            assert project_cross(g, n, params, "gamma").is_zero()

    @settings(max_examples=30, deadline=None)
    @given(random_poly_st(2))
    def test_idempotent(self, f):
        params = SmoothParams((1.0, 1.5))
        p = project_cross(f, 5, params)
        assert project_cross(p, 5, params) == p

    @pytest.mark.parametrize("r", [(1.0,), (1.0, 1.0), (1.0, 2.0), (1.5, 2.0), (1.0, 1.0, 1.0),
                                   (1.0, 1.0, 2.0), (1.5, 2.0, 4.0)], ids=str)
    @pytest.mark.parametrize("gamma_mode", ["gamma", "gamma-prime"])
    def test_keeps_the_blocks_of_hyperbolic_cross(self, r, gamma_mode):
        # oracle: a term stays iff its block is a row of the enumerated cross;
        # a frequency with a zero component lies in no block, so in no cross
        params, d = SmoothParams(r), len(r)
        rng = np.random.default_rng(17)
        zeros = TrigPoly(d, {(0,) * d: 1.0, (0,) + (1,) * (d - 1): 2.0, (1,) * (d - 1) + (0,): 3.0})
        kept = dropped = 0
        for n in (d, d + 0.5, 4, 5.25, 7, 9.9, 12):
            f = random_mixed_poly(rng, d, max_shell=int(n) + 2, blocks_per_poly=8) + zeros
            cross = set(map(tuple, hyperbolic_cross(n, params, gamma_mode).tolist()))
            want = {k: c for k, c in f.terms()
                    if tuple(abs(kj).bit_length() for kj in k) in cross}
            got = project_cross(f, n, params, gamma_mode)
            assert got == TrigPoly(d, want)
            kept, dropped = kept + got.nnz, dropped + f.nnz - got.nnz
        assert kept > 0 and dropped > 0


@pytest.mark.parametrize("line,named", [
    ('{"k": [1.5, 2], "re": 1.0, "im": 0.0}', "has frequency [1.5, 2], expected integers"),
    ('{"k": [true, 2], "re": 1.0, "im": 0.0}', "has frequency [True, 2], expected integers"),
    ('{"k": [1, 2], "re": "1", "im": 0.0}', "has re, im = ('1', 0.0), expected numbers"),
    ('{"k": [1, 2], "re": 1.0, "im": null}', "has re, im = (1.0, None), expected numbers"),
    ('{"k": [1, 2], "re": 1.0}', 'is not a {"k", "re", "im"} record'),
    ('{"k": 3, "re": 1.0, "im": 0.0}', 'is not a {"k", "re", "im"} record'),
    ('[1, 2]', 'is not a {"k", "re", "im"} record'),
])
def test_read_jsonl_names_the_bad_line(tmp_path, line, named):
    path = tmp_path / "poly.jsonl"
    path.write_text(f'{{"d": 2}}\n{{"k": [3, -1], "re": 1.0, "im": 0.0}}\n{line}\n')
    with pytest.raises(ValueError, match=f"line 3 {re.escape(named)}"):
        read_jsonl(path)


@pytest.mark.parametrize("d", [1.5, 2.7, True, "2", None])
def test_read_jsonl_rejects_a_non_integral_dimension(tmp_path, d):
    path = tmp_path / "poly.jsonl"
    path.write_text(f'{{"d": {json.dumps(d)}}}\n{{"k": [3, -1], "re": 1.0, "im": 0.0}}\n')
    with pytest.raises(ValueError, match="dimension must be an integer >= 1, got d="):
        read_jsonl(path)


def test_jsonl_roundtrip(tmp_path):
    f = TrigPoly(2, {(1, -3): 0.5 + 0.25j, (2, 2): -1.0})
    path = tmp_path / "poly.jsonl"
    write_jsonl(path, f)
    assert read_jsonl(path) == f
    header = path.read_text().splitlines()[0]
    assert '"d": 2' in header
