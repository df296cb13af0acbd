"""Approximation errors of the step hyperbolic Fourier sum and certified
upper bounds on the best approximation by cross polynomials.  For
1 < q < inf the Fourier sum is itself the best approximation in the sharp
block-sum norm, so only q in {1, inf} tries the smooth aggregate.  The
aggregate of the level-n shell member is empty (each of its smooth-block
indices has (s, gamma') >= n - (gamma', 1)), so there both errors agree.

Both errors take the cross by its level, mode and smoothness, and keep a
term when the key of ``cross_level`` puts its block inside, as a rate
sweep's cardinality column counts blocks; no cross is built.  The
class-level suprema are never optimized over; the extremal families stand in
for them, matching how the lower bounds are actually realized.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .blocks import (SmoothParams, check_cross_level, compositions, cross_level,
                     mean_zero_block_indices)
from .kernels import smooth_aggregate
from .norms import bq1_norm, even_norms, lp_bounds
from .poly import TrigPoly, is_int, kept_terms, project_cross
from .sparse import run_starts, run_sums, sorted_sums


def default_form(q: float) -> str:
    return "sharp" if 1 < q < math.inf else "smooth"


def fourier_sum_error(f: TrigPoly, n: float, params: SmoothParams, gamma_mode: str,
                      q: float) -> float:
    """Block-sum norm of f minus its Fourier sum over the level-n cross."""
    return bq1_norm(f - project_cross(f, n, params, gamma_mode), q, default_form(q))


def best_approx_upper(f: TrigPoly, n: float, params: SmoothParams, gamma_mode: str,
                      q: float) -> float:
    """Upper bound for the best approximation of f from the level-n cross.

    For 1 < q < inf it is the Fourier-sum error.  For q in {1, inf} it is
    the minimum of that and the error of the smooth-block aggregate, whose
    spectrum lies inside the gamma'-cross at level n; the aggregate is
    admissible only for the gamma-prime mode, or when gamma' = gamma
    (nu = d).  An aggregate equal to the Fourier sum (both are empty for a
    shell member) leaves the remainder just measured, which is not measured again.
    """
    err = fourier_sum_error(f, n, params, gamma_mode, q)
    if 1 < q < math.inf or (gamma_mode != "gamma-prime" and params.nu != params.d):
        return err
    aggregate = smooth_aggregate(f, n, params)
    if aggregate == project_cross(f, n, params, gamma_mode):
        return err
    return min(err, bq1_norm(f - aggregate, q, "smooth"))


@functools.lru_cache(maxsize=64, typed=True)
def _candidate_blocks(max_shell: int, d: int, max_component: int | None) -> np.ndarray:
    """Every block with (s,1) <= max_shell (and, if given, every component
    <= max_component) as the rows of a read-only int64 array: lexicographic,
    then stably by shell.  Read-only because every call shares it."""
    S = compositions(max_shell + 1, d + 1)[:, :d]
    S = S[np.argsort(S.sum(axis=1), kind="stable")]
    if max_component is not None:
        S = S[S.max(axis=1) <= max_component]
    S.setflags(write=False)
    return S


def random_mixed_terms(rng: np.random.Generator, d: int, max_shell: int,
                       blocks_per_poly: int = 6, terms_per_block: int = 3,
                       max_component: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Terms (K, C) of a sparse random polynomial touching blocks on both
    sides of a cross cut, as drawn: unsorted, with repeats.

    Draws, in this order and each as one array: ``blocks_per_poly``
    distinct blocks, uniformly from all blocks with (s,1) <= max_shell (and,
    if given, every component <= max_component); for each of the
    ``terms_per_block`` terms per block, in block order, the magnitudes
    |k_j| uniform on [2**(s_j-1), 2**s_j), as ``rng.integers`` draws them;
    the signs of k_j, each fair; and standard complex Gaussian
    coefficients, real and imaginary part of each term in turn.  The
    candidate blocks are listed once per (max_shell, d, max_component); the
    draws, and so the terms of each generator state, do not depend on that.
    A request that could only give the zero polynomial (no block, or none
    or no term drawn) is rejected before any draw.
    """
    for name, value, low in (("d", d, 1), ("max_shell", max_shell, d),
                             ("blocks_per_poly", blocks_per_poly, 1),
                             ("terms_per_block", terms_per_block, 1)):
        if not (is_int(value) and value >= low):
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    if not (max_component is None or is_int(max_component) and max_component >= 1):
        raise ValueError(f"max_component must be None or an integer >= 1, got {max_component!r}")
    S = _candidate_blocks(max_shell, d, max_component)
    blocks = S[rng.choice(len(S), size=min(blocks_per_poly, len(S)), replace=False)]
    low = 2 ** (np.repeat(blocks, terms_per_block, axis=0) - 1)
    # the draws of integers(low, 2 * low), with no 2 * low to overflow at s_j = 63
    mag = low + rng.integers(low)
    K = np.where(rng.random(low.shape) < 0.5, mag, -mag)
    return K, rng.standard_normal((len(K), 2)).view(complex)[:, 0]


def random_mixed_poly(rng: np.random.Generator, d: int, max_shell: int,
                      blocks_per_poly: int = 6, terms_per_block: int = 3,
                      max_component: int | None = None) -> TrigPoly:
    """The polynomial of ``random_mixed_terms``' draw, built by
    ``TrigPoly.from_arrays``: the same generator calls in the same order,
    so the generator is left in the same state.  A frequency drawn twice
    holds the sum of its coefficients, added in draw order, and a term of
    modulus below ``DROP_TOL`` is dropped.
    """
    return TrigPoly.from_arrays(*random_mixed_terms(rng, d, max_shell, blocks_per_poly,
                                                    terms_per_block, max_component))


def _sample_terms(draws: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """``TrigPoly.from_arrays`` of each mean-zero draw, bit for bit, in one
    pass: rows (i, s, k) of sample i, block s and frequency k, sorted, and
    their coefficients (repeats added in draw order by ``sorted_sums``)."""
    K = np.concatenate([k for k, _ in draws])
    sample = np.repeat(np.arange(len(draws)), [len(k) for k, _ in draws])
    keys, C = sorted_sums(np.column_stack((sample, mean_zero_block_indices(K), K)),
                          np.concatenate([c for _, c in draws]))
    keep = kept_terms(keys[:, -K.shape[1]:], C)[1]
    return keys[keep], C[keep]


def projector_norm_probe(n: float, params: SmoothParams, q: float, samples: int,
                         rng_seed: int = 0) -> float:
    """Max over random polynomials f of |S_Q f| / |f| in the sharp block-sum
    norm, Q the level-n gamma cross: exact at q = 2, and a certified upper
    bound at any other q.

    The samples' raw terms are drawn first (``random_mixed_terms``, in the
    generator's order, so each sample is the ``random_mixed_poly`` of its
    generator state) and made canonical all at once (``_sample_terms``): one
    stable sort keyed by (sample, block, k) adds repeats in draw order, and
    ``kept_terms`` applies ``TrigPoly``'s finiteness and ``DROP_TOL`` rule,
    so no ``TrigPoly`` is built.  The sorted terms fall into runs of one
    (sample, block).  Each block component's exact L_2 and L_4
    (``even_norms``, no grid) bracket its L_q between lo and hi
    (``lp_bounds``).  A sample's ratio is its sum of hi over the
    blocks in Q (``cross_level`` key below n) over the block-order sum of hi
    inside Q and lo outside: at least the exact ratio, and at most 1.  A
    request that draws nothing, or only zero polynomials (int(n) + 2 < d),
    or names an unusable level is rejected before any draw.
    """
    if not (1 < q < math.inf):
        raise ValueError("projector probe requires 1 < q < inf (sharp form)")
    if not (is_int(samples) and samples >= 1):
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    check_cross_level(n)
    if int(n) + 2 < params.d:
        raise ValueError(f"the sampled shells (s,1) <= int(n) + 2 = {int(n) + 2} hold no block "
                         f"at d = {params.d}")
    rng = np.random.default_rng(rng_seed)
    keys, C = _sample_terms([random_mixed_terms(rng, params.d, max_shell=int(n) + 2)
                             for _ in range(samples)])
    starts = run_starts(keys[:, :params.d + 1])  # each (sample, s)'s first term
    l2, l4 = even_norms(keys[:, params.d + 1:], C, starts)
    s = run_sums(np.abs(C), starts).tolist()
    lo, hi = np.array([lp_bounds(q, *v) for v in zip(l2, l4, s)]).reshape(-1, 2).T
    blocks = keys[starts, :params.d + 1]  # (sample, s) of each component
    inside = cross_level(blocks[:, 1:], params.gamma) < n
    first = np.searchsorted(blocks[:, 0], np.arange(samples))  # each sample's first block
    kept = run_sums(np.where(inside, hi, 0.0), first)
    total = run_sums(np.where(inside, hi, lo), first)
    some = total != 0.0
    return float(np.max(kept[some] / total[some], initial=0.0))
