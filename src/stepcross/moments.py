"""Exact even moments of sparse polynomials with no grid, Parseval on t and
on t * t, and the L_p brackets and Nikol'skii verdicts built on them.

* ``even_norms`` takes the exact L_2 and L_4 of many sparse polynomials
  with no grid, a chunk of their squares at a time, and ``lp_bounds``
  brackets any L_p from them.
* ``PAIR_BUDGET`` is the most square pairs of one polynomial: ``even_norms``
  rejects a run of more, and ``norms.nikolskii_check(s)`` takes the L_4 of
  such a t from its grid.
"""

from __future__ import annotations

import math

import numpy as np

from .poly import TrigPoly, kept_terms
from .sparse import cauchy_squares, run_sums

PAIR_BUDGET = 2**15  # the most square pairs of one run
CHUNK_PAIRS = PAIR_BUDGET // 4  # most square pairs in a chunk of several runs


def abs_sum(f: TrigPoly) -> float:
    """The correctly rounded sum of |c_k|: an upper bound of ||f||_inf, and
    equal to it, f(0), when every coefficient is real and >= 0."""
    return math.fsum(np.abs(f.C).tolist())


def even_norms(K: np.ndarray, C: np.ndarray,
               starts: np.ndarray) -> tuple[list[float], list[float]]:
    """Parseval's L_2 and the exact L_4 of each polynomial f_i whose
    canonical terms are the run (K, C)[starts[i]:starts[i + 1]], the last to
    the end, bit for bit ``lp_norm(f_i, 2)`` and ``sqrt(lp_norm(f_i * f_i,
    2))``, with no grid.  Each |c|**2 is ``TrigPoly.abs2``'s, and each run's
    are added left to right by ``sparse.run_sums``: every run's L_2 in one
    call, and its L_4 from the run sums of its square.  The squares are made
    a chunk of runs at a time, the next of at most ``CHUNK_PAIRS`` square
    pairs in all or one of more (at most ``PAIR_BUDGET``), each squared
    (``sparse.cauchy_squares``) and reduced before the next; they drop and
    reject coefficients as ``TrigPoly`` does.  Besides the input and one
    value per run, a chunk's pairs and squares are all that is held."""
    ends = np.append(starts, len(K))
    done = np.cumsum(np.append(0, np.diff(ends) ** 2))  # the square pairs of runs 0..i-1
    l2 = np.sqrt(run_sums(np.float_power(np.hypot(C.real, C.imag), 2), starts)).tolist()
    l4, r0 = [], 0
    while r0 < len(starts):
        r1 = max(r0 + 1, np.searchsorted(done, done[r0] + CHUNK_PAIRS, "right") - 1)
        run, Ks, Cs = cauchy_squares(K[ends[r0]:ends[r1]], C[ends[r0]:ends[r1]],
                                     starts[r0:r1] - ends[r0], PAIR_BUDGET)
        mod, keep = kept_terms(Ks, Cs, "of a square ")
        sums = run_sums(np.where(keep, np.float_power(mod, 2), 0.0),
                        np.searchsorted(run, np.arange(r1 - r0)))
        l4 += np.sqrt(np.sqrt(sums)).tolist()
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


def nikolskii_verdicts(t: TrigPoly, l2: float, l4: float,
                       pairs: list[tuple[float, float]]) -> list[tuple[float, float, bool]]:
    """``norms.nikolskii_check``'s verdicts for t from its exact L2 and L4."""
    s = abs_sum(t)
    degs = tuple(max(1, m) for m in t.degree())
    out = []
    for p, q in pairs:
        upper, lower = lp_bounds(q, l2, l4, s)[1], lp_bounds(p, l2, l4, s)[0]
        qinv = 0.0 if math.isinf(q) else 1.0 / q
        rhs = 2.0**t.d * math.prod(m ** (1.0 / p - qinv) for m in degs) * lower
        out.append((upper, rhs, upper <= rhs * (1 + 1e-9)))
    return out
