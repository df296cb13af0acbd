"""Dyadic block index sets on the integer lattice.

A block index is a vector ``s`` of positive integers; the block it names is
the set of frequencies ``k`` with ``2**(s_j-1) <= |k_j| < 2**s_j`` in every
coordinate.  A dyadic shell, the blocks with (s,1) = m, is an int64 array with
one block per row in lexicographic order (``compositions``).  Step hyperbolic
crosses, even shells and the weighted tail sums used by the rate predictions
all filter such arrays.  One key per block, ``cross_level``, decides both
the crosses and the tails: a block lies in the level-n cross iff its key is
below n, and in the tail at n otherwise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Sequence

import numpy as np

from .sparse import run_starts, sort_runs

MAX_CROSS_LEVEL = 40  # frequencies stay well inside int64

GAMMA_MODES = ("gamma", "gamma-prime")


def is_int(v) -> bool:
    """True for an integer of any integral type, but not a bool."""
    # a Python int, the common case, skips the slower abstract-class test
    return type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)


def int_tuple(v: Sequence, what: str, name: str) -> tuple[int, ...]:
    """``v`` as a tuple of Python ints; a component that is not an integer
    (``is_int``) is an error naming ``v``, the ``what`` called ``name``."""
    if not all(map(is_int, v)):
        raise ValueError(f"{what} components must be integers, got {name}={v!r}")
    return tuple(map(int, v))


@dataclass(frozen=True)
class SmoothParams:
    """Smoothness vector with its derived scaling vectors.

    ``r`` must be finite, positive and nondecreasing.  ``nu`` counts the
    coordinates attaining the minimal value ``r[0]``; ``gamma = r / r[0]``;
    ``gamma_prime`` equals 1 on minimal coordinates and sits strictly between
    1 and ``gamma_j`` elsewhere (midpoint by default, overridable).
    """

    r: tuple[float, ...]
    gamma_prime: tuple[float, ...] = field(default=())

    def __init__(self, r: Sequence[float], gamma_prime: Sequence[float] | None = None):
        r = tuple(float(x) for x in r)
        if len(r) == 0:
            raise ValueError("SmoothParams ordering: r must be nonempty")
        if not all(map(math.isfinite, r)):
            raise ValueError(f"SmoothParams: r must be finite, got r={r}")
        if r[0] <= 0 or any(a > b for a, b in zip(r, r[1:])):
            raise ValueError("SmoothParams ordering: r must be positive and nondecreasing")
        object.__setattr__(self, "r", r)
        nu, gamma = self.nu, self.gamma
        if gamma_prime is None:
            gamma_prime = tuple(1.0 if j < nu else (1.0 + gamma[j]) / 2.0 for j in range(len(r)))
        else:
            gamma_prime = tuple(float(x) for x in gamma_prime)
            if len(gamma_prime) != len(r):
                raise ValueError("gamma_prime dimension mismatch")
            for j, gp in enumerate(gamma_prime):
                if j < nu and gp != 1.0:
                    raise ValueError("gamma_prime must equal 1 on minimal coordinates")
                if j >= nu and not (1.0 < gp < gamma[j]):
                    raise ValueError("gamma_prime must lie strictly between 1 and gamma")
        object.__setattr__(self, "gamma_prime", gamma_prime)

    @property
    def d(self) -> int:
        return len(self.r)

    @property
    def r1(self) -> float:
        return self.r[0]

    @property
    def nu(self) -> int:
        return sum(1 for x in self.r if x == self.r[0])

    @property
    def gamma(self) -> tuple[float, ...]:
        return tuple(x / self.r[0] for x in self.r)

    def gamma_for(self, mode: str) -> tuple[float, ...]:
        if mode == "gamma":
            return self.gamma
        if mode == "gamma-prime":
            return self.gamma_prime
        raise ValueError(f"unknown gamma mode {mode!r}; expected one of {GAMMA_MODES}")


def block_indices(K: np.ndarray) -> np.ndarray:
    """Block index of every row of the frequency matrix ``K``, componentwise
    bit_length(|k_j|), with 0 where k_j = 0 (such a row lies in no block).

    The frexp exponent of |k_j| is its bit length; the conversion to float is
    exact while |k_j| < 2**53, which ``MAX_CROSS_LEVEL`` keeps far off.
    """
    return np.frexp(np.abs(K))[1].astype(np.int64)


def mean_zero_block_indices(K: np.ndarray) -> np.ndarray:
    """``block_indices(K)``, rejecting a frequency with a zero component."""
    S = block_indices(K)
    if not S.all():
        k = tuple(K[np.argmin(S.all(axis=1))].tolist())
        raise ValueError(f"frequency {k} has a zero component (not in any dyadic block)")
    return S


def group_by_block(S: np.ndarray) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """The distinct rows of the block-index matrix ``S`` in lexicographic
    order, each with the increasing positions at which it occurs."""
    order, S, starts = sort_runs(S)  # stable, so positions stay increasing
    bounds = starts.tolist() + [len(S)]
    return [(tuple(s), order[a:b]) for s, a, b in zip(S[starts].tolist(), bounds, bounds[1:])]


def block_ranges(s: Sequence[int]) -> list[tuple[int, ...]]:
    """Per-coordinate frequencies of block ``s``: -2**s_j < k_j <= -2**(s_j-1)
    then 2**(s_j-1) <= k_j < 2**s_j, in increasing order."""
    ranges = []
    for sj in int_tuple(s, "block index", "s"):
        if sj < 1:
            raise ValueError("block index components must be >= 1")
        lo, hi = 2 ** (sj - 1), 2**sj
        ranges.append(tuple(range(-hi + 1, -lo + 1)) + tuple(range(lo, hi)))
    return ranges


def compositions(total: int, parts: int) -> np.ndarray:
    """The ``parts``-tuples of positive integers summing to ``total`` as rows of
    an int64 array in lexicographic order: the gaps between 0, each
    (parts-1)-subset of 1..total-1, and total.  No rows if parts > total."""
    if parts < 1:
        raise ValueError(f"compositions need parts >= 1, got parts={parts}")
    if total < parts:
        return np.zeros((0, parts), np.int64)
    count = math.comb(total - 1, parts - 1)
    bars = np.fromiter(chain.from_iterable(combinations(range(1, total), parts - 1)),
                       np.int64, count * (parts - 1)).reshape(count, parts - 1)
    return np.diff(bars, axis=1, prepend=0, append=total)


def cross_level(S: np.ndarray, gamma: Sequence[float]) -> np.ndarray:
    """The cross rule's key of each row s of the block array ``S``: the max
    over j of the running sum s_1 g_1 + ... + s_j g_j, added left to right,
    plus the least remaining tail g_{j+1} + ... + g_d.  Block s lies in the
    level-n cross iff its key < n.  With every g_j >= 1 it is >= (s,1)."""
    running, key = 0.0, -math.inf
    for j, g in enumerate(gamma):
        running = running + S[:, j] * g
        key = np.maximum(key, running + sum(gamma[j + 1:]))
    return key


def cross_candidates(n: float, d: int, gamma: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Every block that a cross of level at most n can hold, in lexicographic
    order, with its ``cross_level`` key on ``gamma``.  The key is >= (s,1),
    so these are the shells d..ceil(n)-1, and a slack part joins them."""
    S = compositions(math.ceil(n), d + 1)[:, :d]
    return S, cross_level(S, gamma)


def check_cross_level(n: float) -> None:
    """Reject a cross level that is not finite or exceeds ``MAX_CROSS_LEVEL``."""
    if not math.isfinite(n):
        raise ValueError(f"cross level n must be finite, got n={n}")
    if n > MAX_CROSS_LEVEL:
        raise ValueError(f"cross level n={n} exceeds cap {MAX_CROSS_LEVEL}")


def hyperbolic_cross(n: float, params: SmoothParams, gamma_mode: str = "gamma") -> np.ndarray:
    """Step hyperbolic cross: the blocks s with (s, gamma*) < n by the key of
    ``cross_level``, as the rows of an int64 array in lexicographic order;
    no rows when none qualifies."""
    check_cross_level(n)
    S, key = cross_candidates(n, params.d, params.gamma_for(gamma_mode))
    return S[key < n]


def even_shell(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All blocks with every component even, >= 2, summing to ``n``."""
    if n % 2 != 0:
        raise ValueError("shell level must be even")
    return tuple(map(tuple, (2 * compositions(n // 2, d)).tolist()))


def block_anchor(s: Sequence[int]) -> tuple[int, ...]:
    """The frequency 2**(s_j-1) + 2**(s_j-2) used to re-center a block's rectangle."""
    s = int_tuple(s, "block index", "s")
    if any(sj < 2 for sj in s):
        raise ValueError("block anchor needs all components >= 2")
    return tuple(2 ** (sj - 1) + 2 ** (sj - 2) for sj in s)


TAIL_MODES = ("gamma-on-gamma", "gamma-prime-on-gamma")


def _powers_of_two(alpha: float, g: float, size: int) -> np.ndarray:
    """2**(-alpha g t) for t = 0..size-1, within one rounding of the fraction
    and one of ``pow`` each: the exponent is split exactly at its integer part."""
    (na, da), (ng, dg) = alpha.as_integer_ratio(), g.as_integer_ratio()
    parts = (divmod(t * na * ng, da * dg) for t in range(size))
    return np.array([math.ldexp(2.0 ** (-rest / (da * dg)), -whole) for whole, rest in parts])


def weighted_tail_sums(alpha: float, params: SmoothParams, ls: Sequence[float],
                       mode: str = "gamma-on-gamma") -> list[tuple[float, float]]:
    """Sums of 2**(-alpha*(s,gamma)) over the tail at each boundary l, the
    complement of the level-l cross: the blocks whose ``cross_level`` key,
    on gamma in ``gamma-on-gamma`` mode and on gamma' in
    ``gamma-prime-on-gamma`` mode, is >= l.  Returns ``(value, value /
    (2**(-alpha*l) * l**(m-1)))`` per l, with m = d resp. nu.

    The sums are exact: the key grows with each s_j, so the tail at l is the
    disjoint union over k of the blocks whose prefix p = (s_1..s_{k-1}) has
    (p, 1, ..., 1) inside the cross (any p at k = 1), whose s_k exceeds the
    count c_p of the s_k with (p, s_k, 1, ..., 1) inside, and whose later
    coordinates are free.  With the 1-D tails G_j(t) = 2**(-alpha gamma_j t)
    / -expm1(-alpha gamma_j ln 2), and membership ``hyperbolic_cross``'s,
        tail(l) = sum_k sum_p 2**(-alpha (p, gamma)) G_k(c_p + 1) prod_{j>k} G_j(1).
    The terms are positive and added by ``math.fsum``, so with ``pow`` and
    ``expm1`` within one ulp each value is within (9 d + 1) 2**-53 of the
    exact sum, relatively.  Raises ValueError before any enumeration for a
    boundary above ``MAX_CROSS_LEVEL`` or with 2**(-alpha*l) below the normal
    floats, and after it where a value, ratio or term is not a normal float.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got alpha={alpha}")
    if mode not in TAIL_MODES:
        raise ValueError(f"unknown tail mode {mode!r}; expected one of {TAIL_MODES}")
    ls = [float(l) for l in ls]
    if not ls or not all(0 < l < math.inf for l in ls):
        raise ValueError(f"boundaries ls must be nonempty, finite and positive, got {ls}")
    tiny = 2.0**-1022  # the least normal float
    for l in ls:
        check_cross_level(l)
        if 2.0 ** (-alpha * l) < tiny:
            raise ValueError(f"tail sum at alpha={alpha}, l={l}: 2**(-alpha*l) is not normal")
    d, gamma = params.d, params.gamma
    gamma_star, power = ((gamma, d) if mode == "gamma-on-gamma"
                         else (params.gamma_prime, params.nu))
    top = max(*ls, d + 1)  # so that every piece has the row (1, ..., 1)
    S, key = cross_candidates(top, d, gamma_star)
    inside = key[:, None] < np.array(ls)
    terms, real = [], []
    with np.errstate(all="ignore"):  # a result that is not normal is rejected below
        W = [_powers_of_two(alpha, g, math.ceil(top) + 1) for g in gamma]
        G = [w / -math.expm1(-alpha * g * math.log(2)) for w, g in zip(W, gamma)]
        for k in range(d):
            rows = (S[:, k + 1:] == 1).all(axis=1)  # the blocks (p, s_k, 1, ..., 1)
            Sk = S[rows]
            starts = run_starts(Sk[:, :k])
            count = np.add.reduceat(inside[rows], starts)  # c_p at each l
            weight = math.prod((W[j][Sk[starts, j]] for j in range(k)), start=np.ones(len(starts)))
            free = math.prod(G[j][1] for j in range(k + 1, d))
            terms.append(weight[:, None] * G[k][count + 1] * free)
            real.append((count > 0) | (k == 0))
        terms, real = np.concatenate(terms), np.concatenate(real)
        low = np.where(real, terms, math.inf).min(axis=0).tolist()
    out = []
    for l, column, least in zip(ls, np.where(real, terms, 0.0).T.tolist(), low):
        value = math.fsum(column)
        ratio = value / (2.0 ** (-alpha * l) * l ** (power - 1))
        if not (tiny <= least and value < math.inf and tiny <= ratio < math.inf):
            raise ValueError(f"tail sum at alpha={alpha}, l={l} is not a normal float: "
                             f"value {value}, ratio {ratio}, least term {least}")
        out.append((value, ratio))
    return out


def write_blocks(path, blockset: Iterable[Sequence[int]]) -> None:
    """One block per line, components space separated, lexicographic order."""
    blocks = sorted(tuple(int(x) for x in s) for s in blockset)
    with open(path, "w") as fh:
        for s in blocks:
            fh.write(" ".join(str(x) for x in s) + "\n")
