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
from typing import Iterable, Iterator, Sequence

import numpy as np

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


class TailTruncationError(RuntimeError):
    """Raised when a weighted tail sum cannot reach the target accuracy."""

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


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
    if not len(S):
        return []
    order = np.lexsort(S.T[::-1])  # stable, so positions stay increasing
    S = S[order]
    starts = np.concatenate(([True], (S[1:] != S[:-1]).any(axis=1))).nonzero()[0]
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


@dataclass(frozen=True)
class BlockIndexSet:
    """A finite set of block indices plus bookkeeping about its frequency set."""

    blocks: tuple[tuple[int, ...], ...]
    d: int
    n: float | None = None
    gamma_mode: str | None = None

    def __post_init__(self):
        seen = set(self.blocks)
        if len(seen) != len(self.blocks):
            raise ValueError("duplicate blocks")
        object.__setattr__(self, "_lookup", seen)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.blocks)

    def __contains__(self, s) -> bool:
        return tuple(s) in self._lookup


def cross_level(S: np.ndarray, gamma: Sequence[float]) -> np.ndarray:
    """The cross rule's key of each row s of the block array ``S``: the max
    over j of the running sum s_1 g_1 + ... + s_j g_j, added left to right,
    plus the least remaining tail g_{j+1} + ... + g_d.  Block s lies in the
    level-n cross iff its key < n.  With every g_j >= 1 it is >= (s,1)."""
    return _key_and_sum(S, gamma)[0]


def _key_and_sum(S: np.ndarray, gamma: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """``cross_level``'s key of each row s of ``S``, and its last running
    sum (s, gamma), added left to right from 0.0."""
    running, key = 0.0, -math.inf
    for j, g in enumerate(gamma):
        running = running + S[:, j] * g
        key = np.maximum(key, running + sum(gamma[j + 1:]))
    return key, running


def hyperbolic_cross(n: float, params: SmoothParams, gamma_mode: str = "gamma") -> BlockIndexSet:
    """Step hyperbolic cross: the blocks s with (s, gamma*) < n by the key of
    ``cross_level``, in lexicographic order; an empty set when none qualifies."""
    if not math.isfinite(n):
        raise ValueError(f"cross level n must be finite, got n={n}")
    if n > MAX_CROSS_LEVEL:
        raise ValueError(f"cross level n={n} exceeds cap {MAX_CROSS_LEVEL}")
    d = params.d
    # key >= (s,1), so the cross lies in the shells d..ceil(n)-1; a slack part joins them
    S = compositions(math.ceil(n), d + 1)[:, :d]
    S = S[cross_level(S, params.gamma_for(gamma_mode)) < n]
    return BlockIndexSet(tuple(map(tuple, S.tolist())), d, n=float(n), gamma_mode=gamma_mode)


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
TAIL_REL_TOL = 1e-12
TAIL_MAX_SHELL = 600


def _tail_remainder_bound(m: int, d: int, alpha: float) -> float:
    """Upper bound for sum over (s,1) > m of 2**(-alpha*(s,1))."""
    x = 2.0**-alpha
    q = x * ((m + 2) / (m + 1)) ** (d - 1)
    if q >= 1.0:
        return math.inf
    return (m + 1) ** (d - 1) * x ** (m + 1) / (1.0 - q)


def weighted_tail_sums(alpha: float, params: SmoothParams, ls: Sequence[float],
                       mode: str = "gamma-on-gamma") -> list[tuple[float, float]]:
    """Sums of 2**(-alpha*(s,gamma)) over the tail at each boundary l, the
    complement of the level-l cross: the blocks whose ``cross_level`` key,
    on gamma in ``gamma-on-gamma`` mode and on gamma' in
    ``gamma-prime-on-gamma`` mode, is >= l.

    One enumeration of the shells (s,1)=m serves every l; it stops once the
    remaining tail is provably below ``TAIL_REL_TOL`` of the smallest
    accumulated value.  Returns ``(value, value / (2**(-alpha*l) * l**(m-1)))``
    per l, with m = d resp. nu.

    Weights come from Python's ``2.0 ** x`` (NumPy's power may differ in the
    last bit), once per distinct x = (s, gamma) of a shell, and are added one
    at a time in lexicographic block order.
    Raises ValueError at once if no shell up to ``TAIL_MAX_SHELL`` can
    certify the sums, and TailTruncationError if that shell is passed first.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got alpha={alpha}")
    if mode not in TAIL_MODES:
        raise ValueError(f"unknown tail mode {mode!r}; expected one of {TAIL_MODES}")
    ls = [float(l) for l in ls]
    if not ls or not all(0 < l < math.inf for l in ls):
        raise ValueError(f"boundaries ls must be nonempty, finite and positive, got {ls}")
    d = params.d
    gamma_star, power = ((params.gamma, d) if mode == "gamma-on-gamma"
                         else (params.gamma_prime, params.nu))
    # the remainder bound falls with m: infinite at the last shell means at every shell
    if math.isinf(_tail_remainder_bound(TAIL_MAX_SHELL, d, alpha)):
        raise ValueError(f"tail sums at alpha={alpha}, d={d} cannot be certified within "
                         f"TAIL_MAX_SHELL={TAIL_MAX_SHELL} shells")
    values = np.zeros(len(ls))
    for m in range(d, TAIL_MAX_SHELL + 1):
        S = compositions(m, d)
        # (s, g) is added left to right, as a loop over the block does, and in
        # gamma-on-gamma mode the key's running sums end in it; each distinct
        # value's weight is computed once and mapped back
        key, sg = _key_and_sum(S, gamma_star)
        if mode != "gamma-on-gamma":
            sg = _key_and_sum(S, params.gamma)[1]
        x, at = np.unique(sg, return_inverse=True)
        weights = np.array([2.0 ** (-alpha * v) for v in x.tolist()])[at]
        outside = key >= np.array(ls)[:, None]
        # adding 0.0 for a block inside boundary l leaves its running sum as it is
        values = np.cumsum(np.column_stack((values, np.where(outside, weights, 0.0))),
                           axis=1)[:, -1]
        bound = _tail_remainder_bound(m, d, alpha)
        if values.min() > 0.0 and bound < TAIL_REL_TOL * values.min():
            break
    else:
        raise TailTruncationError(f"tail sums not converged after shell {TAIL_MAX_SHELL} "
                                  f"(bound {bound:.3e})", partial=float(values.min()))
    return [(v, v / (2.0 ** (-alpha * l) * l ** (power - 1)))
            for v, l in zip(values.tolist(), ls)]


def write_blocks(path, blockset: BlockIndexSet | Iterable[Sequence[int]]) -> None:
    """One block per line, components space separated, lexicographic order."""
    blocks = sorted(tuple(int(x) for x in s) for s in blockset)
    with open(path, "w") as fh:
        for s in blocks:
            fh.write(" ".join(str(x) for x in s) + "\n")
