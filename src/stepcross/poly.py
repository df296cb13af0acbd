"""Sparse multivariate trigonometric polynomials on the torus.

A polynomial is a finite map from integer frequency vectors to complex
coefficients, f(x) = sum_k c_k exp(i k.x) on [0, 2pi)^d.  It is stored as two
arrays: the frequencies as the rows of an int64 matrix ``K`` in strictly
increasing lexicographic order, and the coefficients as a complex vector
``C`` in the same order, so every per-coefficient operation (sums,
products, block splits, projections, the grid scatter) is a NumPy operation
on whole arrays.  Coefficients whose modulus falls below DROP_TOL are
dropped so the representation stays canonically sparse.  Instances are
treated as immutable values; ``coeffs`` and ``terms()`` are read-only views
for callers outside the hot paths.

``eval_grid`` samples a polynomial on a tensor grid by a staged (pruned)
unnormalized inverse FFT with ``numpy.fft``: every stage but the last
transforms only the grid lines that hold a coefficient, and no stage
scales, so the values are f's, bit for bit ``scipy.fft.ifftn(spec,
norm="forward")``.  ``GridLines`` holds a grid before its last stage, so a
caller can reduce it a few lines at a time.
The package needs numpy alone at run time.
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
import numbers
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .blocks import (SmoothParams, block_indices, check_cross_level, cross_level, group_by_block,
                     int_tuple, is_int, mean_zero_block_indices)
from .sparse import cauchy_product, sorted_sums

DROP_TOL = 1e-30
MAX_POINTS = 1 << 26  # the most points of any grid a polynomial is evaluated on


class AliasingError(ValueError):
    """Grid too coarse to hold the polynomial's spectrum."""


class GridBudgetError(ValueError):
    """Requested evaluation grid exceeds the point budget."""


@dataclass(frozen=True)
class GridSpec:
    """Policy for tensor-grid evaluation and quadrature.

    ``points_per_dim=None`` sizes the grid from the polynomial degree:
    ceil(oversampling * (2*deg_j + 1)) per dimension, rounded up to an
    FFT-friendly length.  ``self_check`` turns on the doubling test of
    non-exact quadratures in the norms module.  Every field is checked on
    creation (an oversampling below 1 would alias); no grid, however sized,
    may hold more than ``MAX_POINTS`` points.
    """

    points_per_dim: int | None = None
    oversampling: float = 4.0
    self_check: bool = True

    def __post_init__(self):
        ppd, over = self.points_per_dim, self.oversampling
        for name, ok, want in (
            ("points_per_dim", ppd is None or (is_int(ppd) and ppd >= 1),
             "None or an integer >= 1"),
            ("oversampling", _is_real(over) and over >= 1, "a finite real number >= 1"),
            ("self_check", isinstance(self.self_check, bool), "a bool"),
        ):
            if not ok:
                raise ValueError(f"GridSpec.{name} must be {want}, got {getattr(self, name)!r}")


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def check_exponent(p, name: str = "p") -> None:
    """Reject an exponent that is not a real number >= 1 (inf included)."""
    if not (isinstance(p, numbers.Real) and not isinstance(p, bool) and p >= 1):
        raise ValueError(f"{name} must be a real number >= 1 or inf, got {p!r}")


class TrigPoly:
    """A polynomial stored as arrays: ``K``, the frequencies as the rows of an
    nnz x d int64 matrix in strictly increasing lexicographic order, and
    ``C``, the complex coefficients in the same order.  Both are read-only.

    ``TrigPoly(d, coeffs)`` takes a mapping from frequency tuples to
    coefficients; ``TrigPoly.from_arrays(K, C)`` takes the two arrays, rows in
    any order, and sums the coefficients of a repeated frequency in the order
    given; ``f.take(rows, C)`` keeps some of f's terms, already in order;
    ``f * g`` is the product of two polynomials.  Every way drops the
    coefficients of modulus below ``DROP_TOL``.  A frequency component that
    is not an integer (``is_int``) or a new coefficient that is not finite is
    an error naming it.
    """

    __slots__ = ("d", "K", "C")

    def __init__(self, d: int, coeffs: Mapping[tuple[int, ...], complex] | None = None):
        if not (is_int(d) and d >= 1):
            raise ValueError(f"dimension must be an integer >= 1, got d={d!r}")
        coeffs = coeffs or {}
        bad = next((k for k in coeffs if len(k) != d), None)
        if bad is not None:
            raise ValueError(f"frequency {tuple(bad)} has dimension {len(bad)}, expected {d}")
        if not all(map(is_int, chain.from_iterable(coeffs))):
            for k in coeffs:
                int_tuple(k, "frequency", "k")
        K = np.array(list(coeffs), dtype=np.int64).reshape(len(coeffs), d)
        C = np.fromiter(coeffs.values(), dtype=complex, count=len(coeffs))
        self._store(*sorted_sums(K, C))

    @staticmethod
    def from_arrays(K: np.ndarray, C: np.ndarray) -> "TrigPoly":
        K, C = np.asarray(K), np.array(C, dtype=complex)
        if K.size and K.dtype.kind not in "iu":
            raise ValueError(f"frequencies must be integers, got a {K.dtype} array "
                             f"starting {K.flat[:3].tolist()}")
        K = np.array(K, dtype=np.int64)
        if K.ndim != 2 or K.shape[1] < 1 or C.shape != K.shape[:1]:
            raise ValueError(f"need an nnz x d frequency matrix and nnz coefficients, "
                             f"got shapes {K.shape} and {C.shape}")
        f = object.__new__(TrigPoly)
        f._store(*sorted_sums(K, C))
        return f

    def take(self, rows, C: np.ndarray | None = None) -> "TrigPoly":
        """The terms at ``rows`` (a slice, a boolean mask or increasing
        positions), with the coefficients ``C`` in place of theirs if given.
        The frequencies stay in order, so nothing is sorted or summed.  Only
        new coefficients pass the ``DROP_TOL`` filter: f's own passed it."""
        K = self.K[rows]
        f = object.__new__(TrigPoly)
        if C is None:
            f._set(K, self.C[rows])
            return f
        C = np.array(C, dtype=complex)
        if C.shape != K.shape[:1]:
            raise ValueError(f"{len(C)} coefficients for {len(K)} terms")
        f._store(K, C)
        return f

    def _store(self, K: np.ndarray, C: np.ndarray) -> None:
        """``_set`` with the terms that ``kept_terms`` keeps."""
        keep = kept_terms(K, C)[1]
        if np.count_nonzero(keep) < len(keep):
            K, C = K[keep], C[keep]
        self._set(K, C)

    def _set(self, K: np.ndarray, C: np.ndarray) -> None:
        """Set d, K and C read-only from sorted distinct rows; K and C must
        not be shared with a caller that writes to them."""
        K.setflags(write=False)
        C.setflags(write=False)
        object.__setattr__(self, "d", K.shape[1])
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "C", C)

    def __setattr__(self, name, value):
        raise AttributeError("TrigPoly is immutable")

    @property
    def coeffs(self) -> Mapping[tuple[int, ...], complex]:
        """Read-only frequency -> coefficient view, built on each access."""
        return MappingProxyType(dict(self.terms()))

    @property
    def nnz(self) -> int:
        return len(self.C)

    def is_zero(self) -> bool:
        return not len(self.C)

    def terms(self) -> list[tuple[tuple[int, ...], complex]]:
        """Coefficients in sorted frequency order (deterministic reductions)."""
        return list(zip(map(tuple, self.K.tolist()), self.C.tolist()))

    def abs2(self) -> np.ndarray:
        """|c|**2 per coefficient, bit for bit as Python's abs(c) ** 2: the
        modulus by hypot, the square by pow."""
        return np.float_power(_modulus(self.C), 2)

    def degree(self) -> tuple[int, ...]:
        """Max |k_j| per coordinate (all zeros for the zero polynomial)."""
        if self.is_zero():
            return (0,) * self.d
        return tuple(np.abs(self.K).max(axis=0).tolist())

    def is_mean_zero(self) -> bool:
        """True iff no stored frequency has a vanishing component."""
        return bool(self.K.all())

    def __eq__(self, other) -> bool:
        return (isinstance(other, TrigPoly) and self.d == other.d
                and np.array_equal(self.K, other.K) and np.array_equal(self.C, other.C))

    def __hash__(self):
        # adding 0.0 turns -0.0 into 0.0, so equal coefficients hash alike
        return hash((self.d, self.K.tobytes(), (self.C + 0.0).tobytes()))

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        return TrigPoly.from_arrays(np.concatenate((self.K, other.K)),
                                    np.concatenate((self.C, other.C)))

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def __neg__(self) -> "TrigPoly":
        return self.take(slice(None), -self.C)

    def __mul__(self, other) -> "TrigPoly":
        """f times a scalar, or the product f g of two polynomials
        (``sparse.cauchy_product``, of at most ``MAX_POINTS`` pairs)."""
        if isinstance(other, TrigPoly):
            f = object.__new__(TrigPoly)
            f._store(*cauchy_product(self.K, self.C, other.K, other.C, MAX_POINTS))
            return f
        c = complex(other)
        if not self.is_zero() and not cmath.isfinite(c):
            # as _store names it, before numpy warns of inf times a zero part
            raise ValueError(f"coefficient {c * complex(self.C[0])} of frequency "
                             f"{tuple(self.K[0].tolist())} is not finite")
        with np.errstate(over="ignore", invalid="ignore"):  # _store names what is not finite
            return self.take(slice(None), c * self.C)

    __rmul__ = __mul__

    def evaluate(self, x: Sequence[float]) -> complex:
        """Direct pointwise evaluation; slow, used as an oracle."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise ValueError(f"point has {x.size} coordinates, expected d = {self.d}")
        for j, v in enumerate(x.tolist(), start=1):
            if not math.isfinite(v):
                raise ValueError(f"point coordinate {j} is {v}, expected a finite number")
        return sum(c * np.exp(1j * float(np.dot(k, x))) for k, c in self.terms())

    def __repr__(self):
        return f"TrigPoly(d={self.d}, nnz={self.nnz})"

    @staticmethod
    def zero(d: int) -> "TrigPoly":
        return TrigPoly(d, {})

    @staticmethod
    def exponential(k: Sequence[int], c: complex = 1.0) -> "TrigPoly":
        k = int_tuple(k, "frequency", "k")
        return TrigPoly(len(k), {k: c})


def _modulus(C: np.ndarray) -> np.ndarray:
    """|c| per coefficient by hypot, as Python's abs(complex) computes it."""
    return np.hypot(C.real, C.imag)


def kept_terms(K: np.ndarray, C: np.ndarray, whose: str = "") -> tuple[np.ndarray, np.ndarray]:
    """|c| of each coefficient (``_modulus``) and which terms (K, C) a
    ``TrigPoly`` keeps: those of modulus >= ``DROP_TOL``.  A coefficient
    that is not finite is an error naming it, its frequency and ``whose``
    it is."""
    mod = _modulus(C)  # not finite iff a part is not
    finite = np.isfinite(mod)
    if np.count_nonzero(finite) < len(finite):
        i = np.argmin(finite)
        raise ValueError(f"coefficient {C[i]} of frequency {tuple(K[i].tolist())} {whose}"
                         "is not finite")
    return mod, mod >= DROP_TOL


def _smooth_numbers(limit: int) -> list[int]:
    """The 11-smooth numbers up to ``limit`` in increasing order: the lengths
    pocketfft's complex transform splits into its specialised passes."""
    nums = [1]
    for p in (2, 3, 5, 7, 11):
        for i in range(len(nums)):  # times each power of p, up to the limit
            m = nums[i] * p
            while m <= limit:
                nums.append(m)
                m *= p
    return sorted(nums)


_FAST_LENS = _smooth_numbers(2 * MAX_POINTS)


def _fast_len(n: int) -> int:
    """The least 11-smooth length >= n, as ``scipy.fft.next_fast_len(n,
    real=False)`` gives it; n itself above the table, where no grid fits the
    budget."""
    n = int(n)
    i = bisect.bisect_left(_FAST_LENS, n)
    return _FAST_LENS[i] if i < len(_FAST_LENS) else n


def resolve_grid_dims(f: TrigPoly, grid: GridSpec) -> tuple[int, ...]:
    """Concrete per-dimension grid sizes for evaluating ``f``."""
    deg = f.degree()
    if grid.points_per_dim is not None:
        dims = (int(grid.points_per_dim),) * f.d
        for n, m in zip(dims, deg):
            if n < 2 * m + 1:
                raise AliasingError(f"grid of {n} points aliases degree {m}")
    else:
        dims = tuple(_fast_len(math.ceil(grid.oversampling * (2 * m + 1))) for m in deg)
    check_grid_budget(dims)
    return dims


def check_grid_budget(dims: Sequence[int]) -> None:
    """Raise GridBudgetError if the ``dims`` grid has over ``MAX_POINTS`` points."""
    total = math.prod(dims)
    if total > MAX_POINTS:
        raise GridBudgetError(f"grid of {total} points exceeds budget {MAX_POINTS}")


class GridLines:
    """A polynomial on the uniform tensor grid x_j = 2*pi*j/N_j, transformed
    along every axis but the last: the grid's lines along axis d-1, each
    waiting for its last unnormalized inverse FFT.  ``GridLines(f, dims,
    rows)`` runs the pruned stages over axes 0..d-2 that ``eval_grid``
    describes, and ``transform(first, out)`` runs the last stage on lines
    first..first + len(out) - 1 in flat order, bit for bit as on the whole
    grid.  No stage scales.

    ``count`` lines of ``n`` points make up the first ``rows`` rows of the
    grid (for d = 1, one line: the whole axis, of which the first ``rows``
    points are wanted).  Between the stages only the last stage's input is
    held: the lines that hold a nonzero, ``at`` on axis d-1.  ``f`` that is
    not one ``TrigPoly`` is a TypeError, and a dim that is not an integer
    >= 1 or ``rows`` out of range a ValueError, before any work.
    """

    __slots__ = ("dims", "count", "n", "at", "src")

    def __init__(self, f: TrigPoly, dims: Sequence[int], rows: int | None = None):
        if not isinstance(f, TrigPoly):
            raise TypeError(f"a grid holds one TrigPoly, got a {type(f).__name__}")
        for n in dims:
            if not (is_int(n) and n >= 1):
                raise ValueError(f"grid dims must be integers >= 1, got {n!r} in {tuple(dims)!r}")
        dims = tuple(map(int, dims))
        if f.d != len(dims):
            raise ValueError("grid dimension mismatch")
        if rows is None:
            rows = dims[0]
        elif not (is_int(rows) and 1 <= rows <= dims[0]):
            raise ValueError(f"rows must be an integer from 1 to N_0 = {dims[0]}, got {rows!r}")
        shape = (rows,) + dims[1:]  # the part of the grid wanted
        self.dims, self.n = dims, dims[-1]
        self.count = math.prod(shape[:-1])
        # vals[..., j] is line j, transformed along the axes before a; lines[j]
        # is its flat index over the axes a..d-1 not yet transformed
        vals, R = f.C, np.mod(f.K, dims)  # k mod N_j per coordinate
        # a frequency's position on axis 0, and its line's index over the other axes
        at, lines = R[:, 0], (R[:, -1] if len(dims) < 3 else
                              np.ravel_multi_index(R[:, 1:].T, dims[1:]))
        for a, n in enumerate(dims[:-1]):
            tail = math.prod(dims[a + 1:])
            at, rest = (at, lines) if a == 0 else np.divmod(lines, tail)
            occupied = np.zeros(tail, dtype=bool)
            occupied[rest] = True
            lines = occupied.nonzero()[0]
            spec = np.zeros(shape[:a] + (len(lines), n), dtype=complex)
            index = (..., lines.searchsorted(rest), at)
            if a == 0:  # the coefficients: frequencies that land on one index add up
                np.add.at(spec, index, vals)
            else:
                spec[index] = vals
            np.fft.ifft(spec, norm="forward", out=spec)
            vals = spec.swapaxes(-1, -2)[:rows]  # a no-op after the first stage
        # the last stage's input: shape[:-1] + (lines,) for d > 1, the
        # coefficients for d = 1
        self.at, self.src = lines, vals

    def transform(self, first: int, out: np.ndarray) -> np.ndarray:
        """Lines first..first + len(out) - 1 of the grid, transformed along
        axis d-1 (f's values), written into ``out``, a C-contiguous complex
        array of shape (lines, n) that holds zeros; returns ``out``.

        A grid of d = 1 scatters its one line whole.  For d >= 2 the range
        is read as a view of the input: from each leading axis whose one
        index holds the whole range, that index, and then whole indices of
        the next axis (whole rows, or a run of lines inside one row).  Any
        other range is rejected.
        """
        if len(self.dims) == 1:  # the coefficients: frequencies on one index add up
            if (first, len(out)) != (0, 1):
                raise ValueError(f"lines {first}..{first + len(out) - 1} are not the whole"
                                 " d = 1 grid, line 0")
            np.add.at(out.reshape(-1), self.at, self.src)
        else:
            src, lo = self.src, first
            while True:
                inner = math.prod(src.shape[1:-1])  # lines per index of src's first axis
                if src.ndim == 2 or (lo + len(out) - 1) // inner != lo // inner:
                    break
                src, lo = src[lo // inner], lo % inner
            if lo % inner or len(out) % inner:
                raise ValueError(f"lines {first}..{first + len(out) - 1} are neither whole "
                                 "rows nor a run of lines inside one row")
            src = src[lo // inner:(lo + len(out)) // inner]
            out.reshape(src.shape[:-1] + (self.n,))[..., self.at] = src
        return np.fft.ifft(out, norm="forward", out=out)


def eval_grid(f: TrigPoly, dims: Sequence[int], rows: int | None = None) -> np.ndarray:
    """Values of f on the uniform tensor grid x_j = 2*pi*j/N_j, as a new
    C-contiguous, writable complex array of shape ``dims``; with ``rows``
    (an integer from 1 to N_0), rows 0..rows-1 of that grid alone, equal to
    ``eval_grid(f, dims)[:rows]`` bit for bit.

    Frequency k lands on index k mod N_j in each coordinate, and frequencies
    that land on one index add up, so the values are exact for any dims >= 1
    (they are those of f with its frequencies folded onto the grid).  Check
    dims that ``resolve_grid_dims`` did not size with ``check_grid_budget``.

    The unnormalized inverse FFT (``numpy.fft.ifft`` with
    ``norm="forward"``, in place) runs one axis at a time in ``ifftn``'s
    order 0, 1, ..., d-1, and an axis-a stage before the last transforms only
    the lines that hold a nonzero: one per distinct residue tuple of
    coordinates a+1..d-1 that some frequency has.  Each stage holds its lines
    as the rows of its buffer, so every transform runs along a contiguous
    axis.  ``GridLines`` runs the stages before the last, and its
    ``transform`` runs the last one on all lines: it scatters them onto the
    full grid and transforms along axis d-1.  No stage scales, so the values
    equal ``scipy.fft.ifftn(spec, norm="forward")`` bit for bit (up to the
    sign of a zero), as the tests check.  Besides the grid, the last stage's
    input is held while the grid is filled: at most 1/oversampling of the
    grid for a grid sized from the degree, up to a whole grid for a dense
    spectrum on a ``points_per_dim`` grid.  With ``rows``, the first stage
    still transforms whole lines of axis 0, and only their first ``rows``
    values go on to the later stages.
    """
    lines = GridLines(f, dims, rows)
    out = lines.transform(0, np.zeros((lines.count, lines.n), dtype=complex))
    if len(lines.dims) == 1:  # one line, of which rows points are wanted
        out = np.ascontiguousarray(out[:, :rows])
    return out.reshape((-1,) + lines.dims[1:])


def blocks_of(f: TrigPoly) -> dict[tuple[int, ...], TrigPoly]:
    """Partition of the spectrum into dyadic blocks, sorted by block index.

    Frequencies with a zero component belong to no block and are rejected.
    """
    return {s: f.take(rows) for s, rows in group_by_block(mean_zero_block_indices(f.K))}


def project_cross(f: TrigPoly, n: float, params: SmoothParams,
                  gamma_mode: str = "gamma") -> TrigPoly:
    """Fourier sum over the level-n cross ``hyperbolic_cross(n, params,
    gamma_mode)``: keep the terms whose block has every component >= 1 and
    a ``cross_level`` key below n."""
    check_cross_level(n)
    gamma = params.gamma_for(gamma_mode)
    if f.d != params.d:
        raise ValueError("dimension mismatch")
    S = block_indices(f.K)  # 0 in a zero component, which lies in no block
    return f.take(S.all(axis=1) & (cross_level(S, gamma) < n))


def write_jsonl(path, f: TrigPoly) -> None:
    """JSON lines: a {"d": d} header, then one {"k", "re", "im"} per term."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"d": f.d}) + "\n")
        for k, c in f.terms():
            fh.write(json.dumps({"k": list(k), "re": c.real, "im": c.imag}) + "\n")


def read_jsonl(path) -> TrigPoly:
    """Inverse of ``write_jsonl``; a line that is not JSON, a header without
    an integer d >= 1, a line that is not a term record, a frequency given
    twice or of another dimension, a component of ``k`` that is not an
    integer or a part ``re`` or ``im`` that is not a number is an error
    naming the path and its line."""
    with open(path) as fh:
        header = _json_line(path, 1, fh.readline())
        d = header.get("d") if isinstance(header, dict) else None
        if not (is_int(d) and d >= 1):
            raise ValueError(f"{path}: line 1: dimension must be an integer >= 1, got d={d!r}")
        coeffs = {}
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            rec = _json_line(path, lineno, line)
            if not (isinstance(rec, dict) and rec.keys() >= {"k", "re", "im"}
                    and isinstance(rec["k"], list)):
                raise ValueError(f'{path}: line {lineno} is not a {{"k", "re", "im"}} record')
            k, parts = tuple(rec["k"]), (rec["re"], rec["im"])
            if not all(map(is_int, k)):
                raise ValueError(f"{path}: line {lineno} has frequency {rec['k']}, "
                                 "expected integers")
            if len(k) != d:
                raise ValueError(f"{path}: line {lineno} has frequency {rec['k']} of dimension "
                                 f"{len(k)}, expected d = {d}")
            if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in parts):
                raise ValueError(f"{path}: line {lineno} has re, im = {parts}, expected numbers")
            if k in coeffs:
                raise ValueError(f"{path}: line {lineno} repeats frequency {list(k)}")
            coeffs[k] = complex(*parts)
    return TrigPoly(d, coeffs)


def _json_line(path, lineno: int, line: str):
    """Line ``lineno`` of ``path`` parsed as JSON, or an error naming both."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {lineno} is not JSON: {exc.msg} at column "
                         f"{exc.colno}") from None
