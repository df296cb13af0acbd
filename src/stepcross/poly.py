"""Sparse multivariate trigonometric polynomials on the torus.

A polynomial is a finite map from integer frequency vectors to complex
coefficients, f(x) = sum_k c_k exp(i k.x) on [0, 2pi)^d.  Coefficients whose
modulus falls below DROP_TOL are dropped so the representation stays
canonically sparse.  Instances are treated as immutable values.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.fft

from .blocks import BlockIndexSet, block_of

DROP_TOL = 1e-30


class AliasingError(ValueError):
    """Grid too coarse to hold the polynomial's spectrum."""


class GridBudgetError(ValueError):
    """Requested evaluation grid exceeds the point budget."""


@dataclass(frozen=True)
class GridSpec:
    """Policy for tensor-grid evaluation and quadrature.

    ``points_per_dim=None`` sizes the grid from the polynomial degree:
    ceil(oversampling * (2*deg_j + 1)) per dimension, rounded up to an
    FFT-friendly length.  The self-check fields control the doubling test
    applied to non-exact quadratures in the norms module.  Every field is
    checked on creation; an oversampling below 1, for one, would alias.
    """

    points_per_dim: int | None = None
    oversampling: float = 4.0
    self_check: bool = True
    check_rtol: float = 1e-6
    max_refine: int = 10
    max_points: int = 1 << 26

    def __post_init__(self):
        ppd, over, rtol = self.points_per_dim, self.oversampling, self.check_rtol
        for name, ok, want in (
            ("points_per_dim", ppd is None or (_is_int(ppd) and ppd >= 1),
             "None or an integer >= 1"),
            ("oversampling", _is_real(over) and over >= 1, "a finite real number >= 1"),
            ("self_check", isinstance(self.self_check, bool), "a bool"),
            ("check_rtol", _is_real(rtol) and rtol > 0, "a finite real number > 0"),
            ("max_refine", _is_int(self.max_refine) and self.max_refine >= 0,
             "an integer >= 0"),
            ("max_points", _is_int(self.max_points) and self.max_points >= 1,
             "an integer >= 1"),
        ):
            if not ok:
                raise ValueError(f"GridSpec.{name} must be {want}, got {getattr(self, name)!r}")


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


class TrigPoly:
    __slots__ = ("d", "_coeffs")

    def __init__(self, d: int, coeffs: Mapping[tuple[int, ...], complex] | None = None):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        clean: dict[tuple[int, ...], complex] = {}
        if coeffs:
            for k, c in coeffs.items():
                k = tuple(int(x) for x in k)
                if len(k) != d:
                    raise ValueError(f"frequency {k} has dimension {len(k)}, expected {d}")
                c = complex(c)
                if abs(c) >= DROP_TOL:
                    clean[k] = c
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TrigPoly is immutable")

    @property
    def coeffs(self) -> Mapping[tuple[int, ...], complex]:
        return self._coeffs

    @property
    def nnz(self) -> int:
        return len(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def terms(self) -> list[tuple[tuple[int, ...], complex]]:
        """Coefficients in sorted frequency order (deterministic reductions)."""
        return sorted(self._coeffs.items())

    def degree(self) -> tuple[int, ...]:
        """Max |k_j| per coordinate (all zeros for the zero polynomial)."""
        if not self._coeffs:
            return (0,) * self.d
        return tuple(max(abs(k[j]) for k in self._coeffs) for j in range(self.d))

    def is_mean_zero(self) -> bool:
        """True iff no stored frequency has a vanishing component."""
        return all(all(kj != 0 for kj in k) for k in self._coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TrigPoly) and self.d == other.d and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.d, frozenset(self._coeffs.items())))

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return TrigPoly(self.d, out)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly(self.d, {k: -c for k, c in self._coeffs.items()})

    def __mul__(self, scalar) -> "TrigPoly":
        scalar = complex(scalar)
        return TrigPoly(self.d, {k: scalar * c for k, c in self._coeffs.items()})

    __rmul__ = __mul__

    def evaluate(self, x: Sequence[float]) -> complex:
        """Direct pointwise evaluation; slow, used as an oracle."""
        x = np.asarray(x, dtype=float)
        return sum(c * np.exp(1j * float(np.dot(k, x))) for k, c in self.terms())

    def __repr__(self):
        return f"TrigPoly(d={self.d}, nnz={self.nnz})"

    @staticmethod
    def zero(d: int) -> "TrigPoly":
        return TrigPoly(d, {})

    @staticmethod
    def exponential(k: Sequence[int], c: complex = 1.0) -> "TrigPoly":
        k = tuple(int(x) for x in k)
        return TrigPoly(len(k), {k: c})


def _fast_len(n: int) -> int:
    return scipy.fft.next_fast_len(int(n), real=False)


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
    total = math.prod(dims)
    if total > grid.max_points:
        raise GridBudgetError(f"grid of {total} points exceeds budget {grid.max_points}")
    return dims


def eval_grid(f: TrigPoly, dims: Sequence[int]) -> np.ndarray:
    """Values of f on the uniform tensor grid x_j = 2*pi*j/N_j.

    Coefficients are scattered onto the N_1 x ... x N_d frequency grid and an
    inverse FFT recovers the samples exactly.  ``dims`` must not alias f's
    spectrum: size them with ``resolve_grid_dims``, which also applies the
    point budget.
    """
    dims = tuple(int(n) for n in dims)
    if len(dims) != f.d:
        raise ValueError("grid dimension mismatch")
    spec = np.zeros(dims, dtype=complex)
    if f.nnz:
        ks = np.array(sorted(f.coeffs), dtype=np.int64)
        vals = np.array([f.coeffs[tuple(k)] for k in ks], dtype=complex)
        idx = tuple(np.mod(ks[:, j], dims[j]) for j in range(f.d))
        spec[idx] = vals
    out = scipy.fft.ifftn(spec, overwrite_x=True)
    out *= math.prod(dims)
    return out


def blocks_of(f: TrigPoly) -> dict[tuple[int, ...], TrigPoly]:
    """Partition of the spectrum into dyadic blocks, sorted by block index.

    Frequencies with a zero component belong to no block and are rejected.
    """
    groups: dict[tuple[int, ...], dict] = {}
    for k, c in f.coeffs.items():
        s = block_of(k)
        if s is None:
            raise ValueError(f"frequency {k} has a zero component (not in any dyadic block)")
        groups.setdefault(s, {})[k] = c
    return {s: TrigPoly(f.d, g) for s, g in sorted(groups.items())}


def project_cross(f: TrigPoly, cross: BlockIndexSet) -> TrigPoly:
    """Fourier sum over the cross: keep coefficients whose block lies in it."""
    if f.d != cross.d:
        raise ValueError("dimension mismatch")
    kept = {}
    for k, c in f.coeffs.items():
        s = block_of(k)
        if s is not None and s in cross:
            kept[k] = c
    return TrigPoly(f.d, kept)


def mixed_difference(f: TrigPoly, order: Sequence[int], h: Sequence[float]) -> TrigPoly:
    """Mixed finite difference acting coefficient-wise.

    The coefficient at k picks up the exact factor
    prod_j (exp(i k_j h_j) - 1) ** order_j.
    """
    order = tuple(int(x) for x in order)
    h = tuple(float(x) for x in h)
    if len(order) != f.d or len(h) != f.d:
        raise ValueError("dimension mismatch")
    if any(o < 1 for o in order):
        raise ValueError("difference orders must be >= 1")
    out = {}
    for k, c in f.coeffs.items():
        mult = 1.0 + 0.0j
        for kj, oj, hj in zip(k, order, h):
            mult *= (np.exp(1j * kj * hj) - 1.0) ** oj
        out[k] = c * mult
    return TrigPoly(f.d, out)


def write_jsonl(path, f: TrigPoly) -> None:
    """JSON lines: a {"d": d} header, then one {"k", "re", "im"} per term."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"d": f.d}) + "\n")
        for k, c in f.terms():
            fh.write(json.dumps({"k": list(k), "re": c.real, "im": c.imag}) + "\n")


def read_jsonl(path) -> TrigPoly:
    with open(path) as fh:
        header = json.loads(fh.readline())
        d = int(header["d"])
        coeffs = {}
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            coeffs[tuple(int(x) for x in rec["k"])] = complex(rec["re"], rec["im"])
    return TrigPoly(d, coeffs)
