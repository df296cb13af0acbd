"""Sweep the cross level, record errors, and fit the predicted order
2**(-a n) * n**b against the measurements.

The swept member is the scaled Dirichlet shell of ``shell_extremal``.  A
sweep lists its blocks once, in lexicographic order with their
``cross_level`` keys, and no sweep builds a cross.  For q > 1 the member
is the per-block weights prod_j phi_q(s_j), phi_q(s) = ||D_s||_q
(``block_profile``, once per s), and a level's error is its scale times the
sum of its shell's weights (the shell lies outside the cross): for q < inf
the Fourier sum is the best sharp-norm approximation and a sharp block
factors; for q = inf the member and every smooth filter are nonnegative, so
its B_{inf,1} norm is f(0) and phi_inf(s) = 2**s.  phi_2 and phi_4 are
closed forms too; any other q integrates |D_s|**q by Gauss-Legendre panels
between the explicit zeros of D_s (``dirichlet_lq_mean``), so a sweep
evaluates no grid.  For q = 1 (smooth blocks, which do not factor) the
member is built, projected and measured once; that polynomial path is the
tests' oracle for the profile path.

Jointly estimating (a, b) from desk-scale n is ill conditioned because
log2(n) drifts slowly, so the acceptance protocol pins a at its predicted
value and fits only the logarithmic power and intercept; the free fit is
kept for diagnostics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .approx import best_approx_upper
from .blocks import SmoothParams, check_cross_level, cross_candidates
from .extremal import shell_extremal, shell_scale
from .poly import check_exponent, is_int

FIT_MODES = ("free", "slope-fixed")
GL_NODES = 32  # Gauss-Legendre nodes per panel of a Dirichlet block profile
PANEL_CHUNK = 2048  # panels per profile step: 2**16 points, 0.5 MB per array


@dataclass(frozen=True)
class RateFit:
    a_hat: float
    b_hat: float
    c_hat: float
    residual_rms: float
    a_theory: float
    b_theory: float
    mode: str


@dataclass(frozen=True)
class SweepRow:
    n: int
    cardinality: int
    error: float


def theory_exponents(p: float, q: float, theta: float, params: SmoothParams,
                     gamma_mode: str) -> tuple[float, float]:
    """Predicted (a, b) for the error of approximation from the level-n cross.

    a = r1 - (1/p - 1/q)_+ and b = (mu - 1)(1 - 1/theta), where mu counts the
    minimal smoothness coordinates for the gamma-prime cross (and for the
    genuinely off-diagonal p < q case) and equals d for the plain gamma cross
    on the diagonal p >= q.
    """
    pinv = 0.0 if math.isinf(p) else 1.0 / p
    qinv = 0.0 if math.isinf(q) else 1.0 / q
    a = params.r1 - max(pinv - qinv, 0.0)
    if p < q:
        mu = params.nu
    else:
        mu = params.nu if gamma_mode == "gamma-prime" else params.d
    theta_inv = 0.0 if math.isinf(theta) else 1.0 / theta
    b = (mu - 1) * (1.0 - theta_inv)
    return a, b


def regimes(p: float, q: float, d: int) -> tuple[str, ...]:
    """Theorem regimes whose hypotheses on (p, q) hold in dimension d, the
    canonical one first: T1 for 1 < p < q < inf, T2 for 1 < p = q < inf, T3
    for p = q in {1, inf}, T4 for 1 <= q < p <= inf.  At d = 1 the logarithmic
    factor vanishes, so T2 also covers p = q in {1, inf}.

    Raises ValueError naming the violated condition when no regime applies.
    """
    if p < q:
        if not (1 < p and q < math.inf):
            raise ValueError("off-diagonal p < q regime requires 1 < p < q < inf")
        return ("T1",)
    if q < p:
        if q < 1:
            raise ValueError("q < p regime requires 1 <= q")
        return ("T4",)
    if 1 < p < math.inf:
        return ("T2",)
    if p in (1.0, math.inf):
        return ("T3", "T2") if d == 1 else ("T3",)
    raise ValueError("diagonal regime requires 1 <= p = q <= inf")


def validate_hypotheses(p: float, q: float, theta: float, params: SmoothParams,
                        gamma_mode: str) -> None:
    """Reject parameter combinations outside every covered regime, naming the
    violated condition."""
    check_exponent(theta, "theta")
    if regimes(p, q, params.d) == ("T1",):
        if params.r1 <= 1.0 / p - 1.0 / q:
            raise ValueError("requires r1 > 1/p - 1/q")
        if gamma_mode == "gamma-prime":
            raise ValueError("off-diagonal p < q regime uses the gamma cross")


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes, increasing, and weights of the n-point Gauss-Legendre rule on
    [0, 1], read-only and computed once per n.

    Newton's method on P_n(cos th) = sum_k g_k g_(n-k) cos((n-2k) th), with
    g_k = (2k-1)!! / (2k)!!, in th from th_i = pi (4i-1) / (4n+2); each step
    is one cos and one sin of an n x (n+1) array.  The step after one below
    1e-10 leaves the roots at rounding.  The node is u = sin(th/2)**2 and the
    weight 1 / (dP/dth)**2, half of 2 / ((1 - x**2) P_n'(x)**2) at
    x = cos th, both taken at the final roots.
    """
    k = np.arange(n + 1)
    g = np.cumprod(np.concatenate(([1.0], (2 * k[1:] - 1) / (2 * k[1:]))))
    c, f = g * g[::-1], n - 2 * k
    th = np.pi * (4 * np.arange(1, n + 1) - 1) / (4 * n + 2)
    step = np.inf
    while np.abs(step).max() >= 1e-10:
        phase = np.multiply.outer(th, f)
        step = (np.cos(phase) @ c) / -(np.sin(phase) @ (c * f))
        th = th - step
    dp = np.sin(np.multiply.outer(th, f)) @ (c * f)
    u, w = np.sin(th / 2) ** 2, 1 / (dp * dp)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def dirichlet_lq_mean(q: float, s: int) -> float:
    """||D_s||_q**q, the mean of |D_s|**q over the torus, by Gauss-Legendre
    panels between the zeros of D_s.

    D_s(x) = 2 cos(w x) sin(m x) / sin(x/2), with w = 3 * 2**(s-2) - 1/2 and
    m = 2**(s-2), is even and 2pi-periodic, so the mean is 1/pi times the
    integral over [0, pi].  There its zeros are pi (2j+1) / (2w) and pi i / m,
    and between two consecutive ones |D_s|**q is analytic.  The substitution
    x = lo + L (3u**2 - 2u**3) turns a zero |x - lo|**q at a panel end into
    u**(2q) times an analytic factor, so ``GL_NODES`` nodes per panel give
    the integral to rounding.  The 2**s or so panels are evaluated
    ``PANEL_CHUNK`` at a time.
    """
    u, weights = gauss_legendre(GL_NODES)
    t, cw = u * u * (3 - 2 * u), 6 * weights * u * (1 - u)
    w2, m = 3 * 2 ** (s - 1) - 1, 2.0 ** (s - 2)
    zeros = np.sort(np.concatenate((np.arange(1, w2, 2) / w2, np.arange(1, m) / m)))
    edges = np.pi * np.concatenate(([0.0], zeros, [1.0]))
    total = 0.0
    for a in range(0, len(edges) - 1, PANEL_CHUNK):
        ends = edges[a:a + PANEL_CHUNK + 1]
        L = np.diff(ends)
        x = ends[:-1, None] + L[:, None] * t
        D = np.cos((w2 / 2) * x) * np.sin(m * x) / np.sin(x / 2)
        total += np.abs(D) ** q @ cw @ L
    return 2.0**q * total / np.pi


def block_profile(q: float, s: int) -> float:
    """phi_q(s) = ||D_s||_q, the L_q norm of the 1-D Dirichlet block, unit
    coefficients on 2**(s-1) <= |k| < 2**s.

    Exact in closed form for q = inf (2**s, the block's term count, its
    value at x = 0), q = 2 (Parseval, 2**(s/2)) and q = 4
    (||D_s||_4**4 = 2**(3s-1) + 2**s, the number of k1 + k2 = k3 + k4 in the
    block); any other q is the panel quadrature ``dirichlet_lq_mean``, which
    evaluates no grid.  q must be a real number >= 1 or inf and s an integer
    >= 1; either fails before any work, naming it.
    """
    check_exponent(q, "q")
    if not (is_int(s) and s >= 1):
        raise ValueError(f"s must be an integer >= 1, got {s!r}")
    s = int(s)
    if q == math.inf:
        return 2.0**s
    if q == 2:
        return 2.0 ** (s / 2)
    if q == 4:
        return (2.0 ** (3 * s - 1) + 2.0**s) ** 0.25
    return dirichlet_lq_mean(q, s) ** (1 / q)


def sweep_extremal(p: float, q: float, theta: float, params: SmoothParams,
                   gamma_mode: str, n_range: Sequence[int]) -> list[SweepRow]:
    """Errors of the per-level extremal member across a range of cross levels.

    Each level records the error of ``best_approx_upper`` on
    ``shell_extremal`` (whose smooth aggregate is empty) and the level-n
    cross's frequency count, the sum of 2**(s,1) over the blocks whose key
    is below n.  A level that is not an integer, or lies below d or above
    ``MAX_CROSS_LEVEL``, fails up front.  The blocks of shells d..top, with
    their ``cross_level`` keys, are listed once (``cross_candidates``).

    For q > 1 no polynomial is built.  The shell (s,1) = n lies outside the
    level-n cross, and the error is ``shell_scale(n, d, r1 + 1 - 1/p,
    theta)``, the member's scale, times the Python ``sum``, left to right in
    lexicographic order, of the shell's weights prod_j ``block_profile(q,
    s_j)``.  It agrees with the polynomial path to rounding for q in {2, 4,
    inf}, and otherwise to that path's self-checked quadrature, off by up to
    3.3e-7 on the 1-D block D_s at q = 2.5.  For q = 1 each level builds the
    member, and ``best_approx_upper`` keeps its terms by the same key.
    """
    validate_hypotheses(p, q, theta, params, gamma_mode)
    d = params.d
    for n in n_range:
        if not is_int(n):
            raise ValueError(f"cross levels must be integers, got n={n!r}")
    if min(n_range, default=d) < d:
        raise ValueError(f"need n >= d for a nonempty shell, got n={min(n_range)}, d={d}")
    top = max(n_range, default=d)
    check_cross_level(top)
    S, key = cross_candidates(top + 1, d, params.gamma_for(gamma_mode))
    level = S.sum(axis=1)
    if q > 1:
        phi = np.array([block_profile(q, s) for s in range(1, top - d + 2)])
        weight = functools.reduce(np.multiply, phi[S.T - 1])  # prod_j phi_q(s_j), left to right
    rows = []
    for n in n_range:
        if q > 1:
            total = sum(weight[level == n].tolist(), 0.0)
            err = shell_scale(n, d, params.r1 + 1.0 - 1.0 / p, theta) * total
        else:
            member = shell_extremal(n, d, params.r1, p, theta)
            err = best_approx_upper(member, n, params, gamma_mode, q)
        rows.append(SweepRow(n=n, cardinality=int((2 ** level[key < n]).sum()), error=err))
    return rows


def fit_rates(rows: Sequence[SweepRow], mode: str,
              a_theory: float, b_theory: float) -> RateFit:
    """Least squares on log2(error) = -a*n + b*log2(n) + c.

    ``slope-fixed`` pins a at ``a_theory`` (moved to the left side) and
    fits (b, c) only.  A row whose level is not positive or repeats an
    earlier row's, or whose error is not finite and positive, is rejected,
    named, before any fit.
    """
    if mode not in FIT_MODES:
        raise ValueError(f"unknown fit mode {mode!r}; expected one of {FIT_MODES}")
    if len(rows) < 4:
        raise ValueError("need at least 4 sweep rows")
    levels = set()
    for i, r in enumerate(rows):
        if not 0 < r.error < math.inf:
            raise ValueError(f"sweep row {i} (n = {r.n}) has error {r.error}: a log fit needs"
                             " errors that are finite and positive")
        if r.n in levels or not r.n > 0:
            raise ValueError(f"sweep row {i} has level n = {r.n}: a log fit needs levels that"
                             " are positive and distinct")
        levels.add(r.n)
    ns = np.array([r.n for r in rows], dtype=float)
    errs = np.array([r.error for r in rows], dtype=float)
    y, logn = np.log2(errs), np.log2(ns)
    free = mode == "free"
    X = np.column_stack(([-ns] if free else []) + [logn, np.ones_like(ns)])
    coef = np.linalg.lstsq(X, y if free else y + a_theory * ns, rcond=None)[0].tolist()
    a_hat, b_hat, c_hat = coef if free else [float(a_theory), *coef]
    resid = y - (-a_hat * ns + b_hat * logn + c_hat)
    rms = float(np.sqrt(np.mean(resid**2)))
    return RateFit(a_hat, b_hat, c_hat, rms, float(a_theory), float(b_theory), mode)


def local_log_powers(rows: Sequence[SweepRow], a_theory: float) -> list[tuple[int, float]]:
    """(n, b) for each row after the first: the log power b that the
    slope-fixed model 2**(-a_theory n) n**b gives between that row and the
    one before it, log2(E_n / E_m) + a_theory (n - m) = b log2(n / m)."""
    return [(r.n, (math.log2(r.error / prev.error) + a_theory * (r.n - prev.n))
             / math.log2(r.n / prev.n)) for prev, r in zip(rows, rows[1:])]


def predicted_order(n: float, a_theory: float, b_theory: float) -> float:
    return 2.0 ** (-a_theory * n) * float(n) ** b_theory
