"""Sweep the cross level, record errors, and fit the predicted order
2**(-a n) * n**b against the measurements.

The swept member is the scaled Dirichlet shell of ``shell_extremal``.  For
q > 1 its error is the member's scale times the sum, over the shell blocks
(none lies in the cross), of prod_j phi_q(s_j), phi_q(s) = ||D_s||_q
(``block_profile``), each computed once per sweep: for q < inf the Fourier
sum is the best sharp-norm approximation and a sharp block factors; for
q = inf the member and every smooth filter are nonnegative, so its B_{inf,1}
norm is f(0) and phi_inf(s) = 2**s.  For q = 1 (smooth blocks, which do not
factor) the member is built, projected and measured; that polynomial path
is the tests' oracle for the profile path.

Jointly estimating (a, b) from desk-scale n is ill conditioned because
log2(n) drifts slowly, so the acceptance protocol pins a at its predicted
value and fits only the logarithmic power and intercept; the free fit is
kept for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .approx import best_approx_upper
from .blocks import MAX_CROSS_LEVEL, SmoothParams, compositions, hyperbolic_cross
from .extremal import dirichlet_block, shell_extremal, shell_scale
from .norms import lp_norm
from .poly import check_exponent

FIT_MODES = ("free", "slope-fixed")


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


def block_profile(q: float, s: int) -> float:
    """phi_q(s) = ||D_s||_q, the L_q norm of the 1-D Dirichlet block
    ``dirichlet_block((s,))``: unit coefficients on 2**(s-1) <= |k| < 2**s.

    Exact in closed form for q = inf (2**s, the block's term count, its
    value at x = 0), q = 2 (Parseval, 2**(s/2)) and q = 4
    (||D_s||_4**4 = 2**(3s-1) + 2**s, the number of k1 + k2 = k3 + k4 in the
    block); any other q is the self-checked ``lp_norm``.
    """
    if q == math.inf:
        return 2.0**s
    if q == 2:
        return 2.0 ** (s / 2)
    if q == 4:
        return (2.0 ** (3 * s - 1) + 2.0**s) ** 0.25
    return lp_norm(dirichlet_block((s,)), q)


def sweep_extremal(p: float, q: float, theta: float, params: SmoothParams,
                   gamma_mode: str, n_range: Sequence[int]) -> list[SweepRow]:
    """Errors of the per-level extremal member across a range of cross levels.

    Each level records the error of ``best_approx_upper`` on
    ``shell_extremal`` (whose smooth aggregate is empty).  A level below d
    or above ``MAX_CROSS_LEVEL`` fails up front.

    For q > 1 no polynomial is built.  Every block of the level-n cross has
    (s,1) < n, so the whole shell (s,1) = n lies outside it, and the error
    is ``shell_scale(n, d, r1 + 1 - 1/p, theta)``, the member's scale, times
    the sum over the shell blocks, in lexicographic order, of
    prod_j ``block_profile(q, s_j)``.  It agrees with the polynomial path up
    to rounding for q in {2, 4, inf} and within the self-check tolerance
    otherwise.  For q = 1 each level builds the member and measures it.
    """
    validate_hypotheses(p, q, theta, params, gamma_mode)
    d = params.d
    if min(n_range, default=d) < d:
        raise ValueError(f"need n >= d for a nonempty shell, got n={min(n_range)}, d={d}")
    if max(n_range, default=d) > MAX_CROSS_LEVEL:
        raise ValueError(f"cross level n={max(n_range)} exceeds cap {MAX_CROSS_LEVEL}")
    profile: dict[int, float] = {}
    rows = []
    for n in n_range:
        cross = hyperbolic_cross(n, params, gamma_mode)
        if q > 1:
            shell = compositions(n, d).tolist()
            for sj in sorted({sj for s in shell for sj in s} - profile.keys()):
                profile[sj] = block_profile(q, sj)
            total = sum((math.prod(profile[sj] for sj in s) for s in shell), 0.0)
            err = shell_scale(n, d, params.r1 + 1.0 - 1.0 / p, theta) * total
        else:
            member = shell_extremal(n, d, params.r1, p, theta)
            err = best_approx_upper(member, cross, params, q)
        rows.append(SweepRow(n=n, cardinality=cross.freq_count, error=err))
    return rows


def fit_rates(rows: Sequence[SweepRow], mode: str,
              a_theory: float, b_theory: float) -> RateFit:
    """Least squares on log2(error) = -a*n + b*log2(n) + c.

    ``slope-fixed`` pins a at ``a_theory`` and fits (b, c) only.
    """
    if mode not in FIT_MODES:
        raise ValueError(f"unknown fit mode {mode!r}; expected one of {FIT_MODES}")
    ns = np.array([r.n for r in rows], dtype=float)
    errs = np.array([r.error for r in rows], dtype=float)
    if len(ns) < 4:
        raise ValueError("need at least 4 sweep rows")
    if np.any(errs <= 0):
        raise ValueError("errors must be positive for a log fit")
    y = np.log2(errs)
    logn = np.log2(ns)
    if mode == "free":
        X = np.column_stack([-ns, logn, np.ones_like(ns)])
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        a_hat, b_hat, c_hat = float(coef[0]), float(coef[1]), float(coef[2])
    else:
        y2 = y + a_theory * ns
        X = np.column_stack([logn, np.ones_like(ns)])
        coef, *_ = np.linalg.lstsq(X, y2, rcond=None)
        a_hat, b_hat, c_hat = float(a_theory), float(coef[0]), float(coef[1])
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
