"""The benchmark's workloads and the checks of their outputs.

Each workload is a list of operations on the public stepcross API, run one at
a time in one process.  The work a run does is a fixed function of
``--seconds``, never of how fast the machine is, so two commits run the same
operations.  A run of FULL_SECONDS takes about that long on a 2-core Xeon;
below FULL_SECONDS the rate sweep stops at n = 8 so that smoke runs are short.

Outputs are checked against values recorded at the commit that added the
benchmark: rtol 1e-6 for quadrature-derived numbers (the self-check
tolerance), 1e-12 for exact ones, and the acceptance bands for fits,
projector ratios and tail sums.  Operations look their function up on the
module at call time, so a traced run sees the wrapped functions.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

from stepcross import approx, blocks, experiments, rates
from stepcross.blocks import SmoothParams
from stepcross.experiments import ExperimentConfig

FULL_SECONDS = 16
QUAD_RTOL = 1e-6
EXACT_RTOL = 1e-12


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]  # problems found in the output
    # (exception type name, message part) of a failure this commit is known
    # to have; it counts as failed but does not make the run incorrect
    known_defect: tuple[str, str] | None = None


def _call(module, name: str, *args, **kwargs) -> Callable[[], object]:
    return lambda: getattr(module, name)(*args, **kwargs)


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def _read_csv(path) -> list[dict[str, str]]:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


# -- rate-sweep --------------------------------------------------------------

RATE_CASES = (
    ("T2", dict(d=2, p=2.5, q=2.5, theta=math.inf, r=(1.0, 1.0)), 10),
    ("T1", dict(d=2, p=2.0, q=4.0, theta=2.0, r=(1.5, 1.5)), 11),
)
CROSS_SIZE = {5: 68, 6: 196, 7: 516, 8: 1284, 9: 3076, 10: 7172, 11: 16388}
RATE_ERRORS = {
    "T2": {5: 0.10819166600506688, 6: 0.0669511099110585, 7: 0.039892313496217545,
           8: 0.0231527232568367, 9: 0.013179351575086777, 10: 0.007391124877556655},
    "T1": {5: 0.017838512054543895, 6: 0.008442011690478056, 7: 0.003906922693033597,
           8: 0.0017807073031785128, 9: 0.0008026542656659699,
           10: 0.0003587584357326454, 11: 0.00015929450265299964},
}
B_TOL, RESIDUAL_MAX = 0.35, 0.15  # acceptance criteria 05 and 06


def _check_rates(tag: str, n_max: int, out) -> list[str]:
    problems = []
    rows = _read_csv(out["csv"])
    if [int(r["n"]) for r in rows] != list(range(5, n_max + 1)):
        return [f"{tag}: levels {[r['n'] for r in rows]}"]
    for r in rows:
        n = int(r["n"])
        if int(r["M"]) != CROSS_SIZE[n]:
            problems.append(f"{tag} n={n}: cross size {r['M']} != {CROSS_SIZE[n]}")
        if not _close(float(r["error"]), RATE_ERRORS[tag][n], QUAD_RTOL):
            problems.append(f"{tag} n={n}: error {r['error']} != {RATE_ERRORS[tag][n]!r}")
    fit = out["fit"]
    if abs(fit.b_hat - fit.b_theory) > B_TOL or fit.residual_rms > RESIDUAL_MAX:
        problems.append(f"{tag}: fit b={fit.b_hat} (theory {fit.b_theory}), "
                        f"residual {fit.residual_rms}")
    with open(out["json"]) as fh:
        if "slope_fixed" not in json.load(fh):
            problems.append(f"{tag}: fit report lacks slope_fixed")
    return problems


def rate_sweep(seed: int, seconds: float, out_dir: Path) -> list[Op]:
    ops = []
    for tag, kw, n_max in RATE_CASES:
        n_max = n_max if seconds >= FULL_SECONDS else 8
        cfg = ExperimentConfig(theorem_tag=tag, gamma_mode="gamma", n_range=(5, n_max),
                               rng_seed=seed, output_path=str(out_dir / tag), **kw)
        ops.append(Op(f"run_experiment {tag} n=5..{n_max}",
                      _call(experiments, "run_experiment", cfg),
                      lambda out, tag=tag, n_max=n_max: _check_rates(tag, n_max, out)))
    return ops


# -- family ------------------------------------------------------------------

FAMILY_LEVELS = (6, 8, 10, 12)
# even-shell sizes at d = 2; the constant member's squared L2 norm and its
# smooth block-sum norm equal them exactly
FAMILY_SHELL = {6: 2, 8: 3, 10: 4, 12: 5}
THETAS = (1.0, 2.0, math.inf)


def _check_family(out) -> list[str]:
    problems = []
    summary = out["summary"]
    chain = []
    for n in FAMILY_LEVELS:
        shell, l2sq, b11 = summary["const"][n]
        want = FAMILY_SHELL[n]
        if shell != want or not _close(l2sq, want, EXACT_RTOL) or not _close(b11, want, EXACT_RTOL):
            problems.append(f"n={n}: constant chain {(shell, l2sq, b11)} != {want}")
        chain.append(b11 / l2sq)
    if min(chain) < 0.9 or max(chain) / min(chain) > 1.1:  # criterion 09
        problems.append(f"constant chain ratios {chain}")
    for theta in THETAS:
        ranges = [summary["norm_range"][(n, theta)] for n in FAMILY_LEVELS]
        means = [mean for _, _, mean in ranges]
        if not all(0 < lo <= mean * (1 + EXACT_RTOL) and mean <= hi * (1 + EXACT_RTOL)
                   for lo, hi, mean in ranges):
            problems.append(f"theta={theta}: norm ranges {ranges}")
        elif max(means) / min(means) > 2.0:  # criterion 09
            problems.append(f"theta={theta}: level factor {max(means) / min(means)}")
    if len(_read_csv(out["csv"])) != len(FAMILY_LEVELS) * len(THETAS):
        problems.append("family CSV row count")
    return problems


def family(seed: int, seconds: float, out_dir: Path) -> list[Op]:
    members = max(1, round(0.75 * seconds))
    cfg = ExperimentConfig(theorem_tag="T5-family", d=2, r=(1.0, 1.0), n_range=FAMILY_LEVELS,
                           samples=members, rng_seed=seed, output_path=str(out_dir / "family"))
    return [Op(f"run_experiment T5-family members={members}",
               _call(experiments, "run_experiment", cfg), _check_family)]


# -- checks ------------------------------------------------------------------

NIKOLSKII_RUNS = 4
NIKOLSKII_SHELL = {1: 5, 2: 7, 3: 6}  # max_shell per d, as run_nikolskii draws them
TAIL_CASES = (  # criterion 08
    ("gamma-on-gamma", SmoothParams((1.0, 1.0))),
    ("gamma-on-gamma", SmoothParams((1.0, 1.0, 1.0))),
    ("gamma-prime-on-gamma", SmoothParams((1.0, 4.0), gamma_prime=(1.0, 2.0))),
    ("gamma-prime-on-gamma", SmoothParams((1.0, 1.0, 4.0), gamma_prime=(1.0, 1.0, 2.0))),
)


def exact_l2_l4(f) -> tuple[float, float]:
    """L2 and L4 norms from coefficients: |f|_4^4 = |f^2|_2^2."""
    terms = list(f.coeffs.items())
    square: dict[tuple[int, ...], complex] = {}
    for ka, ca in terms:
        for kb, cb in terms:
            k = tuple(a + b for a, b in zip(ka, kb))
            square[k] = square.get(k, 0.0) + ca * cb
    l2 = math.sqrt(math.fsum(abs(c) ** 2 for _, c in terms))
    return l2, math.fsum(abs(c) ** 2 for c in square.values()) ** 0.25


def _check_nikolskii(cfg: ExperimentConfig, out) -> list[str]:
    """Redraws the experiment's polynomials and checks the exact norms in
    each row (Parseval and even p) plus the inequality itself."""
    rows = _read_csv(out["csv"])
    if len(rows) != 3 * cfg.samples:
        return [f"nikolskii: {len(rows)} rows for {cfg.samples} polynomials"]
    problems = []
    rng = np.random.default_rng(cfg.rng_seed)
    for i in range(cfg.samples):
        d = int(rng.integers(1, 4))
        f = approx.random_mixed_poly(rng, d, max_shell=NIKOLSKII_SHELL[d])
        l2, l4 = exact_l2_l4(f)
        degs = [max(1, m) for m in f.degree()]
        exact = {  # (p, q) -> exact (lhs, rhs); None where quadrature-derived
            (1.0, 2.0): (l2, None),
            (2.0, 4.0): (l4, 2.0**d * math.prod(m**0.25 for m in degs) * l2),
            (2.0, math.inf): (None, 2.0**d * math.prod(m**0.5 for m in degs) * l2),
        }
        for row in rows[3 * i: 3 * i + 3]:
            lhs, rhs = float(row["lhs"]), float(row["rhs"])
            want_lhs, want_rhs = exact[(float(row["p"]), float(row["q"]))]
            if (int(row["d"]) != d or row["ok"] != "1" or lhs > rhs * (1 + 1e-9)
                    or (want_lhs is not None and not _close(lhs, want_lhs, EXACT_RTOL))
                    or (want_rhs is not None and not _close(rhs, want_rhs, EXACT_RTOL))):
                problems.append(f"nikolskii seed {cfg.rng_seed} row {row}")
    return problems


def _check_tail_band(out) -> list[str]:
    ratios = [r for _, r in out]
    if len(ratios) != 11 or min(ratios) <= 0 or max(ratios) / min(ratios) > 1.1 / 0.9:
        return [f"tail-sum ratios {ratios}"]
    return []


def _check_projector(ratio) -> list[str]:
    return [] if 0 <= ratio <= 1 + 1e-9 else [f"projector ratio {ratio}"]


def _check_entropy(out) -> list[str]:
    problems = []
    for row in _read_csv(out["csv"]):
        pts, n_eps, m_eps, n_half, n_ub, m_lb = (int(row[k]) for k in (
            "points", "N_eps", "M_eps", "N_half_eps", "greedy_N_ub", "greedy_M_lb"))
        if not (1 <= n_eps <= m_eps <= n_half <= pts and n_ub >= n_eps and m_lb <= m_eps
                and row["ok"] == "1"):
            problems.append(f"entropy chain row {row}")
    return problems


def _check_t3(rows) -> list[str]:
    if len(rows) != 1 or not (0 < rows[0].error < math.inf):
        return [f"T3 rows {rows}"]
    return []


def checks(seed: int, seconds: float, out_dir: Path) -> list[Op]:
    ops = []
    # passes config validation, then the L_1 self-check runs out of grid; it
    # goes first so that its peak memory does not depend on the heap the
    # seeded operations leave behind
    t3 = ExperimentConfig(theorem_tag="T3", d=2, p=1.0, q=1.0, r=(1.0, 1.0), n_range=(5, 5),
                          rng_seed=seed, output_path=str(out_dir / "T3"))
    ops.append(Op("sweep_extremal T3 p=q=1 n=5",
                  _call(rates, "sweep_extremal", t3.p, t3.q, t3.theta, t3.params,
                        t3.gamma_mode, [5]),
                  _check_t3, known_defect=("QuadratureError", "hit the grid budget")))
    polys = max(1, round(7.5 * seconds))
    for j in range(NIKOLSKII_RUNS):
        cfg = ExperimentConfig(theorem_tag="nikolskii", d=2, r=(1.0, 1.0), samples=polys,
                               rng_seed=NIKOLSKII_RUNS * seed + j,
                               output_path=str(out_dir / f"nikolskii{j}"))
        ops.append(Op(f"run_experiment nikolskii polynomials={polys} run={j}",
                      _call(experiments, "run_experiment", cfg),
                      lambda out, cfg=cfg: _check_nikolskii(cfg, out)))
    for mode, params in TAIL_CASES:
        for alpha in (0.5, 1.0, 2.0):
            ops.append(Op(f"weighted_tail_sums {mode} r={params.r} alpha={alpha}",
                          _call(blocks, "weighted_tail_sums", alpha, params, range(10, 21), mode),
                          _check_tail_band))
    samples = max(1, round(8 * seconds))
    probes = list(product((1.5, 2.0, 3.0), range(4, 9)))
    for i, (q, n) in enumerate(probes):
        ops.append(Op(f"projector_norm_probe q={q} n={n} samples={samples}",
                      _call(approx, "projector_norm_probe", n, SmoothParams((1.0, 1.0)), q,
                            samples, rng_seed=len(probes) * seed + i),
                      _check_projector))
    cfg = ExperimentConfig(theorem_tag="entropy44", samples=50, rng_seed=seed,
                           output_path=str(out_dir / "entropy"))
    ops.append(Op("run_experiment entropy44 clouds=50",
                  _call(experiments, "run_experiment", cfg), _check_entropy))
    return ops


WORKLOADS = {"rate-sweep": rate_sweep, "family": family, "checks": checks}
