"""Experiment configurations, provenance-stamped CSV/JSON outputs, and
``TAGS``: each theorem tag's config fields, check and runner.

Output files start with '#'-prefixed provenance lines (config hash, seed,
version, timestamp); the rest is deterministic given the config and seed.
The config hash covers ``theorem_tag``, ``schema_version`` and the fields the
tag reads, each number in one form (an int, or a float or "inf"); a field the
tag does not read is validated but not hashed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .approx import random_mixed_poly
from .blocks import (GAMMA_MODES, MAX_CROSS_LEVEL, TAIL_MODES, SmoothParams, even_shell,
                     weighted_tail_sums)
from .entropy import (CloudProblem, covering_number_exact, covering_number_greedy,
                      packing_number_exact, packing_number_greedy)
from .extremal import shell_scale, shifted_rect_sample
from .kernels import smooth_filing
from .norms import (GridSpec, aggregate_block_norms, bq1_norm, lp_norm, lp_norms,
                    nikolskii_checks)
from .poly import is_int
from .rates import (fit_rates, local_log_powers, predicted_order, regimes, sweep_extremal,
                    theory_exponents, validate_hypotheses)

SCHEMA_VERSION = 1
TAIL_SUM_COLUMNS = ("mode", "alpha", "l", "value", "normalized_ratio")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the violation."""


def parse_extended(x) -> float:
    """``x`` as a float; "inf" and "infinity" in any case read as inf."""
    text = str(x)
    return math.inf if text.lower() in ("inf", "infinity") else float(text)


def _parsed(key: str, value) -> float:
    try:
        return parse_extended(value)
    except ValueError:
        raise ConfigError(f"{key} value {value!r} is not a number") from None


@dataclass(frozen=True)
class ExperimentConfig:
    theorem_tag: str
    d: int = 2
    p: float = 2.0
    q: float = 2.0
    theta: float = math.inf
    r: tuple[float, ...] = (1.0, 1.0)
    gamma_mode: str = "gamma"
    n_range: tuple[int, ...] = (5, 11)
    rng_seed: int = 0
    output_path: str = "results"
    alpha: float = 1.0
    l_range: tuple[int, ...] = (10, 20)
    samples: int = 100
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        # one form per value (tuples; ints; floats, inf too), so one run has one hash
        for name in ("p", "q", "theta", "alpha"):
            object.__setattr__(self, name, _parsed(name, getattr(self, name)))
        if not isinstance(self.r, (list, tuple)):
            raise ConfigError(f"r must be a list, got {self.r!r}")
        object.__setattr__(self, "r", tuple(_parsed("r", v) for v in self.r))
        if not (isinstance(self.theorem_tag, str) and self.theorem_tag in TAGS):
            raise ConfigError(f"unknown theorem tag {self.theorem_tag!r}")
        if not (is_int(self.schema_version) and self.schema_version == SCHEMA_VERSION):
            raise ConfigError(f"unsupported schema version {self.schema_version}")
        for name, least in (("d", 1), ("samples", 1), ("rng_seed", 0)):
            value = getattr(self, name)
            if not (is_int(value) and value >= least):
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))
        if len(self.r) != self.d:
            raise ConfigError("smoothness vector length must equal d")
        if self.gamma_mode not in GAMMA_MODES:
            raise ConfigError(f"unknown gamma_mode {self.gamma_mode!r}; expected one of"
                              f" {GAMMA_MODES}")
        fields, check, _ = TAGS[self.theorem_tag]
        for name in ("n_range", "l_range"):
            levels = getattr(self, name)
            if not (isinstance(levels, (list, tuple)) and all(map(is_int, levels))):
                raise ConfigError(f"{name} must be a list of integers, got {levels!r}")
            object.__setattr__(self, name, tuple(map(int, levels)))
            if name in fields and not levels:
                raise ConfigError(f"{name} must name at least one level, got ()")
            if name in fields and max(levels) > MAX_CROSS_LEVEL:
                raise ConfigError(f"{name} level {max(levels)} exceeds the cross level"
                                  f" cap blocks.MAX_CROSS_LEVEL = {MAX_CROSS_LEVEL}")
        try:
            SmoothParams(self.r)
            if check:
                check(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def params(self) -> SmoothParams:
        return SmoothParams(self.r)

    def to_json_dict(self) -> dict:
        return {k: "inf" if v == math.inf else v for k, v in dataclasses.asdict(self).items()}

    @staticmethod
    def from_json_dict(data: dict) -> "ExperimentConfig":
        """The config of a JSON object whose keys are config fields."""
        if not isinstance(data, dict):
            raise ConfigError(f"a config must be a JSON object, got {data!r}")
        unknown = set(data) - {f.name for f in dataclasses.fields(ExperimentConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        return ExperimentConfig(**data)

    @staticmethod
    def load(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_json_dict(json.load(fh))

    def config_hash(self) -> str:
        """sha256 prefix of ``theorem_tag``, ``schema_version`` and the fields the tag reads."""
        data = self.to_json_dict()
        keys = ("theorem_tag", "schema_version", *TAGS[self.theorem_tag][0])
        canon = json.dumps({key: data[key] for key in keys}, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _walked(name: str, levels: tuple) -> None:
    """Check a range that a run walks from its first entry to its last."""
    if len(levels) != 2:
        raise ValueError(f"{name} must hold two entries, the first and the last, got {levels!r}")
    if levels[1] < levels[0]:
        raise ValueError(f"{name} must not end below its first level, got {levels}")


def _check_rate_sweep(config: ExperimentConfig) -> None:
    _walked("n_range", config.n_range)
    validate_hypotheses(config.p, config.q, config.theta, config.params, config.gamma_mode)
    if config.theorem_tag not in regimes(config.p, config.q, config.d):
        raise ValueError(f"(p, q) = ({config.p}, {config.q}) does not match regime"
                         f" {config.theorem_tag}")


def _check_lemma_a(config: ExperimentConfig) -> None:
    _walked("l_range", config.l_range)
    if config.l_range[0] < 1:
        raise ValueError(f"l_range must start at a boundary >= 1, got {config.l_range}")
    if not 0 < config.alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got alpha={config.alpha}")


def _check_family(config: ExperimentConfig) -> None:
    if any(n % 2 or n < 2 * config.d for n in config.n_range):
        raise ValueError(f"T5-family needs even shell levels n >= 2d = {2 * config.d},"
                         f" got n_range {config.n_range}")


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(config: ExperimentConfig, name: str, columns: Sequence[str],
              rows: Sequence[Sequence]) -> str:
    """Write file ``name`` under ``config.output_path``; returns its path."""
    path = Path(config.output_path) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# config_hash: {config.config_hash()}\n")
        fh.write(f"# seed: {config.rng_seed}\n")
        fh.write(f"# version: {__version__}\n")
        fh.write(f"# timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
    return str(path)


def csv_body(path) -> str:
    """File content with provenance comment lines stripped."""
    with open(path) as fh:
        return "".join(line for line in fh if not line.startswith("#"))


def run_rate_experiment(config: ExperimentConfig) -> dict:
    params = config.params
    ns = list(range(config.n_range[0], config.n_range[-1] + 1))
    # checked here, not in the config: a one-level config sweeps its level alone
    if len(ns) < 4:
        raise ConfigError(f"the rate fits need at least 4 levels, n_range {config.n_range}"
                          f" gives {len(ns)}")
    rows = sweep_extremal(config.p, config.q, config.theta, params, config.gamma_mode, ns)
    a_th, b_th = theory_exponents(config.p, config.q, config.theta, params, config.gamma_mode)
    table = []
    for r in rows:
        pred = predicted_order(r.n, a_th, b_th)
        table.append((r.n, r.cardinality, r.error, pred, r.error / pred))
    fit_free = fit_rates(rows, "free", a_th, b_th)
    fit_fixed = fit_rates(rows, "slope-fixed", a_th, b_th)
    csv_path = write_csv(config, f"{config.theorem_tag}_rates.csv",
                         ("n", "M", "error", "predicted", "ratio"), table)
    report = {
        "config": config.to_json_dict(),
        "config_hash": config.config_hash(),
        "free": dataclasses.asdict(fit_free),
        "slope_fixed": dataclasses.asdict(fit_fixed),
        # [n, b] per level after the first, from the level before it
        "local_log_power": local_log_powers(rows, a_th),
    }
    json_path = Path(config.output_path) / f"{config.theorem_tag}_fit.json"
    with open(json_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return {"csv": csv_path, "json": str(json_path), "fit": fit_fixed}


def tail_sum_rows(alpha: float, params: SmoothParams, ls: Sequence[int],
                  modes: Sequence[str]) -> list[tuple]:
    """Rows (``TAIL_SUM_COLUMNS``) of the weighted tail sums, mode by mode,
    then by boundary l."""
    return [(mode, alpha, l, value, ratio) for mode in modes
            for (value, ratio), l in zip(weighted_tail_sums(alpha, params, ls, mode), ls)]


def run_lemma_a(config: ExperimentConfig) -> dict:
    ls = list(range(config.l_range[0], config.l_range[-1] + 1))
    rows = tail_sum_rows(config.alpha, config.params, ls, TAIL_MODES)
    return {"csv": write_csv(config, "lemmaA_ratios.csv", TAIL_SUM_COLUMNS, rows)}


def run_nikolskii(config: ExperimentConfig) -> dict:
    """Certified different-metrics inequality (``nikolskii_check``) on
    ``config.samples`` random polynomials at the pairs (1, 2), (2, 4) and
    (2, inf).  Every polynomial is drawn first, in the generator's order,
    and one ``nikolskii_checks`` call then certifies the whole table.

    In each CSV row ``lhs`` is exact at q in {2, 4} (Parseval on t and on
    t * t) and an upper bound at q = inf (sum |c_k|); ``rhs`` is exact
    at p = 2 and a lower bound at p = 1 (C L2**3 / L4**2), so ``ok`` = 1
    proves the inequality for that polynomial.  These three pairs hold for
    every polynomial: with m_j = max(1, deg_j), nnz <= prod(2 deg_j + 1) <=
    4**d prod m_j, Cauchy-Schwarz gives S = sum |c_k| <= sqrt(nnz) L2, and
    L4**4 = ||t**2||_2**2 <= S**2 L2**2, which is each pair's verdict.
    Returns the CSV path, whether every verdict held, and per pair the least
    rhs / lhs, the certified margin.
    """
    rng = np.random.default_rng(config.rng_seed)
    pairs = ((1.0, 2.0), (2.0, 4.0), (2.0, math.inf))
    rows = []
    margins = dict.fromkeys(pairs, math.inf)
    fs = []
    for _ in range(config.samples):
        d = int(rng.integers(1, 4))
        fs.append(random_mixed_poly(rng, d, max_shell={1: 5, 2: 7, 3: 6}[d]))
    for i, (f, checks) in enumerate(zip(fs, nikolskii_checks(fs, pairs))):
        for (p, q), (lhs, rhs, ok) in zip(pairs, checks):
            margins[p, q] = min(margins[p, q], rhs / lhs)
            rows.append((i, f.d, p, "inf" if math.isinf(q) else q, lhs, rhs, int(ok)))
    csv_path = write_csv(config, "nikolskii.csv", ("id", "d", "p", "q", "lhs", "rhs", "ok"), rows)
    return {"csv": csv_path, "all_ok": all(row[-1] for row in rows), "margins": margins}


def run_family_embedding(config: ExperimentConfig) -> dict:
    """Scaled shifted-rectangle members: class-norm stability across levels
    plus the exact constant-mode chain through the block-sum norm."""
    d, r1 = config.d, config.r[0]
    rng = np.random.default_rng(config.rng_seed)
    grid = GridSpec()
    thetas = (1.0, 2.0, math.inf)
    rows = []
    summary: dict = {"const": {}, "norm_range": {}}
    for n in config.n_range:
        shell = even_shell(n, d)
        t_const = shifted_rect_sample(n, d, "constant")
        l2_sq = lp_norm(t_const, 2.0) ** 2
        b11 = bq1_norm(t_const, 1.0, "smooth", grid)
        summary["const"][n] = (len(shell), l2_sq, b11)
        norms = {theta: [] for theta in thetas}
        filing = None
        for _ in range(config.samples):
            t = shifted_rect_sample(n, d, "random-sign", rng)
            if filing is None:  # a level's members share one support: extremal._level_support
                filing = smooth_filing(t)
            comps = [t.take(at, t.C[at] * mult) for _, at, mult in filing]
            # block sups are theta-independent; rescale and aggregate per theta
            sups = lp_norms(comps, math.inf, grid)
            for theta in thetas:
                scale = shell_scale(n, d, r1, theta)
                scaled = [(s, scale * v) for (s, _, _), v in zip(filing, sups)]
                norms[theta].append(aggregate_block_norms(scaled, config.r, theta))
        for theta in thetas:
            vals = norms[theta]
            band = (min(vals), max(vals), sum(vals) / len(vals))
            summary["norm_range"][(n, theta)] = band
            rows.append((n, len(shell), l2_sq, b11, "inf" if math.isinf(theta) else theta, *band))
    csv_path = write_csv(config, "family_embedding.csv",
                         ("n", "shell_size", "const_l2_sq", "const_b11", "theta",
                          "norm_min", "norm_max", "norm_mean"), rows)
    return {"csv": csv_path, "summary": summary}


def run_entropy_chain(config: ExperimentConfig) -> dict:
    rng = np.random.default_rng(config.rng_seed)
    rows = []
    all_ok = True
    for i in range(config.samples):
        m = int(rng.integers(3, 13))
        dim = int(rng.integers(1, 5))
        cloud = CloudProblem(rng.standard_normal((m, dim)))
        dists = cloud.distance_matrix()
        eps = float(np.quantile(dists[np.triu_indices(m, k=1)], rng.uniform(0.2, 0.8)))
        n_eps = covering_number_exact(cloud, eps)
        m_eps = packing_number_exact(cloud, eps)
        n_half = covering_number_exact(cloud, eps / 2)
        n_ub, _ = covering_number_greedy(cloud, eps)
        m_lb, _ = packing_number_greedy(cloud, eps)
        ok = n_eps <= m_eps <= n_half and n_ub >= n_eps and m_lb <= m_eps
        all_ok = all_ok and ok
        rows.append((i, m, dim, eps, n_eps, m_eps, n_half, n_ub, m_lb, int(ok)))
    csv_path = write_csv(config, "entropy_chain.csv",
                         ("id", "points", "dim", "eps", "N_eps", "M_eps", "N_half_eps",
                          "greedy_N_ub", "greedy_M_lb", "ok"), rows)
    return {"csv": csv_path, "all_ok": all_ok}


# theorem tag -> (the config fields it reads, its own check or None, its runner)
TAGS = {
    **dict.fromkeys(("T1", "T2", "T3", "T4"), (
        ("d", "p", "q", "theta", "r", "gamma_mode", "n_range"), _check_rate_sweep,
        run_rate_experiment)),
    "T5-family": (("d", "r", "n_range", "samples", "rng_seed"), _check_family,
                  run_family_embedding),
    "lemmaA": (("d", "r", "alpha", "l_range"), _check_lemma_a, run_lemma_a),
    "nikolskii": (("samples", "rng_seed"), None, run_nikolskii),
    "entropy44": (("samples", "rng_seed"), None, run_entropy_chain),
}
RATE_TAGS = tuple(tag for tag, row in TAGS.items() if row[2] is run_rate_experiment)


def run_experiment(config: ExperimentConfig) -> dict:
    return TAGS[config.theorem_tag][2](config)
