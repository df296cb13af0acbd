#!/usr/bin/env python3
"""Run the headline rate experiments and print the fitted log powers.

Writes CSV tables and JSON fit reports under results/ (override with --out).
The first nine cases sweep --n-min..--n-max.  The reach cases sweep fixed
ranges at d = 2 and d = 3: T1 (p = 2, q = 4, whose 1-D profiles are closed
forms) to n = 20, and T2 (p = q = 2.5) while every 1-D profile has s <= 18,
that is to n = 19 at d = 2 and n = 20 at d = 3; the panel quadrature of the
profile at s = 18 takes about half a second and a few MB.
"""

import argparse
import math
from pathlib import Path

from stepcross.experiments import ExperimentConfig, run_experiment


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="results/rates")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-min", type=int, default=5)
    ap.add_argument("--n-max", type=int, default=11)
    args = ap.parse_args()

    levels = (args.n_min, args.n_max)
    cases = []
    for theta in (1.0, 2.0, math.inf):
        tag = "inf" if math.isinf(theta) else f"{theta:g}"
        cases.append((f"T1_theta{tag}", levels, dict(theorem_tag="T1", d=2, p=2.0, q=4.0,
                                                     theta=theta, r=(1.5, 1.5))))
        cases.append((f"T2_theta{tag}", levels, dict(theorem_tag="T2", d=2, p=2.5, q=2.5,
                                                     theta=theta, r=(1.0, 1.0))))
        cases.append((f"d1_theta{tag}", levels, dict(theorem_tag="T1", d=1, p=2.0, q=4.0,
                                                     theta=theta, r=(1.5,))))
    for theta in (1.0, 2.0, math.inf):
        tag = "inf" if math.isinf(theta) else f"{theta:g}"
        for d in (2, 3):
            cases.append((f"T1_d{d}_n20_theta{tag}", (5, 20),
                          dict(theorem_tag="T1", d=d, p=2.0, q=4.0, theta=theta,
                               r=(1.5,) * d)))
            n_max = 17 + d
            cases.append((f"T2_d{d}_n{n_max}_theta{tag}", (5, n_max),
                          dict(theorem_tag="T2", d=d, p=2.5, q=2.5, theta=theta,
                               r=(1.0,) * d)))

    for name, n_range, kw in cases:
        cfg = ExperimentConfig(gamma_mode="gamma", n_range=n_range, rng_seed=args.seed,
                               output_path=str(Path(args.out) / name), **kw)
        out = run_experiment(cfg)
        fit = out["fit"]
        print(f"{name}: a={fit.a_theory:g} b_theory={fit.b_theory:+.2f} "
              f"b_hat={fit.b_hat:+.3f} resid={fit.residual_rms:.4f} -> {out['csv']}")


if __name__ == "__main__":
    main()
