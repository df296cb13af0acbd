#!/usr/bin/env python3
"""Smaller diagnostic experiments: tail-sum ratio tables, the projector-norm
probe (exact at q = 2, a certified upper bound at q = 1.5 and 3), the
different-metrics inequality (with each pair's least certified margin
rhs/lhs), and the covering/packing chain."""

import argparse
from pathlib import Path

from stepcross.blocks import SmoothParams
from stepcross.approx import projector_norm_probe
from stepcross.experiments import ExperimentConfig, run_experiment


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="results/diagnostics")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    out_dir = Path(args.out)

    cfg = ExperimentConfig(theorem_tag="lemmaA", d=2, r=(1.0, 3.0), alpha=1.0,
                           l_range=(10, 20), rng_seed=args.seed,
                           output_path=str(out_dir / "lemmaA"))
    print("lemmaA:", run_experiment(cfg)["csv"])

    cfg = ExperimentConfig(theorem_tag="nikolskii", d=2, r=(1.0, 1.0), samples=500,
                           rng_seed=args.seed, output_path=str(out_dir / "nikolskii"))
    res = run_experiment(cfg)
    # the least certified margin per pair shrinks before a verdict flips
    margins = ", ".join(f"({p:g}, {q:g}) {m:.2f}" for (p, q), m in res["margins"].items())
    print("nikolskii:", res["csv"], "all_ok:", res["all_ok"], "least rhs/lhs:", margins)

    cfg = ExperimentConfig(theorem_tag="entropy44", samples=50, rng_seed=args.seed,
                           output_path=str(out_dir / "entropy"))
    res = run_experiment(cfg)
    print("entropy chain:", res["csv"], "all_ok:", res["all_ok"])

    params = SmoothParams((1.0, 1.0))
    for q in (1.5, 2.0, 3.0):
        worst = max(projector_norm_probe(n, params, q, samples=100,
                                         rng_seed=args.seed + n) for n in range(4, 9))
        # exact at q = 2; elsewhere each block norm is bracketed, and the ratio is its upper end
        kind = "max ratio" if q == 2.0 else "max ratio, certified upper bound,"
        print(f"projector probe q={q}: {kind} {worst:.6f}")


if __name__ == "__main__":
    main()
