"""Command-line interface.

Exit codes: 0 success, 1 invalid configuration or arguments (the message
names the violated condition), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .approx import default_form
from .blocks import GAMMA_MODES, TAIL_MODES, SmoothParams, hyperbolic_cross, write_blocks
from .entropy import (CloudProblem, covering_number_exact, covering_number_greedy,
                      entropy_number_estimate, packing_number_exact, packing_number_greedy)
from .experiments import (RATE_TAGS, ExperimentConfig, parse_extended, run_experiment,
                          tail_sum_rows, write_csv)
from .extremal import dirichlet_shell, shell_extremal, shell_scale, shifted_rect_sample
from .kernels import vdp_coeff
from .norms import besov_mixed_norm, bq1_norm, lp_norm
from .poly import (GridSpec, eval_grid, project_cross, read_jsonl, resolve_grid_dims,
                   write_jsonl)


def _parse_rvec(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


def _norm_callable(spec: dict):
    if not isinstance(spec, dict):
        raise ValueError("the norm spec must be a JSON object")
    kind = spec.get("kind", "lp")
    keys = {"lp": (["p"], []), "besov": (["r", "p"], ["theta", "form"]), "bq1": (["q"], ["form"])}
    if not isinstance(kind, str) or kind not in keys:
        raise ValueError(f"unknown norm kind {kind!r}")
    required, optional = keys[kind]  # besides kind and grid
    unknown = set(spec) - {"kind", "grid", *required, *optional}
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in the {kind} norm spec")
    missing = [key for key in required if key not in spec]
    if missing:
        raise ValueError(f"missing keys {missing} in the {kind} norm spec")
    grid = spec.get("grid", {})
    if not isinstance(grid, dict):
        raise ValueError("the norm spec's grid must be a JSON object")
    unknown = set(grid) - {fld.name for fld in dataclasses.fields(GridSpec)}
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in the norm spec's grid")
    grid_spec = GridSpec(**grid)
    if kind == "lp":
        p = parse_extended(spec["p"])
        return lambda f: lp_norm(f, p, grid_spec)
    if kind == "besov":
        params = SmoothParams(spec["r"])
        p, theta = parse_extended(spec["p"]), parse_extended(spec.get("theta", "inf"))
        form = spec.get("form", "sharp")
        return lambda f: besov_mixed_norm(f, params, p, theta, form, grid_spec)
    q = parse_extended(spec["q"])
    form = spec.get("form", default_form(q))
    return lambda f: bq1_norm(f, q, form, grid_spec)


PLOT_SCRIPT = """\
#!/usr/bin/env python
\"\"\"Plot a rate-sweep CSV (columns n, M, error, predicted, ratio).\"\"\"
import sys
import matplotlib.pyplot as plt
import numpy as np

rows = [line.split(",") for line in open(sys.argv[1])
        if line.strip() and not line.startswith(("#", "n,"))]
n = np.array([float(r[0]) for r in rows])
err = np.array([float(r[2]) for r in rows])
pred = np.array([float(r[3]) for r in rows])
plt.semilogy(n, err, "o-", label="measured", base=2)
plt.semilogy(n, pred * err[0] / pred[0], "--", label="predicted order", base=2)
plt.xlabel("n"); plt.ylabel("error"); plt.legend(); plt.tight_layout()
plt.savefig(sys.argv[1].rsplit(".", 1)[0] + ".png", dpi=150)
"""


def cmd_poly(args) -> int:
    f = read_jsonl(args.input)
    if args.action == "eval":
        if args.at:
            x = [float(tok) for tok in args.at.split(",")]
            v = f.evaluate(x)
            print(f"{v.real:.17g} {v.imag:+.17g}j")
            return 0
        grid = GridSpec(points_per_dim=args.points, oversampling=args.oversampling)
        vals = eval_grid(f, resolve_grid_dims(f, grid))
        out = Path(args.out or "values.csv")
        with open(out, "w") as fh:
            fh.write(",".join(f"j{i+1}" for i in range(f.d)) + ",re,im\n")
            for idx in np.ndindex(vals.shape):
                v = vals[idx]
                fh.write(",".join(str(i) for i in idx) + f",{v.real:.17g},{v.imag:.17g}\n")
        print(out)
        return 0
    if args.n is None:
        raise ValueError("poly project needs the cross level --n")
    params = SmoothParams(_parse_rvec(args.r))
    g = project_cross(f, args.n, params, args.gamma_mode)
    write_jsonl(args.out or "projected.jsonl", g)
    print(args.out or "projected.jsonl")
    return 0


def cmd_kernel(args) -> int:
    ks = np.arange(-2 * args.l, 2 * args.l + 1)
    lines = ["k,coeff"] + [f"{k},{c:.17g}" for k, c in zip(ks.tolist(), vdp_coeff(args.l, ks))]
    if args.out:
        Path(args.out).write_text("".join(line + "\n" for line in lines))
        print(args.out)
    else:
        print("\n".join(lines))
    return 0


def cmd_norm(args) -> int:
    if not (args.input or args.batch):
        raise ValueError("norm needs --input or --batch")
    fn = _norm_callable(json.loads(args.spec))
    if args.batch:
        rows = [(Path(p).stem, fn(read_jsonl(p))) for p in args.batch]
        out = args.out or "norms.csv"
        with open(out, "w") as fh:
            fh.write("id,norm\n")
            for name, v in rows:
                fh.write(f"{name},{v:.17g}\n")
        print(out)
    else:
        print(f"{fn(read_jsonl(args.input)):.17g}")
    return 0


def cmd_extremal(args) -> int:
    if args.family == "dn":
        f = dirichlet_shell(args.n, args.d)
    elif args.family == "g":
        if not math.isfinite(args.c4):
            raise ValueError(f"--c4 must be a finite number, got {args.c4}")
        f = args.c4 * shell_extremal(args.n, args.d, args.r1, parse_extended(args.p),
                                     parse_extended(args.theta))
    else:
        # the scale checks theta before the sample is drawn
        theta = parse_extended(args.theta)
        scale = shell_scale(args.n, args.d, args.r1, theta) if args.scaled else 1
        f = scale * shifted_rect_sample(args.n, args.d, args.mode, args.seed)
    write_jsonl(args.out, f)
    print(args.out)
    return 0


def cmd_rates(args) -> int:
    given = {"rng_seed": args.seed, "output_path": args.out}
    config = dataclasses.replace(ExperimentConfig.load(args.config),
                                 **{k: v for k, v in given.items() if v is not None})
    if args.emit_plot_script and config.theorem_tag not in RATE_TAGS:
        raise ValueError(f"--emit-plot-script plots a rate CSV, and theorem_tag "
                         f"{config.theorem_tag!r} is none of the rate tags {RATE_TAGS}")
    result = run_experiment(config)
    if args.emit_plot_script:
        script = Path(config.output_path) / "plot_rates.py"
        script.write_text(PLOT_SCRIPT)
        result["plot_script"] = str(script)
    print(json.dumps({k: v for k, v in result.items() if isinstance(v, (str, bool, float, int))},
                     indent=2, sort_keys=True))
    return 0


def _read_cloud(path) -> CloudProblem:
    with open(path) as fh:
        header = json.loads(fh.readline())
        pts = [json.loads(line)["v"] for line in fh if line.strip()]
    return CloudProblem(pts, p=parse_extended(header.get("p", 2.0)))


def cmd_entropy(args) -> int:
    cloud = _read_cloud(args.cloud)
    if args.k is not None:
        print(f"{entropy_number_estimate(cloud, args.k):.17g}")
        return 0
    if args.eps is None:
        raise ValueError("need --eps or --k")
    n_ub, _ = covering_number_greedy(cloud, args.eps)
    m_lb, _ = packing_number_greedy(cloud, args.eps)
    out = {"greedy_covering_ub": n_ub, "greedy_packing_lb": m_lb,
           "H_eps_ub": math.log2(n_ub)}
    if args.exact and len(cloud) <= 12:
        out["covering_exact"] = covering_number_exact(cloud, args.eps)
        out["packing_exact"] = packing_number_exact(cloud, args.eps)
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_lemma_a(args) -> int:
    params = SmoothParams(_parse_rvec(args.r))
    ls = list(range(args.l_min, args.l_max + 1))
    modes = TAIL_MODES if args.mode == "both" else (args.mode,)
    rows = tail_sum_rows(args.alpha, params, ls, modes)
    if args.out:
        config = ExperimentConfig(theorem_tag="lemmaA", d=params.d, r=params.r,
                                  alpha=args.alpha, l_range=(args.l_min, args.l_max),
                                  output_path=str(Path(args.out).parent))
        write_csv(args.out, config, ("mode", "alpha", "l", "value", "normalized_ratio"), rows)
        print(args.out)
    else:
        for row in rows:
            print(f"{row[0]},{row[1]},{row[2]},{row[3]:.17g},{row[4]:.17g}")
    return 0


def cmd_cross(args) -> int:
    params = SmoothParams(_parse_rvec(args.r))
    cross = hyperbolic_cross(args.n, params, args.gamma_mode)
    if args.out:
        write_blocks(args.out, cross)
        print(args.out)
    else:
        for s in cross.tolist():
            print(" ".join(str(x) for x in s))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stepcross",
                                 description="step hyperbolic cross approximation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="evaluate or project a polynomial file")
    p_poly.add_argument("action", choices=("eval", "project"))
    p_poly.add_argument("--input", required=True)
    p_poly.add_argument("--at", help="comma separated point for direct evaluation")
    p_poly.add_argument("--points", type=int, help="uniform grid points per dimension")
    p_poly.add_argument("--oversampling", type=float, default=4.0)
    p_poly.add_argument("--n", type=float, help="cross level (project)")
    p_poly.add_argument("--r", default="1", help="smoothness vector, comma separated (project)")
    p_poly.add_argument("--gamma-mode", choices=GAMMA_MODES, default="gamma")
    p_poly.add_argument("--out")
    p_poly.set_defaults(func=cmd_poly)

    p_kernel = sub.add_parser("kernel", help="dump a kernel coefficient profile")
    p_kernel.add_argument("action", choices=("coeffs",))
    p_kernel.add_argument("--l", type=int, required=True)
    p_kernel.add_argument("--out")
    p_kernel.set_defaults(func=cmd_kernel)

    p_norm = sub.add_parser("norm", help="evaluate a norm on polynomial files")
    p_norm.add_argument("--spec", required=True, help="JSON norm spec")
    p_norm.add_argument("--input")
    p_norm.add_argument("--batch", nargs="+")
    p_norm.add_argument("--out")
    p_norm.set_defaults(func=cmd_norm)

    p_ext = sub.add_parser("extremal", help="generate a test-family member")
    p_ext.add_argument("action", choices=("gen",))
    p_ext.add_argument("--family", choices=("dn", "g", "tprime"), required=True)
    p_ext.add_argument("--n", type=int, required=True)
    p_ext.add_argument("--d", type=int, required=True)
    p_ext.add_argument("--r1", type=float, default=1.0)
    p_ext.add_argument("--p", default="2")
    p_ext.add_argument("--theta", default="inf")
    p_ext.add_argument("--c4", type=float, default=1.0)
    p_ext.add_argument("--mode", choices=("constant", "random-sign"), default="constant")
    p_ext.add_argument("--scaled", action="store_true")
    p_ext.add_argument("--seed", type=int, default=0)
    p_ext.add_argument("--out", required=True)
    p_ext.set_defaults(func=cmd_extremal)

    p_rates = sub.add_parser("rates", help="run a configured experiment")
    p_rates.add_argument("action", choices=("run",))
    p_rates.add_argument("--config", required=True)
    p_rates.add_argument("--seed", type=int)
    p_rates.add_argument("--out")
    p_rates.add_argument("--emit-plot-script", action="store_true")
    p_rates.set_defaults(func=cmd_rates)

    p_ent = sub.add_parser("entropy", help="covering/packing numbers of a cloud")
    p_ent.add_argument("--cloud", required=True)
    p_ent.add_argument("--eps", type=float)
    p_ent.add_argument("--k", type=int)
    p_ent.add_argument("--exact", action="store_true")
    p_ent.set_defaults(func=cmd_entropy)

    p_lem = sub.add_parser("lemma-a", help="weighted tail-sum ratio table")
    p_lem.add_argument("--alpha", type=float, required=True)
    p_lem.add_argument("--r", required=True)
    p_lem.add_argument("--l-min", type=int, default=10)
    p_lem.add_argument("--l-max", type=int, default=20)
    p_lem.add_argument("--mode", choices=TAIL_MODES + ("both",), default="both")
    p_lem.add_argument("--out")
    p_lem.set_defaults(func=cmd_lemma_a)

    p_cross = sub.add_parser("cross", help="dump the blocks of a hyperbolic cross")
    p_cross.add_argument("--n", type=float, required=True)
    p_cross.add_argument("--r", required=True)
    p_cross.add_argument("--gamma-mode", choices=GAMMA_MODES, default="gamma")
    p_cross.add_argument("--out")
    p_cross.set_defaults(func=cmd_cross)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
