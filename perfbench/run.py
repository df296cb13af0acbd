"""stepcross benchmark.

    python3 perfbench/run.py --workload {rate-sweep,family,checks} --seed N \
        --seconds S --trace {0,1}

Every measurement runs in a fresh interpreter (worker.py), one operation at a
time.  With ``--trace 0`` it prints the end-to-end metrics:

* wall_s: wall time of the workload's timed region, at the reference speed
  of speed.py: the machine's speed is sampled through the region and each
  stretch is scaled by it, which takes the drift of a shared host out;
* peak_rss_mb: peak resident memory of the workload process (ru_maxrss);
* setup_s: process start to the first timed operation (interpreter start,
  imports and seeded input generation), scaled by the speed measured just
  after it; the median over the measured process and 2 * SETUP_SAMPLES
  set-up-only processes;
* ok_frac: operations that returned a checked, correct output over those
  attempted.

With ``--trace 1`` it runs the workload once untraced and once with spans
around each layer's public functions, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it stamps the run (seed,
machine, library versions) and lists every operation with its problems.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import per_layer_metrics
from speed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rate-sweep", "family", "checks")
SETUP_SAMPLES = 3  # set-up-only processes before and after the measured one
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def worker(args, deadline: float, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *flags]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker {flags} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {flags} exited {proc.returncode}:\n{proc.stderr}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = (rec["ready"] - start) * REFERENCE_S / rec["setup_speed"]
    return rec


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    # set-up samples on both sides of the measured process, so that they do
    # not all fall into one phase of the machine's speed
    setups = [worker(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
    rec = worker(args, deadline)
    setups.append(rec["setup_s"])
    setups += [worker(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
    metrics = {
        "wall_s": (rec["wall_s"], "s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_frac": ((rec["attempted"] - rec["failed"]) / rec["attempted"], "frac"),
    }
    return rec, metrics


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    plain = worker(args, deadline)
    rec = worker(args, deadline, "--trace")
    rec["correct"] = rec["correct"] and plain["correct"]
    values = dict(rec["layers"])
    values["process.cpu_s"] = plain["cpu_s"]
    values["trace.overhead_frac"] = rec["wall_s"] / plain["wall_s"] - 1
    values["trace.span_frac"] = rec["top_s"] / rec["raw_wall_s"]
    metrics = {name: (values[name], unit) for name, unit, _ in per_layer_metrics()}
    return rec, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "stepcross" / "__init__.py").is_file():
        print(f"no stepcross sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        rec, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 3
    print(json.dumps({"stamp": rec["stamp"], "raw_wall_s": rec["raw_wall_s"],
                      "kernel_s": rec["speed"], "ops": rec["ops"]}))
    print(json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
