"""One benchmark process: set up a workload, run its operations one at a
time, check their outputs, and print the figures as one JSON line.

run.py starts this in a fresh interpreter for every measurement:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

``ready`` in the output is the CLOCK_MONOTONIC time at which set-up ended and
the first timed operation was about to start, and ``setup_speed`` the
reference kernel's time just after it.  ``wall_s`` is the timed region at the
reference speed (speed.py), ``raw_wall_s`` the same region as the clock read
it; both leave out the time spent sampling the speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedProbe, speed_now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(seed: int) -> dict:
    import numpy
    import scipy
    import scipy.fft

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "fft_workers": scipy.fft.get_workers(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    import workloads

    ops = workloads.WORKLOADS[workload](seed, seconds, out_dir)
    ready, setup_speed = time.monotonic(), speed_now()
    probe = SpeedProbe()
    clock = probe.clock
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer(clock=clock)
        tracer.install()
    outcomes = []
    probe.start()
    cpu0, start = _cpu_s(), clock()
    try:
        for op in ops:
            t0 = clock()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, exc
            outcomes.append((op, result, error, clock() - t0))
    finally:
        end, cpu_s = clock(), _cpu_s() - cpu0
        probe.stop()
        cpu_s -= probe.spent
        if tracer:
            tracer.uninstall()
    wall_s = probe.scaled(start, end)

    failed, correct, details = 0, True, []
    for op, result, error, op_s in outcomes:
        if error is not None:
            problems = [f"{type(error).__name__}: {error}"]
            known = op.known_defect
            correct &= bool(known and type(error).__name__ == known[0] and known[1] in str(error))
        else:
            try:
                problems = op.check(result)
            except Exception as exc:  # malformed output is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            correct &= not problems
        failed += bool(problems)
        details.append({"op": op.name, "s": round(op_s, 4), "problems": problems[:5]})
    out = {
        "ready": ready, "setup_speed": setup_speed,
        "wall_s": wall_s, "raw_wall_s": end - start, "cpu_s": cpu_s,
        "speed": statistics.median(took for _, took in probe.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops), "failed": failed, "correct": correct,
        "ops": details, "stamp": stamp(seed),
    }
    if tracer:
        out["layers"] = tracer.metrics()
        out["top_s"] = tracer.top_s
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import stepcross

    if Path(stepcross.__file__).resolve().parent != ROOT / "src" / "stepcross":
        print(f"stepcross imported from {stepcross.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    out_dir = HERE / "_out" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            import workloads

            workloads.WORKLOADS[args.workload](args.seed, args.seconds, out_dir)
            out = {"ready": time.monotonic(), "setup_speed": speed_now()}
        else:
            out = run(args.workload, args.seed, args.seconds, args.trace, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
